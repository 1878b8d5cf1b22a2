//! The `clip-lint` CLI: analyze the workspace, apply the allowlist, report.
//!
//! ```text
//! clip-lint [--json] [--allowlist PATH] [--timings PATH] [--schema-version]
//!           [ROOT]
//! ```
//!
//! Exits 0 when no violations survive the allowlist, 1 otherwise, 2 on
//! usage or I/O errors. `scripts/check.sh` runs it as a hard gate:
//! `--schema-version` prints the bare report version (its schema gate),
//! and `--timings` writes the wall time and file count as JSON (its
//! `BENCH_lint.json` ratchet input).

use clip_lint::{parse_allowlist, AllowEntry, Analysis};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    json: bool,
    schema_version: bool,
    allowlist: Option<PathBuf>,
    timings: Option<PathBuf>,
    root: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        schema_version: false,
        allowlist: None,
        timings: None,
        root: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--schema-version" => args.schema_version = true,
            "--allowlist" => {
                let path = it.next().ok_or("--allowlist needs a path")?;
                args.allowlist = Some(PathBuf::from(path));
            }
            "--timings" => {
                let path = it.next().ok_or("--timings needs a path")?;
                args.timings = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: clip-lint [--json] [--allowlist PATH] [--timings PATH] \
                     [--schema-version] [ROOT]"
                        .to_string(),
                )
            }
            other if !other.starts_with('-') && args.root.is_none() => {
                args.root = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The nearest ancestor of `start` containing a workspace `Cargo.toml`.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[expect(
    clippy::disallowed_types,
    reason = "the --timings wall clock measures the analyzer itself and never reaches a report"
)]
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.schema_version {
        // The bare number, nothing else: `scripts/check.sh` compares it
        // verbatim instead of grepping the JSON report.
        println!("{}", clip_lint::REPORT_VERSION);
        return Ok(true);
    }
    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_workspace_root(&cwd).ok_or("no workspace Cargo.toml above cwd")?
        }
    };

    let allow_path = args
        .allowlist
        .unwrap_or_else(|| root.join("clip-lint.allow"));
    let allow: Vec<AllowEntry> = if allow_path.is_file() {
        let text = std::fs::read_to_string(&allow_path).map_err(|e| e.to_string())?;
        let (entries, errors) = parse_allowlist(&text);
        if let Some(first) = errors.first() {
            return Err(format!("{}: {first}", allow_path.display()));
        }
        entries
    } else {
        Vec::new()
    };

    let started = std::time::Instant::now();
    let Analysis {
        report,
        stale_allow,
    } = clip_lint::analyze_workspace(&root, &allow)
        .map_err(|e| format!("{}: {e}", root.display()))?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    for idx in &stale_allow {
        if let Some(e) = allow.get(*idx) {
            eprintln!(
                "clip-lint: warning: stale allowlist entry `{} {} {}` matched nothing",
                e.rule, e.file, e.name
            );
        }
    }
    for stale in &report.stale_unreachable {
        eprintln!(
            "clip-lint: warning: allowlist entry `{} {} {}` is stale-unreachable: no \
             scheduler entry point reaches its panic site — prune it",
            stale.rule, stale.file, stale.name
        );
    }

    if args.json {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        println!("{json}");
    } else {
        for v in &report.violations {
            println!("{}:{}: [{}] {}", v.file, v.line, v.rule.name(), v.message);
        }
        let s = &report.summary;
        println!(
            "clip-lint: {} file(s), {} fn(s), {} entry point(s), {} violation(s) \
             ({} unit-safety, {} panic-freedom, {} exhaustiveness, {} unit-taint, \
             {} ledger-coverage, {} lock-discipline), {} allowlisted",
            s.files_scanned,
            s.functions,
            s.entry_points,
            s.total,
            s.unit_safety,
            s.panic_freedom,
            s.exhaustiveness,
            s.unit_taint,
            s.ledger_coverage,
            s.lock_discipline,
            s.allowlisted
        );
        let reachable = report
            .panic_reachability
            .iter()
            .filter(|p| !p.routes.is_empty())
            .count();
        println!(
            "clip-lint: {} allowlisted panic site(s), {} reachable from scheduler entry points",
            report.panic_reachability.len(),
            reachable
        );
    }
    eprintln!("clip-lint: analyzed in {elapsed_ms:.1} ms");
    if let Some(timings_path) = &args.timings {
        let text = format!(
            "{{\n  \"wall_ms\": {elapsed_ms:.1},\n  \"files_scanned\": {}\n}}\n",
            report.summary.files_scanned
        );
        if let Some(parent) = timings_path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
        }
        std::fs::write(timings_path, text)
            .map_err(|e| format!("{}: {e}", timings_path.display()))?;
    }
    Ok(report.summary.total == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("clip-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
