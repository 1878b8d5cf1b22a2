//! Environment metadata recorded with every result: the commit, the
//! compiler, the processor count the run sees and the date.

use std::collections::BTreeMap;
use std::process::Command;

/// Collect the metadata as string pairs.
pub fn collect() -> BTreeMap<String, String> {
    let unknown = || "unknown".to_string();
    let mut env = BTreeMap::new();
    env.insert(
        "commit".to_string(),
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
    );
    env.insert(
        "rustc".to_string(),
        command_line("rustc", &["--version"]).unwrap_or_else(unknown),
    );
    env.insert(
        "nproc".to_string(),
        std::thread::available_parallelism().map_or_else(|_| unknown(), |n| n.to_string()),
    );
    env.insert(
        "date".to_string(),
        command_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"]).unwrap_or_else(unknown),
    );
    env
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}
