//! Headline-claims check (§I, §V-C observations, §VII).
//!
//! Three numbers the paper leads with, measured end-to-end:
//!
//! 1. "the proposed scheduler outperforms compared methods by over 20% on
//!    average for various power budgets" — geomean of CLIP over the best
//!    non-CLIP method per benchmark, across low budgets.
//! 2. "performs close to the optimal solution under various power budgets"
//!    — geomean gap of CLIP versus the exhaustive Oracle.
//! 3. "The average improvements are close to 20% under low power budget."
//!
//! Run with `--fast` to skip the Oracle (it executes 576 or 1,152
//! configurations per benchmark × budget, 979 on average over Table II).

use clip_bench::{
    allin_unbounded_reference, comparison_methods, emit, measure, oracle_performance, testbed,
};
use simkit::stats::geomean;
use simkit::table::Table;
use simkit::Power;
use workload::suite::table2_suite;

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let budgets_w = [900.0, 1200.0, 1600.0, 2000.0];
    let low_budgets_w = [900.0, 1200.0];
    let entries = table2_suite();
    let cluster = testbed();

    let mut table = Table::new(
        "Headline claims: CLIP vs best baseline and vs Oracle",
        &[
            "budget (W)",
            "geomean CLIP/best-baseline",
            "geomean CLIP/Oracle",
        ],
    );

    let mut low_budget_wins = Vec::new();
    for &budget_w in &budgets_w {
        let budget = Power::watts(budget_w);
        let mut wins = Vec::new();
        let mut oracle_gaps = Vec::new();
        for entry in &entries {
            let mut methods = comparison_methods();
            let perfs: Vec<f64> = methods
                .iter_mut()
                .map(|m| measure(m.as_mut(), &cluster, &entry.app, budget))
                .collect();
            let clip = *perfs.last().expect("CLIP is the last method");
            let best_baseline = perfs[..perfs.len() - 1]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            wins.push(clip / best_baseline);
            if !fast {
                let oracle = oracle_performance(&cluster, &entry.app, budget);
                oracle_gaps.push(clip / oracle);
            }
        }
        if low_budgets_w.contains(&budget_w) {
            low_budget_wins.extend(wins.clone());
        }
        table.row(&[
            format!("{budget_w:.0}"),
            format!("{:.3}", geomean(&wins)),
            if fast {
                "(skipped)".to_string()
            } else {
                format!("{:.3}", geomean(&oracle_gaps))
            },
        ]);
    }
    emit(&table);

    let avg_low = geomean(&low_budget_wins);
    println!(
        "\naverage improvement over the best baseline at low budgets: {:+.1}%  (paper claims ≈20%)",
        (avg_low - 1.0) * 100.0
    );

    // Per-observation spot checks from §V-C.
    let mut spot = Table::new("§V-C spot checks", &["observation", "measured", "holds"]);
    let budget = Power::watts(2000.0);
    let mut clip = clip_bench::clip_scheduler();
    let mut coord = baselines::Coordinated::new();

    // Obs 1/4: CLIP ≥ 40% over baselines for parabolic apps.
    let mut parabolic_wins = Vec::new();
    for entry in entries
        .iter()
        .filter(|e| e.expected_class == workload::ScalabilityClass::Parabolic)
    {
        let c = measure(&mut clip, &cluster, &entry.app, budget);
        let co = measure(&mut coord, &cluster, &entry.app, budget);
        parabolic_wins.push(c / co);
    }
    let par_win = geomean(&parabolic_wins);
    spot.row(&[
        "CLIP vs Coordinated on parabolic apps (paper: up to 60%)".to_string(),
        format!("{:+.1}%", (par_win - 1.0) * 100.0),
        (par_win > 1.25).to_string(),
    ]);

    // Obs 1: CLIP ≈ All-In for most apps with no power bound.
    let mut no_bound_ratio = Vec::new();
    for entry in &entries {
        let reference = allin_unbounded_reference(&cluster, &entry.app);
        let c = measure(
            &mut clip,
            &cluster,
            &entry.app,
            clip_bench::unbounded_budget(),
        );
        no_bound_ratio.push(c / reference);
    }
    let nb = geomean(&no_bound_ratio);
    spot.row(&[
        "CLIP / All-In with no power bound (≥1 expected)".to_string(),
        format!("{nb:.3}"),
        (nb >= 0.99).to_string(),
    ]);
    println!();
    emit(&spot);
}
