//! Cost-model validation: model vs simulation vs threaded runtime.
//!
//! ```text
//! cargo run --release -p orv-bench --bin validate
//! ```
//!
//! Emits three sections:
//!
//! 1. **Model vs simulation** — relative error of the Section 5 closed
//!    forms against the discrete-event simulation across the Figure 4
//!    family (the paper's "models fit actual execution times closely").
//! 2. **Crossover agreement** — where the model and the simulation place
//!    the IJ/GH crossover along the `n_e·c_S` axis.
//! 3. **Threaded runtime** — measured laptop-scale wall times beside the
//!    host-calibrated model totals, with the planner's pick vs the
//!    empirical winner (DESIGN.md experiment A4).

#![forbid(unsafe_code)]

use orv_bench::runtime_check::run_family;
use orv_bench::{fig4_series, fig5_series, fig6_series, fig7_series, fig8_series};

fn main() {
    println!("== 1. Model vs simulation (relative error, paper-scale sim) ==");
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>10}",
        "figure", "IJ mean err", "GH mean err", "IJ max", "GH max"
    );
    for (name, fig) in [
        ("fig4", fig4_series()),
        ("fig5", fig5_series()),
        ("fig6", fig6_series()),
        ("fig7", fig7_series()),
        ("fig8", fig8_series()),
    ] {
        let fig = fig.expect("series");
        let errs: Vec<(f64, f64)> = fig
            .points
            .iter()
            .map(|p| {
                (
                    (p.ij_model - p.ij_sim).abs() / p.ij_sim,
                    (p.gh_model - p.gh_sim).abs() / p.gh_sim,
                )
            })
            .collect();
        let mean = |f: fn(&(f64, f64)) -> f64| errs.iter().map(f).sum::<f64>() / errs.len() as f64;
        let max = |f: fn(&(f64, f64)) -> f64| errs.iter().map(f).fold(0.0f64, f64::max);
        println!(
            "{:>8} {:>13.1}% {:>13.1}% {:>9.1}% {:>9.1}%",
            name,
            100.0 * mean(|e| e.0),
            100.0 * mean(|e| e.1),
            100.0 * max(|e| e.0),
            100.0 * max(|e| e.1),
        );
    }

    println!("\n== 2. Crossover agreement along n_e·c_S (fig4 family) ==");
    let fig4 = fig4_series().expect("fig4");
    let cross_of = |key: fn(&orv_bench::Point) -> (f64, f64)| -> Option<f64> {
        fig4.points.windows(2).find_map(|w| {
            let (a_ij, a_gh) = key(&w[0]);
            let (b_ij, b_gh) = key(&w[1]);
            ((a_ij < a_gh) && (b_ij >= b_gh)).then_some((w[0].x + w[1].x) / 2.0)
        })
    };
    match (
        cross_of(|p| (p.ij_sim, p.gh_sim)),
        cross_of(|p| (p.ij_model, p.gh_model)),
    ) {
        (Some(sim), Some(model)) => {
            println!("simulation crossover ≈ {sim:.3e}, model crossover ≈ {model:.3e}");
            println!(
                "agreement: within a factor of {:.2}",
                (sim / model).max(model / sim)
            );
        }
        other => println!("crossover not bracketed: {other:?}"),
    }

    println!("\n== 3. Threaded runtime (grid 256×256×1, 2 storage, 4 compute threads) ==");
    let (rows, cal) = run_family([256, 256, 1], 5, 2, 4).expect("runtime family");
    println!(
        "host calibration: α_build = {:.1} ns, α_lookup = {:.1} ns",
        cal.alpha_build * 1e9,
        cal.alpha_lookup * 1e9
    );
    println!(
        "{:>3} {:>12} {:>10} {:>10} {:>10} {:>10} {:>8} {:>6} {:>8}",
        "i", "n_e·c_S", "IJ [s]", "GH [s]", "IJ model", "GH model", "tuples", "pick", "correct"
    );
    let mut correct = 0;
    for r in &rows {
        println!(
            "{:>3} {:>12.3e} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>8} {:>6} {:>8}",
            r.i,
            r.ne_cs,
            r.ij_measured,
            r.gh_measured,
            r.ij_model,
            r.gh_model,
            r.tuples,
            r.planner_pick,
            r.pick_correct
        );
        correct += r.pick_correct as u32;
    }
    println!(
        "planner picked the empirically faster algorithm in {correct}/{} cases",
        rows.len()
    );
}
