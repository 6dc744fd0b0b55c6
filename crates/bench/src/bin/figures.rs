//! Regenerate every figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p orv-bench --bin figures            # all figures
//! cargo run --release -p orv-bench --bin figures -- --fig 4 # one figure
//! cargo run --release -p orv-bench --bin figures -- --json  # JSON output
//! ```

#![forbid(unsafe_code)]

use orv_bench::{
    fig4_series, fig5_series, fig6_series, fig7_series, fig8_series, fig9_series, figures_json,
    Figure, PolicyRow,
};

fn print_figure(fig: &Figure) {
    println!("\n=== Figure {}: {} ===", fig.id, fig.title);
    println!(
        "{:>16}  {:>12} {:>12} {:>12} {:>12}   winner(sim)",
        fig.x_label, "IJ sim [s]", "GH sim [s]", "IJ model", "GH model"
    );
    for p in &fig.points {
        let winner = if p.ij_sim < p.gh_sim { "IJ" } else { "GH" };
        println!(
            "{:>16.4e}  {:>12.3} {:>12.3} {:>12.3} {:>12.3}   {winner}",
            p.x, p.ij_sim, p.gh_sim, p.ij_model, p.gh_model
        );
    }
}

/// The Section 6.2 decision plane: for each average right-sub-table degree
/// `n_e/m_S` and combined record size, the threshold `IO_bw/F` below which
/// IJ is preferred. "Existing trends indicate that processing power
/// increases at a much faster rate than I/O bandwidth" — i.e. real systems
/// drift downwards in this table, into IJ territory.
fn print_crossover_plane() {
    use orv_bench::figures::GAMMA_LOOKUP;
    println!("\n=== Section 6.2: IO_bw/F threshold below which IJ wins ===");
    println!("(threshold = 2·(RS_R+RS_S) / (γ2·(n_e/m_S − 1)), γ2 = {GAMMA_LOOKUP})");
    let record_sizes = [16.0f64, 32.0, 84.0, 168.0];
    print!("{:>12}", "n_e/m_S ↓");
    for rs in record_sizes {
        print!("  RS={rs:>5.0}B");
    }
    println!();
    for degree in [1.0f64, 2.0, 4.0, 8.0, 32.0, 128.0] {
        print!("{degree:>12.0}");
        for rs in record_sizes {
            if degree <= 1.0 {
                print!("  {:>8}", "always");
            } else {
                let threshold = 2.0 * rs / (GAMMA_LOOKUP * (degree - 1.0));
                print!("  {threshold:>8.1e}");
            }
        }
        println!();
    }
    // Reference points: bytes-per-op of two real machines.
    let piii = 25.0e6 / 933.0e6;
    println!(
        "\nreference IO_bw/F: paper testbed (25 MB/s IDE / 933 MHz) = {piii:.2e}; \
         modern NVMe/5 GHz ≈ {:.2e}",
        3.0e9 / 5.0e9 * 0.2 // ~GB/s per core-op-rate, still drifting down per core
    );
}

/// Ablation A1: misses and simulated seconds per schedule policy.
fn print_schedule_ablation(rows: &[PolicyRow]) {
    println!("\n=== Ablation A1: IJ schedule policies under cache pressure ===");
    print!("{:>10} {:>12}", "× WS", "cache [B]");
    for name in ["two-stage", "random", "pair RR", "OPAS"] {
        print!("  {name:>16}");
    }
    println!("\n{:>23}{}", "", "  misses / sim [s]".repeat(4));
    for row in rows {
        print!("{:>10} {:>12}", row.fraction, row.cache_bytes);
        for (_, misses, secs) in &row.runs {
            print!("  {misses:>7} / {secs:>6.2}");
        }
        println!();
    }
    println!(
        "(a = b = 16 dataset, 5 + 5 nodes; WS = 2·c_R + b·c_S; OPAS buffer = cache in sub-tables)"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    if args.iter().any(|a| a == "--plane") {
        print_crossover_plane();
        return;
    }
    if args.iter().any(|a| a == "--ablations") {
        let fig = orv_bench::ablation_cache_series().expect("ablation series");
        print_figure(&fig);
        println!("(GH columns are the cache-oblivious reference; IJ model = ideal cache)");
        print_schedule_ablation(&orv_bench::ablation_schedule_series().expect("A1 series"));
        return;
    }
    let only: Option<u32> = args
        .iter()
        .position(|a| a == "--fig")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());

    let all: Vec<fn() -> orv_types::Result<Figure>> = vec![
        fig4_series,
        fig5_series,
        fig6_series,
        fig7_series,
        fig8_series,
        fig9_series,
    ];
    let mut out = Vec::new();
    for f in all {
        let fig = f().expect("figure generation failed");
        if only.is_some_and(|id| id != fig.id) {
            continue;
        }
        out.push(fig);
    }
    if json {
        println!("{}", figures_json(&out));
    } else {
        for fig in &out {
            print_figure(fig);
        }
        println!();
    }
}
