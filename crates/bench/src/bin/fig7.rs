//! Regenerates **Fig. 7** (paper §7.2): run-time comparison of the four
//! plans (NtpkP, NS-ILtpkP, S-ILtpkP, PtpkP) on a 10 MB document for
//! 1–4 KORs. `--quick` uses a 1 MB document; `--ablation` additionally
//! runs the §7.2 KOR application-order experiment.

use pimento_bench::perf;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ablation = std::env::args().any(|a| a == "--ablation");
    let bytes = if quick { 1024 * 1024 } else { 10 * 1024 * 1024 };
    eprintln!(
        "running Fig. 7 plan comparison on a {} MB document (k=10)...",
        bytes / (1024 * 1024)
    );
    let cells = perf::run_fig7(2007, bytes, 10, 3);
    print!("{}", perf::render_fig7(&cells, bytes));

    // The paper's observations, checked mechanically.
    let avg = |s: pimento::PlanStrategy| -> f64 {
        let xs: Vec<f64> = cells
            .iter()
            .filter(|c| c.strategy == s)
            .map(|c| c.time.as_secs_f64())
            .collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    use pimento::PlanStrategy::*;
    println!(
        "\nPtpkP vs NtpkP average: {:.2} ms vs {:.2} ms ({})",
        avg(Push) * 1e3,
        avg(Naive) * 1e3,
        if avg(Push) <= avg(Naive) * 1.05 {
            "PushTopkPrune never does worse than Naive — as in the paper"
        } else {
            "unexpected: Push slower than Naive"
        }
    );
    println!(
        "S-ILtpkP vs NS-ILtpkP average: {:.2} ms vs {:.2} ms ({})",
        avg(InterleaveSorted) * 1e3,
        avg(InterleaveUnsorted) * 1e3,
        if avg(InterleaveSorted) <= avg(InterleaveUnsorted) {
            "sorted interleaving outperforms unsorted — as in the paper"
        } else {
            "unexpected: sorted slower"
        }
    );

    if ablation {
        println!("\n§7.2 ablation — KOR application order (PtpkP, skewed weights):");
        for (label, time, probes) in perf::run_kor_order_ablation(2007, bytes, 10, 5) {
            println!(
                "  {label:<14} {:.2} ms   keyword probes {probes}",
                time.as_secs_f64() * 1e3
            );
        }
    }
}
