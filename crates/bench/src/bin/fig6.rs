//! Regenerates **Fig. 6** (paper §7.2): PushTopkPrune query time for
//! increasing document size (101 KB … 10 MB) and increasing number of
//! KORs (1–4). Pass `--quick` to use only the first four sizes.

use pimento_bench::perf;
use pimento_datagen::xmark::FIG6_SIZES;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: Vec<(&str, usize)> = if quick {
        FIG6_SIZES[..4].to_vec()
    } else {
        FIG6_SIZES.to_vec()
    };
    eprintln!(
        "running Fig. 6 sweep over {} document sizes (k=10)...",
        sizes.len()
    );
    let cells = perf::run_fig6(2007, &sizes, 10, 3);
    print!("{}", perf::render_fig6(&cells));
    // The paper's headline observation: sub-linear growth between 1M and
    // 5.7M for PushTopkPrune.
    let t = |label: &str| {
        cells
            .iter()
            .find(|c| c.size_label == label && c.n_kors == 4)
            .map(|c| c.time.as_secs_f64())
    };
    if let (Some(t1m), Some(t57)) = (t("1M"), t("5.7M")) {
        println!(
            "\n1M -> 5.7M size ratio 5.7x; time ratio {:.2}x ({})",
            t57 / t1m,
            if t57 / t1m < 5.7 {
                "sub-linear, as in the paper"
            } else {
                "NOT sub-linear"
            }
        );
    }
}
