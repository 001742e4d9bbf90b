//! The benchmark's fixed vocabulary: workload names, metric names with
//! units, directions and bounds, and the corpus sizes. `BENCHMARK.json`
//! at the repository root repeats these lists; `tests/smoke.rs` fails
//! when the two disagree.

/// Measured window of one run, in seconds, when `--seconds` is absent.
/// Equals `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// A workload name and the reason it exists (one line).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "lib.xmark",
        "Fig. 6/7 shape: in-process run_prepared on a 10 MB XMark document; index and algebra do all the work, so scan-skipping must show here",
    ),
    (
        "serve.warm",
        "128 cached (user, query) pairs over loopback on a small corpus: no compile cost; framing, JSON, queue hand-off and hit materialization are a third of each request",
    ),
    (
        "serve.cold",
        "same server, never-repeating queries: every request misses the plan cache and pays tpq parse, scoping analysis, plan assembly and a cache insert",
    ),
    (
        "serve.ingest",
        "open-loop add_documents batches and background merges beside a closed-loop reader on a durable data_dir: read, write and space cost together",
    ),
];

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; `0.0` on per-layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricSpec {
    e2e(name, unit, higher, 0.0)
}

/// End-to-end metrics, reported by every workload of an untraced run.
///
/// The bounds are what the 2-core reference sandbox can hold: across ten
/// seeds the timings spread (quartile distance over median) by 4–15%
/// whatever the window, most of it drift of the shared host, so the
/// bounds are the widest `BENCHMARK.json` allows.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("search_p50_us", "us", false, 0.25),
    e2e("search_p95_us", "us", false, 0.25),
    e2e("search_qps", "1/s", true, 0.25),
    e2e("write_p50_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.20),
    e2e("setup_s", "s", false, 0.25),
];

/// Per-layer metrics (layer = crate name), reported by every workload of
/// a traced run. They have no bound.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("xml.parse_mb_per_s", "MB/s", true),
    layer("index.build_s", "s", false),
    layer("index.snapshot_open_ms", "ms", false),
    layer("index.snapshot_bytes_per_xml_byte", "ratio", false),
    layer("tpq.parse_us", "us", false),
    layer("profile.compile_us", "us", false),
    layer("core.prepare_us", "us", false),
    layer("core.run_us", "us", false),
    layer("core.prepare_share", "%", false),
    layer("core.run_share", "%", false),
    layer("algebra.candidates", "count", false),
    layer("algebra.ft_probes", "count", false),
    layer("algebra.pruned", "count", true),
    layer("algebra.vor_comparisons", "count", false),
    layer("algebra.emit_ratio", "ratio", true),
    layer("serve.json_share", "%", false),
    layer("serve.overhead_share", "%", false),
    layer("serve.cache_hit_ratio", "ratio", true),
    layer("serve.rejected_overload", "count", false),
    layer("ingest.apply_ms", "ms", false),
    layer("ingest.encode_ms", "ms", false),
    layer("ingest.compact_ms", "ms", false),
    layer("ingest.bytes_written_per_xml_byte", "ratio", false),
    layer("ingest.space_per_live_byte", "ratio", false),
    layer("ingest.merges", "count", true),
    layer("ingest.write_late_share", "ratio", false),
    layer("trace.overhead_pct", "%", false),
];

/// Corpus and load sizes. [`Sizes::full`] is the benchmark; the smoke
/// test runs [`Sizes::tiny`].
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `lib.xmark`: generated document size in bytes.
    pub xmark_bytes: usize,
    /// `serve.warm` / `serve.cold`: dealer documents × cars each.
    pub dealers: usize,
    /// Cars per dealer document of the boot corpus.
    pub cars: usize,
    /// `serve.ingest`: dealer documents of the boot corpus.
    pub ingest_dealers: usize,
    /// `serve.ingest`: cars per dealer document of the boot corpus.
    pub ingest_cars: usize,
    /// Registered users, each with its own seeded profile.
    pub users: usize,
    /// Documents per write batch.
    pub batch_docs: usize,
    /// Cars per written dealer document.
    pub batch_cars: usize,
    /// Open-loop write period in milliseconds.
    pub write_period_ms: u64,
    /// Quiesced write batches timed after the window on the
    /// static-corpus workloads.
    pub quiesced_batches: usize,
    /// Warm-up before the measured window, in milliseconds (excluded).
    pub warmup_ms: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Requests the replay lane re-executes per traced run, at most.
    pub replay_sample: usize,
    /// `serve.cold` requests re-evaluated against the reference, at most.
    pub cold_check_sample: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            xmark_bytes: 10 * 1024 * 1024,
            dealers: 16,
            cars: 25,
            ingest_dealers: 32,
            ingest_cars: 100,
            users: 16,
            batch_docs: 4,
            batch_cars: 10,
            write_period_ms: 100,
            quiesced_batches: 64,
            warmup_ms: 2000,
            setups: 9,
            replay_sample: 512,
            cold_check_sample: 256,
        }
    }

    /// A corpus small enough for `cargo test`.
    pub fn tiny() -> Sizes {
        Sizes {
            xmark_bytes: 200 * 1024,
            dealers: 3,
            cars: 20,
            ingest_dealers: 3,
            ingest_cars: 20,
            users: 4,
            batch_docs: 2,
            batch_cars: 4,
            write_period_ms: 50,
            quiesced_batches: 3,
            warmup_ms: 100,
            setups: 2,
            replay_sample: 64,
            cold_check_sample: 32,
        }
    }
}

/// Closed-loop search clients of `workload`, one connection and one
/// thread each: `min(nproc, 4)`, but one on `serve.ingest`, whose second
/// connection is the writer.
pub fn clients(workload: &str) -> usize {
    if workload == "serve.ingest" {
        1
    } else {
        nproc().min(4)
    }
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
