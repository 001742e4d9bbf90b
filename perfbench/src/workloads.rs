//! The four workloads. Each generates its inputs from the seed, sets up
//! several times (reporting the median as `setup_s`), warms up, measures
//! one window, reads the peak memory, and only then checks every kept
//! reply against the reference — so checking steals no CPU from the
//! program while it is measured.

use crate::check::{self, Reply};
use crate::inputs::{self, Item, Stream};
use crate::replay::{self, Recorded, Wire, WriteBatch};
use crate::serve::{self, Load, Running, Sample, WriteSample};
use crate::spec::{self, Sizes};
use crate::stats::{self, median, summarize, Summary};
use crate::trace::{traced_slice, Recorder};
use pimento::algebra::ExecStats;
use pimento::profile::{parse_profile, PrefRelRegistry, UserProfile};
use pimento::{Engine, SearchOptions};
use pimento_serve::ServeConfig;
use pimento_xml::SymbolTable;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time slices a serve window is cut into for the search metrics.
const SLICES: usize = 20;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Ctx<'a> {
    /// Input seed.
    pub seed: u64,
    /// Measured window in seconds.
    pub seconds: f64,
    /// Record spans and run the replay lane.
    pub trace: bool,
    /// Corpus and load sizes.
    pub sizes: &'a Sizes,
    /// Directory for `trace.json` and the durable data directory.
    pub out_dir: PathBuf,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (searches, writes, post-window checks).
    pub attempted: u64,
    /// Operations failed, refused, or wrong against the reference.
    pub failed: u64,
    /// Every metric computed, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl Outcome {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.report.push(format!("FAILED: {}", what()));
            }
        }
    }

    fn say(&mut self, line: String) {
        self.report.push(line);
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Run the workload called `name`.
pub fn run_workload(name: &str, ctx: &Ctx<'_>) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("{}: {e}", ctx.out_dir.display()))?;
    let mut out = match name {
        "lib.xmark" => lib_xmark(ctx),
        "serve.warm" => serve_workload(ctx, Kind::Warm),
        "serve.cold" => serve_workload(ctx, Kind::Cold),
        "serve.ingest" => serve_workload(ctx, Kind::Ingest),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    let wanted = if ctx.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    for m in wanted {
        if !out.metrics.contains_key(m.name) {
            return Err(format!("workload `{name}` did not measure `{}`", m.name));
        }
    }
    let share = out.failed_share();
    out.say(format!(
        "failed_share = {share} ({} of {} operations)",
        out.failed, out.attempted
    ));
    Ok(out)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

fn parse_rules(rules: &[String]) -> Result<Vec<UserProfile>, String> {
    let registry = PrefRelRegistry::new();
    rules
        .iter()
        .map(|r| parse_profile(r, &registry).map_err(|e| e.to_string()))
        .collect()
}

/// One group of searches: their latencies in microseconds and the time
/// the group took in seconds.
type Group = (Vec<f64>, f64);

/// The three search metrics of a window, plus the informational p99.
///
/// The window is cut into groups (equal time slices, or passes over
/// `lib.xmark`'s variant cycle); each metric is computed per group and
/// reported as the median over groups, with the quartiles over groups as
/// its dispersion. A disturbance that hits a few groups — another
/// tenant on the host, a merge — then moves the quartiles and not the
/// metric, while a change to the program moves every group.
fn search_metrics(out: &mut Outcome, groups: &[Group]) {
    let all: Vec<f64> = groups
        .iter()
        .flat_map(|(lat, _)| lat.iter().copied())
        .collect();
    let whole = summarize(&all);
    let per_group: Vec<(Summary, f64)> = groups
        .iter()
        .filter(|(lat, _)| !lat.is_empty())
        .map(|(lat, secs)| (summarize(lat), lat.len() as f64 / secs))
        .collect();
    let over_groups = |f: fn(&(Summary, f64)) -> f64| -> Summary {
        summarize(&per_group.iter().map(f).collect::<Vec<_>>())
    };
    let p50 = over_groups(|(s, _)| s.p50);
    let p95 = over_groups(|(s, _)| s.p95);
    let qps = over_groups(|(_, qps)| *qps);
    out.set("search_p50_us", p50.p50);
    out.set("search_p95_us", p95.p50);
    out.set("search_qps", qps.p50);
    out.say(format!(
        "search latency over the whole window: {}",
        whole.line("us")
    ));
    for (name, s, unit) in [
        ("search_p50_us", p50, "us"),
        ("search_p95_us", p95, "us"),
        ("search_qps", qps, "1/s"),
    ] {
        out.say(format!(
            "{name}: median {:.1} {unit} over {} groups of ~{} searches (quartiles {:.1} .. {:.1})",
            s.p50,
            s.n,
            whole.n / s.n.max(1),
            s.p25,
            s.p75
        ));
    }
    out.say(format!(
        "search_p99_us = {:.1} (whole window, informational)",
        whole.p99
    ));
}

/// Cut a window of `window_ns` into `n` equal time slices; a search
/// belongs to the slice it started in.
fn time_slices(samples: &[Sample], window_ns: u64, n: usize) -> Vec<Group> {
    let slice_ns = (window_ns / n as u64).max(1);
    let mut groups: Vec<Group> = vec![(Vec::new(), slice_ns as f64 / 1e9); n];
    for x in samples {
        let i = ((x.start_ns / slice_ns) as usize).min(n - 1);
        groups[i].0.push(x.latency_us());
    }
    groups
}

fn setup_metrics(out: &mut Outcome, setup_s: &[f64], datagen_s: f64) {
    let s = summarize(setup_s);
    out.set("setup_s", s.p50);
    out.say(format!(
        "setup_s: n={} p25={:.4} p50={:.4} p75={:.4} s (datagen_s = {datagen_s:.4}, not a metric of the program)",
        s.n, s.p25, s.p50, s.p75
    ));
}

fn write_metrics(out: &mut Outcome, latencies_ms: &[f64], how: &str) {
    let s = summarize(latencies_ms);
    out.set("write_p50_ms", s.p50);
    out.say(format!("write latency ({how}): {}", s.line("ms")));
}

/// Layer metrics that need only the corpus, the engine and the rules:
/// measured around public calls, after the window.
fn corpus_probes(
    out: &mut Outcome,
    docs: &[String],
    engine: &Engine,
    rules: &[String],
    query: &str,
    build_s: &[f64],
) -> Result<(), String> {
    let xml_bytes: usize = docs.iter().map(String::len).sum();
    let mut parse_rates = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let mut symbols = SymbolTable::default();
        for d in docs {
            std::hint::black_box(
                pimento_xml::parse_content(d, &mut symbols).map_err(|e| e.to_string())?,
            );
        }
        parse_rates.push(xml_bytes as f64 / 1e6 / secs(t.elapsed()));
    }
    out.set("xml.parse_mb_per_s", median(&parse_rates));
    out.set("index.build_s", median(build_s));

    let t = Instant::now();
    let snapshot = engine.save_snapshot();
    let save_ms = ms(t.elapsed());
    let mut open_ms = Vec::new();
    for _ in 0..3 {
        let bytes = snapshot.clone();
        let t = Instant::now();
        std::hint::black_box(Engine::from_snapshot_bytes(bytes).map_err(|e| e.to_string())?);
        open_ms.push(ms(t.elapsed()));
    }
    out.set("index.snapshot_open_ms", median(&open_ms));
    out.set(
        "index.snapshot_bytes_per_xml_byte",
        snapshot.len() as f64 / xml_bytes as f64,
    );

    let registry = PrefRelRegistry::new();
    let mut compile_us = Vec::new();
    for _ in 0..3 {
        for r in rules {
            let t = Instant::now();
            let profile = parse_profile(r, &registry).map_err(|e| e.to_string())?;
            std::hint::black_box(
                engine
                    .personalize(query, &profile)
                    .map_err(|e| e.to_string())?,
            );
            compile_us.push(us(t.elapsed()));
        }
    }
    out.set("profile.compile_us", median(&compile_us));
    out.say(format!(
        "corpus: {} documents, {xml_bytes} XML bytes; snapshot {} bytes saved in {save_ms:.2} ms",
        docs.len(),
        snapshot.len()
    ));
    Ok(())
}

/// Layer metrics read off the recorder once the replay lane has run.
fn trace_metrics(
    out: &mut Outcome,
    rec: &Recorder,
    stats: &[ExecStats],
    ctx: &Ctx<'_>,
    name: &str,
) {
    for (metric, span) in [
        ("tpq.parse_us", "tpq.parse"),
        ("core.prepare_us", "core.prepare"),
        ("core.run_us", "core.run"),
    ] {
        let s = summarize(&rec.durations_us(span));
        out.set(metric, s.p50);
        out.say(format!("{metric}: {}", s.line("us")));
    }
    for (metric, span) in [
        ("ingest.apply_ms", "ingest.apply"),
        ("ingest.encode_ms", "ingest.encode"),
        ("ingest.compact_ms", "ingest.compact"),
    ] {
        let in_ms: Vec<f64> = rec.durations_us(span).iter().map(|u| u / 1000.0).collect();
        let s = summarize(&in_ms);
        out.set(metric, s.p50);
        out.say(format!("{metric}: {}", s.line("ms")));
    }

    let n = stats.len().max(1) as f64;
    let mean = |f: fn(&ExecStats) -> u64| stats.iter().map(f).sum::<u64>() as f64 / n;
    let candidates = mean(|s| s.base_answers);
    let emitted = mean(|s| s.emitted);
    out.set("algebra.candidates", candidates);
    out.set("algebra.ft_probes", mean(|s| s.ft_probes));
    out.set("algebra.pruned", mean(|s| s.pruned + s.bulk_pruned));
    out.set("algebra.vor_comparisons", mean(|s| s.vor_comparisons));
    out.set(
        "algebra.emit_ratio",
        if candidates > 0.0 {
            emitted / candidates
        } else {
            0.0
        },
    );
    out.say(format!(
        "algebra (mean per query over {} replayed queries): candidates {candidates:.2}, emitted {emitted:.2}",
        stats.len()
    ));

    let st = rec.self_times("client.search");
    let prepare = st.share_pct("core.prepare") + st.share_pct("tpq.") + st.share_pct("profile.");
    out.set("core.prepare_share", prepare);
    out.set("core.run_share", st.share_pct("core.run"));
    out.set("serve.json_share", st.share_pct("serve."));
    out.set("serve.overhead_share", st.unattributed_pct());
    out.say(format!(
        "trace of {} search round trips (mean root {:.1} us): core.run {:.1}%, prepare subtree {prepare:.1}%, \
         serve JSON {:.1}%, unattributed remainder (socket, queue, hand-off, materialization) {:.1}%; \
         largest child {}; spans whose children exceed them: {}",
        st.roots,
        st.root_ns as f64 / 1000.0 / st.roots.max(1) as f64,
        st.share_pct("core.run"),
        st.share_pct("serve."),
        st.unattributed_pct(),
        st.largest_child().unwrap_or("none"),
        st.children_exceed_parent
    ));
    for (span, (count, ns)) in &st.by_name {
        out.say(format!(
            "  self time {span}: {:.2} us/request over {count} spans",
            *ns as f64 / 1000.0 / st.roots.max(1) as f64
        ));
    }
    let wt = rec.self_times("client.add_documents");
    if wt.roots > 0 {
        out.say(format!(
            "trace of {} write round trips (mean root {:.2} ms): ingest.apply {:.1}%, ingest.encode {:.1}%, \
             serve JSON {:.1}%, unattributed remainder (persist, publish, purge, socket) {:.1}%; \
             spans whose children exceed them: {}",
            wt.roots,
            wt.root_ns as f64 / 1e6 / wt.roots as f64,
            wt.share_pct("ingest.apply") + wt.share_pct("xml."),
            wt.share_pct("ingest.encode"),
            wt.share_pct("serve."),
            wt.unattributed_pct(),
            wt.children_exceed_parent
        ));
    }
    let path = ctx.out_dir.join(format!("trace.{name}.json"));
    match std::fs::write(&path, rec.to_json()) {
        Ok(()) => out.say(format!(
            "wrote {} spans to {}",
            rec.spans().len(),
            path.display()
        )),
        Err(e) => out.say(format!("could not write {}: {e}", path.display())),
    }
}

/// Traced vs untraced `search_p50_us`: a traced run records nothing but
/// latencies in the even slices of its window and keeps spans and reply
/// bodies too in the odd ones.
fn tracing_overhead(out: &mut Outcome, untraced_us: &[f64], traced_us: &[f64]) {
    let (u, t) = (median(untraced_us), median(traced_us));
    let pct = if u > 0.0 { 100.0 * (t - u) / u } else { 0.0 };
    out.set("trace.overhead_pct", pct);
    out.say(format!(
        "tracing overhead: search_p50_us traced {t:.1} vs untraced {u:.1} ({pct:+.2}%)"
    ));
}

// ---------------------------------------------------------------------
// lib.xmark

struct LibSample {
    variant: usize,
    start: Instant,
    end: Instant,
    traced: bool,
    reply: Reply,
    stats: ExecStats,
}

impl LibSample {
    fn latency_us(&self) -> f64 {
        us(self.end.duration_since(self.start))
    }
}

fn lib_xmark(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let s = ctx.sizes;
    let mut out = Outcome::default();

    let t = Instant::now();
    let docs = vec![pimento_datagen::generate_xmark(ctx.seed, s.xmark_bytes)];
    let rules = inputs::fig5_rules();
    let variants = inputs::xmark_variants();
    let item = |v: usize| Item {
        user: variants[v].0,
        query: inputs::FIG5_QUERY.to_string(),
        k: variants[v].1,
    };
    let batches: Vec<Vec<String>> = (0..s.quiesced_batches)
        .map(|b| inputs::dealer_docs(ctx.seed, b * s.batch_docs, s.batch_docs, s.batch_cars))
        .collect();
    let datagen_s = secs(t.elapsed());

    // Set-up: generated XML and rules in memory → engine built, rules
    // parsed, one plan prepared per variant.
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut ready = None;
    for _ in 0..s.setups {
        drop(ready.take());
        let t = Instant::now();
        let engine = Engine::from_xml_docs(&docs).map_err(|e| e.to_string())?;
        build_s.push(secs(t.elapsed()));
        let profiles = parse_rules(&rules)?;
        let prepared = variants
            .iter()
            .map(|&(p, _)| engine.prepare(inputs::FIG5_QUERY, &profiles[p]))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        setup_s.push(secs(t.elapsed()));
        ready = Some((engine, profiles, prepared));
    }
    let (engine, profiles, prepared) = ready.ok_or("no set-up ran")?;

    // One caller thread, closed loop over the fixed variant cycle.
    let window = Duration::from_secs_f64(ctx.seconds);
    let window_start = Instant::now() + Duration::from_millis(s.warmup_ms);
    let mut samples: Vec<LibSample> = Vec::new();
    for i in 0.. {
        let variant = i % variants.len();
        let opts = SearchOptions::top(variants[variant].1);
        let start = Instant::now();
        if start >= window_start + window {
            break;
        }
        let results = engine.run_prepared(&prepared[variant], &opts);
        let end = Instant::now();
        if let Some(since) = start.checked_duration_since(window_start) {
            let results = results.map_err(|e| e.to_string())?;
            samples.push(LibSample {
                variant,
                start,
                end,
                traced: traced_slice(since.as_nanos() as u64).is_some(),
                reply: check::reduce_results(&results),
                stats: results.stats,
            });
        }
    }
    // One group per complete pass over the variant cycle.
    let first_full = samples.iter().position(|x| x.variant == 0).unwrap_or(0);
    let groups: Vec<Group> = samples[first_full..]
        .chunks_exact(variants.len())
        .map(|pass| {
            let took = pass[pass.len() - 1].end.duration_since(pass[0].start);
            (pass.iter().map(LibSample::latency_us).collect(), secs(took))
        })
        .collect();
    if groups.is_empty() {
        return Err("the window is shorter than one pass over the variant cycle".to_string());
    }
    search_metrics(&mut out, &groups);

    out.set("peak_rss_mb", stats::peak_rss_mb());

    // Writes: each seeded batch applied in process to the 10 MB corpus,
    // quiesced.
    let mut write_ms = Vec::new();
    for b in &batches {
        let t = Instant::now();
        let next = engine.with_ingested(b);
        write_ms.push(ms(t.elapsed()));
        out.expect(next.is_ok(), || "with_ingested failed".to_string());
    }
    write_metrics(
        &mut out,
        &write_ms,
        "in-process with_ingested, quiesced, after the window",
    );
    setup_metrics(&mut out, &setup_s, datagen_s);

    // Check every kept result against the naive-plan reference.
    let references: Vec<Reply> = (0..variants.len())
        .map(|v| check::reference(&engine, &profiles[variants[v].0], &item(v)))
        .collect();
    for x in &samples {
        out.expect(check::matches(&x.reply, &references[x.variant]), || {
            format!(
                "variant {} differs from the naive-plan reference",
                x.variant
            )
        });
    }

    if ctx.trace {
        let mut rec = Recorder::new(window_start);
        // The caller-observed search *is* `run_prepared` here: the child
        // span covers its root.
        for x in samples.iter().filter(|x| x.traced).take(s.replay_sample) {
            let root = rec.push(
                "client.search",
                "client",
                None,
                x.variant as u64,
                x.start,
                x.end,
            );
            rec.push(
                "core.run",
                "inline",
                Some(root),
                x.variant as u64,
                x.start,
                x.end,
            );
        }
        // Probes: what a parse, a prepare and a write batch cost on this
        // corpus, though no request of this workload pays them.
        for v in 0..variants.len() {
            let opts = SearchOptions::top(variants[v].1);
            replay::search(
                &mut rec,
                &engine,
                &profiles[variants[v].0],
                &item(v),
                &opts,
                &Recorded::probe(v as u64),
            )
            .ok_or("replay lane failed")?;
        }
        let write_batches: Vec<WriteBatch<'_>> = batches
            .iter()
            .enumerate()
            .map(|(b, docs)| WriteBatch {
                root: None,
                request: b as u64,
                docs,
            })
            .collect();
        replay::writes(&mut rec, &engine, &write_batches, batches.len())
            .ok_or("write replay failed")?;

        corpus_probes(
            &mut out,
            &docs,
            &engine,
            &rules,
            inputs::FIG5_QUERY,
            &build_s,
        )?;
        // Exact work counts of one pass over the cycle: they repeat
        // exactly across runs with the same seed.
        let cycle: Vec<ExecStats> = samples
            .iter()
            .take(variants.len())
            .map(|x| x.stats)
            .collect();
        trace_metrics(&mut out, &rec, &cycle, ctx, "lib.xmark");
        let lat = |traced: bool| -> Vec<f64> {
            samples
                .iter()
                .filter(|x| x.traced == traced)
                .map(LibSample::latency_us)
                .collect()
        };
        tracing_overhead(&mut out, &lat(false), &lat(true));
        // No server, no plan cache, no durable store on this workload.
        for name in [
            "serve.cache_hit_ratio",
            "serve.rejected_overload",
            "ingest.bytes_written_per_xml_byte",
            "ingest.space_per_live_byte",
            "ingest.merges",
            "ingest.write_late_share",
        ] {
            out.set(name, 0.0);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// serve.warm, serve.cold, serve.ingest

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warm,
    Cold,
    Ingest,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Warm => "serve.warm",
            Kind::Cold => "serve.cold",
            Kind::Ingest => "serve.ingest",
        }
    }
}

/// The counters of the `stats` verb the benchmark takes deltas of.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    lookups: f64,
    hits: f64,
    rejected_overload: f64,
    merges: f64,
    docs: f64,
}

fn counters(running: &mut Running) -> Counters {
    let stats = running.control.stats().ok();
    let get = |path: &[&str]| {
        stats
            .as_ref()
            .and_then(|stats| serve::stat(stats, path))
            .unwrap_or(f64::NAN)
    };
    Counters {
        lookups: get(&["cache", "lookups"]),
        hits: get(&["cache", "hits"]),
        rejected_overload: get(&["rejected_overload"]),
        merges: get(&["ingest", "merges"]),
        docs: get(&["ingest", "docs"]),
    }
}

/// The options the server runs a search under (see `run_query` in
/// `crates/serve`): `SearchOptions::top(k)` with the configured
/// per-query threads.
fn server_opts(k: usize) -> SearchOptions {
    SearchOptions::top(k).with_threads(ServeConfig::default().query_threads)
}

/// Ask the live server for every (user, query) pair of the warm cycle
/// and compare with a direct naive-plan search on `model`.
fn check_pairs(
    out: &mut Outcome,
    running: &mut Running,
    stream: &Stream,
    model: &Engine,
    profiles: &[UserProfile],
    when: &str,
) {
    for key in 0..stream.pairs() as u64 {
        let item = stream.item(key);
        let expected = check::reference(model, &profiles[item.user], &item);
        let got = running
            .control
            .request(&serve::search_request(&item))
            .map(|body| check::reduce_body(&body));
        out.expect(
            got.as_ref().is_ok_and(|r| check::matches(r, &expected)),
            || format!("{when}: pair {key} differs from the model of every acknowledged document"),
        );
    }
}

fn serve_workload(ctx: &Ctx<'_>, kind: Kind) -> Result<Outcome, String> {
    let s = ctx.sizes;
    let mut out = Outcome::default();
    let durable = kind == Kind::Ingest;
    // serve.ingest is two connections in all: one reader, one writer.
    let clients = spec::clients(kind.name());
    let period = Duration::from_millis(s.write_period_ms);

    let t = Instant::now();
    let (boot_docs, cars) = if durable {
        (s.ingest_dealers, s.ingest_cars)
    } else {
        (s.dealers, s.cars)
    };
    let docs = inputs::dealer_docs(ctx.seed, 0, boot_docs, cars);
    let rules: Vec<String> = (0..s.users)
        .map(|u| inputs::fig2_style_rules(ctx.seed, u))
        .collect();
    let stream = Stream::new(ctx.seed, s.users, kind == Kind::Cold);
    let n_batches = if durable {
        ((ctx.seconds * 1000.0) as u64 / s.write_period_ms.max(1)).max(1) as usize
    } else {
        s.quiesced_batches
    };
    let batches: Vec<Vec<String>> = (0..n_batches)
        .map(|b| {
            inputs::dealer_docs(
                ctx.seed,
                boot_docs + b * s.batch_docs,
                s.batch_docs,
                s.batch_cars,
            )
        })
        .collect();
    let datagen_s = secs(t.elapsed());

    // Set-up: generated XML and rules in memory → index built, server
    // bound (data_dir bootstrapped on serve.ingest), profiles registered.
    let data_dir = |i: usize| ctx.out_dir.join(format!("data-{}-{i}", std::process::id()));
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut ready: Option<(Arc<Engine>, Running, PathBuf)> = None;
    for i in 0..s.setups {
        if let Some((_, running, dir)) = ready.take() {
            running.stop();
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = data_dir(i);
        let t = Instant::now();
        let engine = Arc::new(Engine::from_xml_docs(&docs).map_err(|e| e.to_string())?);
        build_s.push(secs(t.elapsed()));
        let running = serve::start(Arc::clone(&engine), &rules, durable.then(|| dir.clone()))
            .ok_or("server set-up failed")?;
        setup_s.push(secs(t.elapsed()));
        ready = Some((engine, running, dir));
    }
    let (engine, mut running, dir) = ready.ok_or("no set-up ran")?;
    let profiles = parse_rules(&rules)?;

    // Load.
    let window = Duration::from_secs_f64(ctx.seconds);
    let window_start = Instant::now() + Duration::from_millis(s.warmup_ms);
    let done = AtomicBool::new(false);
    let addr = running.addr;
    let traced_slices = ((window.as_nanos() as u64 / crate::trace::SLICE_NS) / 2).max(1) as usize;
    let keep_per_slice = s.replay_sample.div_ceil(clients * traced_slices);
    let (log, writes, before, after, window_end) = std::thread::scope(|scope| {
        let readers = scope.spawn(|| {
            // Far more than a client can send: virtual memory only.
            let load = Load {
                clients,
                window_start,
                trace: ctx.trace,
                keep_per_slice,
                expected_per_client: (ctx.seconds * 30_000.0) as usize,
            };
            serve::run_clients(addr, &stream, &done, load)
        });
        serve::sleep_until(window_start);
        let before = counters(&mut running);
        let writes = if durable {
            serve::run_writer(addr, &batches, window_start, period, &dir)
        } else {
            Vec::new()
        };
        // The window ends only after the last due batch is acknowledged
        // or failed.
        serve::sleep_until(window_start + window);
        let window_end = Instant::now();
        done.store(true, Ordering::Relaxed);
        let log = readers.join().unwrap_or_default();
        let after = counters(&mut running);
        (log, writes, before, after, window_end)
    });
    let samples = &log.samples;
    if samples.is_empty() {
        return Err(format!(
            "no search completed in the window: {:?}",
            log.errors.first()
        ));
    }
    let window_ns = window_end.duration_since(window_start).as_nanos() as u64;
    search_metrics(&mut out, &time_slices(samples, window_ns, SLICES));
    out.say(format!(
        "corpus: {} documents at window start, {} at window end; {clients} closed-loop search client(s)",
        before.docs, after.docs
    ));
    for (key, e) in &log.errors {
        out.expect(false, || format!("request {key} failed: {e}"));
    }

    // Peak memory of the measured window: before the quiesced writes
    // grow the static corpora and before the checks build their models.
    out.set("peak_rss_mb", stats::peak_rss_mb());

    // Writes: open loop during the window on serve.ingest; seeded
    // batches, quiesced, after it on the static-corpus workloads.
    let mut quiesced: Vec<(usize, Instant, Instant)> = Vec::new();
    if durable {
        let acked: Vec<&WriteSample> = writes.iter().filter(|w| w.ack.is_ok()).collect();
        let lat: Vec<f64> = acked.iter().map(|w| w.latency_ms()).collect();
        write_metrics(
            &mut out,
            &lat,
            "add_documents, open loop, from the due time",
        );
        let late: Vec<f64> = writes
            .iter()
            .filter(|w| w.late(period))
            .map(|w| ms(w.sent.duration_since(w.due)))
            .collect();
        out.say(format!(
            "open-loop writer: {} batches of {} documents every {} ms, {} acknowledged, {} sent late \
             (write_late_share = {:.4}, worst lateness {:.3} ms)",
            writes.len(),
            s.batch_docs,
            s.write_period_ms,
            acked.len(),
            late.len(),
            late.len() as f64 / writes.len().max(1) as f64,
            late.iter().copied().fold(0.0, f64::max)
        ));
        let mut last = (0u64, 0u64);
        for w in &writes {
            match &w.ack {
                Ok(ack) => {
                    out.expect(ack.0 > last.0 && ack.1 >= last.1, || {
                        format!(
                            "batch {}: generation/num_docs went backwards: {last:?} then {ack:?}",
                            w.batch
                        )
                    });
                    last = *ack;
                }
                Err(e) => out.expect(false, || format!("batch {} failed: {e}", w.batch)),
            }
        }
    } else {
        let mut lat = Vec::new();
        for (b, docs) in batches.iter().enumerate() {
            let sent = Instant::now();
            let ack = running.control.add_documents(docs);
            let acked = Instant::now();
            out.expect(ack.is_ok(), || format!("quiesced batch {b} failed"));
            lat.push(ms(acked.duration_since(sent)));
            quiesced.push((b, sent, acked));
        }
        write_metrics(&mut out, &lat, "add_documents, quiesced, after the window");
    }
    setup_metrics(&mut out, &setup_s, datagen_s);

    // Checks. The static-corpus servers answered from `engine` during
    // the window; serve.ingest is checked against a model rebuilt from
    // every acknowledged document.
    match kind {
        Kind::Warm => {
            let references: Vec<Reply> = (0..stream.pairs() as u64)
                .map(|key| {
                    let item = stream.item(key);
                    check::reference(&engine, &profiles[item.user], &item)
                })
                .collect();
            for x in samples {
                let expected = &references[(x.key % stream.pairs() as u64) as usize];
                out.expect(check::matches(&x.reply, expected), || {
                    format!("request {} differs from the naive-plan reference", x.key)
                });
            }
        }
        Kind::Cold => {
            // Every reply must be well formed; a seeded sample is
            // re-evaluated exactly (each query text is unique).
            let mut order: Vec<usize> = (0..samples.len()).collect();
            inputs::Rng::new(ctx.seed, 0xC01D).shuffle(&mut order);
            let mut exact = vec![false; samples.len()];
            for &i in order.iter().take(s.cold_check_sample) {
                exact[i] = true;
            }
            for (x, exact) in samples.iter().zip(exact) {
                let item = stream.item(x.key);
                let ok = if exact {
                    check::matches(
                        &x.reply,
                        &check::reference(&engine, &profiles[item.user], &item),
                    )
                } else {
                    check::plausible(&x.reply, item.k)
                };
                out.expect(ok, || {
                    format!("request {} (`{}`) is wrong", x.key, item.query)
                });
            }
        }
        Kind::Ingest => {
            for x in samples {
                out.expect(check::plausible(&x.reply, inputs::SERVE_K), || {
                    format!("request {} is malformed", x.key)
                });
            }
            out.expect(
                serve::settle(
                    &mut running,
                    Duration::from_millis(150),
                    Duration::from_secs(20),
                ),
                || "background merges did not settle".to_string(),
            );
            let mut all: Vec<&String> = docs.iter().collect();
            for w in writes.iter().filter(|w| w.ack.is_ok()) {
                all.extend(&batches[w.batch]);
            }
            let fresh = Engine::from_xml_docs(&all).map_err(|e| e.to_string())?;
            check_pairs(
                &mut out,
                &mut running,
                &stream,
                &fresh,
                &profiles,
                "after the window",
            );

            // Deletes are exercised once, quiesced: compaction renumbers
            // document ids, so a positional delete racing a merge would
            // hit the wrong document.
            let ids: Vec<u32> = (0..s.batch_docs as u32).collect();
            let t = Instant::now();
            let deleted = running.control.delete_documents(&ids);
            out.say(format!(
                "delete_documents of ids {ids:?}: {:.3} ms (informational)",
                ms(t.elapsed())
            ));
            out.expect(deleted.is_ok(), || "delete_documents failed".to_string());
            let (after_delete, _) = fresh.with_deletes(&ids).map_err(|e| e.to_string())?;
            check_pairs(
                &mut out,
                &mut running,
                &stream,
                &after_delete,
                &profiles,
                "after the delete",
            );

            // Every acknowledged write survives a restart.
            let live_docs = after_delete.live_docs() as f64;
            out.expect(running.stop(), || "server did not stop cleanly".to_string());
            let recovered = Engine::from_sharded_dir(&dir).map_err(|e| e.to_string())?;
            running = serve::start(Arc::new(recovered), &rules, Some(dir.clone()))
                .ok_or("restart failed")?;
            let served = running
                .control
                .stats()
                .ok()
                .and_then(|stats| serve::stat(&stats, &["ingest", "live_docs"]));
            out.expect(served == Some(live_docs), || {
                format!("after the restart the server holds {served:?} live documents, the model {live_docs}")
            });
            check_pairs(
                &mut out,
                &mut running,
                &stream,
                &after_delete,
                &profiles,
                "after the restart",
            );
        }
    }

    if ctx.trace {
        let mut rec = Recorder::new(window_start);
        let at = |ns: u64| window_start + Duration::from_nanos(ns);
        // Writes first: the chain of engines they leave is the corpus
        // each recorded search of serve.ingest is replayed against.
        let write_batches: Vec<WriteBatch<'_>> = if durable {
            writes
                .iter()
                .filter(|w| w.ack.is_ok())
                .map(|w| WriteBatch {
                    root: Some(rec.push(
                        "client.add_documents",
                        "client",
                        None,
                        w.batch as u64,
                        w.sent,
                        w.acked,
                    )),
                    request: w.batch as u64,
                    docs: &batches[w.batch],
                })
                .collect()
        } else {
            quiesced
                .iter()
                .map(|&(b, sent, acked)| WriteBatch {
                    root: Some(rec.push(
                        "client.add_documents",
                        "client",
                        None,
                        b as u64,
                        sent,
                        acked,
                    )),
                    request: b as u64,
                    docs: &batches[b],
                })
                .collect()
        };
        let chain = replay::writes(
            &mut rec,
            &engine,
            &write_batches,
            ServeConfig::default().merge_threshold,
        )
        .ok_or("write replay failed")?;
        let acked_at: Vec<Instant> = writes
            .iter()
            .filter(|w| w.ack.is_ok())
            .map(|w| w.acked)
            .collect();

        let mut exec = Vec::new();
        for (x, body) in log.kept.iter().take(s.replay_sample) {
            let item = stream.item(x.key);
            let request = serve::search_request(&item).render();
            let (start, end) = (at(x.start_ns), at(x.start_ns + u64::from(x.dur_ns)));
            let root = rec.push("client.search", "client", None, x.key, start, end);
            // The corpus the server held when the request was sent.
            let acked_before = acked_at.partition_point(|&a| a <= start);
            let corpus: &Engine = if durable && acked_before > 0 {
                &chain[acked_before - 1]
            } else {
                &engine
            };
            let recorded = Recorded {
                root: Some(root),
                request: x.key,
                wire: Some(Wire {
                    request: &request,
                    body,
                }),
                cache_miss: !x.reply.cache_hit,
            };
            let opts = server_opts(item.k);
            exec.push(
                replay::search(
                    &mut rec,
                    corpus,
                    &profiles[item.user],
                    &item,
                    &opts,
                    &recorded,
                )
                .ok_or("replay lane failed")?,
            );
        }

        if kind == Kind::Warm {
            // One pass over the fixed pair cycle instead of whichever
            // requests were kept: exact counts that repeat across runs.
            exec = (0..stream.pairs() as u64)
                .map(|key| {
                    let item = stream.item(key);
                    let opts = server_opts(item.k);
                    let probe = Recorded::probe(key);
                    replay::search(
                        &mut rec,
                        &engine,
                        &profiles[item.user],
                        &item,
                        &opts,
                        &probe,
                    )
                })
                .collect::<Option<Vec<_>>>()
                .ok_or("replay lane failed")?;
        }

        corpus_probes(
            &mut out,
            &docs,
            &engine,
            &rules,
            inputs::CAR_QUERIES[4],
            &build_s,
        )?;
        trace_metrics(&mut out, &rec, &exec, ctx, kind.name());
        let lat = |traced: bool| -> Vec<f64> {
            samples
                .iter()
                .filter(|x| x.traced() == traced)
                .map(Sample::latency_us)
                .collect()
        };
        tracing_overhead(&mut out, &lat(false), &lat(true));

        let lookups = after.lookups - before.lookups;
        let hit_ratio = if lookups > 0.0 {
            (after.hits - before.hits) / lookups
        } else {
            0.0
        };
        out.set("serve.cache_hit_ratio", hit_ratio);
        out.set(
            "serve.rejected_overload",
            after.rejected_overload - before.rejected_overload,
        );
        out.say(format!(
            "plan cache over the window: {lookups} lookups, hit ratio {hit_ratio:.4}"
        ));
        let (mut written, mut space, mut merges, mut late) = (0.0, 0.0, 0.0, 0.0);
        if durable {
            let acked_xml: usize = writes
                .iter()
                .filter(|w| w.ack.is_ok())
                .flat_map(|w| &batches[w.batch])
                .map(String::len)
                .sum();
            let new_bytes: u64 = writes.iter().map(|w| w.new_file_bytes).sum();
            let boot_xml: usize = docs.iter().map(String::len).sum();
            written = new_bytes as f64 / acked_xml.max(1) as f64;
            space = serve::dir_bytes(&dir) as f64 / (boot_xml + acked_xml) as f64;
            merges = after.merges - before.merges;
            late = writes.iter().filter(|w| w.late(period)).count() as f64
                / writes.len().max(1) as f64;
            out.say(format!(
                "durable store: {new_bytes} bytes of new files for {acked_xml} XML bytes written; \
                 {merges} merges completed in the window"
            ));
        }
        out.set("ingest.bytes_written_per_xml_byte", written);
        out.set("ingest.space_per_live_byte", space);
        out.set("ingest.merges", merges);
        out.set("ingest.write_late_share", late);
    }

    out.expect(running.stop(), || "server did not stop cleanly".to_string());
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
