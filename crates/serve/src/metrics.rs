//! Lock-cheap service metrics (DESIGN.md §11).
//!
//! All counters are relaxed atomics — the registry sits on the request
//! path, so it must never contend. One identity ties the registry
//! together, asserted by the integration tests and checkable from any
//! `stats` snapshot: `requests == responses_ok + responses_err +
//! rejected_overload + rejected_deadline` — every decoded request is
//! answered exactly once.

use crate::json::{obj, Value};
use pimento::algebra::ExecStats;
use pimento::segment::LaneStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Upper bounds (µs) of the fixed latency histogram buckets; one
/// implicit `+Inf` bucket follows.
pub const LATENCY_BUCKETS_US: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000, 250_000, 1_000_000,
];

/// Per-shard scan-time slots in the registry. Engines with more segments
/// fold the excess into the last slot.
pub const MAX_SHARD_SLOTS: usize = 16;

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// The service metrics registry.
        #[derive(Debug)]
        pub struct Metrics {
            start: Instant,
            $($(#[$doc])* pub $name: AtomicU64,)*
            /// Latency histogram bucket counts (`LATENCY_BUCKETS_US` + `+Inf`).
            pub lat_buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
            /// Total observed latency, µs.
            pub lat_sum_us: AtomicU64,
            /// Observations in the histogram.
            pub lat_count: AtomicU64,
            /// Cumulative per-shard scan wall time, µs; slot `i` holds
            /// segment `i` (segments past `MAX_SHARD_SLOTS` fold into the
            /// last slot).
            pub shard_scan_us: [AtomicU64; MAX_SHARD_SLOTS],
        }

        impl Metrics {
            /// Fresh registry; `start` anchors the uptime report.
            pub fn new() -> Metrics {
                Metrics {
                    start: Instant::now(),
                    $($name: AtomicU64::new(0),)*
                    lat_buckets: Default::default(),
                    lat_sum_us: AtomicU64::new(0),
                    lat_count: AtomicU64::new(0),
                    shard_scan_us: Default::default(),
                }
            }
        }
    };
}

counters! {
    /// Connections the acceptor admitted.
    conns_accepted,
    /// Connections turned away (connection limit or draining).
    conns_rejected,
    /// Requests decoded off an admitted connection.
    requests,
    /// Requests answered with `{"ok": …}`.
    responses_ok,
    /// Requests answered with a typed error other than a rejection.
    responses_err,
    /// Requests rejected because the bounded queue was full.
    rejected_overload,
    /// Requests rejected because their deadline expired while queued.
    rejected_deadline,
    /// Request handlers that panicked; each also counts one
    /// `responses_err` (the caller gets a typed `internal` error).
    panics,
    /// Worker threads respawned after their loop panicked outside a
    /// request handler.
    worker_respawns,
    /// `ok` responses served in degraded (unpersonalized-fallback) mode;
    /// a subset of `responses_ok`.
    degraded,
    /// Profile persistence failures (registration stayed live in memory).
    store_errors,
    /// Profiles recovered intact from the durable store at startup.
    profiles_recovered,
    /// Corrupt store files quarantined at startup.
    profiles_quarantined,
    /// Milliseconds spent building or opening the engine before the
    /// server was bound (a gauge, set once at startup).
    startup_load_ms,
    /// Snapshot format version the engine was opened from (`4` columnar,
    /// `0` = built from XML; set once at startup).
    startup_snapshot_format,
    /// Segment count of the served engine (a gauge, set once at startup;
    /// `1` = monolithic).
    shards,
    /// Sum of `ExecStats::base_answers` across served searches.
    exec_base_answers,
    /// Sum of `ExecStats::pruned`.
    exec_pruned,
    /// Sum of `ExecStats::bulk_pruned`.
    exec_bulk_pruned,
    /// Sum of `ExecStats::ft_probes`.
    exec_ft_probes,
    /// Sum of `ExecStats::vor_comparisons`.
    exec_vor_comparisons,
    /// Sum of `ExecStats::emitted`.
    exec_emitted,
    /// Ingest requests admitted (`add_documents` + `delete_documents`).
    ingest_requests,
    /// Ingest requests that failed with a typed error (bad XML, unknown
    /// doc id, persistence failure — the live corpus is unchanged).
    ingest_errors,
    /// Documents added across all accepted ingest batches.
    docs_added,
    /// Documents newly tombstoned across all accepted delete batches.
    docs_deleted,
    /// Compactions performed, including by the background merger
    /// (a gauge mirrored from the ingestor at `stats` time).
    merges,
    /// Background compactions that failed and will be retried
    /// (a gauge mirrored from the ingestor at `stats` time).
    merge_failures,
    /// Corpus generation currently being served (a gauge refreshed at
    /// `stats` time).
    corpus_generation,
    /// Total documents in the served corpus, tombstoned included
    /// (a gauge refreshed at `stats` time).
    corpus_docs,
    /// Live (non-tombstoned) documents in the served corpus
    /// (a gauge refreshed at `stats` time).
    corpus_live_docs,
    /// Write-path requests that failed with the typed disk-full error
    /// (the previous generation kept serving; the client may retry).
    disk_full,
    /// Completed scrub passes (DESIGN.md §17).
    scrub_passes,
    /// Checksummed units the scrubber verified (manifest, v4 sections,
    /// tombstone sidecars, profile files).
    scrub_sections,
    /// Artifacts the scrubber found damaged.
    scrub_corruptions,
    /// Successful scrubber repairs (corpus re-publishes + re-persisted
    /// profiles).
    scrub_repairs,
    /// Scrubber repairs that failed (drives the `corrupt` health level).
    scrub_repair_failures,
    /// Wall time of the most recent scrub pass, µs (a gauge).
    scrub_last_pass_us,
    /// Corpus health from the last scrub pass: 0 ok, 1 degraded,
    /// 2 corrupt (a gauge).
    health_corpus,
    /// Profile-store health from the last scrub pass (same encoding;
    /// a gauge).
    health_profiles,
    /// `*.quarantined` files currently retained across both stores
    /// (a gauge refreshed by the scrubber).
    quarantined_files,
    /// Total bytes of retained `*.quarantined` files (a gauge).
    quarantined_bytes,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Bump a counter by one.
    pub fn inc(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bump a counter by `n`.
    pub fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one request latency (decode → response written).
    pub fn observe_latency_us(&self, us: u64) {
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&le| us <= le)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        if let Some(bucket) = self.lat_buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.lat_sum_us.fetch_add(us, Ordering::Relaxed);
        self.lat_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the startup gauges: how long the engine took to build or
    /// open, and which snapshot format (if any) it came from.
    pub fn set_startup(&self, load_ms: u64, snapshot_format: Option<u32>) {
        self.startup_load_ms.store(load_ms, Ordering::Relaxed);
        self.startup_snapshot_format
            .store(u64::from(snapshot_format.unwrap_or(0)), Ordering::Relaxed);
    }

    /// Record the served engine's segment count (a startup gauge).
    pub fn set_shards(&self, shards: usize) {
        self.shards.store(shards as u64, Ordering::Relaxed);
    }

    /// Refresh the write-path gauges (called with the live engine's
    /// point-in-time state whenever a `stats` snapshot is taken).
    pub fn set_ingest_gauges(
        &self,
        generation: u64,
        docs: usize,
        live_docs: usize,
        merges: u64,
        merge_failures: u64,
    ) {
        self.corpus_generation.store(generation, Ordering::Relaxed);
        self.corpus_docs.store(docs as u64, Ordering::Relaxed);
        self.corpus_live_docs
            .store(live_docs as u64, Ordering::Relaxed);
        self.merges.store(merges, Ordering::Relaxed);
        self.merge_failures.store(merge_failures, Ordering::Relaxed);
    }

    /// Fold one search's per-task wall times into the cumulative
    /// per-segment slots (a segment scanned as several candidate chunks
    /// adds each chunk's time); segments past `MAX_SHARD_SLOTS` fold into
    /// the last slot.
    pub fn absorb_lanes(&self, lanes: &[LaneStats]) {
        for lane in lanes {
            let idx = lane.segment.min(MAX_SHARD_SLOTS - 1);
            if let Some(slot) = self.shard_scan_us.get(idx) {
                slot.fetch_add(lane.micros, Ordering::Relaxed);
            }
        }
    }

    /// Fold one search's execution counters into the aggregates.
    pub fn absorb_exec(&self, stats: &ExecStats) {
        self.add(&self.exec_base_answers, stats.base_answers);
        self.add(&self.exec_pruned, stats.pruned);
        self.add(&self.exec_bulk_pruned, stats.bulk_pruned);
        self.add(&self.exec_ft_probes, stats.ft_probes);
        self.add(&self.exec_vor_comparisons, stats.vor_comparisons);
        self.add(&self.exec_emitted, stats.emitted);
    }

    /// Snapshot everything as the `stats` response body. `profiles` is a
    /// point-in-time gauge supplied by the server.
    pub fn snapshot(&self, profiles: usize) -> Value {
        let g = |c: &AtomicU64| -> Value { c.load(Ordering::Relaxed).into() };
        let buckets: Vec<Value> = self
            .lat_buckets
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let le: Value = match LATENCY_BUCKETS_US.get(i) {
                    Some(&us) => us.into(),
                    None => "inf".into(),
                };
                obj([("le_us", le), ("count", g(c))])
            })
            .collect();
        obj([
            (
                "uptime_ms",
                (self.start.elapsed().as_millis() as u64).into(),
            ),
            (
                "startup",
                obj([
                    ("load_ms", g(&self.startup_load_ms)),
                    ("snapshot_format", g(&self.startup_snapshot_format)),
                ]),
            ),
            ("conns_accepted", g(&self.conns_accepted)),
            ("conns_rejected", g(&self.conns_rejected)),
            ("requests", g(&self.requests)),
            ("responses_ok", g(&self.responses_ok)),
            ("responses_err", g(&self.responses_err)),
            ("rejected_overload", g(&self.rejected_overload)),
            ("rejected_deadline", g(&self.rejected_deadline)),
            ("panics", g(&self.panics)),
            ("worker_respawns", g(&self.worker_respawns)),
            ("degraded", g(&self.degraded)),
            ("disk_full", g(&self.disk_full)),
            (
                "store",
                obj([
                    ("errors", g(&self.store_errors)),
                    ("profiles_recovered", g(&self.profiles_recovered)),
                    ("profiles_quarantined", g(&self.profiles_quarantined)),
                    ("quarantined_files", g(&self.quarantined_files)),
                    ("quarantined_bytes", g(&self.quarantined_bytes)),
                ]),
            ),
            (
                "scrub",
                obj([
                    ("passes", g(&self.scrub_passes)),
                    ("sections", g(&self.scrub_sections)),
                    ("corruptions", g(&self.scrub_corruptions)),
                    ("repairs", g(&self.scrub_repairs)),
                    ("repair_failures", g(&self.scrub_repair_failures)),
                    ("last_pass_us", g(&self.scrub_last_pass_us)),
                ]),
            ),
            (
                "health",
                obj([
                    ("corpus", g(&self.health_corpus)),
                    ("profiles", g(&self.health_profiles)),
                ]),
            ),
            ("profiles", profiles.into()),
            (
                "latency_us",
                obj([
                    ("count", g(&self.lat_count)),
                    ("sum", g(&self.lat_sum_us)),
                    ("buckets", Value::Arr(buckets)),
                ]),
            ),
            (
                "shards",
                obj([
                    ("count", g(&self.shards)),
                    ("scan_us", {
                        let live = (self.shards.load(Ordering::Relaxed) as usize)
                            .min(MAX_SHARD_SLOTS);
                        Value::Arr(self.shard_scan_us.iter().take(live).map(g).collect())
                    }),
                ]),
            ),
            (
                "ingest",
                obj([
                    ("requests", g(&self.ingest_requests)),
                    ("errors", g(&self.ingest_errors)),
                    ("docs_added", g(&self.docs_added)),
                    ("docs_deleted", g(&self.docs_deleted)),
                    ("merges", g(&self.merges)),
                    ("merge_failures", g(&self.merge_failures)),
                    ("generation", g(&self.corpus_generation)),
                    ("docs", g(&self.corpus_docs)),
                    ("live_docs", g(&self.corpus_live_docs)),
                ]),
            ),
            (
                "exec",
                obj([
                    ("base_answers", g(&self.exec_base_answers)),
                    ("pruned", g(&self.exec_pruned)),
                    ("bulk_pruned", g(&self.exec_bulk_pruned)),
                    ("ft_probes", g(&self.exec_ft_probes)),
                    ("vor_comparisons", g(&self.exec_vor_comparisons)),
                    ("emitted", g(&self.exec_emitted)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        let m = Metrics::new();
        m.observe_latency_us(10); // -> le 50
        m.observe_latency_us(50); // -> le 50 (inclusive)
        m.observe_latency_us(51); // -> le 100
        m.observe_latency_us(2_000_000); // -> +Inf
        assert_eq!(m.lat_buckets[0].load(Ordering::Relaxed), 2);
        assert_eq!(m.lat_buckets[1].load(Ordering::Relaxed), 1);
        assert_eq!(
            m.lat_buckets[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed),
            1
        );
        assert_eq!(m.lat_count.load(Ordering::Relaxed), 4);
        assert_eq!(
            m.lat_sum_us.load(Ordering::Relaxed),
            10 + 50 + 51 + 2_000_000
        );
    }

    #[test]
    fn snapshot_shape() {
        let m = Metrics::new();
        m.inc(&m.requests);
        m.inc(&m.responses_ok);
        m.absorb_exec(&ExecStats {
            base_answers: 4,
            emitted: 2,
            ..Default::default()
        });
        m.set_startup(17, Some(4));
        let snap = m.snapshot(3);
        assert_eq!(snap.get("requests").and_then(Value::as_u64), Some(1));
        let startup = snap.get("startup").expect("startup block");
        assert_eq!(startup.get("load_ms").and_then(Value::as_u64), Some(17));
        assert_eq!(
            startup.get("snapshot_format").and_then(Value::as_u64),
            Some(4)
        );
        assert_eq!(snap.get("profiles").and_then(Value::as_u64), Some(3));
        let exec = snap.get("exec").expect("exec block");
        assert_eq!(exec.get("base_answers").and_then(Value::as_u64), Some(4));
        // Renders as valid JSON.
        assert!(Value::parse(&snap.render()).is_ok());
    }

    #[test]
    fn shard_slots_accumulate_and_fold() {
        let m = Metrics::new();
        m.set_shards(4);
        let lanes = |micros: &[u64]| -> Vec<LaneStats> {
            micros
                .iter()
                .enumerate()
                .map(|(segment, &micros)| LaneStats {
                    segment,
                    micros,
                    ..LaneStats::default()
                })
                .collect()
        };
        m.absorb_lanes(&lanes(&[10, 20, 30, 40]));
        m.absorb_lanes(&lanes(&[1, 2, 3, 4]));
        // Two candidate chunks of one segment land in that segment's slot.
        m.absorb_lanes(&[
            LaneStats {
                segment: 3,
                micros: 50,
                ..LaneStats::default()
            },
            LaneStats {
                segment: 3,
                micros: 6,
                ..LaneStats::default()
            },
        ]);
        let snap = m.snapshot(0);
        let shards = snap.get("shards").expect("shards block");
        assert_eq!(shards.get("count").and_then(Value::as_u64), Some(4));
        let Some(Value::Arr(scan)) = shards.get("scan_us") else {
            panic!("scan_us array");
        };
        let vals: Vec<u64> = scan.iter().filter_map(Value::as_u64).collect();
        assert_eq!(vals, vec![11, 22, 33, 100]);
        // Past-capacity segments fold into the last slot instead of
        // being dropped.
        m.absorb_lanes(&lanes(&[1; MAX_SHARD_SLOTS + 4]));
        assert_eq!(
            m.shard_scan_us[MAX_SHARD_SLOTS - 1].load(Ordering::Relaxed),
            5
        );
    }
}
