//! In-memory spans recorded by the benchmark around its own calls, and
//! the self-time report computed from them.
//!
//! The client round trip is the root span of a request. Its children are
//! recorded by the replay lane (`replay.rs`), which makes — in process,
//! after the window — the calls the server made for that request. A
//! child therefore lies *later* in time than its root; containment is by
//! duration: a span's self time is its duration minus its children's,
//! and the root's self time is the unattributed remainder (socket,
//! queue, thread hand-off, hit materialization). Spans inside the
//! program are ROADMAP item 1, not this crate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The traced run alternates untraced and traced slices of this many
/// nanoseconds, so both see the same mix of corpus sizes on a workload
/// whose corpus grows, and the tracing overhead compares like with like.
pub const SLICE_NS: u64 = 250_000_000;

/// The index of the traced slice that a request starting `start_ns`
/// after the window began falls in; `None` in an untraced slice.
pub fn traced_slice(start_ns: u64) -> Option<u64> {
    let slice = start_ns / SLICE_NS;
    (slice % 2 == 1).then_some(slice)
}

/// One span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index in the recorder.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Request number shared by all spans of one request.
    pub request: u64,
    /// `layer.operation`.
    pub name: &'static str,
    /// `client` (measured round trip), `inline` (measured inside its
    /// root) or `replay` (re-executed after the window).
    pub lane: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Self time per span name under one kind of root.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// Root spans summed.
    pub roots: usize,
    /// Their total duration.
    pub root_ns: u64,
    /// Root self time: what no child span accounts for.
    pub unattributed_ns: u64,
    /// Span name → (spans, total self time).
    pub by_name: BTreeMap<&'static str, (usize, u64)>,
    /// Spans whose children's durations summed to more than their own.
    pub children_exceed_parent: usize,
}

impl SelfTimes {
    /// Total self time of every span whose name starts with `prefix`, as
    /// a percentage of the root spans' duration.
    pub fn share_pct(&self, prefix: &str) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        let ns: u64 = self
            .by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, (_, ns))| ns)
            .sum();
        100.0 * ns as f64 / self.root_ns as f64
    }

    /// The unattributed remainder as a percentage of the root duration.
    pub fn unattributed_pct(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        100.0 * self.unattributed_ns as f64 / self.root_ns as f64
    }

    /// The child span name with the largest total self time.
    pub fn largest_child(&self) -> Option<&'static str> {
        self.by_name
            .iter()
            .max_by_key(|(_, (_, ns))| *ns)
            .map(|(name, _)| *name)
    }
}

impl Recorder {
    /// An empty recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        lane: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            lane,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// Run `f` as a `replay` span under `parent`.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (self.push(name, "replay", parent, request, start, end), out)
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in microseconds, of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1000.0)
            .collect()
    }

    /// Self times under the root spans called `root_name`.
    pub fn self_times(&self, root_name: &str) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur();
            }
        }
        // A span belongs to the report when its chain of parents ends in
        // a root of the requested name. Parents precede children.
        let mut under = vec![false; self.spans.len()];
        let mut out = SelfTimes::default();
        for s in &self.spans {
            under[s.id] = match s.parent {
                None => s.name == root_name,
                Some(p) => under[p],
            };
            if !under[s.id] {
                continue;
            }
            let own = s.dur().saturating_sub(child_ns[s.id]);
            if child_ns[s.id] > s.dur() {
                out.children_exceed_parent += 1;
            }
            if s.parent.is_none() {
                out.roots += 1;
                out.root_ns += s.dur();
                out.unattributed_ns += own;
            } else {
                let e = out.by_name.entry(s.name).or_insert((0, 0));
                e.0 += 1;
                e.1 += own;
            }
        }
        out
    }

    /// All spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"lane\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.id,
                s.request,
                s.name,
                s.lane,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut rec = Recorder::new(t0);
        let root = rec.push("client.search", "client", None, 7, at(0), at(100));
        let prep = rec.push("core.prepare", "replay", Some(root), 7, at(200), at(240));
        rec.push("tpq.parse", "replay", Some(prep), 7, at(300), at(310));
        rec.push("core.run", "replay", Some(root), 7, at(400), at(420));
        rec.push("client.add_documents", "client", None, 8, at(0), at(50));
        let st = rec.self_times("client.search");
        assert_eq!(
            (st.roots, st.root_ns, st.unattributed_ns),
            (1, 100_000, 40_000)
        );
        assert_eq!(st.by_name["core.prepare"], (1, 30_000));
        assert_eq!(st.by_name["tpq.parse"], (1, 10_000));
        assert_eq!(st.children_exceed_parent, 0);
        assert_eq!(st.share_pct("core."), 50.0);
        assert_eq!(st.largest_child(), Some("core.prepare"));
        assert!(rec.to_json().contains("\"name\":\"tpq.parse\""));
    }
}
