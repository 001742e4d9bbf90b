//! The loopback harness of the `serve.*` workloads: a `Server` on
//! `ServeConfig::default()`, closed-loop search clients, and the
//! open-loop writer of `serve.ingest`.

use crate::check::{reduce_body, Reply};
use crate::inputs::{user_name, Item, Stream};
use crate::trace::traced_slice;
use pimento::Engine;
use pimento_serve::json::obj;
use pimento_serve::{Client, ServeConfig, Server, Value};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The `search` request `Client::search` sends for `item`.
pub fn search_request(item: &Item) -> Value {
    Value::Obj(vec![
        ("cmd".to_string(), "search".into()),
        ("query".to_string(), item.query.as_str().into()),
        ("k".to_string(), item.k.into()),
        ("user".to_string(), user_name(item.user).into()),
    ])
}

/// The `add_documents` request `Client::add_documents` sends.
pub fn add_documents_request(docs: &[String]) -> Value {
    let docs: Vec<Value> = docs.iter().map(|d| d.as_str().into()).collect();
    obj([("cmd", "add_documents".into()), ("docs", Value::Arr(docs))])
}

/// A server running on its own thread, and one control connection.
pub struct Running {
    /// The bound loopback address.
    pub addr: SocketAddr,
    /// Control connection (registration, stats, post-window checks).
    pub control: Client,
    thread: JoinHandle<bool>,
}

/// Bind a server over `engine` with the defaults a user gets, register
/// every user's rules, and return once it answers. `None` on any failure.
pub fn start(engine: Arc<Engine>, rules: &[String], data_dir: Option<PathBuf>) -> Option<Running> {
    let cfg = ServeConfig {
        data_dir,
        ..ServeConfig::default()
    };
    let server = Server::bind(engine, cfg).ok()?;
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run().is_ok());
    let mut control = Client::connect(addr).ok()?;
    for (u, r) in rules.iter().enumerate() {
        control.register_profile(&user_name(u), r).ok()?;
    }
    Some(Running {
        addr,
        control,
        thread,
    })
}

impl Running {
    /// Drain and stop the server and wait for its thread; `true` when
    /// both ended cleanly.
    pub fn stop(mut self) -> bool {
        let asked = self.control.shutdown().is_ok();
        let ran = self.thread.join().unwrap_or(false);
        asked && ran
    }
}

/// A number out of a `stats` reply, by path.
pub fn stat(stats: &Value, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(stats, |v, key| v.get(key))
        .and_then(Value::as_f64)
}

/// One search as its client saw it, kept small: a window holds ~10⁵.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request number (resolves to the request through the [`Stream`]).
    pub key: u64,
    /// When the request was sent, nanoseconds after the window began.
    pub start_ns: u64,
    /// Until its reply had been read and decoded, nanoseconds.
    pub dur_ns: u32,
    /// The reduced reply.
    pub reply: Reply,
}

impl Sample {
    /// Caller-observed latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        f64::from(self.dur_ns) / 1000.0
    }

    /// Did the request start in a traced slice of the window?
    pub fn traced(&self) -> bool {
        traced_slice(self.start_ns).is_some()
    }
}

/// What the clients of one window recorded.
#[derive(Default)]
pub struct ClientLog {
    /// Every answered search that started inside the window.
    pub samples: Vec<Sample>,
    /// Searches that failed: request number and error text.
    pub errors: Vec<(u64, String)>,
    /// Samples whose full reply body was kept for the replay lane.
    pub kept: Vec<(Sample, Value)>,
}

/// How the closed-loop clients of one window run.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Client threads, one connection each.
    pub clients: usize,
    /// Requests sent earlier (the warm-up) are issued but not recorded.
    pub window_start: Instant,
    /// Keep full reply bodies in the traced slices of the window.
    pub trace: bool,
    /// Bodies each client keeps per traced slice, so the replay sample
    /// spreads over the whole run.
    pub keep_per_slice: usize,
    /// Sizes the sample vectors (a generous guess).
    pub expected_per_client: usize,
}

/// Closed-loop clients: client `c` issues requests `c, c + clients,
/// c + 2·clients, …` of `stream` back to back until `done` is set.
pub fn run_clients(addr: SocketAddr, stream: &Stream, done: &AtomicBool, load: Load) -> ClientLog {
    let Load {
        clients,
        window_start,
        trace,
        keep_per_slice,
        expected_per_client,
    } = load;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    // Reserved once and touched only as it fills, so the
                    // peak memory of the run does not depend on where a
                    // doubling of the vector happened to fall.
                    let mut log = ClientLog {
                        samples: Vec::with_capacity(expected_per_client),
                        ..ClientLog::default()
                    };
                    let mut conn = match Client::connect(addr) {
                        Ok(conn) => conn,
                        Err(e) => {
                            log.errors.push((c as u64, e.to_string()));
                            return log;
                        }
                    };
                    let mut slice_kept = (0u64, 0usize);
                    let mut key = c as u64;
                    while !done.load(Ordering::Relaxed) {
                        let request = search_request(&stream.item(key));
                        let start = Instant::now();
                        let result = conn.request(&request);
                        let end = Instant::now();
                        if let Some(since) = start.checked_duration_since(window_start) {
                            match result {
                                Ok(body) => {
                                    let sample = Sample {
                                        key,
                                        start_ns: since.as_nanos() as u64,
                                        dur_ns: u32::try_from(end.duration_since(start).as_nanos())
                                            .unwrap_or(u32::MAX),
                                        reply: reduce_body(&body),
                                    };
                                    log.samples.push(sample);
                                    if let Some(slice) =
                                        traced_slice(sample.start_ns).filter(|_| trace)
                                    {
                                        if slice_kept.0 != slice {
                                            slice_kept = (slice, 0);
                                        }
                                        if slice_kept.1 < keep_per_slice {
                                            slice_kept.1 += 1;
                                            log.kept.push((sample, body));
                                        }
                                    }
                                }
                                Err(e) => log.errors.push((key, e.to_string())),
                            }
                        }
                        key += clients as u64;
                    }
                    log
                })
            })
            .collect();
        let logs: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        let total = logs.iter().flatten().map(|log| log.samples.len()).sum();
        let mut all = ClientLog {
            samples: Vec::with_capacity(total),
            ..ClientLog::default()
        };
        for log in logs {
            match log {
                Ok(log) => {
                    all.samples.extend(log.samples);
                    all.errors.extend(log.errors);
                    all.kept.extend(log.kept);
                }
                Err(_) => all.errors.push((0, "client thread panicked".to_string())),
            }
        }
        all
    })
}

/// Sleep until `t` (returns at once when `t` has passed).
pub fn sleep_until(t: Instant) {
    if let Some(wait) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// One open-loop write as its client saw it.
pub struct WriteSample {
    /// Batch number.
    pub batch: usize,
    /// When the batch was due.
    pub due: Instant,
    /// When it was actually sent (later than `due` when the generator
    /// was still waiting for the previous acknowledgement).
    pub sent: Instant,
    /// When its acknowledgement arrived.
    pub acked: Instant,
    /// `(generation, num_docs)` of the acknowledgement, or the error.
    pub ack: Result<(u64, u64), String>,
    /// Bytes of files that appeared in the data directory since the
    /// previous acknowledgement.
    pub new_file_bytes: u64,
}

impl WriteSample {
    /// Acknowledgement latency from the *due* time, in milliseconds: a
    /// stall is charged to every batch it delays.
    pub fn latency_ms(&self) -> f64 {
        self.acked.duration_since(self.due).as_nanos() as f64 / 1e6
    }

    /// The generator ran late: the batch left more than a twentieth of
    /// `period` after it was due (a timer wake-up is not lateness; a
    /// writer still waiting for the previous acknowledgement is).
    pub fn late(&self, period: Duration) -> bool {
        self.sent.duration_since(self.due) > period / 20
    }
}

/// Total size of the files in `dir` whose names are not yet in `seen`
/// (files of the segment store are generation-stamped and never
/// rewritten, so a new name is new bytes); the names join `seen`.
pub fn new_file_bytes(dir: &std::path::Path, seen: &mut std::collections::BTreeSet<String>) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let len = e.metadata().ok()?.len();
            seen.insert(name).then_some(len)
        })
        .sum()
}

/// Total size of the files in `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    new_file_bytes(dir, &mut std::collections::BTreeSet::new())
}

/// The open-loop writer: batch `i` is due at `first_due + i·period`
/// whatever happened to the batches before it. One connection, so a late
/// acknowledgement delays later sends — which is counted, not hidden:
/// latency runs from the due time and lateness is reported. Returns when
/// the last batch is acknowledged or failed.
pub fn run_writer(
    addr: SocketAddr,
    batches: &[Vec<String>],
    first_due: Instant,
    period: Duration,
    data_dir: &std::path::Path,
) -> Vec<WriteSample> {
    let mut out = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    new_file_bytes(data_dir, &mut seen);
    let mut conn = Client::connect(addr);
    for (i, docs) in batches.iter().enumerate() {
        let due = first_due + period * i as u32;
        sleep_until(due);
        let sent = Instant::now();
        let result = match &mut conn {
            Ok(c) => c.add_documents(docs).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        let acked = Instant::now();
        let ack = result.and_then(|body| {
            let num = |key: &str| body.get(key).and_then(Value::as_u64);
            num("generation")
                .zip(num("num_docs"))
                .ok_or_else(|| "acknowledgement lacks generation/num_docs".to_string())
        });
        out.push(WriteSample {
            batch: i,
            due,
            sent,
            acked,
            ack,
            new_file_bytes: new_file_bytes(data_dir, &mut seen),
        });
    }
    out
}

/// Wait until the background merger has nothing left to do: fewer delta
/// segments than its threshold are pending (the boot corpus is one
/// segment, so deltas = segments - 1) and the corpus generation holds
/// still for `quiet`.
pub fn settle(running: &mut Running, quiet: Duration, give_up: Duration) -> bool {
    let threshold = ServeConfig::default().merge_threshold as f64;
    let started = Instant::now();
    let mut last_generation = f64::NAN;
    let mut since = Instant::now();
    while started.elapsed() < give_up {
        let stats = running.control.stats().ok();
        let get = |path: &[&str]| stats.as_ref().and_then(|stats| stat(stats, path));
        let generation = get(&["ingest", "generation"]).unwrap_or(f64::NAN);
        let segments = get(&["shards", "count"]).unwrap_or(f64::INFINITY);
        if generation != last_generation || (threshold > 0.0 && segments > threshold) {
            last_generation = generation;
            since = Instant::now();
        } else if since.elapsed() >= quiet {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}
