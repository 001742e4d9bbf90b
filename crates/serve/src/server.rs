//! The resident query server (DESIGN.md §11).
//!
//! Topology: one **acceptor** (the thread that called [`Server::run`]),
//! one lightweight **reader** thread per admitted connection (I/O-bound:
//! it decodes frames and enqueues), and a **fixed worker pool** (CPU
//! side: it evaluates queries and writes responses). Sizing goes through
//! the same `resolve_threads` / `effective_workers` clamp as the
//! parallel scan, so one knob family governs all parallelism.
//!
//! Robustness invariants, asserted by the loopback integration tests:
//!
//! * the request queue is **bounded** — a full queue rejects with a
//!   typed `overloaded` error instead of buffering without limit;
//! * every decoded request is answered **exactly once** (`requests ==
//!   responses_ok + responses_err + rejected_overload +
//!   rejected_deadline`);
//! * per-request **deadlines** are enforced at dispatch: a request whose
//!   budget expired while queued is abandoned before evaluation starts
//!   (evaluation itself is never preempted — determinism);
//! * `shutdown` **drains**: requests admitted to the queue before the
//!   drain began are all answered, then the pool exits and the final
//!   metrics snapshot is returned from [`Server::run`];
//! * request handlers are **panic-isolated**: a panic while evaluating
//!   one request becomes that request's typed `internal` error (and a
//!   `panics` metric), never a dead worker or a dead server; a panic
//!   outside any handler respawns the worker loop (`worker_respawns`);
//! * personalization **degrades before it fails**: a user whose profile
//!   cannot be applied (conflict at prepare time, or corrupt persisted
//!   profile at recovery) gets the unpersonalized base answers with
//!   `degraded: true` and a reason, not an error.
//!
//! The full failure model — which fault can fire where and what each one
//! maps to — is cataloged in DESIGN.md §12.

use crate::json::{obj, Value};
use crate::metrics::Metrics;
use crate::protocol::{
    err_kind, err_payload, ok_payload, parse_request, write_frame, QuerySpec, Request,
    FRAME_HARD_CAP,
};
use crate::registry::ProfileRegistry;
use crate::scrub::{spawn_scrubber, Scrubber};
use pimento::profile::{parse_profile, validate, PrefRelRegistry, UserProfile};
use pimento::{Engine, Error, SearchOptions, SearchResults};
use pimento_index::{effective_workers, resolve_threads};
use pimento_ingest::{spawn_merger, IngestConfig, Ingestor, LiveEngine, MergerHandle};
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// How often blocked reads wake up to check the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(100);

/// Server configuration. `Default` is suitable for tests and loopback
/// benches; production deployments override the capacities.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port `0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker pool size: `0` = machine parallelism. Routed through
    /// `index::resolve_threads` + `index::effective_workers`, the same
    /// clamp as `--threads` on the search path.
    pub workers: usize,
    /// Bounded request queue capacity; a full queue rejects with
    /// `overloaded` (`0` rejects everything — useful for tests).
    pub queue_capacity: usize,
    /// Maximum concurrent connections; excess connections receive one
    /// `overloaded` error frame and are closed.
    pub max_connections: usize,
    /// Largest request frame accepted (hard-capped at 16 MiB).
    pub max_frame_bytes: usize,
    /// Idle connections are closed after this long without a frame.
    pub idle_timeout: Duration,
    /// Default per-request deadline when a request carries no
    /// `timeout_ms` (`None` = no deadline).
    pub default_timeout: Option<Duration>,
    /// Execution threads per query when the request doesn't override
    /// (`1` = sequential; the pool provides the concurrency, so this
    /// stays at 1 unless workers outnumber concurrent requests).
    pub query_threads: usize,
    /// Artificial per-job delay before processing — a determinism lever
    /// for the drain/overload tests and the load generator. Always
    /// `None` in production use.
    pub worker_delay: Option<Duration>,
    /// Write timeout on connection sockets (both response writers and
    /// the acceptor's rejection frames): a client that stops reading
    /// must not wedge a worker — or the acceptor — forever.
    pub conn_timeout: Duration,
    /// Directory the profile registry persists to. `None` disables
    /// persistence; profiles live only in memory.
    pub profile_dir: Option<PathBuf>,
    /// Directory for the durable segment store: every published corpus
    /// generation is persisted there before it becomes visible, and a
    /// restarted server recovers the last published generation from it.
    /// `None` keeps ingested documents memory-only.
    pub data_dir: Option<PathBuf>,
    /// Compact once this many delta segments have accumulated; `0`
    /// disables the background merger entirely.
    pub merge_threshold: usize,
    /// Period of the online integrity scrubber (DESIGN.md §17): every
    /// interval it re-verifies all durable artifacts, quarantining and
    /// repairing damage. `None` disables the background thread (the
    /// `health` verb then reports the never-scrubbed initial state).
    pub scrub_interval: Option<Duration>,
    /// How long the engine took to build or open before `bind`, in
    /// milliseconds — reported in the `stats` startup block (beside the
    /// engine's own `snapshot_format`).
    pub startup_load_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            max_connections: 256,
            max_frame_bytes: 1024 * 1024,
            idle_timeout: Duration::from_secs(30),
            default_timeout: None,
            query_threads: 1,
            worker_delay: None,
            conn_timeout: Duration::from_secs(5),
            profile_dir: None,
            data_dir: None,
            merge_threshold: 8,
            scrub_interval: None,
            startup_load_ms: 0,
        }
    }
}

/// Server-level failure (binding, thread spawning, fatal accept).
#[derive(Debug)]
pub enum ServeError {
    /// Could not bind the listen address.
    Bind {
        /// The address that failed.
        addr: String,
        /// The underlying error.
        err: io::Error,
    },
    /// Could not spawn a pool thread.
    Spawn(io::Error),
    /// Listener configuration failed.
    Io(io::Error),
    /// The profile directory failed at the filesystem level (corrupt
    /// *files* never produce this — they are quarantined).
    Store(Error),
    /// The ingest pipeline could not be attached (segment store I/O at
    /// startup, or the bootstrap persist of the boot corpus failed).
    Ingest(Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, err } => write!(f, "cannot bind {addr}: {err}"),
            ServeError::Spawn(e) => write!(f, "cannot spawn server thread: {e}"),
            ServeError::Io(e) => write!(f, "server I/O error: {e}"),
            ServeError::Store(e) => write!(f, "profile store: {e}"),
            ServeError::Ingest(e) => write!(f, "ingest pipeline: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    merger: Option<MergerHandle>,
}

/// State shared by the acceptor, readers, and workers.
struct Shared {
    /// The live engine cell. Each request loads one `Arc<Engine>` and
    /// uses it for its whole lifetime (prepare + execute), so a publish
    /// mid-request can never mix corpus generations in one answer.
    live: Arc<LiveEngine>,
    /// The single-writer ingest pipeline behind `add_documents` /
    /// `delete_documents` (its writer mutex serializes concurrent
    /// ingest jobs across the worker pool).
    ingest: Arc<Ingestor>,
    cfg: ServeConfig,
    /// Profile sessions and, with `cfg.profile_dir`, their durable copy.
    registry: Arc<ProfileRegistry>,
    queue: BoundedQueue<Job>,
    metrics: Arc<Metrics>,
    shutdown: AtomicBool,
    live_conns: AtomicUsize,
    addr: SocketAddr,
    empty_profile: Arc<UserProfile>,
    /// The online integrity scrubber. Always constructed (the `health`
    /// verb needs it); the periodic thread only runs when
    /// `cfg.scrub_interval` is set.
    scrub: Arc<Scrubber>,
}

/// One admitted request, waiting in the queue.
struct Job {
    req: Request,
    conn: Arc<Conn>,
    /// When the frame was decoded (latency + deadline anchor).
    arrival: Instant,
    /// Deadline budget measured from `arrival`.
    budget: Option<Duration>,
}

/// The response half of a connection, shared between its reader and
/// whichever worker answers its requests.
struct Conn {
    writer: Mutex<TcpStream>,
}

impl Conn {
    /// Write one response frame; a dead client is not an error (the
    /// response is still accounted — it was produced).
    fn respond(&self, payload: &[u8]) {
        let mut w = lock(&self.writer);
        let _ = write_frame(&mut *w, payload);
    }
}

impl Server {
    /// Bind `cfg.addr`, prepare the shared state, and — when
    /// `cfg.profile_dir` is set — recover persisted profiles
    /// ([`ProfileRegistry::recover`]). Corrupt profile files are
    /// quarantined and their users registered as degraded sessions; only
    /// filesystem-level failures of the profile directory abort the
    /// bind. The server starts serving when [`Server::run`] is called.
    pub fn bind(engine: Arc<Engine>, cfg: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&cfg.addr).map_err(|err| ServeError::Bind {
            addr: cfg.addr.clone(),
            err,
        })?;
        let addr = listener.local_addr().map_err(ServeError::Io)?;
        let registry = Arc::new(match &cfg.profile_dir {
            Some(dir) => ProfileRegistry::open(dir.clone()).map_err(ServeError::Store)?,
            None => ProfileRegistry::new(),
        });
        let snapshot_format = engine.snapshot_format();
        let live = Arc::new(LiveEngine::from_arc(engine));
        let ingest = Arc::new(
            Ingestor::new(
                Arc::clone(&live),
                IngestConfig {
                    data_dir: cfg.data_dir.clone(),
                    merge_threshold: cfg.merge_threshold,
                    // Compaction rebuilds into the layout the corpus
                    // booted with.
                    compact_shards: live.load().shard_count(),
                    vfs: None,
                },
            )
            .map_err(ServeError::Ingest)?,
        );
        let metrics = Arc::new(Metrics::new());
        let merger = if cfg.merge_threshold > 0 {
            Some(spawn_merger(&ingest).map_err(ServeError::Ingest)?)
        } else {
            None
        };
        let scrub = Arc::new(Scrubber::new(
            Arc::clone(&ingest),
            Arc::clone(&registry),
            Arc::clone(&metrics),
        ));
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            registry,
            metrics,
            shutdown: AtomicBool::new(false),
            live_conns: AtomicUsize::new(0),
            addr,
            empty_profile: Arc::new(UserProfile::new()),
            scrub,
            live,
            ingest,
            cfg,
        });
        shared
            .metrics
            .set_startup(shared.cfg.startup_load_ms, snapshot_format);
        let engine = shared.live.load();
        shared.metrics.set_shards(engine.shard_count());
        shared.metrics.set_ingest_gauges(
            engine.generation(),
            engine.num_docs(),
            engine.live_docs(),
            0,
            0,
        );
        shared
            .registry
            .recover(&shared.metrics)
            .map_err(ServeError::Store)?;
        Ok(Server {
            listener,
            addr,
            shared,
            merger,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until a `shutdown` command arrives, then drain and return
    /// the final metrics snapshot. Blocks the calling thread (the
    /// acceptor runs here; spawn `run` onto a thread to serve in the
    /// background).
    pub fn run(self) -> Result<Value, ServeError> {
        let shared = self.shared;
        let merger = self.merger;
        let scrub_thread = match shared.cfg.scrub_interval {
            Some(interval) => {
                Some(spawn_scrubber(&shared.scrub, interval).map_err(ServeError::Spawn)?)
            }
            None => None,
        };
        let pool_size = effective_workers(resolve_threads(shared.cfg.workers), usize::MAX);
        let mut workers = Vec::with_capacity(pool_size);
        for i in 0..pool_size {
            let s = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!("pimento-serve-worker-{i}"))
                .spawn(move || {
                    // Self-healing: a panic that escapes the per-request
                    // isolation (e.g. the `serve.worker.loop` fault
                    // point) ends one loop iteration, not the worker —
                    // the loop re-enters until the queue closes. No job
                    // is lost: the loop only panics outside `pop`, and a
                    // panic *inside* a handler is caught per-request.
                    loop {
                        match catch_unwind(AssertUnwindSafe(|| worker_loop(&s))) {
                            Ok(()) => break,
                            Err(_) => s.metrics.inc(&s.metrics.worker_respawns),
                        }
                    }
                })
                .map_err(ServeError::Spawn)?;
            workers.push(handle);
        }

        let mut readers: Vec<thread::JoinHandle<()>> = Vec::new();
        for incoming in self.listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let mut stream = match incoming {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Finished readers are joined opportunistically so the
            // handle list stays proportional to live connections.
            readers.retain(|h| !h.is_finished());
            if shared.live_conns.load(Ordering::SeqCst) >= shared.cfg.max_connections {
                shared.metrics.inc(&shared.metrics.conns_rejected);
                // The rejection write runs on the acceptor thread: a
                // stalled client must not pin it past the timeout.
                let _ = stream.set_write_timeout(Some(shared.cfg.conn_timeout));
                let _ = write_frame(
                    &mut stream,
                    &err_payload(err_kind::OVERLOADED, "connection limit reached"),
                );
                continue;
            }
            shared.metrics.inc(&shared.metrics.conns_accepted);
            shared.live_conns.fetch_add(1, Ordering::SeqCst);
            let s = Arc::clone(&shared);
            match thread::Builder::new()
                .name("pimento-serve-reader".to_string())
                .spawn(move || {
                    reader_loop(stream, &s);
                    s.live_conns.fetch_sub(1, Ordering::SeqCst);
                }) {
                Ok(h) => readers.push(h),
                Err(_) => {
                    shared.live_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }

        // Drain: readers stop admitting within one read tick, then the
        // queue is closed so workers finish everything already admitted.
        for h in readers {
            let _ = h.join();
        }
        shared.queue.close();
        for h in workers {
            let _ = h.join();
        }
        // Stop the background merger after the drain: every admitted
        // ingest request has been answered, so its last published
        // generation is final (and durable when a data dir is set).
        shared.ingest.shutdown();
        if let Some(m) = merger {
            m.join();
        }
        if let Some(s) = scrub_thread {
            s.stop();
        }
        Ok(shared.metrics.snapshot(shared.registry.len()))
    }
}

/// Recover a mutex guard even if a panicking thread poisoned it: every
/// critical section leaves the protected structure consistent, and the
/// server must keep answering.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// ---------------------------------------------------------------------
// Bounded queue

/// Mutex + condvar MPMC queue with a hard capacity. `try_push` never
/// blocks (backpressure surfaces as an error, not as buffering); `pop`
/// blocks until an item or close-and-empty.
struct BoundedQueue<T> {
    inner: Mutex<QueueState<T>>,
    ready: Condvar,
    capacity: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Admit an item unless the queue is full or closed.
    fn try_push(&self, item: T) -> Result<(), T> {
        let mut q = lock(&self.inner);
        if q.closed || q.items.len() >= self.capacity {
            return Err(item);
        }
        q.items.push_back(item);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Next item; `None` once the queue is closed *and* drained.
    fn pop(&self) -> Option<T> {
        let mut q = lock(&self.inner);
        loop {
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = match self.ready.wait(q) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Close the queue; blocked `pop`s drain what remains, then end.
    fn close(&self) {
        lock(&self.inner).closed = true;
        self.ready.notify_all();
    }
}

// ---------------------------------------------------------------------
// Reader side

enum ReadOutcome {
    Frame(Vec<u8>),
    TooLarge(usize),
    Closed,
}

/// Read one length-delimited frame, waking every [`READ_TICK`] to check
/// the shutdown flag and the idle budget.
fn read_frame_ticking(stream: &mut TcpStream, shared: &Shared) -> ReadOutcome {
    let started = Instant::now();
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        if shared.shutdown.load(Ordering::SeqCst) {
            return ReadOutcome::Closed;
        }
        let Some(window) = header.get_mut(filled..) else {
            return ReadOutcome::Closed;
        };
        match stream.read(window) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if started.elapsed() >= shared.cfg.idle_timeout {
                    return ReadOutcome::Closed;
                }
            }
            Err(_) => return ReadOutcome::Closed,
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > shared.cfg.max_frame_bytes.min(FRAME_HARD_CAP) {
        return ReadOutcome::TooLarge(len);
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        if shared.shutdown.load(Ordering::SeqCst) || started.elapsed() >= shared.cfg.idle_timeout {
            return ReadOutcome::Closed;
        }
        let Some(window) = payload.get_mut(got..) else {
            return ReadOutcome::Closed;
        };
        match stream.read(window) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) => {}
            Err(_) => return ReadOutcome::Closed,
        }
    }
    ReadOutcome::Frame(payload)
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Per-connection loop: decode frames, admit them to the queue, reject
/// with typed errors on overload / malformed input.
fn reader_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    // Responses are single small frames; waiting for ACKs to batch them
    // (Nagle) only adds latency.
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    // A client that stops reading must not wedge a worker forever.
    let _ = writer.set_write_timeout(Some(shared.cfg.conn_timeout));
    let conn = Arc::new(Conn {
        writer: Mutex::new(writer),
    });
    let metrics = &shared.metrics;
    loop {
        match read_frame_ticking(&mut stream, shared) {
            ReadOutcome::Closed => return,
            ReadOutcome::TooLarge(len) => {
                // The oversized frame counts as one accepted-and-errored
                // request; the connection cannot be resynchronized, so it
                // closes after the reply.
                metrics.inc(&metrics.requests);
                metrics.inc(&metrics.responses_err);
                conn.respond(&err_payload(
                    err_kind::BAD_REQUEST,
                    &format!("frame of {len} bytes exceeds the limit"),
                ));
                return;
            }
            ReadOutcome::Frame(bytes) => {
                metrics.inc(&metrics.requests);
                let arrival = Instant::now();
                let parsed = std::str::from_utf8(&bytes)
                    .map_err(|_| "frame is not UTF-8".to_string())
                    .and_then(|text| Value::parse(text).map_err(|e| e.to_string()))
                    .and_then(|v| parse_request(&v));
                let req = match parsed {
                    Ok(req) => req,
                    Err(msg) => {
                        metrics.inc(&metrics.responses_err);
                        conn.respond(&err_payload(err_kind::BAD_REQUEST, &msg));
                        continue;
                    }
                };
                let budget = request_budget(&req, &shared.cfg);
                let job = Job {
                    req,
                    conn: Arc::clone(&conn),
                    arrival,
                    budget,
                };
                if shared.queue.try_push(job).is_err() {
                    metrics.inc(&metrics.rejected_overload);
                    let (kind, msg) = if shared.shutdown.load(Ordering::SeqCst) {
                        (err_kind::SHUTTING_DOWN, "server is draining")
                    } else {
                        (err_kind::OVERLOADED, "request queue is full")
                    };
                    conn.respond(&err_payload(kind, msg));
                }
            }
        }
    }
}

/// The deadline budget a request runs under: its own `timeout_ms` if
/// present, else the server default. Control commands carry no deadline.
fn request_budget(req: &Request, cfg: &ServeConfig) -> Option<Duration> {
    match req {
        Request::Search(spec) | Request::Explain(spec) => spec
            .timeout_ms
            .map(Duration::from_millis)
            .or(cfg.default_timeout),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Worker side

fn worker_loop(shared: &Arc<Shared>) {
    let metrics = &shared.metrics;
    loop {
        // Fault point `serve.worker.loop`: a panic *outside* any request
        // handler. It fires before `pop`, so no admitted job is held when
        // the loop dies; the respawn wrapper in `run` re-enters.
        #[cfg(feature = "fault-injection")]
        if pimento_faults::should_fire("serve.worker.loop") {
            panic!("fault injected: serve.worker.loop");
        }
        let Some(job) = shared.queue.pop() else {
            return;
        };
        if let Some(delay) = shared.cfg.worker_delay {
            thread::sleep(delay);
        }
        // Deadline gate: work that can no longer be useful is abandoned
        // before evaluation starts, never mid-operator.
        if let Some(budget) = job.budget {
            if job.arrival.elapsed() >= budget {
                metrics.inc(&metrics.rejected_deadline);
                job.conn.respond(&err_payload(
                    err_kind::DEADLINE,
                    "deadline expired before evaluation started",
                ));
                metrics.observe_latency_us(job.arrival.elapsed().as_micros() as u64);
                continue;
            }
        }
        if matches!(job.req, Request::Health) {
            // Control request, same self-counting discipline as `stats`:
            // the response is counted before the body is built.
            metrics.inc(&metrics.responses_ok);
            job.conn.respond(&ok_payload(shared.scrub.health_body()));
            metrics.observe_latency_us(job.arrival.elapsed().as_micros() as u64);
            continue;
        }
        if matches!(job.req, Request::Stats | Request::Shutdown) {
            // Snapshot-answering requests count their own response first,
            // so the snapshot they return already satisfies the
            // `requests == responses + rejections` identity.
            metrics.inc(&metrics.responses_ok);
            let engine = shared.live.load();
            metrics.set_shards(engine.shard_count());
            metrics.set_ingest_gauges(
                engine.generation(),
                engine.num_docs(),
                engine.live_docs(),
                shared.ingest.merges(),
                shared.ingest.merge_failures(),
            );
            let snapshot = metrics.snapshot(shared.registry.len());
            job.conn.respond(&ok_payload(snapshot));
            metrics.observe_latency_us(job.arrival.elapsed().as_micros() as u64);
            if matches!(job.req, Request::Shutdown) {
                begin_shutdown(shared);
            }
            continue; // on shutdown: keep draining until the queue closes
        }
        // Per-request panic isolation: whatever happens inside the
        // handler — including the `serve.worker.job` fault point — this
        // job gets exactly one response, so the `requests == responses`
        // identity survives injected and genuine panics alike.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-injection")]
            if pimento_faults::should_fire("serve.worker.job") {
                panic!("fault injected: serve.worker.job");
            }
            handle_request(shared, &job.req)
        }));
        match outcome {
            Ok(Ok(body)) => {
                metrics.inc(&metrics.responses_ok);
                job.conn.respond(&ok_payload(body));
            }
            Ok(Err((kind, msg))) => {
                metrics.inc(&metrics.responses_err);
                job.conn.respond(&err_payload(kind, &msg));
            }
            Err(payload) => {
                metrics.inc(&metrics.panics);
                metrics.inc(&metrics.responses_err);
                job.conn.respond(&err_payload(
                    err_kind::INTERNAL,
                    &format!("request handler panicked: {}", panic_message(&payload)),
                ));
            }
        }
        metrics.observe_latency_us(job.arrival.elapsed().as_micros() as u64);
    }
}

/// Best-effort human-readable text from a panic payload (`panic!` with a
/// string literal or a formatted message covers practically everything).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "<non-string panic payload>"
    }
}

/// Flip the drain flag and poke the acceptor awake (its blocking
/// `accept` only observes the flag on wakeup).
fn begin_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(shared.addr);
}

type RequestError = (&'static str, String);

fn handle_request(shared: &Arc<Shared>, req: &Request) -> Result<Value, RequestError> {
    match req {
        Request::RegisterProfile { user, rules } => register_profile(shared, user, rules),
        Request::Search(spec) => run_query(shared, spec, false),
        Request::Explain(spec) => run_query(shared, spec, true),
        Request::AddDocuments { docs } => ingest_add(shared, docs),
        Request::DeleteDocuments { ids } => ingest_delete(shared, ids),
        // Handled in `worker_loop` (self-counting snapshots + drain).
        Request::Stats | Request::Health | Request::Shutdown => Ok(Value::Null),
    }
}

/// `add_documents`: hand the batch to the single-writer pipeline. On
/// success the response's generation is already durable (when a data
/// dir is configured) and already visible to every later search.
fn ingest_add(shared: &Arc<Shared>, docs: &[String]) -> Result<Value, RequestError> {
    let metrics = &shared.metrics;
    metrics.inc(&metrics.ingest_requests);
    let receipt = shared.ingest.add_documents(docs).map_err(|e| {
        metrics.inc(&metrics.ingest_errors);
        if matches!(e, Error::DiskFull(_)) {
            metrics.inc(&metrics.disk_full);
        }
        map_engine_err(e)
    })?;
    metrics.add(&metrics.docs_added, receipt.docs as u64);
    let engine = shared.live.load();
    Ok(obj([
        ("added", receipt.docs.into()),
        ("generation", receipt.generation.into()),
        ("num_docs", engine.num_docs().into()),
        ("live_docs", engine.live_docs().into()),
        ("segments", engine.shard_count().into()),
    ]))
}

/// `delete_documents`: tombstone the ids and publish. Ids already
/// deleted (or repeated in the batch) are idempotent no-ops; an id
/// outside the corpus fails the whole batch with a typed error and
/// publishes nothing.
fn ingest_delete(shared: &Arc<Shared>, ids: &[u32]) -> Result<Value, RequestError> {
    let metrics = &shared.metrics;
    metrics.inc(&metrics.ingest_requests);
    let receipt = shared.ingest.delete_documents(ids).map_err(|e| {
        metrics.inc(&metrics.ingest_errors);
        if matches!(e, Error::DiskFull(_)) {
            metrics.inc(&metrics.disk_full);
        }
        map_engine_err(e)
    })?;
    metrics.add(&metrics.docs_deleted, receipt.docs as u64);
    let engine = shared.live.load();
    Ok(obj([
        ("deleted", receipt.docs.into()),
        ("generation", receipt.generation.into()),
        ("num_docs", engine.num_docs().into()),
        ("live_docs", engine.live_docs().into()),
        ("segments", engine.shard_count().into()),
    ]))
}

fn register_profile(shared: &Arc<Shared>, user: &str, rules: &str) -> Result<Value, RequestError> {
    let profile = parse_profile(rules, &PrefRelRegistry::new())
        .map_err(|e| (err_kind::PROFILE, e.to_string()))?;
    let warnings: Vec<Value> = validate(&profile)
        .into_iter()
        .map(|w| w.to_string().into())
        .collect();
    let counts = (
        profile.scoping.len(),
        profile.vors.len(),
        profile.kors.len(),
    );
    let mut fields = vec![
        ("user".to_string(), user.into()),
        ("scoping".to_string(), counts.0.into()),
        ("vors".to_string(), counts.1.into()),
        ("kors".to_string(), counts.2.into()),
        ("warnings".to_string(), Value::Arr(warnings)),
    ];
    // The rule text rides along in the session so the scrubber can
    // re-persist it if the on-disk copy is later damaged. Persistence
    // failure degrades durability, not availability: the registration is
    // live in memory either way, so report the failure in-band.
    if let Some(persisted) = shared.registry.register(user, profile, rules) {
        let metrics = &shared.metrics;
        match persisted {
            Ok(()) => fields.push(("persisted".to_string(), true.into())),
            Err(e) => {
                metrics.inc(&metrics.store_errors);
                if matches!(e, Error::DiskFull(_)) {
                    metrics.inc(&metrics.disk_full);
                }
                fields.push(("persisted".to_string(), false.into()));
                fields.push(("persist_error".to_string(), e.to_string().into()));
            }
        }
    }
    Ok(Value::Obj(fields))
}

/// Resolve the profile session, compile the (profile, query) pair with
/// `Engine::prepare`, then execute (or explain) under the request's
/// options. Compiling costs a few microseconds against a request's
/// hundreds (DESIGN.md §11.2), so nothing is cached. Personalized
/// requests whose profile cannot be applied — a degraded session from
/// startup recovery, or a scoping conflict at prepare time — fall back
/// to the unpersonalized base query and stamp `degraded: true` plus a
/// reason on the response instead of failing.
fn run_query(
    shared: &Arc<Shared>,
    spec: &QuerySpec,
    explain_only: bool,
) -> Result<Value, RequestError> {
    let metrics = &shared.metrics;
    // One engine load per request: prepare and execute run against the
    // same corpus generation even if a publish lands mid-request.
    let engine = shared.live.load();
    let (profile, mut degraded) = match &spec.user {
        None => (Arc::clone(&shared.empty_profile), None),
        Some(user) => {
            let session = shared.registry.get(user).ok_or_else(|| {
                (
                    err_kind::UNKNOWN_USER,
                    format!("no profile registered for `{user}`"),
                )
            })?;
            match session.degraded {
                // A degraded session runs under the empty profile, so its
                // answers are the anonymous ones.
                Some(reason) => (Arc::clone(&shared.empty_profile), Some(reason)),
                None => (session.profile, None),
            }
        }
    };
    let prepared = match engine.prepare(&spec.query, &profile) {
        Ok(prepared) => prepared,
        Err(Error::Conflict(e)) if degraded.is_none() && spec.user.is_some() => {
            // Graceful degradation: the profile cannot be applied to
            // *this* query. Unpersonalized answers now beat a hard error;
            // the empty profile prepares deterministically (its fault
            // point is gated on a non-empty rule set).
            degraded = Some(format!("profile not applicable to this query: {e}"));
            engine
                .prepare(&spec.query, &shared.empty_profile)
                .map_err(map_engine_err)?
        }
        Err(e) => return Err(map_engine_err(e)),
    };
    // k == 0 surfaces as the engine's typed InvalidK.
    let defaults = SearchOptions::top(spec.k);
    let opts = SearchOptions {
        offset: spec.offset,
        strategy: spec.strategy.unwrap_or(defaults.strategy),
        threads: spec.threads.unwrap_or(shared.cfg.query_threads),
        ..defaults
    };
    if explain_only {
        let plan = engine
            .explain_prepared(&prepared, &opts)
            .map_err(map_engine_err)?;
        let body = obj([
            ("plan", plan.into()),
            ("applied_rules", str_arr(prepared.applied_rules())),
        ]);
        return Ok(stamp_degraded(body, &degraded, metrics));
    }
    let results = engine
        .run_prepared(&prepared, &opts)
        .map_err(map_engine_err)?;
    metrics.absorb_exec(&results.stats);
    metrics.absorb_lanes(&results.lanes);
    Ok(stamp_degraded(results_body(&results), &degraded, metrics))
}

/// Mark a successful response as degraded (and count it) when the
/// request fell back to unpersonalized evaluation.
fn stamp_degraded(body: Value, degraded: &Option<String>, metrics: &Metrics) -> Value {
    let Some(reason) = degraded else { return body };
    metrics.inc(&metrics.degraded);
    match body {
        Value::Obj(mut fields) => {
            fields.push(("degraded".to_string(), true.into()));
            fields.push(("degraded_reason".to_string(), reason.as_str().into()));
            Value::Obj(fields)
        }
        other => other,
    }
}

fn map_engine_err(e: Error) -> RequestError {
    match e {
        Error::Query(_) => (err_kind::QUERY, e.to_string()),
        Error::Conflict(_) => (err_kind::PROFILE, e.to_string()),
        Error::InvalidK => (err_kind::BAD_REQUEST, e.to_string()),
        Error::Ingest(_) | Error::Xml(_) => (err_kind::INGEST, e.to_string()),
        // Retryable: the previous generation is still served; the
        // client can retry once space frees.
        Error::DiskFull(_) => (err_kind::DISK_FULL, e.to_string()),
        Error::Snapshot(_) | Error::Shard(_) | Error::Io(_) => {
            (err_kind::INTERNAL, e.to_string())
        }
    }
}

fn str_arr(items: &[String]) -> Value {
    Value::Arr(items.iter().map(|s| Value::Str(s.clone())).collect())
}

fn results_body(results: &SearchResults) -> Value {
    let hits: Vec<Value> = results
        .hits
        .iter()
        .map(|h| {
            obj([
                ("rank", h.rank.into()),
                ("doc", (h.elem.doc.0 as u64).into()),
                ("node", (h.elem.node.0 as u64).into()),
                ("s", h.s.into()),
                ("k", h.k.into()),
                ("kors", str_arr(&h.satisfied_kors)),
                ("optional", str_arr(&h.satisfied_optional)),
                ("text", h.text.as_str().into()),
            ])
        })
        .collect();
    let stats = &results.stats;
    obj([
        ("hits", Value::Arr(hits)),
        ("applied_rules", str_arr(&results.applied_rules)),
        ("skipped_rules", str_arr(&results.skipped_rules)),
        ("flock_size", results.flock_size.into()),
        (
            "stats",
            obj([
                ("base_answers", stats.base_answers.into()),
                ("pruned", stats.pruned.into()),
                ("bulk_pruned", stats.bulk_pruned.into()),
                ("ft_probes", stats.ft_probes.into()),
                ("vor_comparisons", stats.vor_comparisons.into()),
                ("emitted", stats.emitted.into()),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_backpressure_and_drain() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "full queue rejects");
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        q.close();
        assert_eq!(q.try_push(4), Err(4), "closed queue rejects");
        assert_eq!(q.pop(), Some(2), "drains after close");
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn zero_capacity_queue_rejects_everything() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.try_push(1), Err(1));
    }

    #[test]
    fn budget_resolution() {
        let cfg = ServeConfig {
            default_timeout: Some(Duration::from_millis(7)),
            ..ServeConfig::default()
        };
        let spec = QuerySpec {
            user: None,
            query: "//a".into(),
            k: 1,
            offset: 0,
            strategy: None,
            threads: None,
            timeout_ms: Some(3),
        };
        assert_eq!(
            request_budget(&Request::Search(spec.clone()), &cfg),
            Some(Duration::from_millis(3))
        );
        let spec_no = QuerySpec {
            timeout_ms: None,
            ..spec
        };
        assert_eq!(
            request_budget(&Request::Search(spec_no), &cfg),
            Some(Duration::from_millis(7))
        );
        assert_eq!(request_budget(&Request::Stats, &cfg), None);
    }
}
