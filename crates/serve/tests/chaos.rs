//! Seeded chaos suite (ISSUE 5 acceptance): with the fault-injection
//! feature on, a deterministic fault schedule — worker panics, a
//! corrupted profile snapshot, a stalled half-open client — must leave
//! the server serving. Surviving requests stay bit-identical to serial
//! `Engine::search`, panicked requests surface as typed `internal`
//! errors, corrupted-profile users degrade to unpersonalized answers
//! stamped `degraded: true`, and the metrics identities hold throughout.
#![cfg(feature = "fault-injection")]

use pimento::profile::{parse_profile, PrefRelRegistry, UserProfile};
use pimento::{Engine, SearchOptions};
use pimento_serve::faults::{self, FaultPlan};
use pimento_serve::json::Value;
use pimento_serve::{Client, ClientError, ProfileRegistry, ServeConfig, ServeError, Server};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once};
use std::thread;

const FIG2_RULES: &str = include_str!("../../../profiles/fig2.rules");

const CARS_QUERY: &str = r#"//car[ftcontains(., "good condition") and ./price < 2000]"#;

/// A second query shape, used by the prepare-time fault test.
const MILEAGE_QUERY: &str = r#"//car[ftcontains(., "low mileage")]"#;

/// The fault registry is process-global: chaos tests must not overlap.
/// The guard also clears the installed plan on drop, so a failing
/// assertion cannot leak a plan into the next test.
struct FaultSession(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultSession {
    fn install(plan: FaultPlan) -> FaultSession {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        quiet_injected_panics();
        faults::install(plan);
        FaultSession(guard)
    }
}

impl Drop for FaultSession {
    fn drop(&mut self) {
        faults::clear();
    }
}

/// Injected panics are the point of this suite; their default-hook
/// backtraces would bury real failures. Everything else still prints.
fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.contains("fault injected") {
                default(info);
            }
        }));
    });
}

fn cars_engine() -> Arc<Engine> {
    let mut docs = vec![pimento_datagen::paper_figure1().to_string()];
    docs.push(pimento_datagen::generate_dealer(7, 120));
    docs.push(pimento_datagen::generate_dealer(13, 120));
    Arc::new(Engine::from_xml_docs(&docs).expect("corpus parses"))
}

fn start(
    engine: Arc<Engine>,
    cfg: ServeConfig,
) -> (SocketAddr, thread::JoinHandle<Result<Value, ServeError>>) {
    let server = Server::bind(engine, cfg).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

fn fingerprint(hits: &Value) -> Vec<(u64, u64, u64, u64)> {
    hits.as_arr()
        .expect("hits array")
        .iter()
        .map(|h| {
            (
                h.get("doc").and_then(Value::as_u64).expect("doc"),
                h.get("node").and_then(Value::as_u64).expect("node"),
                h.get("s").and_then(Value::as_f64).expect("s").to_bits(),
                h.get("k").and_then(Value::as_f64).expect("k").to_bits(),
            )
        })
        .collect()
}

fn serial_fingerprint(
    engine: &Engine,
    profile: &UserProfile,
    query: &str,
    k: usize,
) -> Vec<(u64, u64, u64, u64)> {
    let results = engine
        .search(query, profile, &SearchOptions::top(k))
        .expect("serial search");
    results
        .hits
        .iter()
        .map(|h| {
            (
                u64::from(h.elem.doc.0),
                u64::from(h.elem.node.0),
                h.s.to_bits(),
                h.k.to_bits(),
            )
        })
        .collect()
}

fn assert_stats_identities(stats: &Value) {
    let g = |k: &str| {
        stats
            .get(k)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("counter {k}"))
    };
    assert_eq!(
        g("requests"),
        g("responses_ok") + g("responses_err") + g("rejected_overload") + g("rejected_deadline"),
        "every decoded request answered exactly once: {stats:?}"
    );
}

/// Retry a search past injected worker panics: the schedule may hit any
/// request, including setup/verification ones. Panics must arrive as
/// typed `internal` errors — anything else fails the test immediately.
fn search_riding_out_panics(
    c: &mut Client,
    user: Option<&str>,
    query: &str,
    panics_seen: &AtomicUsize,
) -> Value {
    for _ in 0..32 {
        match c.search(user, query, 10) {
            Ok(body) => return body,
            Err(ClientError::Server { kind, msg }) if kind == "internal" => {
                assert!(
                    msg.contains("panicked"),
                    "internal error names the panic: {msg}"
                );
                panics_seen.fetch_add(1, Ordering::SeqCst);
            }
            Err(e) => panic!("unexpected failure under chaos: {e}"),
        }
    }
    panic!("32 consecutive injected panics — schedule is implausibly hostile");
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pimento-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The acceptance scenario: panic 1-in-8 worker jobs, corrupt one
/// persisted profile snapshot, stall one client mid-frame — and demand
/// the server keeps its contract on every axis at once.
#[test]
fn seeded_chaos_schedule_leaves_the_server_serving() {
    let session = FaultSession::install(FaultPlan::new(0x00C0_FFEE).every("serve.worker.job", 8));

    // Two persisted profiles; flip one byte inside the victim's rules
    // region (the header checksum stays valid, so recovery must still
    // identify the user and degrade rather than drop the session).
    let dir = temp_dir("acceptance");
    let registry = ProfileRegistry::open(&dir).expect("open profile dir");
    for user in ["good", "victim"] {
        let profile = parse_profile(FIG2_RULES, &PrefRelRegistry::new()).expect("fig2 parses");
        let persisted = registry.register(user, profile, FIG2_RULES);
        persisted.expect("durable").expect("persist");
    }
    let victim_path = dir.join(ProfileRegistry::file_name("victim"));
    let mut bytes = std::fs::read(&victim_path).expect("read victim snapshot");
    let len = bytes.len();
    bytes[len - 8] ^= 0xFF;
    std::fs::write(&victim_path, &bytes).expect("corrupt victim snapshot");

    let engine = cars_engine();
    let cfg = ServeConfig {
        workers: 2,
        profile_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(Arc::clone(&engine), cfg);

    // Stalled client: half a frame header, then silence. It may occupy a
    // reader thread for the whole test; it must not wedge anything.
    let stalled = TcpStream::connect(addr).expect("stall connect");
    {
        use std::io::Write;
        let mut s = &stalled;
        s.write_all(&[0x00, 0x01]).expect("half a header");
    }

    let profile = parse_profile(FIG2_RULES, &PrefRelRegistry::new()).expect("fig2 parses");
    let expected_personalized = serial_fingerprint(&engine, &profile, CARS_QUERY, 10);
    let expected_plain = serial_fingerprint(&engine, &UserProfile::new(), CARS_QUERY, 10);
    assert_ne!(
        expected_personalized, expected_plain,
        "personalization changes the ranking"
    );

    let panics_seen = Arc::new(AtomicUsize::new(0));

    // Recovery contract, checked through the wire: the intact profile
    // personalizes, the corrupted one serves unpersonalized answers
    // stamped with a reason.
    let mut c = Client::connect(addr).expect("connect");
    let body = search_riding_out_panics(&mut c, Some("good"), CARS_QUERY, &panics_seen);
    assert_eq!(
        fingerprint(body.get("hits").expect("hits")),
        expected_personalized
    );
    assert_eq!(
        body.get("degraded"),
        None,
        "intact profile is not degraded: {body:?}"
    );

    let body = search_riding_out_panics(&mut c, Some("victim"), CARS_QUERY, &panics_seen);
    assert_eq!(
        body.get("degraded").and_then(Value::as_bool),
        Some(true),
        "corrupted profile degrades: {body:?}"
    );
    let reason = body
        .get("degraded_reason")
        .and_then(Value::as_str)
        .expect("degraded_reason");
    assert!(
        reason.contains("corrupt"),
        "reason names the corruption: {reason}"
    );
    assert_eq!(
        fingerprint(body.get("hits").expect("hits")),
        expected_plain,
        "degraded answers are bit-identical to serial unpersonalized search"
    );

    // Concurrent load under the panic schedule.
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let expected_personalized = expected_personalized.clone();
            let expected_plain = expected_plain.clone();
            let panics_seen = Arc::clone(&panics_seen);
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for round in 0..12 {
                    let user = match (i + round) % 3 {
                        0 => Some("good"),
                        1 => Some("victim"),
                        _ => None,
                    };
                    let body = search_riding_out_panics(&mut c, user, CARS_QUERY, &panics_seen);
                    let expected = if user == Some("good") {
                        &expected_personalized
                    } else {
                        &expected_plain
                    };
                    assert_eq!(
                        &fingerprint(body.get("hits").expect("hits")),
                        expected,
                        "survivors stay bit-identical under chaos (user {user:?})"
                    );
                    let degraded = body.get("degraded").and_then(Value::as_bool);
                    assert_eq!(degraded, (user == Some("victim")).then_some(true));
                }
            })
        })
        .collect();
    for t in clients {
        t.join().expect("client thread");
    }

    let stats = c.shutdown().expect("shutdown");
    drop(stalled);
    let final_stats = handle.join().expect("server thread").expect("server ran");

    for s in [&stats, &final_stats] {
        assert_stats_identities(s);
        let g = |k: &str| {
            s.get(k)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("counter {k}"))
        };
        assert_eq!(
            g("panics") as usize,
            panics_seen.load(Ordering::SeqCst),
            "every injected panic surfaced as exactly one typed internal error: {s:?}"
        );
        assert!(g("panics") > 0, "the 1-in-8 schedule actually fired: {s:?}");
        assert!(g("degraded") >= 1, "victim searches were stamped: {s:?}");
        let store_stats = s.get("store").expect("store block");
        let sc = |k: &str| {
            store_stats
                .get(k)
                .and_then(Value::as_u64)
                .expect("store counter")
        };
        assert_eq!(
            sc("profiles_recovered"),
            1,
            "intact profile recovered: {s:?}"
        );
        assert_eq!(
            sc("profiles_quarantined"),
            1,
            "corrupt snapshot quarantined: {s:?}"
        );
    }
    assert_eq!(
        faults::fired("serve.worker.job") as usize,
        panics_seen.load(Ordering::SeqCst)
    );

    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Durability faults must surface in the register reply and the store
/// metrics — and never take down the in-memory session.
#[test]
fn store_fsync_faults_mark_the_profile_unpersisted() {
    let session = FaultSession::install(FaultPlan::new(7).always("serve.store.fsync"));

    let dir = temp_dir("fsync");
    let engine = cars_engine();
    let cfg = ServeConfig {
        profile_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(Arc::clone(&engine), cfg);

    let mut c = Client::connect(addr).expect("connect");
    let body = c
        .register_profile("u1", FIG2_RULES)
        .expect("register succeeds in memory");
    assert_eq!(
        body.get("persisted").and_then(Value::as_bool),
        Some(false),
        "{body:?}"
    );
    let err = body
        .get("persist_error")
        .and_then(Value::as_str)
        .expect("persist_error");
    assert!(
        err.contains("fault injected"),
        "error names the fault: {err}"
    );

    // The session exists regardless: searches personalize from memory.
    let profile = parse_profile(FIG2_RULES, &PrefRelRegistry::new()).expect("fig2 parses");
    let body = c.search(Some("u1"), CARS_QUERY, 10).expect("search");
    assert_eq!(
        fingerprint(body.get("hits").expect("hits")),
        serial_fingerprint(&engine, &profile, CARS_QUERY, 10)
    );

    // With the fault lifted, the same registration durably persists.
    faults::clear();
    let body = c.register_profile("u1", FIG2_RULES).expect("re-register");
    assert_eq!(
        body.get("persisted").and_then(Value::as_bool),
        Some(true),
        "{body:?}"
    );

    let stats = c.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");
    assert_stats_identities(&stats);
    let store_stats = stats.get("store").expect("store block");
    assert_eq!(
        store_stats.get("errors").and_then(Value::as_u64),
        Some(1),
        "{stats:?}"
    );

    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Worker-pool self-healing: panics outside any request handler kill the
/// loop, the respawn wrapper re-enters it, and no request is lost — the
/// loop fault fires before a job is popped, so nothing is in flight.
#[test]
fn worker_loop_panics_respawn_without_losing_requests() {
    let session = FaultSession::install(FaultPlan::new(11).every("serve.worker.loop", 2));

    let engine = cars_engine();
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(Arc::clone(&engine), cfg);

    let expected = serial_fingerprint(&engine, &UserProfile::new(), CARS_QUERY, 10);
    let mut c = Client::connect(addr).expect("connect");
    for _ in 0..12 {
        let body = c
            .search(None, CARS_QUERY, 10)
            .expect("search survives loop panics");
        assert_eq!(fingerprint(body.get("hits").expect("hits")), expected);
    }

    let stats = c.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");
    assert_stats_identities(&stats);
    let respawns = stats
        .get("worker_respawns")
        .and_then(Value::as_u64)
        .expect("worker_respawns");
    assert!(
        respawns >= 1,
        "the loop fault fired and the pool healed: {stats:?}"
    );
    assert_eq!(
        stats.get("panics").and_then(Value::as_u64),
        Some(0),
        "no request-path panics"
    );

    drop(session);
}

/// Scoping-enforcement failure at prepare time (the paper's conflict
/// path) falls back to unpersonalized evaluation instead of erroring.
#[test]
fn scoping_faults_degrade_to_unpersonalized_answers() {
    let engine = cars_engine();
    let (addr, handle) = start(Arc::clone(&engine), ServeConfig::default());

    let mut c = Client::connect(addr).expect("connect");
    // Register BEFORE the fault: registration validates the profile
    // through the same scoping machinery, and the fault under test is a
    // prepare-time one.
    c.register_profile("u1", FIG2_RULES).expect("register");

    let session = FaultSession::install(FaultPlan::new(23).always("profile.enforce_scoping"));

    // `prepare` runs on every request, so this search hits the fault.
    let body = c.search(Some("u1"), MILEAGE_QUERY, 10).expect("search");
    assert_eq!(
        body.get("degraded").and_then(Value::as_bool),
        Some(true),
        "{body:?}"
    );
    let reason = body
        .get("degraded_reason")
        .and_then(Value::as_str)
        .expect("degraded_reason");
    assert!(
        reason.contains("not applicable"),
        "reason explains the fallback: {reason}"
    );
    let expected_plain = serial_fingerprint(&engine, &UserProfile::new(), MILEAGE_QUERY, 10);
    assert_eq!(fingerprint(body.get("hits").expect("hits")), expected_plain);

    // Anonymous queries carry an empty profile: the (gated) fault never
    // fires and the answer is identical but unstamped.
    let body = c.search(None, MILEAGE_QUERY, 10).expect("anonymous search");
    assert_eq!(body.get("degraded"), None, "{body:?}");
    assert_eq!(fingerprint(body.get("hits").expect("hits")), expected_plain);

    let stats = c.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");
    assert_stats_identities(&stats);
    assert!(
        stats
            .get("degraded")
            .and_then(Value::as_u64)
            .expect("degraded")
            >= 1,
        "degradations are counted: {stats:?}"
    );

    drop(session);
}

// ---------------------------------------------------------------------------
// Write-path chaos (ISSUE 9 acceptance): under seeded persist faults,
// writer panics, and a crash between durable commit and publish, queries
// against *published* documents stay bit-identical to a monolithic
// rebuild, no served segment is ever corrupt, and a restart recovers the
// last published generation.
// ---------------------------------------------------------------------------

const ZEPHYR_DOC: &str = "<dealer><car><model>Zephyr</model><price>1500</price>\
     <description>rare zephyr roadster in good condition</description></car></dealer>";
const ZEPHYR_QUERY: &str = r#"//car[ftcontains(., "zephyr")]"#;

fn cars_docs() -> Vec<String> {
    vec![
        pimento_datagen::paper_figure1().to_string(),
        pimento_datagen::generate_dealer(7, 120),
        pimento_datagen::generate_dealer(13, 120),
    ]
}

/// Every persist-path fault (write, fsync, rename) fails the write with a
/// typed error, leaves the served corpus bit-identical to a monolithic
/// rebuild of the pre-write documents, and clears cleanly: the retry
/// after the fault lifts publishes the exact same generation it would
/// have the first time.
#[test]
fn ingest_persist_faults_leave_the_served_corpus_unchanged() {
    let session = FaultSession::install(FaultPlan::new(3));

    let dir = temp_dir("ingest-persist");
    let docs = cars_docs();
    let engine = Arc::new(Engine::from_xml_docs(&docs).expect("corpus parses"));
    let cfg = ServeConfig {
        data_dir: Some(dir.clone()),
        merge_threshold: 0,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(Arc::clone(&engine), cfg);
    let mut c = Client::connect(addr).expect("connect");
    let expected_base = serial_fingerprint(&engine, &UserProfile::new(), CARS_QUERY, 10);

    for point in [
        "ingest.persist.write",
        "ingest.persist.fsync",
        "ingest.persist.rename",
    ] {
        faults::install(FaultPlan::new(3).always(point));
        let err = c.add_documents(&[ZEPHYR_DOC.to_string()]);
        match err {
            Err(ClientError::Server { kind, msg }) => {
                assert_eq!(kind, "internal", "{point}: {msg}");
                assert!(msg.contains(point), "{point}: {msg}");
            }
            other => panic!("{point}: expected a typed error, got {other:?}"),
        }
        // The served corpus never saw the failed write.
        let body = c.search(None, CARS_QUERY, 10).expect("search");
        assert_eq!(fingerprint(body.get("hits").expect("hits")), expected_base);
        let body = c.search(None, ZEPHYR_QUERY, 5).expect("search");
        assert_eq!(
            body.get("hits").and_then(Value::as_arr).map(<[Value]>::len),
            Some(0),
            "{point}: failed add must not publish"
        );
    }
    faults::clear();

    // With the faults lifted the same batch goes through, and the live
    // answer matches a monolithic rebuild of base + new documents.
    let added = c
        .add_documents(&[ZEPHYR_DOC.to_string()])
        .expect("post-fault add");
    assert_eq!(added.get("generation").and_then(Value::as_u64), Some(1));
    let mut all_docs = docs.clone();
    all_docs.push(ZEPHYR_DOC.to_string());
    let monolithic = Engine::from_xml_docs(&all_docs).expect("monolithic rebuild");
    let body = c.search(None, ZEPHYR_QUERY, 5).expect("search");
    assert_eq!(
        fingerprint(body.get("hits").expect("hits")),
        serial_fingerprint(&monolithic, &UserProfile::new(), ZEPHYR_QUERY, 5)
    );

    let stats = c.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");
    assert_stats_identities(&stats);
    let ingest = stats.get("ingest").expect("ingest block");
    assert_eq!(
        ingest.get("errors").and_then(Value::as_u64),
        Some(3),
        "{stats:?}"
    );
    assert_eq!(ingest.get("generation").and_then(Value::as_u64), Some(1));

    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panic inside the single-writer pipeline surfaces as one typed
/// `internal` error, poisons nothing observable, and the very next write
/// on the same connection succeeds and is served.
#[test]
fn ingest_writer_panic_is_isolated_and_the_next_write_succeeds() {
    let session = FaultSession::install(FaultPlan::new(5).at("ingest.writer.panic", 1));

    let dir = temp_dir("ingest-panic");
    let engine = Arc::new(Engine::from_xml_docs(&cars_docs()).expect("corpus parses"));
    let cfg = ServeConfig {
        data_dir: Some(dir.clone()),
        merge_threshold: 0,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(Arc::clone(&engine), cfg);
    let mut c = Client::connect(addr).expect("connect");

    let err = c.add_documents(&[ZEPHYR_DOC.to_string()]);
    match err {
        Err(ClientError::Server { kind, msg }) => {
            assert_eq!(kind, "internal", "{msg}");
            assert!(msg.contains("panicked"), "{msg}");
        }
        other => panic!("expected the injected panic, got {other:?}"),
    }

    // Same connection, same batch: the writer lock recovered.
    let added = c
        .add_documents(&[ZEPHYR_DOC.to_string()])
        .expect("write after writer panic");
    assert_eq!(added.get("generation").and_then(Value::as_u64), Some(1));
    let body = c.search(None, ZEPHYR_QUERY, 5).expect("search");
    assert_eq!(
        body.get("hits").and_then(Value::as_arr).map(<[Value]>::len),
        Some(1),
        "{body:?}"
    );

    let stats = c.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");
    assert_stats_identities(&stats);
    assert_eq!(stats.get("panics").and_then(Value::as_u64), Some(1));

    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash between durable commit and in-memory publish: the client gets an
/// error and the running server keeps serving the old generation — but
/// the commit is durable, so a restart recovers the newer generation,
/// bit-identical to a monolithic rebuild that includes the batch.
#[test]
fn publish_crash_recovers_the_committed_generation_on_restart() {
    let session = FaultSession::install(FaultPlan::new(9).always("ingest.publish.crash"));

    let dir = temp_dir("ingest-crash");
    let docs = cars_docs();
    let engine = Arc::new(Engine::from_xml_docs(&docs).expect("corpus parses"));
    let cfg = ServeConfig {
        data_dir: Some(dir.clone()),
        merge_threshold: 0,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(Arc::clone(&engine), cfg.clone());
    let mut c = Client::connect(addr).expect("connect");

    let err = c.add_documents(&[ZEPHYR_DOC.to_string()]);
    assert!(
        matches!(&err, Err(ClientError::Server { kind, msg })
            if kind == "internal" && msg.contains("ingest.publish.crash")),
        "{err:?}"
    );
    // The running server still serves generation 0: the batch was never
    // acknowledged and never published.
    let body = c.search(None, ZEPHYR_QUERY, 5).expect("search");
    assert_eq!(
        body.get("hits").and_then(Value::as_arr).map(<[Value]>::len),
        Some(0)
    );
    let stats = c.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");
    assert_eq!(
        stats
            .get("ingest")
            .and_then(|i| i.get("generation"))
            .and_then(Value::as_u64),
        Some(0),
        "{stats:?}"
    );
    faults::clear();

    // Restart from the data dir: the committed-but-unacked generation 1
    // is a completed durable write and comes back whole.
    let recovered = Arc::new(Engine::from_sharded_dir(&dir).expect("recover"));
    assert_eq!(recovered.generation(), 1, "last committed generation");
    let mut all_docs = docs.clone();
    all_docs.push(ZEPHYR_DOC.to_string());
    let monolithic = Engine::from_xml_docs(&all_docs).expect("monolithic rebuild");
    let (addr, handle) = start(recovered, cfg);
    let mut c = Client::connect(addr).expect("connect");
    for query in [CARS_QUERY, ZEPHYR_QUERY] {
        let body = c.search(None, query, 10).expect("post-recovery search");
        assert_eq!(
            fingerprint(body.get("hits").expect("hits")),
            serial_fingerprint(&monolithic, &UserProfile::new(), query, 10),
            "recovered corpus is bit-identical to the monolithic rebuild ({query})"
        );
    }
    c.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");

    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}
