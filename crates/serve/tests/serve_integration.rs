//! Loopback integration tests for the serve subsystem (ISSUE 4
//! acceptance criteria): concurrent clients are bit-identical to serial
//! `Engine::search`, overload and deadlines produce typed errors,
//! `register_profile` changes the answers of later searches, graceful
//! shutdown drains in-flight requests, and the `stats` identity holds.

use pimento::profile::{parse_profile, PrefRelRegistry, UserProfile};
use pimento::{Engine, SearchOptions};
use pimento_serve::json::{obj, Value};
use pimento_serve::{Client, ClientError, ServeConfig, ServeError, Server};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const FIG2_RULES: &str = include_str!("../../../profiles/fig2.rules");

const CARS_QUERY: &str = r#"//car[ftcontains(., "good condition") and ./price < 2000]"#;

fn cars_engine() -> Arc<Engine> {
    // The paper's running example corpus, plus generated dealers for bulk.
    let mut docs = vec![pimento_datagen::paper_figure1().to_string()];
    docs.push(pimento_datagen::generate_dealer(7, 120));
    docs.push(pimento_datagen::generate_dealer(13, 120));
    Arc::new(Engine::from_xml_docs(&docs).expect("corpus parses"))
}

fn fig2_profile() -> UserProfile {
    parse_profile(FIG2_RULES, &PrefRelRegistry::new()).expect("fig2 profile parses")
}

/// Start a server on a free port; returns its address and the handle
/// that yields the final metrics snapshot after shutdown.
fn start(
    engine: Arc<Engine>,
    cfg: ServeConfig,
) -> (SocketAddr, thread::JoinHandle<Result<Value, ServeError>>) {
    let server = Server::bind(engine, cfg).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

/// The wire-visible fingerprint of one hit: ids exactly, scores by bit
/// pattern (JSON uses shortest-round-trip formatting, so `f64` bits
/// survive the loopback).
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

/// The same fingerprint computed engine-side, bypassing the server.
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
    // Startup gauges are always present and well-formed: the snapshot
    // format is 0 (built from XML) or 4 (columnar).
    let startup = stats.get("startup").expect("startup block");
    startup
        .get("load_ms")
        .and_then(Value::as_u64)
        .expect("startup.load_ms");
    let fmt = startup
        .get("snapshot_format")
        .and_then(Value::as_u64)
        .expect("startup.snapshot_format");
    assert!(fmt == 0 || fmt == 4, "snapshot_format {fmt}");
}

#[test]
fn concurrent_clients_bit_identical_to_serial_search() {
    let engine = cars_engine();
    let (addr, handle) = start(Arc::clone(&engine), ServeConfig::default());

    let mut c = Client::connect(addr).expect("connect");
    c.register_profile("u1", FIG2_RULES).expect("register");
    let profile = fig2_profile();
    let expected_personalized = serial_fingerprint(&engine, &profile, CARS_QUERY, 10);
    let expected_plain = serial_fingerprint(&engine, &UserProfile::new(), CARS_QUERY, 10);
    assert_ne!(
        expected_personalized, expected_plain,
        "personalization changes the ranking"
    );

    let clients: Vec<_> = (0..8)
        .map(|i| {
            let expected_personalized = expected_personalized.clone();
            let expected_plain = expected_plain.clone();
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for round in 0..10 {
                    let user = if (i + round) % 2 == 0 {
                        Some("u1")
                    } else {
                        None
                    };
                    let body = c.search(user, CARS_QUERY, 10).expect("search");
                    let expected = if user.is_some() {
                        &expected_personalized
                    } else {
                        &expected_plain
                    };
                    assert_eq!(&fingerprint(body.get("hits").expect("hits")), expected);
                }
            })
        })
        .collect();
    for t in clients {
        t.join().expect("client thread");
    }

    let stats = c.shutdown().expect("shutdown");
    assert_stats_identities(&stats);
    let final_stats = handle.join().expect("server thread").expect("server ran");
    assert_stats_identities(&final_stats);
}

#[test]
fn concurrent_clients_bit_identical_when_users_alternate() {
    // Clients alternate between (user, plain) on every round; each
    // request compiles its own plan and must produce identical bits.
    let engine = cars_engine();
    let (addr, handle) = start(Arc::clone(&engine), ServeConfig::default());

    Client::connect(addr)
        .expect("connect")
        .register_profile("u1", FIG2_RULES)
        .expect("register");
    let expected_personalized = serial_fingerprint(&engine, &fig2_profile(), CARS_QUERY, 10);
    let expected_plain = serial_fingerprint(&engine, &UserProfile::new(), CARS_QUERY, 10);

    let clients: Vec<_> = (0..4)
        .map(|i| {
            let expected_personalized = expected_personalized.clone();
            let expected_plain = expected_plain.clone();
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for round in 0..6 {
                    let user = if (i + round) % 2 == 0 {
                        Some("u1")
                    } else {
                        None
                    };
                    let body = c.search(user, CARS_QUERY, 10).expect("search");
                    let expected = if user.is_some() {
                        &expected_personalized
                    } else {
                        &expected_plain
                    };
                    assert_eq!(&fingerprint(body.get("hits").expect("hits")), expected);
                }
            })
        })
        .collect();
    for t in clients {
        t.join().expect("client thread");
    }

    let mut c = Client::connect(addr).expect("connect");
    let stats = c.shutdown().expect("shutdown");
    assert_stats_identities(&stats);
    handle.join().expect("server thread").expect("server ran");
}

#[test]
fn xmark_corpus_bit_identical() {
    let engine = Arc::new(
        Engine::from_xml_docs(&[pimento_datagen::generate_xmark(42, 64 * 1024)])
            .expect("xmark parses"),
    );
    let (addr, handle) = start(Arc::clone(&engine), ServeConfig::default());
    // The paper's XMark workload shape: business buyers, KOR boosts.
    let rules = r#"
kor1: x.tag = person & y.tag = person & ftcontains(x, "United States") -> x < y
kor2: x.tag = person & y.tag = person & ftcontains(x, "College") -> x < y
"#;
    let query = r#"//person[ftcontains(., "Yes")]"#;
    let mut c = Client::connect(addr).expect("connect");
    c.register_profile("buyer", rules).expect("register");
    let profile = parse_profile(rules, &PrefRelRegistry::new()).expect("rules parse");
    let expected = serial_fingerprint(&engine, &profile, query, 12);
    assert!(!expected.is_empty(), "xmark query matches");

    let clients: Vec<_> = (0..6)
        .map(|_| {
            let expected = expected.clone();
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for _ in 0..5 {
                    let body = c.search(Some("buyer"), query, 12).expect("search");
                    assert_eq!(fingerprint(body.get("hits").expect("hits")), expected);
                }
            })
        })
        .collect();
    for t in clients {
        t.join().expect("client thread");
    }
    c.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");
}

#[test]
fn overload_is_a_typed_error() {
    // queue_capacity 0: every request is rejected with `overloaded`.
    let engine = cars_engine();
    let cfg = ServeConfig {
        queue_capacity: 0,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(engine, cfg);
    let mut c = Client::connect(addr).expect("connect");
    let err = c.search(None, "//car", 5).expect_err("must overload");
    assert_eq!(err.kind(), Some("overloaded"), "{err}");

    // Shutdown can't get through a zero queue either; stop via drop of
    // the listener is impossible, so assert the metrics then abandon the
    // server thread (the process exits at test end).
    let err = c.shutdown().expect_err("shutdown rejected too");
    assert_eq!(err.kind(), Some("overloaded"));
    drop(handle);
}

#[test]
fn expired_deadline_is_rejected_before_evaluation() {
    let engine = cars_engine();
    // A small worker delay guarantees the deadline check observes an
    // expired budget even on a fast machine.
    let cfg = ServeConfig {
        worker_delay: Some(Duration::from_millis(20)),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(engine, cfg);
    let mut c = Client::connect(addr).expect("connect");
    let req = obj([
        ("cmd", "search".into()),
        ("query", "//car".into()),
        ("k", 5u64.into()),
        ("timeout_ms", 0u64.into()),
    ]);
    match c.request(&req).expect_err("deadline must reject") {
        ClientError::Server { kind, .. } => assert_eq!(kind, "deadline"),
        other => panic!("wrong error: {other}"),
    }
    // An un-deadlined request on the same connection still works.
    let body = c.search(None, "//car", 5).expect("search");
    assert!(!fingerprint(body.get("hits").expect("hits")).is_empty());
    let stats = c.shutdown().expect("shutdown");
    assert_eq!(
        stats.get("rejected_deadline").and_then(Value::as_u64),
        Some(1),
        "{stats:?}"
    );
    assert_stats_identities(&stats);
    handle.join().expect("server thread").expect("server ran");
}

#[test]
fn reregistration_changes_later_answers() {
    // The query the paper's scoping rules rewrite (rho2 and rho3 apply).
    const QUERY: &str = r#"//car[./description[ftcontains(., "good condition") and ftcontains(., "low mileage")] and ./price < 2000]"#;
    let engine = cars_engine();
    let (addr, handle) = start(engine, ServeConfig::default());
    let mut c = Client::connect(addr).expect("connect");
    c.register_profile("u1", FIG2_RULES).expect("register");

    let first = c.search(Some("u1"), QUERY, 5).expect("search");
    let second = c.search(Some("u1"), QUERY, 5).expect("search");
    assert_eq!(
        fingerprint(first.get("hits").expect("hits")),
        fingerprint(second.get("hits").expect("hits")),
        "same profile, same answers"
    );

    // The next search after a re-registration runs the new profile.
    c.register_profile(
        "u1",
        "pi5: x.tag = car & y.tag = car & ftcontains(x, \"NYC\") -> x < y\n",
    )
    .expect("re-register");
    let third = c.search(Some("u1"), QUERY, 5).expect("search");
    assert_ne!(
        fingerprint(first.get("hits").expect("hits")),
        fingerprint(third.get("hits").expect("hits")),
        "new profile actually changes the ranking"
    );
    let rules = |body: &Value| -> Vec<String> {
        body.get("applied_rules")
            .and_then(Value::as_arr)
            .expect("applied_rules")
            .iter()
            .filter_map(|r| r.as_str().map(str::to_string))
            .collect()
    };
    assert_eq!(rules(&first), ["rho2", "rho3"]);
    assert!(rules(&third).is_empty(), "the new profile has no scoping rule");

    let stats = c.shutdown().expect("shutdown");
    assert_stats_identities(&stats);
    handle.join().expect("server thread").expect("server ran");
}

#[test]
fn graceful_shutdown_drains_queued_requests() {
    let engine = cars_engine();
    // One slow worker: pipelined requests stack up in the queue, then a
    // second client's shutdown lands behind them. All of them must still
    // be answered (drain), and run() must return.
    let cfg = ServeConfig {
        workers: 1,
        worker_delay: Some(Duration::from_millis(40)),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(engine, cfg);

    // Pipeline 6 requests on one connection up front (raw frames, no
    // reply reads): the reader decodes and queues all of them behind the
    // slow worker before the shutdown lands.
    let pipeliner = thread::spawn(move || {
        use pimento_serve::protocol::{read_frame, write_frame, FRAME_HARD_CAP};
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        let req = obj([
            ("cmd", "search".into()),
            ("query", CARS_QUERY.into()),
            ("k", 5u64.into()),
        ]);
        for _ in 0..6 {
            write_frame(&mut raw, req.render().as_bytes()).expect("pipelined write");
        }
        let mut fingerprints = Vec::new();
        for _ in 0..6 {
            let reply = read_frame(&mut raw, FRAME_HARD_CAP)
                .expect("read")
                .expect("queued search answered");
            let v = Value::parse(std::str::from_utf8(&reply).expect("utf8")).expect("json");
            let body = v.get("ok").expect("ok reply");
            fingerprints.push(fingerprint(body.get("hits").expect("hits")));
        }
        fingerprints
    });
    // Give the pipeliner time to enqueue behind the slow worker, then
    // shut down from a second connection.
    thread::sleep(Duration::from_millis(80));
    let mut c = Client::connect(addr).expect("connect");
    let _ = c.shutdown().expect("shutdown replies");

    let fingerprints = pipeliner.join().expect("pipeliner");
    assert_eq!(fingerprints.len(), 6, "every pre-shutdown request answered");
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "answers identical"
    );
    let final_stats = handle
        .join()
        .expect("server thread")
        .expect("run() returned");
    assert_stats_identities(&final_stats);
    // After run() returns, the port no longer accepts work.
    assert!(
        Client::connect_timeout(addr, Duration::from_millis(200))
            .and_then(|mut c| c.stats())
            .is_err(),
        "server is really gone"
    );
}

#[test]
fn malformed_and_unknown_inputs_get_typed_errors() {
    let engine = cars_engine();
    let (addr, handle) = start(engine, ServeConfig::default());
    let mut c = Client::connect(addr).expect("connect");

    let err = c
        .request(&obj([("cmd", "warp".into())]))
        .expect_err("unknown cmd");
    assert_eq!(err.kind(), Some("bad_request"), "{err}");
    let err = c
        .search(Some("nobody"), "//car", 5)
        .expect_err("unknown user");
    assert_eq!(err.kind(), Some("unknown_user"), "{err}");
    let err = c.search(None, "//car[", 5).expect_err("bad query");
    assert_eq!(err.kind(), Some("query"), "{err}");
    let err = c.search(None, "//car", 0).expect_err("k = 0");
    assert_eq!(err.kind(), Some("bad_request"), "{err}");
    let err = c
        .request(&obj([
            ("cmd", "register_profile".into()),
            ("user", "u".into()),
            ("rules", "gibberish\n".into()),
        ]))
        .expect_err("bad rules");
    assert_eq!(err.kind(), Some("profile"), "{err}");

    // Raw non-JSON bytes → bad_request (framing survives).
    {
        use pimento_serve::protocol::{read_frame, write_frame, FRAME_HARD_CAP};
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        write_frame(&mut raw, b"not json at all").expect("write");
        let reply = read_frame(&mut raw, FRAME_HARD_CAP)
            .expect("read")
            .expect("reply");
        let v = Value::parse(std::str::from_utf8(&reply).expect("utf8")).expect("json");
        assert_eq!(
            v.get("err")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("bad_request")
        );
    }

    let stats = c.stats().expect("stats");
    assert_stats_identities(&stats);
    assert_eq!(
        stats.get("responses_err").and_then(Value::as_u64),
        Some(6),
        "{stats:?}"
    );
    c.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");
}

#[test]
fn conflicting_profile_degrades_to_unpersonalized_answers() {
    // The §5.1 conflict pair parses (and registers) fine — the cycle only
    // materializes on a query asking for BOTH phrases. Instead of a hard
    // `profile` error, the server falls back to the base query and stamps
    // `degraded: true` with the reason.
    let conflict_rules = include_str!("../../../tests/fixtures/sr_conflict_cycle.rules");
    // The §5.1 shape: both phrases asked of the description child, so
    // each rule's trigger matches and each deletes the other's condition.
    let both_query =
        r#"//car[./description[ftcontains(., "good condition") and ftcontains(., "low mileage")]]"#;
    let engine = cars_engine();
    let (addr, handle) = start(Arc::clone(&engine), ServeConfig::default());
    let mut c = Client::connect(addr).expect("connect");
    c.register_profile("picky", conflict_rules)
        .expect("conflict pair registers fine");

    // A one-phrase query applies cleanly — personalized, not degraded.
    let one = c
        .search(Some("picky"), CARS_QUERY, 10)
        .expect("one-phrase search");
    assert_eq!(one.get("degraded"), None, "{one:?}");

    // The both-phrases query degrades to the unpersonalized base answers.
    let body = c
        .search(Some("picky"), both_query, 10)
        .expect("degraded search succeeds");
    assert_eq!(
        body.get("degraded").and_then(Value::as_bool),
        Some(true),
        "{body:?}"
    );
    let reason = body
        .get("degraded_reason")
        .and_then(Value::as_str)
        .expect("reason");
    assert!(
        reason.contains("conflict") || reason.contains("not applicable"),
        "{reason}"
    );
    let expected_plain = serial_fingerprint(&engine, &UserProfile::new(), both_query, 10);
    assert_eq!(fingerprint(body.get("hits").expect("hits")), expected_plain);

    // Anonymous callers get the same bits without the degraded stamp.
    let anon = c.search(None, both_query, 10).expect("anonymous search");
    assert_eq!(anon.get("degraded"), None);
    assert_eq!(fingerprint(anon.get("hits").expect("hits")), expected_plain);

    let stats = c.shutdown().expect("shutdown");
    assert_stats_identities(&stats);
    assert_eq!(
        stats.get("degraded").and_then(Value::as_u64),
        Some(1),
        "{stats:?}"
    );
    handle.join().expect("server thread").expect("server ran");
}

#[test]
fn profiles_persist_across_restart_via_profile_dir() {
    let dir = std::env::temp_dir().join(format!("pimento-serve-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = cars_engine();
    let expected = serial_fingerprint(&engine, &fig2_profile(), CARS_QUERY, 10);

    // First server life: register, search, shut down.
    let cfg = ServeConfig {
        profile_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(Arc::clone(&engine), cfg.clone());
    let mut c = Client::connect(addr).expect("connect");
    let reg = c.register_profile("u1", FIG2_RULES).expect("register");
    assert_eq!(
        reg.get("persisted").and_then(Value::as_bool),
        Some(true),
        "{reg:?}"
    );
    c.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");

    // Second life, same directory: the profile is already there.
    let (addr, handle) = start(Arc::clone(&engine), cfg);
    let mut c = Client::connect(addr).expect("connect");
    let body = c
        .search(Some("u1"), CARS_QUERY, 10)
        .expect("recovered-profile search");
    assert_eq!(body.get("degraded"), None, "{body:?}");
    assert_eq!(fingerprint(body.get("hits").expect("hits")), expected);
    let stats = c.shutdown().expect("shutdown");
    assert_stats_identities(&stats);
    let store = stats.get("store").expect("store block");
    assert_eq!(
        store.get("profiles_recovered").and_then(Value::as_u64),
        Some(1),
        "{stats:?}"
    );
    assert_eq!(
        store.get("profiles_quarantined").and_then(Value::as_u64),
        Some(0),
        "{stats:?}"
    );
    handle.join().expect("server thread").expect("server ran");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_reports_the_plan_without_executing() {
    let engine = cars_engine();
    let (addr, handle) = start(engine, ServeConfig::default());
    let mut c = Client::connect(addr).expect("connect");
    let body = c
        .request(&obj([
            ("cmd", "explain".into()),
            ("query", CARS_QUERY.into()),
            ("k", 5u64.into()),
        ]))
        .expect("explain");
    let plan = body
        .get("plan")
        .and_then(Value::as_str)
        .expect("plan string");
    assert!(plan.contains("QueryEval"), "{plan}");
    // Explain compiles but does not execute: the reply carries no hits.
    assert!(body.get("hits").is_none(), "{body:?}");
    c.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");
}

/// What EXPLAIN shows is what runs: for every (segments, threads) the
/// `explain` reply is exactly the `explain` of a search of the same
/// engine at the same thread count — same task cut, same clamped lane
/// count, same per-task plan.
#[test]
fn explain_reply_equals_the_explain_of_a_search() {
    let profile = fig2_profile();
    for segments in [1usize, 4] {
        let mut docs = vec![pimento_datagen::paper_figure1().to_string()];
        docs.extend((0..3).map(|i| pimento_datagen::generate_dealer(20 + i, 40)));
        let engine = Arc::new(
            Engine::from_xml_docs(&docs)
                .expect("corpus parses")
                .reshard(segments)
                .expect("reshard"),
        );
        assert_eq!(engine.shard_count(), segments);
        let (addr, handle) = start(Arc::clone(&engine), ServeConfig::default());
        let mut c = Client::connect(addr).expect("connect");
        c.register_profile("u", FIG2_RULES).expect("register");
        for threads in [1usize, 2] {
            let body = c
                .request(&obj([
                    ("cmd", "explain".into()),
                    ("user", "u".into()),
                    ("query", CARS_QUERY.into()),
                    ("k", 5u64.into()),
                    ("threads", (threads as u64).into()),
                ]))
                .expect("explain");
            let plan = body.get("plan").and_then(Value::as_str).expect("plan");
            let searched = engine
                .search(
                    CARS_QUERY,
                    &profile,
                    &SearchOptions::top(5).with_threads(threads),
                )
                .expect("search");
            assert_eq!(
                plan, searched.explain,
                "{segments} segments, threads={threads}"
            );
            assert_eq!(
                plan.starts_with("lanes("),
                searched.lanes.len() > 1,
                "{plan}"
            );
        }
        // The stats shard block describes the engine the server ran.
        c.search(Some("u"), CARS_QUERY, 5).expect("search");
        let stats = c.shutdown().expect("shutdown");
        assert_stats_identities(&stats);
        let shards = stats.get("shards").expect("shards block");
        assert_eq!(
            shards.get("count").and_then(Value::as_u64),
            Some(segments as u64),
            "{stats:?}"
        );
        assert_eq!(
            shards
                .get("scan_us")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(segments),
            "{stats:?}"
        );
        handle.join().expect("server thread").expect("server ran");
    }
}

#[test]
fn snapshot_backed_server_is_bit_identical_and_reports_format() {
    let engine = cars_engine();
    let expected = serial_fingerprint(&engine, &UserProfile::new(), CARS_QUERY, 10);

    // Reopen the same corpus through a columnar (v4) snapshot and serve
    // from the decoded indexes.
    let snapshot = engine.save_snapshot();
    let reopened = Arc::new(Engine::from_snapshot(&snapshot).expect("v4 snapshot opens"));
    let cfg = ServeConfig {
        startup_load_ms: 1,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(reopened, cfg);
    let mut c = Client::connect(addr).expect("connect");
    let body = c.search(None, CARS_QUERY, 10).expect("search");
    assert_eq!(fingerprint(body.get("hits").expect("hits")), expected);
    let stats = c.shutdown().expect("shutdown");
    assert_stats_identities(&stats);
    let startup = stats.get("startup").expect("startup block");
    assert_eq!(
        startup.get("snapshot_format").and_then(Value::as_u64),
        Some(4),
        "{stats:?}"
    );
    handle.join().expect("server thread").expect("server ran");
}

const ZEPHYR_DOC: &str = "<dealer><car><model>Zephyr</model><price>1500</price>\
     <description>rare zephyr roadster in good condition</description></car></dealer>";
const ZEPHYR_QUERY: &str = r#"//car[ftcontains(., "zephyr")]"#;

#[test]
fn ingest_verbs_update_the_live_corpus() {
    let engine = cars_engine();
    let base_docs = engine.num_docs() as u64;
    let (addr, handle) = start(engine, ServeConfig::default());
    let mut c = Client::connect(addr).expect("connect");

    // Nothing matches before the write.
    let before = c.search(None, ZEPHYR_QUERY, 5).expect("search");
    assert_eq!(before.get("hits").and_then(Value::as_arr).map(<[Value]>::len), Some(0));

    // The add is visible to the very next search.
    let added = c
        .add_documents(&[ZEPHYR_DOC.to_string()])
        .expect("add_documents");
    assert_eq!(added.get("added").and_then(Value::as_u64), Some(1));
    assert_eq!(added.get("generation").and_then(Value::as_u64), Some(1));
    assert_eq!(
        added.get("num_docs").and_then(Value::as_u64),
        Some(base_docs + 1),
        "{added:?}"
    );
    let after = c.search(None, ZEPHYR_QUERY, 5).expect("search");
    let hits = after.get("hits").and_then(Value::as_arr).expect("hits");
    assert_eq!(hits.len(), 1, "{after:?}");
    let doc_id = hits[0].get("doc").and_then(Value::as_u64).expect("doc") as u32;
    assert_eq!(u64::from(doc_id), base_docs, "appended at the end");

    // Deleting hides the document immediately (tombstone, no compaction).
    let deleted = c.delete_documents(&[doc_id]).expect("delete_documents");
    assert_eq!(deleted.get("deleted").and_then(Value::as_u64), Some(1));
    assert_eq!(deleted.get("generation").and_then(Value::as_u64), Some(2));
    assert_eq!(
        deleted.get("live_docs").and_then(Value::as_u64),
        Some(base_docs),
        "{deleted:?}"
    );
    let gone = c.search(None, ZEPHYR_QUERY, 5).expect("search");
    assert_eq!(
        gone.get("hits").and_then(Value::as_arr).map(<[Value]>::len),
        Some(0),
        "{gone:?}"
    );

    let stats = c.shutdown().expect("shutdown");
    assert_stats_identities(&stats);
    let ingest = stats.get("ingest").expect("ingest block");
    let i = |k: &str| ingest.get(k).and_then(Value::as_u64).expect(k);
    assert_eq!(i("requests"), 2);
    assert_eq!(i("errors"), 0);
    assert_eq!(i("docs_added"), 1);
    assert_eq!(i("docs_deleted"), 1);
    assert_eq!(i("generation"), 2);
    assert_eq!(i("live_docs"), base_docs);
    handle.join().expect("server thread").expect("server ran");
}

#[test]
fn ingest_rejects_bad_batches_without_changing_the_corpus() {
    let engine = cars_engine();
    let num_docs = engine.num_docs() as u64;
    let (addr, handle) = start(engine, ServeConfig::default());
    let mut c = Client::connect(addr).expect("connect");

    let malformed = c.add_documents(&["<dealer><car></dealer>".to_string()]);
    assert!(
        matches!(&malformed, Err(ClientError::Server { kind, .. }) if kind == "ingest"),
        "{malformed:?}"
    );
    let out_of_range = c.delete_documents(&[u32::MAX]);
    assert!(
        matches!(&out_of_range, Err(ClientError::Server { kind, .. }) if kind == "ingest"),
        "{out_of_range:?}"
    );

    let stats = c.shutdown().expect("shutdown");
    assert_stats_identities(&stats);
    let ingest = stats.get("ingest").expect("ingest block");
    let i = |k: &str| ingest.get(k).and_then(Value::as_u64).expect(k);
    assert_eq!(i("errors"), 2, "{stats:?}");
    assert_eq!(i("generation"), 0, "failed writes publish nothing");
    assert_eq!(i("docs"), num_docs);
    handle.join().expect("server thread").expect("server ran");
}

#[test]
fn ingested_corpus_recovers_across_restart_via_data_dir() {
    let dir = std::env::temp_dir().join(format!("pimento-serve-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        data_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // First life: ingest a document online, record the served answer.
    let (addr, handle) = start(cars_engine(), cfg.clone());
    let mut c = Client::connect(addr).expect("connect");
    c.add_documents(&[ZEPHYR_DOC.to_string()])
        .expect("add_documents");
    let first = c.search(None, ZEPHYR_QUERY, 5).expect("search");
    let expected = fingerprint(first.get("hits").expect("hits"));
    assert_eq!(expected.len(), 1);
    c.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");

    // Second life: recover the live corpus from the data dir (as the CLI
    // does when the directory already holds a MANIFEST) — the online
    // ingest survives the restart bit-identically.
    let recovered = Arc::new(Engine::from_sharded_dir(&dir).expect("recover corpus"));
    assert_eq!(recovered.generation(), 1, "last published generation");
    let (addr, handle) = start(recovered, cfg);
    let mut c = Client::connect(addr).expect("connect");
    let second = c.search(None, ZEPHYR_QUERY, 5).expect("search");
    assert_eq!(fingerprint(second.get("hits").expect("hits")), expected);
    let stats = c.shutdown().expect("shutdown");
    let ingest = stats.get("ingest").expect("ingest block");
    assert_eq!(
        ingest.get("generation").and_then(Value::as_u64),
        Some(1),
        "{stats:?}"
    );
    handle.join().expect("server thread").expect("server ran");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn health_verb_reports_scrubber_status() {
    let engine = cars_engine();
    let (addr, handle) = start(engine, ServeConfig::default());
    let mut c = Client::connect(addr).expect("connect");

    let body = c
        .request(&obj([("cmd", "health".into())]))
        .expect("health verb answers");
    assert_eq!(
        body.get("status").and_then(Value::as_str),
        Some("ok"),
        "{body:?}"
    );
    let corpus = body.get("corpus").expect("corpus component");
    assert_eq!(corpus.get("status").and_then(Value::as_str), Some("ok"));
    corpus
        .get("detail")
        .and_then(Value::as_str)
        .expect("corpus detail");
    let profiles = body.get("profiles").expect("profiles component");
    assert_eq!(profiles.get("status").and_then(Value::as_str), Some("ok"));
    body.get("passes").and_then(Value::as_u64).expect("passes");

    // `health` is a counted request like any other: the stats identities
    // still balance, and the scrub/health blocks are present.
    let stats = c.stats().expect("stats");
    assert_stats_identities(&stats);
    let scrub = stats.get("scrub").expect("scrub block");
    scrub.get("passes").and_then(Value::as_u64).expect("passes");
    let health = stats.get("health").expect("health block");
    assert_eq!(health.get("corpus").and_then(Value::as_u64), Some(0));
    assert_eq!(health.get("profiles").and_then(Value::as_u64), Some(0));
    c.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");
}
