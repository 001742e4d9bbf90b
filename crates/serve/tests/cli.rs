//! Process-level tests of the `pimento` CLI binary.

use pimento::{Engine, SearchOptions};
use pimento_serve::{Client, ServeConfig, Server, Value};
use std::io::Write;
use std::process::Command;
use std::sync::Arc;

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pimento-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

const CARS: &str = r#"<dealer>
<car><description>good condition, best bid, NYC</description><price>500</price></car>
<car><description>good condition, garaged</description><price>900</price><color>red</color></car>
<car><description>rusty</description><price>100</price></car>
</dealer>"#;

const RULES: &str = r#"
pi1: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" -> x < y
pi5: x.tag = car & y.tag = car & ftcontains(x, "NYC") -> x < y {weight 2}
"#;

fn pimento() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pimento"))
}

#[test]
fn cli_searches_with_profile() {
    let docs = write_temp("cars.xml", CARS);
    let rules = write_temp("profile.rules", RULES);
    let out = pimento()
        .args(["--docs"])
        .arg(&docs)
        .args(["--query", r#"//car[ftcontains(., "good condition")]"#])
        .args(["--profile"])
        .arg(&rules)
        .args(["--k", "5", "--explain", "--analyze"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("#1"), "{stdout}");
    assert!(stdout.contains("NYC"), "NYC car first: {stdout}");
    assert!(stdout.contains("plan:"), "{stdout}");
    assert!(stdout.contains("QueryEval"), "{stdout}");
    assert!(stdout.contains("collection: 1 document(s)"), "{stdout}");
}

/// Three cars, two with a `price`: the fixture on which a query with a
/// duplicated branch once got different answers from the two front ends.
const DUP_CARS: &str = r#"<dealer>
<car><description>good condition</description><price>500</price></car>
<car><description>garaged</description><price>900</price></car>
<car><description>rusty</description></car>
</dealer>"#;

const DUP_RULES: &str = "rho1: if pc(car, price) then remove pc(car, price)\n";

const DUP_QUERY: &str = "//car[./price and ./price]";

/// The CLI and a `search` frame run one query path: the same corpus,
/// rules and query give the same hits, whichever front end answers.
#[test]
fn cli_and_server_return_the_same_hits() {
    let docs = write_temp("dup-cars.xml", DUP_CARS);
    let rules = write_temp("dup.rules", DUP_RULES);
    let out = pimento()
        .args(["--docs"])
        .arg(&docs)
        .args(["--query", DUP_QUERY, "--profile"])
        .arg(&rules)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let cli: Vec<&str> = stdout.lines().filter(|l| l.starts_with('#')).collect();

    let engine = Arc::new(Engine::from_xml_docs(&[DUP_CARS]).expect("corpus parses"));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let server = Server::bind(engine, cfg).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    client.register_profile("u", DUP_RULES).expect("register");
    let reply = client
        .search(Some("u"), DUP_QUERY, SearchOptions::DEFAULT_K)
        .expect("search");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");

    // Each hit as the CLI prints it: (rank, K, S, doc, text).
    let served: Vec<String> = reply
        .get("hits")
        .and_then(Value::as_arr)
        .expect("hits")
        .iter()
        .map(|h| {
            format!(
                "#{:<3} K={:<6.2} S={:<6.3} doc{} {}",
                h.get("rank").and_then(Value::as_u64).expect("rank"),
                h.get("k").and_then(Value::as_f64).expect("k"),
                h.get("s").and_then(Value::as_f64).expect("s"),
                h.get("doc").and_then(Value::as_u64).expect("doc"),
                h.get("text").and_then(Value::as_str).expect("text"),
            )
        })
        .collect();
    assert_eq!(cli, served, "CLI stdout:\n{stdout}");
    assert_eq!(
        cli.len(),
        3,
        "the rule deletes both `price` branches: {stdout}"
    );
}

#[test]
fn cli_rejects_bad_inputs() {
    // Missing required args → usage exit code 2.
    let out = pimento().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    // Unreadable file → failure.
    let out = pimento()
        .args(["--docs", "/nonexistent/file.xml", "--query", "//a"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    // Broken query → failure with message.
    let docs = write_temp("cars3.xml", CARS);
    let out = pimento()
        .args(["--docs"])
        .arg(&docs)
        .args(["--query", "//car["])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("query error"));
    // Broken rules file → failure naming the line.
    let bad_rules = write_temp("bad.rules", "nonsense rule here\n");
    let out = pimento()
        .args(["--docs"])
        .arg(&docs)
        .args(["--query", "//car", "--profile"])
        .arg(&bad_rules)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"));
    // Unknown strategy → the shared parse error, then usage exit code 2.
    let out = pimento()
        .args(["--docs"])
        .arg(&docs)
        .args(["--query", "//car", "--strategy", "quantum"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("unknown strategy `quantum` (naive|il|sil|push)"));
    // `serve` has no plan cache to size: the flag is unknown → usage exit
    // code 2, before any corpus is loaded or address bound (the address
    // here could not be bound anyway).
    let out = pimento()
        .args(["serve", "--docs"])
        .arg(&docs)
        .args(["--addr", "not-an-address", "--cache-capacity", "1"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument \"--cache-capacity\""));
    // Search has one path: there is no `--winnow` side path to select.
    let out = pimento()
        .args(["--docs"])
        .arg(&docs)
        .args(["--query", "//car", "--winnow", "--k", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument \"--winnow\""));
}

/// A snapshot in any pre-columnar format is refused with the typed
/// version error and a nonzero exit — by `snapshot inspect` and by
/// `serve --snapshot` alike, before anything of the file is decoded.
#[test]
fn cli_refuses_pre_columnar_snapshots() {
    for version in 1..=3u8 {
        let name = format!("old-v{version}.snap");
        let path = write_temp(&name, &format!("PIMCOL{version}\0\u{3}\0\0\0not a v4 body"));
        let expect = format!("snapshot format version {version} is not supported (expected 4)");
        let inspect = pimento()
            .args(["snapshot", "inspect"])
            .arg(&path)
            .output()
            .expect("binary runs");
        assert_eq!(inspect.status.code(), Some(1), "v{version}");
        let stderr = String::from_utf8_lossy(&inspect.stderr);
        assert!(stderr.contains(&expect), "{stderr}");
        let serve = pimento()
            .args(["serve", "--addr", "127.0.0.1:0", "--snapshot"])
            .arg(&path)
            .output()
            .expect("binary runs");
        assert_eq!(serve.status.code(), Some(1), "v{version}");
        let stderr = String::from_utf8_lossy(&serve.stderr);
        assert!(stderr.contains(&expect), "{stderr}");
    }
}

/// `snapshot inspect DIR` applies the loader's rules: a segment file
/// copied over another (every checksum intact, the document count
/// wrong) fails inspection, as `serve --snapshot DIR` fails to open it.
#[test]
fn cli_inspect_refuses_a_segment_with_the_wrong_document_count() {
    let docs: Vec<_> = (0..3)
        .map(|i| write_temp(&format!("swap{i}.xml"), CARS))
        .collect();
    let dir = std::env::temp_dir().join(format!("pimento-cli-swap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let build = pimento()
        .args(["snapshot", "build", "--docs"])
        .args(&docs)
        .arg("--out")
        .arg(&dir)
        .args(["--shards", "2"])
        .output()
        .expect("binary runs");
    assert!(
        build.status.success(),
        "{}",
        String::from_utf8_lossy(&build.stderr)
    );
    let inspect = || {
        pimento()
            .args(["snapshot", "inspect"])
            .arg(&dir)
            .output()
            .expect("binary runs")
    };
    assert_eq!(inspect().status.code(), Some(0));

    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).expect("manifest");
    let files: Vec<&str> = manifest
        .lines()
        .filter_map(|l| l.split(' ').next().filter(|f| f.ends_with(".snap")))
        .collect();
    assert_eq!(files.len(), 2, "{manifest}");
    std::fs::copy(dir.join(files[1]), dir.join(files[0])).expect("copy segment");
    let out = inspect();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("document count"), "{stdout}");
    let serve = pimento()
        .args(["serve", "--addr", "127.0.0.1:0", "--snapshot"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(serve.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A profile directory with `good` and `victim` registered, written by
/// the registry a server persists through.
fn profile_dir(name: &str) -> std::path::PathBuf {
    use pimento::profile::{parse_profile, PrefRelRegistry};
    let dir = std::env::temp_dir().join(format!("pimento-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = pimento_serve::ProfileRegistry::open(&dir).expect("open profile dir");
    for user in ["good", "victim"] {
        let profile = parse_profile(RULES, &PrefRelRegistry::new()).expect("rules parse");
        let persisted = registry.register(user, profile, RULES);
        persisted.expect("durable").expect("persist");
    }
    dir
}

/// `pimento scrub --profile-dir`: exit code and the JSON health report.
fn scrub_profiles(dir: &std::path::Path) -> (Option<i32>, pimento_serve::Value) {
    let out = pimento()
        .args(["scrub", "--profile-dir"])
        .arg(dir)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = pimento_serve::Value::parse(stdout.trim()).expect("JSON health report");
    (out.status.code(), report)
}

fn profiles_status(report: &pimento_serve::Value) -> Option<&str> {
    report.get("profiles")?.get("status")?.as_str()
}

#[test]
fn scrub_passes_a_clean_profile_dir() {
    let dir = profile_dir("scrub-clean");
    let (code, report) = scrub_profiles(&dir);
    assert_eq!(code, Some(0), "{report:?}");
    assert_eq!(profiles_status(&report), Some("ok"), "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_quarantines_a_flipped_profile_and_leaves_the_intact_one() {
    use pimento_serve::ProfileRegistry;
    let dir = profile_dir("scrub-flip");
    let victim = dir.join(ProfileRegistry::file_name("victim"));
    let good = dir.join(ProfileRegistry::file_name("good"));
    let good_bytes = std::fs::read(&good).expect("read good");
    let mut bytes = std::fs::read(&victim).expect("read victim");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, &bytes).expect("flip a byte");

    let (code, report) = scrub_profiles(&dir);
    assert_eq!(code, Some(1), "{report:?}");
    assert_eq!(profiles_status(&report), Some("degraded"), "{report:?}");
    assert!(!victim.exists(), "the damaged file left the scan set");
    let quarantined: Vec<_> = std::fs::read_dir(&dir)
        .expect("list")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".quarantined"))
        .collect();
    let victim_name = ProfileRegistry::file_name("victim");
    assert_eq!(quarantined.len(), 1, "{quarantined:?}");
    assert!(quarantined[0].starts_with(&victim_name), "{quarantined:?}");
    assert_eq!(
        std::fs::read(&good).expect("read good"),
        good_bytes,
        "intact file untouched"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
