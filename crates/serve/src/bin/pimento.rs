//! `pimento` — command-line personalized XML search.
//!
//! ```text
//! pimento --docs cars.xml dealer2.xml \
//!         --query '//car[ftcontains(., "good condition") and ./price < 2000]' \
//!         --profile profile.rules --k 10 --strategy push --explain
//! ```
//!
//! The profile file uses the paper's rule language (one rule per line,
//! `#` comments — see `pimento_profile::parse`):
//!
//! ```text
//! rho3: if ftcontains(description, "good condition") then remove ftcontains(description, "low mileage")
//! pi1:  x.tag = car & y.tag = car & x.color = "red" & y.color != "red" -> x < y
//! pi5:  x.tag = car & y.tag = car & ftcontains(x, "NYC") -> x < y
//! ```

use pimento::profile::{parse_profile, PrefRelRegistry, UserProfile};
use pimento::{Engine, SearchOptions};
use pimento_serve::{ServeConfig, Server};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// The value after a flag, parsed; a missing or unparsable value prints
/// `usage` and exits 2.
fn value<T: FromStr>(it: &mut impl Iterator<Item = String>, usage: fn() -> !) -> T {
    it.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage())
}

/// `--docs FILE...`: append every argument up to the next `--flag`.
fn take_docs(it: &mut std::iter::Peekable<impl Iterator<Item = String>>, docs: &mut Vec<String>) {
    while let Some(f) = it.next_if(|f| !f.starts_with("--")) {
        docs.push(f);
    }
}

/// The corpus loader: read every `--docs` file, then parse and index
/// them on `threads` threads (`0` = all cores). Prints why and returns
/// `None` on the first unreadable file or a parse failure.
fn index_docs(paths: &[String], threads: usize) -> Option<Engine> {
    let mut xmls = Vec::with_capacity(paths.len());
    for path in paths {
        match std::fs::read_to_string(path) {
            Ok(s) => xmls.push(s),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return None;
            }
        }
    }
    Engine::from_xml_docs_parallel(&xmls, threads)
        .map_err(|e| eprintln!("cannot parse documents: {e}"))
        .ok()
}

/// `--shards N`: lay `engine` out as `shards` doc-range segments (no-op
/// below 2). Prints why and returns `None` on failure.
fn with_shards(engine: Engine, shards: usize) -> Option<Engine> {
    if shards <= 1 {
        return Some(engine);
    }
    engine
        .reshard(shards)
        .map_err(|e| eprintln!("cannot shard corpus: {e}"))
        .ok()
}

/// `pimento serve`: load documents once and answer queries over TCP
/// (length-delimited JSON frames — see `pimento_serve::protocol`).
fn serve_usage() -> ! {
    eprintln!(
        "usage: pimento serve (--docs FILE... | --snapshot PATH) [--addr HOST:PORT] [--threads N]\n\
         \x20        [--shards N] [--queue-capacity N] [--query-threads N]\n\
         \x20        [--timeout-ms N] [--conn-timeout-ms N] [--profile-dir DIR]\n\
         \x20        [--data-dir DIR] [--merge-threshold N] [--scrub-interval-ms N]\n\
         --snapshot PATH  open a binary index snapshot instead of parsing XML\n\
         \x20                (columnar v4, validated and decoded at startup; older formats are refused;\n\
         \x20                a directory opens as a sharded snapshot — see `snapshot build --shards`)\n\
         --shards N       lay the corpus out as N doc-range segments, each one lane\n\
         \x20                task per query (ignored if a sharded snapshot directory\n\
         \x20                already fixes the segmentation)\n\
         --addr           listen address (default 127.0.0.1:7654; port 0 = pick a free port)\n\
         --threads N      worker pool size (0 = all cores; same clamp as search --threads)\n\
         --queue-capacity bounded request queue; full = typed `overloaded` error (default 64)\n\
         --query-threads  execution threads per query (default 1: the pool is the parallelism)\n\
         --timeout-ms     default per-request deadline (default: none)\n\
         --conn-timeout-ms  socket write timeout: a client that stops reading\n\
         \x20                cannot wedge a worker or the acceptor (default 5000)\n\
         --profile-dir    durable profile store: registrations persist here and\n\
         \x20                are recovered on restart; corrupt files are quarantined\n\
         --data-dir       durable corpus store: every generation published by\n\
         \x20                add_documents / delete_documents persists here before it\n\
         \x20                is served; on restart the directory's last published\n\
         \x20                generation is recovered (--docs/--snapshot then only\n\
         \x20                seed an empty directory)\n\
         --merge-threshold  compact after this many delta segments accumulate\n\
         \x20                (default 8; 0 disables the background merger)\n\
         --scrub-interval-ms  online integrity scrubber period: every interval the\n\
         \x20                manifest, segment section CRCs, tombstone sidecars and\n\
         \x20                stored profiles are re-verified; damage is quarantined\n\
         \x20                and repaired from the live state, surfaced via the\n\
         \x20                `health` verb and `scrub.*` stats (0 = off, the default)\n\
         The server prints `listening on ADDR` once ready and runs until a\n\
         `shutdown` command arrives, then drains in-flight requests and\n\
         prints the final metrics snapshot."
    );
    std::process::exit(2)
}

fn run_serve(rest: Vec<String>) -> ExitCode {
    let mut docs: Vec<String> = Vec::new();
    let mut snapshot_path: Option<String> = None;
    let mut shards = 0usize;
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7654".to_string(),
        ..ServeConfig::default()
    };
    let mut it = rest.into_iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--docs" => take_docs(&mut it, &mut docs),
            "--snapshot" => snapshot_path = Some(value(&mut it, serve_usage)),
            "--shards" => shards = value(&mut it, serve_usage),
            "--addr" => cfg.addr = value(&mut it, serve_usage),
            "--threads" => cfg.workers = value(&mut it, serve_usage),
            "--queue-capacity" => cfg.queue_capacity = value(&mut it, serve_usage),
            "--query-threads" => cfg.query_threads = value(&mut it, serve_usage),
            "--timeout-ms" => {
                let ms: u64 = value(&mut it, serve_usage);
                cfg.default_timeout = Some(Duration::from_millis(ms));
            }
            "--conn-timeout-ms" => {
                let ms: u64 = value(&mut it, serve_usage);
                cfg.conn_timeout = Duration::from_millis(ms.max(1));
            }
            "--profile-dir" => {
                cfg.profile_dir = Some(value(&mut it, serve_usage));
            }
            "--data-dir" => {
                cfg.data_dir = Some(value(&mut it, serve_usage));
            }
            "--merge-threshold" => cfg.merge_threshold = value(&mut it, serve_usage),
            "--scrub-interval-ms" => {
                let ms: u64 = value(&mut it, serve_usage);
                cfg.scrub_interval = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--help" | "-h" => serve_usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                serve_usage()
            }
        }
    }
    // A data dir that already holds a published generation takes precedence
    // over --docs/--snapshot: the live corpus (including online ingests) is
    // what the operator expects back after a restart. The flags then only
    // matter for seeding a brand-new directory.
    let recover_from = cfg
        .data_dir
        .as_ref()
        .filter(|d| d.join("MANIFEST").is_file())
        .cloned();
    if recover_from.is_none() && docs.is_empty() == snapshot_path.is_none() {
        // Exactly one source: either XML documents or a snapshot.
        serve_usage()
    }
    let started = std::time::Instant::now();
    let engine = if let Some(dir) = &recover_from {
        shards = 0;
        if !docs.is_empty() || snapshot_path.is_some() {
            eprintln!(
                "data dir {} holds a published corpus; ignoring --docs/--snapshot",
                dir.display()
            );
        }
        match Engine::from_sharded_dir(dir) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("cannot recover corpus from {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(path) = &snapshot_path {
        if std::path::Path::new(path).is_dir() {
            // A directory is a sharded snapshot (MANIFEST + one v4 file
            // per segment); it fixes the segmentation, so --shards is
            // ignored here.
            shards = 0;
            match Engine::from_sharded_dir(std::path::Path::new(path)) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("cannot open sharded snapshot {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            let data = match std::fs::read(path) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match Engine::from_snapshot_bytes(bytes::Bytes::from(data)) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("cannot open snapshot {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    } else if let Some(e) = index_docs(&docs, 0) {
        e
    } else {
        return ExitCode::FAILURE;
    };
    let Some(engine) = with_shards(engine, shards) else {
        return ExitCode::FAILURE;
    };
    cfg.startup_load_ms = started.elapsed().as_millis() as u64;
    let shard_note = if engine.shard_count() > 1 {
        format!(", {} shards", engine.shard_count())
    } else {
        String::new()
    };
    match engine.snapshot_format() {
        Some(v) => eprintln!(
            "opened snapshot format v{v} in {} ms ({} docs{shard_note})",
            cfg.startup_load_ms,
            engine.num_docs()
        ),
        None => eprintln!(
            "indexed {} document(s) in {} ms{shard_note}",
            engine.num_docs(),
            cfg.startup_load_ms
        ),
    }
    let server = match Server::bind(Arc::new(engine), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Scripts (the verify.sh smoke test among them) parse this line for
    // the resolved port, so it goes out before the first accept.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(snapshot) => {
            println!("{}", snapshot.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `pimento scrub`: one-shot offline integrity pass over the durable
/// stores — the same verify → quarantine → repair cycle the online
/// scrubber (`serve --scrub-interval-ms`) runs periodically.
fn scrub_usage() -> ! {
    eprintln!(
        "usage: pimento scrub [--data-dir DIR] [--profile-dir DIR]\n\
         Run one synchronous scrubber pass: re-verify the manifest, every\n\
         segment section CRC, tombstone sidecars and stored profiles;\n\
         quarantine damaged artifacts (bounded `*.quarantined` retention)\n\
         and repair the corpus from its recovered generation (a damaged\n\
         profile has no offline repair source: it is quarantined only);\n\
         print the health report as JSON. Exit 0 when everything verified\n\
         (`ok`), 1 when damage was found (`degraded`: quarantined, and\n\
         repaired where a source exists; `corrupt`: a repair failed or the\n\
         corpus could not be recovered)."
    );
    std::process::exit(2)
}

fn run_scrub(rest: Vec<String>) -> ExitCode {
    use pimento_serve::{HealthLevel, Metrics, ProfileRegistry, Scrubber};
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut profile_dir: Option<std::path::PathBuf> = None;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--data-dir" => data_dir = Some(value(&mut it, scrub_usage)),
            "--profile-dir" => profile_dir = Some(value(&mut it, scrub_usage)),
            "--help" | "-h" => scrub_usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                scrub_usage()
            }
        }
    }
    if data_dir.is_none() && profile_dir.is_none() {
        scrub_usage()
    }
    // Corpus side: recover the last published generation — it is both
    // what a server would serve and the scrubber's repair source. When
    // the directory is damaged beyond recovery there is nothing to
    // repair from offline: quarantine the wreckage so the next boot
    // starts clean, and report corrupt via the exit code.
    let engine = match &data_dir {
        Some(dir) => match Engine::from_sharded_dir(dir) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("cannot recover corpus from {}: {e}", dir.display());
                if let Ok(store) = pimento_ingest::SegmentStore::open(dir.clone()) {
                    let moved = store.quarantine_corrupt();
                    eprintln!("quarantined {moved} artifact(s); restore from a replica or re-seed");
                }
                return ExitCode::FAILURE;
            }
        },
        None => Engine::new(pimento::index::Collection::new()),
    };
    let live = Arc::new(pimento_ingest::LiveEngine::new(engine));
    let ingest = match pimento_ingest::Ingestor::new(
        Arc::clone(&live),
        pimento_ingest::IngestConfig {
            data_dir: data_dir.clone(),
            merge_threshold: 0,
            compact_shards: live.load().shard_count(),
            vfs: None,
        },
    ) {
        Ok(i) => Arc::new(i),
        Err(e) => {
            eprintln!("cannot attach segment store: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Profile side: nothing is preloaded — offline there is no session
    // to repair from, so the pass verifies and quarantines only.
    let profiles = match &profile_dir {
        Some(dir) => match ProfileRegistry::open(dir.clone()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot open profile dir: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => ProfileRegistry::new(),
    };
    let scrubber = Scrubber::new(ingest, Arc::new(profiles), Arc::new(Metrics::new()));
    scrubber.run_pass();
    println!("{}", scrubber.health_body().render());
    if scrubber.health().overall() == HealthLevel::Ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `pimento snapshot`: build and inspect binary index snapshots.
fn snapshot_usage() -> ! {
    eprintln!(
        "usage: pimento snapshot build --docs FILE... --out PATH [--shards N]\n\
         \x20      pimento snapshot inspect PATH\n\
         build    parse + index the documents, write a columnar (v4) snapshot;\n\
         \x20        --shards N writes a sharded snapshot DIRECTORY at PATH: one\n\
         \x20        v4 file per doc-range segment plus a MANIFEST\n\
         inspect  print the header, section directory, and per-section CRC\n\
         \x20        verdicts of a v4 snapshot — or, for a sharded snapshot\n\
         \x20        directory, one verdict per artifact by the loader's rules;\n\
         \x20        exit 1 if any check fails or the file is in an older format"
    );
    std::process::exit(2)
}

fn run_snapshot(rest: Vec<String>) -> ExitCode {
    let mut it = rest.into_iter().peekable();
    match it.next().as_deref() {
        Some("build") => {
            let mut docs: Vec<String> = Vec::new();
            let mut out: Option<String> = None;
            let mut shards = 0usize;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--docs" => take_docs(&mut it, &mut docs),
                    "--out" => out = Some(value(&mut it, snapshot_usage)),
                    "--shards" => shards = value(&mut it, snapshot_usage),
                    _ => snapshot_usage(),
                }
            }
            let (Some(out), false) = (out, docs.is_empty()) else {
                snapshot_usage()
            };
            let Some(engine) = index_docs(&docs, 1) else {
                return ExitCode::FAILURE;
            };
            if shards > 1 {
                let Some(sharded) = with_shards(engine, shards) else {
                    return ExitCode::FAILURE;
                };
                let saved = pimento_ingest::SegmentStore::open(&out).and_then(|s| s.save(&sharded));
                if let Err(e) = saved {
                    eprintln!("cannot write sharded snapshot {out}: {e}");
                    return ExitCode::FAILURE;
                }
                println!(
                    "wrote {out}: sharded snapshot, {} segments, {} docs",
                    sharded.shard_count(),
                    sharded.num_docs()
                );
                return ExitCode::SUCCESS;
            }
            let data = engine.save_snapshot();
            if let Err(e) = std::fs::write(&out, &data) {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {out}: format v{}, {} docs, {} bytes",
                pimento_index::COLUMNAR_VERSION,
                engine.num_docs(),
                data.len()
            );
            ExitCode::SUCCESS
        }
        Some("inspect") => {
            let Some(path) = it.next() else {
                snapshot_usage()
            };
            if std::path::Path::new(&path).is_dir() {
                // A sharded snapshot directory: the segment store's
                // verifier, one verdict per artifact.
                let verdicts =
                    pimento_ingest::store::verify(&pimento_faults::vfs::StdVfs, path.as_ref());
                println!("{path}: sharded snapshot directory");
                for v in &verdicts {
                    match &v.outcome {
                        Ok(summary) => println!("{:<40} ok ({summary})", v.file),
                        Err(why) => println!("{:<40} BAD ({why})", v.file),
                    }
                }
                return if verdicts.iter().all(|v| v.outcome.is_ok()) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
            let data = match std::fs::read(&path) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let report = match pimento_index::inspect(&data) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{path}: format v{}, {} bytes, directory {}",
                report.version,
                report.file_len,
                if report.directory_ok { "ok" } else { "BAD" }
            );
            println!(
                "{:<8} {:>10} {:>10} {:>10}  crc",
                "section", "offset", "len", "crc32"
            );
            for s in &report.sections {
                println!(
                    "{:<8} {:>10} {:>10} {:>10}  {}",
                    s.name,
                    s.offset,
                    s.len,
                    format!("{:08x}", s.crc),
                    if s.crc_ok { "ok" } else { "BAD" }
                );
            }
            if report.directory_ok && report.sections.iter().all(|s| s.crc_ok) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => snapshot_usage(),
    }
}

/// `pimento lint`: statically verify a profile (SR conflict cycles, VOR
/// alternating cycles, validation warnings) against a query, and — when
/// documents are supplied — verify the shape of every plan the engine
/// would assemble. Exits 1 on error-severity findings, 0 otherwise.
fn lint_usage() -> ! {
    eprintln!(
        "usage: pimento lint --profile RULES_FILE [--query QUERY] [--docs FILE...] [--k N]\n\
         Runs the static verifiers: Profile::verify (SR conflict graph, VOR\n\
         alternating cycles, validation warnings) and, with --docs, Plan::verify\n\
         on each strategy's assembled plan. Exit 1 if any error finding.\n\
       pimento lint --workspace [--root PATH] [--allowlist PATH] [--format text|json]\n\
         Runs the source-level static analyses over the workspace: the token\n\
         rules plus the call-graph passes (panic-path, lock-order,\n\
         unchecked-offset). Exit 1 on violations or stale lint.allow entries."
    );
    std::process::exit(2)
}

/// `pimento lint --workspace`: the source-level analyses, same engine as
/// the standalone `lint` binary (crates/lint).
fn run_lint_workspace(rest: Vec<String>) -> ExitCode {
    let mut root: Option<std::path::PathBuf> = None;
    let mut allowlist: Option<std::path::PathBuf> = None;
    let mut json = false;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => {}
            "--root" => root = Some(value(&mut it, lint_usage)),
            "--allowlist" => allowlist = Some(value(&mut it, lint_usage)),
            "--format" => match it.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                _ => lint_usage(),
            },
            "--help" | "-h" => lint_usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                lint_usage()
            }
        }
    }
    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| lint::find_workspace_root_from(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!(
                "lint: no Cargo.toml found walking up from the current directory; pass --root"
            );
            return ExitCode::FAILURE;
        }
    };
    let allow_path = allowlist.unwrap_or_else(|| root.join("lint.allow"));
    match lint::scan_workspace(&root, &allow_path) {
        Ok(report) => {
            if json {
                print!("{}", report.to_json());
            } else {
                println!("{report}");
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("lint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_lint(rest: Vec<String>) -> ExitCode {
    if rest.iter().any(|a| a == "--workspace") {
        return run_lint_workspace(rest);
    }
    let mut profile_path: Option<String> = None;
    let mut query = String::from(r#"//car[ftcontains(., "good condition")]"#);
    let mut docs: Vec<String> = Vec::new();
    let mut k = SearchOptions::DEFAULT_K;
    let mut it = rest.into_iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--profile" => profile_path = Some(value(&mut it, lint_usage)),
            "--query" => query = value(&mut it, lint_usage),
            "--docs" => take_docs(&mut it, &mut docs),
            "--k" => k = value(&mut it, lint_usage),
            "--help" | "-h" => lint_usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                lint_usage()
            }
        }
    }
    let Some(profile_path) = profile_path else {
        lint_usage()
    };

    let text = match std::fs::read_to_string(&profile_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {profile_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let profile = match parse_profile(&text, &PrefRelRegistry::new()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{profile_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tpq = match pimento::tpq::parse_tpq(&query) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot parse query: {e}");
            return ExitCode::FAILURE;
        }
    };

    let report = profile.verify(&tpq);
    println!("{report}");
    let mut failed = report.has_errors();

    if !docs.is_empty() {
        let Some(engine) = index_docs(&docs, 1) else {
            return ExitCode::FAILURE;
        };
        // Plan verification needs a prepared query; an unresolvable SR
        // cycle makes preparation itself fail, which the report above
        // already explains.
        if report.has_sr_cycle() {
            println!("plan verification skipped: scoping rules cannot be ordered");
        } else {
            match engine.prepare(&query, &profile) {
                Ok(prepared) => {
                    for (strategy, outcome) in engine.verify_plans(&prepared, k) {
                        match outcome {
                            Ok(()) => {
                                println!("plan {} verifies: ok", strategy.paper_name())
                            }
                            Err(err) => {
                                println!("plan {} UNSOUND: {err}", strategy.paper_name());
                                failed = true;
                            }
                        }
                    }
                }
                Err(e) => {
                    eprintln!("cannot prepare query: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

struct Args {
    docs: Vec<String>,
    query: String,
    profile: Option<String>,
    /// `--k`, `--strategy`, `--threads` and `--explain` (as `trace`).
    opts: SearchOptions,
    analyze: bool,
    shards: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: pimento --docs FILE... --query QUERY [--profile RULES_FILE] \
         [--k N] [--strategy naive|il|sil|push] [--threads N] [--shards N] [--explain] [--analyze]\n\
         --threads N   lanes (threads) for query execution (0 = all cores, 1 = the\n\
         \x20             calling thread only; see DESIGN.md §8)\n\
         --shards N    lay the corpus out as N doc-range segments before searching\n\
         \x20             (a layout flag: each segment is one lane task)\n\
       pimento lint --profile RULES_FILE [--query QUERY] [--docs FILE...] [--k N]\n\
         static profile + plan soundness verification (see `pimento lint --help`)\n\
       pimento lint --workspace [--format text|json]\n\
         source-level static analyses: token rules + call-graph passes\n\
       pimento serve (--docs FILE... | --snapshot FILE) [--addr HOST:PORT] [--threads N] ...\n\
         resident TCP query service (see `pimento serve --help`)\n\
       pimento snapshot build|inspect ...\n\
         build and inspect binary index snapshots (see `pimento snapshot --help`)\n\
       pimento scrub [--data-dir DIR] [--profile-dir DIR]\n\
         one-shot integrity scrub of the durable stores (see `pimento scrub --help`)"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        docs: Vec::new(),
        query: String::new(),
        profile: None,
        opts: SearchOptions::top(SearchOptions::DEFAULT_K),
        analyze: false,
        shards: 0,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--docs" => take_docs(&mut it, &mut args.docs),
            "--query" => args.query = value(&mut it, usage),
            "--profile" => args.profile = Some(value(&mut it, usage)),
            "--k" => args.opts.k = value(&mut it, usage),
            "--strategy" => {
                args.opts.strategy = match it.next().map(|s| s.parse()) {
                    Some(Ok(strategy)) => strategy,
                    Some(Err(e)) => {
                        eprintln!("{e}");
                        usage()
                    }
                    None => usage(),
                }
            }
            "--threads" => args.opts.threads = value(&mut it, usage),
            "--shards" => args.shards = value(&mut it, usage),
            "--explain" => args.opts.trace = true,
            "--analyze" => args.analyze = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    if args.docs.is_empty() || args.query.is_empty() {
        usage()
    }
    args
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("lint") {
        argv.remove(0);
        return run_lint(argv);
    }
    if argv.first().map(String::as_str) == Some("serve") {
        argv.remove(0);
        return run_serve(argv);
    }
    if argv.first().map(String::as_str) == Some("snapshot") {
        argv.remove(0);
        return run_snapshot(argv);
    }
    if argv.first().map(String::as_str) == Some("scrub") {
        argv.remove(0);
        return run_scrub(argv);
    }
    let args = parse_args();

    let Some(engine) = index_docs(&args.docs, 1).and_then(|e| with_shards(e, args.shards)) else {
        return ExitCode::FAILURE;
    };

    let profile = match &args.profile {
        None => UserProfile::new(),
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match parse_profile(&text, &PrefRelRegistry::new()) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    if args.analyze {
        // Corpus summary.
        let db = engine.db();
        print!(
            "{}",
            pimento::index::CorpusStats::compute(&db.coll, &db.inverted, &db.tags).render()
        );
        // Profile lint.
        for warning in pimento::profile::validate(&profile) {
            println!("profile warning: {warning}");
        }
        match pimento::analyze(&args.query, &profile) {
            Ok(report) => print!("{}", report.text),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        println!();
    }

    let results = match engine.search(&args.query, &profile, &args.opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if !results.applied_rules.is_empty() || !results.skipped_rules.is_empty() {
        println!(
            "scoping rules applied: [{}] skipped: [{}] (flock of {})",
            results.applied_rules.join(", "),
            results.skipped_rules.join(", "),
            results.flock_size
        );
    }
    for hit in &results.hits {
        println!(
            "#{:<3} K={:<6.2} S={:<6.3} doc{} {}",
            hit.rank, hit.k, hit.s, hit.elem.doc.0, hit.text
        );
        if !hit.satisfied_kors.is_empty() || !hit.satisfied_optional.is_empty() {
            println!(
                "     because: kors={:?} optional={:?}",
                hit.satisfied_kors, hit.satisfied_optional
            );
        }
    }
    if results.hits.is_empty() {
        println!("(no answers)");
    }
    if args.opts.trace {
        println!("\nplan: {}", results.explain);
        if !results.trace.is_empty() {
            println!("\n{}", results.trace);
        }
        println!(
            "stats: base={} pruned={} bulk={} ft_probes={} vor_cmps={}",
            results.stats.base_answers,
            results.stats.pruned,
            results.stats.bulk_pruned,
            results.stats.ft_probes,
            results.stats.vor_comparisons
        );
        if results.lanes.len() > 1 {
            for (i, lane) in results.lanes.iter().enumerate() {
                let w = &lane.stats;
                println!(
                    "  lane {i} (segment {}): base={} pruned={} bulk={} ft_probes={} vor_cmps={} time={}µs",
                    lane.segment,
                    w.base_answers,
                    w.pruned,
                    w.bulk_pruned,
                    w.ft_probes,
                    w.vor_comparisons,
                    lane.micros
                );
            }
        }
    }
    ExitCode::SUCCESS
}
