//! A columnar (v4) snapshot reopened from bytes — one file or a sharded
//! directory — **is** the engine that wrote it: structurally equal indexes,
//! the same answer elements with the same `S`/`K` score bits, and the same
//! work counters, across every plan strategy and both rank orders, on the
//! paper's running example and an XMark-style corpus. The
//! version/corruption matrix keeps producing typed errors: every
//! pre-columnar format (v1–v3) is refused by magic, and a section that is
//! checksummed but malformed is refused at open, naming the section. A
//! committed file that still carries the retired `vals` section opens to
//! the engine a fresh build makes.

use pimento::index::{open_index, save_index, PersistError};
use pimento::profile::{parse_profile, PrefRelRegistry, RankOrder, UserProfile};
use pimento::algebra::ExecStats;
use pimento::{Engine, PlanStrategy, SearchOptions};
use pimento_ingest::store::{verify, SegmentStore};

const FIG2_RULES: &str = include_str!("../profiles/fig2.rules");

const STRATEGIES: [PlanStrategy; 4] = [
    PlanStrategy::Naive,
    PlanStrategy::InterleaveUnsorted,
    PlanStrategy::InterleaveSorted,
    PlanStrategy::Push,
];

/// (doc, node, S-bits, K-bits) per hit — equality means the float path is
/// identical, not merely close — plus the work the plan did to get there.
fn fingerprint(
    engine: &Engine,
    profile: &UserProfile,
    query: &str,
    strategy: PlanStrategy,
) -> (Vec<(u32, u32, u64, u64)>, ExecStats) {
    let opts = SearchOptions {
        strategy,
        ..SearchOptions::top(10)
    };
    let results = engine.search(query, profile, &opts).expect("search");
    let hits = results
        .hits
        .iter()
        .map(|h| (h.elem.doc.0, h.elem.node.0, h.s.to_bits(), h.k.to_bits()))
        .collect();
    (hits, results.stats)
}

/// Save `built` as a sharded directory and reopen it.
fn through_sharded_dir(built: &Engine, tag: &str) -> Engine {
    let dir = std::env::temp_dir().join(format!("pimento-snap-equiv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SegmentStore::open(&dir)
        .and_then(|s| s.save(built))
        .expect("sharded save");
    let reopened = Engine::from_sharded_dir(&dir).expect("sharded dir opens");
    let _ = std::fs::remove_dir_all(&dir);
    reopened
}

/// Every segment of `engine`, written and reopened, is structurally the
/// segment that was written, and re-serializes to the same bytes.
fn assert_segments_roundtrip(engine: &Engine, what: &str) {
    for (i, seg) in engine.segments().iter().enumerate() {
        let db = seg.db();
        let bytes = engine.segment_bytes(i).expect("segment bytes");
        let opened = open_index(&bytes).expect("segment opens");
        assert_eq!(opened.inverted, db.inverted, "{what}: segment {i} inverted");
        assert_eq!(opened.tags, db.tags, "{what}: segment {i} tags");
        let resaved = save_index(&opened.collection, &opened.inverted, &opened.tags);
        assert_eq!(resaved, bytes, "{what}: segment {i} is not a byte fixed point");
    }
}

fn assert_equivalent(original: &Engine, corpus: &str, queries: &[&str], profile: &UserProfile) {
    let from_file = Engine::from_snapshot(&original.save_snapshot()).expect("v4 opens");
    assert_eq!(from_file.snapshot_format(), Some(4));
    let sharded = original.reshard(3).expect("reshard");
    let pairs = [
        ("single file", original, &from_file),
        ("1-segment dir", original, &through_sharded_dir(original, "mono")),
        ("3-segment dir", &sharded, &through_sharded_dir(&sharded, "sharded")),
    ];
    for order in [RankOrder::Kvs, RankOrder::Vks] {
        let profile = profile.clone().with_rank_order(order);
        for query in queries {
            for strategy in STRATEGIES {
                for (layout, built, reopened) in &pairs {
                    assert_eq!(
                        fingerprint(built, &profile, query, strategy),
                        fingerprint(reopened, &profile, query, strategy),
                        "{corpus}, {layout}: mismatch for {query} under {strategy:?}, {order:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn paper_example_is_bit_identical_after_reopen() {
    let mut docs = vec![pimento_datagen::paper_figure1().to_string()];
    docs.push(pimento_datagen::generate_dealer(3, 40));
    docs.push(pimento_datagen::generate_dealer(9, 40));
    let engine = Engine::from_xml_docs(&docs).expect("corpus parses");
    let profile = parse_profile(FIG2_RULES, &PrefRelRegistry::new()).expect("fig2 parses");
    let queries = [
        r#"//car[ftcontains(., "good condition")]"#,
        r#"//car[ftcontains(., "good condition") and ./price < 2000]"#,
        r#"//dealer//car[./price < 8000]"#,
    ];
    assert_equivalent(&engine, "paper", &queries, &UserProfile::new());
    assert_equivalent(&engine, "paper+fig2", &queries, &profile);
}

#[test]
fn xmark_corpus_is_bit_identical_after_reopen() {
    let docs: Vec<String> = (0..3)
        .map(|i| pimento_datagen::generate_xmark(i, 20_000))
        .collect();
    let engine = Engine::from_xml_docs(&docs).expect("xmark parses");
    let queries = [
        r#"//person[ftcontains(., "the")]"#,
        r#"//item[ftcontains(., "gold")]"#,
    ];
    assert_equivalent(&engine, "xmark", &queries, &UserProfile::new());
}

#[test]
fn version_and_corruption_matrix() {
    let docs = vec![pimento_datagen::paper_figure1().to_string()];
    let engine = Engine::from_xml_docs(&docs).expect("corpus parses");
    let v4 = engine.save_snapshot();

    // Truncation anywhere fails with a typed error, never a panic.
    for cut in [0, 5, 7, 23, v4.len() / 2, v4.len() - 1] {
        assert!(
            Engine::from_snapshot(&v4[..cut]).is_err(),
            "truncated at {cut}"
        );
    }
    // A flipped bit in the body is caught by a section CRC.
    let mut bad = v4.to_vec();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    assert!(Engine::from_snapshot(&bad).is_err(), "bit flip at {mid}");
    // A file in any earlier format is refused by its magic with the typed
    // version error — by the open path and by inspect alike, whatever
    // follows the magic and however short the file — and so is a future
    // version word.
    use pimento::index::PersistError::SnapshotVersion;
    for (magic, found) in [(&b"PIMCOL1\0"[..], 1), (b"PIMCOL2\0", 2), (b"PIMCOL3\0", 3)] {
        let mut old = v4.to_vec();
        old[..8].copy_from_slice(magic);
        let want = SnapshotVersion { found, expected: 4 };
        for len in [8, 12, old.len()] {
            assert!(
                matches!(Engine::from_snapshot(&old[..len]), Err(pimento::Error::Snapshot(e)) if e == want),
                "v{found}, {len} bytes"
            );
            assert_eq!(
                pimento::index::inspect(&old[..len]).err(),
                Some(want.clone())
            );
        }
    }
    let mut future = v4.to_vec();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        Engine::from_snapshot(&future),
        Err(pimento::Error::Snapshot(SnapshotVersion {
            found: 99,
            expected: 4
        }))
    ));
    // The inspect report agrees with the open path.
    let report = pimento::index::inspect(&v4).expect("inspect v4");
    assert_eq!(report.version, 4);
    assert!(report.directory_ok);
    assert!(report.sections.iter().all(|s| s.crc_ok));
    let names: Vec<&str> = report.sections.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["meta", "symtab", "docs", "tags", "inv"]);
    let bad_report = pimento::index::inspect(&bad).expect("inspect corrupt v4");
    assert!(
        bad_report.sections.iter().any(|s| !s.crc_ok),
        "{bad_report:?}"
    );
}

#[test]
fn every_way_of_producing_a_segment_roundtrips_structurally() {
    let docs: Vec<String> = (0..4)
        .map(|i| pimento_datagen::generate_dealer(i, 12))
        .collect();
    let built = Engine::from_xml_docs(&docs).expect("corpus parses");
    assert_segments_roundtrip(&built, "built");
    let grown = built
        .with_ingested(&[pimento_datagen::generate_dealer(9, 12)])
        .expect("ingest");
    assert_segments_roundtrip(&grown, "with_ingested delta");
    let (tombstoned, _) = grown.with_deletes(&[1, 4]).expect("delete");
    assert_segments_roundtrip(&tombstoned, "tombstoned");
    assert_segments_roundtrip(&tombstoned.compacted(2).expect("compact"), "compacted");
}

/// Let `patch` edit section `name` in place, then re-seal the section
/// and directory CRCs, so only the structural checks of the opener stand
/// between the forgery and the query path.
fn forge(snapshot: &[u8], name: &str, patch: impl Fn(&mut [u8])) -> Vec<u8> {
    let report = pimento::index::inspect(snapshot).expect("inspect");
    let (row, found) = report
        .sections
        .iter()
        .enumerate()
        .find(|(_, s)| s.name == name)
        .expect("section exists");
    let section = found.offset as usize..(found.offset + found.len) as usize;
    let mut bytes = snapshot.to_vec();
    patch(&mut bytes[section.clone()]);
    // Header 24 bytes (directory CRC at 16), 32-byte directory rows
    // (section CRC at +24): see the layout in `pimento_index::columnar`.
    let dir = 24..24 + 32 * report.sections.len();
    let crc_at = dir.start + 32 * row + 24;
    let crc = pimento::index::crc32(&bytes[section]);
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    let dir_crc = pimento::index::crc32(&bytes[dir]);
    bytes[16..20].copy_from_slice(&dir_crc.to_le_bytes());
    bytes
}

#[test]
fn checksummed_but_malformed_sections_are_refused_at_open() {
    let docs: Vec<String> = (0..2)
        .map(|i| pimento_datagen::generate_dealer(i, 6))
        .collect();
    let engine = Engine::from_xml_docs(&docs).expect("corpus parses");
    let good = engine.save_snapshot();
    let get = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let put = |b: &mut [u8], at: usize, v: u32| b[at..at + 4].copy_from_slice(&v.to_le_bytes());
    // inv: 16-byte header (docs, tokens, names length, runs length), the
    // per-doc token counts, then 24-byte token rows (name offset, name
    // length, doc freq, run count, runs offset, total postings).
    let token0 = |b: &[u8]| 16 + 4 * get(b, 0) as usize;
    // tags: 8-byte header (symbol domain, total rows), an 8-byte span per
    // symbol, then the rows; the node id sits 4 bytes into an element row.
    let row0 = |b: &[u8]| 8 + 8 * get(b, 0) as usize;
    let forgeries = [
        (
            "inv",
            "truncated varint run",
            forge(&good, "inv", |b| *b.last_mut().unwrap() = 0x80),
        ),
        (
            "inv",
            "name span outside the names window",
            forge(&good, "inv", |b| put(b, token0(b) + 4, u32::MAX)),
        ),
        (
            "inv",
            "run counts disagreeing with total_postings",
            forge(&good, "inv", |b| {
                let at = token0(b) + 20;
                put(b, at, get(b, at) + 1)
            }),
        ),
        (
            "inv",
            "two tokens claiming the same run blob",
            forge(&good, "inv", |b| {
                let at = token0(b) + 16;
                put(b, at + 24, get(b, at))
            }),
        ),
        (
            "tags",
            "element row addressing a node outside its document",
            forge(&good, "tags", |b| put(b, row0(b) + 4, u32::MAX)),
        ),
    ];
    for (section, what, bytes) in &forgeries {
        let corrupt = PersistError::SnapshotCorrupt { section };
        // The forgery is sealed: every CRC verdict is good.
        let report = pimento::index::inspect(bytes).expect("inspect");
        assert!(report.directory_ok && report.sections.iter().all(|s| s.crc_ok), "{what}");
        assert_eq!(open_index(bytes).err(), Some(corrupt.clone()), "{what}");
        assert!(
            matches!(Engine::from_snapshot(bytes), Err(pimento::Error::Snapshot(e)) if e == corrupt),
            "{what}: from_snapshot"
        );
        // The same file as the one segment of a sharded directory.
        let dir = std::env::temp_dir().join(format!("pimento-forged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SegmentStore::open(&dir).expect("open store");
        let manifest = store.save(&engine).expect("sharded save");
        std::fs::write(dir.join(&manifest.segments[0].file), bytes).expect("overwrite segment");
        let reopened = Engine::from_sharded_dir(&dir);
        let verdicts = verify(&**store.vfs(), &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            matches!(reopened, Err(pimento::Error::Snapshot(e)) if e == corrupt),
            "{what}: from_sharded_dir"
        );
        assert!(verdicts.iter().any(|v| v.outcome.is_err()), "{what}: verify");
    }
}

/// A `PIMCOL4` file written before the format dropped its numeric value
/// index, by `pimento snapshot build --docs` over the two XML fixtures
/// beside it: it still carries a `vals` section between `tags` and `inv`.
const WITH_VALS: &[u8] = include_bytes!("fixtures/dealer_vals.pimcol4");
const WITH_VALS_DOCS: [&str; 2] = [
    include_str!("fixtures/dealer_vals_a.xml"),
    include_str!("fixtures/dealer_vals_b.xml"),
];

#[test]
fn file_with_a_retired_vals_section_opens_to_the_built_engine() {
    // `inspect` (and so the scrubber) still lists and CRC-checks `vals`.
    let report = pimento::index::inspect(WITH_VALS).expect("inspect");
    let names: Vec<&str> = report.sections.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["meta", "symtab", "docs", "tags", "vals", "inv"]);
    assert!(report.directory_ok && report.sections.iter().all(|s| s.crc_ok));

    // The opener skips it: same indexes, same hits by bits, same work.
    let built = Engine::from_xml_docs(&WITH_VALS_DOCS).expect("fixture parses");
    let opened = Engine::from_snapshot(WITH_VALS).expect("fixture opens");
    assert_eq!(opened.db().tags, built.db().tags);
    assert_eq!(opened.db().inverted, built.db().inverted);
    let fig2 = parse_profile(FIG2_RULES, &PrefRelRegistry::new()).expect("fig2 parses");
    let queries = [
        r#"//car[ftcontains(., "low mileage")]"#,
        r#"//car[ftcontains(., "best bid") and ./price < 5000]"#,
        r#"//dealer//car[./price < 3000]"#,
    ];
    for profile in [UserProfile::new(), fig2] {
        for query in queries {
            for strategy in STRATEGIES {
                let want = fingerprint(&built, &profile, query, strategy);
                assert!(!want.0.is_empty(), "{query} has hits");
                assert_eq!(
                    fingerprint(&opened, &profile, query, strategy),
                    want,
                    "{query} under {strategy:?}"
                );
            }
        }
    }

    // Not a byte fixed point: a re-save writes the current layout, which
    // is exactly what a fresh build writes.
    let resaved = opened.save_snapshot();
    assert_ne!(&resaved[..], WITH_VALS);
    assert_eq!(resaved, built.save_snapshot());

    // Damage inside `vals` is invisible to the opener and reported by
    // `inspect`.
    let vals = report
        .sections
        .iter()
        .find(|s| s.name == "vals")
        .expect("vals");
    let mut damaged = WITH_VALS.to_vec();
    damaged[vals.offset as usize] ^= 0x40;
    assert!(Engine::from_snapshot(&damaged).is_ok());
    let damaged_report = pimento::index::inspect(&damaged).expect("inspect");
    let bad: Vec<&str> = damaged_report
        .sections
        .iter()
        .filter(|s| !s.crc_ok)
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(bad, ["vals"]);
}
