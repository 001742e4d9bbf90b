//! ISSUE 6 acceptance: a columnar (v4) snapshot reopened from bytes is
//! **bit-identical** to the engine that wrote it — same answer elements,
//! same `S`/`K` score bits — across every plan strategy, on both the
//! paper's running example and an XMark-style corpus — and the
//! version/corruption matrix must keep producing typed errors, with every
//! pre-columnar format (v1–v3) refused by magic.

use pimento::profile::{parse_profile, PrefRelRegistry, UserProfile};
use pimento::{Engine, PlanStrategy, SearchOptions};

const FIG2_RULES: &str = include_str!("../profiles/fig2.rules");

const STRATEGIES: [PlanStrategy; 4] = [
    PlanStrategy::Naive,
    PlanStrategy::InterleaveUnsorted,
    PlanStrategy::InterleaveSorted,
    PlanStrategy::Push,
];

/// (doc, node, S-bits, K-bits) per hit: equality means the float path is
/// identical, not merely close.
fn fingerprint(
    engine: &Engine,
    profile: &UserProfile,
    query: &str,
    strategy: PlanStrategy,
) -> Vec<(u32, u32, u64, u64)> {
    let opts = SearchOptions {
        strategy,
        ..SearchOptions::top(10)
    };
    let results = engine.search(query, profile, &opts).expect("search");
    results
        .hits
        .iter()
        .map(|h| (h.elem.doc.0, h.elem.node.0, h.s.to_bits(), h.k.to_bits()))
        .collect()
}

fn assert_equivalent(original: &Engine, corpus: &str, queries: &[&str], profile: &UserProfile) {
    let v4 = original.save_snapshot();
    let from_v4 = Engine::from_snapshot(&v4).expect("v4 opens");
    assert_eq!(from_v4.snapshot_format(), Some(4));
    // The v4 open path must be backed by packed views, not a heap rebuild.
    assert!(
        from_v4.db().tags.is_packed(),
        "{corpus}: v4 tags not packed"
    );
    assert!(
        from_v4.db().values.is_packed(),
        "{corpus}: v4 values not packed"
    );
    assert!(
        from_v4.db().inverted.is_packed(),
        "{corpus}: v4 inverted not packed"
    );
    for query in queries {
        for strategy in STRATEGIES {
            let want = fingerprint(original, profile, query, strategy);
            let got4 = fingerprint(&from_v4, profile, query, strategy);
            assert_eq!(
                want, got4,
                "{corpus}: v4 mismatch for {query} under {strategy:?}"
            );
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
    assert_eq!(names, ["meta", "symtab", "docs", "tags", "vals", "inv"]);
    let bad_report = pimento::index::inspect(&bad).expect("inspect corrupt v4");
    assert!(
        bad_report.sections.iter().any(|s| !s.crc_ok),
        "{bad_report:?}"
    );
}
