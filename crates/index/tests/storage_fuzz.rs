//! Adversarial-bytes fuzzing of the durable text formats (DESIGN.md
//! §17): [`ShardManifest::parse`] and [`TombstoneSet::parse`] are
//! recovery-path `panic-path` lint roots, so whatever a torn write, a
//! bit rot, or a hostile edit leaves on disk must surface as a typed
//! [`PersistError`] — never a panic — and a mutated artifact that still
//! parses must parse to *exactly* the original meaning (the crc
//! trailers make anything else a checksum mismatch). A snapshot whose
//! bytes were edited *and* re-checksummed must still be refused when the
//! edit breaks what queries trust about it.

use pimento_index::{
    inspect, open_index, save_index, Collection, InvertedIndex, PersistError, ShardManifest,
    TagIndex, Tokenizer, TombstoneSet,
};
use proptest::prelude::*;

/// A canonical v2 manifest (generation line, tombstone sidecar column,
/// crc trailer) — the exact shape the ingest write path publishes.
fn sample_manifest() -> String {
    let text = "pimento-shards v2\n\
                generation 7\n\
                segment-g000007-000.v4.snap 0 3 segment-g000007-000.v4.snap.g000007.tomb\n\
                delta-000007.v4.snap 3 2\n";
    let crc = pimento_index::crc32(text.as_bytes());
    let full = format!("{text}crc {crc:08x}\n");
    ShardManifest::parse(&full).expect("sample manifest is valid");
    full
}

/// What `snapshot build --shards` and every bootstrap publish write:
/// generation 0, no tombstones — checksummed like any other manifest.
fn bootstrap_manifest() -> String {
    let entry = |i: usize, doc_base, docs| pimento_index::ManifestEntry {
        file: format!("segment-g000000-{i:03}.v4.snap"),
        doc_base,
        docs,
        tombstones: None,
    };
    ShardManifest {
        segments: vec![entry(0, 0, 3), entry(1, 3, 2)],
        generation: 0,
    }
    .render()
}

/// A canonical tombstone sidecar with its crc trailer.
fn sample_tombstones() -> String {
    let mut set = TombstoneSet::new();
    for id in [0, 1, 63, 64, 200] {
        set.insert(pimento_index::DocId(id));
    }
    set.render()
}

/// Parse either format, asserting only that the error channel is the
/// typed one (the call itself not panicking is the property proptest
/// enforces by running this at all).
fn parse_both(text: &str) -> (Result<ShardManifest, PersistError>, Result<TombstoneSet, PersistError>) {
    (ShardManifest::parse(text), TombstoneSet::parse(text))
}

proptest! {
    /// Arbitrary unicode never panics either parser.
    #[test]
    fn arbitrary_text_never_panics(text in ".*") {
        let _ = parse_both(&text);
    }

    /// Grammar-adjacent line soup (headers, counts, numbers, file-ish
    /// tokens) explores the deep paths without panicking.
    #[test]
    fn structured_line_soup_never_panics(
        lines in proptest::collection::vec(
            prop_oneof![
                Just("pimento-shards v1".to_string()),
                Just("pimento-shards v2".to_string()),
                Just("pimento-tombstones v1".to_string()),
                (0u64..100).prop_map(|g| format!("generation {g}")),
                (0u32..100).prop_map(|c| format!("count {c}")),
                (0u32..300).prop_map(|id| format!("{id}")),
                (0u32..1_000_000).prop_map(|c| format!("crc {c:08x}")),
                (0u32..1000, 0u32..50, 0u32..50)
                    .prop_map(|(f, b, d)| format!("seg{f}.v4.snap {b} {d}")),
            ],
            0..12,
        )
    ) {
        let mut text = lines.join("\n");
        text.push('\n');
        let _ = parse_both(&text);
    }

    /// A single mutated byte in a valid manifest either fails typed or
    /// parses to the original meaning — never a panic, never a silently
    /// different manifest.
    #[test]
    fn mutated_manifest_never_changes_meaning(offset in 0usize..200, delta in 1u8..=255) {
        let good = sample_manifest();
        let original = ShardManifest::parse(&good).unwrap();
        let mut bytes = good.into_bytes();
        let i = offset % bytes.len();
        bytes[i] = bytes[i].wrapping_add(delta);
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(parsed) = ShardManifest::parse(&text) {
            prop_assert_eq!(parsed.segments, original.segments);
            prop_assert_eq!(parsed.generation, original.generation);
        }
    }

    /// Same property for tombstone sidecars: the flipped-id-digit attack
    /// (`1` → `3` keeps the grammar valid) must die at the crc.
    #[test]
    fn mutated_tombstones_never_change_meaning(offset in 0usize..200, delta in 1u8..=255) {
        let good = sample_tombstones();
        let original = TombstoneSet::parse(&good).unwrap();
        let mut bytes = good.into_bytes();
        let i = offset % bytes.len();
        bytes[i] = bytes[i].wrapping_add(delta);
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(parsed) = TombstoneSet::parse(&text) {
            prop_assert_eq!(parsed, original);
        }
    }

    /// Every truncation of a valid artifact (a torn write cut anywhere,
    /// not just at a line boundary) is rejected or bit-meaning-identical.
    #[test]
    fn truncations_never_change_meaning(cut_manifest in 0usize..200, cut_tomb in 0usize..100) {
        for manifest in [sample_manifest(), bootstrap_manifest()] {
            let original = ShardManifest::parse(&manifest).unwrap();
            let cut = cut_manifest % manifest.len();
            if let Ok(parsed) = ShardManifest::parse(&manifest[..cut]) {
                prop_assert_eq!(parsed.segments, original.segments);
                prop_assert_eq!(parsed.generation, original.generation);
            }
        }

        let tomb = sample_tombstones();
        let orig_set = TombstoneSet::parse(&tomb).unwrap();
        let cut = cut_tomb % tomb.len();
        if let Ok(parsed) = TombstoneSet::parse(&tomb[..cut]) {
            prop_assert_eq!(parsed, orig_set);
        }
    }
}

fn le32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn put32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Move one element row of a snapshot's `tags` section from its span to
/// the neighbouring span — the spans still tile the rows — and recompute
/// the section and directory checksums, as a deliberate edit would. The
/// row's tag is its span's symbol, so the row now claims the wrong tag
/// for its node, and the open must refuse the section.
#[test]
fn a_tags_row_moved_to_another_span_is_refused_at_open() {
    let mut c = Collection::new();
    c.add_xml("<r><a>x</a><b>y</b><a>z</a></r>").unwrap();
    let inv = InvertedIndex::build(&c, Tokenizer::plain());
    let tags = TagIndex::build(&c);
    let mut snap = save_index(&c, &inv, &tags).to_vec();
    open_index(&snap).expect("the untouched snapshot opens");

    let report = inspect(&snap).unwrap();
    let (index, section) = report
        .sections
        .iter()
        .enumerate()
        .find(|(_, s)| s.name == "tags")
        .unwrap();
    let base = section.offset as usize;
    let domain = le32(&snap, base) as usize;
    // The first two neighbouring non-empty spans: give the first row of
    // the second to the first.
    let span = |sym: usize| base + 8 + 8 * sym;
    let sym = (0..domain - 1)
        .find(|&s| le32(&snap, span(s) + 4) > 0 && le32(&snap, span(s + 1) + 4) > 0)
        .unwrap();
    let (first, second) = (span(sym), span(sym + 1));
    let first_count = le32(&snap, first + 4);
    let (second_start, second_count) = (le32(&snap, second), le32(&snap, second + 4));
    put32(&mut snap, first + 4, first_count + 1);
    put32(&mut snap, second, second_start + 1);
    put32(&mut snap, second + 4, second_count - 1);

    // Re-checksum: the section's crc in its directory row, then the
    // directory's crc in the header.
    let crc = pimento_index::crc32(&snap[base..base + section.len as usize]);
    let row = 24 + 32 * index;
    put32(&mut snap, row + 24, crc);
    let dir_crc = pimento_index::crc32(&snap[24..24 + 32 * report.sections.len()]);
    put32(&mut snap, 16, dir_crc);

    assert_eq!(
        inspect(&snap).unwrap().sections.len(),
        report.sections.len()
    );
    match open_index(&snap) {
        Err(PersistError::SnapshotCorrupt { section }) => assert_eq!(section, "tags"),
        other => panic!("a row under the wrong tag opened: {:?}", other.map(|_| ())),
    }
}
