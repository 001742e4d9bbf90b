//! Adversarial-bytes fuzzing of the durable text formats (DESIGN.md
//! §17): [`ShardManifest::parse`] and [`TombstoneSet::parse`] are
//! recovery-path `panic-path` lint roots, so whatever a torn write, a
//! bit rot, or a hostile edit leaves on disk must surface as a typed
//! [`PersistError`] — never a panic — and a mutated artifact that still
//! parses must parse to *exactly* the original meaning (the crc
//! trailers make anything else a checksum mismatch).

use pimento_index::{PersistError, ShardManifest, TombstoneSet};
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
