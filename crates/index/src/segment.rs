//! Sharded-corpus building blocks: doc-range splitting and the
//! sharded-snapshot manifest.
//!
//! A sharded engine slices its collection into contiguous document
//! ranges ("segments"), each indexed independently. Three invariants make
//! the per-segment scans recombine bit-identically with the monolithic
//! scan (DESIGN.md §8, "Segments"; the directory format is §13.5):
//!
//! 1. **Ranges partition the corpus** — [`split_ranges`] yields contiguous,
//!    disjoint, covering ranges, so a global doc id maps to exactly one
//!    segment and `global = segment base + local`.
//! 2. **Symbol ids are corpus-global** — every segment carries a full copy
//!    of the corpus symbol table ([`crate::Collection::subset`]), so one
//!    compiled plan is valid against every segment.
//! 3. **Scoring statistics are summed at prepare** — a segment carries
//!    none. [`crate::score::nidf`] adds document counts and per-token
//!    document frequencies over the segment indexes when a query is
//!    compiled, which feeds `idf` the same integers the monolithic index
//!    would; a segment is therefore the same object in every corpus
//!    generation that contains it.
//!
//! On disk, a sharded snapshot is a directory: one v4 columnar file per
//! segment plus a [`ShardManifest`] listing each file with its doc-id
//! base, decoded by [`ShardManifest::parse`] (a `panic-path` lint root —
//! malformed manifests surface as [`PersistError`], never a panic). What
//! makes a listed tombstone sidecar acceptable is defined here too
//! ([`ManifestEntry::parse_tombstones`]), once, for the loader and the
//! segment store's verifier. The file names themselves are chosen by the
//! segment store (`pimento-ingest`); the manifest only records them.

use crate::persist::PersistError;
use crate::tombstone::TombstoneSet;
use std::ops::Range;

/// File name of the manifest inside a sharded snapshot directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Header line of a manifest: the v2 format, with a corpus `generation`
/// line, optional per-segment tombstone sidecar files (the live ingest
/// write path, DESIGN.md §16) and a `crc` trailer.
pub const MANIFEST_HEADER_V2: &str = "pimento-shards v2";

/// Split `num_docs` documents into at most `shards` contiguous, disjoint,
/// covering ranges of near-equal size (the first `num_docs % shards`
/// ranges get one extra document). Fewer documents than shards yields one
/// singleton range per document; `shards == 0` is treated as 1. Empty
/// ranges are never produced (an empty corpus yields no ranges).
pub fn split_ranges(num_docs: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1).min(num_docs.max(1));
    if num_docs == 0 {
        return Vec::new();
    }
    let base = num_docs / shards;
    let extra = num_docs % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// One segment entry in a [`ShardManifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Segment file name, relative to the snapshot directory. Plain file
    /// names only — no path separators.
    pub file: String,
    /// Global doc id of the segment's first document.
    pub doc_base: u32,
    /// Number of documents in the segment.
    pub docs: u32,
    /// Tombstone sidecar file name, when the segment has deleted
    /// documents.
    pub tombstones: Option<String>,
}

impl ManifestEntry {
    /// Decode the bytes of this entry's tombstone sidecar: UTF-8, the
    /// sidecar grammar, and every id inside the segment (`< docs`). The
    /// one definition of an acceptable sidecar — a directory the scrubber
    /// or `snapshot inspect` passes is one a restart will open.
    pub fn parse_tombstones(&self, raw: &[u8]) -> Result<TombstoneSet, PersistError> {
        let text = std::str::from_utf8(raw)
            .map_err(|_| PersistError::BadManifest("tombstone sidecar is not UTF-8"))?;
        let tombs = TombstoneSet::parse(text)?;
        if tombs.iter().any(|d| d.0 >= self.docs) {
            return Err(PersistError::BadManifest(
                "tombstone doc id outside its segment",
            ));
        }
        Ok(tombs)
    }
}

/// The manifest of a sharded snapshot directory: the segment files in
/// doc-range order, with their doc-id bases and counts, plus the corpus
/// generation the directory captures.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardManifest {
    /// Segments in doc-range order (`doc_base` strictly increasing from 0,
    /// ranges contiguous).
    pub segments: Vec<ManifestEntry>,
    /// Corpus generation at the time the manifest was written (0 for a
    /// freshly built corpus).
    pub generation: u64,
}

/// Reject file names that could escape the snapshot directory or
/// collide with the manifest itself.
fn check_file_name(file: &str) -> Result<(), PersistError> {
    if file.contains('/') || file.contains('\\') || file == ".." || file == MANIFEST_FILE {
        return Err(PersistError::BadManifest("unsafe segment file name"));
    }
    Ok(())
}

impl ShardManifest {
    /// Render the manifest text: the header, a `generation <n>` line, one
    /// `<file> <doc_base> <docs> [<tombstone file>]` line per segment, and
    /// a final `crc <hex>` trailer over everything above it — without the
    /// trailer a torn (prefix-truncated) manifest could parse as a valid
    /// manifest with fewer segments, which is exactly the silent third
    /// state the crash harness exists to rule out.
    pub fn render(&self) -> String {
        let mut out = format!("{MANIFEST_HEADER_V2}\ngeneration {}\n", self.generation);
        for seg in &self.segments {
            out.push_str(&format!("{} {} {}", seg.file, seg.doc_base, seg.docs));
            if let Some(t) = &seg.tombstones {
                out.push_str(&format!(" {t}"));
            }
            out.push('\n');
        }
        let crc = crate::persist::crc32(out.as_bytes());
        out.push_str(&format!("crc {crc:08x}\n"));
        out
    }

    /// Parse and validate manifest text. Beyond the line grammar this
    /// checks the structural invariants the scatter-gather executor
    /// relies on: at least one segment, doc ranges contiguous from 0 (so
    /// no duplicate or overlapping ranges can slip through), every
    /// segment non-empty, no file listed twice, and file names free of
    /// path separators (a manifest must not escape its own directory).
    pub fn parse(text: &str) -> Result<ShardManifest, PersistError> {
        match text.lines().next().map(str::trim) {
            Some(MANIFEST_HEADER_V2) => {}
            Some(h) if h.starts_with("pimento-shards ") => {
                return Err(PersistError::BadManifest("unsupported manifest version"))
            }
            _ => return Err(PersistError::BadManifest("missing header")),
        }
        // The manifest must end with a `crc <hex>` trailer covering
        // everything above it. Verify (and strip) it before the line
        // grammar: a torn prefix that cuts cleanly at a line boundary
        // would otherwise parse as a valid, smaller manifest.
        let trimmed = text.trim_end();
        let covered_len = trimmed
            .rfind('\n')
            .map(|i| i + 1)
            .ok_or(PersistError::BadManifest("missing crc trailer"))?;
        let stored = trimmed
            .get(covered_len..)
            .map(str::trim)
            .and_then(|l| l.strip_prefix("crc "))
            .and_then(|v| u32::from_str_radix(v.trim(), 16).ok())
            .ok_or(PersistError::BadManifest("missing crc trailer"))?;
        let covered = text
            .get(..covered_len)
            .ok_or(PersistError::BadManifest("missing crc trailer"))?;
        if crate::persist::crc32(covered.as_bytes()) != stored {
            return Err(PersistError::BadManifest("manifest checksum mismatch"));
        }
        let mut lines = covered.lines().skip(1);
        let generation = lines
            .next()
            .map(str::trim)
            .and_then(|l| l.strip_prefix("generation "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or(PersistError::BadManifest("missing generation line"))?;
        let mut segments: Vec<ManifestEntry> = Vec::new();
        let mut next_base = 0u32;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split_whitespace();
            let file = fields
                .next()
                .ok_or(PersistError::BadManifest("missing file name"))?;
            let doc_base: u32 = fields
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or(PersistError::BadManifest("bad doc base"))?;
            let docs: u32 = fields
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or(PersistError::BadManifest("bad doc count"))?;
            let tombstones = fields.next().map(str::to_string);
            if let Some(t) = &tombstones {
                check_file_name(t)?;
            }
            if fields.next().is_some() {
                return Err(PersistError::BadManifest("trailing fields"));
            }
            check_file_name(file)?;
            let dup = segments.iter().any(|s| {
                s.file == file
                    || s.tombstones.as_deref() == Some(file)
                    || tombstones
                        .as_deref()
                        .is_some_and(|t| t == s.file || Some(t) == s.tombstones.as_deref())
            });
            if dup || tombstones.as_deref() == Some(file) {
                return Err(PersistError::BadManifest("duplicate file in manifest"));
            }
            if doc_base != next_base {
                return Err(PersistError::BadManifest(
                    "doc ranges overlap or are not contiguous",
                ));
            }
            if docs == 0 {
                return Err(PersistError::BadManifest("empty segment"));
            }
            next_base = doc_base
                .checked_add(docs)
                .ok_or(PersistError::BadManifest("doc range overflows u32"))?;
            segments.push(ManifestEntry {
                file: file.to_string(),
                doc_base,
                docs,
                tombstones,
            });
        }
        if segments.is_empty() {
            return Err(PersistError::BadManifest("no segments"));
        }
        Ok(ShardManifest {
            segments,
            generation,
        })
    }

    /// Total documents across all segments (deleted documents included —
    /// tombstones hide documents, they do not renumber them).
    pub fn num_docs(&self) -> u32 {
        self.segments.last().map(|s| s.doc_base + s.docs).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn split_ranges_partition_the_corpus() {
        for (docs, shards) in [(10, 4), (4, 4), (3, 8), (1, 1), (100, 7)] {
            let ranges = split_ranges(docs, shards);
            assert!(ranges.len() <= shards.max(1));
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "{docs}/{shards}");
            }
            assert_eq!(ranges.last().map(|r| r.end), Some(docs));
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
        assert!(split_ranges(0, 4).is_empty());
        assert_eq!(split_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn manifest_roundtrip() {
        let m = ShardManifest {
            segments: vec![
                ManifestEntry {
                    file: "segment-000.v4.snap".to_string(),
                    doc_base: 0,
                    docs: 3,
                    tombstones: None,
                },
                ManifestEntry {
                    file: "segment-001.v4.snap".to_string(),
                    doc_base: 3,
                    docs: 2,
                    tombstones: None,
                },
            ],
            generation: 0,
        };
        let text = m.render();
        assert!(text.starts_with(MANIFEST_HEADER_V2), "{text}");
        let back = ShardManifest::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.num_docs(), 5);
        assert_eq!(back.generation, 0);
        // Generation 0 is checksummed like every other: a torn manifest cut
        // at any line boundary must not parse as a smaller corpus.
        for (i, _) in text.match_indices('\n') {
            let prefix = &text[..=i];
            if prefix.len() < text.len() {
                assert!(ShardManifest::parse(prefix).is_err(), "prefix {i} accepted");
            }
        }
    }

    #[test]
    fn v1_manifest_is_an_unsupported_version() {
        for text in [
            "pimento-shards v1\nseg.snap 0 3\n".to_string(),
            with_crc("pimento-shards v1\nseg.snap 0 3\n"),
        ] {
            assert_eq!(
                ShardManifest::parse(&text),
                Err(PersistError::BadManifest("unsupported manifest version"))
            );
        }
    }

    #[test]
    fn manifest_v2_roundtrip_with_generation_and_tombstones() {
        let m = ShardManifest {
            segments: vec![
                ManifestEntry {
                    tombstones: Some("segment-000.v4.snap.g000007.tomb".to_string()),
                    file: "segment-000.v4.snap".to_string(),
                    doc_base: 0,
                    docs: 3,
                },
                ManifestEntry {
                    file: "delta-000007.v4.snap".to_string(),
                    doc_base: 3,
                    docs: 2,
                    tombstones: None,
                },
            ],
            generation: 7,
        };
        let text = m.render();
        assert!(text.starts_with(MANIFEST_HEADER_V2), "{text}");
        assert!(text.contains("generation 7"), "{text}");
        let back = ShardManifest::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.generation, 7);
        assert_eq!(back.num_docs(), 5);
    }

    /// A sidecar is acceptable only if it decodes *and* fits its entry:
    /// the id-range half is what a bare `TombstoneSet::parse` cannot see.
    #[test]
    fn sidecar_must_be_utf8_parse_and_fit_its_segment() {
        let entry = ManifestEntry {
            file: "segment-000.v4.snap".to_string(),
            doc_base: 0,
            docs: 3,
            tombstones: Some("t".to_string()),
        };
        let mut inside = TombstoneSet::new();
        inside.insert(crate::DocId(2));
        assert_eq!(
            entry.parse_tombstones(inside.render().as_bytes()),
            Ok(inside.clone())
        );
        let mut outside = inside;
        outside.insert(crate::DocId(3));
        assert_eq!(
            entry.parse_tombstones(outside.render().as_bytes()),
            Err(PersistError::BadManifest(
                "tombstone doc id outside its segment"
            ))
        );
        assert_eq!(
            entry.parse_tombstones(&[0xff, 0xfe]),
            Err(PersistError::BadManifest("tombstone sidecar is not UTF-8"))
        );
        assert!(entry.parse_tombstones(b"pimento-tombstones v1\n").is_err());
    }

    #[test]
    fn malformed_manifests_rejected() {
        let bad = [
            "",
            "not-a-manifest\nsegment-000.v4.snap 0 3\n",
            "pimento-shards v2\ngeneration 0\n",
            "pimento-shards v2\ngeneration 0\nseg.snap zero 3\n",
            "pimento-shards v2\ngeneration 0\nseg.snap 0 none\n",
            "pimento-shards v2\ngeneration 0\nseg.snap 1 3\n",
            "pimento-shards v2\ngeneration 0\na.snap 0 3\nb.snap 5 1\n",
            "pimento-shards v2\ngeneration 0\nseg.snap 0 0\n",
            "pimento-shards v2\ngeneration 0\n../evil.snap 0 3\n",
            "pimento-shards v2\ngeneration 0\nsub/evil.snap 0 3\n",
            "pimento-shards v2\ngeneration 0\nMANIFEST 0 3\n",
            "pimento-shards v2\na.snap 0 3\n",
            "pimento-shards v2\ngeneration x\na.snap 0 3\n",
            "pimento-shards v2\ngeneration 1\na.snap 0 3 ../t\n",
            "pimento-shards v2\ngeneration 1\na.snap 0 3 t extra\n",
        ];
        for text in bad {
            let text = with_crc(text);
            assert!(
                matches!(
                    ShardManifest::parse(&text),
                    Err(PersistError::BadManifest(_))
                ),
                "{text:?}"
            );
        }
    }

    /// Append the v2 `crc` trailer to hand-written manifest text.
    fn with_crc(body: &str) -> String {
        format!("{body}crc {:08x}\n", crate::persist::crc32(body.as_bytes()))
    }

    #[test]
    fn v2_manifest_without_or_with_wrong_crc_rejected() {
        let good = with_crc("pimento-shards v2\ngeneration 1\na.snap 0 3\n");
        assert!(ShardManifest::parse(&good).is_ok());
        // Missing trailer (a torn prefix at a line boundary).
        assert!(matches!(
            ShardManifest::parse("pimento-shards v2\ngeneration 1\na.snap 0 3\n"),
            Err(PersistError::BadManifest("missing crc trailer"))
        ));
        // A torn prefix that keeps the trailer-less body plus garbage.
        let bad = good.replace("a.snap 0 3", "a.snap 0 4");
        assert!(matches!(
            ShardManifest::parse(&bad),
            Err(PersistError::BadManifest("manifest checksum mismatch"))
        ));
        // Every line-boundary prefix of a valid v2 manifest is rejected.
        for (i, _) in good.char_indices().filter(|(_, c)| *c == '\n') {
            let prefix = &good[..=i];
            if prefix.len() < good.len() {
                assert!(ShardManifest::parse(prefix).is_err(), "prefix {i} accepted");
            }
        }
    }

    #[test]
    fn duplicate_and_overlapping_entries_rejected() {
        // Same file listed twice (ranges contiguous, so only the
        // duplicate-file check can catch it).
        let dup = with_crc("pimento-shards v2\ngeneration 0\na.snap 0 3\na.snap 3 2\n");
        assert!(matches!(
            ShardManifest::parse(&dup),
            Err(PersistError::BadManifest("duplicate file in manifest"))
        ));
        // A tombstone sidecar colliding with a segment file.
        let collide = with_crc("pimento-shards v2\ngeneration 1\na.snap 0 3\nb.snap 3 2 a.snap\n");
        assert!(matches!(
            ShardManifest::parse(&collide),
            Err(PersistError::BadManifest("duplicate file in manifest"))
        ));
        // A segment naming itself as its tombstone sidecar.
        let self_ref = with_crc("pimento-shards v2\ngeneration 1\na.snap 0 3 a.snap\n");
        assert!(matches!(
            ShardManifest::parse(&self_ref),
            Err(PersistError::BadManifest("duplicate file in manifest"))
        ));
        // Overlapping ranges: second segment starts inside the first.
        let overlap = with_crc("pimento-shards v2\ngeneration 0\na.snap 0 3\nb.snap 2 2\n");
        assert!(matches!(
            ShardManifest::parse(&overlap),
            Err(PersistError::BadManifest(
                "doc ranges overlap or are not contiguous"
            ))
        ));
        // Duplicate range: both segments claim base 0.
        let same = with_crc("pimento-shards v2\ngeneration 0\na.snap 0 3\nb.snap 0 3\n");
        assert!(matches!(
            ShardManifest::parse(&same),
            Err(PersistError::BadManifest(
                "doc ranges overlap or are not contiguous"
            ))
        ));
    }

    proptest! {
        /// Any (num_docs, shards) pair yields contiguous disjoint covering
        /// non-empty ranges.
        #[test]
        fn split_ranges_always_partition(num_docs in 0usize..500, shards in 0usize..32) {
            let ranges = split_ranges(num_docs, shards);
            let mut cursor = 0usize;
            for r in &ranges {
                prop_assert_eq!(r.start, cursor);
                prop_assert!(r.end > r.start);
                cursor = r.end;
            }
            prop_assert_eq!(cursor, num_docs);
        }
    }
}
