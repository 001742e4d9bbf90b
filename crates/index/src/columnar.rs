//! `PIMCOL4` columnar snapshots: flat, offset-indexed, CRC-checked.
//!
//! A snapshot stores the parsed document arenas *and* the two indexes
//! built over them as flat sections behind a CRC-checked directory. This
//! module is the only place that knows the byte layout: [`save_index`]
//! writes it, and [`open_index`] validates and decodes every section, in
//! one pass, into exactly the structures [`TagIndex::build`] and
//! [`InvertedIndex::build`] produce — so a
//! reopened index is indistinguishable from a built one and the query
//! path has a single representation to read (DESIGN.md §13.4 has the
//! measurement behind decoding at open rather than on access).
//!
//! ## On-disk layout (all integers little-endian)
//!
//! ```text
//! header   24 bytes:
//!   magic          "PIMCOL4\0"                      8 bytes
//!   u32            format version (4)
//!   u32            section count
//!   u32            CRC32 of the section directory
//!   u32            reserved (0)
//! directory  32 bytes per section:
//!   name           8 bytes, NUL-padded ASCII
//!   u64            section offset (from file start, 8-byte aligned)
//!   u64            section length in bytes
//!   u32            CRC32 of the section bytes
//!   u32            reserved (0)
//! sections   each 8-byte aligned, zero-padded between:
//!   meta     u32 tokenizer kind (0 plain / 1 stemming), u32 doc count,
//!            u32 symbol count, u32 reserved
//!   symtab   dense symbol column (see `SymbolTable::column_bytes`)
//!   docs     node arenas, one per document in id order (the per-node
//!            record encoding of `crate::persist`)
//!   tags     u32 sym domain, u32 total rows,
//!            per-symbol directory (u32 start row, u32 row count) × domain,
//!            18-byte element rows (u32 doc, u32 node, u32 start, u32 end,
//!            u16 level), (doc, start)-sorted per symbol
//!   inv      u32 doc count, u32 token count, u32 name-heap length,
//!            u32 runs-blob length; u32 per-doc token counts;
//!            24-byte token rows sorted by name (u32 name offset, u32 name
//!            length, u32 doc freq, u32 run count, u32 runs offset,
//!            u32 total postings); UTF-8 name heap; runs blob — per token:
//!            12-byte doc-run entries (u32 doc, u32 payload offset, u32
//!            posting count), then delta-encoded varint payload, each
//!            posting a (pos, label, text-node) triple of deltas from the
//!            previous posting of the run (from zero for the first; see
//!            `crate::varint`)
//! ```
//!
//! Names, run blobs and per-symbol row spans are laid out back to back in
//! directory order, and the opener insists on it: every offset must equal
//! the end of its predecessor and the last must land on the section end.
//! No two entries can therefore alias the same bytes (decoded size is
//! bounded by file size) and every file this writer produced re-serializes
//! to the same bytes, which is what lets the scrubber repair a segment
//! bit-identically.
//!
//! A directory entry with any other name is skipped unread by the opener
//! and still CRC-checked by [`inspect`]. Files written before the format
//! dropped its numeric value index carry such a `vals` section; they open
//! to the same indexes, but re-serialize without it (DESIGN.md §13.2).
//!
//! Integrity is per-section: the opener checks the directory CRC, then for
//! each section its CRC and, while decoding, its structure (spans, counts,
//! offsets, varint runs, id ranges) — a flipped bit, a truncation or a
//! malformed-but-checksummed section surfaces as
//! [`PersistError::SnapshotCorrupt`] *naming the failing section* from
//! `open_index`, before any query can observe bad data. Older magics
//! (v1–v3) are rejected with the typed [`PersistError::SnapshotVersion`].

use crate::inverted::{InvertedIndex, Posting, TokenEntry};
use crate::persist::{crc32, put_document, read_document, PersistError};
use crate::store::{Collection, DocId};
use crate::tags::{ElemEntry, TagIndex};
use crate::tokenize::Tokenizer;
use crate::varint::{get_varint, put_varint};
use bytes::Bytes;
use pimento_xml::{NodeId, SymbolId, SymbolTable};
use std::collections::HashMap;

/// v4 magic: the columnar format this module reads and writes.
pub(crate) const COLUMNAR_MAGIC: &[u8; 8] = b"PIMCOL4\0";
/// Columnar snapshot format version (the `u32` following the magic).
pub const COLUMNAR_VERSION: u32 = 4;

/// Header size: magic + version + section count + directory CRC + reserved.
const HEADER_LEN: usize = 24;
/// Directory row size: name + offset + length + CRC + reserved.
const DIR_ROW: usize = 32;
/// One element row: four `u32`s + one `u16`, unpadded.
const ELEM_ROW: usize = 18;
/// One token-directory row: `name_off`, `name_len`, `doc_freq`,
/// `run_count`, `runs_off`, `total_postings` — six `u32`s.
const TOKEN_ROW: usize = 24;
/// One per-document run-table entry: `doc`, `payload_off` (relative to the
/// token's varint payload base), `posting_count`.
const RUN_ROW: usize = 12;

/// Section names in file order. The opener looks sections up by name, so
/// order is a writer convention, not a reader requirement.
const SECTIONS: [&str; 5] = ["meta", "symtab", "docs", "tags", "inv"];

/// Everything a columnar snapshot opens into: the document store and the
/// two indexes over it, decoded.
#[derive(Debug)]
pub struct OpenedIndex {
    /// Document arenas + symbol table.
    pub collection: Collection,
    /// Inverted index.
    pub inverted: InvertedIndex,
    /// Tag index.
    pub tags: TagIndex,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn align8(buf: &mut Vec<u8>) {
    while !buf.len().is_multiple_of(8) {
        buf.push(0);
    }
}

fn meta_section(tokenizer: Tokenizer, doc_count: u32, sym_count: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&u32::from(tokenizer.stemming).to_le_bytes());
    out.extend_from_slice(&doc_count.to_le_bytes());
    out.extend_from_slice(&sym_count.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out
}

fn docs_section(coll: &Collection) -> Vec<u8> {
    let mut out = Vec::new();
    for (_, doc) in coll.iter() {
        put_document(&mut out, doc);
    }
    out
}

fn put_elem_row(out: &mut Vec<u8>, e: &ElemEntry) {
    out.extend_from_slice(&e.doc.0.to_le_bytes());
    out.extend_from_slice(&e.node.0.to_le_bytes());
    out.extend_from_slice(&e.start.to_le_bytes());
    out.extend_from_slice(&e.end.to_le_bytes());
    out.extend_from_slice(&e.level.to_le_bytes());
}

/// The `tags` section: a per-symbol `(start row, row count)` directory
/// over the whole symbol domain, then the element rows.
fn tags_section(tags: &TagIndex, sym_domain: u32) -> Vec<u8> {
    let mut dir = Vec::with_capacity(sym_domain as usize * 8);
    let mut rows = Vec::new();
    let mut start = 0u32;
    for s in 0..sym_domain {
        let list = tags.elements(SymbolId(s));
        dir.extend_from_slice(&start.to_le_bytes());
        dir.extend_from_slice(&(list.len() as u32).to_le_bytes());
        for row in list {
            put_elem_row(&mut rows, row);
        }
        start += list.len() as u32;
    }
    let mut out = Vec::with_capacity(8 + dir.len() + rows.len());
    out.extend_from_slice(&sym_domain.to_le_bytes());
    out.extend_from_slice(&start.to_le_bytes());
    out.extend_from_slice(&dir);
    out.extend_from_slice(&rows);
    out
}

/// Delta-encode one `(token, doc)` posting run: each triple as its
/// difference from the previous one (from zero for the first); all three
/// components are nondecreasing in document order.
fn put_run_payload(out: &mut Vec<u8>, run: &[Posting]) {
    let (mut pp, mut pl, mut pt) = (0u32, 0u32, 0u32);
    for p in run {
        debug_assert!(p.pos >= pp && p.label >= pl && p.text_node.0 >= pt);
        put_varint(out, p.pos - pp);
        put_varint(out, p.label - pl);
        put_varint(out, p.text_node.0 - pt);
        (pp, pl, pt) = (p.pos, p.label, p.text_node.0);
    }
}

fn inv_section(inverted: &InvertedIndex) -> Vec<u8> {
    let mut tokens: Vec<(&String, &TokenEntry)> = inverted.tokens.iter().collect();
    tokens.sort_unstable_by_key(|(name, _)| *name);
    let mut doc_tokens = Vec::with_capacity(inverted.doc_tokens.len() * 4);
    for n in &inverted.doc_tokens {
        doc_tokens.extend_from_slice(&n.to_le_bytes());
    }
    let mut token_rows = Vec::with_capacity(tokens.len() * TOKEN_ROW);
    let mut name_heap = Vec::new();
    let mut runs = Vec::new();
    for (name, entry) in &tokens {
        // Split into per-document runs (postings are (doc, pos)-sorted).
        let mut run_table = Vec::new();
        let mut payload = Vec::new();
        for run in entry.postings.chunk_by(|a, b| a.doc == b.doc) {
            run_table.extend_from_slice(&run[0].doc.0.to_le_bytes());
            run_table.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            run_table.extend_from_slice(&(run.len() as u32).to_le_bytes());
            put_run_payload(&mut payload, run);
        }
        token_rows.extend_from_slice(&(name_heap.len() as u32).to_le_bytes());
        token_rows.extend_from_slice(&(name.len() as u32).to_le_bytes());
        token_rows.extend_from_slice(&entry.doc_freq.to_le_bytes());
        token_rows.extend_from_slice(&((run_table.len() / RUN_ROW) as u32).to_le_bytes());
        token_rows.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        token_rows.extend_from_slice(&(entry.postings.len() as u32).to_le_bytes());
        name_heap.extend_from_slice(name.as_bytes());
        runs.extend_from_slice(&run_table);
        runs.extend_from_slice(&payload);
    }
    let mut out =
        Vec::with_capacity(16 + doc_tokens.len() + token_rows.len() + name_heap.len() + runs.len());
    out.extend_from_slice(&(inverted.doc_tokens.len() as u32).to_le_bytes());
    out.extend_from_slice(&(tokens.len() as u32).to_le_bytes());
    out.extend_from_slice(&(name_heap.len() as u32).to_le_bytes());
    out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    out.extend_from_slice(&doc_tokens);
    out.extend_from_slice(&token_rows);
    out.extend_from_slice(&name_heap);
    out.extend_from_slice(&runs);
    out
}

/// Serialize the collection *and its indexes* into a v4 columnar snapshot.
///
/// The indexes must have been built over exactly `coll` (the engine owns
/// that invariant); the symbol domain of the `tags` directory is the
/// collection's symbol count.
pub fn save_index(coll: &Collection, inverted: &InvertedIndex, tags: &TagIndex) -> Bytes {
    let sym_count = coll.symbols().len() as u32;
    let doc_count = coll.len() as u32;
    debug_assert_eq!(inverted.num_docs(), doc_count);
    let sections: [(&str, Vec<u8>); 5] = [
        (
            "meta",
            meta_section(inverted.tokenizer(), doc_count, sym_count),
        ),
        ("symtab", coll.symbols().column_bytes()),
        ("docs", docs_section(coll)),
        ("tags", tags_section(tags, sym_count)),
        ("inv", inv_section(inverted)),
    ];
    debug_assert!(sections.iter().map(|(n, _)| *n).eq(SECTIONS));

    // Lay out the payload after header + directory, 8-byte aligning each
    // section so every offset in the directory is directly sliceable.
    let mut payload = Vec::new();
    let base = HEADER_LEN + DIR_ROW * sections.len();
    debug_assert_eq!(base % 8, 0);
    let mut directory = Vec::with_capacity(DIR_ROW * sections.len());
    for (name, bytes) in &sections {
        align8(&mut payload);
        let offset = (base + payload.len()) as u64;
        let mut name8 = [0u8; 8];
        name8[..name.len()].copy_from_slice(name.as_bytes());
        directory.extend_from_slice(&name8);
        directory.extend_from_slice(&offset.to_le_bytes());
        directory.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        directory.extend_from_slice(&crc32(bytes).to_le_bytes());
        directory.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(bytes);
    }

    let mut out = Vec::with_capacity(base + payload.len());
    out.extend_from_slice(COLUMNAR_MAGIC);
    out.extend_from_slice(&COLUMNAR_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&directory).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&directory);
    out.extend_from_slice(&payload);
    Bytes::from(out)
}

// ---------------------------------------------------------------------------
// Opener
// ---------------------------------------------------------------------------

/// Little-endian field readers. Callers hand them a window they have
/// already sized (a header after its length check, one `chunks_exact`
/// row), so a read past the end cannot happen; it is asserted in debug
/// builds and yields zero rather than a panic in release builds.
fn u16_at(b: &[u8], off: usize) -> u16 {
    let mut raw = [0u8; 2];
    match off.checked_add(2).and_then(|end| b.get(off..end)) {
        Some(src) => raw.copy_from_slice(src),
        None => debug_assert!(false, "u16_at past the sized window"),
    }
    u16::from_le_bytes(raw)
}

fn u32_at(b: &[u8], off: usize) -> u32 {
    let mut raw = [0u8; 4];
    match off.checked_add(4).and_then(|end| b.get(off..end)) {
        Some(src) => raw.copy_from_slice(src),
        None => debug_assert!(false, "u32_at past the sized window"),
    }
    u32::from_le_bytes(raw)
}

fn u64_at(b: &[u8], off: usize) -> u64 {
    let mut raw = [0u8; 8];
    match off.checked_add(8).and_then(|end| b.get(off..end)) {
        Some(src) => raw.copy_from_slice(src),
        None => debug_assert!(false, "u64_at past the sized window"),
    }
    u64::from_le_bytes(raw)
}

/// One parsed directory entry.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    name: &'static str,
    offset: usize,
    len: usize,
    crc: u32,
}

/// Map a NUL-padded directory name to its static section name (so
/// corruption errors can carry `&'static str`).
fn section_name(raw: &[u8]) -> Option<&'static str> {
    let trimmed: &[u8] = match raw.iter().position(|&b| b == 0) {
        Some(n) => raw.get(..n)?,
        None => raw,
    };
    SECTIONS.into_iter().find(|s| s.as_bytes() == trimmed)
}

/// Checked slice of `data[off..off + len]`: directory-supplied offsets are
/// untrusted, so overflow and out-of-bounds both land on `Truncated`
/// instead of wrapping or panicking.
fn slice_at(data: &[u8], off: usize, len: usize) -> Result<&[u8], PersistError> {
    off.checked_add(len)
        .and_then(|end| data.get(off..end))
        .ok_or(PersistError::Truncated)
}

/// Triage the header: magic family and version. Shared by the opener and
/// [`inspect`].
fn check_header(data: &[u8]) -> Result<u32, PersistError> {
    // Magic first: a pre-columnar file of any length is "wrong version",
    // not "truncated" or "corrupt" — nothing of it is ever decoded.
    let magic = data.get(..8).ok_or(PersistError::Truncated)?;
    for (old, found) in [(b"PIMCOL1\0", 1u32), (b"PIMCOL2\0", 2), (b"PIMCOL3\0", 3)] {
        if magic == old.as_slice() {
            return Err(PersistError::SnapshotVersion {
                found,
                expected: COLUMNAR_VERSION,
            });
        }
    }
    if magic != COLUMNAR_MAGIC.as_slice() {
        return Err(PersistError::BadMagic);
    }
    if data.len() < HEADER_LEN {
        return Err(PersistError::Truncated);
    }
    let version = u32_at(data, 8);
    if version != COLUMNAR_VERSION {
        return Err(PersistError::SnapshotVersion {
            found: version,
            expected: COLUMNAR_VERSION,
        });
    }
    Ok(u32_at(data, 12))
}

/// Parse and CRC-verify the section directory.
fn read_directory(data: &[u8]) -> Result<Vec<DirEntry>, PersistError> {
    let section_count = check_header(data)? as usize;
    let dir_len = DIR_ROW
        .checked_mul(section_count)
        .ok_or(PersistError::Truncated)?;
    let dir_bytes = slice_at(data, HEADER_LEN, dir_len)?;
    if crc32(dir_bytes) != u32_at(data, 16) {
        return Err(PersistError::SnapshotCorrupt {
            section: "directory",
        });
    }
    let mut entries = Vec::with_capacity(section_count);
    for row in dir_bytes.chunks_exact(DIR_ROW) {
        let Some(name) = row.get(..8).and_then(section_name) else {
            // Unknown sections (a retired `vals`, or one from a future
            // minor revision) are skipped; their bytes are never referenced.
            continue;
        };
        let offset = u64_at(row, 8) as usize;
        let len = u64_at(row, 16) as usize;
        if offset.checked_add(len).is_none_or(|end| end > data.len()) {
            return Err(PersistError::Truncated);
        }
        entries.push(DirEntry {
            name,
            offset,
            len,
            crc: u32_at(row, 24),
        });
    }
    Ok(entries)
}

/// Open a v4 columnar snapshot: validate and decode every known section,
/// in file order, into the document store and the two indexes over it.
///
/// Each section is CRC-checked and then decoded in one pass over its
/// bytes; nothing borrows from `data` afterwards.
pub fn open_index(data: &[u8]) -> Result<OpenedIndex, PersistError> {
    let entries = read_directory(data)?;
    #[cfg(feature = "fault-injection")]
    if pimento_faults::should_fire("index.persist.load") {
        return Err(PersistError::SnapshotCorrupt {
            section: "directory",
        });
    }
    let section = |name: &'static str| -> Result<&[u8], PersistError> {
        let e = entries
            .iter()
            .find(|e| e.name == name)
            .ok_or(PersistError::BadArena("missing snapshot section"))?;
        let bytes = slice_at(data, e.offset, e.len)?;
        if crc32(bytes) != e.crc {
            return Err(PersistError::SnapshotCorrupt { section: name });
        }
        Ok(bytes)
    };

    let m = section("meta")?;
    if m.len() < 16 {
        return Err(PersistError::SnapshotCorrupt { section: "meta" });
    }
    let tokenizer = match u32_at(m, 0) {
        0 => Tokenizer::plain(),
        1 => Tokenizer::stemming(),
        _ => return Err(PersistError::BadArena("unknown tokenizer kind")),
    };
    let doc_count = u32_at(m, 4);
    let sym_count = u32_at(m, 8);

    let symbols =
        SymbolTable::from_column_bytes(section("symtab")?).map_err(PersistError::BadArena)?;
    if symbols.len() as u32 != sym_count {
        return Err(PersistError::BadArena("symbol count mismatch"));
    }

    let mut collection = Collection::new();
    *collection.symbols_mut() = symbols;
    let mut buf = section("docs")?;
    for _ in 0..doc_count {
        let doc = read_document(&mut buf, sym_count)?;
        collection.add_document(doc);
    }
    if !buf.is_empty() {
        return Err(PersistError::BadArena("trailing bytes after documents"));
    }

    let tags = decode_tags(section("tags")?, sym_count, &collection)?;
    let inverted = decode_inv(section("inv")?, tokenizer, doc_count)?;

    Ok(OpenedIndex {
        collection,
        inverted,
        tags,
    })
}

/// Decode the `tags` section against the already-decoded `coll`.
fn decode_tags(b: &[u8], sym_count: u32, coll: &Collection) -> Result<TagIndex, PersistError> {
    let corrupt = || PersistError::SnapshotCorrupt { section: "tags" };
    // Element rows address nodes of the documents just decoded; a row
    // pointing outside them would panic the first query that follows it.
    // A row's tag is not stored: it is the symbol of the span holding the
    // row, and the node must be an element with that tag, because queries
    // test tags on the entry and never look at the node again.
    let docs: Vec<_> = coll.iter().map(|(_, d)| d.nodes()).collect();
    let decode_row = |row: &[u8], tag: SymbolId| {
        let e = ElemEntry {
            doc: DocId(u32_at(row, 0)),
            node: NodeId(u32_at(row, 4)),
            tag,
            start: u32_at(row, 8),
            end: u32_at(row, 12),
            level: u16_at(row, 16),
        };
        let node = docs.get(e.doc.0 as usize)?.get(e.node.0 as usize)?;
        (node.tag() == Some(tag)).then_some(e)
    };
    if b.len() < 8 {
        return Err(corrupt());
    }
    let domain = u32_at(b, 0);
    let total = u32_at(b, 4) as usize;
    if domain != sym_count {
        return Err(corrupt());
    }
    let dir_len = (domain as usize).checked_mul(8).ok_or_else(corrupt)?;
    let rows_len = total.checked_mul(ELEM_ROW).ok_or_else(corrupt)?;
    let (dir, rows) = b
        .get(8..)
        .and_then(|body| body.split_at_checked(dir_len))
        .ok_or_else(corrupt)?;
    if rows.len() != rows_len {
        return Err(corrupt());
    }
    // The per-symbol spans tile the row region in symbol order, so the
    // rows are consumed front to back, each exactly once.
    let mut rows = rows.chunks_exact(ELEM_ROW);
    let mut next_row = 0usize;
    let mut by_tag = HashMap::new();
    for (sym, span) in (0..domain).zip(dir.chunks_exact(8)) {
        let start = u32_at(span, 0) as usize;
        let count = u32_at(span, 4) as usize;
        if start != next_row {
            return Err(corrupt());
        }
        if count == 0 {
            continue;
        }
        if count > rows.len() {
            return Err(corrupt());
        }
        let mut list = Vec::with_capacity(count);
        for row in rows.by_ref().take(count) {
            list.push(decode_row(row, SymbolId(sym)).ok_or_else(corrupt)?);
        }
        next_row = next_row.checked_add(count).ok_or_else(corrupt)?;
        by_tag.insert(SymbolId(sym), list);
    }
    if next_row != total {
        return Err(corrupt());
    }
    Ok(TagIndex { by_tag })
}

/// Decode `count` delta-encoded posting triples of document `doc` from the
/// front of `buf`, returning the remaining bytes. `None` on a truncated or
/// overlong varint, or a delta that overflows `u32`.
fn decode_run<'a>(
    mut buf: &'a [u8],
    count: usize,
    doc: DocId,
    out: &mut Vec<Posting>,
) -> Option<&'a [u8]> {
    let (mut pos, mut label, mut text) = (0u32, 0u32, 0u32);
    for _ in 0..count {
        let (dp, rest) = get_varint(buf)?;
        let (dl, rest) = get_varint(rest)?;
        let (dt, rest) = get_varint(rest)?;
        buf = rest;
        pos = pos.checked_add(dp)?;
        label = label.checked_add(dl)?;
        text = text.checked_add(dt)?;
        out.push(Posting {
            doc,
            pos,
            label,
            text_node: NodeId(text),
        });
    }
    Some(buf)
}

/// Decode the `inv` section.
fn decode_inv(
    b: &[u8],
    tokenizer: Tokenizer,
    expect_docs: u32,
) -> Result<InvertedIndex, PersistError> {
    let corrupt = || PersistError::SnapshotCorrupt { section: "inv" };
    if b.len() < 16 {
        return Err(corrupt());
    }
    let token_count = u32_at(b, 4) as usize;
    let names_len = u32_at(b, 8) as usize;
    let runs_len = u32_at(b, 12) as usize;
    if u32_at(b, 0) != expect_docs {
        return Err(corrupt());
    }
    // Four windows back to back, filling the section exactly.
    let mut rest = b.get(16..).ok_or_else(corrupt)?;
    let mut window = |len: Option<usize>| {
        let (head, tail) = rest.split_at_checked(len?)?;
        rest = tail;
        Some(head)
    };
    let doc_tokens = window((expect_docs as usize).checked_mul(4)).ok_or_else(corrupt)?;
    let token_rows = window(token_count.checked_mul(TOKEN_ROW)).ok_or_else(corrupt)?;
    let names = window(Some(names_len)).ok_or_else(corrupt)?;
    let runs = window(Some(runs_len)).ok_or_else(corrupt)?;
    if !rest.is_empty() {
        return Err(corrupt());
    }

    let mut tokens = HashMap::with_capacity(token_count);
    let (mut names_at, mut runs_at) = (0usize, 0usize);
    let mut prev_name: Option<&str> = None;
    for trow in token_rows.chunks_exact(TOKEN_ROW) {
        let name_len = u32_at(trow, 4) as usize;
        let doc_freq = u32_at(trow, 8);
        let run_count = u32_at(trow, 12) as usize;
        let total_postings = u32_at(trow, 20) as usize;
        if u32_at(trow, 0) as usize != names_at
            || u32_at(trow, 16) as usize != runs_at
            || run_count == 0
        {
            return Err(corrupt());
        }
        // Names are valid UTF-8 and strictly sorted (one entry per token).
        let name = slice_at(names, names_at, name_len)
            .ok()
            .and_then(|raw| std::str::from_utf8(raw).ok())
            .filter(|name| prev_name.is_none_or(|p| p < *name))
            .ok_or_else(corrupt)?;
        prev_name = Some(name);
        names_at = names_at.checked_add(name_len).ok_or_else(corrupt)?;

        let table_len = run_count.checked_mul(RUN_ROW).ok_or_else(corrupt)?;
        let (table, payload) = runs
            .get(runs_at..)
            .and_then(|blob| blob.split_at_checked(table_len))
            .ok_or_else(corrupt)?;
        // A posting takes at least three payload bytes: this bounds the
        // allocation below by the bytes actually present.
        if total_postings
            .checked_mul(3)
            .is_none_or(|least| least > payload.len())
        {
            return Err(corrupt());
        }
        let mut postings = Vec::with_capacity(total_postings);
        let mut unread = payload;
        let mut prev_doc = None;
        for run in table.chunks_exact(RUN_ROW) {
            let doc = u32_at(run, 0);
            let count = u32_at(run, 8) as usize;
            // One nonempty run per document, documents ascending, each
            // run's payload starting where the previous one ended.
            if doc >= expect_docs
                || prev_doc.is_some_and(|p| doc <= p)
                || count == 0
                || u32_at(run, 4) as usize != payload.len() - unread.len()
            {
                return Err(corrupt());
            }
            prev_doc = Some(doc);
            unread = decode_run(unread, count, DocId(doc), &mut postings).ok_or_else(corrupt)?;
        }
        if postings.len() != total_postings || doc_freq as usize != run_count {
            return Err(corrupt());
        }
        runs_at = runs_len - unread.len();
        tokens.insert(name.to_string(), TokenEntry { doc_freq, postings });
    }
    if names_at != names_len || runs_at != runs_len {
        return Err(corrupt());
    }
    Ok(InvertedIndex {
        tokenizer,
        tokens,
        doc_tokens: doc_tokens.chunks_exact(4).map(|c| u32_at(c, 0)).collect(),
    })
}

// ---------------------------------------------------------------------------
// Inspection (the `pimento snapshot inspect` CLI)
// ---------------------------------------------------------------------------

/// One section as reported by [`inspect`].
#[derive(Debug, Clone)]
pub struct SectionReport {
    /// Section name (`"body"` for a v3 snapshot's single region).
    pub name: String,
    /// Byte offset from the start of the file.
    pub offset: u64,
    /// Section length in bytes.
    pub len: u64,
    /// Stored CRC32.
    pub crc: u32,
    /// Whether the recomputed CRC matches.
    pub crc_ok: bool,
}

/// What [`inspect`] reports about a snapshot file.
#[derive(Debug, Clone)]
pub struct SnapshotReport {
    /// Declared format version (3 or 4).
    pub version: u32,
    /// Total file length in bytes.
    pub file_len: u64,
    /// Whether the v4 section directory passed its CRC (always `true` for
    /// v3, which has no directory).
    pub directory_ok: bool,
    /// Per-section breakdown.
    pub sections: Vec<SectionReport>,
}

/// Describe a snapshot without opening it: magic/version triage, then the
/// section directory with per-section CRC verdicts. Pre-columnar files
/// (v1–v3) return the typed version error. CRC mismatches are *reported*,
/// not errors — this is the diagnostic path for damaged files.
pub fn inspect(data: &[u8]) -> Result<SnapshotReport, PersistError> {
    let section_count = check_header(data)? as usize;
    let dir_len = DIR_ROW
        .checked_mul(section_count)
        .ok_or(PersistError::Truncated)?;
    let dir_bytes = slice_at(data, HEADER_LEN, dir_len)?;
    let directory_ok = crc32(dir_bytes) == u32_at(data, 16);
    let mut sections = Vec::with_capacity(section_count);
    for row in dir_bytes.chunks_exact(DIR_ROW) {
        let raw_name = row.get(..8).unwrap_or(&[]);
        let nul = raw_name
            .iter()
            .position(|&b| b == 0)
            .unwrap_or(raw_name.len());
        let name = String::from_utf8_lossy(raw_name.get(..nul).unwrap_or(raw_name)).into_owned();
        let offset = u64_at(row, 8);
        let len = u64_at(row, 16);
        let crc = u32_at(row, 24);
        // Out-of-bounds or overflowing spans are *reported* (crc_ok false),
        // not errors — this is the diagnostic path for damaged files.
        let window = offset
            .checked_add(len)
            .and_then(|end| usize::try_from(end).ok())
            .and_then(|end| usize::try_from(offset).ok().map(|start| (start, end)))
            .and_then(|(start, end)| data.get(start..end));
        let crc_ok = window.is_some_and(|w| crc32(w) == crc);
        sections.push(SectionReport {
            name,
            offset,
            len,
            crc,
            crc_ok,
        });
    }
    Ok(SnapshotReport {
        version: COLUMNAR_VERSION,
        file_len: data.len() as u64,
        directory_ok,
        sections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Collection, InvertedIndex, TagIndex) {
        let mut c = Collection::new();
        c.add_xml(
            r#"<dealer loc="cambridge"><car color="red"><price>500</price><note>good and cheap</note></car><car><price>2500</price><note>good condition</note></car></dealer>"#,
        )
        .unwrap();
        c.add_xml("<dealer><car><!--traded--><price>900</price><note>fair</note></car></dealer>")
            .unwrap();
        let inv = InvertedIndex::build(&c, Tokenizer::plain());
        let tags = TagIndex::build(&c);
        (c, inv, tags)
    }

    fn snapshot() -> (Collection, InvertedIndex, TagIndex, Bytes) {
        let (c, inv, tags) = sample();
        let snap = save_index(&c, &inv, &tags);
        (c, inv, tags, snap)
    }

    #[test]
    fn reopened_equals_built_and_resaves_to_the_same_bytes() {
        let (c, inv, tags, snap) = snapshot();
        let opened = open_index(&snap).unwrap();

        // Collection: same docs, same symbols/ids.
        assert_eq!(opened.collection.len(), c.len());
        for (i, name) in c.symbols().iter().enumerate() {
            assert_eq!(opened.collection.symbols().name(SymbolId(i as u32)), name);
        }
        // The decoded indexes are the built ones, structurally.
        assert_eq!(opened.inverted, inv);
        assert_eq!(opened.tags, tags);
        // Byte fixed point: the scrubber's bit-identical repair relies on it.
        let resaved = save_index(&opened.collection, &opened.inverted, &opened.tags);
        assert_eq!(resaved, snap);
    }

    #[test]
    fn empty_collection_roundtrips() {
        let c = Collection::new();
        let inv = InvertedIndex::build(&c, Tokenizer::plain());
        let tags = TagIndex::build(&c);
        let opened = open_index(&save_index(&c, &inv, &tags)).unwrap();
        assert!(opened.collection.is_empty());
        assert_eq!(opened.inverted.num_docs(), 0);
        assert_eq!(opened.tags, tags);
    }

    #[test]
    fn stemming_tokenizer_survives_roundtrip() {
        let mut c = Collection::new();
        c.add_xml("<a>selling cars</a>").unwrap();
        let inv = InvertedIndex::build(&c, Tokenizer::stemming());
        let tags = TagIndex::build(&c);
        let opened = open_index(&save_index(&c, &inv, &tags)).unwrap();
        assert!(opened.inverted.tokenizer().stemming);
        assert_eq!(opened.inverted.postings("car").len(), 1);
        assert_eq!(opened.inverted.analyze("Cars"), ["car"]);
    }

    #[test]
    fn corruption_matrix_names_the_failing_section() {
        let (.., snap) = snapshot();
        let report = inspect(&snap).unwrap();
        // Flip one bit inside every section in turn; the open must fail
        // with SnapshotCorrupt naming exactly that section.
        for s in &report.sections {
            let mut bytes = snap.to_vec();
            bytes[s.offset as usize + (s.len as usize) / 2] ^= 0x40;
            match open_index(&bytes) {
                Err(PersistError::SnapshotCorrupt { section }) => {
                    assert_eq!(section, s.name, "flip in {} misattributed", s.name)
                }
                other => panic!("flip in {} not detected: {other:?}", s.name),
            }
        }
        // Directory corruption names the directory.
        let mut bytes = snap.to_vec();
        bytes[HEADER_LEN + 9] ^= 0x01;
        assert!(matches!(
            open_index(&bytes),
            Err(PersistError::SnapshotCorrupt {
                section: "directory"
            })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let (.., snap) = snapshot();
        for cut in [
            0,
            4,
            12,
            HEADER_LEN - 1,
            HEADER_LEN + 3,
            snap.len() / 2,
            snap.len() - 1,
        ] {
            assert!(open_index(&snap[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn version_triage() {
        let (.., snap) = snapshot();
        // Older magics are typed version errors, not corruption.
        for (magic, found) in [(b"PIMCOL1\0", 1u32), (b"PIMCOL2\0", 2), (b"PIMCOL3\0", 3)] {
            let mut bytes = snap.to_vec();
            bytes[..8].copy_from_slice(magic);
            assert!(matches!(
                open_index(&bytes),
                Err(PersistError::SnapshotVersion { found: f, expected: COLUMNAR_VERSION }) if f == found
            ));
        }
        // Unknown magic.
        let mut bytes = snap.to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            open_index(&bytes),
            Err(PersistError::BadMagic)
        ));
        // Future version word.
        let mut bytes = snap.to_vec();
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            open_index(&bytes),
            Err(PersistError::SnapshotVersion {
                found: 9,
                expected: COLUMNAR_VERSION
            })
        ));
    }

    #[test]
    fn inspect_reports_sections() {
        let (.., snap) = snapshot();
        let report = inspect(&snap).unwrap();
        assert_eq!(report.version, COLUMNAR_VERSION);
        assert_eq!(report.file_len, snap.len() as u64);
        assert!(report.directory_ok);
        let names: Vec<&str> = report.sections.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, SECTIONS);
        assert!(report.sections.iter().all(|s| s.crc_ok));
        // Offsets are 8-byte aligned and nonoverlapping in order.
        let mut prev_end = (HEADER_LEN + DIR_ROW * SECTIONS.len()) as u64;
        for s in &report.sections {
            assert_eq!(s.offset % 8, 0);
            assert!(s.offset >= prev_end);
            prev_end = s.offset + s.len;
        }
        // A flipped bit turns exactly one section's verdict false.
        let mut bytes = snap.to_vec();
        let tags = report.sections.iter().find(|s| s.name == "tags").unwrap();
        bytes[tags.offset as usize + 1] ^= 0x80;
        let damaged = inspect(&bytes).unwrap();
        let bad: Vec<&str> = damaged
            .sections
            .iter()
            .filter(|s| !s.crc_ok)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(bad, ["tags"]);
        // Pre-columnar magics: typed version error, however short the file.
        for (magic, found) in [(b"PIMCOL1\0", 1u32), (b"PIMCOL2\0", 2), (b"PIMCOL3\0", 3)] {
            let mut old = snap.to_vec();
            old[..8].copy_from_slice(magic);
            for len in [8, 12, old.len()] {
                assert!(matches!(
                    inspect(&old[..len]),
                    Err(PersistError::SnapshotVersion { found: f, expected: COLUMNAR_VERSION }) if f == found
                ));
            }
        }
    }
}
