//! `PIMCOL4` columnar snapshots: flat, offset-indexed, CRC-checked.
//!
//! The legacy v3 snapshot ([`crate::persist`]) stores only the parsed
//! document arenas; every open re-builds the tag, value, and inverted
//! indexes on the heap. This module writes the *indexes themselves* as
//! flat columnar sections, so opening a snapshot is O(validation) instead
//! of O(rebuild): the file loads into one immutable [`Bytes`] buffer and
//! the packed index backings ([`TagIndex`], [`ValueIndex`],
//! [`InvertedIndex`]) are zero-copy windows over it — no per-posting or
//! per-element heap allocation happens at open. ("Zero-copy" throughout
//! means *no rebuild*: the crate is `forbid(unsafe_code)`, so packed rows
//! are decoded on access with `from_le_bytes`, never pointer-cast.)
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
//!   docs     node arenas, one per document in id order (the v3 per-node
//!            record encoding; decoded to heap at open — documents are
//!            the one part queries mutate/traverse as linked arenas)
//!   tags     u32 sym domain, u32 total rows,
//!            per-symbol directory (u32 start row, u32 row count) × domain,
//!            18-byte element rows (u32 doc, u32 node, u32 start, u32 end,
//!            u16 level), (doc, start)-sorted per symbol
//!   vals     same shape as tags with 26-byte rows: u64 f64-bits value
//!            followed by the 18-byte element row, value-sorted per symbol
//!   inv      u32 doc count, u32 token count, u32 name-heap length,
//!            u32 runs-blob length; u32 per-doc token counts;
//!            24-byte token rows sorted by name (u32 name offset, u32 name
//!            length, u32 doc freq, u32 run count, u32 runs offset,
//!            u32 total postings); UTF-8 name heap; runs blob — per token:
//!            12-byte doc-run entries (u32 doc, u32 payload offset, u32
//!            posting count), then delta-encoded varint payload, each
//!            posting a (pos, label, text-node) triple, first absolute,
//!            rest deltas (see `crate::varint`)
//! ```
//!
//! Integrity is per-section: the opener checks the directory CRC, then
//! each section's CRC, then structural bounds (directory spans, row
//! counts, name/run offsets) — a flipped bit or truncation surfaces as
//! [`PersistError::SnapshotCorrupt`] *naming the failing section* before
//! any query can observe bad data. Older magics (v1–v3) are rejected with
//! the typed [`PersistError::SnapshotVersion`].

use crate::inverted::{InvertedIndex, Posting, RUN_ROW, TOKEN_ROW};
use crate::persist::{crc32, put_document, read_document, PersistError};
use crate::store::{Collection, DocId};
use crate::tags::{put_elem_row, u32_at, u64_at, TagIndex, ELEM_ROW};
use crate::tokenize::Tokenizer;
use crate::values::{put_val_row, ValueIndex, VAL_ROW};
use crate::varint::put_varint;
use bytes::Bytes;
use pimento_xml::{SymbolId, SymbolTable};

/// v4 magic: the columnar format this module reads and writes.
pub(crate) const COLUMNAR_MAGIC: &[u8; 8] = b"PIMCOL4\0";
/// Columnar snapshot format version (the `u32` following the magic).
pub const COLUMNAR_VERSION: u32 = 4;

/// Header size: magic + version + section count + directory CRC + reserved.
const HEADER_LEN: usize = 24;
/// Directory row size: name + offset + length + CRC + reserved.
const DIR_ROW: usize = 32;

/// Section names in file order. The opener looks sections up by name, so
/// order is a writer convention, not a reader requirement.
const SECTIONS: [&str; 6] = ["meta", "symtab", "docs", "tags", "vals", "inv"];

/// Everything a columnar snapshot opens into: the decoded document store
/// plus the three packed (zero-copy) indexes.
#[derive(Debug)]
pub struct OpenedIndex {
    /// Decoded document arenas + symbol table.
    pub collection: Collection,
    /// Packed inverted index (varint posting runs, decoded per lookup).
    pub inverted: InvertedIndex,
    /// Packed tag index (flat element rows).
    pub tags: TagIndex,
    /// Packed value index (flat value rows).
    pub values: ValueIndex,
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

fn tags_section(tags: &TagIndex, sym_domain: u32) -> Vec<u8> {
    let mut dir = Vec::with_capacity(sym_domain as usize * 8);
    let mut rows = Vec::new();
    let mut start = 0u32;
    for s in 0..sym_domain {
        let view = tags.elements(SymbolId(s));
        dir.extend_from_slice(&start.to_le_bytes());
        dir.extend_from_slice(&(view.len() as u32).to_le_bytes());
        for e in view.iter() {
            put_elem_row(&mut rows, &e);
        }
        start += view.len() as u32;
    }
    let mut out = Vec::with_capacity(8 + dir.len() + rows.len());
    out.extend_from_slice(&sym_domain.to_le_bytes());
    out.extend_from_slice(&start.to_le_bytes());
    out.extend_from_slice(&dir);
    out.extend_from_slice(&rows);
    out
}

fn vals_section(values: &ValueIndex, sym_domain: u32) -> Vec<u8> {
    let mut dir = Vec::with_capacity(sym_domain as usize * 8);
    let mut rows = Vec::new();
    let mut start = 0u32;
    for s in 0..sym_domain {
        let entries = values.dump_tag(SymbolId(s));
        dir.extend_from_slice(&start.to_le_bytes());
        dir.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (v, e) in &entries {
            put_val_row(&mut rows, *v, e);
        }
        start += entries.len() as u32;
    }
    let mut out = Vec::with_capacity(8 + dir.len() + rows.len());
    out.extend_from_slice(&sym_domain.to_le_bytes());
    out.extend_from_slice(&start.to_le_bytes());
    out.extend_from_slice(&dir);
    out.extend_from_slice(&rows);
    out
}

/// Delta-encode one `(token, doc)` posting run: first triple absolute,
/// the rest as differences (all nondecreasing in document order).
fn put_run_payload(out: &mut Vec<u8>, run: &[Posting]) {
    let (mut pp, mut pl, mut pt) = (0u32, 0u32, 0u32);
    for (i, p) in run.iter().enumerate() {
        if i == 0 {
            put_varint(out, p.pos);
            put_varint(out, p.label);
            put_varint(out, p.text_node.0);
        } else {
            debug_assert!(p.pos >= pp && p.label >= pl && p.text_node.0 >= pt);
            put_varint(out, p.pos - pp);
            put_varint(out, p.label - pl);
            put_varint(out, p.text_node.0 - pt);
        }
        (pp, pl, pt) = (p.pos, p.label, p.text_node.0);
    }
}

fn inv_section(inverted: &InvertedIndex, doc_count: u32) -> Vec<u8> {
    let names = inverted.dump_token_names();
    let mut doc_tokens = Vec::with_capacity(doc_count as usize * 4);
    for d in 0..doc_count {
        doc_tokens.extend_from_slice(&inverted.doc_len(DocId(d)).to_le_bytes());
    }
    let mut token_rows = Vec::with_capacity(names.len() * TOKEN_ROW);
    let mut name_heap = Vec::new();
    let mut runs = Vec::new();
    for name in &names {
        let postings = inverted.postings(name);
        // Split into per-document runs (postings are (doc, pos)-sorted).
        let mut run_table = Vec::new();
        let mut payload = Vec::new();
        let mut run_count = 0u32;
        let mut i = 0;
        while i < postings.len() {
            let doc = postings[i].doc;
            let mut j = i;
            while j < postings.len() && postings[j].doc == doc {
                j += 1;
            }
            run_table.extend_from_slice(&doc.0.to_le_bytes());
            run_table.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            run_table.extend_from_slice(&((j - i) as u32).to_le_bytes());
            put_run_payload(&mut payload, &postings[i..j]);
            run_count += 1;
            i = j;
        }
        token_rows.extend_from_slice(&(name_heap.len() as u32).to_le_bytes());
        token_rows.extend_from_slice(&(name.len() as u32).to_le_bytes());
        token_rows.extend_from_slice(&inverted.doc_freq(name).to_le_bytes());
        token_rows.extend_from_slice(&run_count.to_le_bytes());
        token_rows.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        token_rows.extend_from_slice(&(postings.len() as u32).to_le_bytes());
        name_heap.extend_from_slice(name.as_bytes());
        runs.extend_from_slice(&run_table);
        runs.extend_from_slice(&payload);
    }
    let mut out =
        Vec::with_capacity(16 + doc_tokens.len() + token_rows.len() + name_heap.len() + runs.len());
    out.extend_from_slice(&doc_count.to_le_bytes());
    out.extend_from_slice(&(names.len() as u32).to_le_bytes());
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
/// that invariant); the symbol domain of the `tags`/`vals` directories is
/// the collection's symbol count.
pub fn save_index(
    coll: &Collection,
    inverted: &InvertedIndex,
    tags: &TagIndex,
    values: &ValueIndex,
) -> Bytes {
    let sym_count = coll.symbols().len() as u32;
    let doc_count = coll.len() as u32;
    let sections: [(&str, Vec<u8>); 6] = [
        (
            "meta",
            meta_section(inverted.tokenizer(), doc_count, sym_count),
        ),
        ("symtab", coll.symbols().column_bytes()),
        ("docs", docs_section(coll)),
        ("tags", tags_section(tags, sym_count)),
        ("vals", vals_section(values, sym_count)),
        ("inv", inv_section(inverted, doc_count)),
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

/// The byte window a directory entry describes.
fn section_bytes<'a>(data: &'a [u8], e: &DirEntry) -> Result<&'a [u8], PersistError> {
    slice_at(data, e.offset, e.len)
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
            // Unknown sections from a future minor revision are skipped;
            // their bytes are simply never referenced.
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

fn find<'a>(entries: &'a [DirEntry], name: &str) -> Result<&'a DirEntry, PersistError> {
    entries
        .iter()
        .find(|e| e.name == name)
        .ok_or(PersistError::BadArena("missing snapshot section"))
}

/// Open a v4 columnar snapshot over one shared buffer.
///
/// Validation is O(file bytes) for the CRC sweeps plus O(symbols + tokens)
/// structural checks; the only heap decoding is the `docs` arenas. The
/// returned indexes are packed views over `data` — no postings or element
/// rows are materialized here.
pub fn open_index(data: Bytes) -> Result<OpenedIndex, PersistError> {
    let entries = read_directory(&data)?;
    #[cfg(feature = "fault-injection")]
    if pimento_faults::should_fire("index.persist.load") {
        return Err(PersistError::SnapshotCorrupt {
            section: "directory",
        });
    }
    // Per-section integrity before any decoding.
    for e in &entries {
        if crc32(section_bytes(&data, e)?) != e.crc {
            return Err(PersistError::SnapshotCorrupt { section: e.name });
        }
    }

    // meta
    let meta = find(&entries, "meta")?;
    if meta.len < 16 {
        return Err(PersistError::SnapshotCorrupt { section: "meta" });
    }
    let m = section_bytes(&data, meta)?;
    let tokenizer = match u32_at(m, 0) {
        0 => Tokenizer::plain(),
        1 => Tokenizer::stemming(),
        _ => return Err(PersistError::BadArena("unknown tokenizer kind")),
    };
    let doc_count = u32_at(m, 4);
    let sym_count = u32_at(m, 8);

    // symtab
    let symtab = find(&entries, "symtab")?;
    let symbols = SymbolTable::from_column_bytes(section_bytes(&data, symtab)?)
        .map_err(PersistError::BadArena)?;
    if symbols.len() as u32 != sym_count {
        return Err(PersistError::BadArena("symbol count mismatch"));
    }

    // docs — the one heap-decoded section (arena traversal needs it).
    let docs = find(&entries, "docs")?;
    let mut coll = Collection::new();
    *coll.symbols_mut() = symbols;
    let mut buf = section_bytes(&data, docs)?;
    for _ in 0..doc_count {
        let doc = read_document(&mut buf, sym_count)?;
        coll.add_document(doc);
    }
    if !buf.is_empty() {
        return Err(PersistError::BadArena("trailing bytes after documents"));
    }

    // tags
    let tags = find(&entries, "tags")?;
    let (tag_dir, tag_rows) = split_rowed(&data, tags, sym_count, ELEM_ROW, "tags")?;

    // vals
    let vals = find(&entries, "vals")?;
    let (val_dir, val_rows) = split_rowed(&data, vals, sym_count, VAL_ROW, "vals")?;

    // inv
    let inv = find(&entries, "inv")?;
    let (doc_tokens, token_rows, names, runs) = split_inv(&data, inv, doc_count)?;

    Ok(OpenedIndex {
        collection: coll,
        inverted: InvertedIndex::from_packed(tokenizer, doc_tokens, token_rows, names, runs),
        tags: TagIndex::from_packed(tag_dir, tag_rows),
        values: ValueIndex::from_packed(val_dir, val_rows),
    })
}

/// Validate and slice a `tags`/`vals`-shaped section into its directory
/// and row windows.
fn split_rowed(
    data: &Bytes,
    e: &DirEntry,
    sym_count: u32,
    row: usize,
    section: &'static str,
) -> Result<(Bytes, Bytes), PersistError> {
    let corrupt = || PersistError::SnapshotCorrupt { section };
    let b = section_bytes(data, e).map_err(|_| corrupt())?;
    if b.len() < 8 {
        return Err(corrupt());
    }
    let domain = u32_at(b, 0) as usize;
    let total = u32_at(b, 4) as usize;
    if domain != sym_count as usize {
        return Err(corrupt());
    }
    let dir_len = domain.checked_mul(8).ok_or_else(corrupt)?;
    let rows_len = total.checked_mul(row).ok_or_else(corrupt)?;
    let body_len = dir_len
        .checked_add(rows_len)
        .and_then(|v| v.checked_add(8))
        .ok_or_else(corrupt)?;
    if body_len != b.len() {
        return Err(corrupt());
    }
    // Every directory span must stay inside the row region, and spans must
    // tile it in order (start rows nondecreasing), so accessors can slice
    // without panicking.
    let dir_bytes = slice_at(b, 8, dir_len).map_err(|_| corrupt())?;
    let mut prev_end = 0usize;
    for span in dir_bytes.chunks_exact(8) {
        let start = u32_at(span, 0) as usize;
        let count = u32_at(span, 4) as usize;
        let end = start
            .checked_add(count)
            .filter(|&end| end <= total)
            .ok_or_else(corrupt)?;
        if start != prev_end {
            return Err(corrupt());
        }
        prev_end = end;
    }
    if prev_end != total {
        return Err(corrupt());
    }
    let dir_start = e.offset.checked_add(8).ok_or_else(corrupt)?;
    let rows_start = dir_start.checked_add(dir_len).ok_or_else(corrupt)?;
    let end = e.offset.checked_add(e.len).ok_or_else(corrupt)?;
    Ok((
        data.slice(dir_start..rows_start),
        data.slice(rows_start..end),
    ))
}

/// Validate and slice the `inv` section into its four windows.
fn split_inv(
    data: &Bytes,
    e: &DirEntry,
    expect_docs: u32,
) -> Result<(Bytes, Bytes, Bytes, Bytes), PersistError> {
    let corrupt = || PersistError::SnapshotCorrupt { section: "inv" };
    let b = section_bytes(data, e).map_err(|_| corrupt())?;
    if b.len() < 16 {
        return Err(corrupt());
    }
    let doc_count = u32_at(b, 0) as usize;
    let token_count = u32_at(b, 4) as usize;
    let names_len = u32_at(b, 8) as usize;
    let runs_len = u32_at(b, 12) as usize;
    if doc_count != expect_docs as usize {
        return Err(corrupt());
    }
    let dt_len = doc_count.checked_mul(4).ok_or_else(corrupt)?;
    let tr_len = token_count.checked_mul(TOKEN_ROW).ok_or_else(corrupt)?;
    let total = [16, dt_len, tr_len, names_len, runs_len]
        .into_iter()
        .try_fold(0usize, |a, x| a.checked_add(x))
        .ok_or_else(corrupt)?;
    if total != b.len() {
        return Err(corrupt());
    }
    let tr_base = dt_len.checked_add(16).ok_or_else(corrupt)?;
    let names_base = tr_base.checked_add(tr_len).ok_or_else(corrupt)?;
    let runs_base = names_base.checked_add(names_len).ok_or_else(corrupt)?;
    // Structural bounds per token row: the name must live inside the name
    // heap, the run table inside the runs blob, and names must be strictly
    // sorted (the lookup binary-searches them).
    let token_rows = b.get(tr_base..names_base).ok_or_else(corrupt)?;
    let names_heap = b.get(names_base..runs_base).ok_or_else(corrupt)?;
    let mut prev_name: Option<&[u8]> = None;
    for trow in token_rows.chunks_exact(TOKEN_ROW) {
        let name_off = u32_at(trow, 0) as usize;
        let name_len = u32_at(trow, 4) as usize;
        let run_count = u32_at(trow, 12) as usize;
        let runs_off = u32_at(trow, 16) as usize;
        let name_end = name_off
            .checked_add(name_len)
            .filter(|&end| end <= names_len)
            .ok_or_else(corrupt)?;
        let table_len = run_count.checked_mul(RUN_ROW).ok_or_else(corrupt)?;
        if runs_off
            .checked_add(table_len)
            .is_none_or(|end| end > runs_len)
        {
            return Err(corrupt());
        }
        let name = names_heap.get(name_off..name_end).ok_or_else(corrupt)?;
        if prev_name.is_some_and(|p| name <= p) {
            return Err(corrupt());
        }
        prev_name = Some(name);
    }
    let window = |rel_start: usize, rel_end: usize| -> Result<Bytes, PersistError> {
        let s = e.offset.checked_add(rel_start).ok_or_else(corrupt)?;
        let t = e.offset.checked_add(rel_end).ok_or_else(corrupt)?;
        Ok(data.slice(s..t))
    };
    Ok((
        window(16, tr_base)?,
        window(tr_base, names_base)?,
        window(names_base, runs_base)?,
        window(runs_base, e.len)?,
    ))
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
    use crate::values::RangeOp;

    fn sample() -> (Collection, InvertedIndex, TagIndex, ValueIndex) {
        let mut c = Collection::new();
        c.add_xml(
            r#"<dealer loc="cambridge"><car color="red"><price>500</price><note>good and cheap</note></car><car><price>2500</price><note>good condition</note></car></dealer>"#,
        )
        .unwrap();
        c.add_xml("<dealer><car><!--traded--><price>900</price><note>fair</note></car></dealer>")
            .unwrap();
        let inv = InvertedIndex::build(&c, Tokenizer::plain());
        let tags = TagIndex::build(&c);
        let vals = ValueIndex::build(&c);
        (c, inv, tags, vals)
    }

    fn snapshot() -> (Collection, InvertedIndex, TagIndex, ValueIndex, Bytes) {
        let (c, inv, tags, vals) = sample();
        let snap = save_index(&c, &inv, &tags, &vals);
        (c, inv, tags, vals, snap)
    }

    #[test]
    fn roundtrip_is_query_identical() {
        let (c, inv, tags, vals, snap) = snapshot();
        let opened = open_index(snap).unwrap();
        assert!(opened.inverted.is_packed());
        assert!(opened.tags.is_packed());
        assert!(opened.values.is_packed());

        // Collection: same docs, same symbols/ids.
        assert_eq!(opened.collection.len(), c.len());
        for (i, name) in c.symbols().iter().enumerate() {
            assert_eq!(opened.collection.symbols().name(SymbolId(i as u32)), name);
        }

        // Inverted: identical postings, doc stats, vocabulary.
        assert_eq!(opened.inverted.vocabulary_size(), inv.vocabulary_size());
        assert_eq!(opened.inverted.num_docs(), inv.num_docs());
        for token in inv.dump_token_names() {
            assert_eq!(
                opened.inverted.postings(&token),
                inv.postings(&token),
                "{token}"
            );
            assert_eq!(opened.inverted.doc_freq(&token), inv.doc_freq(&token));
            for d in 0..inv.num_docs() {
                assert_eq!(
                    opened.inverted.doc_postings(&token, DocId(d)),
                    inv.doc_postings(&token, DocId(d))
                );
            }
        }
        assert_eq!(opened.inverted.doc_postings("good", DocId(9)).len(), 0);
        assert!(opened.inverted.postings("absent").is_empty());
        for d in 0..inv.num_docs() {
            assert_eq!(opened.inverted.doc_len(DocId(d)), inv.doc_len(DocId(d)));
        }

        // Tags: identical element views over the whole symbol domain.
        for s in 0..c.symbols().len() as u32 {
            let sym = SymbolId(s);
            assert_eq!(opened.tags.elements(sym), tags.elements(sym));
            assert_eq!(opened.tags.count(sym), tags.count(sym));
            for d in 0..c.len() as u32 {
                assert_eq!(
                    opened.tags.doc_elements(sym, DocId(d)),
                    tags.doc_elements(sym, DocId(d))
                );
            }
        }
        assert_eq!(opened.tags.num_tags(), tags.num_tags());

        // Values: identical range scans.
        let price = c.tag("price").unwrap();
        for op in [
            RangeOp::Lt,
            RangeOp::Le,
            RangeOp::Gt,
            RangeOp::Ge,
            RangeOp::Eq,
        ] {
            assert_eq!(
                opened.values.range(price, op, 900.0),
                vals.range(price, op, 900.0)
            );
        }
        assert_eq!(opened.values.count(price), vals.count(price));
    }

    #[test]
    fn empty_collection_roundtrips() {
        let c = Collection::new();
        let inv = InvertedIndex::build(&c, Tokenizer::plain());
        let tags = TagIndex::build(&c);
        let vals = ValueIndex::build(&c);
        let opened = open_index(save_index(&c, &inv, &tags, &vals)).unwrap();
        assert!(opened.collection.is_empty());
        assert_eq!(opened.inverted.num_docs(), 0);
        assert!(opened.values.is_empty());
    }

    #[test]
    fn stemming_tokenizer_survives_roundtrip() {
        let mut c = Collection::new();
        c.add_xml("<a>selling cars</a>").unwrap();
        let inv = InvertedIndex::build(&c, Tokenizer::stemming());
        let tags = TagIndex::build(&c);
        let vals = ValueIndex::build(&c);
        let opened = open_index(save_index(&c, &inv, &tags, &vals)).unwrap();
        assert!(opened.inverted.tokenizer().stemming);
        assert_eq!(opened.inverted.postings("car").len(), 1);
        assert_eq!(opened.inverted.analyze("Cars"), ["car"]);
    }

    #[test]
    fn thawed_incremental_add_matches_full_rebuild() {
        let (mut c, ..) = sample();
        let snap = {
            let inv = InvertedIndex::build(&c, Tokenizer::plain());
            let tags = TagIndex::build(&c);
            let vals = ValueIndex::build(&c);
            save_index(&c, &inv, &tags, &vals)
        };
        let mut opened = open_index(snap).unwrap();
        // Grow the collection after opening packed: every index thaws.
        let d = c
            .add_xml("<dealer><car><price>100</price><note>good</note></car></dealer>")
            .unwrap();
        let doc = c.doc(d).clone();
        opened.collection.add_document(doc.clone());
        opened.inverted.index_document(d, &doc);
        opened.tags.index_document(d, &doc);
        opened.values.index_document(d, &doc);
        assert!(!opened.inverted.is_packed());
        assert!(!opened.tags.is_packed());
        assert!(!opened.values.is_packed());
        let full_inv = InvertedIndex::build(&c, Tokenizer::plain());
        let full_tags = TagIndex::build(&c);
        let full_vals = ValueIndex::build(&c);
        assert_eq!(opened.inverted.postings("good"), full_inv.postings("good"));
        assert_eq!(opened.inverted.doc_freq("good"), full_inv.doc_freq("good"));
        let car = c.tag("car").unwrap();
        assert_eq!(opened.tags.elements(car), full_tags.elements(car));
        let price = c.tag("price").unwrap();
        assert_eq!(
            opened.values.range(price, RangeOp::Le, 1e9),
            full_vals.range(price, RangeOp::Le, 1e9)
        );
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
            match open_index(Bytes::from(bytes)) {
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
            open_index(Bytes::from(bytes)),
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
            let bytes = Bytes::copy_from_slice(&snap[..cut]);
            assert!(open_index(bytes).is_err(), "cut at {cut} accepted");
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
                open_index(Bytes::from(bytes)),
                Err(PersistError::SnapshotVersion { found: f, expected: COLUMNAR_VERSION }) if f == found
            ));
        }
        // Unknown magic.
        let mut bytes = snap.to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            open_index(Bytes::from(bytes)),
            Err(PersistError::BadMagic)
        ));
        // Future version word.
        let mut bytes = snap.to_vec();
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            open_index(Bytes::from(bytes)),
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
