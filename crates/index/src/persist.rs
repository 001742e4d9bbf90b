//! What every snapshot artifact shares: the typed [`PersistError`], the
//! per-document arena codec the columnar `docs` section stores
//! ([`put_document`] / [`read_document`]), and the dependency-free
//! [`crc32`] that guards snapshot sections, manifests, tombstone sidecars
//! and durable profiles. The snapshot format itself is
//! [`crate::columnar`] (v4); the earlier `PIMCOL1`–`PIMCOL3` formats are
//! recognised by magic there and rejected with
//! [`PersistError::SnapshotVersion`] before any integrity check or decode.
//!
//! A document record is `u32` root node id, `u32` node count, then per
//! node: `u8` kind (0 element / 1 text / 2 comment); element: `u32` tag,
//! `u16` attr count, per attr (`u32` sym, str value); text/comment: str
//! payload; `u32` parent + 1 (0 = none); `u32` child count, `u32` ×
//! children; `u32` start, `u32` end, `u16` level. Strings are `u32`
//! length + UTF-8 bytes. [`Document::from_parts`] re-validates the arena
//! invariants on load, so a malformed record fails loudly instead of
//! producing an inconsistent store.

use bytes::{Buf, BufMut};
use pimento_xml::{Document, Node, NodeId, NodeKind, SymbolId};
use std::fmt;

/// Snapshot decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Missing/incorrect magic header.
    BadMagic,
    /// Input ended early.
    Truncated,
    /// A v4 section (`"directory"`, `"meta"`, `"symtab"`, `"docs"`,
    /// `"tags"`, `"inv"`) failed its CRC (bit corruption) or,
    /// checksummed, is structurally malformed (spans, counts, offsets,
    /// varint runs or ids that the decoder refuses).
    SnapshotCorrupt {
        /// The section whose integrity check failed.
        section: &'static str,
    },
    /// A string was not valid UTF-8.
    BadString,
    /// A sharded-snapshot manifest violated its format (bad header,
    /// non-contiguous doc ranges, unsafe segment file name, …).
    BadManifest(&'static str),
    /// Arena invariants failed on reconstruction.
    BadArena(&'static str),
    /// A symbol id pointed outside the table.
    BadSymbol,
    /// The snapshot is from a different format version.
    SnapshotVersion {
        /// Version the snapshot declares (1–3 by magic for the pre-columnar
        /// formats; the version word of a `PIMCOL4` header otherwise).
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a PIMENTO collection snapshot"),
            PersistError::Truncated => write!(f, "snapshot is truncated"),
            PersistError::SnapshotCorrupt { section } => {
                write!(
                    f,
                    "snapshot section `{section}` failed its integrity check (CRC mismatch or malformed structure)"
                )
            }
            PersistError::BadString => write!(f, "snapshot contains invalid UTF-8"),
            PersistError::BadManifest(why) => {
                write!(f, "sharded snapshot manifest invalid: {why}")
            }
            PersistError::BadArena(why) => write!(f, "snapshot arena invalid: {why}"),
            PersistError::BadSymbol => write!(f, "snapshot references an unknown symbol"),
            PersistError::SnapshotVersion { found, expected } => write!(
                f,
                "snapshot format version {found} is not supported (expected {expected}); \
                 re-create the snapshot with this build"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

/// Encode one document's node arena (the v4 `docs` section's record).
pub(crate) fn put_document<B: BufMut>(buf: &mut B, doc: &Document) {
    buf.put_u32_le(doc.root().0);
    buf.put_u32_le(doc.len() as u32);
    for node in doc.nodes() {
        match &node.kind {
            NodeKind::Element { tag, attrs } => {
                buf.put_u8(0);
                buf.put_u32_le(tag.0);
                buf.put_u16_le(attrs.len() as u16);
                for (a, v) in attrs.iter() {
                    buf.put_u32_le(a.0);
                    put_str(buf, v);
                }
            }
            NodeKind::Text(t) => {
                buf.put_u8(1);
                put_str(buf, t);
            }
            NodeKind::Comment(c) => {
                buf.put_u8(2);
                put_str(buf, c);
            }
        }
        buf.put_u32_le(node.parent.map(|p| p.0 + 1).unwrap_or(0));
        buf.put_u32_le(node.children.len() as u32);
        for c in &node.children {
            buf.put_u32_le(c.0);
        }
        buf.put_u32_le(node.start);
        buf.put_u32_le(node.end);
        buf.put_u16_le(node.level);
    }
}

/// Decode one document encoded by [`put_document`]. `sym_count` bounds
/// the symbol ids the arena may reference.
pub(crate) fn read_document(buf: &mut &[u8], sym_count: u32) -> Result<Document, PersistError> {
    let check_sym = |id: u32| {
        if id < sym_count {
            Ok(SymbolId(id))
        } else {
            Err(PersistError::BadSymbol)
        }
    };
    let input_len = buf.len();
    let root = NodeId(get_u32(buf)?);
    let n_nodes = get_u32(buf)?;
    let mut nodes = Vec::with_capacity((n_nodes as usize).min(input_len));
    for _ in 0..n_nodes {
        let kind = match get_u8(buf)? {
            0 => {
                let tag = check_sym(get_u32(buf)?)?;
                let n_attrs = get_u16(buf)?;
                let mut attrs = Vec::with_capacity(n_attrs as usize);
                for _ in 0..n_attrs {
                    let a = check_sym(get_u32(buf)?)?;
                    let v = get_str(buf)?;
                    attrs.push((a, v));
                }
                NodeKind::Element {
                    tag,
                    attrs: attrs.into_boxed_slice(),
                }
            }
            1 => NodeKind::Text(get_str(buf)?),
            2 => NodeKind::Comment(get_str(buf)?),
            _ => return Err(PersistError::BadArena("unknown node kind")),
        };
        let parent_raw = get_u32(buf)?;
        let parent = if parent_raw == 0 {
            None
        } else {
            Some(NodeId(parent_raw - 1))
        };
        let n_children = get_u32(buf)?;
        if n_children as usize > input_len {
            return Err(PersistError::Truncated);
        }
        let mut children = Vec::with_capacity(n_children as usize);
        for _ in 0..n_children {
            children.push(NodeId(get_u32(buf)?));
        }
        let start = get_u32(buf)?;
        let end = get_u32(buf)?;
        let level = get_u16(buf)?;
        nodes.push(Node {
            kind,
            parent,
            children,
            start,
            end,
            level,
        });
    }
    Document::from_parts(nodes, root).map_err(PersistError::BadArena)
}

pub(crate) fn put_str<B: BufMut>(buf: &mut B, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

pub(crate) fn get_u8(buf: &mut &[u8]) -> Result<u8, PersistError> {
    if buf.remaining() < 1 {
        return Err(PersistError::Truncated);
    }
    Ok(buf.get_u8())
}

pub(crate) fn get_u16(buf: &mut &[u8]) -> Result<u16, PersistError> {
    if buf.remaining() < 2 {
        return Err(PersistError::Truncated);
    }
    Ok(buf.get_u16_le())
}

pub(crate) fn get_u32(buf: &mut &[u8]) -> Result<u32, PersistError> {
    if buf.remaining() < 4 {
        return Err(PersistError::Truncated);
    }
    Ok(buf.get_u32_le())
}

pub(crate) fn get_str(buf: &mut &[u8]) -> Result<String, PersistError> {
    let len = get_u32(buf)? as usize;
    let raw = buf.get(..len).ok_or(PersistError::Truncated)?;
    let s = std::str::from_utf8(raw)
        .map_err(|_| PersistError::BadString)?
        .to_string();
    buf.advance(len);
    Ok(s)
}

/// The CRC32 (IEEE 802.3, polynomial `0xEDB88320`) slice-by-8 lookup
/// tables, built at compile time — no dependency, no runtime init. Table
/// 0 is the classic byte-at-a-time table; table `k` advances a byte's
/// contribution past `k` further zero bytes, so eight bytes fold into the
/// running CRC with eight independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Entry `(byte & 0xFF)` of slice-by-8 table `k`. The mask keeps the
/// index inside the table; `.get` lets the optimizer prove it too, with no
/// panic path left behind.
#[inline(always)]
fn crc_table(k: usize, byte: u32) -> u32 {
    CRC32_TABLES
        .get(k)
        .and_then(|t| t.get((byte & 0xFF) as usize))
        .copied()
        .unwrap_or(0)
}

/// CRC32 (IEEE) over `data` — the v4 section checksum, also reused by
/// manifests, tombstone sidecars and the serve layer's profile store.
/// Slice-by-8: eight bytes per step, the tail byte at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let (words, tail) = data.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        crc = crc_table(7, lo)
            ^ crc_table(6, lo >> 8)
            ^ crc_table(5, lo >> 16)
            ^ crc_table(4, lo >> 24)
            ^ crc_table(3, hi)
            ^ crc_table(2, hi >> 8)
            ^ crc_table(1, hi >> 16)
            ^ crc_table(0, hi >> 24);
    }
    for &b in tail {
        crc = (crc >> 8) ^ crc_table(0, crc ^ b as u32);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Collection;
    use pimento_xml::to_string;

    #[test]
    fn document_records_roundtrip() {
        let mut coll = Collection::new();
        coll.add_xml(r#"<dealer><car color="red"><price>500</price><note>good &amp; cheap</note></car></dealer>"#)
            .unwrap();
        coll.add_xml("<dealer><car><!--traded--><price>900</price></car></dealer>")
            .unwrap();
        let sym_count = coll.symbols().len() as u32;
        for (_, doc) in coll.iter() {
            let mut buf = Vec::new();
            put_document(&mut buf, doc);
            let mut rest = buf.as_slice();
            let back = read_document(&mut rest, sym_count).unwrap();
            assert!(rest.is_empty(), "record consumed exactly");
            assert_eq!(back.len(), doc.len());
            assert_eq!(
                to_string(&back, coll.symbols()),
                to_string(doc, coll.symbols())
            );
            // A symbol table one entry short no longer covers the record.
            assert!(matches!(
                read_document(&mut buf.as_slice(), 1),
                Err(PersistError::BadSymbol)
            ));
            // Every proper prefix is a typed error, never a panic.
            for cut in 0..buf.len() {
                assert!(read_document(&mut &buf[..cut], sym_count).is_err());
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check values (RFC 3720 appendix / zlib `crc32`).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_equals_the_bytewise_definition_at_every_length() {
        fn bytewise(data: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        let data: Vec<u8> = (0u32..200).map(|i| (i * 37 + i / 7) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
            assert_eq!(crc32(&data[len..]), bytewise(&data[len..]), "offset {len}");
        }
    }

    #[test]
    fn error_display() {
        assert!(PersistError::SnapshotCorrupt { section: "tags" }
            .to_string()
            .contains("tags"));
        assert!(PersistError::BadArena("why").to_string().contains("why"));
    }
}
