//! Shared LEB128 varint codec for the columnar snapshot.
//!
//! Posting runs in the `PIMCOL4` snapshot (see [`crate::columnar`]) are
//! stored as delta-encoded varints: within one `(token, document)` run,
//! positions strictly increase and region labels / text-node ids are
//! nondecreasing (all three follow document order), so consecutive
//! differences are nonnegative and mostly tiny — one or two bytes each
//! instead of twelve. The codec is deliberately boring: unsigned LEB128
//! (7 payload bits per byte, high bit = continuation), no zigzag, because
//! no caller ever encodes a negative delta.
//!
//! Decoding is infallible-by-construction only on bytes this module
//! produced; everything here returns `Option`/`Result`-shaped outcomes so
//! corrupt snapshots surface as typed errors, never panics (the index
//! crate is a hot-path module).

/// Maximum encoded size of one `u32` varint (⌈32/7⌉ bytes).
pub const MAX_VARINT_LEN: usize = 5;

/// Append `v` to `out` as an unsigned LEB128 varint (1–5 bytes).
pub fn put_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decode one varint from the front of `buf`, returning the value and the
/// remaining bytes. `None` on truncation, overlong encodings past 5
/// bytes, or a final byte that overflows `u32`.
pub fn get_varint(mut buf: &[u8]) -> Option<(u32, &[u8])> {
    let mut v: u32 = 0;
    let mut shift = 0u32;
    for i in 0..MAX_VARINT_LEN {
        let (&b, rest) = buf.split_first()?;
        buf = rest;
        let payload = (b & 0x7F) as u32;
        // The 5th byte may only carry the top 4 bits of a u32.
        if i == MAX_VARINT_LEN - 1 && payload > 0x0F {
            return None;
        }
        v |= payload << shift;
        shift += 7;
        if b & 0x80 == 0 {
            return Some((v, buf));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn enc(v: u32) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, v);
        out
    }

    #[test]
    fn known_encodings() {
        assert_eq!(enc(0), [0x00]);
        assert_eq!(enc(1), [0x01]);
        assert_eq!(enc(127), [0x7F]);
        assert_eq!(enc(128), [0x80, 0x01]);
        assert_eq!(enc(300), [0xAC, 0x02]);
        assert_eq!(enc(16_383), [0xFF, 0x7F]);
        assert_eq!(enc(16_384), [0x80, 0x80, 0x01]);
        assert_eq!(enc(u32::MAX), [0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        assert_eq!(enc(u32::MAX).len(), MAX_VARINT_LEN);
    }

    #[test]
    fn decode_leaves_tail_untouched() {
        let mut buf = enc(300);
        buf.extend_from_slice(b"tail");
        let (v, rest) = get_varint(&buf).unwrap();
        assert_eq!(v, 300);
        assert_eq!(rest, b"tail");
    }

    #[test]
    fn truncated_and_overlong_inputs_rejected() {
        assert_eq!(get_varint(&[]), None);
        assert_eq!(
            get_varint(&[0x80]),
            None,
            "continuation bit with no next byte"
        );
        assert_eq!(
            get_varint(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]),
            None,
            "6-byte varint"
        );
        // 5th byte carrying more than the top 4 bits of a u32 overflows.
        assert_eq!(get_varint(&[0xFF, 0xFF, 0xFF, 0xFF, 0x10]), None);
        // u32::MAX itself stays decodable.
        assert_eq!(
            get_varint(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]).map(|(v, _)| v),
            Some(u32::MAX)
        );
    }

    proptest! {
        /// Any u32 round-trips through the varint codec, and the encoded
        /// length matches the 7-bits-per-byte schedule.
        #[test]
        fn varint_roundtrip(v in any::<u32>()) {
            let bytes = enc(v);
            prop_assert!(bytes.len() <= MAX_VARINT_LEN);
            let expected_len = (32 - v.leading_zeros()).div_ceil(7).max(1) as usize;
            prop_assert_eq!(bytes.len(), expected_len);
            let (decoded, rest) = get_varint(&bytes).unwrap();
            prop_assert_eq!(decoded, v);
            prop_assert!(rest.is_empty());
        }
    }
}
