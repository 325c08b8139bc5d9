//! The binary codec of the durable path.
//!
//! One little-endian [`Writer`] and one [`Reader`] for everything the
//! serving layer persists: journal frames and the [`CorpusDelta`]s
//! inside them, and the sections of a checkpoint image. Ids and
//! lengths are LEB128 varints, signed counts are zigzag varints, text
//! is a length-prefixed UTF-8 byte string, and an `f64` is its bit
//! pattern as a fixed-width little-endian `u64`:
//!
//! ```text
//! delta      := varint(#added)      added*
//!               varint(#removed)    varint(post)*
//!               varint(#engagement) engagement*
//! added      := varint(post) varint(source) varint(len) utf8[len]
//! engagement := varint(source) zigzag(discussions) zigzag(comments)
//! ```
//!
//! **Canonical:** a value has exactly one encoding, so equal deltas
//! always encode to equal bytes, and the reader refuses any other
//! spelling (a varint with redundant high zero groups, say).
//!
//! **Total:** decoding never panics. Truncation, overlong varints,
//! out-of-range ids, invalid UTF-8 and trailing bytes are each a
//! [`DecodeError`]. Every length read from the input is checked
//! (`checked_add` against the input's end) before anything is sliced
//! or allocated from it, and a collection's capacity is bounded by
//! the bytes left, since each element takes at least one.

// Replay determinism (clippy.toml bans hash-ordered containers and
// the wall clock here): a replayed journal must decode to the deltas
// that were written, and equal deltas must encode to equal bytes.
#![warn(clippy::disallowed_types)]

use crate::{CorpusDelta, DocDelta, EngagementDelta, PostId, SourceId};
use std::fmt;

/// Why a byte string does not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ends inside a value.
    Truncated,
    /// A varint longer than the canonical encoding of its value, or
    /// wider than 64 bits.
    OverlongVarint,
    /// A varint too large for the field it encodes (an id over
    /// `u32::MAX`, a length over `usize::MAX`).
    OutOfRange,
    /// A text field that is not UTF-8.
    InvalidUtf8,
    /// Bytes left over after the value.
    TrailingBytes,
    /// A well-formed value that contradicts the table it indexes: an
    /// ordinal past the doc table, a posting on a free row, a span
    /// past the arena.
    Inconsistent(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DecodeError::Truncated => "input ends inside a value",
            DecodeError::OverlongVarint => "overlong varint",
            DecodeError::OutOfRange => "varint out of range for its field",
            DecodeError::InvalidUtf8 => "text is not UTF-8",
            DecodeError::TrailingBytes => "trailing bytes after the value",
            DecodeError::Inconsistent(what) => what,
        })
    }
}

impl std::error::Error for DecodeError {}

/// Appends encoded values to a byte buffer.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { out }
    }

    /// An unsigned LEB128 varint: seven bits per byte, low group
    /// first, the high bit set on every byte but the last.
    pub fn varint(&mut self, mut value: u64) {
        while value >= 0x80 {
            self.out.push(value as u8 | 0x80);
            value >>= 7;
        }
        self.out.push(value as u8);
    }

    /// A signed value as a zigzag varint, so small magnitudes of
    /// either sign take few bytes.
    pub fn zigzag(&mut self, value: i64) {
        self.varint(((value as u64) << 1) ^ ((value >> 63) as u64));
    }

    /// An `f64` as its bit pattern, fixed-width little-endian: every
    /// value, NaN payloads and the sign of zero included, round-trips
    /// exactly.
    pub fn f64(&mut self, value: f64) {
        self.out.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.varint(bytes.len() as u64);
        self.out.extend_from_slice(bytes);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, text: &str) {
        self.bytes(text.as_bytes());
    }
}

/// Reads encoded values off the front of a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// The next `len` bytes.
    fn take(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(len).ok_or(DecodeError::Truncated)?;
        let taken = self
            .bytes
            .get(self.pos..end)
            .ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(taken)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut array = [0u8; N];
        array.copy_from_slice(self.take(N)?);
        Ok(array)
    }

    /// A fixed-width little-endian `u32`.
    pub fn u32_le(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A fixed-width little-endian `u64`.
    pub fn u64_le(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// An unsigned LEB128 varint in its canonical (shortest) form.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let [byte] = self.array()?;
            let group = u64::from(byte & 0x7F);
            // The tenth group holds bit 63 alone.
            if shift == 63 && group > 1 {
                return Err(DecodeError::OverlongVarint);
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                // A zero final group after the first is a redundant
                // spelling of a shorter varint.
                if byte == 0 && shift > 0 {
                    return Err(DecodeError::OverlongVarint);
                }
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::OverlongVarint);
            }
        }
    }

    /// A varint that must fit a `u32`.
    pub fn varint_u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.varint()?).map_err(|_| DecodeError::OutOfRange)
    }

    /// A varint that counts or measures something in memory.
    pub fn varint_usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.varint()?).map_err(|_| DecodeError::OutOfRange)
    }

    /// A zigzag-encoded signed varint.
    pub fn zigzag(&mut self) -> Result<i64, DecodeError> {
        let raw = self.varint()?;
        Ok((raw >> 1) as i64 ^ -((raw & 1) as i64))
    }

    /// An `f64` from its fixed-width little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.u64_le().map(f64::from_bits)
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.varint_usize()?;
        self.take(len)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError::InvalidUtf8)
    }

    /// A collection count, with the capacity it may safely reserve:
    /// no more than the bytes left, as every element takes at least
    /// one.
    pub fn count(&mut self) -> Result<(usize, usize), DecodeError> {
        let count = self.varint_usize()?;
        Ok((count, count.min(self.remaining())))
    }

    /// Succeeds only if every byte has been read.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

impl CorpusDelta {
    /// Appends this delta's canonical encoding (see the
    /// [module docs](self)) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::new(out);
        w.varint(self.added.len() as u64);
        for doc in &self.added {
            w.varint(u64::from(doc.post.raw()));
            w.varint(u64::from(doc.source.raw()));
            w.str(&doc.text);
        }
        w.varint(self.removed.len() as u64);
        for post in &self.removed {
            w.varint(u64::from(post.raw()));
        }
        w.varint(self.engagement.len() as u64);
        for e in &self.engagement {
            w.varint(u64::from(e.source.raw()));
            w.zigzag(e.discussions);
            w.zigzag(e.comments);
        }
    }

    /// Decodes exactly one delta spanning all of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<CorpusDelta, DecodeError> {
        let mut r = Reader::new(bytes);
        let (count, capacity) = r.count()?;
        let mut added = Vec::with_capacity(capacity);
        for _ in 0..count {
            added.push(DocDelta {
                post: PostId::new(r.varint_u32()?),
                source: SourceId::new(r.varint_u32()?),
                text: r.str()?.to_owned(),
            });
        }
        let (count, capacity) = r.count()?;
        let mut removed = Vec::with_capacity(capacity);
        for _ in 0..count {
            removed.push(PostId::new(r.varint_u32()?));
        }
        let (count, capacity) = r.count()?;
        let mut engagement = Vec::with_capacity(capacity);
        for _ in 0..count {
            engagement.push(EngagementDelta {
                source: SourceId::new(r.varint_u32()?),
                discussions: r.zigzag()?,
                comments: r.zigzag()?,
            });
        }
        r.finish()?;
        Ok(CorpusDelta {
            added,
            removed,
            engagement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint_bytes(value: u64) -> Vec<u8> {
        let mut out = Vec::new();
        Writer::new(&mut out).varint(value);
        out
    }

    #[test]
    fn varints_are_leb128() {
        assert_eq!(varint_bytes(0), [0x00]);
        assert_eq!(varint_bytes(127), [0x7F]);
        assert_eq!(varint_bytes(128), [0x80, 0x01]);
        assert_eq!(varint_bytes(300), [0xAC, 0x02]);
        assert_eq!(varint_bytes(u64::MAX).len(), 10);
        for value in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let bytes = varint_bytes(value);
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint(), Ok(value));
            assert_eq!(r.finish(), Ok(()));
        }
    }

    #[test]
    fn zigzag_maps_small_magnitudes_to_small_codes() {
        for (value, code) in [
            (0i64, 0u64),
            (-1, 1),
            (1, 2),
            (-2, 3),
            (i64::MAX, u64::MAX - 1),
        ] {
            let mut out = Vec::new();
            Writer::new(&mut out).zigzag(value);
            assert_eq!(out, varint_bytes(code), "{value}");
            assert_eq!(Reader::new(&out).zigzag(), Ok(value));
        }
        let mut out = Vec::new();
        Writer::new(&mut out).zigzag(i64::MIN);
        assert_eq!(Reader::new(&out).zigzag(), Ok(i64::MIN));
    }

    #[test]
    fn non_canonical_varints_are_refused() {
        // 0 spelled in two bytes, 1 spelled in three.
        for bytes in [&[0x80, 0x00][..], &[0x81, 0x80, 0x00]] {
            assert_eq!(
                Reader::new(bytes).varint(),
                Err(DecodeError::OverlongVarint)
            );
        }
        // Eleven groups, and a tenth group with more than bit 63.
        let mut eleven = vec![0xFF; 10];
        eleven.push(0x01);
        assert_eq!(
            Reader::new(&eleven).varint(),
            Err(DecodeError::OverlongVarint)
        );
        let mut wide = vec![0xFF; 9];
        wide.push(0x02);
        assert_eq!(
            Reader::new(&wide).varint(),
            Err(DecodeError::OverlongVarint)
        );
        assert_eq!(Reader::new(&[0xFF]).varint(), Err(DecodeError::Truncated));
        let over_u32 = varint_bytes(u64::from(u32::MAX) + 1);
        assert_eq!(
            Reader::new(&over_u32).varint_u32(),
            Err(DecodeError::OutOfRange)
        );
    }

    #[test]
    fn lengths_past_the_end_are_truncation_not_allocation() {
        // A string claiming u64::MAX bytes, and a delta claiming
        // u64::MAX additions, in a handful of bytes.
        let mut huge = Vec::new();
        Writer::new(&mut huge).varint(u64::MAX);
        assert!(Reader::new(&huge).bytes().is_err());
        assert!(CorpusDelta::decode(&huge).is_err());
        let mut mid = vec![0x05];
        mid.extend_from_slice(b"abc");
        assert_eq!(Reader::new(&mid).str(), Err(DecodeError::Truncated));
    }

    #[test]
    fn delta_roundtrips_and_refuses_damage() {
        let mut delta = CorpusDelta::new();
        delta.add_doc(PostId::new(u32::MAX), SourceId::new(7), "caffè ☕");
        delta.add_doc(PostId::new(0), SourceId::new(0), "");
        delta.remove_doc(PostId::new(300));
        delta.note_engagement(SourceId::new(7), i64::MIN, i64::MAX);
        let mut bytes = Vec::new();
        delta.encode_into(&mut bytes);
        assert_eq!(CorpusDelta::decode(&bytes), Ok(delta.clone()));

        // Appending encodes after what the buffer held.
        let mut prefixed = vec![0xAA];
        delta.encode_into(&mut prefixed);
        assert_eq!(&prefixed[1..], &bytes[..]);

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            CorpusDelta::decode(&trailing),
            Err(DecodeError::TrailingBytes)
        );
        for cut in 0..bytes.len() {
            assert!(CorpusDelta::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // The first text's bytes start after the counts and ids.
        let text_at = bytes.windows(5).position(|w| w == b"caff\xC3").unwrap();
        let mut bad_utf8 = bytes.clone();
        bad_utf8[text_at + 4] = 0xFF;
        assert_eq!(
            CorpusDelta::decode(&bad_utf8),
            Err(DecodeError::InvalidUtf8)
        );
    }

    #[test]
    fn the_empty_delta_is_three_zero_counts() {
        let mut bytes = Vec::new();
        CorpusDelta::new().encode_into(&mut bytes);
        assert_eq!(bytes, [0, 0, 0]);
        assert_eq!(CorpusDelta::decode(&bytes), Ok(CorpusDelta::new()));
        assert_eq!(CorpusDelta::decode(&[]), Err(DecodeError::Truncated));
    }
}
