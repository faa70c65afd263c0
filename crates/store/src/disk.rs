//! On-disk formats of the store: segment frames and the manifest.
//!
//! A **segment** (`seg-<id>.psg`) is an append-only file of frames;
//! each frame is a small checksummed header followed by the payload.
//! Frames are never located by scanning — the **manifest** (`MANIFEST`)
//! is the single source of truth mapping `(kind, key)` to
//! `(segment, offset, length, checksum)`. The manifest is replaced
//! atomically (tmp file + fsync + rename + directory fsync) *after*
//! the frames it references are durable, so at every crash point the
//! on-disk manifest references only complete frames:
//!
//! * crash mid-append → garbage at a segment tail that no manifest
//!   entry references; ignored, reclaimed by compaction;
//! * crash mid-manifest-write → a `MANIFEST.tmp` leftover next to an
//!   intact old `MANIFEST`; the tmp is deleted at recovery;
//! * bit rot anywhere → the frame (or manifest) checksum fails and the
//!   entry is quarantined, never decoded.

use psa_common::codec::{CodecError, Dec, Enc};
use psa_common::rng::fnv1a;
use std::collections::HashMap;

/// Magic prefix of every frame header.
pub const FRAME_MAGIC: [u8; 4] = *b"PSPG";
/// Encoded size of a frame header.
pub const FRAME_HEADER_LEN: usize = 4 + 1 + 8 + 8 + 8;

/// Magic prefix of the manifest file.
pub const MANIFEST_MAGIC: [u8; 8] = *b"PSAMAN\x00\x01";
/// Version written into (and required of) the manifest.
pub const MANIFEST_VERSION: u32 = 1;

/// File name of the current manifest within the store directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// File name the next manifest is staged under before the atomic rename.
pub const MANIFEST_TMP_NAME: &str = "MANIFEST.tmp";

/// Name of segment `id` within the store directory.
pub fn seg_file_name(id: u32) -> String {
    format!("seg-{id:08x}.psg")
}

/// Inverse of [`seg_file_name`]; `None` for foreign files (the store
/// shares its directory with legacy flat `.ckpt` files and must never
/// touch anything it does not own).
pub fn parse_seg_file_name(name: &str) -> Option<u32> {
    let id = name.strip_prefix("seg-")?.strip_suffix(".psg")?;
    if id.len() != 8 {
        return None;
    }
    u32::from_str_radix(id, 16).ok()
}

/// One manifest entry: where a payload lives and how to verify it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Entry-kind tag (see `EntryKind`).
    pub kind: u8,
    /// Content key.
    pub key: u64,
    /// Segment id holding the frame.
    pub seg: u32,
    /// Byte offset of the frame header within the segment.
    pub offset: u64,
    /// Payload length in bytes (excludes the frame header).
    pub len: u64,
    /// `fnv1a` of the payload.
    pub checksum: u64,
    /// LRU stamp; larger = more recently used.
    pub stamp: u64,
}

impl Entry {
    /// Total frame size on disk (header + payload).
    pub fn frame_len(&self) -> u64 {
        FRAME_HEADER_LEN as u64 + self.len
    }
}

/// Decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Entry-kind tag.
    pub kind: u8,
    /// Content key.
    pub key: u64,
    /// Payload length.
    pub len: u64,
    /// `fnv1a` of the payload.
    pub checksum: u64,
}

/// Encode a frame (header + payload) ready to append to a segment.
/// `checksum` must be `fnv1a(payload)`; the caller has already computed
/// it, and hashing a snapshot-sized payload twice is a measurable cost.
pub fn encode_frame(kind: u8, key: u64, payload: &[u8], checksum: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(kind);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parse and validate the fixed-size frame header at the start of
/// `bytes`.
pub fn parse_frame_header(bytes: &[u8]) -> Result<FrameHeader, CodecError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(CodecError::Eof);
    }
    if bytes[..4] != FRAME_MAGIC {
        return Err(CodecError::Corrupt("frame magic"));
    }
    let kind = bytes[4];
    let key = u64::from_le_bytes(bytes[5..13].try_into().expect("len 8"));
    let len = u64::from_le_bytes(bytes[13..21].try_into().expect("len 8"));
    let checksum = u64::from_le_bytes(bytes[21..29].try_into().expect("len 8"));
    Ok(FrameHeader {
        kind,
        key,
        len,
        checksum,
    })
}

/// The in-memory manifest: entry map plus allocation state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// Monotonic swap counter (diagnostic; also salts tmp staging).
    pub generation: u64,
    /// Next segment id to allocate.
    pub next_seg_id: u32,
    /// LRU clock high-water mark.
    pub clock: u64,
    /// Live entries by `(kind, key)`.
    pub entries: HashMap<(u8, u64), Entry>,
}

impl Manifest {
    /// Serialize deterministically (entries sorted by key) with a
    /// whole-file checksum trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_bytes(&MANIFEST_MAGIC);
        e.put_u32(MANIFEST_VERSION);
        e.put_u64(self.generation);
        e.put_u32(self.next_seg_id);
        e.put_u64(self.clock);
        let mut keys: Vec<&(u8, u64)> = self.entries.keys().collect();
        keys.sort();
        e.put_usize(keys.len());
        for k in keys {
            let ent = &self.entries[k];
            e.put_u8(ent.kind);
            e.put_u64(ent.key);
            e.put_u32(ent.seg);
            e.put_u64(ent.offset);
            e.put_u64(ent.len);
            e.put_u64(ent.checksum);
            e.put_u64(ent.stamp);
        }
        let mut bytes = e.into_bytes();
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Decode and fully validate a manifest file.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, wrong magic/version, or checksum
    /// mismatch — the caller treats any of these as "manifest corrupt"
    /// and rebuilds an empty store.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        if bytes.len() < 8 + 8 {
            return Err(CodecError::Eof);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("len 8"));
        if fnv1a(body) != stored {
            return Err(CodecError::Corrupt("manifest checksum"));
        }
        let mut d = Dec::new(body);
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = d.get_u8()?;
        }
        if magic != MANIFEST_MAGIC {
            return Err(CodecError::Corrupt("manifest magic"));
        }
        let version = d.get_u32()?;
        if version != MANIFEST_VERSION {
            return Err(CodecError::Corrupt("manifest version"));
        }
        let mut m = Manifest {
            generation: d.get_u64()?,
            next_seg_id: d.get_u32()?,
            clock: d.get_u64()?,
            entries: HashMap::new(),
        };
        let n = d.get_len()?;
        for _ in 0..n {
            let ent = Entry {
                kind: d.get_u8()?,
                key: d.get_u64()?,
                seg: d.get_u32()?,
                offset: d.get_u64()?,
                len: d.get_u64()?,
                checksum: d.get_u64()?,
                stamp: d.get_u64()?,
            };
            m.entries.insert((ent.kind, ent.key), ent);
        }
        if d.remaining() != 0 {
            return Err(CodecError::Corrupt("manifest trailing bytes"));
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest {
            generation: 7,
            next_seg_id: 3,
            clock: 99,
            entries: HashMap::new(),
        };
        for i in 0..5u64 {
            let ent = Entry {
                kind: (i % 2) as u8,
                key: i * 1000,
                seg: (i % 3) as u32,
                offset: i * 64,
                len: 32 + i,
                checksum: 0xdead_beef ^ i,
                stamp: 10 + i,
            };
            m.entries.insert((ent.kind, ent.key), ent);
        }
        m
    }

    #[test]
    fn manifest_roundtrip() {
        let m = sample();
        let bytes = m.encode();
        let back = Manifest::decode(&bytes).expect("decode");
        assert_eq!(m, back);
    }

    #[test]
    fn manifest_encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }

    #[test]
    fn manifest_rejects_any_bitflip() {
        let bytes = sample().encode();
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Manifest::decode(&bad).is_err(),
                "bit {bit} flipped but manifest still decoded"
            );
        }
    }

    #[test]
    fn manifest_rejects_truncation() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(Manifest::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn frame_roundtrip() {
        let payload = b"page size aware prefetching";
        let frame = encode_frame(1, 0xabcd, payload, fnv1a(payload));
        assert_eq!(frame.len(), FRAME_HEADER_LEN + payload.len());
        let h = parse_frame_header(&frame).expect("header");
        assert_eq!(h.kind, 1);
        assert_eq!(h.key, 0xabcd);
        assert_eq!(h.len, payload.len() as u64);
        assert_eq!(h.checksum, fnv1a(payload));
        assert_eq!(&frame[FRAME_HEADER_LEN..], payload);
    }

    #[test]
    fn frame_header_rejects_corruption() {
        let frame = encode_frame(0, 9, b"xyz", fnv1a(b"xyz"));
        let mut bad = frame.clone();
        bad[0] ^= 0xff;
        assert!(parse_frame_header(&bad).is_err());
        assert!(parse_frame_header(&frame[..FRAME_HEADER_LEN - 1]).is_err());
    }

    #[test]
    fn seg_names_roundtrip_and_reject_foreign_files() {
        assert_eq!(seg_file_name(42), "seg-0000002a.psg");
        assert_eq!(parse_seg_file_name("seg-0000002a.psg"), Some(42));
        assert_eq!(parse_seg_file_name("psa-0011223344556677.ckpt"), None);
        assert_eq!(parse_seg_file_name("MANIFEST"), None);
        assert_eq!(parse_seg_file_name("seg-xyz.psg"), None);
    }
}
