//! Streamed `.psatrace` replay: a [`TraceReader`] drives one core from
//! a trace file through the [`WorkloadSource`] trait, holding at most
//! one decoded block in memory.
//!
//! # Replay model
//!
//! The reader keeps an **eager-absorption invariant**: whenever control
//! returns to the caller, every `Ops` run up to the next memory record
//! has already been folded into the owed-filler count, and the cursor
//! rests on a memory record. That is what makes the trait's batching
//! contract hold for traces exactly as it does for the generator —
//! `take_filler` is pure arithmetic (no IO), and a return of `0`
//! guarantees the next instruction is a memory access.
//!
//! When the last record of the file has been consumed the reader
//! **reseeks** to the first block and continues — a trace replays as an
//! unrolled infinite loop, satisfying the trait's never-ending-stream
//! contract. Every wrap revalidates that the pass consumed exactly the
//! instruction count the header promised, so a file mutated underneath
//! a running replay surfaces as a typed error rather than silent drift.
//!
//! Filler ops are re-synthesized with the same pc pattern the synthetic
//! generator uses, so downstream consumers (fetch accounting, obs
//! events) see identically-shaped streams from both source kinds.

use std::fs::File;
use std::io::{BufReader, Seek, SeekFrom};
use std::path::Path;

use psa_common::{CodecError, Dec, Enc, VAddr};
use psa_cpu::Instr;

use crate::format::{self, TraceHeader, TraceRecord};
use crate::source::{TraceError, TraceRef, WorkloadSource, SOURCE_KIND_TRACE};

/// A [`WorkloadSource`] that replays a `.psatrace` file as an infinite
/// stream. See the module docs for the replay model.
pub struct TraceReader {
    file: BufReader<File>,
    /// Interned path, for error context.
    path: &'static str,
    /// Interned `trace:<name>@<hash>` workload name.
    name: &'static str,
    /// Content hash pinned at open time; stamped into saved cursors.
    content_hash: u64,
    header: TraceHeader,
    /// File offset where block data begins (just past the header).
    data_start: u64,
    /// Decoded records of the current block.
    block: Vec<TraceRecord>,
    /// Raw payload of the current block: [`format::read_block`]'s
    /// scratch, kept so that loading a block reuses its storage.
    payload: Vec<u8>,
    /// File offset of the current block.
    block_offset: u64,
    /// File offset of the block after the current one.
    next_block_offset: u64,
    /// Index into `block` of the next unconsumed record — always a
    /// memory record when control is outside the reader.
    next_rec: usize,
    /// Absorbed-but-unemitted filler instructions.
    filler_left: u64,
    /// Instructions emitted so far (drives the filler pc pattern).
    count: u64,
    /// Instructions consumed from the file in the current pass;
    /// validated against the header at every wrap.
    consumed: u64,
    /// Completed passes over the file.
    wraps: u64,
}

impl std::fmt::Debug for TraceReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceReader")
            .field("name", &self.name)
            .field("path", &self.path)
            .field("block_offset", &self.block_offset)
            .field("next_rec", &self.next_rec)
            .field("filler_left", &self.filler_left)
            .field("count", &self.count)
            .field("consumed", &self.consumed)
            .field("wraps", &self.wraps)
            .finish()
    }
}

impl TraceReader {
    /// Open a replay stream on a verified trace. Parses the header and
    /// positions the cursor on the first memory record; block checksums
    /// are then validated as replay streams through them (the full-file
    /// walk already happened in [`TraceRef::open`]).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when the file no longer opens, the header
    /// no longer parses, or the leading records are damaged.
    pub fn open(tref: &TraceRef) -> Result<Self, TraceError> {
        let file = File::open(Path::new(tref.path)).map_err(|e| TraceError::Io {
            path: tref.path.to_owned(),
            what: e.to_string(),
        })?;
        let mut file = BufReader::new(file);
        let (header, data_start) = TraceHeader::decode(&mut file, None)?;
        let mut reader = TraceReader {
            file,
            path: tref.path,
            name: tref.name,
            content_hash: tref.content_hash,
            header,
            data_start,
            block: Vec::with_capacity(format::WRITTEN_BLOCK_RECORDS),
            payload: Vec::with_capacity(format::WRITTEN_BLOCK_BYTES),
            block_offset: data_start,
            next_block_offset: data_start,
            next_rec: 0,
            filler_left: 0,
            count: 0,
            consumed: 0,
            wraps: 0,
        };
        reader.absorb_ops()?;
        Ok(reader)
    }

    /// The parsed trace header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Completed passes over the file.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }

    fn io(&self, e: TraceError) -> TraceError {
        // Stamp the path into errors minted below the reader, which
        // does not know it.
        match e {
            TraceError::Io { path, what } if path.is_empty() => TraceError::Io {
                path: self.path.to_owned(),
                what,
            },
            other => other,
        }
    }

    /// Load the block at `next_block_offset` (the stream is already
    /// positioned there). `Ok(false)` means clean end-of-file.
    fn advance_block(&mut self) -> Result<bool, TraceError> {
        let read = format::read_block(&mut self.file, &mut self.payload, &mut self.block);
        match read.map_err(|e| self.io(e))? {
            None => Ok(false),
            Some(encoded_len) => {
                self.block_offset = self.next_block_offset;
                self.next_block_offset += encoded_len;
                self.next_rec = 0;
                Ok(true)
            }
        }
    }

    /// Reseek to the first block after a completed pass, validating the
    /// pass against the header counts.
    fn wrap(&mut self) -> Result<(), TraceError> {
        if self.consumed != self.header.instructions {
            return Err(TraceError::Corrupt(
                "pass length disagrees with header instruction count",
            ));
        }
        self.consumed = 0;
        self.wraps += 1;
        self.file
            .seek(SeekFrom::Start(self.data_start))
            .map_err(|e| {
                self.io(TraceError::Io {
                    path: String::new(),
                    what: e.to_string(),
                })
            })?;
        self.block.clear();
        self.block_offset = self.data_start;
        self.next_block_offset = self.data_start;
        self.next_rec = 0;
        Ok(())
    }

    /// Establish the eager-absorption invariant: fold `Ops` runs into
    /// `filler_left` (crossing blocks and wrapping as needed) until the
    /// cursor rests on a memory record.
    fn absorb_ops(&mut self) -> Result<(), TraceError> {
        let mut wraps_here = 0u32;
        loop {
            if self.next_rec == self.block.len() {
                if self.advance_block()? {
                    continue;
                }
                if wraps_here > 0 {
                    // A full extra pass found nothing but op runs:
                    // unreachable for files admitted by `verify_file`,
                    // but a file swapped underneath us must not spin.
                    return Err(TraceError::Corrupt("trace contains no memory accesses"));
                }
                self.wrap()?;
                wraps_here += 1;
                continue;
            }
            match self.block[self.next_rec] {
                TraceRecord::Ops(n) => {
                    self.filler_left += u64::from(n);
                    self.consumed += u64::from(n);
                    self.next_rec += 1;
                }
                _ => return Ok(()),
            }
        }
    }
}

impl WorkloadSource for TraceReader {
    fn name(&self) -> &'static str {
        self.name
    }

    fn next_instr(&mut self) -> Result<Instr, TraceError> {
        self.count += 1;
        if self.filler_left > 0 {
            self.filler_left -= 1;
            // Same pc pattern as the synthetic generator's filler ops.
            return Ok(Instr::op(VAddr::new(0x10_0000 + (self.count % 64) * 4)));
        }
        let rec = self.block[self.next_rec];
        self.next_rec += 1;
        self.consumed += 1;
        self.absorb_ops()?;
        Ok(rec
            .to_instr()
            .expect("invariant: cursor rests on a memory record"))
    }

    fn take_filler(&mut self, max: u64) -> u64 {
        let n = self.filler_left.min(max);
        self.filler_left -= n;
        self.count += n;
        n
    }

    fn save_cursor(&self, e: &mut Enc) {
        e.put_u8(SOURCE_KIND_TRACE);
        e.put_u64(self.content_hash);
        e.put_u64(self.block_offset);
        e.put_u64(self.next_rec as u64);
        e.put_u64(self.filler_left);
        e.put_u64(self.count);
        e.put_u64(self.consumed);
        e.put_u64(self.wraps);
    }

    fn load_cursor(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        if d.get_u8()? != SOURCE_KIND_TRACE {
            return Err(CodecError::Corrupt("cursor is not a trace cursor"));
        }
        if d.get_u64()? != self.content_hash {
            return Err(CodecError::Corrupt("cursor is for a different trace"));
        }
        let block_offset = d.get_u64()?;
        let next_rec = d.get_u64()? as usize;
        let filler_left = d.get_u64()?;
        let count = d.get_u64()?;
        let consumed = d.get_u64()?;
        let wraps = d.get_u64()?;
        // Reposition the stream and revalidate the landing block: the
        // file passed a content-hash check at build time, but the
        // cursor must still land on an in-bounds memory record.
        self.file
            .seek(SeekFrom::Start(block_offset))
            .map_err(|_| CodecError::Corrupt("trace unreadable during cursor restore"))?;
        self.next_block_offset = block_offset;
        self.block.clear();
        self.next_rec = 0;
        match self.advance_block() {
            Ok(true) => {}
            _ => return Err(CodecError::Corrupt("trace cursor points past the data")),
        }
        if next_rec >= self.block.len() || matches!(self.block[next_rec], TraceRecord::Ops(_)) {
            return Err(CodecError::Corrupt(
                "trace cursor does not rest on a memory record",
            ));
        }
        self.next_rec = next_rec;
        self.filler_left = filler_left;
        self.count = count;
        self.consumed = consumed;
        self.wraps = wraps;
        Ok(())
    }
}
