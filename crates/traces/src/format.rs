//! The `.psatrace` on-disk format: a ChampSim-style instruction trace
//! as length-prefixed, checksummed records in bounded blocks behind a
//! versioned header.
//!
//! # Layout
//!
//! ```text
//! header:
//!   magic          8B   b"PSATRACE"
//!   version        4B   u32 LE         (TRACE_VERSION)
//!   name_len       2B   u16 LE
//!   name           name_len bytes      UTF-8 workload name
//!   huge_fraction  8B   f64 LE bits
//!   records        8B   u64 LE         records per replay pass
//!   instructions   8B   u64 LE         instructions per pass (op runs expanded)
//!   header_crc     8B   u64 LE         FNV-1a over all preceding header bytes
//! blocks (until EOF):
//!   payload_len    4B   u32 LE         (1..=MAX_BLOCK_BYTES)
//!   nrecords       4B   u32 LE
//!   payload_crc    8B   u64 LE         FNV-1a over the payload
//!   payload        payload_len bytes   nrecords length-prefixed records
//! record:
//!   len            1B   byte length of what follows
//!   kind           1B   0=Ops 1=Load 2=DependentLoad 3=Store
//!   Ops:           count u32 LE        (a run of `count` non-memory ops)
//!   Load/DependentLoad/Store: pc u64 LE, vaddr u64 LE
//! ```
//!
//! Blocks are the streaming unit: a reader holds at most one decoded
//! block (≤ [`MAX_BLOCK_BYTES`]) in memory, so multi-GB traces replay
//! in constant space. Runs of non-memory instructions are collapsed
//! into `Ops` records — the on-disk mirror of the generator's
//! filler-batching contract.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use psa_cpu::{Instr, InstrKind};

use crate::source::TraceError;

/// Leading magic bytes of every `.psatrace` file.
pub const TRACE_MAGIC: [u8; 8] = *b"PSATRACE";
/// The format version this build writes and reads.
pub const TRACE_VERSION: u32 = 1;
/// Hard ceiling on a block's payload length: bounds reader memory and
/// rejects absurd length fields on corrupt files before allocating.
pub const MAX_BLOCK_BYTES: u32 = 1 << 20;
/// Encoded size of a block header (payload_len, nrecords, payload_crc).
pub const BLOCK_HEADER_BYTES: u64 = 16;

/// Writer default: flush a block at this many records. Small enough that
/// even the < 100 KB CI fixture spans several blocks (exercising block
/// boundaries and the wrap path), large enough to amortise the 16-byte
/// block header.
const BLOCK_RECORD_LIMIT: u32 = 1024;

/// Records and payload bytes of the largest block the writer emits:
/// [`BLOCK_RECORD_LIMIT`] records of at most 18 bytes each (a memory
/// access). The writer's batch buffer and a reader whose [`read_block`]
/// buffers start at these sizes never grow them.
pub(crate) const WRITTEN_BLOCK_RECORDS: usize = BLOCK_RECORD_LIMIT as usize;
pub(crate) const WRITTEN_BLOCK_BYTES: usize = WRITTEN_BLOCK_RECORDS * 18;

/// Finished blocks the writer holds before it checksums them in one
/// lockstep pass ([`Fnv1a::update_lanes`]) and writes them out: four
/// independent chains keep a 64-bit multiplier busy.
const BATCH_BLOCKS: usize = 4;

/// [`verify_file`]'s read buffer: a dozen written blocks per read call.
const VERIFY_BUFFER_BYTES: usize = 1 << 18;

/// Incremental FNV-1a, constant-compatible with
/// [`psa_common::rng::fnv1a`]: hashing a file in chunks yields the
/// same value as hashing the concatenated bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb `parts[i]` into `chains[i]`, every lane in one loop. The
    /// lanes' multiply chains are independent, so they overlap in the
    /// pipeline: four lanes cost about a third of four
    /// [`update`](Self::update)s. The loop runs the lanes in lockstep
    /// over their common length, eight bytes of each per step, and then
    /// finishes each lane's tail alone; each chain ends as `update` over
    /// its part would leave it.
    pub fn update_lanes<const N: usize>(chains: [&mut Fnv1a; N], parts: [&[u8]; N]) {
        // The common length, in whole steps.
        let common = parts.iter().map(|p| p.len()).min().unwrap_or(0) / 8 * 8;
        let mut lanes = chains.each_ref().map(|c| c.0);
        for at in (0..common).step_by(8) {
            let words: [&[u8; 8]; N] = parts.map(|p| p[at..at + 8].try_into().expect("8 bytes"));
            for i in 0..8 {
                for (h, word) in lanes.iter_mut().zip(words) {
                    *h = (*h ^ u64::from(word[i])).wrapping_mul(Self::PRIME);
                }
            }
        }
        for ((chain, h), part) in chains.into_iter().zip(lanes).zip(parts) {
            chain.0 = h;
            chain.update(&part[common..]);
        }
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The parsed trace header: workload identity plus the per-pass counts
/// the reader validates at every wrap.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Workload display name (what the trace was generated from).
    pub name: String,
    /// Huge-page fraction for the replaying core's address space.
    pub huge_fraction: f64,
    /// Records per replay pass.
    pub records: u64,
    /// Instructions per replay pass (`Ops` runs expanded).
    pub instructions: u64,
}

impl TraceHeader {
    /// Encode the header, including the trailing CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(46 + self.name.len());
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        let name = self.name.as_bytes();
        assert!(name.len() <= u16::MAX as usize, "trace name too long");
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&self.huge_fraction.to_bits().to_le_bytes());
        out.extend_from_slice(&self.records.to_le_bytes());
        out.extend_from_slice(&self.instructions.to_le_bytes());
        let mut crc = Fnv1a::new();
        crc.update(&out);
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out
    }

    /// Decode a header from the front of `r`, returning it with its
    /// encoded byte length (where block data starts). When `hash` is
    /// given, the header bytes are absorbed into it.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] when the stream ends inside the
    /// header, [`TraceError::Corrupt`] on bad magic/CRC/name,
    /// [`TraceError::VersionMismatch`] on a foreign version.
    pub fn decode(
        r: &mut impl Read,
        mut hash: Option<&mut Fnv1a>,
    ) -> Result<(Self, u64), TraceError> {
        let mut absorb = |bytes: &[u8]| {
            if let Some(h) = hash.as_deref_mut() {
                h.update(bytes);
            }
        };
        let mut fixed = [0u8; 14];
        read_exact(r, &mut fixed, "header")?;
        absorb(&fixed);
        if fixed[..8] != TRACE_MAGIC {
            return Err(TraceError::Corrupt("magic"));
        }
        let version = u32::from_le_bytes(fixed[8..12].try_into().expect("4 bytes"));
        if version != TRACE_VERSION {
            return Err(TraceError::VersionMismatch {
                found: version,
                expected: TRACE_VERSION,
            });
        }
        let name_len = u16::from_le_bytes(fixed[12..14].try_into().expect("2 bytes")) as usize;
        let mut name = vec![0u8; name_len];
        read_exact(r, &mut name, "header name")?;
        absorb(&name);
        let name = String::from_utf8(name).map_err(|_| TraceError::Corrupt("name not UTF-8"))?;
        let mut tail = [0u8; 32];
        read_exact(r, &mut tail, "header counts")?;
        absorb(&tail);
        let field = |at: usize| u64::from_le_bytes(tail[at..at + 8].try_into().expect("8 bytes"));
        let header = TraceHeader {
            name,
            huge_fraction: f64::from_bits(field(0)),
            records: field(8),
            instructions: field(16),
        };
        let mut crc = Fnv1a::new();
        let encoded = header.encode();
        crc.update(&encoded[..encoded.len() - 8]);
        if crc.finish() != field(24) {
            return Err(TraceError::Corrupt("header checksum"));
        }
        if !(0.0..=1.0).contains(&header.huge_fraction) {
            return Err(TraceError::Corrupt("huge_fraction out of [0,1]"));
        }
        Ok((header, encoded.len() as u64))
    }
}

/// One on-disk record: either a run of non-memory ops or one memory
/// access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRecord {
    /// A run of `count` non-memory instructions (`count > 0`).
    Ops(u32),
    /// An independent load.
    Load {
        /// Program counter.
        pc: u64,
        /// Accessed virtual address.
        vaddr: u64,
    },
    /// A load whose address depends on the previous load.
    DependentLoad {
        /// Program counter.
        pc: u64,
        /// Accessed virtual address.
        vaddr: u64,
    },
    /// A store.
    Store {
        /// Program counter.
        pc: u64,
        /// Accessed virtual address.
        vaddr: u64,
    },
}

impl TraceRecord {
    /// Instructions this record expands to.
    pub fn instructions(&self) -> u64 {
        match self {
            TraceRecord::Ops(n) => u64::from(*n),
            _ => 1,
        }
    }

    /// Append the length-prefixed encoding to `out`, as one fixed-size
    /// copy per record kind.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            TraceRecord::Ops(n) => {
                let [a, b, c, d] = n.to_le_bytes();
                out.extend_from_slice(&[5, 0, a, b, c, d]);
            }
            TraceRecord::Load { pc, vaddr }
            | TraceRecord::DependentLoad { pc, vaddr }
            | TraceRecord::Store { pc, vaddr } => {
                let mut rec = [0u8; 18];
                rec[0] = 17;
                rec[1] = match self {
                    TraceRecord::Load { .. } => 1,
                    TraceRecord::DependentLoad { .. } => 2,
                    _ => 3,
                };
                rec[2..10].copy_from_slice(&pc.to_le_bytes());
                rec[10..].copy_from_slice(&vaddr.to_le_bytes());
                out.extend_from_slice(&rec);
            }
        }
    }

    /// Decode one record from `buf` at `*pos`, advancing `*pos` past it.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] when the buffer ends inside the
    /// record, [`TraceError::Corrupt`] on a bad kind, a length that
    /// disagrees with the kind, or an empty op run.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<TraceRecord, TraceError> {
        let at = *pos;
        let (&len, rest) = buf[at..]
            .split_first()
            .ok_or(TraceError::Truncated("record length"))?;
        let len = usize::from(len);
        let body = rest
            .get(..len)
            .ok_or(TraceError::Truncated("record body"))?;
        let (&kind, fields) = body
            .split_first()
            .ok_or(TraceError::Corrupt("empty record"))?;
        let rec = match (kind, fields.len()) {
            (0, 4) => {
                let n = u32::from_le_bytes(fields.try_into().expect("4 bytes"));
                if n == 0 {
                    return Err(TraceError::Corrupt("empty op run"));
                }
                TraceRecord::Ops(n)
            }
            (1..=3, 16) => {
                let pc = u64::from_le_bytes(fields[..8].try_into().expect("8 bytes"));
                let vaddr = u64::from_le_bytes(fields[8..].try_into().expect("8 bytes"));
                match kind {
                    1 => TraceRecord::Load { pc, vaddr },
                    2 => TraceRecord::DependentLoad { pc, vaddr },
                    _ => TraceRecord::Store { pc, vaddr },
                }
            }
            (0..=3, _) => return Err(TraceError::Corrupt("record length disagrees with kind")),
            _ => return Err(TraceError::Corrupt("record kind")),
        };
        *pos = at + 1 + len;
        Ok(rec)
    }

    /// The memory instruction this record encodes; `None` for op runs.
    pub fn to_instr(&self) -> Option<Instr> {
        use psa_common::VAddr;
        match *self {
            TraceRecord::Ops(_) => None,
            TraceRecord::Load { pc, vaddr } => Some(Instr::load(VAddr::new(pc), VAddr::new(vaddr))),
            TraceRecord::DependentLoad { pc, vaddr } => {
                Some(Instr::dependent_load(VAddr::new(pc), VAddr::new(vaddr)))
            }
            TraceRecord::Store { pc, vaddr } => {
                Some(Instr::store(VAddr::new(pc), VAddr::new(vaddr)))
            }
        }
    }
}

/// Streaming `.psatrace` writer: feed instructions (op runs collapse
/// automatically) or raw records, then [`TraceWriter::finish`] to
/// backpatch the header counts. The writer holds at most four finished
/// blocks: it checksums a full batch in lockstep and writes it with one
/// call, so its memory is bounded however long the trace.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    out: W,
    header: TraceHeader,
    /// The finished blocks of the batch and then the open block, back to
    /// back, each a block header followed by its payload. A finished
    /// block's checksum is filled in when the batch is written.
    batch: Vec<u8>,
    /// Where each block of `batch` starts: `starts[finished]` is the
    /// open block.
    starts: [usize; BATCH_BLOCKS + 1],
    finished: usize,
    block_records: u32,
    records: u64,
    /// Records that are memory accesses (not op runs).
    memory: u64,
    instructions: u64,
    pending_ops: u64,
}

impl TraceWriter<BufWriter<File>> {
    /// Create `path` and write a trace named `name` into it.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on filesystem failure.
    pub fn create(path: &Path, name: &str, huge_fraction: f64) -> Result<Self, TraceError> {
        let file = File::create(path).map_err(|e| TraceError::Io {
            path: path.display().to_string(),
            what: e.to_string(),
        })?;
        Self::new(BufWriter::new(file), name, huge_fraction)
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Start a trace on `out` (positioned at offset 0). A placeholder
    /// header is written immediately and backpatched by
    /// [`TraceWriter::finish`].
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on write failure.
    pub fn new(mut out: W, name: &str, huge_fraction: f64) -> Result<Self, TraceError> {
        let header = TraceHeader {
            name: name.to_owned(),
            huge_fraction,
            records: 0,
            instructions: 0,
        };
        out.write_all(&header.encode()).map_err(io_err)?;
        let mut batch =
            Vec::with_capacity(BATCH_BLOCKS * (BLOCK_HEADER_BYTES as usize + WRITTEN_BLOCK_BYTES));
        batch.extend_from_slice(&[0; BLOCK_HEADER_BYTES as usize]);
        Ok(Self {
            out,
            header,
            batch,
            starts: [0; BATCH_BLOCKS + 1],
            finished: 0,
            block_records: 0,
            records: 0,
            memory: 0,
            instructions: 0,
            pending_ops: 0,
        })
    }

    /// Append one instruction; runs of non-memory ops collapse into
    /// `Ops` records at the next memory access or at finish.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on write failure.
    pub fn push_instr(&mut self, instr: &Instr) -> Result<(), TraceError> {
        match instr.kind {
            InstrKind::Op => {
                self.pending_ops += 1;
                Ok(())
            }
            InstrKind::Load { vaddr, dependent } => {
                let rec = if dependent {
                    TraceRecord::DependentLoad {
                        pc: instr.pc.raw(),
                        vaddr: vaddr.raw(),
                    }
                } else {
                    TraceRecord::Load {
                        pc: instr.pc.raw(),
                        vaddr: vaddr.raw(),
                    }
                };
                self.push(rec)
            }
            InstrKind::Store { vaddr } => self.push(TraceRecord::Store {
                pc: instr.pc.raw(),
                vaddr: vaddr.raw(),
            }),
        }
    }

    /// Append one record (flushing any pending op run first).
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on write failure.
    pub fn push(&mut self, rec: TraceRecord) -> Result<(), TraceError> {
        self.flush_pending_ops()?;
        self.push_raw(rec)
    }

    fn flush_pending_ops(&mut self) -> Result<(), TraceError> {
        while self.pending_ops > 0 {
            let n = self.pending_ops.min(u64::from(u32::MAX)) as u32;
            self.pending_ops -= u64::from(n);
            self.push_raw(TraceRecord::Ops(n))?;
        }
        Ok(())
    }

    fn push_raw(&mut self, rec: TraceRecord) -> Result<(), TraceError> {
        rec.encode(&mut self.batch);
        self.block_records += 1;
        self.records += 1;
        self.memory += u64::from(!matches!(rec, TraceRecord::Ops(_)));
        self.instructions += rec.instructions();
        if self.block_records >= BLOCK_RECORD_LIMIT {
            self.end_block()?;
        }
        Ok(())
    }

    /// Close the open block, if it holds records, and open the next one
    /// behind it; a full batch is written first.
    fn end_block(&mut self) -> Result<(), TraceError> {
        if self.block_records == 0 {
            return Ok(());
        }
        let start = self.starts[self.finished];
        let payload_len = self.batch.len() - start - BLOCK_HEADER_BYTES as usize;
        assert!(payload_len as u64 <= u64::from(MAX_BLOCK_BYTES));
        self.batch[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        self.batch[start + 4..start + 8].copy_from_slice(&self.block_records.to_le_bytes());
        self.block_records = 0;
        self.finished += 1;
        self.starts[self.finished] = self.batch.len();
        if self.finished == BATCH_BLOCKS {
            self.write_batch()?;
        }
        self.batch
            .extend_from_slice(&[0; BLOCK_HEADER_BYTES as usize]);
        Ok(())
    }

    /// Checksum the batch's finished blocks in lockstep, fill in their
    /// checksums and write them with one call, keeping the open block.
    fn write_batch(&mut self) -> Result<(), TraceError> {
        let head = BLOCK_HEADER_BYTES as usize;
        let (starts, finished) = (self.starts, self.finished);
        let mut sums = [Fnv1a::new(); BATCH_BLOCKS];
        let payloads: [&[u8]; BATCH_BLOCKS] = std::array::from_fn(|i| {
            if i < finished {
                &self.batch[starts[i] + head..starts[i + 1]]
            } else {
                &[]
            }
        });
        Fnv1a::update_lanes(sums.each_mut(), payloads);
        for (&start, sum) in starts.iter().zip(&sums).take(finished) {
            self.batch[start + 8..start + head].copy_from_slice(&sum.finish().to_le_bytes());
        }
        let end = starts[finished];
        self.out.write_all(&self.batch[..end]).map_err(io_err)?;
        self.batch.drain(..end);
        self.finished = 0;
        self.starts[0] = 0;
        Ok(())
    }

    /// Flush everything and backpatch the header with the final record
    /// and instruction counts. Returns the finished header.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on write failure, and
    /// [`TraceError::Corrupt`]`("trace contains no memory accesses")`
    /// when no memory access was written: a trace of op runs alone, or
    /// of nothing, cannot replay, and [`verify_file`] refuses it.
    pub fn finish(self) -> Result<TraceHeader, TraceError> {
        self.finish_into().map(|(header, _)| header)
    }

    /// [`TraceWriter::finish`], also handing back the underlying writer
    /// (for in-memory round trips).
    ///
    /// # Errors
    ///
    /// As [`TraceWriter::finish`].
    pub fn finish_into(mut self) -> Result<(TraceHeader, W), TraceError> {
        self.flush_pending_ops()?;
        self.end_block()?;
        self.write_batch()?;
        if self.memory == 0 {
            return Err(TraceError::Corrupt("trace contains no memory accesses"));
        }
        self.header.records = self.records;
        self.header.instructions = self.instructions;
        self.out.seek(SeekFrom::Start(0)).map_err(io_err)?;
        self.out.write_all(&self.header.encode()).map_err(io_err)?;
        self.out.flush().map_err(io_err)?;
        Ok((self.header, self.out))
    }
}

fn io_err(e: std::io::Error) -> TraceError {
    TraceError::Io {
        path: String::new(),
        what: e.to_string(),
    }
}

fn read_exact(r: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated(what)
        } else {
            TraceError::Io {
                path: String::new(),
                what: e.to_string(),
            }
        }
    })
}

/// Read one block's header and payload from `r` into `payload`,
/// replacing what it held, and check the payload against the block
/// checksum. Returns the block's record count and total encoded length,
/// or `None` at a clean end-of-file (the reseek point), leaving
/// `payload` as it was. When `hash` is given, the raw block bytes are
/// absorbed into it, in the same pass over the payload as the block
/// checksum.
///
/// # Errors
///
/// [`TraceError::Truncated`] on a partial block,
/// [`TraceError::Corrupt`] on a length out of range, a record count the
/// payload cannot hold, or a checksum mismatch.
fn read_payload(
    r: &mut impl Read,
    hash: Option<&mut Fnv1a>,
    payload: &mut Vec<u8>,
) -> Result<Option<(u32, u64)>, TraceError> {
    let mut head = [0u8; BLOCK_HEADER_BYTES as usize];
    match r.read(&mut head).map_err(|e| TraceError::Io {
        path: String::new(),
        what: e.to_string(),
    })? {
        0 => return Ok(None),
        n if n < head.len() => {
            read_exact(r, &mut head[n..], "block header")?;
        }
        _ => {}
    }
    let payload_len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
    let nrecords = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    let crc = u64::from_le_bytes(head[8..].try_into().expect("8 bytes"));
    if payload_len == 0 || payload_len > MAX_BLOCK_BYTES || nrecords == 0 {
        return Err(TraceError::Corrupt("block shape"));
    }
    // Every record takes at least two bytes (length and kind), so a
    // larger count is corruption by construction — and must be rejected
    // before it sizes an allocation.
    if nrecords > payload_len / 2 {
        return Err(TraceError::Corrupt("block record count"));
    }
    payload.clear();
    payload.resize(payload_len as usize, 0);
    read_exact(r, payload, "block payload")?;
    let mut sum = Fnv1a::new();
    match hash {
        Some(h) => {
            h.update(&head);
            Fnv1a::update_lanes([&mut sum, h], [payload, payload]);
        }
        None => sum.update(payload),
    }
    if sum.finish() != crc {
        return Err(TraceError::Corrupt("block checksum"));
    }
    Ok(Some((
        nrecords,
        BLOCK_HEADER_BYTES + u64::from(payload_len),
    )))
}

/// Decode a checked payload's `nrecords` records in order, handing each
/// to `each`.
///
/// # Errors
///
/// [`TraceError::Corrupt`] or [`TraceError::Truncated`] on undecodable
/// records, and `Corrupt` when bytes are left over after them.
fn walk_records(
    payload: &[u8],
    nrecords: u32,
    mut each: impl FnMut(TraceRecord),
) -> Result<(), TraceError> {
    let mut pos = 0;
    for _ in 0..nrecords {
        each(TraceRecord::decode(payload, &mut pos)?);
    }
    if pos != payload.len() {
        return Err(TraceError::Corrupt("trailing bytes in block"));
    }
    Ok(())
}

/// Read one block (header + validated payload) from `r` into the
/// caller's buffers: the raw payload into `payload` and its decoded
/// records into `records`, replacing what they held. Returns the block's
/// total encoded length, or `None` at a clean end-of-file (the reseek
/// point), leaving both buffers as they were. Reusing the buffers across
/// blocks, a replay allocates only when a block outgrows every one
/// before it.
///
/// # Errors
///
/// [`TraceError::Truncated`] on a partial block,
/// [`TraceError::Corrupt`] on a length out of range, a record count the
/// payload cannot hold, a checksum mismatch, a record-count mismatch, or
/// undecodable records.
pub fn read_block(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
    records: &mut Vec<TraceRecord>,
) -> Result<Option<u64>, TraceError> {
    let Some((nrecords, len)) = read_payload(r, None, payload)? else {
        return Ok(None);
    };
    records.clear();
    records.reserve(nrecords as usize);
    walk_records(payload, nrecords, |rec| records.push(rec))?;
    Ok(Some(len))
}

/// A full verification pass over one trace file: header parse, every
/// block checksum, every record decoded, counts reconciled against the
/// header — and the content hash of the complete file bytes, computed
/// in the same single streaming pass.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// The validated header.
    pub header: TraceHeader,
    /// FNV-1a over the complete file bytes.
    pub content_hash: u64,
    /// Total file length in bytes.
    pub file_bytes: u64,
    /// Number of blocks walked.
    pub blocks: u64,
}

/// Checksum-walk the trace at `path` (see [`TraceSummary`]). This is
/// the `psa_trace_tool verify` operation and what [`crate::TraceRef::open`]
/// runs before admitting a file.
///
/// # Errors
///
/// The first [`TraceError`] encountered anywhere in the file.
pub fn verify_file(path: impl AsRef<Path>) -> Result<TraceSummary, TraceError> {
    let path = path.as_ref();
    let with_path = |mut e: TraceError| {
        if let TraceError::Io { path: p, .. } = &mut e {
            if p.is_empty() {
                *p = path.display().to_string();
            }
        }
        e
    };
    let file = File::open(path).map_err(|e| TraceError::Io {
        path: path.display().to_string(),
        what: e.to_string(),
    })?;
    let mut r = BufReader::with_capacity(VERIFY_BUFFER_BYTES, file);
    let mut hash = Fnv1a::new();
    let (header, header_len) = TraceHeader::decode(&mut r, Some(&mut hash)).map_err(with_path)?;
    let mut records = 0u64;
    let mut instructions = 0u64;
    let mut memory = 0u64;
    let mut blocks = 0u64;
    let mut file_bytes = header_len;
    let mut payload = Vec::with_capacity(WRITTEN_BLOCK_BYTES);
    while let Some((nrecords, len)) =
        read_payload(&mut r, Some(&mut hash), &mut payload).map_err(with_path)?
    {
        blocks += 1;
        file_bytes += len;
        records += u64::from(nrecords);
        walk_records(&payload, nrecords, |rec| {
            instructions += rec.instructions();
            memory += u64::from(!matches!(rec, TraceRecord::Ops(_)));
        })?;
    }
    if records != header.records || instructions != header.instructions {
        return Err(TraceError::Corrupt("header counts disagree with records"));
    }
    if memory == 0 {
        return Err(TraceError::Corrupt("trace contains no memory accesses"));
    }
    Ok(TraceSummary {
        header,
        content_hash: hash.finish(),
        file_bytes,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::Load {
                pc: 0x40_0000,
                vaddr: 0x1_0000,
            },
            TraceRecord::Ops(3),
            TraceRecord::Store {
                pc: 0x40_0008,
                vaddr: 0x1_0040,
            },
            TraceRecord::DependentLoad {
                pc: 0x40_0010,
                vaddr: 0x2_0000,
            },
        ]
    }

    fn write_sample() -> Vec<u8> {
        let mut w =
            TraceWriter::new(Cursor::new(Vec::new()), "sample", 0.5).expect("in-memory write");
        for rec in sample_records() {
            w.push(rec).unwrap();
        }
        for _ in 0..2 {
            w.push_instr(&Instr::op(psa_common::VAddr::new(0x10_0000)))
                .unwrap();
        }
        let (header, cursor) = w.finish_into().unwrap();
        assert_eq!(header.records, 5); // trailing ops collapse into one run
        assert_eq!(header.instructions, 1 + 3 + 1 + 1 + 2);
        cursor.into_inner()
    }

    #[test]
    fn records_round_trip() {
        let mut buf = Vec::new();
        for rec in sample_records() {
            rec.encode(&mut buf);
        }
        let mut pos = 0;
        for rec in sample_records() {
            assert_eq!(TraceRecord::decode(&buf, &mut pos).unwrap(), rec);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn header_round_trips_and_rejects_damage() {
        let h = TraceHeader {
            name: "lbm".into(),
            huge_fraction: 0.75,
            records: 10,
            instructions: 40,
        };
        let bytes = h.encode();
        let (back, len) = TraceHeader::decode(&mut Cursor::new(&bytes), None).unwrap();
        assert_eq!(back, h);
        assert_eq!(len as usize, bytes.len());
        // Bit flip anywhere in the header: the CRC catches it.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        let err = TraceHeader::decode(&mut Cursor::new(&bad), None).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::Corrupt(_) | TraceError::VersionMismatch { .. }
            ),
            "{err}"
        );
        // Truncation at every cut of the fixed prefix.
        for cut in [0, 7, 13, bytes.len() - 1] {
            let err = TraceHeader::decode(&mut Cursor::new(&bytes[..cut]), None).unwrap_err();
            assert!(matches!(err, TraceError::Truncated(_)), "cut {cut}: {err}");
        }
        // Foreign version.
        let mut v2 = bytes.clone();
        v2[8..12].copy_from_slice(&(TRACE_VERSION + 1).to_le_bytes());
        assert!(matches!(
            TraceHeader::decode(&mut Cursor::new(&v2), None).unwrap_err(),
            TraceError::VersionMismatch {
                expected: TRACE_VERSION,
                ..
            }
        ));
    }

    #[test]
    fn block_stream_round_trips() {
        let bytes = write_sample();
        let mut r = Cursor::new(&bytes);
        let (header, _) = TraceHeader::decode(&mut r, None).unwrap();
        let mut records = Vec::new();
        let (mut payload, mut recs) = (Vec::new(), Vec::new());
        while read_block(&mut r, &mut payload, &mut recs)
            .unwrap()
            .is_some()
        {
            records.extend_from_slice(&recs);
        }
        assert_eq!(records.len() as u64, header.records);
        let instrs: u64 = records.iter().map(TraceRecord::instructions).sum();
        assert_eq!(instrs, header.instructions);
    }

    #[test]
    fn bad_records_are_typed() {
        // Unknown kind.
        let buf = [2, 9, 0];
        let mut pos = 0;
        assert!(matches!(
            TraceRecord::decode(&buf, &mut pos).unwrap_err(),
            TraceError::Corrupt("record kind")
        ));
        // Length disagrees with kind.
        let buf = [3, 1, 0, 0];
        let mut pos = 0;
        assert!(matches!(
            TraceRecord::decode(&buf, &mut pos).unwrap_err(),
            TraceError::Corrupt(_)
        ));
        // Empty op run.
        let buf = [5, 0, 0, 0, 0, 0];
        let mut pos = 0;
        assert!(matches!(
            TraceRecord::decode(&buf, &mut pos).unwrap_err(),
            TraceError::Corrupt("empty op run")
        ));
        // Truncated body.
        let buf = [17, 1, 0];
        let mut pos = 0;
        assert!(matches!(
            TraceRecord::decode(&buf, &mut pos).unwrap_err(),
            TraceError::Truncated(_)
        ));
    }

    #[test]
    fn incremental_fnv_matches_one_shot() {
        let bytes = write_sample();
        let mut h = Fnv1a::new();
        for chunk in bytes.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), psa_common::rng::fnv1a(&bytes));
    }
}
