//! The workload-source abstraction: every front end the simulator can
//! drive — the synthetic [`crate::gen::TraceGenerator`] and the streamed
//! [`crate::reader::TraceReader`] — behind one trait, plus the typed
//! [`WorkloadRef`] value that names a workload at the configuration
//! layer.
//!
//! # The source contract
//!
//! A [`WorkloadSource`] is an **infinite, deterministic** instruction
//! stream with three obligations the run loop leans on:
//!
//! 1. **Filler batching** ([`WorkloadSource::take_filler`]): pending
//!    non-memory instructions can be consumed as one batch without
//!    touching any other source state — the hot loop's main fast path.
//! 2. **Deterministic reseek**: the stream never ends. The generator is
//!    generative; the trace reader wraps from the last record back to
//!    the first, so a replayed file behaves like an unrolled infinite
//!    loop. Two sources built from the same inputs produce the same
//!    stream forever.
//! 3. **Persistable cursor** ([`WorkloadSource::save_cursor`] /
//!    [`WorkloadSource::load_cursor`]): the replay position serializes
//!    into a machine snapshot, so a warm-up checkpoint taken mid-file
//!    resumes bit-identically — including mid-block and mid-filler-run.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use psa_common::{CodecError, Dec, Enc};
use psa_cpu::Instr;

use crate::format;
use crate::gen::TraceGenerator;
use crate::reader::TraceReader;
use crate::spec::WorkloadSpec;

/// Cursor tag byte written by the synthetic generator's cursor.
pub(crate) const SOURCE_KIND_SYNTHETIC: u8 = 0;
/// Cursor tag byte written by the streamed trace reader's cursor.
pub(crate) const SOURCE_KIND_TRACE: u8 = 1;

/// Why a trace file could not be opened, read, or replayed. Every
/// failure mode is a value — hostile or truncated bytes never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The filesystem failed underneath the reader.
    Io {
        /// The trace path.
        path: String,
        /// The underlying error description.
        what: String,
    },
    /// The file ended before the encoded stream was complete.
    Truncated(&'static str),
    /// A structural field held an impossible value (bad magic, checksum
    /// mismatch, record kind out of range, count disagreement…).
    Corrupt(&'static str),
    /// The file was written by a different format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build reads ([`format::TRACE_VERSION`]).
        expected: u32,
    },
    /// The file's content hash does not match the pinned reference.
    HashMismatch {
        /// Hash of the bytes on disk.
        found: u64,
        /// Hash the caller pinned.
        expected: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { path, what } => write!(f, "trace I/O on {path}: {what}"),
            TraceError::Truncated(what) => write!(f, "truncated trace: {what}"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceError::VersionMismatch { found, expected } => write!(
                f,
                "trace format version {found} (this build reads {expected})"
            ),
            TraceError::HashMismatch { found, expected } => write!(
                f,
                "trace content hash {found:#018x} does not match pinned {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// An infinite, deterministic instruction stream driving one core.
///
/// Implementations: [`TraceGenerator`] (synthetic) and [`TraceReader`]
/// (streamed `.psatrace` replay). The run loop holds sources as
/// `Box<dyn WorkloadSource>`; everything it needs is on this trait.
pub trait WorkloadSource: fmt::Debug + Send {
    /// The workload's stable display name (`'static` so experiment
    /// memo keys and failure journals can hold it). Trace sources embed
    /// their content hash in the name, which is what threads the hash
    /// into every checkpoint/report/document key downstream.
    fn name(&self) -> &'static str;

    /// Produce the next instruction of the stream.
    ///
    /// The stream is infinite: this never reports end-of-input. Trace
    /// sources reseek to their first record when the file is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when the backing file turns out to be
    /// truncated, corrupt, or unreadable mid-stream. The synthetic
    /// generator is infallible.
    fn next_instr(&mut self) -> Result<Instr, TraceError>;

    /// Hand over up to `max` pending filler (non-memory) instructions
    /// as one batch, advancing the stream exactly as that many
    /// [`WorkloadSource::next_instr`] calls returning plain ops would.
    /// Returns the number taken.
    ///
    /// # The batching contract (what the hot loop exploits)
    ///
    /// * Fillers consume **no randomness and no shared state**: only
    ///   the owed-filler count and the instruction counter move, so a
    ///   batch of `n` is bit-identical to `n` single steps.
    /// * The return value never exceeds `max`, which is how the run
    ///   loop caps a batch at every boundary it checks per instruction
    ///   (warm-up crossing, THP sample point, total budget, the
    ///   caller's `run_to` step budget) — `run_to(k)` lands on exactly
    ///   step `k` with batching on or off.
    /// * A return of `0` means the next [`WorkloadSource::next_instr`]
    ///   yields a **memory access** (never a filler op).
    /// * Batched fillers bypass per-instruction observation: callers
    ///   that record per-retire events (the obs ring) must not batch,
    ///   so filler ops never enter the event ring in either mode.
    fn take_filler(&mut self, max: u64) -> u64;

    /// Serialize the replay cursor (stream position, owed fillers,
    /// instruction counter — every bit of mutable source state) for a
    /// machine snapshot. The encoding starts with a source-kind tag
    /// byte so a cursor can never silently load into a source of the
    /// other kind.
    fn save_cursor(&self, e: &mut Enc);

    /// Restore a cursor saved by [`WorkloadSource::save_cursor`] into
    /// this source, which must have been built from the same inputs.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated bytes, a foreign source-kind
    /// tag, or a cursor that does not fit the backing stream.
    fn load_cursor(&mut self, d: &mut Dec) -> Result<(), CodecError>;
}

/// Intern a string, returning a `'static` reference. Each distinct
/// string leaks exactly once; repeated calls return the same pointer.
/// Bounded in practice by the distinct trace files and multi-core mixes
/// a process names.
pub fn intern(s: &str) -> &'static str {
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut table = INTERNED.lock().expect("unpoisoned intern table");
    if let Some(hit) = table.iter().find(|&&x| x == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    table.push(leaked);
    leaked
}

/// A validated reference to a `.psatrace` file on disk: path, the
/// header identity, and the content hash of the full file bytes.
///
/// Obtain one via [`TraceRef::open`], which verifies the whole file
/// (header, every block checksum, record walk) and computes the hash —
/// so holding a `TraceRef` means the file was well-formed at open time.
/// `Copy` via interned strings: a `TraceRef` is a plain value that
/// travels through configs, job specs and memo keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRef {
    /// Filesystem path of the trace.
    pub path: &'static str,
    /// Stable workload name: `trace:<header-name>@<content-hash>`. The
    /// embedded hash makes every downstream key (warm-up checkpoint,
    /// report memo, served-document dedup) content-addressed.
    pub name: &'static str,
    /// FNV-1a hash over the complete file bytes.
    pub content_hash: u64,
    /// The header's huge-page fraction, as raw bits so the ref stays
    /// `Eq`/hashable.
    huge_fraction_bits: u64,
    /// Total instructions per replay pass (header count).
    pub instructions: u64,
    /// Total records per replay pass (header count).
    pub records: u64,
}

impl TraceRef {
    /// Open and fully verify the trace at `path`: parse the header,
    /// checksum-walk every block, and hash the file bytes. Verified
    /// refs are memoised per `(path, length, mtime)`, so re-opening an
    /// unchanged file (every variant of a sweep rebuilds its sources)
    /// costs one metadata call, not a re-hash.
    ///
    /// # Errors
    ///
    /// Returns the typed [`TraceError`] for anything wrong with the
    /// file: unreadable, truncated, corrupt, or a foreign version.
    pub fn open(path: &str) -> Result<TraceRef, TraceError> {
        #[allow(clippy::type_complexity)]
        static VERIFIED: Mutex<
            Option<HashMap<(String, u64, Option<std::time::SystemTime>), TraceRef>>,
        > = Mutex::new(None);
        let meta = std::fs::metadata(path).map_err(|e| TraceError::Io {
            path: path.into(),
            what: e.to_string(),
        })?;
        let key = (path.to_owned(), meta.len(), meta.modified().ok());
        let mut memo = VERIFIED.lock().expect("unpoisoned trace-ref memo");
        let memo = memo.get_or_insert_with(HashMap::new);
        if let Some(hit) = memo.get(&key) {
            return Ok(*hit);
        }
        let summary = format::verify_file(path)?;
        let r = TraceRef {
            path: intern(path),
            name: intern(&format!(
                "trace:{}@{:016x}",
                summary.header.name, summary.content_hash
            )),
            content_hash: summary.content_hash,
            huge_fraction_bits: summary.header.huge_fraction.to_bits(),
            instructions: summary.header.instructions,
            records: summary.header.records,
        };
        memo.insert(key, r);
        Ok(r)
    }

    /// [`TraceRef::open`] plus a content-hash pin: the file on disk
    /// must hash to `expected`.
    ///
    /// # Errors
    ///
    /// As [`TraceRef::open`], plus [`TraceError::HashMismatch`] when
    /// the bytes do not match the pin.
    pub fn open_pinned(path: &str, expected: u64) -> Result<TraceRef, TraceError> {
        let r = Self::open(path)?;
        if r.content_hash != expected {
            return Err(TraceError::HashMismatch {
                found: r.content_hash,
                expected,
            });
        }
        Ok(r)
    }

    /// The huge-page fraction recorded in the trace header, used to
    /// seed the replaying core's address space like a synthetic spec's
    /// `huge_fraction`.
    pub fn huge_fraction(&self) -> f64 {
        f64::from_bits(self.huge_fraction_bits)
    }
}

/// A typed workload identity at the configuration layer: what runs on
/// one core. `Copy` and cheap to pass around; the simulator turns it
/// into a live [`WorkloadSource`] at machine-build time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadRef {
    /// A synthetic catalog workload, generated on the fly.
    Synthetic(WorkloadSpec),
    /// A `.psatrace` file streamed from disk, identified by path and
    /// content hash.
    TraceFile(TraceRef),
}

impl WorkloadRef {
    /// The stable workload name (`'static` for memo keys and journals).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadRef::Synthetic(spec) => spec.name,
            WorkloadRef::TraceFile(r) => r.name,
        }
    }

    /// The huge-page fraction driving the core's address-space THP
    /// policy.
    pub fn huge_fraction(&self) -> f64 {
        match self {
            WorkloadRef::Synthetic(spec) => spec.huge_fraction,
            WorkloadRef::TraceFile(r) => r.huge_fraction(),
        }
    }

    /// Build the live source this ref describes. `seed` feeds the
    /// synthetic generator's RNG stream; a trace replay is seedless
    /// (the file *is* the stream) and ignores it.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when a trace file cannot be opened or its
    /// header no longer parses.
    ///
    /// # Panics
    ///
    /// Panics if a synthetic spec fails [`WorkloadSpec::validate`] —
    /// the same contract as [`TraceGenerator::new`].
    pub fn build_source(&self, seed: u64) -> Result<Box<dyn WorkloadSource>, TraceError> {
        match self {
            WorkloadRef::Synthetic(spec) => Ok(Box::new(TraceGenerator::new(spec, seed))),
            WorkloadRef::TraceFile(r) => Ok(Box::new(TraceReader::open(r)?)),
        }
    }
}

impl From<&WorkloadSpec> for WorkloadRef {
    fn from(spec: &WorkloadSpec) -> Self {
        WorkloadRef::Synthetic(*spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_returns_stable_pointers() {
        let a = intern("workload-source-test-a");
        let b = intern("workload-source-test-a");
        assert!(std::ptr::eq(a, b));
        assert_ne!(intern("workload-source-test-b"), a);
    }

    #[test]
    fn errors_display_their_cause() {
        let e = TraceError::VersionMismatch {
            found: 9,
            expected: 1,
        };
        assert!(e.to_string().contains('9'));
        let e = TraceError::HashMismatch {
            found: 1,
            expected: 2,
        };
        assert!(e.to_string().contains("0x"));
        let e = TraceError::Io {
            path: "/nope".into(),
            what: "denied".into(),
        };
        assert!(e.to_string().contains("/nope"));
    }

    #[test]
    fn open_missing_file_is_typed_io() {
        let err = TraceRef::open("/definitely/not/here.psatrace").unwrap_err();
        assert!(matches!(err, TraceError::Io { .. }));
    }

    #[test]
    fn synthetic_ref_names_and_builds() {
        let spec = crate::catalog::workload("lbm").expect("in catalog");
        let r = WorkloadRef::from(spec);
        assert_eq!(r.name(), "lbm");
        assert_eq!(r.huge_fraction(), spec.huge_fraction);
        let mut src = r.build_source(7).expect("synthetic build is infallible");
        assert_eq!(src.name(), "lbm");
        src.next_instr().expect("synthetic stream never fails");
    }
}
