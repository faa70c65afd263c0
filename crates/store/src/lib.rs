//! Crash-safe tiered checkpoint/result store for the *Page Size Aware
//! Cache Prefetching* reproduction.
//!
//! The experiment executor re-runs large workload×variant matrices;
//! what makes that cheap is sharing warm-up snapshots and finished
//! `RunReport`s across figures, processes and machines. This crate is
//! the storage tier behind that sharing:
//!
//! * a **memory tier** — a byte-budgeted true-LRU cache ([`lru::Lru`])
//!   of decoded payloads, promoted on hit;
//! * a **disk tier** — append-only segments of checksummed frames
//!   under a versioned manifest that is swapped atomically
//!   (tmp + fsync + rename + dir fsync), with size-budgeted LRU
//!   eviction and compaction of mostly-dead segments ([`disk`]);
//! * an **IO fault boundary** — all filesystem access goes through
//!   [`io::StoreIo`], so the deterministic fault injector
//!   ([`fault::FaultIo`]) can drive the store through torn writes, bit
//!   flips, `ENOSPC`, transient `EIO` and whole-process crashes at
//!   chosen operation indices.
//!
//! The robustness contract, enforced by the crash-point property test
//! in `tests/crash_points.rs`: whatever the fault history, a `get`
//! either returns **exactly the bytes that were put** or **nothing**
//! — never wrong bits. Transient faults are retried with bounded
//! backoff; permanent ones degrade the store to memory-only operation;
//! corrupt entries are quarantined and counted through
//! [`psa_common::obs::store`].
//!
//! Design notes: the layout is the classic page-cache-over-segments
//! shape (wackdb's LRU page cache with scatter/gather reads,
//! pingora-slice's tiered cache, NexusLite's versioned-page manifest
//! batching — see the repo's SNIPPETS.md); payloads are opaque byte
//! blobs here, typically `psa_sim` snapshot or report encodings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod fault;
pub mod io;
pub mod lru;
pub mod sync;

use disk::{
    encode_frame, parse_frame_header, seg_file_name, Entry, Manifest, FRAME_HEADER_LEN,
    MANIFEST_NAME, MANIFEST_TMP_NAME,
};
use fault::{FaultIo, FaultPlan};
use io::{is_enospc, is_transient, RealIo, StoreIo};
use psa_common::obs::store as store_obs;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// What a stored payload is; tags keep the key spaces disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// A warm-machine snapshot (`psa_sim::Snapshot` bytes).
    Warmup,
    /// A finished, encoded `RunReport`.
    Report,
    /// A finished BENCH document (schema-v4 JSON bytes): the whole
    /// assembled sweep result, memoised so a repeat request is served
    /// without touching the simulator at all.
    Document,
}

impl EntryKind {
    /// Stable on-disk tag.
    pub fn tag(self) -> u8 {
        match self {
            EntryKind::Warmup => 0,
            EntryKind::Report => 1,
            EntryKind::Document => 2,
        }
    }
}

/// Which tier served a [`Store::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Served from the in-process memory LRU.
    Memory,
    /// Read and verified from a disk segment.
    Disk,
}

/// Why a store write (or the store as a whole) failed.
///
/// `get` never returns errors — a failed read is a miss — but `put`
/// reports what happened so callers can count and journal it. No
/// variant ever implies data corruption was *served*; failures degrade
/// to cold work, not wrong bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A transient fault persisted through every retry attempt.
    Transient {
        /// Operation description.
        what: String,
        /// Attempts made (including the first).
        attempts: u32,
    },
    /// The disk is out of space and eviction could not free enough.
    NoSpace {
        /// Operation description.
        what: String,
    },
    /// A permanent, unclassified IO failure.
    Io {
        /// Operation description.
        what: String,
    },
    /// The file does not exist (internal; used during recovery).
    NotFound,
    /// The store previously degraded to memory-only operation.
    Degraded,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Transient { what, attempts } => {
                write!(f, "transient IO failure after {attempts} attempts: {what}")
            }
            StoreError::NoSpace { what } => write!(f, "out of disk space: {what}"),
            StoreError::Io { what } => write!(f, "IO failure: {what}"),
            StoreError::NotFound => write!(f, "file not found"),
            StoreError::Degraded => write!(f, "store degraded to memory-only operation"),
        }
    }
}

impl std::error::Error for StoreError {}

/// What recovery-on-open found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Entries that validated and were kept.
    pub entries_kept: usize,
    /// Entries dropped (out of bounds, bad header, missing segment).
    pub entries_dropped: usize,
    /// Unreferenced or orphaned files deleted.
    pub files_removed: usize,
    /// Payload bytes referenced by the kept entries.
    pub recovered_bytes: u64,
    /// True if the manifest itself was unreadable and the store
    /// restarted empty.
    pub manifest_corrupt: bool,
}

/// Configuration for [`Store::open`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the manifest and segments. Shared with legacy
    /// flat `psa-*.ckpt` files, which the store never touches.
    pub dir: PathBuf,
    /// Memory-tier budget in bytes.
    pub mem_cap_bytes: usize,
    /// Disk-tier budget in bytes (live frame bytes; eviction target).
    pub disk_cap_bytes: u64,
    /// Segment size at which appends rotate to a fresh segment.
    pub segment_cap_bytes: u64,
    /// Maximum attempts for a transiently-failing IO operation.
    pub max_attempts: u32,
    /// Deterministic fault plan (tests/CI); `None` for clean IO.
    pub fault_plan: Option<FaultPlan>,
}

impl StoreConfig {
    /// Defaults: 256 MiB memory, 2 GiB disk, 4 MiB segments, 4 attempts.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            mem_cap_bytes: 256 << 20,
            disk_cap_bytes: 2 << 30,
            segment_cap_bytes: 4 << 20,
            max_attempts: 4,
            fault_plan: None,
        }
    }
}

/// Per-segment byte accounting for eviction/compaction decisions.
#[derive(Debug, Clone, Copy, Default)]
struct SegUsage {
    /// Frame bytes still referenced by the manifest.
    live: u64,
    /// Frame bytes ever appended (live + dead); file may be larger
    /// still because torn appends leave unaccounted garbage.
    total: u64,
}

/// The tiered store. One instance per directory; callers serialize
/// access (the experiment layer keeps it behind a mutex).
pub struct Store {
    cfg: StoreConfig,
    io: Box<dyn StoreIo>,
    mem: lru::Lru,
    manifest: Manifest,
    seg_usage: HashMap<u32, SegUsage>,
    live_bytes: u64,
    open_seg: u32,
    open_seg_len: u64,
    degraded: bool,
    recovery: RecoveryReport,
}

fn obs() -> &'static store_obs::StoreObs {
    store_obs::global()
}

/// Run `f` with bounded retry on transient errors (exponential
/// backoff, 2^attempt ms). Classifies the final error.
fn retried<T>(
    io: &mut dyn StoreIo,
    max_attempts: u32,
    what: &str,
    mut f: impl FnMut(&mut dyn StoreIo) -> std::io::Result<T>,
) -> Result<T, StoreError> {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match f(io) {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempts < max_attempts.max(1) => {
                obs().retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1u64 << attempts.min(4)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(StoreError::NotFound),
            Err(e) if is_enospc(&e) => {
                return Err(StoreError::NoSpace {
                    what: format!("{what}: {e}"),
                })
            }
            Err(e) if is_transient(&e) => {
                return Err(StoreError::Transient {
                    what: format!("{what}: {e}"),
                    attempts,
                })
            }
            Err(e) => {
                return Err(StoreError::Io {
                    what: format!("{what}: {e}"),
                })
            }
        }
    }
}

impl Store {
    /// Open (or create) the store at `cfg.dir`, running recovery.
    ///
    /// Never fails: an unreadable directory or manifest degrades to an
    /// empty (or memory-only) store, with the damage described in
    /// [`Store::recovery`] and the global obs counters.
    pub fn open(cfg: StoreConfig) -> Self {
        let io: Box<dyn StoreIo> = match &cfg.fault_plan {
            Some(plan) if !plan.is_empty() => Box::new(FaultIo::new(RealIo::new(), plan.clone())),
            _ => Box::new(RealIo::new()),
        };
        Self::open_with_io(cfg, io)
    }

    /// [`Store::open`] with caller-supplied IO (tests inject
    /// `FaultIo` directly to keep a handle on its operation counter).
    pub fn open_with_io(cfg: StoreConfig, mut io: Box<dyn StoreIo>) -> Self {
        let mut recovery = RecoveryReport::default();
        let max = cfg.max_attempts;
        let dir = cfg.dir.clone();
        let mut degraded = false;

        if retried(io.as_mut(), max, "create store dir", |io| {
            io.create_dir_all(&dir)
        })
        .is_err()
        {
            degraded = true;
        }

        // 1. Read the manifest. Absent → fresh store. Corrupt → the
        //    segments are unlocatable; quarantine them all. Unreadable
        //    (IO failure) → keep files intact, run memory-only.
        let manifest_path = dir.join(MANIFEST_NAME);
        let mut gc_allowed = true;
        let mut manifest = match retried(io.as_mut(), max, "read manifest", |io| {
            io.read_file(&manifest_path)
        }) {
            Ok(bytes) => match Manifest::decode(&bytes) {
                Ok(m) => m,
                Err(_) => {
                    recovery.manifest_corrupt = true;
                    obs().quarantined.fetch_add(1, Ordering::Relaxed);
                    Manifest::default()
                }
            },
            Err(StoreError::NotFound) => Manifest::default(),
            Err(_) => {
                degraded = true;
                gc_allowed = false;
                Manifest::default()
            }
        };

        // 2. Validate entries against the segment files: bounds first,
        //    then one batched header read per segment (this is the
        //    scatter/gather path — recovery of N entries costs one open
        //    plus N small reads, not N opens).
        let mut by_seg: HashMap<u32, Vec<(u8, u64)>> = HashMap::new();
        for (k, ent) in &manifest.entries {
            by_seg.entry(ent.seg).or_default().push(*k);
        }
        // Sorted iteration: the fault plan addresses operations by
        // index, so recovery must issue IO in a deterministic order.
        let mut by_seg: Vec<(u32, Vec<(u8, u64)>)> = by_seg.into_iter().collect();
        by_seg.sort_by_key(|(seg, _)| *seg);
        let mut dropped: Vec<(u8, u64)> = Vec::new();
        for (seg, mut keys) in by_seg {
            keys.sort();
            let seg_path = dir.join(seg_file_name(seg));
            let seg_len = match retried(io.as_mut(), max, "stat segment", |io| {
                io.file_len(&seg_path)
            }) {
                Ok(n) => n,
                Err(StoreError::NotFound) => {
                    dropped.extend(keys);
                    continue;
                }
                Err(_) => {
                    // Can't stat now; keep the entries — every get
                    // verifies the payload anyway.
                    continue;
                }
            };
            let mut in_bounds = Vec::new();
            for k in keys {
                let ent = manifest.entries[&k];
                if ent.offset + ent.frame_len() <= seg_len {
                    in_bounds.push(k);
                } else {
                    dropped.push(k);
                }
            }
            let ranges: Vec<(u64, usize)> = in_bounds
                .iter()
                .map(|k| (manifest.entries[k].offset, FRAME_HEADER_LEN))
                .collect();
            match retried(io.as_mut(), max, "verify segment headers", |io| {
                io.read_many(&seg_path, &ranges)
            }) {
                Ok(headers) => {
                    for (k, hdr) in in_bounds.iter().zip(headers) {
                        let ent = manifest.entries[k];
                        let ok = parse_frame_header(&hdr).is_ok_and(|h| {
                            h.kind == ent.kind
                                && h.key == ent.key
                                && h.len == ent.len
                                && h.checksum == ent.checksum
                        });
                        if !ok {
                            dropped.push(*k);
                        }
                    }
                }
                Err(_) => { /* keep; gets will verify */ }
            }
        }
        let had_drops = !dropped.is_empty();
        for k in dropped {
            manifest.entries.remove(&k);
            recovery.entries_dropped += 1;
            obs().quarantined.fetch_add(1, Ordering::Relaxed);
        }
        recovery.entries_kept = manifest.entries.len();
        recovery.recovered_bytes = manifest.entries.values().map(|e| e.len).sum();
        obs()
            .recovered_bytes
            .fetch_add(recovery.recovered_bytes, Ordering::Relaxed);

        // 3. Garbage-collect files the manifest does not reference:
        //    orphan segments (crash after compaction swap) and stale
        //    manifest staging files (torn manifest write). Foreign
        //    files — legacy flat checkpoints — are never touched.
        if gc_allowed {
            if let Ok(files) = retried(io.as_mut(), max, "list store dir", |io| io.list(&dir)) {
                let referenced: std::collections::HashSet<u32> =
                    manifest.entries.values().map(|e| e.seg).collect();
                for path in files {
                    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                        continue;
                    };
                    let orphan_seg =
                        parse_seg_name_owned(name).is_some_and(|id| !referenced.contains(&id));
                    let stale_tmp = name.starts_with(MANIFEST_TMP_NAME);
                    if (orphan_seg || stale_tmp)
                        && retried(io.as_mut(), max, "remove orphan", |io| io.remove(&path)).is_ok()
                    {
                        recovery.files_removed += 1;
                    }
                }
            }
        }

        let mut seg_usage: HashMap<u32, SegUsage> = HashMap::new();
        let mut live_bytes = 0u64;
        for ent in manifest.entries.values() {
            let u = seg_usage.entry(ent.seg).or_default();
            u.live += ent.frame_len();
            u.total += ent.frame_len();
            live_bytes += ent.frame_len();
        }
        let open_seg = manifest.next_seg_id;
        manifest.next_seg_id += 1;

        let mut store = Store {
            mem: lru::Lru::new(cfg.mem_cap_bytes),
            cfg,
            io,
            manifest,
            seg_usage,
            live_bytes,
            open_seg,
            open_seg_len: 0,
            degraded,
            recovery,
        };
        // Persist the salvage so a crash right after open does not
        // re-drop the same entries (best effort).
        if had_drops || store.recovery.manifest_corrupt {
            let _ = store.swap_manifest();
        }
        store
    }

    /// The recovery summary from open.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// True once a permanent fault has degraded the disk tier.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Live disk-tier frame bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Number of disk-tier entries.
    pub fn disk_entries(&self) -> usize {
        self.manifest.entries.len()
    }

    /// Number of memory-tier entries.
    pub fn mem_entries(&self) -> usize {
        self.mem.len()
    }

    /// Drop the memory tier (test hook for forcing disk reads).
    pub fn clear_memory(&mut self) {
        self.mem.clear();
    }

    /// Look up `(kind, key)`. Returns the payload and the tier that
    /// served it, or `None` — a quarantined, missing, or unreadable
    /// entry is a miss, never wrong bytes.
    pub fn get(&mut self, kind: EntryKind, key: u64) -> Option<(Arc<Vec<u8>>, Tier)> {
        let mk = (kind.tag(), key);
        if let Some(payload) = self.mem.get(mk) {
            obs().hits.fetch_add(1, Ordering::Relaxed);
            return Some((payload, Tier::Memory));
        }
        let Some(ent) = self.manifest.entries.get(&mk).copied() else {
            obs().misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let seg_path = self.cfg.dir.join(seg_file_name(ent.seg));
        let total = ent.frame_len() as usize;
        let bytes = match retried(
            self.io.as_mut(),
            self.cfg.max_attempts,
            "read frame",
            |io| io.read_range(&seg_path, ent.offset, total),
        ) {
            Ok(b) => b,
            Err(StoreError::NotFound) => {
                // Segment vanished under us: quarantine the entry.
                self.quarantine(mk);
                obs().misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                // Unreadable *now*; keep the entry for a later attempt.
                obs().misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let valid = parse_frame_header(&bytes).is_ok_and(|h| {
            h.kind == ent.kind
                && h.key == ent.key
                && h.len == ent.len
                && h.checksum == ent.checksum
                && psa_common::rng::fnv1a(&bytes[FRAME_HEADER_LEN..]) == ent.checksum
        });
        if !valid {
            self.quarantine(mk);
            obs().misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let payload = Arc::new(bytes[FRAME_HEADER_LEN..].to_vec());
        self.mem.put(mk, Arc::clone(&payload));
        self.manifest.clock += 1;
        let clock = self.manifest.clock;
        if let Some(e) = self.manifest.entries.get_mut(&mk) {
            e.stamp = clock; // persisted lazily by the next put
        }
        obs().hits.fetch_add(1, Ordering::Relaxed);
        Some((payload, Tier::Disk))
    }

    /// Store `payload` under `(kind, key)` in both tiers.
    ///
    /// The memory tier always succeeds. A disk failure is returned —
    /// and counted in `write_failures` — after bounded retries,
    /// one-shot eviction on `ENOSPC`, and a segment rotation on
    /// persistent transient errors; a permanent space failure degrades
    /// the instance to memory-only writes.
    pub fn put(
        &mut self,
        kind: EntryKind,
        key: u64,
        payload: Arc<Vec<u8>>,
    ) -> Result<(), StoreError> {
        let mk = (kind.tag(), key);
        self.mem.put(mk, Arc::clone(&payload));
        if self.degraded {
            obs().write_failures.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::Degraded);
        }
        let checksum = psa_common::rng::fnv1a(&payload);
        if let Some(ent) = self.manifest.entries.get(&mk) {
            if ent.checksum == checksum && ent.len == payload.len() as u64 {
                // Already durable with identical bytes; refresh the
                // stamp lazily.
                self.manifest.clock += 1;
                let clock = self.manifest.clock;
                if let Some(e) = self.manifest.entries.get_mut(&mk) {
                    e.stamp = clock;
                }
                return Ok(());
            }
        }
        let frame = encode_frame(kind.tag(), key, &payload, checksum);
        let (seg, offset) = match self.append_frame(&frame) {
            Ok(v) => v,
            Err(e) => {
                obs().write_failures.fetch_add(1, Ordering::Relaxed);
                if matches!(e, StoreError::NoSpace { .. }) {
                    self.degraded = true;
                }
                return Err(e);
            }
        };
        // Frame is durable; now make the manifest reference it.
        self.manifest.clock += 1;
        let ent = Entry {
            kind: kind.tag(),
            key,
            seg,
            offset,
            len: payload.len() as u64,
            checksum,
            stamp: self.manifest.clock,
        };
        if let Some(old) = self.manifest.entries.insert(mk, ent) {
            self.unaccount(&old);
        }
        let u = self.seg_usage.entry(seg).or_default();
        u.live += ent.frame_len();
        u.total += ent.frame_len();
        self.live_bytes += ent.frame_len();

        self.evict_to_budget();
        self.compact_one();
        match self.swap_manifest() {
            Ok(()) => Ok(()),
            Err(e) => {
                // The frame is on disk but not referenced durably; the
                // in-memory manifest keeps serving it, and the next
                // successful swap persists it.
                obs().write_failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Remove a disk entry whose bytes failed validation.
    fn quarantine(&mut self, mk: (u8, u64)) {
        if let Some(old) = self.manifest.entries.remove(&mk) {
            self.unaccount(&old);
            obs().quarantined.fetch_add(1, Ordering::Relaxed);
            let _ = self.swap_manifest();
        }
    }

    fn unaccount(&mut self, old: &Entry) {
        if let Some(u) = self.seg_usage.get_mut(&old.seg) {
            u.live = u.live.saturating_sub(old.frame_len());
        }
        self.live_bytes = self.live_bytes.saturating_sub(old.frame_len());
        // A fully-dead, non-open segment is pure garbage: drop the file
        // now (best effort; recovery GC would also catch it).
        if let Some(u) = self.seg_usage.get(&old.seg) {
            if u.live == 0 && old.seg != self.open_seg {
                let path = self.cfg.dir.join(seg_file_name(old.seg));
                let _ = retried(self.io.as_mut(), 1, "remove dead segment", |io| {
                    io.remove(&path)
                });
                self.seg_usage.remove(&old.seg);
            }
        }
    }

    /// Append a frame to the open segment, rotating or evicting as
    /// needed. Returns the `(segment, offset)` the frame landed at.
    fn append_frame(&mut self, frame: &[u8]) -> Result<(u32, u64), StoreError> {
        if self.open_seg_len > 0
            && self.open_seg_len + frame.len() as u64 > self.cfg.segment_cap_bytes
        {
            self.rotate_segment();
        }
        let max = self.cfg.max_attempts;
        let first = {
            let path = self.cfg.dir.join(seg_file_name(self.open_seg));
            retried(self.io.as_mut(), max, "append frame", |io| {
                io.append(&path, frame)
            })
        };
        let err = match first {
            Ok(offset) => {
                self.open_seg_len = offset + frame.len() as u64;
                return Ok((self.open_seg, offset));
            }
            Err(e) => e,
        };
        match err {
            StoreError::NoSpace { .. } => {
                // Try to free our own budget's worth of space, then
                // retry once on a fresh segment.
                self.evict_bytes(frame.len() as u64 * 2);
                self.rotate_segment();
                let path = self.cfg.dir.join(seg_file_name(self.open_seg));
                let offset = retried(self.io.as_mut(), max, "append after evict", |io| {
                    io.append(&path, frame)
                })?;
                self.open_seg_len = offset + frame.len() as u64;
                Ok((self.open_seg, offset))
            }
            StoreError::Transient { .. } => {
                // The torn write may have left garbage at the tail of
                // the open segment; rotate away from it and retry once.
                self.rotate_segment();
                let path = self.cfg.dir.join(seg_file_name(self.open_seg));
                let offset = retried(self.io.as_mut(), max, "append after rotate", |io| {
                    io.append(&path, frame)
                })?;
                self.open_seg_len = offset + frame.len() as u64;
                Ok((self.open_seg, offset))
            }
            e => Err(e),
        }
    }

    fn rotate_segment(&mut self) {
        self.open_seg = self.manifest.next_seg_id;
        self.manifest.next_seg_id += 1;
        self.open_seg_len = 0;
    }

    /// Evict LRU disk entries until the budget holds.
    fn evict_to_budget(&mut self) {
        if self.live_bytes > self.cfg.disk_cap_bytes {
            let over = self.live_bytes - self.cfg.disk_cap_bytes;
            self.evict_bytes(over);
        }
    }

    fn evict_bytes(&mut self, mut want: u64) {
        while want > 0 && self.manifest.entries.len() > 1 {
            let Some(victim) = self
                .manifest
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(old) = self.manifest.entries.remove(&victim) {
                want = want.saturating_sub(old.frame_len());
                self.unaccount(&old);
            }
        }
    }

    /// Compact at most one mostly-dead segment per call: copy its live
    /// frames into the open segment, repoint the entries, drop the old
    /// file. Crash-safe because the manifest swap happens after the
    /// copies are durable; a crash in between leaves both copies on
    /// disk with the manifest still pointing at the old one.
    fn compact_one(&mut self) {
        let candidate = self
            .seg_usage
            .iter()
            .filter(|(seg, u)| **seg != self.open_seg && u.live > 0 && u.live * 2 < u.total)
            .map(|(seg, _)| *seg)
            .min();
        let Some(seg) = candidate else { return };
        let keys: Vec<(u8, u64)> = self
            .manifest
            .entries
            .iter()
            .filter(|(_, e)| e.seg == seg)
            .map(|(k, _)| *k)
            .collect();
        let seg_path = self.cfg.dir.join(seg_file_name(seg));
        let max = self.cfg.max_attempts;
        for mk in keys {
            let ent = self.manifest.entries[&mk];
            let total = ent.frame_len() as usize;
            let Ok(bytes) = retried(self.io.as_mut(), max, "compaction read", |io| {
                io.read_range(&seg_path, ent.offset, total)
            }) else {
                // Leave the entry where it is; never drop data because
                // compaction could not read it right now.
                return;
            };
            let valid = parse_frame_header(&bytes).is_ok_and(|h| {
                h.checksum == ent.checksum
                    && psa_common::rng::fnv1a(&bytes[FRAME_HEADER_LEN..]) == ent.checksum
            });
            if !valid {
                self.quarantine(mk);
                continue;
            }
            let Ok((new_seg, offset)) = self.append_frame(&bytes) else {
                return;
            };
            let Some(old) = self.manifest.entries.get(&mk).copied() else {
                continue;
            };
            if let Some(e) = self.manifest.entries.get_mut(&mk) {
                e.seg = new_seg;
                e.offset = offset;
            }
            self.unaccount(&old);
            let frame_len = old.frame_len();
            let u = self.seg_usage.entry(new_seg).or_default();
            u.live += frame_len;
            u.total += frame_len;
            self.live_bytes += frame_len;
        }
        // All live frames moved (or quarantined): `unaccount` has
        // already removed the dead segment file once live hit zero.
    }

    /// Atomically replace the on-disk manifest with the in-memory one.
    fn swap_manifest(&mut self) -> Result<(), StoreError> {
        self.manifest.generation += 1;
        let bytes = self.manifest.encode();
        let tmp = self.cfg.dir.join(MANIFEST_TMP_NAME);
        let fin = self.cfg.dir.join(MANIFEST_NAME);
        let max = self.cfg.max_attempts;
        retried(self.io.as_mut(), max, "write manifest tmp", |io| {
            io.write_file(&tmp, &bytes)
        })?;
        retried(self.io.as_mut(), max, "swap manifest", |io| {
            io.rename(&tmp, &fin)
        })?;
        let dir = self.cfg.dir.clone();
        let _ = retried(self.io.as_mut(), max, "sync store dir", |io| {
            io.sync_dir(&dir)
        });
        Ok(())
    }
}

fn parse_seg_name_owned(name: &str) -> Option<u32> {
    disk::parse_seg_file_name(name)
}
