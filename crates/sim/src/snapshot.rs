//! Whole-machine checkpoints: serialize a paused [`System`] and restore
//! it bit-identically into a freshly built one.
//!
//! # Restore contract
//!
//! A snapshot carries **only mutable state** — cache arrays and their
//! annotation bits, MSHR files, ROBs, prefetcher tables, set-dueling
//! counters, DRAM bank/row state, the frame map and page tables, RNG
//! streams and trace cursors, and the run loop's own cursor
//! ([`System`]'s internal `RunState`). Configurations, derived geometry
//! and `&'static str` workload names are never encoded; the restore
//! target must be rebuilt from the *same* `SimConfig` and workload list
//! first, then loaded in place. Restoring into a machine of a different
//! shape is detected (core count, stream length) and rejected — it can
//! never silently simulate the wrong machine, which is what the caller
//! supplied `key` guards at a coarser grain.
//!
//! # Byte format (version [`SNAPSHOT_VERSION`])
//!
//! ```text
//! magic    8B  b"PSACKPT\0"
//! version  4B  u32 LE
//! key      8B  u64 LE   caller's (config, workloads, variant) hash
//! len      8B  u64 LE   payload length
//! checksum 8B  u64 LE   FNV-1a over the payload
//! payload  len bytes    the machine state
//! ```
//!
//! Every validation failure is a typed
//! [`CheckpointError`] inside
//! [`SimError::Checkpoint`]; hostile bytes never panic and never produce
//! a silently wrong machine — callers fall back to a cold warm-up.

use psa_common::rng::fnv1a;
use psa_common::{CodecError, Dec, Enc};

use crate::error::{CheckpointError, SimError};
use crate::system::System;

/// The checkpoint format version this build writes and reads.
///
/// Version 2: the hierarchy refactor changed the payload layout (per-level
/// `CacheLevel` state, named `PortDebug` counters). Version-1 checkpoints
/// are rejected and runs fall back to a cold warm-up.
///
/// Version 3: the workload-source layer replaced raw generator state
/// with tagged source cursors (a kind byte, then generator state or a
/// trace stream cursor — block offset, record index, owed fillers), so
/// a warm-up checkpoint taken mid-trace-file resumes mid-file. Older
/// checkpoints are rejected and runs fall back to a cold warm-up.
///
/// Version 4: cache arrays and SPP's pattern table are written as the
/// planes they are held in (tag, recency, status and source planes;
/// signature counters, slot counts and the flat delta slots) instead of
/// emulating their former per-block and per-entry layouts, and a plane
/// whose length differs from the rebuilt geometry is corrupt.
///
/// Version 5: a cache way is 7 bytes — a set-relative `u32` tag
/// (`u32::MAX` while empty) and a `u8` LRU rank within its set replace
/// the `u64` line, the `u64` stamp and the valid bit, and the global
/// stamp counter is gone. A set whose ranks are not a permutation of its
/// ways, or whose empty way carries status or source bits, is corrupt.
/// Address spaces keep one touched-chunk bitmap per huge region instead
/// of the set of touched 4KB chunks.
///
/// Version 6: a page-table node writes its present entries in index
/// order, each as its index and its PTE word, and an address space no
/// longer writes its copy of every 4KB translation (nor its mapped-byte
/// totals, which the table's leaves give); a 4KB-backed region names
/// the PT node holding its leaves. A page table that is not the
/// tree the mapper builds is corrupt: an entry index of 512 or more, a
/// table entry naming a node out of range or not after its parent, a
/// leaf not aligned to its size or at another size's level. So is a
/// frame allocator whose region or slot lists `alloc` could not have
/// left, and a generator whose components differ from the ones its spec
/// and seed build. Later loads of the same bytes also reject a generator
/// cursor outside the range the generator keeps it in, and a
/// page-structure-cache entry naming another node than the restored
/// table reaches for it.
///
/// Version 7: counters are zeroed in place where warm-up ends instead of
/// being copied aside and subtracted at the end, so the run cursor keeps
/// only each core's warm-up cycle (no per-core or shared counter
/// copies), and each cache array writes, after its counters, how many
/// prefetched blocks were resident and unjudged when they were zeroed. A
/// count above the array's ways is corrupt.
///
/// Version 8: the LLC's cross-core feedback queue is not written (the
/// step that fills it drains it, so it is empty at every pause point),
/// nor are PPM's per-module page-size counters. A run cursor that no run
/// reaches is corrupt: per-core counts whose length differs from the core
/// count, a count past the warm-up plus measured budget, a warm-up cycle
/// set before the count reaches the warm-up or unset after, an active
/// list that is not each unfinished core once, a step count other than
/// the sum of the per-core counts, and a THP series whose length is not
/// the number of samples core 0's count has passed.
pub const SNAPSHOT_VERSION: u32 = 8;

const MAGIC: [u8; 8] = *b"PSACKPT\0";
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

/// A serialized machine state, validated on construction.
///
/// Forking a warm-up across variants means restoring the *same*
/// `Snapshot` into several independently built machines — the snapshot is
/// immutable shared bytes, so sibling forks cannot affect each other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    key: u64,
    payload: Vec<u8>,
}

impl Snapshot {
    /// The caller-supplied identity hash this snapshot was taken under.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Serialized size of the full framed snapshot in bytes.
    pub fn byte_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Frame the snapshot: header plus payload, ready for disk.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parse and validate framed snapshot bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] with the first failed check:
    /// `Truncated` when the buffer is shorter than its header claims,
    /// `Corrupt` on bad magic or a checksum mismatch, `VersionMismatch`
    /// on a foreign format version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SimError> {
        let ck = |e: CheckpointError| SimError::Checkpoint(e);
        if bytes.len() < HEADER_LEN {
            return Err(ck(CheckpointError::Truncated));
        }
        if bytes[..8] != MAGIC {
            return Err(ck(CheckpointError::Corrupt("magic")));
        }
        let field =
            |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes checked"));
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes checked"));
        if version != SNAPSHOT_VERSION {
            return Err(ck(CheckpointError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            }));
        }
        let key = field(12);
        let len = field(20);
        let checksum = field(28);
        let Ok(len) = usize::try_from(len) else {
            return Err(ck(CheckpointError::Corrupt("payload length")));
        };
        let payload = &bytes[HEADER_LEN..];
        if payload.len() < len {
            return Err(ck(CheckpointError::Truncated));
        }
        if payload.len() > len {
            return Err(ck(CheckpointError::Corrupt("trailing bytes after payload")));
        }
        if fnv1a(payload) != checksum {
            return Err(ck(CheckpointError::Corrupt("checksum")));
        }
        Ok(Self {
            key,
            payload: payload.to_vec(),
        })
    }
}

impl System {
    /// Capture the machine's complete mutable state under the caller's
    /// identity `key` (hash of config + workloads + variant — see the
    /// experiments crate's checkpoint store for the canonical keying).
    pub fn snapshot(&self, key: u64) -> Snapshot {
        let mut e = Enc::new();
        self.save_payload(&mut e);
        Snapshot {
            key,
            payload: e.into_bytes(),
        }
    }

    /// Overwrite this machine's mutable state from `snap`, which must
    /// have been taken under the same `key` from an identically built
    /// machine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] with
    /// [`CheckpointError::KeyMismatch`] when `snap.key() != key`, or the
    /// decoding failure mapped to `Truncated`/`Corrupt`. On error the
    /// machine may be partially overwritten and must be discarded.
    pub fn restore(&mut self, snap: &Snapshot, key: u64) -> Result<(), SimError> {
        if snap.key != key {
            return Err(SimError::Checkpoint(CheckpointError::KeyMismatch {
                found: snap.key,
                expected: key,
            }));
        }
        let mut d = Dec::new(&snap.payload);
        self.load_payload(&mut d).map_err(|e| {
            SimError::Checkpoint(match e {
                CodecError::Eof => CheckpointError::Truncated,
                CodecError::Corrupt(what) => CheckpointError::Corrupt(what),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use psa_core::PageSizePolicy;
    use psa_prefetchers::PrefetcherKind;
    use psa_traces::catalog;

    fn quick() -> SimConfig {
        SimConfig::default()
            .with_warmup(2_000)
            .with_instructions(8_000)
    }

    fn build() -> System {
        System::single_core(
            quick(),
            catalog::workload("lbm").unwrap(),
            PrefetcherKind::Spp,
            PageSizePolicy::PsaSd,
        )
    }

    #[test]
    fn snapshot_restore_resume_is_bit_identical() {
        let straight = build().try_run().unwrap();

        let mut paused = build();
        paused.run_to_warm().unwrap();
        let snap = paused.snapshot(42);
        let mut fork = build();
        fork.restore(&snap, 42).unwrap();
        let resumed = fork.try_run().unwrap();

        assert_eq!(format!("{straight:?}"), format!("{resumed:?}"));
    }

    #[test]
    fn sibling_forks_do_not_interfere() {
        let snap = {
            let mut sys = build();
            sys.run_to_warm().unwrap();
            sys.snapshot(7)
        };
        let mut a = build();
        a.restore(&snap, 7).unwrap();
        let ra = a.try_run().unwrap();
        // The first fork ran to completion before the second even
        // restored; shared bytes must be untouched.
        let mut b = build();
        b.restore(&snap, 7).unwrap();
        let rb = b.try_run().unwrap();
        assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
    }

    #[test]
    fn mid_measurement_pause_points_are_also_exact() {
        let straight = build().try_run().unwrap();
        for split in [1, 1_999, 2_000, 2_001, 5_000, 9_999] {
            let mut paused = build();
            let finished = paused.run_to(split).unwrap();
            assert!(!finished, "split {split} is before the end");
            assert_eq!(paused.steps_done(), split);
            let snap = paused.snapshot(split);
            let mut fork = build();
            fork.restore(&snap, split).unwrap();
            let resumed = fork.try_run().unwrap();
            assert_eq!(
                format!("{straight:?}"),
                format!("{resumed:?}"),
                "split at step {split}"
            );
        }
    }

    #[test]
    fn psc_entry_naming_a_missing_node_is_corrupt() {
        // Mostly 4KB-backed, so walks reach PT nodes and fill the PDE cache.
        let build = || {
            System::single_core(
                quick(),
                catalog::workload("soplex").unwrap(),
                PrefetcherKind::Spp,
                PageSizePolicy::PsaSd,
            )
        };
        let mut sys = build();
        sys.run_to_warm().unwrap();
        let snap = sys.snapshot(3);
        let mut e = Enc::new();
        psa_common::Persist::save(sys.mmu(0), &mut e);
        let mmu = e.into_bytes();
        let at = snap
            .payload
            .windows(mmu.len())
            .position(|w| w == mmu)
            .expect("the MMU's bytes in the payload");
        // The MMU's bytes end with its PDE cache, the caches' stamp and
        // three u64 counters. A PDE-cache entry is (prefix u64, node u32,
        // last_use u64, valid u8).
        const ENTRY: usize = 21;
        let pde = psa_vmem::mmu_cache::MmuCacheConfig::default().pde;
        let end = at + mmu.len() - 4 * 8;
        let start = end - pde * ENTRY;
        assert_eq!(snap.payload[start - 8..start], (pde as u64).to_le_bytes());
        let entry = (start..end)
            .step_by(ENTRY)
            .find(|&o| snap.payload[o + ENTRY - 1] == 1)
            .expect("a valid PDE-cache entry after warm-up");
        let mut payload = snap.payload.clone();
        payload[entry + 8..entry + 12].copy_from_slice(&50_000u32.to_le_bytes());

        build().restore(&snap, 3).unwrap();
        let err = build()
            .restore(&Snapshot { key: 3, payload }, 3)
            .unwrap_err();
        assert!(
            matches!(err, SimError::Checkpoint(CheckpointError::Corrupt(_))),
            "{err}"
        );
    }

    #[test]
    fn framed_bytes_round_trip() {
        let mut sys = build();
        sys.run_to(500).unwrap();
        let snap = sys.snapshot(0xfeed);
        let parsed = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.key(), 0xfeed);
    }

    #[test]
    fn truncation_is_rejected_at_every_cut() {
        let snap = build().snapshot(1);
        let bytes = snap.to_bytes();
        // Sampled cuts (every byte would be slow): header boundaries and
        // a spread through the payload.
        for cut in [
            0,
            7,
            8,
            11,
            12,
            19,
            27,
            35,
            36,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            let err = Snapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SimError::Checkpoint(CheckpointError::Truncated | CheckpointError::Corrupt(_))
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let snap = build().snapshot(1);
        let good = snap.to_bytes();
        // Flip one bit in the payload: checksum must catch it.
        let mut bad = good.clone();
        let mid = HEADER_LEN + (bad.len() - HEADER_LEN) / 2;
        bad[mid] ^= 0x10;
        assert!(matches!(
            Snapshot::from_bytes(&bad).unwrap_err(),
            SimError::Checkpoint(CheckpointError::Corrupt("checksum"))
        ));
        // Flip the magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Snapshot::from_bytes(&bad).unwrap_err(),
            SimError::Checkpoint(CheckpointError::Corrupt("magic"))
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let snap = build().snapshot(1);
        let mut bytes = snap.to_bytes();
        bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SimError::Checkpoint(CheckpointError::VersionMismatch { expected, .. })
                if expected == SNAPSHOT_VERSION
        ));
    }

    #[test]
    fn wrong_key_is_rejected_before_any_state_is_touched() {
        let mut sys = build();
        sys.run_to_warm().unwrap();
        let snap = sys.snapshot(111);
        let mut target = build();
        let err = target.restore(&snap, 222).unwrap_err();
        assert!(matches!(
            err,
            SimError::Checkpoint(CheckpointError::KeyMismatch {
                found: 111,
                expected: 222
            })
        ));
        // The reject happened before decoding: the target still runs
        // from cold and matches a never-touched machine.
        let clean = build().try_run().unwrap();
        let after = target.try_run().unwrap();
        assert_eq!(format!("{clean:?}"), format!("{after:?}"));
    }

    #[test]
    fn wrong_shape_is_rejected() {
        let mut sys = build();
        sys.run_to_warm().unwrap();
        let snap = sys.snapshot(5);
        // A two-core machine cannot absorb a one-core snapshot.
        let mut other = System::multi_core(
            SimConfig::for_cores(2)
                .with_warmup(1_000)
                .with_instructions(4_000),
            &[
                catalog::workload("lbm").unwrap(),
                catalog::workload("mcf").unwrap(),
            ],
            PrefetcherKind::Spp,
            PageSizePolicy::PsaSd,
        );
        assert!(matches!(
            other.restore(&snap, 5).unwrap_err(),
            SimError::Checkpoint(CheckpointError::Corrupt("core count mismatch"))
        ));
    }
}
