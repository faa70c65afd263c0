//! The generic N-level demand/prefetch walk.

use psa_cache::{Evicted, FillKind, MshrMeta};
use psa_common::obs::{EventKind, EventRing};
use psa_common::{PLine, PageSize, VAddr};
use psa_core::{Candidate, FillLevel, PrefetchRequest};

use crate::level::{
    prefetch_room, CacheLevel, Feedback, Request, Role, WalkStats, LATE_TIMELY_SLACK, PASS,
};

/// An internal hierarchy invariant was violated mid-walk. Reported as a
/// value so a driver can fail the run instead of unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierError {
    /// An MSHR file reported full but had no earliest in-flight fill to
    /// bump the stalled demand to.
    EmptyFullMshr {
        /// The level whose MSHR file misbehaved.
        level: &'static str,
    },
}

impl std::fmt::Display for HierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierError::EmptyFullMshr { level } => {
                write!(f, "{level} MSHR file is full but holds no in-flight fill")
            }
        }
    }
}

impl std::error::Error for HierError {}

/// What sits below the last cache level. Implemented by
/// [`psa_dram::Dram`]; tests substitute fixed-latency doubles.
pub trait MemoryBackend {
    /// Serve a demand (or writeback, `write = true`) arriving at `at`;
    /// returns the completion cycle.
    fn demand(&mut self, line: PLine, at: u64, write: bool) -> u64;
    /// Serve a prefetch arriving at `at`; `None` means the backend
    /// dropped it (e.g. the target bank's backlog is too deep).
    fn prefetch(&mut self, line: PLine, at: u64) -> Option<u64>;
}

impl MemoryBackend for psa_dram::Dram {
    fn demand(&mut self, line: PLine, at: u64, write: bool) -> u64 {
        self.access(line, at, write)
    }

    fn prefetch(&mut self, line: PLine, at: u64) -> Option<u64> {
        self.prefetch_access(line, at)
    }
}

/// A borrowed view over an ordered hierarchy (innermost level first) and
/// the memory backend below it, running the generic demand walk, prefetch
/// issue path and MSHR drains.
///
/// The walk holds no state of its own: a driver assembles one per
/// operation from the owning structures, so the same levels can be
/// regrouped per core around a shared tail.
pub struct Walk<'w, 'l> {
    /// The hierarchy, innermost first; requests descend toward the end.
    pub levels: &'w mut [&'l mut CacheLevel],
    /// What serves misses past the last level.
    pub memory: &'w mut dyn MemoryBackend,
    /// Sampled event timeline (disabled rings record nothing).
    pub ring: &'w mut EventRing,
    /// Queue for the usefulness events of a [`Role::Shared`] level.
    pub feedback: &'w mut Vec<Feedback>,
    /// Per-core latency/diagnostic accumulators.
    pub stats: &'w mut WalkStats,
    /// Scratch buffer for module prefetch requests (cleared per firing).
    pub pf_buf: &'w mut Vec<PrefetchRequest>,
    /// The owning core's id, used for ring attribution and prefetch
    /// source tagging.
    pub core: u8,
}

impl Walk<'_, '_> {
    /// A demand access entering the hierarchy at level `start` at cycle
    /// `t`. `trigger` is true only for genuine demand traffic
    /// (loads/stores), which trains and fires prefetching modules and
    /// counts toward triggered statistics; page walks and upper-level
    /// prefetch descents pass `false`.
    ///
    /// Returns the completion cycle and whether level `start` hit.
    ///
    /// # Errors
    ///
    /// Returns [`HierError`] when a hierarchy invariant breaks mid-walk.
    pub fn demand(
        &mut self,
        start: usize,
        req: &Request,
        t: u64,
        trigger: bool,
    ) -> Result<(u64, bool), HierError> {
        self.demand_at(start, req, t, req.write, trigger)
    }

    /// One level's slice of a demand walk. `write` is the request's write
    /// intent as seen by this level (writes stop above the shared level).
    fn demand_at(
        &mut self,
        k: usize,
        req: &Request,
        t: u64,
        write: bool,
        trigger: bool,
    ) -> Result<(u64, bool), HierError> {
        self.drain(k, t);
        let lat = self.levels[k].latency;
        let role = self.levels[k].role;
        let set = self.levels[k].cache.set_of(req.line);
        let probe = self.levels[k].cache.probe(req.line);
        let was_hit = probe.is_some();
        if trigger && !was_hit && role == Role::Attach {
            self.ring
                .record(EventKind::L2cMiss, t, u32::from(self.core), req.line.raw());
        }
        let completion =
            match probe {
                Some(info) => {
                    if info.first_use {
                        match role {
                            Role::Attach => {
                                if let Some(m) = self.levels[k].module.as_mut() {
                                    m.on_useful(req.line, req.pc, info.prefetch_source & 1, true);
                                }
                            }
                            Role::Shared => {
                                if info.prefetch_source & PASS == 0 {
                                    self.feedback.push(Feedback::Useful {
                                        source: info.prefetch_source,
                                        line: req.line,
                                    });
                                }
                            }
                            Role::Entry => {}
                        }
                    }
                    if write {
                        self.levels[k].cache.mark_dirty(req.line);
                    }
                    t + lat
                }
                None if self.levels[k].mshr.pending(req.line).is_some() => {
                    let done = self.levels[k]
                        .mshr
                        .merge(req.line, true, write, t)
                        .max(t + lat);
                    if trigger && role == Role::Attach {
                        self.stats.debug.merged_misses += 1;
                        self.stats.debug.merged_latency_sum += done - t;
                    }
                    done
                }
                None => {
                    let mut t2 = t;
                    if self.levels[k].mshr.is_full() {
                        let bumped = self.levels[k].mshr.earliest_fill().ok_or(
                            HierError::EmptyFullMshr {
                                level: self.levels[k].name(),
                            },
                        )?;
                        if role == Role::Entry && bumped > t2 {
                            self.stats.debug.mshr_bump_stall += bumped - t2;
                        }
                        t2 = t2.max(bumped);
                        self.drain(k, t2);
                    }
                    let done = if k + 1 == self.levels.len() {
                        self.memory.demand(req.line, t2 + lat, write)
                    } else {
                        let below = write && self.levels[k + 1].role != Role::Shared;
                        self.demand_at(k + 1, req, t2 + lat, below, trigger)?.0
                    };
                    self.levels[k]
                        .mshr
                        .alloc(
                            req.line,
                            done,
                            MshrMeta {
                                is_prefetch: false,
                                source: 0,
                                huge: req.huge,
                                write,
                            },
                        )
                        .expect("space ensured above");
                    if role == Role::Attach {
                        self.ring.record(
                            EventKind::MshrAlloc,
                            t2,
                            u32::from(self.core),
                            self.levels[k].mshr.len() as u64,
                        );
                    }
                    if trigger && role == Role::Attach {
                        self.stats.debug.clean_misses += 1;
                        self.stats.debug.clean_latency_sum += done - t;
                    }
                    done
                }
            };
        let account = match role {
            Role::Shared => true,
            Role::Attach => trigger,
            Role::Entry => false,
        };
        if account {
            self.stats.lat[k].sum += completion - t;
            self.stats.lat[k].cnt += 1;
        }
        if trigger && self.levels[k].module.is_some() {
            self.fire_module(k, req, was_hit, set, t);
        }
        Ok((completion, was_hit))
    }

    /// Fire the module attached at level `k` on a trigger access: hand it
    /// the demand (with the PPM bit as its page size) and issue whatever it
    /// asks for.
    fn fire_module(&mut self, k: usize, req: &Request, was_hit: bool, set: usize, t: u64) {
        let Some(mut module) = self.levels[k].module.take() else {
            return;
        };
        let mut buf = std::mem::take(self.pf_buf);
        buf.clear();
        let sd_before = self.ring.enabled().then(|| module.stats().selected_by);
        {
            let here = &*self.levels[k];
            let below = self.levels.get(k + 1).map(|l| &**l);
            let present = |c: &Candidate| match c.fill_level {
                FillLevel::L2C => {
                    here.cache.contains(c.line) || here.mshr.pending(c.line).is_some()
                }
                FillLevel::Llc => below
                    .is_some_and(|b| b.cache.contains(c.line) || b.mshr.pending(c.line).is_some()),
            };
            let size = PageSize::from_bit(req.huge);
            module.on_access(
                req.line, req.pc, was_hit, req.huge, size, set, &present, &mut buf,
            );
        }
        if let Some(before) = sd_before {
            let after = module.stats().selected_by;
            if after[0] > before[0] {
                self.ring
                    .record(EventKind::SdSelect, t, u32::from(self.core), 0);
            } else if after[1] > before[1] {
                self.ring
                    .record(EventKind::SdSelect, t, u32::from(self.core), 1);
            }
        }
        for &r in &buf {
            self.issue(k, r, t);
        }
        *self.pf_buf = buf;
        self.levels[k].module = Some(module);
    }

    /// Issue one module prefetch from attach level `att`. The source tag
    /// encodes the owning core and the competitor bit; fills destined for
    /// `att` but parked below carry the [`PASS`] annotation.
    pub fn issue(&mut self, att: usize, req: PrefetchRequest, t: u64) {
        self.ring.record(
            EventKind::PrefetchIssue,
            t,
            u32::from(self.core),
            req.line.raw(),
        );
        let tagged = (self.core << 1) | (req.source & 1);
        let lat = self.levels[att].latency;
        match req.fill_level {
            FillLevel::L2C => {
                if self.levels[att].cache.contains(req.line)
                    || self.levels[att].mshr.pending(req.line).is_some()
                {
                    return;
                }
                if !prefetch_room(&self.levels[att].mshr) {
                    // No slot at the attach level: downgrade to a
                    // below-level fill rather than dropping — the block
                    // still gets pulled on chip.
                    let _ = self.prefetch_fetch(att + 1, req.line, t + lat, tagged, true);
                    return;
                }
                let Some(done) = self.prefetch_fetch(att + 1, req.line, t + lat, tagged, false)
                else {
                    return; // dropped below: no phantom attach-level fill
                };
                self.levels[att]
                    .mshr
                    .alloc(
                        req.line,
                        done,
                        MshrMeta {
                            is_prefetch: true,
                            source: tagged,
                            huge: false,
                            write: false,
                        },
                    )
                    .expect("room checked above");
            }
            FillLevel::Llc => {
                let _ = self.prefetch_fetch(att + 1, req.line, t + lat, tagged, true);
            }
        }
    }

    /// Pull `line` toward level `k` for a prefetch; `None` means the
    /// prefetch was dropped. `track_here` marks level `k` as the
    /// prefetch's destination (its fill is tracked there); levels passed
    /// through on the way up park [`PASS`]-annotated copies.
    fn prefetch_fetch(
        &mut self,
        k: usize,
        line: PLine,
        t: u64,
        tagged: u8,
        track_here: bool,
    ) -> Option<u64> {
        if k == self.levels.len() {
            return self.memory.prefetch(line, t);
        }
        self.drain(k, t);
        let lat = self.levels[k].latency;
        if self.levels[k].cache.contains(line) {
            return Some(t + lat);
        }
        if self.levels[k].mshr.pending(line).is_some() {
            return Some(self.levels[k].mshr.merge(line, false, false, t));
        }
        if !prefetch_room(&self.levels[k].mshr) {
            return None;
        }
        let done = if k + 1 == self.levels.len() {
            self.memory.prefetch(line, t + lat)?
        } else {
            self.prefetch_fetch(k + 1, line, t + lat, tagged, false)?
        };
        let source = if track_here { tagged } else { tagged | PASS };
        self.levels[k]
            .mshr
            .alloc(
                line,
                done,
                MshrMeta {
                    is_prefetch: true,
                    source,
                    huge: false,
                    write: false,
                },
            )
            .expect("room checked above");
        Some(done)
    }

    /// Drain level `k`'s matured MSHR entries (fills ≤ `now`) into its
    /// array, crediting tracked prefetches and cascading dirty evictions.
    ///
    /// Called on every hop through a level, so the common case — nothing
    /// in flight has matured yet — is a single compare against the MSHR's
    /// cached earliest fill cycle. When entries have matured they are
    /// collected into the level's reusable scratch buffer, never a fresh
    /// allocation.
    pub fn drain(&mut self, k: usize, now: u64) {
        if !self.levels[k].mshr.has_matured(now) {
            return;
        }
        let mut buf = std::mem::take(&mut self.levels[k].drain_buf);
        buf.clear();
        self.levels[k].mshr.drain_filled_into(now, &mut buf);
        let role = self.levels[k].role;
        for &e in &buf {
            if role == Role::Attach {
                self.ring.record(
                    EventKind::MshrFree,
                    e.fill_at,
                    u32::from(self.core),
                    self.levels[k].mshr.len() as u64,
                );
            }
            let tracked = match role {
                Role::Shared => e.meta.is_prefetch && e.meta.source & PASS == 0,
                _ => e.meta.is_prefetch,
            };
            if tracked && !e.demand_merged {
                match role {
                    Role::Attach => self.ring.record(
                        EventKind::PrefetchFill,
                        e.fill_at,
                        u32::from(self.core),
                        e.line.raw(),
                    ),
                    Role::Shared => self.ring.record(
                        EventKind::PrefetchFill,
                        e.fill_at,
                        u32::from((e.meta.source & !PASS) >> 1),
                        e.line.raw(),
                    ),
                    Role::Entry => {}
                }
            }
            let (kind, late_credit) = if tracked {
                if e.demand_merged {
                    (FillKind::Demand, true)
                } else {
                    (
                        FillKind::Prefetch {
                            source: e.meta.source,
                        },
                        false,
                    )
                }
            } else {
                (FillKind::Demand, false)
            };
            match role {
                Role::Attach => {
                    if let Some(m) = self.levels[k].module.as_mut() {
                        if late_credit {
                            // Late prefetch: the demand merged mid-flight.
                            // Always credit the prefetcher's accuracy;
                            // credit Set Dueling only when the prefetch hid
                            // almost the whole miss.
                            let timely = e.fill_at.saturating_sub(e.merged_at) <= LATE_TIMELY_SLACK;
                            m.on_useful(e.line, VAddr::new(0), e.meta.source & 1, timely);
                        } else if e.meta.is_prefetch {
                            m.on_prefetch_fill(e.line, e.meta.source & 1);
                        }
                    }
                }
                Role::Shared => {
                    if late_credit {
                        if e.fill_at.saturating_sub(e.merged_at) <= LATE_TIMELY_SLACK {
                            self.feedback.push(Feedback::Useful {
                                source: e.meta.source,
                                line: e.line,
                            });
                        } else {
                            self.feedback.push(Feedback::UsefulLate {
                                source: e.meta.source,
                                line: e.line,
                            });
                        }
                    } else if tracked {
                        self.feedback.push(Feedback::Fill {
                            source: e.meta.source,
                            line: e.line,
                        });
                    }
                }
                Role::Entry => {}
            }
            if let Some(ev) = self.levels[k].cache.fill(e.line, kind, e.meta.write) {
                self.evicted(k, ev, now);
            }
        }
        self.levels[k].drain_buf = buf;
    }

    /// Bookkeeping for a block evicted from level `k`: credit useless
    /// tracked prefetches and write dirty victims back one level down.
    fn evicted(&mut self, k: usize, ev: Evicted, now: u64) {
        match self.levels[k].role {
            Role::Attach => {
                if ev.unused_prefetch {
                    if let Some(m) = self.levels[k].module.as_mut() {
                        m.on_useless(ev.line, ev.prefetch_source & 1);
                    }
                }
            }
            Role::Shared => {
                if ev.unused_prefetch && ev.prefetch_source & PASS == 0 {
                    self.feedback.push(Feedback::Useless {
                        source: ev.prefetch_source,
                        line: ev.line,
                    });
                }
            }
            Role::Entry => {}
        }
        if ev.dirty {
            self.writeback(k + 1, ev.line, now);
        }
    }

    /// Writeback path: install a dirty line into level `k` without timing
    /// (store buffers and writeback queues are off the critical path), but
    /// with full eviction bookkeeping. Past the last level the line goes
    /// to the memory backend as a write.
    pub fn writeback(&mut self, k: usize, line: PLine, now: u64) {
        if k == self.levels.len() {
            self.memory.demand(line, now, true);
            return;
        }
        if let Some(ev) = self.levels[k].cache.fill(line, FillKind::Demand, true) {
            self.evicted(k, ev, now);
        }
    }
}
