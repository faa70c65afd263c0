//! Per-core hierarchy state and the core's memory port.
//!
//! The machine's memory hierarchy is assembled from [`psa_hier`] types:
//! each core owns its private levels (L1D and L2C, the module attach
//! level) in a [`CoreHier`], the cores share the tail ([`SharedHier`]:
//! LLC, DRAM, physical memory, cross-core feedback queue), and
//! [`CorePort`] regroups one core's levels around the shared tail into the
//! generic [`Walk`] for every access the core makes.

use psa_cache::MshrMeta;
use psa_common::obs::EventRing;
use psa_common::{CodecError, Dec, Enc, PageSize, Persist, VAddr, VLine};
use psa_core::PrefetchRequest;
use psa_cpu::MemoryPort;
use psa_dram::Dram;
use psa_hier::{CacheLevel, Feedback, Request, Walk, WalkStats};
use psa_prefetchers::L1dPrefetcher;
use psa_vmem::{AddressSpace, MapError, Mmu, PhysMem};

use crate::error::SimError;

/// One core's private slice of the machine: address space, MMU, private
/// cache levels (index 0 = L1D entry level, index 1 = L2C attach level),
/// the optional L1D prefetcher, and the walk statistics.
pub(crate) struct CoreHier {
    pub id: u8,
    pub aspace: AddressSpace,
    pub mmu: Mmu,
    pub levels: [CacheLevel; 2],
    pub l1d_pref: Option<Box<dyn L1dPrefetcher>>,
    /// Whether L1D prefetch candidates may cross a 4KB virtual page into a
    /// TLB-resident one (IPCP++).
    pub l1d_cross: bool,
    pub pf_buf: Vec<PrefetchRequest>,
    pub l1d_pref_buf: Vec<VLine>,
    pub stats: WalkStats,
}

impl Persist for CoreHier {
    fn save(&self, e: &mut Enc) {
        self.aspace.save(e);
        self.mmu.save(e);
        self.levels[0].save(e);
        self.levels[1].save(e);
        if let Some(p) = &self.l1d_pref {
            p.save_state(e);
        }
        self.stats.save(e);
        // `id`, `l1d_cross` and which L1D prefetcher runs are
        // configuration, rebuilt before a restore; `pf_buf`/`l1d_pref_buf`
        // are scratch buffers cleared before every use and carry no state
        // between steps.
    }

    fn load(&mut self, d: &mut Dec) -> Result<(), CodecError> {
        self.aspace.load(d)?;
        self.mmu.load(d)?;
        self.mmu.check_restored(&self.aspace)?;
        self.levels[0].load(d)?;
        self.levels[1].load(d)?;
        if let Some(p) = &mut self.l1d_pref {
            p.load_state(d)?;
        }
        self.stats.load(d)
    }
}

/// The tail of the hierarchy, shared between cores.
pub(crate) struct SharedHier {
    pub llc: CacheLevel,
    pub dram: Dram,
    pub phys: PhysMem,
    /// Cross-core prefetch feedback discovered at the shared LLC,
    /// dispatched to the owning core's module in the step that queued it.
    /// Empty between steps, so never persisted.
    pub feedback: Vec<Feedback>,
}

psa_common::persist_struct!(SharedHier { llc, dram, phys });

/// A translation failure surfaced as a typed error: frame exhaustion is a
/// reportable [`SimError::PhysMemExhausted`]; anything else is a broken
/// invariant.
fn map_err(e: MapError) -> SimError {
    match e {
        MapError::Phys(p) => SimError::PhysMemExhausted {
            what: p.to_string(),
        },
        other => SimError::Invariant {
            what: format!("address map: {other}"),
        },
    }
}

/// One core's window into the memory hierarchy for one step: its private
/// levels regrouped around the shared tail.
pub(crate) struct CorePort<'a> {
    pub ctx: &'a mut CoreHier,
    pub shared: &'a mut SharedHier,
    pub ring: &'a mut EventRing,
}

impl MemoryPort for CorePort<'_> {
    type Error = SimError;

    fn load(&mut self, pc: VAddr, vaddr: VAddr, now: u64) -> Result<u64, SimError> {
        let done = self.access(pc, vaddr, now, false)?;
        let d = &mut self.ctx.stats.debug;
        d.loads += 1;
        d.load_latency_sum += done - now;
        d.load_latency_max = d.load_latency_max.max(done - now);
        Ok(done)
    }

    fn store(&mut self, pc: VAddr, vaddr: VAddr, now: u64) -> Result<(), SimError> {
        self.access(pc, vaddr, now, true).map(drop)
    }
}

impl CorePort<'_> {
    /// Run a demand walk entering the hierarchy at level `start`.
    fn walk(
        &mut self,
        start: usize,
        req: &Request,
        t: u64,
        trigger: bool,
    ) -> Result<u64, SimError> {
        let CoreHier {
            id,
            levels,
            pf_buf,
            stats,
            ..
        } = &mut *self.ctx;
        let [l1d, l2c] = levels;
        let mut lv: [&mut CacheLevel; 3] = [l1d, l2c, &mut self.shared.llc];
        Walk {
            levels: &mut lv,
            memory: &mut self.shared.dram,
            ring: &mut *self.ring,
            feedback: &mut self.shared.feedback,
            stats,
            pf_buf,
            core: *id,
        }
        .demand(start, req, t, trigger)
        .map(|(done, _)| done)
        .map_err(SimError::from)
    }

    fn access(&mut self, pc: VAddr, vaddr: VAddr, now: u64, write: bool) -> Result<u64, SimError> {
        let out = self
            .ctx
            .mmu
            .translate(&mut self.ctx.aspace, &mut self.shared.phys, vaddr)
            .map_err(map_err)?;
        let huge = out.size.bit();
        let mut t = now + out.tlb_latency;
        // Serial page walk: each PTE read goes through the L2C path,
        // carrying the data page's size bit.
        for &wl in out.walk_lines() {
            let walk_req = Request {
                line: wl,
                pc,
                write: false,
                huge,
            };
            t = self.walk(1, &walk_req, t, false)?;
        }
        self.l1d_prefetch(vaddr, pc, t)?;
        let req = Request {
            line: out.paddr.line(),
            pc,
            write,
            huge,
        };
        self.walk(0, &req, t, true)
    }

    /// L1D prefetching (Figure 13): candidates are virtual; plain IPCP and
    /// next-line stay within the 4KB virtual page, IPCP++ may cross when
    /// the target page is TLB resident.
    fn l1d_prefetch(&mut self, vaddr: VAddr, pc: VAddr, t: u64) -> Result<(), SimError> {
        let Some(pref) = &mut self.ctx.l1d_pref else {
            return Ok(());
        };
        let vline = vaddr.line();
        let mut buf = std::mem::take(&mut self.ctx.l1d_pref_buf);
        buf.clear();
        pref.on_l1d_access(vline, pc, false, &mut buf);
        let cross = self.ctx.l1d_cross;
        let l1d_latency = self.ctx.levels[0].latency;
        for &cand in &buf {
            let cvaddr = cand.addr();
            if !cand.same_page(vline, PageSize::Size4K)
                && (!cross || !self.ctx.mmu.tlb_resident(cvaddr))
            {
                continue;
            }
            let tr = self
                .ctx
                .aspace
                .translate_or_map(&mut self.shared.phys, cvaddr)
                .map_err(map_err)?;
            let pline = tr.apply(cvaddr).line();
            if self.ctx.levels[0].cache.contains(pline)
                || self.ctx.levels[0].mshr.pending(pline).is_some()
                || self.ctx.levels[0].mshr.is_full()
            {
                continue;
            }
            let pref_req = Request {
                line: pline,
                pc,
                write: false,
                huge: tr.size.bit(),
            };
            let done = self.walk(1, &pref_req, t + l1d_latency, false)?;
            self.ctx.levels[0]
                .mshr
                .alloc(
                    pline,
                    done,
                    MshrMeta {
                        is_prefetch: true,
                        source: 0,
                        huge: tr.size.bit(),
                        write: false,
                    },
                )
                .expect("fullness checked above");
        }
        self.ctx.l1d_pref_buf = buf;
        Ok(())
    }
}
