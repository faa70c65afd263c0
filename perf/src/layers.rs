//! Layer replay: the first instructions of a workload's own streams
//! drive each layer's public API in the order the machine calls them —
//! decode, translate, L1D-filtered L2C probe/MSHR/fill, LLC, DRAM — and
//! the recorded L2C demand stream then drives every prefetcher at both
//! indexing grains and the `PsaModule` under each SPP policy.
//!
//! Each layer runs outside the machine's timing model (fills land at the
//! end of a 256-access block, prefetches are not injected, no feedback
//! reaches the prefetchers), so the ns/op figures are estimates of the
//! real loop's costs, not measurements of it. Work is timed in batches
//! and each layer reports its median batch rate, which a descheduled
//! batch cannot drag.

use crate::child::write_trace;
use crate::inputs::{Plan, Source, TraceInput};
use crate::spans::Tracer;
use psa_cache::{Cache, FillKind, Mshr, MshrEntry, MshrMeta};
use psa_common::{PLine, PageSize, VAddr};
use psa_core::ppm::PageSizeSource;
use psa_core::{AccessContext, IndexGrain, PageSizePolicy};
use psa_cpu::{Instr, InstrKind};
use psa_dram::Dram;
use psa_prefetchers::{ModuleSpec, PrefetcherKind};
use psa_sim::{SimConfig, TraceRef, WorkloadRef, WorkloadSource};
use psa_traces::TraceGenerator;
use psa_vmem::{AddressSpace, AspaceConfig, Mmu, PhysMem};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Operations per timed batch of the call-at-a-time layers.
const BATCH: usize = 4096;
/// Accesses per cache block: probes see the block's starting state and
/// the block's misses fill at its end, as if the MSHRs drained once per
/// block.
const BLOCK: usize = 256;

/// The prefetcher families the replay times (every evaluated kind plus
/// the two newer families; next-line has no state worth timing).
pub const KINDS: [PrefetcherKind; 6] = [
    PrefetcherKind::Spp,
    PrefetcherKind::Vldp,
    PrefetcherKind::Ppf,
    PrefetcherKind::Bop,
    PrefetcherKind::Pangloss,
    PrefetcherKind::Dspatch,
];

/// Batch timings of one layer.
#[derive(Debug, Default, Clone)]
pub struct Stage {
    rates: Vec<f64>,
    pending_ns: f64,
    pending_ops: u64,
    pub ops: u64,
}

impl Stage {
    fn add(&mut self, ns: f64, ops: u64) {
        self.pending_ns += ns;
        self.pending_ops += ops;
        self.ops += ops;
        if self.pending_ops >= BATCH as u64 {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.pending_ops > 0 {
            self.rates.push(self.pending_ns / self.pending_ops as f64);
            self.pending_ns = 0.0;
            self.pending_ops = 0;
        }
    }

    /// Median ns per operation over the batches.
    pub fn ns_per_op(&self) -> f64 {
        let mut s = self.clone();
        s.flush();
        crate::stats::median(&s.rates).unwrap_or(0.0)
    }
}

/// Time `f` over one batch of `ops` operations.
fn timed(stage: &mut Stage, ops: usize, f: impl FnOnce()) {
    let t = Instant::now();
    f();
    stage.add(t.elapsed().as_nanos() as f64, ops as u64);
}

/// One L2C demand access as the prefetching module sees it.
#[derive(Debug, Clone, Copy)]
struct L2cAccess {
    line: PLine,
    pc: VAddr,
    hit: bool,
    huge: bool,
    size: PageSize,
    set: usize,
}

/// Everything the replay measured, summed over the replayed streams.
#[derive(Debug, Default)]
pub struct Replay {
    pub synthetic: Stage,
    pub file: Stage,
    pub open_verify_ms: Vec<f64>,
    pub translate: Stage,
    pub l2c_probe: Stage,
    pub l2c_fill: Stage,
    pub llc_probe: Stage,
    pub llc_fill: Stage,
    pub mshr: Stage,
    pub dram: Stage,
    /// `(kind, grain)` in [`KINDS`] × {4K, 2M} order.
    pub prefetchers: Vec<(PrefetcherKind, IndexGrain, Stage)>,
    /// In [`PageSizePolicy::ALL`] order.
    pub modules: Vec<(PageSizePolicy, Stage)>,
    pub instructions: u64,
    pub mem_ops: u64,
    pub dtlb: (u64, u64),
    pub stlb: (u64, u64),
    pub l2c_accesses: u64,
    pub l2c_misses: u64,
    pub module_accesses: u64,
    pub candidates: u64,
    pub issued: u64,
    pub boundary_checked: u64,
    pub boundary_discarded: u64,
}

impl Replay {
    fn new() -> Replay {
        Replay {
            prefetchers: KINDS
                .iter()
                .flat_map(|&k| {
                    [IndexGrain::Page4K, IndexGrain::Page2M].map(|g| (k, g, Stage::default()))
                })
                .collect(),
            modules: PageSizePolicy::ALL
                .iter()
                .map(|&p| (p, Stage::default()))
                .collect(),
            ..Replay::default()
        }
    }

    pub fn module_ns(&self, policy: PageSizePolicy) -> f64 {
        self.modules
            .iter()
            .find(|(p, _)| *p == policy)
            .map_or(0.0, |(_, s)| s.ns_per_op())
    }
}

/// Replay the first `length` instructions of each of the plan's first
/// `sources` streams.
pub fn replay(
    plan: &Plan,
    traces: &[WorkloadRef],
    length: u64,
    sources: usize,
    scratch: &Path,
    tracer: &Tracer,
) -> Result<Replay, String> {
    let mut r = Replay::new();
    for (n, (source, seed, _)) in plan.streams().into_iter().take(sources).enumerate() {
        let config = plan
            .jobs
            .iter()
            .find(|j| j.cores.contains(&source))
            .expect("every stream belongs to a job")
            .config;
        let root = tracer.begin_detail("replay stream", n.to_string(), None, 0);
        let instrs = tracer.time("replay decode", Some(root), 0, || {
            decode(plan, traces, source, seed, length, scratch, n, &mut r)
        })?;
        let wref = match source {
            Source::Synthetic(spec) => WorkloadRef::from(spec),
            Source::Trace(i) => traces[i],
        };
        let accesses = tracer.time("replay hierarchy", Some(root), 0, || {
            hierarchy(&config, wref.huge_fraction(), &instrs, &mut r)
        })?;
        tracer.time("replay prefetchers", Some(root), 0, || {
            prefetchers(&config, &accesses, &mut r)
        });
        tracer.end(root);
    }
    Ok(r)
}

/// Time both decoders on the same stream and check they agree: the
/// synthetic generator, and the file reader over that stream recorded
/// to a `.psatrace`. Returns the stream's records (see [`drain`]).
#[allow(clippy::too_many_arguments)]
fn decode(
    plan: &Plan,
    traces: &[WorkloadRef],
    source: Source,
    seed: u64,
    length: u64,
    scratch: &Path,
    n: usize,
    r: &mut Replay,
) -> Result<Vec<Instr>, String> {
    let (generator, file_ref, scratch_file): (Box<dyn WorkloadSource>, WorkloadRef, _) =
        match source {
            Source::Synthetic(spec) => {
                let path = scratch.join(format!("replay-{n}.psatrace"));
                let input = TraceInput {
                    spec,
                    seed,
                    instructions: length,
                };
                write_trace(&input, &path).map_err(|e| e.to_string())?;
                let p = path.to_str().ok_or("scratch path is not UTF-8")?;
                let t = Instant::now();
                let tref = TraceRef::open(p).map_err(|e| e.to_string())?;
                r.open_verify_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let gen: Box<dyn WorkloadSource> = Box::new(TraceGenerator::new(spec, seed));
                (gen, WorkloadRef::TraceFile(tref), Some(path))
            }
            Source::Trace(i) => {
                let input = plan.traces[i];
                let gen: Box<dyn WorkloadSource> =
                    Box::new(TraceGenerator::new(input.spec, input.seed));
                (gen, traces[i], None)
            }
        };
    let synthetic = drain(generator, length, &mut r.synthetic)?;
    let file = drain(
        file_ref.build_source(0).map_err(|e| e.to_string())?,
        length,
        &mut r.file,
    )?;
    if let Some(path) = scratch_file {
        let _ = std::fs::remove_file(path);
    }
    if synthetic != file {
        return Err(format!(
            "{}: the trace reader's stream differs from the generator's",
            file_ref.name()
        ));
    }
    r.instructions += length;
    Ok(synthetic.into_iter().map(|(_, i)| i).collect())
}

/// Consume the first `length` instructions of `src` the way the core
/// does: each pending run of fillers as one `take_filler` batch, each
/// memory instruction (a *record*) through `next_instr`. Returns the
/// records with their positions in the stream. The stage counts records,
/// so its ns/op is the decode cost per record, the fillers before it
/// included.
fn drain(
    mut src: Box<dyn WorkloadSource>,
    length: u64,
    stage: &mut Stage,
) -> Result<Vec<(u64, Instr)>, String> {
    let mut out = Vec::new();
    let mut consumed = 0;
    while consumed < length {
        let start = out.len();
        let mut err = None;
        let t = Instant::now();
        while consumed < length && out.len() - start < BATCH {
            let fillers = src.take_filler(length - consumed);
            consumed += fillers;
            if fillers == 0 {
                match src.next_instr() {
                    Ok(i) => out.push((consumed, i)),
                    Err(e) => {
                        err = Some(e.to_string());
                        break;
                    }
                }
                consumed += 1;
            }
        }
        stage.add(t.elapsed().as_nanos() as f64, (out.len() - start) as u64);
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(out)
}

/// Translate, filter through an L1D, then run the L2C and LLC block
/// pipelines and DRAM. Returns the L2C demand stream.
fn hierarchy(
    config: &SimConfig,
    huge_fraction: f64,
    instrs: &[Instr],
    r: &mut Replay,
) -> Result<Vec<L2cAccess>, String> {
    let mem: Vec<(VAddr, VAddr, bool)> = instrs
        .iter()
        .filter_map(|i| match i.kind {
            InstrKind::Op => None,
            InstrKind::Load { vaddr, .. } => Some((i.pc, vaddr, false)),
            InstrKind::Store { vaddr } => Some((i.pc, vaddr, true)),
        })
        .collect();
    r.mem_ops += mem.len() as u64;
    let mut aspace = AddressSpace::new(AspaceConfig {
        huge_fraction,
        seed: config.seed,
    });
    let mut phys = PhysMem::new(config.phys, config.seed).map_err(|e| e.to_string())?;
    let mut mmu = Mmu::new(config.mmu).map_err(|e| e.to_string())?;
    let mut translated = Vec::with_capacity(mem.len());
    for chunk in mem.chunks(BATCH) {
        let mut err = None;
        timed(&mut r.translate, chunk.len(), || {
            for &(pc, vaddr, write) in chunk {
                match mmu.translate(&mut aspace, &mut phys, vaddr) {
                    Ok(out) => translated.push((pc, out.paddr.line(), out.size, write)),
                    Err(e) => {
                        err = Some(e.to_string());
                        break;
                    }
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
    }
    let (d, s) = (mmu.dtlb_stats(), mmu.stlb_stats());
    r.dtlb.0 += d.hits;
    r.dtlb.1 += d.hits + d.misses;
    r.stlb.0 += s.hits;
    r.stlb.1 += s.hits + s.misses;

    // The L1D is a filter here, untimed: what reaches the L2C is its
    // misses, each with the instruction and page size that caused it.
    let mut l1d = Cache::new(config.l1d).map_err(|e| e.to_string())?;
    let mut l2c = Cache::new(config.l2c).map_err(|e| e.to_string())?;
    let (l2c_reqs, causes): (Vec<_>, Vec<_>) = translated
        .iter()
        .filter_map(|&(pc, line, size, write)| {
            if l1d.probe(line).is_some() {
                if write {
                    l1d.mark_dirty(line);
                }
                return None;
            }
            l1d.fill(line, FillKind::Demand, write);
            Some(((line, write), (pc, size)))
        })
        .unzip();
    let mut llc_reqs = Vec::new();
    let mut hits = Vec::with_capacity(l2c_reqs.len());
    let mut mshr = Mshr::new(config.l2c.mshr_entries);
    block_pipeline(
        &mut l2c,
        &mut mshr,
        &l2c_reqs,
        [&mut r.l2c_probe, &mut r.mshr, &mut r.l2c_fill],
        &mut hits,
        &mut llc_reqs,
    );
    r.l2c_accesses += l2c_reqs.len() as u64;
    r.l2c_misses += hits.iter().filter(|h| !**h).count() as u64;
    let mut llc = Cache::new(config.llc).map_err(|e| e.to_string())?;
    let mut llc_mshr = Mshr::new(config.llc.mshr_entries);
    let mut dram_reqs = Vec::new();
    let mut llc_hits = Vec::new();
    block_pipeline(
        &mut llc,
        &mut llc_mshr,
        &llc_reqs,
        [&mut r.llc_probe, &mut r.mshr, &mut r.llc_fill],
        &mut llc_hits,
        &mut dram_reqs,
    );
    let mut dram = Dram::new(config.dram).map_err(|e| e.to_string())?;
    for (b, chunk) in dram_reqs.chunks(BATCH).enumerate() {
        timed(&mut r.dram, chunk.len(), || {
            for (i, &(line, write)) in chunk.iter().enumerate() {
                black_box(dram.access(line, ((b * BATCH + i) as u64) * 40, write));
            }
        });
    }

    Ok(l2c_reqs
        .iter()
        .zip(causes)
        .zip(hits)
        .map(|((&(line, _), (pc, size)), hit)| L2cAccess {
            line,
            pc,
            hit,
            huge: size == PageSize::Size2M,
            size,
            set: l2c.set_of(line),
        })
        .collect())
}

/// Probe a block against its starting state, move its distinct misses
/// through the MSHR file (allocate, merge repeats, drain), then fill
/// them. Misses go to `below` as reads, dirty victims as writes.
fn block_pipeline(
    cache: &mut Cache,
    mshr: &mut Mshr,
    reqs: &[(PLine, bool)],
    [probe, mshr_stage, fill]: [&mut Stage; 3],
    hits: &mut Vec<bool>,
    below: &mut Vec<(PLine, bool)>,
) {
    let mut drained: Vec<MshrEntry> = Vec::with_capacity(mshr.capacity());
    let mut to_fill: Vec<MshrEntry> = Vec::with_capacity(BLOCK);
    for block in reqs.chunks(BLOCK) {
        let start = hits.len();
        timed(probe, block.len(), || {
            for &(line, _) in block {
                hits.push(cache.probe(line).is_some());
            }
        });
        let mut ops = 0;
        let t = Instant::now();
        to_fill.clear();
        for (&(line, write), &hit) in block.iter().zip(&hits[start..]) {
            if hit {
                continue;
            }
            if mshr.pending(line).is_some() {
                mshr.merge(line, true, write, 0);
            } else {
                if mshr.is_full() {
                    ops += mshr.drain_filled_into(u64::MAX, &mut drained);
                    to_fill.append(&mut drained);
                }
                let meta = MshrMeta {
                    write,
                    ..MshrMeta::demand(false)
                };
                mshr.alloc(line, 1, meta).expect("drained when full");
            }
            ops += 1;
        }
        ops += mshr.drain_filled_into(u64::MAX, &mut drained);
        to_fill.append(&mut drained);
        mshr_stage.add(t.elapsed().as_nanos() as f64, ops as u64);
        timed(fill, to_fill.len(), || {
            for e in &to_fill {
                if let Some(ev) = cache.fill(e.line, FillKind::Demand, e.meta.write) {
                    if ev.dirty {
                        below.push((ev.line, true));
                    }
                }
            }
        });
        below.extend(to_fill.iter().map(|e| (e.line, false)));
    }
}

/// Every prefetcher at both grains, then the module under every SPP
/// policy, over the recorded L2C demand stream.
fn prefetchers(config: &SimConfig, accesses: &[L2cAccess], r: &mut Replay) {
    for (kind, grain, stage) in &mut r.prefetchers {
        let mut p = kind.build(*grain);
        let mut out = Vec::with_capacity(64);
        for chunk in accesses.chunks(BATCH) {
            timed(stage, chunk.len(), || {
                for a in chunk {
                    out.clear();
                    let ctx = AccessContext {
                        line: a.line,
                        pc: a.pc,
                        cache_hit: a.hit,
                        page_size: a.size,
                    };
                    p.on_access(black_box(&ctx), &mut out);
                    black_box(out.len());
                }
            });
        }
    }
    let sets = Cache::new(config.l2c).map_or(1, |c| c.num_sets());
    for (policy, stage) in &mut r.modules {
        let mut module = ModuleSpec::pref(PrefetcherKind::Spp, *policy)
            .build_module(sets, config.sd, config.module, PageSizeSource::Ppm, false)
            .expect("SPP module shape fits the L2C")
            .expect("a prefetcher kind builds a module");
        let mut out = Vec::with_capacity(16);
        for chunk in accesses.chunks(BATCH) {
            timed(stage, chunk.len(), || {
                for a in chunk {
                    out.clear();
                    module.on_access(
                        a.line,
                        a.pc,
                        a.hit,
                        a.huge,
                        a.size,
                        a.set,
                        &|_| false,
                        &mut out,
                    );
                    black_box(out.len());
                }
            });
        }
        let (m, b) = (module.stats(), module.boundary_stats());
        r.module_accesses += m.accesses;
        r.candidates += m.candidates;
        r.issued += m.issued;
        r.boundary_checked += b.candidates;
        r.boundary_discarded += b.discarded_cross_4k_in_huge + b.discarded_out_of_page;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_traces::catalog;

    #[test]
    fn decode_is_timed_per_record_like_the_core_consumes_it() {
        let spec = catalog::workload("mcf").unwrap();
        let length = 10_000;
        let mut stage = Stage::default();
        let records = drain(Box::new(TraceGenerator::new(spec, 3)), length, &mut stage).unwrap();
        // The same prefix one `next_instr` at a time, fillers included.
        let mut stepped = TraceGenerator::new(spec, 3);
        let memory: Vec<(u64, Instr)> = (0..length)
            .map(|n| (n, WorkloadSource::next_instr(&mut stepped).unwrap()))
            .filter(|(_, i)| !matches!(i.kind, InstrKind::Op))
            .collect();
        assert_eq!(records, memory, "the same records at the same positions");
        assert!(
            records.len() < length as usize / 2,
            "most instructions are fillers"
        );
        // The stage's unit is a record, so its ns/op multiplies a record
        // count (instructions × records per instruction), never an
        // instruction count.
        assert_eq!(stage.ops, records.len() as u64);
        assert!(stage.ns_per_op() > 0.0);
    }
}
