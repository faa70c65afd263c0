//! The four workloads and the inputs each one generates from its seed.
//!
//! The seed re-seeds every simulation, records the trace files, orders
//! the served specs and draws the four-core mixes (with the figures'
//! `random_mixes`). Only the mixes change which workloads a run
//! simulates; the served sweep cycles the catalog the same way for every
//! seed.

use psa_common::fxhash::FxHasher;
use psa_common::DetRng;
use psa_core::PageSizePolicy;
use psa_cpu::{Instr, InstrKind};
use psa_experiments::runner::Variant;
use psa_prefetchers::PrefetcherKind;
use psa_sim::{Json, SimConfig, TraceError, WorkloadRef};
use psa_traces::mixes::random_mixes;
use psa_traces::{catalog, WorkloadSpec};
use std::hash::Hasher;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline experiment: SPP under its four page-size
    /// policies, where SPP and `PsaModule` take about a third of host time.
    SppLadder,
    /// Four-core mixes with no prefetcher: host time goes to the
    /// hierarchy walk, shared LLC, DRAM, vmem and the stalled-core
    /// scheduler, and an SPP-only change must not move it.
    NopfMix4,
    /// Replays of recorded `.psatrace` files: the only workload with the
    /// checksummed, buffered trace reader on the hot path.
    TraceReplay,
    /// Closed-loop load on `psa_serve`: HTTP, admission, dedup, the job
    /// queue and the tiered store, written cold and read after a restart.
    ServeSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SppLadder,
        Workload::NopfMix4,
        Workload::TraceReplay,
        Workload::ServeSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SppLadder => "spp_ladder",
            Workload::NopfMix4 => "nopf_mix4",
            Workload::TraceReplay => "trace_replay",
            Workload::ServeSweep => "serve_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The eight workloads of the committed fig08 trajectory.
pub const LADDER: [&str; 8] = [
    "gcc",
    "libquantum",
    "lbm_s",
    "xz_s",
    "sat_solver",
    "qmm_fp_1",
    "qmm_fp_5",
    "qmm_fp_111",
];

/// Where one core's instruction stream comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    Synthetic(&'static WorkloadSpec),
    /// Index into [`Plan::traces`].
    Trace(usize),
}

/// One simulation: a machine built from `config` (before the variant's
/// changes) running `cores[i]` on core `i`.
#[derive(Debug, Clone)]
pub struct Job {
    /// Stable identity used for digests and reports.
    pub label: String,
    pub cores: Vec<Source>,
    pub variant: Variant,
    pub config: SimConfig,
}

impl Job {
    /// Instructions this job simulates, warm-up included.
    pub fn instructions(&self) -> u64 {
        self.cores.len() as u64 * (self.config.warmup + self.config.instructions)
    }
}

/// A trace file the workload records at set-up.
#[derive(Debug, Clone, Copy)]
pub struct TraceInput {
    pub spec: &'static WorkloadSpec,
    pub seed: u64,
    pub instructions: u64,
}

impl TraceInput {
    pub fn file_name(&self) -> String {
        format!("{}.psatrace", self.spec.name)
    }
}

/// One request body for `POST /jobs`, and what it simulates when fresh.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedSpec {
    pub body: String,
    pub instructions: u64,
}

/// Everything a workload runs, derived from `(workload, seed, quick)`.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub quick: bool,
    pub jobs: Vec<Job>,
    pub traces: Vec<TraceInput>,
}

// The served sweep's traffic, taken from the repository's own callers of
// `psa_serve` where one exists:
//
// * each spec has the shape of the example job in `docs/SERVER.md`: the
//   `fig08` figure, two workloads, the variants below, 40k warm-up plus
//   120k measured instructions; `--quick` uses the budgets of the
//   `ci.sh` server smoke spec (2k + 8k);
// * one submission in three exactly repeats an earlier one, as in the
//   `ci.sh` server smoke (a spec, its resubmission, a second spec);
// * each spec gets its own seed, as the two `ci.sh` specs differ only in
//   their seed;
// * one client submits them in turn, as `ci.sh` does (`crate::serve`).
//
// No caller fixes which workloads, or how many specs, a sweep submits:
// the workloads cycle through the catalog in order, two per spec, and
// twelve distinct specs keep a sweep short enough to repeat within one
// timed run.
const SERVED_VARIANTS: [Variant; 3] = [
    Variant::NoPrefetch,
    spp(PageSizePolicy::Original),
    spp(PageSizePolicy::Psa),
];
const SERVED_WORKLOADS_PER_SPEC: usize = 2;

/// Warm-up and measured instructions per served run.
fn served_budget(quick: bool) -> (u64, u64) {
    if quick {
        (2_000, 8_000)
    } else {
        (40_000, 120_000)
    }
}

/// The served sweep's shape: distinct specs plus exact repeats.
fn spec_counts(quick: bool) -> (usize, usize) {
    if quick {
        (2, 1)
    } else {
        (12, 6)
    }
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, quick: bool) -> Plan {
        let pick = |full: u64, small: u64| if quick { small } else { full };
        let base = |cores: usize, warmup: u64, instructions: u64, seed: u64| {
            let mut c = SimConfig::for_cores(cores);
            c.warmup = warmup;
            c.instructions = instructions;
            c.seed = seed;
            c
        };
        let mut traces = Vec::new();
        let jobs = match workload {
            Workload::SppLadder => {
                let config = base(1, pick(100_000, 2_000), pick(400_000, 8_000), seed);
                let n = if quick { 2 } else { LADDER.len() };
                LADDER[..n]
                    .iter()
                    .flat_map(|name| {
                        let spec = catalog::workload(name).expect("ladder workload in catalog");
                        PageSizePolicy::ALL
                            .map(|p| single(Source::Synthetic(spec), spec.name, spp(p), config))
                    })
                    .collect()
            }
            Workload::NopfMix4 => {
                let config = base(4, pick(100_000, 2_000), pick(400_000, 8_000), seed);
                let count = if quick { 2 } else { 8 };
                random_mixes(count, 4, seed)
                    .into_iter()
                    .enumerate()
                    .map(|(i, mix)| Job {
                        label: format!("mix{i}"),
                        cores: mix.into_iter().map(Source::Synthetic).collect(),
                        variant: Variant::NoPrefetch,
                        config,
                    })
                    .collect()
            }
            Workload::TraceReplay => {
                let length = pick(2_500_000, 20_000);
                let config = base(1, length / 10, length - length / 10, seed);
                traces = ["mcf", "libquantum"]
                    .map(|name| TraceInput {
                        spec: catalog::workload(name).expect("trace workload in catalog"),
                        seed,
                        instructions: length,
                    })
                    .to_vec();
                let ladder = [
                    Variant::NoPrefetch,
                    spp(PageSizePolicy::Original),
                    spp(PageSizePolicy::PsaSd),
                ];
                traces
                    .iter()
                    .enumerate()
                    .flat_map(|(i, t)| {
                        let name = format!("trace:{}", t.spec.name);
                        ladder.map(|v| single(Source::Trace(i), &name, v, config))
                    })
                    .collect()
            }
            Workload::ServeSweep => {
                let (warmup, instructions) = served_budget(quick);
                let (distinct, _) = spec_counts(quick);
                served_distinct(seed, distinct)
                    .into_iter()
                    .flat_map(|(specs, spec_seed)| {
                        let config = base(1, warmup, instructions, spec_seed);
                        specs.into_iter().flat_map(move |spec| {
                            let name = format!("{}#{spec_seed}", spec.name);
                            SERVED_VARIANTS
                                .map(|v| single(Source::Synthetic(spec), &name, v, config))
                        })
                    })
                    .collect()
            }
        };
        Plan {
            workload,
            seed,
            quick,
            jobs,
            traces,
        }
    }

    /// The workload's typed refs for `job`, given the opened traces.
    pub fn refs(&self, job: &Job, traces: &[WorkloadRef]) -> Vec<WorkloadRef> {
        job.cores
            .iter()
            .map(|c| match *c {
                Source::Synthetic(spec) => WorkloadRef::from(spec),
                Source::Trace(i) => traces[i],
            })
            .collect()
    }

    /// Every distinct instruction stream the jobs consume, as
    /// `(source, generator seed, instructions)` in first-use order. The
    /// generator seed is the one `System` derives for the core.
    pub fn streams(&self) -> Vec<(Source, u64, u64)> {
        let mut out: Vec<(Source, u64, u64)> = Vec::new();
        for job in &self.jobs {
            for (i, &src) in job.cores.iter().enumerate() {
                let seed = job.config.seed.wrapping_add(7919 * i as u64);
                let len = job.config.warmup + job.config.instructions;
                if !out.iter().any(|&(s, sd, _)| s == src && sd == seed) {
                    out.push((src, seed, len));
                }
            }
        }
        out
    }
}

/// The request bodies the served sweep submits to `psa_serve`, in order.
pub fn served_specs(seed: u64, quick: bool) -> Vec<ServedSpec> {
    let (warmup, instructions) = served_budget(quick);
    let (distinct, repeats) = spec_counts(quick);
    let specs: Vec<ServedSpec> = served_distinct(seed, distinct)
        .into_iter()
        .map(|(workloads, seed)| ServedSpec {
            body: Json::obj([
                ("figure", Json::str("fig08")),
                (
                    "workloads",
                    Json::Arr(workloads.iter().map(|w| Json::str(w.name)).collect()),
                ),
                (
                    "variants",
                    Json::Arr(
                        SERVED_VARIANTS
                            .iter()
                            .map(|v| Json::str(v.label()))
                            .collect(),
                    ),
                ),
                ("seed", Json::uint(seed)),
                ("warmup", Json::uint(warmup)),
                ("instructions", Json::uint(instructions)),
            ])
            .to_string(),
            instructions: (workloads.len() * SERVED_VARIANTS.len()) as u64
                * (warmup + instructions),
        })
        .collect();
    sequence(seed, distinct, repeats)
        .into_iter()
        .map(|i| specs[i].clone())
        .collect()
}

const fn spp(policy: PageSizePolicy) -> Variant {
    Variant::Pref(PrefetcherKind::Spp, policy)
}

fn single(source: Source, name: &str, variant: Variant, config: SimConfig) -> Job {
    Job {
        label: format!("{name}/{}", variant.label()),
        cores: vec![source],
        variant,
        config,
    }
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut DetRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// The served sweep's distinct specs: the catalog cycled through in
/// order, [`SERVED_WORKLOADS_PER_SPEC`] workloads per spec, each spec
/// with its own seed (JSON-safe, below 2^53).
fn served_distinct(
    seed: u64,
    count: usize,
) -> Vec<([&'static WorkloadSpec; SERVED_WORKLOADS_PER_SPEC], u64)> {
    let all = catalog::all();
    (0..count)
        .map(|i| {
            let spec_seed = (seed.wrapping_mul(1 << 12).wrapping_add(i as u64)) & ((1 << 53) - 1);
            let workloads =
                std::array::from_fn(|k| &all[(i * SERVED_WORKLOADS_PER_SPEC + k) % all.len()]);
            (workloads, spec_seed)
        })
        .collect()
}

/// Submission order over `distinct` specs with `repeats` exact repeats
/// of earlier submissions: the distinct specs in a seeded order, with
/// each repeat at a seeded position naming a spec already submitted.
pub fn sequence(seed: u64, distinct: usize, repeats: usize) -> Vec<usize> {
    let mut rng = DetRng::new(seed ^ 0x7370_6563_7321);
    let mut order: Vec<usize> = (0..distinct).collect();
    shuffle(&mut order, &mut rng);
    let total = distinct + repeats;
    let mut slots: Vec<usize> = (1..total).collect();
    shuffle(&mut slots, &mut rng);
    let mut repeat_at = slots[..repeats].to_vec();
    repeat_at.sort_unstable();
    let mut next = order.into_iter();
    let mut out = Vec::with_capacity(total);
    for pos in 0..total {
        if repeat_at.binary_search(&pos).is_ok() {
            out.push(out[rng.index(out.len())]);
        } else {
            out.push(next.next().expect("distinct specs fill the other slots"));
        }
    }
    out
}

/// Fingerprint of the first `n` instructions of a stream.
pub fn stream_digest(source: &WorkloadRef, seed: u64, n: u64) -> Result<u64, TraceError> {
    let mut src = source.build_source(seed)?;
    let mut h = FxHasher::default();
    for _ in 0..n {
        hash_instr(&mut h, &src.next_instr()?);
    }
    Ok(h.finish())
}

fn hash_instr(h: &mut FxHasher, instr: &Instr) {
    h.write_u64(instr.pc.raw());
    match instr.kind {
        InstrKind::Op => h.write_u8(0),
        InstrKind::Load { vaddr, dependent } => {
            h.write_u8(1 + u8::from(dependent));
            h.write_u64(vaddr.raw());
        }
        InstrKind::Store { vaddr } => {
            h.write_u8(3);
            h.write_u64(vaddr.raw());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_seeded() {
        let cores = |seed: u64| -> Vec<Vec<Source>> {
            Plan::new(Workload::NopfMix4, seed, false)
                .jobs
                .into_iter()
                .map(|j| j.cores)
                .collect()
        };
        let a = cores(1);
        assert_eq!(a, cores(1), "same seed, same mixes");
        assert_ne!(a, cores(2), "another seed, other mixes");
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|m| m.len() == 4));
    }

    #[test]
    fn spec_sequence_is_seeded_and_repeats_only_earlier_specs() {
        let s = sequence(1, 12, 6);
        assert_eq!(s, sequence(1, 12, 6));
        assert_ne!(s, sequence(2, 12, 6));
        assert_eq!(s.len(), 18);
        let mut seen = std::collections::HashSet::new();
        let mut repeats = 0;
        for &i in &s {
            if !seen.insert(i) {
                repeats += 1;
            }
        }
        assert_eq!((seen.len(), repeats), (12, 6));
        let specs = served_specs(1, false);
        assert_eq!(specs, served_specs(1, false));
        assert_ne!(specs, served_specs(2, false));
        assert_eq!(specs.len(), 18);
        let first = Json::parse(&specs[0].body).unwrap();
        assert_eq!(
            first.get("variants").unwrap().to_string(),
            r#"["no-prefetch","SPP","SPP-PSA"]"#
        );
        assert_eq!(first.get("instructions"), Some(&Json::uint(120_000)));
        assert_eq!(specs[0].instructions, 6 * 160_000);
        let plan = Plan::new(Workload::ServeSweep, 1, false);
        assert_eq!(
            plan.jobs.len(),
            12 * 2 * 3,
            "each distinct spec runs two workloads under three variants"
        );
    }

    #[test]
    fn streams_dedupe_shared_inputs() {
        let plan = Plan::new(Workload::SppLadder, 1, false);
        assert_eq!(plan.jobs.len(), 32);
        assert_eq!(plan.streams().len(), 8, "four policies share each stream");
        let spec = catalog::workload("lbm").unwrap();
        let r = WorkloadRef::from(spec);
        assert_eq!(stream_digest(&r, 5, 1000), stream_digest(&r, 5, 1000));
        assert_ne!(stream_digest(&r, 5, 1000), stream_digest(&r, 6, 1000));
    }
}
