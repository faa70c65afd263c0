//! Every metric the benchmark emits: name, unit, direction and, for the
//! end-to-end metrics, the bound by which a change may worsen it before
//! it counts as a regression. `BENCHMARK.json` declares the same list;
//! a test keeps the two in agreement.

use crate::layers::KINDS;
use psa_core::{IndexGrain, PageSizePolicy};
use psa_prefetchers::PrefetcherKind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// What a user of the simulator or the service sees, per workload.
pub fn end_to_end() -> Vec<Def> {
    use Better::*;
    [
        ("sim_minstr_per_s", "Minstr/s", Higher, 0.25),
        ("job_p50_ms", "ms", Lower, 0.25),
        ("setup_s", "s", Lower, 0.25),
        ("peak_rss_mb", "MB", Lower, 0.2),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| Def {
        bound: Some(bound),
        ..def(name, unit, better)
    })
    .collect()
}

pub fn prefetcher_metric(kind: PrefetcherKind, grain: IndexGrain) -> String {
    let grain = match grain {
        IndexGrain::Page4K => "4k",
        IndexGrain::Page2M => "2m",
    };
    format!(
        "prefetchers.on_access_ns.{}.{grain}",
        kind.name().to_ascii_lowercase()
    )
}

pub fn module_metric(policy: PageSizePolicy) -> String {
    let policy = match policy {
        PageSizePolicy::Original => "original",
        PageSizePolicy::Psa => "psa",
        PageSizePolicy::Psa2m => "psa_2mb",
        PageSizePolicy::PsaSd => "psa_sd",
    };
    format!("core.module.on_access_ns.{policy}")
}

/// The layers' own numbers, from the traced run.
pub fn per_layer() -> Vec<Def> {
    use Better::*;
    let mut defs: Vec<Def> = KINDS
        .iter()
        .flat_map(|&k| [IndexGrain::Page4K, IndexGrain::Page2M].map(|g| (k, g)))
        .map(|(k, g)| def(prefetcher_metric(k, g), "ns", Lower))
        .collect();
    defs.extend(
        PageSizePolicy::ALL
            .iter()
            .map(|&p| def(module_metric(p), "ns", Lower)),
    );
    let rest: [(&str, &'static str, Better); 56] = [
        ("core.candidates_per_access", "count", Lower),
        ("core.issue_ratio", "ratio", Higher),
        ("core.boundary.discard_ratio", "ratio", Lower),
        ("cache.l2c.probe_ns", "ns", Lower),
        ("cache.l2c.fill_ns", "ns", Lower),
        ("cache.llc.probe_ns", "ns", Lower),
        ("cache.llc.fill_ns", "ns", Lower),
        ("cache.mshr.op_ns", "ns", Lower),
        ("cache.l2c.demand_accesses", "count", Lower),
        ("cache.l2c.miss_ratio", "ratio", Lower),
        ("cache.llc.miss_ratio", "ratio", Lower),
        ("cache.l2c.useful_prefetch_ratio", "ratio", Higher),
        ("dram.access_ns", "ns", Lower),
        ("dram.reads", "count", Lower),
        ("dram.writes", "count", Lower),
        ("dram.row_hit_ratio", "ratio", Higher),
        ("dram.prefetch_drops", "count", Lower),
        ("vmem.translate_ns", "ns", Lower),
        ("vmem.dtlb_hit_ratio", "ratio", Higher),
        ("vmem.stlb_hit_ratio", "ratio", Higher),
        ("sim.ns_per_cycle", "ns", Lower),
        ("sim.cycles_per_instr", "cycles/instr", Lower),
        ("traces.next_instr_ns.synthetic", "ns", Lower),
        ("traces.next_instr_ns.file", "ns", Lower),
        ("traces.open_verify_ms", "ms", Lower),
        ("sim.build_ms", "ms", Lower),
        ("sim.warmup_s", "s", Lower),
        ("sim.measure_s", "s", Lower),
        ("snapshot.encode_ms", "ms", Lower),
        ("snapshot.restore_ms", "ms", Lower),
        ("snapshot.bytes", "bytes", Lower),
        ("runner.warmup_s", "s", Lower),
        ("runner.measure_s", "s", Lower),
        ("runner.snapshot_io_s", "s", Lower),
        ("runner.warmups_shared", "count", Higher),
        ("store.put_ms", "ms", Lower),
        ("store.get_mem_us", "us", Lower),
        ("store.get_disk_ms", "ms", Lower),
        ("store.hits", "count", Higher),
        ("store.misses", "count", Lower),
        ("serve.rtt_ms", "ms", Lower),
        ("serve.submit_ms", "ms", Lower),
        ("serve.polls_per_job", "count", Lower),
        ("serve.dedup_ratio", "ratio", Higher),
        ("serve.from_cache_ratio", "ratio", Higher),
        ("serve.jobs_per_s", "1/s", Higher),
        ("serve.job_tail_ms", "ms", Lower),
        ("serve.job_wall_p50_ms", "ms", Lower),
        ("serve.memo_p50_ms", "ms", Lower),
        ("core.est_share", "ratio", Lower),
        ("cache.est_share", "ratio", Lower),
        ("dram.est_share", "ratio", Lower),
        ("vmem.est_share", "ratio", Lower),
        ("traces.est_share", "ratio", Lower),
        ("hier.residual_share", "ratio", Lower),
        ("trace.overhead_pct", "%", Lower),
    ];
    defs.extend(rest.into_iter().map(|(n, u, b)| def(n, u, b)));
    defs
}

/// Metric names: letters, digits, `_`, `.` and `-`, at most 64.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
