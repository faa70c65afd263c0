//! Integration tests for the composite PSA module: selection dynamics,
//! training policies and the paper's structural guarantees, exercised with
//! scripted prefetchers (no simulator).

use psa_common::{CodecError, Dec, Enc, PLine, PageSize, VAddr};
use psa_core::ppm::PageSizeSource;
use psa_core::{
    AccessContext, Candidate, IndexGrain, ModuleConfig, PageSizePolicy, Prefetcher, PsaModule,
    SdConfig, SelectPolicy, TrainPolicy,
};
use std::cell::Cell;
use std::rc::Rc;

/// A scripted prefetcher that records how often it trains and emits a
/// fixed-degree next-line pattern; the per-grain `trained` counters let
/// tests tell the two competitors apart.
struct Scripted {
    trained: Rc<Cell<u32>>,
    degree: i64,
}

impl Prefetcher for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }
    fn on_access(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
        self.trained.set(self.trained.get() + 1);
        for d in 1..=self.degree {
            if let Some(l) = ctx.line.checked_add(d) {
                out.push(Candidate::l2c(l));
            }
        }
    }
    fn storage_bytes(&self) -> usize {
        64
    }
    fn save_state(&self, _e: &mut Enc) {}
    fn load_state(&mut self, _d: &mut Dec) -> Result<(), CodecError> {
        Ok(())
    }
}

fn module_with(policy: PageSizePolicy, sd: SdConfig) -> (PsaModule, Rc<Cell<u32>>, Rc<Cell<u32>>) {
    let fine = Rc::new(Cell::new(0));
    let coarse = Rc::new(Cell::new(0));
    let (f, c) = (fine.clone(), coarse.clone());
    let module = PsaModule::new(
        policy,
        PageSizeSource::Ppm,
        &move |grain| {
            Box::new(Scripted {
                trained: if grain == IndexGrain::Page4K {
                    f.clone()
                } else {
                    c.clone()
                },
                degree: 3,
            })
        },
        1024,
        sd,
        ModuleConfig::default(),
    )
    .expect("shape");
    (module, fine, coarse)
}

fn access(m: &mut PsaModule, line: u64, set: usize) -> Vec<psa_core::PrefetchRequest> {
    let mut out = Vec::new();
    m.on_access(
        PLine::new(line),
        VAddr::new(0x400),
        false,
        true,
        PageSize::Size2M,
        set,
        &|_| false,
        &mut out,
    );
    out
}

#[test]
fn sd_proposed_trains_both_on_every_access() {
    let (mut m, fine, coarse) = module_with(PageSizePolicy::PsaSd, SdConfig::default());
    for i in 0..100 {
        access(&mut m, i * 7, (i as usize) % 1024);
    }
    assert_eq!(
        fine.get(),
        100,
        "SD-Proposed trains Pref-PSA on all accesses"
    );
    assert_eq!(
        coarse.get(),
        100,
        "SD-Proposed trains Pref-PSA-2MB on all accesses"
    );
}

#[test]
fn sd_standard_trains_only_the_selected_competitor() {
    let sd = SdConfig {
        train: TrainPolicy::SelectedOnly,
        ..SdConfig::default()
    };
    let (mut m, fine, coarse) = module_with(PageSizePolicy::PsaSd, sd);
    for i in 0..100 {
        access(&mut m, i * 7, (i as usize) % 1024);
    }
    assert_eq!(
        fine.get() + coarse.get(),
        100,
        "SD-Standard trains exactly one competitor per access"
    );
    // With Csel starting on the PSA side, PSA dominates follower sets.
    assert!(fine.get() > coarse.get());
}

#[test]
fn page_size_selection_routes_by_the_ppm_bit() {
    let sd = SdConfig {
        select: SelectPolicy::PageSize,
        ..SdConfig::default()
    };
    let (mut m, _, _) = module_with(PageSizePolicy::PsaSd, sd);
    let follower = 3;
    // 2MB access on a follower set → PSA-2MB issues.
    let out = access(&mut m, 100, follower);
    assert!(out.iter().all(|r| r.source == psa_core::SOURCE_PSA_2MB));
    // 4KB access → PSA issues.
    let mut out4k = Vec::new();
    m.on_access(
        PLine::new(4000),
        VAddr::new(0x400),
        false,
        false,
        PageSize::Size4K,
        follower,
        &|_| false,
        &mut out4k,
    );
    assert!(out4k.iter().all(|r| r.source == psa_core::SOURCE_PSA));
}

#[test]
fn untimely_useful_hits_do_not_move_csel() {
    let (mut m, _, _) = module_with(PageSizePolicy::PsaSd, SdConfig::default());
    let follower = 3;
    let before = access(&mut m, 0, follower);
    assert!(before.iter().all(|r| r.source == psa_core::SOURCE_PSA));
    // Five *late* useful notifications for PSA-2MB must not flip Csel…
    for i in 0..5 {
        m.on_useful(
            PLine::new(i),
            VAddr::new(0),
            psa_core::SOURCE_PSA_2MB,
            false,
        );
    }
    let still = access(&mut m, 500, follower);
    assert!(still.iter().all(|r| r.source == psa_core::SOURCE_PSA));
    // …but five timely ones do.
    for i in 0..5 {
        m.on_useful(PLine::new(i), VAddr::new(0), psa_core::SOURCE_PSA_2MB, true);
    }
    let after = access(&mut m, 1000, follower);
    assert!(after.iter().all(|r| r.source == psa_core::SOURCE_PSA_2MB));
}

#[test]
fn original_module_never_sees_the_page_size() {
    // The Original policy forces the page-size source to None: even when
    // every access sits in a 2MB page, the module clamps at 4KB.
    let (mut m, _, _) = module_with(PageSizePolicy::Original, SdConfig::default());
    let out = access(&mut m, 62, 3); // candidates 63,64,65
    let lines: Vec<u64> = out.iter().map(|r| r.line.raw()).collect();
    assert_eq!(lines, vec![63], "only the in-4KB-page candidate survives");
}

#[test]
fn psa_sd_reports_competitor_issue_split() {
    let (mut m, _, _) = module_with(PageSizePolicy::PsaSd, SdConfig::default());
    // Hit both sample-set classes and followers.
    for i in 0..200u64 {
        access(&mut m, i * 64, (i as usize * 13) % 1024);
    }
    let stats = m.stats();
    assert_eq!(stats.selected_by[0] + stats.selected_by[1], 200);
    assert_eq!(stats.issued_by[0] + stats.issued_by[1], stats.issued);
    assert!(stats.issued > 0);
}

#[test]
fn per_access_budget_applies_after_presence_filtering() {
    let fine = Rc::new(Cell::new(0));
    let f = fine.clone();
    let mut m = PsaModule::new(
        PageSizePolicy::Psa,
        PageSizeSource::Ppm,
        &move |_grain| {
            Box::new(Scripted {
                trained: f.clone(),
                degree: 12,
            })
        },
        1024,
        SdConfig::default(),
        ModuleConfig { max_per_access: 4 },
    )
    .expect("shape");
    // First 2 candidates "already present": the budget must still yield 4
    // issued requests from the remaining 10.
    let mut out = Vec::new();
    m.on_access(
        PLine::new(0),
        VAddr::new(0x400),
        false,
        true,
        PageSize::Size2M,
        3,
        &|c| c.line.raw() <= 2,
        &mut out,
    );
    assert_eq!(out.len(), 4);
    assert!(out.iter().all(|r| r.line.raw() > 2));
}
