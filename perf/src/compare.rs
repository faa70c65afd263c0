//! A/B verdicts over repeated runs of a base and a head build:
//! per (metric, workload) medians, quartiles, the share of pairs the
//! head won, and one verdict.
//!
//! * *improved*: the head won at least nine of every ten pairs (ties
//!   count for neither side, at least ten pairs) and its median beats
//!   the base's by more than the base's interquartile range;
//! * *regressed*: the head's median is worse than the base's by more
//!   than the metric's bound;
//! * *unresolved*: either side's spread exceeds the bound, unless every
//!   head run beats every base run;
//! * *unchanged*: none of the above;
//! * *incorrect*, for every metric of a workload, when any head run of
//!   it was not correct or the head failed more operations than the
//!   base: a faster head that gets answers wrong has gained nothing.
//!
//! Per-layer metrics have no bound, so they are only ever *improved*,
//! *worse* (the mirror of *improved*) or *unchanged*.

use crate::metrics::{self, Better, Def};
use crate::stats::Summary;
use psa_sim::Json;
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Worse,
    Unresolved,
    Unchanged,
    /// The head's runs of the workload were not correct, or failed more
    /// operations than the base's: no gain counts.
    Incorrect,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
            Verdict::Incorrect => "incorrect",
        }
    }
}

/// `base[i]` and `head[i]` are pair `i`.
pub fn verdict(def: &Def, base: &[f64], head: &[f64]) -> (Verdict, usize) {
    let (b, h) = match (Summary::of(base), Summary::of(head)) {
        (Some(b), Some(h)) => (b, h),
        _ => return (Verdict::Unresolved, 0),
    };
    let better = |x: f64, y: f64| match def.better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let wins = base
        .iter()
        .zip(head)
        .filter(|(b, h)| better(**h, **b))
        .count();
    let losses = base
        .iter()
        .zip(head)
        .filter(|(b, h)| better(**b, **h))
        .count();
    let pairs = base.len().min(head.len());
    let gain = match def.better {
        Better::Higher => h.median - b.median,
        Better::Lower => b.median - h.median,
    };
    let iqr = b.q3 - b.q1;
    let clear = |won: usize, by: f64| pairs >= 10 && won * 10 >= pairs * 9 && by > iqr;
    if clear(wins, gain) {
        return (Verdict::Improved, wins);
    }
    let Some(bound) = def.bound else {
        let v = if clear(losses, -gain) {
            Verdict::Worse
        } else {
            Verdict::Unchanged
        };
        return (v, wins);
    };
    let all_better = head.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    if -gain > bound * b.median.abs() {
        (Verdict::Regressed, wins)
    } else if b.spread().max(h.spread()) > bound && !all_better {
        (Verdict::Unresolved, wins)
    } else {
        (Verdict::Unchanged, wins)
    }
}

/// One workload's section of one `perf.json`.
#[derive(Debug, Clone, Default)]
pub struct Section {
    pub workload: String,
    pub correct: bool,
    pub failed: u64,
    pub values: Vec<(String, f64)>,
}

fn sections(path: &PathBuf) -> Result<Vec<Section>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{}: no \"workloads\" object", path.display()));
    };
    let mut out = Vec::new();
    for (w, section) in workloads {
        let (Some(Json::Bool(correct)), Some(failed)) = (
            section.get("correct"),
            section.get("failed").and_then(Json::as_f64),
        ) else {
            return Err(format!("{}: {w} has no correctness fields", path.display()));
        };
        let mut values = Vec::new();
        if let Some(Json::Obj(metrics)) = section.get("metrics") {
            for (m, v) in metrics {
                if let Some(x) = v.get("value").and_then(Json::as_f64) {
                    values.push((m.clone(), x));
                }
            }
        }
        out.push(Section {
            workload: w.clone(),
            correct: *correct,
            failed: failed as u64,
            values,
        });
    }
    Ok(out)
}

/// Why the head's runs of `workload` cannot be compared, if they cannot:
/// a run that was not correct, or more failed operations than the base.
pub fn head_invalid(base: &[Section], head: &[Section], workload: &str) -> Option<String> {
    let of = |runs: &[Section]| -> Vec<Section> {
        runs.iter()
            .filter(|s| s.workload == workload)
            .cloned()
            .collect()
    };
    let (base, head) = (of(base), of(head));
    let incorrect = head.iter().filter(|s| !s.correct).count();
    let failed = |runs: &[Section]| runs.iter().map(|s| s.failed).sum::<u64>();
    if incorrect > 0 {
        Some(format!(
            "{incorrect} of {} head runs not correct",
            head.len()
        ))
    } else if failed(&head) > failed(&base) {
        Some(format!(
            "head failed {} operations, base {}",
            failed(&head),
            failed(&base)
        ))
    } else {
        None
    }
}

/// Print the comparison; returns the exit code (1 when anything
/// regressed or the head is not correct, 2 on unreadable input).
pub fn main(base: &[PathBuf], head: &[PathBuf]) -> i32 {
    let load = |files: &[PathBuf]| -> Result<Vec<Section>, String> {
        let mut all = Vec::new();
        for f in files {
            all.extend(sections(f)?);
        }
        Ok(all)
    };
    let (base, head) = match (load(base), load(head)) {
        (Ok(b), Ok(h)) => (b, h),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("psa_perf compare: {e}");
            return 2;
        }
    };
    let defs: Vec<Def> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .collect();
    let pick = |runs: &[Section], w: &str, m: &str| -> Vec<f64> {
        runs.iter()
            .filter(|s| s.workload == w)
            .filter_map(|s| s.values.iter().find(|(rm, _)| rm == m).map(|v| v.1))
            .collect()
    };
    let mut workloads: Vec<String> = base.iter().map(|s| s.workload.clone()).collect();
    workloads.sort();
    workloads.dedup();
    let mut failing = false;
    println!("metric workload | base median [q1–q3] | head median [q1–q3] | change | head wins | verdict");
    for w in &workloads {
        let invalid = head_invalid(&base, &head, w);
        if let Some(why) = &invalid {
            println!("{w}: head not correct ({why}); no verdict can be improved");
            failing = true;
        }
        for def in &defs {
            let (b, h) = (pick(&base, w, &def.name), pick(&head, w, &def.name));
            let (Some(bs), Some(hs)) = (Summary::of(&b), Summary::of(&h)) else {
                continue;
            };
            let (v, wins) = match verdict(def, &b, &h) {
                (_, wins) if invalid.is_some() => (Verdict::Incorrect, wins),
                v => v,
            };
            failing |= v == Verdict::Regressed;
            let change = if bs.median != 0.0 {
                format!("{:+.1}%", (hs.median / bs.median - 1.0) * 100.0)
            } else {
                "—".into()
            };
            println!(
                "{} {w} | {:.4} [{:.4}–{:.4}] | {:.4} [{:.4}–{:.4}] | {change} | {wins}/{} | {}",
                def.name,
                bs.median,
                bs.q1,
                bs.q3,
                hs.median,
                hs.q1,
                hs.q3,
                b.len().min(h.len()),
                v.name()
            );
        }
    }
    i32::from(failing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: Option<f64>) -> Def {
        Def {
            name: "m".into(),
            unit: "ms",
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_protocol() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let faster: Vec<f64> = base.iter().map(|b| b - 20.0).collect();
        let lower = def(Better::Lower, Some(0.1));
        assert_eq!(verdict(&lower, &base, &faster).0, Verdict::Improved);
        let slower: Vec<f64> = base.iter().map(|b| b * 1.2).collect();
        assert_eq!(verdict(&lower, &base, &slower).0, Verdict::Regressed);
        // A gap inside the base's own spread is no gain.
        let nudged: Vec<f64> = base.iter().map(|b| b - 1.0).collect();
        assert_eq!(verdict(&lower, &base, &nudged).0, Verdict::Unchanged);
        // Nine pairs are too few for a claim.
        assert_eq!(
            verdict(&lower, &base[..9], &faster[..9]).0,
            Verdict::Unchanged
        );
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(verdict(&lower, &noisy, &noisy).0, Verdict::Unresolved);
        let per_layer = def(Better::Higher, None);
        assert_eq!(verdict(&per_layer, &faster, &base).0, Verdict::Improved);
        assert_eq!(verdict(&per_layer, &base, &faster).0, Verdict::Worse);
    }

    #[test]
    fn an_incorrect_or_more_failing_head_is_refused() {
        let run = |workload: &str, correct: bool, failed: u64| Section {
            workload: workload.into(),
            correct,
            failed,
            values: Vec::new(),
        };
        let base = [run("a", true, 0), run("a", true, 0), run("b", false, 2)];
        assert_eq!(head_invalid(&base, &[run("a", true, 0)], "a"), None);
        assert!(head_invalid(&base, &[run("a", true, 0), run("a", false, 0)], "a").is_some());
        assert!(head_invalid(&base, &[run("a", true, 1)], "a").is_some());
        // No more failures than a base that failed too: comparable, but
        // still refused if the run itself says it is not correct.
        assert_eq!(head_invalid(&base, &[run("b", true, 2)], "b"), None);
        assert!(head_invalid(&base, &[run("b", false, 2)], "b").is_some());
    }
}
