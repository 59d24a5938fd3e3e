//! The correctness gate every timed run passes through, the behaviour
//! fingerprint, and the latency percentiles.

use cicero_core::audit::audit_flow;
use cicero_core::config::EngineConfig;
use cicero_core::obs::Obs;
use netmodel::topology::Topology;
use simnet::sim::Observation;
use southbound::types::{FlowMatch, UpdateKind};
use std::collections::{BTreeMap, BTreeSet};
use workload::gen::FlowSpec;

/// What the gate found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Flows unresolved at the end of the run or touched by a failed check.
    pub failed_flows: usize,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Verdict {
    /// `true` iff every check passed.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }

    /// Folds another run's verdict into this one (flow counts add up).
    pub fn merge(&mut self, other: Verdict) {
        self.failed_flows += other.failed_flows;
        self.problems.extend(other.problems);
    }
}

fn key(m: FlowMatch) -> (u32, u32) {
    (m.src.0, m.dst.0)
}

fn matcher(kind: &UpdateKind) -> FlowMatch {
    match kind {
        UpdateKind::Install(rule) => rule.matcher,
        UpdateKind::Remove(m) => *m,
    }
}

/// Checks one finished run:
/// * the run completed (`completed` from the executor's report);
/// * `audit_flow` finds no hazard for any flow;
/// * in a threshold-signed mode every `UpdateApplied` carries at least
///   ⌊(n−1)/3⌋+1 signers;
/// * with `expect_recovery`, a `ControllerRecovered` was observed.
///
/// Failed flows: unresolved ones, those whose rules had a hazard or an
/// under-signed apply, and all of them when a run-level check fails.
pub fn check(
    obs: &[Observation<Obs>],
    flows: &[FlowSpec],
    topo: &Topology,
    cfg: &EngineConfig,
    completed: bool,
    expect_recovery: bool,
) -> Verdict {
    let mut v = Verdict::default();
    let resolved: BTreeSet<u64> = obs
        .iter()
        .filter_map(|o| match o.value {
            Obs::FlowCompleted { flow, .. } | Obs::FlowDenied { flow } => Some(flow.0),
            _ => None,
        })
        .collect();
    let mut failed: BTreeSet<u64> = flows
        .iter()
        .filter(|f| !resolved.contains(&f.id.0))
        .map(|f| f.id.0)
        .collect();
    if !completed {
        v.problems.push(format!(
            "run did not complete: {} of {} flows unresolved",
            failed.len(),
            flows.len()
        ));
    }

    // Group the applied updates by match: a walk for one match only reads
    // that match's rules, so auditing each flow against its own match's
    // updates finds exactly the hazards `audit_flow` finds on the full
    // stream.
    let quorum = (cfg.controllers_per_domain.saturating_sub(1)) / 3 + 1;
    let mut by_match: BTreeMap<(u32, u32), Vec<Observation<Obs>>> = BTreeMap::new();
    let mut under_signed: BTreeSet<(u32, u32)> = BTreeSet::new();
    for o in obs {
        if let Obs::UpdateApplied { kind, signers, .. } = &o.value {
            let k = key(matcher(kind));
            if cfg.mode.is_signed() && *signers < quorum {
                under_signed.insert(k);
            }
            by_match.entry(k).or_default().push(o.clone());
        }
    }
    if !under_signed.is_empty() {
        v.problems.push(format!(
            "{} rule(s) applied with fewer than {quorum} signers",
            under_signed.len()
        ));
    }
    let mut audited: BTreeMap<(u32, (u32, u32)), bool> = BTreeMap::new();
    let mut hazardous = 0usize;
    for f in flows {
        let m = FlowMatch {
            src: f.src,
            dst: f.dst,
        };
        let Some(ingress) = topo.host(f.src).map(|h| h.attached) else {
            continue;
        };
        let k = key(m);
        let clean = *audited.entry((ingress.0, k)).or_insert_with(|| {
            let updates = by_match.get(&k).map(Vec::as_slice).unwrap_or(&[]);
            audit_flow(updates, ingress, m, false).is_empty()
        });
        if !clean {
            hazardous += 1;
        }
        if !clean || under_signed.contains(&k) {
            failed.insert(f.id.0);
        }
    }
    if hazardous > 0 {
        v.problems
            .push(format!("{hazardous} flow(s) saw a consistency hazard"));
    }
    if expect_recovery
        && !obs
            .iter()
            .any(|o| matches!(o.value, Obs::ControllerRecovered { .. }))
    {
        v.problems
            .push("no ControllerRecovered observed after the restart".to_string());
        failed.extend(flows.iter().map(|f| f.id.0));
    }
    v.failed_flows = failed.len();
    v
}

/// FNV-1a over the `Debug` rendering of an observation stream — the same
/// digest `simcheck`'s determinism test computes, streamed instead of
/// formatted into one string.
pub fn fingerprint(obs: &[Observation<Obs>]) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let _ = std::fmt::write(&mut h, format_args!("{obs:?}"));
    h.0
}

/// The highest percentile with at least 10 of `n` samples beyond it
/// (p99.8 at 5,000 samples, p95 at 200).
pub fn tail_pct(n: usize) -> f64 {
    if n > 10 {
        100.0 * (n - 10) as f64 / n as f64
    } else {
        100.0
    }
}

/// Nearest-rank percentile `pct` of an ascending sample (0 when empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps an exact rank such as 0.998 * 5000 from rounding up.
    let rank = (pct / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
