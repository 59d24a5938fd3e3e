//! The seed-replay contract, asserted in-process: running the same sampled
//! scenario twice must produce the exact same observation trace and the
//! exact same outcome. This is the regression test behind the whole
//! `CHECK_SEED` replay story (and behind `detlint`'s
//! `no-random-order-collections` rule — a single `HashMap` iteration in a
//! deterministic crate is precisely the kind of bug that makes this test
//! flake across processes while passing within one).

use simcheck::{run_scenario_traced, trace_hash, Scenario};

#[test]
fn same_seed_same_trace() {
    for seed in [1u64, 7, 42, 1337] {
        let s = Scenario::generate(seed);
        let (out_a, obs_a) = run_scenario_traced(&s);
        let (out_b, obs_b) = run_scenario_traced(&s);

        assert_eq!(
            obs_a.len(),
            obs_b.len(),
            "seed {seed}: observation counts diverged"
        );
        for (i, (a, b)) in obs_a.iter().zip(obs_b.iter()).enumerate() {
            assert_eq!(a, b, "seed {seed}: trace diverged at observation {i}");
        }

        let ha = trace_hash(&obs_a);
        let hb = trace_hash(&obs_b);
        assert_eq!(ha, hb, "seed {seed}: trace hashes diverged");

        assert_eq!(
            format!("{:?}", out_a.violations),
            format!("{:?}", out_b.violations),
            "seed {seed}: oracle verdicts diverged"
        );
        assert_eq!(
            (out_a.report.completed, out_a.report.resolved_flows, out_a.report.end),
            (out_b.report.completed, out_b.report.resolved_flows, out_b.report.end),
            "seed {seed}: run reports diverged"
        );
    }
}

/// The cross-domain handshake adds inter-domain control traffic (event
/// forwards, segment reports, release receipts) with its own retry timers
/// and jitter streams — all of which must stay on the deterministic
/// substrate. A multi-domain boundary-crossing scenario run twice under
/// the same seed must yield byte-identical traces.
#[test]
fn multi_domain_handshake_trace_is_deterministic() {
    use simcheck::{FlowPlan, ModeTag, SchedTag};
    let s = Scenario {
        seed: 0x0D0_D15EED,
        racks: 3,
        edges: 1,
        hosts_per_rack: 2,
        domains: 3,
        mode: ModeTag::Cicero,
        scheduler: SchedTag::ReversePath,
        controllers_per_domain: 4,
        flows: vec![
            // Boundary-crossing both directions plus an intra-rack control.
            FlowPlan { src: 2, dst: 5, bytes: 12_000, start_ms: 3 },
            FlowPlan { src: 4, dst: 0, bytes: 8_000, start_ms: 9 },
            FlowPlan { src: 0, dst: 1, bytes: 4_000, start_ms: 15 },
        ],
        denied: vec![],
        faults: vec![],
        horizon_ms: 30_000,
    };
    let (out_a, obs_a) = run_scenario_traced(&s);
    let (out_b, obs_b) = run_scenario_traced(&s);
    assert!(out_a.passed(), "handshake scenario must pass: {:?}", out_a.violations);
    assert!(
        obs_a
            .iter()
            .any(|o| matches!(o.value, cicero_core::Obs::BoundaryReleased { .. })),
        "scenario must actually exercise the handshake"
    );
    assert_eq!(obs_a.len(), obs_b.len(), "observation counts diverged");
    let ha = trace_hash(&obs_a);
    let hb = trace_hash(&obs_b);
    assert_eq!(ha, hb, "handshake trace hashes diverged");
    assert_eq!(
        format!("{:?}", out_a.violations),
        format!("{:?}", out_b.violations),
        "oracle verdicts diverged"
    );
}

#[test]
fn regenerating_the_scenario_is_also_stable() {
    // Scenario sampling itself must be a pure function of the seed.
    for seed in [3u64, 99] {
        let a = format!("{:?}", Scenario::generate(seed));
        let b = format!("{:?}", Scenario::generate(seed));
        assert_eq!(a, b, "seed {seed}: scenario generation diverged");
    }
}
