//! Golden trace-hash corpus: one committed [`simcheck::trace_hash`] per
//! representative run, covering every execution mode, a multi-domain run
//! with the cross-domain handshake, a crash-recover run, and a hand-built
//! retry-budget exhaustion.
//!
//! A refactor that claims "same behaviour" must leave every hash here
//! bit-identical. A change that is meant to alter traces re-records the
//! entries it changes (the failure message prints the new hashes) and says
//! which ones and why in its change log.
//!
//! The corpus also pins its own coverage: every reliable-delivery path —
//! update, ack, event, NACK, resync, segment-report, re-forward and ready
//! retransmission, plus update and event budget exhaustion — must fire in
//! at least one entry, so a corpus that stops reaching a path fails.

use cicero::prelude::*;
use cicero_core::obs::{retransmit_stats, RetransmitStats};
use simcheck::{run_scenario_traced, trace_hash, Scenario};
use simnet::fault::FaultPlan;
use simnet::sim::{Observation, ENVIRONMENT};

struct Entry {
    name: &'static str,
    hash: u64,
    run: fn() -> Vec<Observation<Obs>>,
}

/// Runs a fuzzer scenario, which must pass every oracle.
fn scenario(s: Scenario) -> Vec<Observation<Obs>> {
    let (out, obs) = run_scenario_traced(&s);
    assert!(out.passed(), "seed {}: {:?}", s.seed, out.violations);
    obs
}

/// A directed black hole (every controller → ingress switch message is
/// dropped, the reverse direction works) under small retry budgets: events
/// reach the control plane, no update share ever reaches the switch, so
/// both the update and the event budgets run out.
fn exhausted_budgets() -> Vec<Observation<Obs>> {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    cfg.seed = 3;
    cfg.reliability.retry_base = SimDuration::from_millis(5);
    cfg.reliability.retry_budget = 3;
    cfg.reliability.nack_budget = 2;
    let topo = Topology::single_pod(4, 2, 2);
    let dm = DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    let (src, dst) = (HostId(0), HostId(2));
    let r = route(&topo, src, dst).expect("connected");
    let sw = engine.switch_node(topo.host(src).unwrap().attached);
    let mut plan = FaultPlan::none();
    for c in 1..=engine.shared().cfg.controllers_per_domain {
        let cn = engine.controller_node(DomainId(0), ControllerId(c));
        plan.link_drop.insert((cn, sw), 1.0);
    }
    engine.set_faults(plan);
    let start = SimTime::ZERO + SimDuration::from_millis(1);
    engine.inject_raw(
        start,
        ENVIRONMENT,
        sw,
        Net::FlowArrival {
            flow: FlowId(1),
            src,
            dst,
            bytes: 1_000,
            transit: r.latency,
            start,
        },
    );
    let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(60));
    assert!(report.stalled, "{report}");
    engine.observations().to_vec()
}

const CORPUS: &[Entry] = &[
    Entry {
        name: "centralized",
        hash: 0x5853_bfc8_5dde_cac2,
        run: || scenario(Scenario::generate(6)),
    },
    Entry {
        name: "crash_tolerant",
        hash: 0x2e08_0172_1cf6_f9a9,
        run: || scenario(Scenario::generate(2)),
    },
    Entry {
        name: "cicero",
        hash: 0x7418_abb2_007c_f333,
        run: || scenario(Scenario::generate(474)),
    },
    Entry {
        name: "cicero_agg",
        hash: 0x64f4_94c4_2f3f_1838,
        run: || scenario(Scenario::generate(12)),
    },
    Entry {
        name: "segway",
        hash: 0x2c25_6535_092d_a60e,
        run: || scenario(Scenario::generate_segway(1)),
    },
    Entry {
        name: "multi_domain",
        hash: 0x0c88_99fa_17ec_47ba,
        run: || scenario(Scenario::generate(215)),
    },
    Entry {
        name: "crash_recover",
        hash: 0x95c3_215c_2bf0_1a82,
        run: || scenario(Scenario::generate_recovery(9)),
    },
    Entry {
        name: "exhausted_budgets",
        hash: 0xe23c_da9f_5c76_329b,
        run: exhausted_budgets,
    },
];

type Counter = (&'static str, fn(&RetransmitStats) -> u64);

const COUNTERS: [Counter; 10] = [
    ("update_retransmits", |s| s.update_retransmits),
    ("ack_retransmits", |s| s.ack_retransmits),
    ("event_retransmits", |s| s.event_retransmits),
    ("nacks", |s| s.nacks),
    ("resyncs", |s| s.resyncs),
    ("segment_retransmits", |s| s.segment_retransmits),
    ("forward_retransmits", |s| s.forward_retransmits),
    ("ready_retransmits", |s| s.ready_retransmits),
    ("updates_exhausted", |s| s.updates_exhausted),
    ("events_exhausted", |s| s.events_exhausted),
];

#[test]
fn corpus_traces_are_bit_identical() {
    let mut changed = Vec::new();
    let mut totals = [0u64; COUNTERS.len()];
    for e in CORPUS {
        let obs = (e.run)();
        let h = trace_hash(&obs);
        if h != e.hash {
            changed.push(format!("{}: {h:#018x} (committed {:#018x})", e.name, e.hash));
        }
        let stats = retransmit_stats(&obs);
        for (t, (_, get)) in totals.iter_mut().zip(COUNTERS) {
            *t += get(&stats);
        }
    }
    assert!(changed.is_empty(), "trace hashes changed:\n{}", changed.join("\n"));
    for (t, (name, _)) in totals.iter().zip(COUNTERS) {
        assert!(*t > 0, "no corpus entry exercises {name}");
    }
}

/// `Obs::SegmentRetransmitted::attempt` counts retransmissions, 1-based,
/// like every other retransmission observation: each controller's
/// retransmissions of one `(event, segment)` report are numbered 1, 2, …
#[test]
fn segment_retransmissions_count_from_one() {
    let obs = scenario(Scenario::generate(215));
    let mut seen: std::collections::BTreeMap<_, u32> = Default::default();
    for o in &obs {
        if let Obs::SegmentRetransmitted {
            domain,
            controller,
            event,
            segment,
            attempt,
        } = o.value
        {
            let last = seen.entry((domain, controller, event, segment)).or_insert(0);
            assert_eq!(attempt, *last + 1, "{:?}", o.value);
            *last = attempt;
        }
    }
    assert!(!seen.is_empty(), "scenario must retransmit segment reports");
}
