//! `node_real`: the `cicero-node` threaded runtime with real crypto, fed
//! by an open-loop injector (this thread) that hands each flow to
//! `ThreadedDeployment::inject_flows` at its due time.

use crate::clock::{self, Stopwatch};
use crate::gate::{self, median, percentile, tail_pct, Verdict};
use crate::sim::{self, WalStats};
use crate::workloads;
use crate::{put_crypto, put_rtx, put_wal, Metrics, Outcome, MIN_SETUPS};
use cicero_core::config::{Aggregation, CryptoMode, EngineConfig, Mode};
use cicero_core::deploy;
use cicero_core::obs::Obs;
use cicero_node::ThreadedDeployment;
use controller::policy::DomainMap;
use netmodel::topology::Topology;
use simnet::time::{SimDuration, SimTime};
use southbound::types::FlowId;
use std::collections::BTreeMap;
use std::sync::Arc;
use substrate::rng::{Rng, SeedableRng, StdRng};
use workload::gen::FlowSpec;
use workload::spec::LocalityClass;

/// Flows per repetition.
const FLOWS: usize = 12;
/// Open-loop spacing between flow due times: 2 flows/s, about half of
/// what two cores sustain with real BLS (at 4 flows/s some repetitions
/// collapse into retransmission storms).
const INTERVAL_MS: u64 = 500;
/// Wall-clock budget for a repetition to converge after its last flow.
const DRAIN_BUDGET_MS: u64 = 30_000;

/// The `node_real` inputs: 2 pods + 2 spines (3 domains x 4 controllers,
/// 22 node threads), Cicero with switch aggregation and real BLS, and
/// `FLOWS` cross-pod flows, each on its own `(src, dst)` pair, drawn from
/// all such pairs in seeded order and due `INTERVAL_MS` apart.
struct NodeWorkload {
    cfg: EngineConfig,
    topo: Topology,
    flows: Vec<FlowSpec>,
}

fn generate(seed: u64, crypto: CryptoMode) -> NodeWorkload {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = crypto;
    cfg.seed = seed;
    // More hosts per rack give more distinct pairs without more nodes.
    let topo = Topology::multi_pod(2, 2, 2, 4, 2);
    let mut pairs = Vec::new();
    for a in topo.hosts() {
        for b in topo.hosts() {
            if a.loc.pod != b.loc.pod {
                pairs.push((a.id, b.id));
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    rng.shuffle(&mut pairs);
    let flows = pairs
        .into_iter()
        .take(FLOWS)
        .enumerate()
        .map(|(i, (src, dst))| FlowSpec {
            id: FlowId(i as u64 + 1),
            src,
            dst,
            bytes: 40_000,
            start: SimTime::ZERO + SimDuration::from_millis(INTERVAL_MS * i as u64),
            locality: LocalityClass::IntraDc,
        })
        .collect();
    NodeWorkload { cfg, topo, flows }
}

/// Seed → started deployment: workload, `deploy::plan` (real DKG per
/// domain), in-memory disks, thread launch.
fn setup(
    seed: u64,
    crypto: CryptoMode,
    wal: Option<&Arc<WalStats>>,
) -> (NodeWorkload, ThreadedDeployment) {
    let w = generate(seed, crypto);
    let dm = DomainMap::by_pod(&w.topo);
    let mut dep = deploy::plan(w.cfg.clone(), w.topo.clone(), dm, 0);
    match wal {
        Some(stats) => dep.provision_storage(|_, _| sim::timing_disk(stats)),
        None => dep.provision_storage(|_, _| substrate::storage::mem_disk()),
    }
    (w, ThreadedDeployment::launch(dep))
}

/// One open-loop repetition's results.
struct NodeRun {
    setup_s: f64,
    run_s: f64,
    cpu_s: f64,
    injected: usize,
    resolved: usize,
    mailbox_drops: u64,
    inject_late_ms: f64,
    /// Flow-completion times from each flow's due time, wall ms.
    fct_ms: Vec<f64>,
    verdict: Verdict,
    obs_recoveries: cicero_core::obs::RetransmitStats,
    applied: usize,
}

fn run_once(seed: u64, crypto: CryptoMode, wal: Option<&Arc<WalStats>>) -> NodeRun {
    let t = Stopwatch::start();
    let (w, mut dep) = setup(seed, crypto, wal);
    let setup_s = t.secs();

    let cpu0 = clock::process_cpu_s();
    let clock = Stopwatch::start();
    let mut late_ms: BTreeMap<u64, f64> = BTreeMap::new();
    for f in &w.flows {
        let due_s = f.start.as_secs_f64();
        clock.sleep_until(due_s);
        late_ms.insert(f.id.0, 1e3 * (clock.secs() - due_s));
        dep.inject_flows(std::slice::from_ref(f));
    }
    let report = dep.run_to_convergence(SimDuration::from_millis(DRAIN_BUDGET_MS));
    let run_s = clock.secs();
    let cpu_s = clock::process_cpu_s() - cpu0;
    let obs = dep.shutdown();

    let fct_ms = obs
        .iter()
        .filter_map(|o| match o.value {
            Obs::FlowCompleted { flow, start } => Some(
                o.at.since(start).as_millis_f64() + late_ms.get(&flow.0).copied().unwrap_or(0.0),
            ),
            _ => None,
        })
        .collect();
    let verdict = gate::check(&obs, &w.flows, &w.topo, &w.cfg, report.completed, false);
    NodeRun {
        setup_s,
        run_s,
        cpu_s,
        injected: report.injected_flows,
        resolved: report.resolved_flows,
        mailbox_drops: report.dropped_messages,
        inject_late_ms: late_ms.values().copied().fold(0.0, f64::max),
        fct_ms,
        verdict,
        obs_recoveries: cicero_core::obs::retransmit_stats(&obs),
        applied: obs
            .iter()
            .filter(|o| matches!(o.value, Obs::UpdateApplied { .. }))
            .count(),
    }
}

/// Control-plane messages per flow for this deployment and flow list,
/// from a simulator replay (modeled crypto, flows at their due times):
/// the threaded runtime keeps no delivery counter.
fn sim_msgs_per_flow(seed: u64) -> f64 {
    let w = generate(seed, CryptoMode::Modeled);
    let sw = workloads::SimWorkload {
        domain_map: DomainMap::by_pod(&w.topo),
        horizon: w.flows.last().map(|f| f.start).unwrap_or(SimTime::ZERO)
            + SimDuration::from_secs(30),
        cfg: w.cfg,
        topo: w.topo,
        flows: w.flows,
        drop_probability: 0.0,
        crash: None,
    };
    let run = sim::untraced(&sw, 0.0);
    run.delivered as f64 / run.injected.max(1) as f64
}

/// `--trace 0`: repeat seed → set-up → open-loop run while another
/// repetition fits in `seconds` of run phase; every repetition is gated.
pub fn end_to_end(seed: u64, seconds: f64) -> Outcome {
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut fct = Vec::new();
    let mut measured = 0.0;
    let mut attempted = 0;
    let mut verdict = Verdict::default();
    loop {
        let r = run_once(seed, CryptoMode::Real, None);
        setups.push(r.setup_s);
        measured += r.run_s;
        rates.push(r.resolved as f64 / r.run_s);
        attempted += r.injected;
        println!(
            "# node_real seed {seed}: repetition {} ran {:.3} s, {} recoveries, {} mailbox drops, injector at most {:.2} ms late",
            rates.len(),
            r.run_s,
            r.obs_recoveries.total_recoveries(),
            r.mailbox_drops,
            r.inject_late_ms
        );
        fct.extend(r.fct_ms);
        verdict.merge(r.verdict);
        if measured * (1.0 + 1.0 / rates.len() as f64) > seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        let t = Stopwatch::start();
        let (_, dep) = setup(seed, CryptoMode::Real, None);
        setups.push(t.secs());
        drop(dep.shutdown());
    }
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups));
    m.put("flows_per_s", median(&rates));
    fct.sort_by(f64::total_cmp);
    let tail_at = tail_pct(fct.len());
    println!(
        "# node_real: {} repetition(s) on {} cores; fct_tail_ms is p{tail_at:.1} over {} flows",
        rates.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        fct.len()
    );
    m.put("fct_p50_ms", percentile(&fct, 50.0));
    m.put("fct_tail_ms", percentile(&fct, tail_at));
    m.put("msgs_per_flow", sim_msgs_per_flow(seed));
    m.put(
        "flows_ok_frac",
        1.0 - verdict.failed_flows as f64 / attempted.max(1) as f64,
    );
    m.put("peak_rss_mb", clock::peak_rss_mb());
    Outcome {
        attempted,
        verdict,
        metrics: m,
    }
}

/// `--trace 1`: one plain repetition, one with timing disks, and a
/// modeled-crypto twin whose process CPU is subtracted to attribute
/// `blscrypto`. Actor handlers run on the runtime's own threads and are
/// not shimmed, so the simulator and handler layers read 0 here.
pub fn per_layer(seed: u64) -> Outcome {
    let plain = run_once(seed, CryptoMode::Real, None);
    let wal = Arc::new(WalStats::default());
    let traced = run_once(seed, CryptoMode::Real, Some(&wal));
    let twin = run_once(seed, CryptoMode::Modeled, None);
    println!(
        "# node_real seed {seed}: plain {:.3} s, traced {:.3} s, modeled twin {:.3} s; cpu {:.2} / {:.2} / {:.2} s",
        plain.run_s, traced.run_s, twin.run_s, plain.cpu_s, traced.cpu_s, twin.cpu_s
    );
    let mut verdict = Verdict::default();
    let attempted = plain.injected + traced.injected + twin.injected;
    verdict.merge(plain.verdict);
    verdict.merge(traced.verdict);
    verdict.merge(twin.verdict);

    let mut m = Metrics::default();
    let crypto_s = (plain.cpu_s - twin.cpu_s).max(0.0);
    put_crypto(
        &mut m,
        [crypto_s, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        plain.run_s,
    );
    put_wal(&mut m, &wal);
    put_rtx(&mut m, &traced.obs_recoveries, traced.applied);
    m.put(
        "node.cpu_ms_per_flow",
        1e3 * traced.cpu_s / traced.injected.max(1) as f64,
    );
    m.put("node.mailbox_drops", traced.mailbox_drops as f64);
    m.put("node.inject_late_ms", traced.inject_late_ms);
    m.put("trace.overhead_frac", traced.run_s / plain.run_s - 1.0);
    Outcome {
        attempted,
        verdict,
        metrics: m,
    }
}
