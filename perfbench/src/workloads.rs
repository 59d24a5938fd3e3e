//! The benchmark workloads. Each one is a pure function of the seed:
//! topology, protocol mode, crypto mode, flows and fault schedule.

use cicero_core::config::{Aggregation, CryptoMode, EngineConfig, Mode};
use controller::policy::DomainMap;
use netmodel::telekom;
use netmodel::topology::Topology;
use simnet::time::{SimDuration, SimTime};
use southbound::types::{ControllerId, DomainId};
use substrate::rng::{Rng, SeedableRng, StdRng};
use workload::gen::FlowSpec;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["wan_md", "pod_real", "pod_lossy", "node_real"];

/// `pod_lossy`: drop probability on every controller-switch link.
const LOSSY_DROP: f64 = 0.02;
/// `pod_lossy`: flows per episode (amortized Hadoop).
const LOSSY_FLOWS: usize = 5000;

/// Independent episodes per run: each is a whole workload instance with
/// its own seed, so a run's figures pool several samples of the input
/// distribution.
pub fn episodes(name: &str) -> usize {
    match name {
        "wan_md" => 3,
        "pod_real" => 4,
        "pod_lossy" => 8,
        _ => 1,
    }
}

/// The seed of episode `k` of a run with seed `seed`. Episode 0 uses the
/// run seed itself.
pub fn episode_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A backup controller that crashes mid-run and restarts from its WAL.
#[derive(Clone, Copy, Debug)]
pub struct CrashRestart {
    /// The victim's domain.
    pub domain: DomainId,
    /// The victim (never the view-0 primary, controller 1).
    pub controller: ControllerId,
    /// When it crashes.
    pub crash_at: SimTime,
    /// When it restarts from its durable disk.
    pub restart_at: SimTime,
}

/// A simulator workload: everything `Engine::build` and the run need.
#[derive(Clone)]
pub struct SimWorkload {
    /// Engine configuration (mode, crypto, seed).
    pub cfg: EngineConfig,
    /// The fabric.
    pub topo: Topology,
    /// The domain partition.
    pub domain_map: DomainMap,
    /// The generated flows.
    pub flows: Vec<FlowSpec>,
    /// Drop probability on every controller-switch link (both ways).
    pub drop_probability: f64,
    /// Optional controller crash + WAL restart.
    pub crash: Option<CrashRestart>,
    /// Run horizon (the watchdog normally ends the run well before).
    pub horizon: SimTime,
}

fn generate(topo: &Topology, spec: &workload::spec::WorkloadSpec, seed: u64) -> Vec<FlowSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    workload::gen::generate(topo, spec, &mut rng)
}

/// Seed of the one draw of flow sizes that every workload seed shares.
const SIZE_SEED: u64 = 0x5153_0001;

/// Replaces the flows' sizes with one fixed draw from the spec's size
/// distribution, dealt to the flows in seeded order. On the Hadoop pod the
/// FCT tail is the transmission time of the few largest flows (sizes have
/// σ = 1.7), and with sizes drawn afresh per seed it swings by a fifth
/// between seeds on sampling noise alone. `wan_md` keeps fresh sizes: its
/// web-server tail, pooled over 15,000 flows, varies less, and with a fixed
/// size mix its median FCT would sit on the same switch-CPU mass point
/// (rack-local set-ups that all finish when the ToR's CPU frees) for every
/// seed.
fn pin_sizes(flows: &mut [FlowSpec], spec: &workload::spec::WorkloadSpec, seed: u64) {
    let mut rng = StdRng::seed_from_u64(SIZE_SEED);
    let mut sizes: Vec<u64> = flows
        .iter()
        .map(|_| spec.size_bytes.sample(&mut rng).max(64.0) as u64)
        .collect();
    StdRng::seed_from_u64(seed ^ SIZE_SEED).shuffle(&mut sizes);
    for (f, bytes) in flows.iter_mut().zip(sizes) {
        f.bytes = bytes;
    }
}

/// Sizes the run horizon and the watchdog's stall window to the longest
/// flow: the watchdog counts a slice without new observations as quiet,
/// and a lone elephant flow still transmitting after the rest of the
/// traffic drained (Hadoop sizes reach 100+ MB, 8+ s at 100 Mb/s)
/// produces none until it completes.
fn size_run(cfg: &mut EngineConfig, flows: &[FlowSpec]) -> SimTime {
    let longest = flows
        .iter()
        .map(|f| cfg.tx_time(f.bytes))
        .max()
        .unwrap_or(SimDuration::ZERO);
    let slice = cfg.watchdog_slice.as_nanos().max(1);
    let longest_slices = longest.as_nanos().div_ceil(slice) as u32;
    cfg.watchdog_stall_slices += longest_slices;
    flows
        .last()
        .map(|f| f.start + SimDuration::from_secs(30) + longest)
        .unwrap_or(SimTime::ZERO + SimDuration::from_secs(60))
}

/// Builds simulator workload `name` from `seed` (`None` for `node_real`
/// or an unknown name).
pub fn sim(name: &str, seed: u64) -> Option<SimWorkload> {
    let (mode, crypto, rule_reuse, topo, domain_map, spec, flows_n) = match name {
        // Fig 12d / Fig S fabric: 4 Telekom DCs x 4 pods, one domain per pod.
        "wan_md" => {
            let topo = Topology::multi_dc(4, 4, 6, 4, 2, 2, telekom::wan(4));
            let dm = DomainMap::by_pod(&topo);
            (
                Mode::Cicero {
                    aggregation: Aggregation::Switch,
                },
                CryptoMode::Modeled,
                true,
                topo,
                dm,
                workload::spec::web_server_multi_dc(),
                5000,
            )
        }
        // Fig 11 pod, controller aggregation, real BLS.
        "pod_real" => {
            let topo = Topology::single_pod(40, 4, 4);
            let dm = DomainMap::single(&topo);
            (
                Mode::Cicero {
                    aggregation: Aggregation::Controller,
                },
                CryptoMode::Real,
                true,
                topo,
                dm,
                workload::spec::hadoop(),
                200,
            )
        }
        // Fig 11 pod under southbound loss and a backup crash + restart.
        "pod_lossy" => {
            let topo = Topology::single_pod(40, 4, 4);
            let dm = DomainMap::single(&topo);
            (
                Mode::Cicero {
                    aggregation: Aggregation::Switch,
                },
                CryptoMode::Modeled,
                true,
                topo,
                dm,
                workload::spec::hadoop(),
                LOSSY_FLOWS,
            )
        }
        _ => return None,
    };
    let mut cfg = EngineConfig::for_mode(mode);
    cfg.crypto = crypto;
    cfg.rule_reuse = rule_reuse;
    cfg.seed = seed;
    let mut spec = spec;
    spec.flows = flows_n;
    let mut flows = generate(&topo, &spec, seed);
    if name != "wan_md" {
        pin_sizes(&mut flows, &spec, seed);
    }
    let (drop_probability, crash) = if name == "pod_lossy" {
        let first = flows.first().map(|f| f.start).unwrap_or(SimTime::ZERO);
        let last = flows.last().map(|f| f.start).unwrap_or(SimTime::ZERO);
        let mid = first + SimDuration::from_nanos(last.since(first).as_nanos() / 2);
        (
            LOSSY_DROP,
            Some(CrashRestart {
                domain: DomainId(0),
                controller: ControllerId(2),
                crash_at: mid,
                restart_at: mid + SimDuration::from_secs(1),
            }),
        )
    } else {
        (0.0, None)
    };
    let horizon = size_run(&mut cfg, &flows);
    Some(SimWorkload {
        cfg,
        topo,
        domain_map,
        flows,
        drop_probability,
        crash,
        horizon,
    })
}
