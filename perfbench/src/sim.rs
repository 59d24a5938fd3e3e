//! Simulator workloads: the untraced run through the public `Engine`
//! entry points, and the traced run, which builds the same simulation by
//! hand from `deploy::plan` (as `Engine::build` does) with every actor and
//! disk wrapped in a timing shim.

use crate::clock::Stopwatch;
use crate::workloads::SimWorkload;
use cicero_core::ctrl::ControllerActor;
use cicero_core::deploy::{self, NodeRole, RecoveryKit};
use cicero_core::engine::Engine;
use cicero_core::msg::Net;
use cicero_core::obs::Obs;
use cicero_core::runtime::Directory;
use cicero_core::switch::SwitchActor;
use netmodel::routing::route;
use netmodel::telekom;
use simnet::fault::FaultPlan;
use simnet::latency::LatencyModel;
use simnet::node::{Actor, Host, NodeId, TimerToken};
use simnet::sim::{Observation, Simulation};
use simnet::time::SimDuration;
use southbound::types::{ControllerId, DomainId, SwitchId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use substrate::storage::{disk_handle, Disk, DiskHandle, MemDisk};

/// What a finished simulator run left behind.
pub struct SimRun {
    /// Wall seconds from seed to started deployment.
    pub setup_s: f64,
    /// Wall seconds of the run phase (inject + run to completion).
    pub run_s: f64,
    /// The liveness watchdog declared the run complete.
    pub completed: bool,
    /// Flows injected.
    pub injected: usize,
    /// Flows resolved.
    pub resolved: usize,
    /// Control-plane messages delivered (retransmissions included).
    pub delivered: u64,
    /// Messages dropped by the fault plan.
    pub dropped: u64,
    /// The observation stream.
    pub obs: Vec<Observation<Obs>>,
}

/// The workload's fault plan: loss on every controller-switch link and
/// the scheduled crash. `None` for a fault-free workload, which then runs
/// exactly as the figure drivers run it.
fn fault_plan(w: &SimWorkload, dir: &Directory) -> Option<FaultPlan> {
    if w.drop_probability == 0.0 && w.crash.is_none() {
        return None;
    }
    let mut plan = FaultPlan::none();
    if w.drop_probability > 0.0 {
        for &c in dir.controller_node.values() {
            for &s in dir.switch_node.values() {
                plan = plan.with_link_drop_probability(c, s, w.drop_probability);
            }
        }
    }
    if let Some(c) = w.crash {
        plan = plan.with_crash(c.crash_at, dir.controller(c.domain, c.controller));
    }
    Some(plan)
}

/// Builds workload `w` through `Engine::build`, with its faults and
/// scheduled restart installed.
pub fn build(w: &SimWorkload) -> Engine {
    let mut engine = Engine::build(w.cfg.clone(), w.topo.clone(), w.domain_map.clone(), 0);
    if let Some(plan) = fault_plan(w, &engine.shared().dir) {
        engine.set_faults(plan);
    }
    if let Some(c) = w.crash {
        engine.schedule_restart(c.restart_at, c.domain, c.controller, false);
    }
    engine
}

/// Builds workload `w` through `Engine::build` and runs it with
/// `Engine::run_reporting`. `setup_s` covers `plan` + build + start.
pub fn untraced(w: &SimWorkload, gen_s: f64) -> SimRun {
    let sw = Stopwatch::start();
    let mut engine = build(w);
    let setup_s = gen_s + sw.secs();
    let t = Stopwatch::start();
    engine.inject_flows(&w.flows);
    let report = engine.run_reporting(w.horizon);
    let run_s = t.secs();
    SimRun {
        setup_s,
        run_s,
        completed: report.completed,
        injected: report.injected_flows,
        resolved: report.resolved_flows,
        delivered: engine.delivered_messages(),
        dropped: report.dropped_messages(),
        obs: engine.observations().to_vec(),
    }
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// Handler-time buckets, by role and message kind.
#[derive(Clone, Copy)]
pub enum Bucket {
    /// Controller: PBFT traffic (`Net::Consensus`).
    CtrlConsensus,
    /// Controller: tick / heartbeat / retry timers.
    CtrlTimer,
    /// Controller: signed switch events (direct and forwarded).
    CtrlEvent,
    /// Controller: switch acks.
    CtrlAck,
    /// Controller: aggregation (`UpdateToAggregator`).
    CtrlAggregate,
    /// Controller: cross-domain barriers (segment reports, releases).
    CtrlBarrier,
    /// Controller: NACK/resync, state sync, WAL replay on restart.
    CtrlRecovery,
    /// Controller: membership and heartbeats.
    CtrlOther,
    /// Switch: flow arrivals and completions.
    SwitchFlow,
    /// Switch: updates (share-signed, aggregated, plain, Segway).
    SwitchUpdate,
    /// Switch: timers (event retries, NACKs, ready retries).
    SwitchTimer,
    /// Switch: everything else.
    SwitchOther,
    /// `on_start` at deployment build (set-up, not run time).
    Start,
}

const BUCKETS: usize = 13;

/// Wall seconds and call counts per bucket.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Seconds per bucket.
    pub secs: [f64; BUCKETS],
    /// Calls per bucket.
    pub calls: [u64; BUCKETS],
}

impl Ledger {
    fn add(&mut self, b: Bucket, secs: f64) {
        self.secs[b as usize] += secs;
        self.calls[b as usize] += 1;
    }

    /// Seconds in bucket `b`.
    pub fn s(&self, b: Bucket) -> f64 {
        self.secs[b as usize]
    }

    /// Calls of bucket `b`.
    pub fn n(&self, b: Bucket) -> u64 {
        self.calls[b as usize]
    }

    /// Handler seconds inside the run phase (everything but `Start`).
    pub fn run_handler_s(&self) -> f64 {
        self.secs.iter().sum::<f64>() - self.s(Bucket::Start)
    }
}

/// How an actor type's messages map onto buckets.
trait Classify {
    const TIMER: Bucket;
    fn bucket(msg: &Net) -> Bucket;
}

impl Classify for ControllerActor {
    const TIMER: Bucket = Bucket::CtrlTimer;
    fn bucket(msg: &Net) -> Bucket {
        match msg {
            Net::Consensus { .. } => Bucket::CtrlConsensus,
            Net::EventMsg(_) | Net::ForwardedEvent(_) => Bucket::CtrlEvent,
            Net::AckMsg(_) => Bucket::CtrlAck,
            Net::UpdateToAggregator(_) => Bucket::CtrlAggregate,
            Net::SegmentApplied(_) | Net::BoundaryRelease(_) => Bucket::CtrlBarrier,
            Net::UpdateNack(_)
            | Net::StateSync { .. }
            | Net::SyncRequest { .. }
            | Net::SyncReply { .. } => Bucket::CtrlRecovery,
            _ => Bucket::CtrlOther,
        }
    }
}

impl Classify for SwitchActor {
    const TIMER: Bucket = Bucket::SwitchTimer;
    fn bucket(msg: &Net) -> Bucket {
        match msg {
            Net::FlowArrival { .. } | Net::FlowDone { .. } => Bucket::SwitchFlow,
            Net::UpdateMsg(_)
            | Net::UpdatePlain { .. }
            | Net::UpdateAggregated(_)
            | Net::SegwayUpdate(_)
            | Net::SegwayReady(_)
            | Net::SegwayReadyAck(_) => Bucket::SwitchUpdate,
            _ => Bucket::SwitchOther,
        }
    }
}

/// The timing shim: forwards every callback to the wrapped actor with the
/// same host, and books its wall time.
struct Timed<A> {
    inner: A,
    ledger: Rc<RefCell<Ledger>>,
    /// A restarted incarnation: its `on_start` replays the WAL.
    revived: bool,
}

impl<A: Actor<Net, Obs> + Classify> Actor<Net, Obs> for Timed<A> {
    fn on_start(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        let t = Stopwatch::start();
        self.inner.on_start(ctx);
        let b = if self.revived {
            Bucket::CtrlRecovery
        } else {
            Bucket::Start
        };
        self.ledger.borrow_mut().add(b, t.secs());
    }

    fn on_message(&mut self, ctx: &mut dyn Host<Net, Obs>, from: NodeId, msg: Net) {
        let b = A::bucket(&msg);
        let t = Stopwatch::start();
        self.inner.on_message(ctx, from, msg);
        self.ledger.borrow_mut().add(b, t.secs());
    }

    fn on_timer(&mut self, ctx: &mut dyn Host<Net, Obs>, token: TimerToken) {
        let t = Stopwatch::start();
        self.inner.on_timer(ctx, token);
        self.ledger.borrow_mut().add(A::TIMER, t.secs());
    }
}

/// WAL and snapshot counters shared by every timing disk.
#[derive(Debug, Default)]
pub struct WalStats {
    /// `append` calls.
    pub appends: AtomicU64,
    /// Bytes appended.
    pub bytes: AtomicU64,
    /// Nanoseconds inside `append`.
    pub append_ns: AtomicU64,
    /// `write_atomic` calls (snapshots).
    pub snapshots: AtomicU64,
    /// Nanoseconds inside `write_atomic`.
    pub snapshot_ns: AtomicU64,
}

impl WalStats {
    /// Reads a counter.
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }
}

/// An in-memory disk that books appends and snapshots into [`WalStats`].
struct TimingDisk {
    inner: MemDisk,
    stats: Arc<WalStats>,
}

fn add_ns(c: &AtomicU64, t: Stopwatch) {
    c.fetch_add((t.secs() * 1e9) as u64, Ordering::Relaxed);
}

impl Disk for TimingDisk {
    fn read(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.read(name)
    }
    fn write_atomic(&mut self, name: &str, data: &[u8]) {
        let t = Stopwatch::start();
        self.inner.write_atomic(name, data);
        add_ns(&self.stats.snapshot_ns, t);
        self.stats.snapshots.fetch_add(1, Ordering::Relaxed);
    }
    fn append(&mut self, name: &str, data: &[u8]) {
        let t = Stopwatch::start();
        self.inner.append(name, data);
        add_ns(&self.stats.append_ns, t);
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
    }
    fn remove(&mut self, name: &str) {
        self.inner.remove(name);
    }
    fn wipe(&mut self) {
        self.inner.wipe();
    }
}

/// A timing disk handle booking into `stats`.
pub fn timing_disk(stats: &Arc<WalStats>) -> DiskHandle {
    disk_handle(Box::new(TimingDisk {
        inner: MemDisk::default(),
        stats: Arc::clone(stats),
    }))
}

/// Control-plane message latency model: pod-local 50 µs, intra-DC 250 µs,
/// inter-DC per the Deutsche Telekom backbone. (`Engine`'s private model,
/// copied unchanged so the hand-built simulation is the same program.)
struct ControlLatency {
    /// `(dc, pod)` per node.
    loc: Vec<(u16, u16)>,
}

impl LatencyModel for ControlLatency {
    fn latency(&self, from: NodeId, to: NodeId) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        let (Some(&a), Some(&b)) = (self.loc.get(from.0 as usize), self.loc.get(to.0 as usize))
        else {
            return SimDuration::from_micros(250);
        };
        if a.0 != b.0 {
            telekom::site_latency(a.0, b.0)
        } else if a.1 != b.1 {
            SimDuration::from_micros(250)
        } else {
            SimDuration::from_micros(50)
        }
    }
}

/// A traced run's results.
pub struct TracedRun {
    /// The run itself (same fields as an untraced run).
    pub run: SimRun,
    /// Handler time per bucket.
    pub ledger: Ledger,
    /// WAL counters.
    pub wal: Arc<WalStats>,
    /// Max queued deliveries seen at a watchdog slice boundary.
    pub queue_max: usize,
}

/// The hand-built deployment: the simulation plus what `Engine` keeps to
/// drive it.
struct Traced {
    sim: Simulation<Net, Obs>,
    kit: RecoveryKit,
    controllers: BTreeMap<(DomainId, ControllerId), NodeId>,
    switches: BTreeMap<SwitchId, NodeId>,
    ledger: Rc<RefCell<Ledger>>,
}

impl Traced {
    /// Outstanding work as `Engine`'s watchdog counts it: unacked, waiting,
    /// switch events, recovering controllers (crashed nodes excluded).
    fn outstanding(&mut self) -> usize {
        let mut out = 0;
        for &node in self.controllers.values() {
            if self.sim.is_crashed(node) {
                continue;
            }
            out += self.sim.with_actor::<Timed<ControllerActor>, _>(node, |t| {
                let p = t.inner.pending();
                p.in_flight_count() + p.waiting_count() + usize::from(t.inner.is_recovering())
            });
        }
        for &node in self.switches.values() {
            if self.sim.is_crashed(node) {
                continue;
            }
            out += self
                .sim
                .with_actor::<Timed<SwitchActor>, _>(node, |t| t.inner.outstanding_event_count());
        }
        out
    }

    fn resolved(&self) -> usize {
        self.sim
            .observations()
            .iter()
            .filter(|o| matches!(o.value, Obs::FlowCompleted { .. } | Obs::FlowDenied { .. }))
            .count()
    }

    fn restart(&mut self, d: DomainId, c: ControllerId) {
        let t = Stopwatch::start();
        let (node, actor) = self.kit.rebuild(d, c, false);
        self.ledger.borrow_mut().add(Bucket::CtrlRecovery, t.secs());
        self.sim.revive_node(
            node,
            Timed {
                inner: actor,
                ledger: Rc::clone(&self.ledger),
                revived: true,
            },
        );
    }
}

/// Runs workload `w` on a hand-built, fully shimmed simulation. The run
/// loop mirrors `Engine::run_reporting` (watchdog slices, scheduled
/// restart at its exact instant) and samples the event queue between
/// slices.
pub fn traced(w: &SimWorkload, gen_s: f64) -> TracedRun {
    let sw = Stopwatch::start();
    let mut dep = deploy::plan(w.cfg.clone(), w.topo.clone(), w.domain_map.clone(), 0);
    let wal = Arc::new(WalStats::default());
    dep.provision_storage(|_, _| timing_disk(&wal));
    dep.provision_switch_storage(|_| timing_disk(&wal));
    let kit = dep.recovery_kit();
    let shared = Arc::clone(&dep.shared);
    let mut sim: Simulation<Net, Obs> =
        Simulation::new(shared.cfg.seed, ControlLatency { loc: dep.locations });
    sim.set_cpu_bucket(shared.cfg.cpu_bucket);
    let ledger = Rc::new(RefCell::new(Ledger::default()));
    let mut controllers = BTreeMap::new();
    let mut switches = BTreeMap::new();
    for planned in dep.nodes {
        let node = match planned.role {
            NodeRole::Controller { domain, id, actor } => {
                let node = sim.add_node(Timed {
                    inner: *actor,
                    ledger: Rc::clone(&ledger),
                    revived: false,
                });
                controllers.insert((domain, id), node);
                node
            }
            NodeRole::Switch { id, actor } => {
                let node = sim.add_node(Timed {
                    inner: *actor,
                    ledger: Rc::clone(&ledger),
                    revived: false,
                });
                switches.insert(id, node);
                node
            }
        };
        assert_eq!(node, planned.node, "node plan mismatch");
    }
    sim.start();
    if let Some(plan) = fault_plan(w, &shared.dir) {
        sim.set_faults(plan);
    }
    let mut t = Traced {
        sim,
        kit,
        controllers,
        switches,
        ledger,
    };
    let setup_s = gen_s + sw.secs();

    let clock = Stopwatch::start();
    let mut injected = 0usize;
    for f in &w.flows {
        let Some(r) = route(&shared.topo, f.src, f.dst) else {
            continue;
        };
        let ingress = shared.topo.host(f.src).expect("known host").attached;
        t.sim.inject(
            f.start,
            t.switches[&ingress],
            Net::FlowArrival {
                flow: f.id,
                src: f.src,
                dst: f.dst,
                bytes: f.bytes,
                transit: r.latency,
                start: f.start,
            },
        );
        injected += 1;
    }

    let mut restart = w.crash.map(|c| (c.restart_at, c.domain, c.controller));
    let slice = shared.cfg.watchdog_slice;
    let stall_slices = shared.cfg.watchdog_stall_slices.max(1);
    let mut last_obs = t.sim.observations().len();
    let mut quiet = 0u32;
    let mut completed = false;
    let mut queue_max = 0usize;
    let mut cursor = t.sim.now();
    loop {
        if restart.is_none() && t.resolved() >= injected && t.outstanding() == 0 {
            completed = true;
            break;
        }
        if cursor >= w.horizon {
            break;
        }
        let next_restart = restart.map(|r| r.0);
        let restart_pending = next_restart.map(|at| at <= w.horizon).unwrap_or(false);
        match t.sim.next_event_at() {
            None if !restart_pending => break,
            Some(at) if at > w.horizon && !restart_pending => break,
            _ => {}
        }
        cursor = std::cmp::min(cursor + slice, w.horizon);
        if let Some(at) = next_restart {
            cursor = std::cmp::min(cursor, std::cmp::max(at, t.sim.now()));
        }
        t.sim.run_until(cursor);
        queue_max = queue_max.max(t.sim.queued_deliveries());
        if let Some((at, d, c)) = restart {
            if at <= cursor {
                t.sim.advance_to(at);
                restart = None;
                t.restart(d, c);
            }
        }
        let n = t.sim.observations().len();
        if restart.is_some() || n != last_obs {
            last_obs = n;
            quiet = 0;
        } else {
            quiet += 1;
            if quiet >= stall_slices {
                break;
            }
        }
    }
    let run_s = clock.secs();
    let resolved = t.resolved();
    let ledger = t.ledger.borrow().clone();
    TracedRun {
        run: SimRun {
            setup_s,
            run_s,
            completed,
            injected,
            resolved,
            delivered: t.sim.delivered_count(),
            dropped: t.sim.dropped_counts().iter().sum(),
            obs: t.sim.observations().to_vec(),
        },
        ledger,
        wal,
        queue_max,
    }
}

/// Flow-completion times of a simulator run, in simulated ms.
pub fn fct_ms(obs: &[Observation<Obs>]) -> Vec<f64> {
    cicero_core::obs::flow_latencies(obs)
        .into_iter()
        .map(|d| d.as_millis_f64())
        .collect()
}
