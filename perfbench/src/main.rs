//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <wan_md|pod_real|pod_lossy|node_real> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` of run-phase wall time
//! and prints the end-to-end metrics; `--trace 1` runs it once untraced and
//! once with every actor and disk wrapped in a timing shim, and prints the
//! per-layer metrics. Every run passes the correctness gate. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The process exits 1 when a check fails and 2 on bad arguments.

mod clock;
mod gate;
mod sim;
mod threads;
mod workloads;

use clock::Stopwatch;
use gate::{fingerprint, median, percentile, tail_pct, Verdict};
use sim::Bucket;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Set-up is repeated at least this often per run; `setup_s` is the median.
const MIN_SETUPS: usize = 9;

/// End-to-end metrics (`--trace 0`) and their units, in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("flows_per_s", "flows/s"),
    ("fct_p50_ms", "ms"),
    ("fct_tail_ms", "ms"),
    ("msgs_per_flow", "msgs"),
    ("flows_ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`) and their units, in print order. A
/// layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("simnet.self_s", "s"),
    ("simnet.ns_per_dispatch", "ns"),
    ("simnet.deliveries", "count"),
    ("simnet.timer_fires", "count"),
    ("simnet.dropped", "count"),
    ("simnet.queue_max", "count"),
    ("ctrl.consensus_s", "s"),
    ("ctrl.consensus_n", "count"),
    ("bft.msgs_per_event", "msgs"),
    ("ctrl.timer_s", "s"),
    ("ctrl.timer_n", "count"),
    ("ctrl.event_s", "s"),
    ("ctrl.event_n", "count"),
    ("ctrl.ack_s", "s"),
    ("ctrl.ack_n", "count"),
    ("ctrl.aggregate_s", "s"),
    ("ctrl.aggregate_n", "count"),
    ("ctrl.barrier_s", "s"),
    ("ctrl.barrier_n", "count"),
    ("ctrl.recovery_s", "s"),
    ("ctrl.recovery_n", "count"),
    ("switch.flow_s", "s"),
    ("switch.flow_n", "count"),
    ("switch.update_s", "s"),
    ("switch.update_n", "count"),
    ("switch.timer_s", "s"),
    ("switch.timer_n", "count"),
    ("blscrypto.s", "s"),
    ("blscrypto.share", "ratio"),
    ("blscrypto.ctrl_ack_s", "s"),
    ("blscrypto.ctrl_event_s", "s"),
    ("blscrypto.ctrl_aggregate_s", "s"),
    ("blscrypto.ctrl_consensus_s", "s"),
    ("blscrypto.switch_update_s", "s"),
    ("blscrypto.switch_flow_s", "s"),
    ("wal.appends", "count"),
    ("wal.bytes", "bytes"),
    ("wal.append_s", "s"),
    ("wal.snapshots", "count"),
    ("wal.snapshot_s", "s"),
    ("rtx.update", "count"),
    ("rtx.ack", "count"),
    ("rtx.event", "count"),
    ("rtx.segment", "count"),
    ("rtx.forward", "count"),
    ("rtx.nack", "count"),
    ("rtx.resync", "count"),
    ("rtx.per_update", "ratio"),
    ("node.cpu_ms_per_flow", "ms"),
    ("node.mailbox_drops", "count"),
    ("node.inject_late_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Measured metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What one benchmark invocation reports.
pub struct Outcome {
    /// Flows attempted.
    pub attempted: usize,
    /// The gate's verdict.
    pub verdict: Verdict,
    /// The metrics.
    pub metrics: Metrics,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match (args.workload.as_str(), args.trace) {
        ("node_real", false) => threads::end_to_end(args.seed, args.seconds),
        ("node_real", true) => threads::per_layer(args.seed),
        (name, false) => sim_end_to_end(name, args.seed, args.seconds),
        (name, true) => sim_per_layer(name, args.seed),
    };
    for p in &outcome.verdict.problems {
        println!("# CHECK FAILED: {p}");
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.verdict.ok(),
        outcome.attempted.max(1),
        outcome.verdict.failed_flows
    );
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = outcome.metrics.0.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if !outcome.verdict.ok() {
        std::process::exit(1);
    }
}

/// Generates simulator workload `name` and returns it with the seconds
/// that took.
fn generate(name: &str, seed: u64) -> (workloads::SimWorkload, f64) {
    let t = Stopwatch::start();
    let w = workloads::sim(name, seed).expect("simulator workload");
    (w, t.secs())
}

fn gate_sim(name: &str, w: &workloads::SimWorkload, run: &sim::SimRun) -> Verdict {
    gate::check(
        &run.obs,
        &w.flows,
        &w.topo,
        &w.cfg,
        run.completed,
        name == "pod_lossy",
    )
}

/// `--trace 0` on a simulator workload. A pass runs every episode once
/// (seed → set-up → run); passes repeat while another fits in `seconds`
/// of run phase. The first pass is gated and supplies the simulated
/// metrics; every later pass must reproduce its fingerprints.
fn sim_end_to_end(name: &str, seed: u64, seconds: f64) -> Outcome {
    let episodes = workloads::episodes(name);
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut measured = 0.0;
    let mut attempted = 0usize;
    let mut verdict = Verdict::default();
    // Per episode of the first pass: fingerprint, deliveries, failed flows.
    let mut first: Vec<(u64, u64, usize)> = Vec::new();
    let mut fct = Vec::new();
    let mut tail_at = 100.0;
    let (mut delivered, mut flows) = (0u64, 0usize);
    loop {
        let (mut resolved, mut run_s) = (0usize, 0.0);
        for k in 0..episodes {
            let (w, gen_s) = generate(name, workloads::episode_seed(seed, k));
            let run = sim::untraced(&w, gen_s);
            setups.push(run.setup_s);
            run_s += run.run_s;
            resolved += run.resolved;
            attempted += run.injected;
            let fp = fingerprint(&run.obs);
            if rates.is_empty() {
                let v = gate_sim(name, &w, &run);
                println!(
                    "# {name} episode {k} (seed {}): fingerprint {fp:016x}, {} deliveries, {} observations",
                    w.cfg.seed,
                    run.delivered,
                    run.obs.len()
                );
                tail_at = tail_pct(w.flows.len());
                fct.extend(sim::fct_ms(&run.obs));
                delivered += run.delivered;
                flows += run.injected;
                first.push((fp, run.delivered, v.failed_flows));
                verdict.merge(v);
            } else if (fp, run.delivered) != (first[k].0, first[k].1) {
                verdict.problems.push(format!(
                    "episode {k} diverged on repetition: fingerprint {fp:016x} / {} deliveries vs {:016x} / {}",
                    run.delivered, first[k].0, first[k].1
                ));
                verdict.failed_flows += run.injected;
            } else {
                verdict.failed_flows += first[k].2;
            }
        }
        measured += run_s;
        rates.push(resolved as f64 / run_s);
        if measured * (1.0 + 1.0 / rates.len() as f64) > seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        let t = Stopwatch::start();
        let (w, _) = generate(name, seed);
        drop(sim::build(&w));
        setups.push(t.secs());
    }
    fct.sort_by(f64::total_cmp);
    println!(
        "# {name}: {} pass(es) of {episodes} episode(s), {measured:.3} s measured; fct_tail_ms is p{tail_at:.1} over {} flows",
        rates.len(),
        fct.len()
    );
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups));
    m.put("flows_per_s", median(&rates));
    m.put("fct_p50_ms", percentile(&fct, 50.0));
    m.put("fct_tail_ms", percentile(&fct, tail_at));
    m.put("msgs_per_flow", delivered as f64 / flows.max(1) as f64);
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

/// `--trace 1` on a simulator workload: one untraced run, one traced run
/// that must reproduce its fingerprint and delivery count, and for
/// `pod_real` a traced modeled-crypto twin whose per-kind handler time is
/// subtracted to attribute `blscrypto`.
fn sim_per_layer(name: &str, seed: u64) -> Outcome {
    let (w, gen_s) = generate(name, seed);
    let cpu0 = clock::process_cpu_s();
    let plain = sim::untraced(&w, gen_s);
    let cpu_s = clock::process_cpu_s() - cpu0;
    let fp_plain = fingerprint(&plain.obs);
    drop(plain.obs);

    let (w, gen_s) = generate(name, seed);
    let traced = sim::traced(&w, gen_s);
    let run = &traced.run;
    let fp = fingerprint(&run.obs);
    println!(
        "# {name} seed {seed}: untraced {fp_plain:016x} / {} deliveries, traced {fp:016x} / {} deliveries",
        plain.delivered, run.delivered
    );
    let mut verdict = gate_sim(name, &w, run);
    if (fp, run.delivered) != (fp_plain, plain.delivered) {
        verdict.problems.push(format!(
            "traced run diverged: fingerprint {fp:016x} / {} deliveries, untraced {fp_plain:016x} / {}",
            run.delivered, plain.delivered
        ));
        verdict.failed_flows = run.injected;
    }

    let l = &traced.ledger;
    let mut crypto = [0.0f64; 7];
    if name == "pod_real" {
        let (mut twin_w, gen_s) = generate(name, seed);
        twin_w.cfg.crypto = cicero_core::config::CryptoMode::Modeled;
        let twin = sim::traced(&twin_w, gen_s);
        println!(
            "# modeled twin: {} deliveries / {} observations in {:.3} s (real: {} / {} in {:.3} s)",
            twin.run.delivered,
            twin.run.obs.len(),
            twin.run.run_s,
            run.delivered,
            run.obs.len(),
            run.run_s
        );
        if (twin.run.delivered, twin.run.obs.len()) != (run.delivered, run.obs.len()) {
            verdict.problems.push(format!(
                "modeled twin diverged: {} deliveries / {} observations vs {} / {}",
                twin.run.delivered,
                twin.run.obs.len(),
                run.delivered,
                run.obs.len()
            ));
        } else {
            let t = &twin.ledger;
            let d = |b: Bucket| l.s(b) - t.s(b);
            crypto = [
                l.run_handler_s() - t.run_handler_s(),
                d(Bucket::CtrlAck),
                d(Bucket::CtrlEvent),
                d(Bucket::CtrlAggregate),
                d(Bucket::CtrlConsensus),
                d(Bucket::SwitchUpdate),
                d(Bucket::SwitchFlow),
            ];
        }
    }

    let obs = &run.obs;
    let stats = cicero_core::obs::retransmit_stats(obs);
    let applied = obs
        .iter()
        .filter(|o| matches!(o.value, cicero_core::obs::Obs::UpdateApplied { .. }))
        .count();
    let ordered = obs
        .iter()
        .filter(|o| matches!(o.value, cicero_core::obs::Obs::EventProcessed { .. }))
        .count();
    let timer_fires = l.n(Bucket::CtrlTimer) + l.n(Bucket::SwitchTimer);
    let self_s = run.run_s - l.run_handler_s();
    let mut m = Metrics::default();
    m.put("simnet.self_s", self_s);
    m.put(
        "simnet.ns_per_dispatch",
        1e9 * self_s / (run.delivered + timer_fires).max(1) as f64,
    );
    m.put("simnet.deliveries", run.delivered as f64);
    m.put("simnet.timer_fires", timer_fires as f64);
    m.put("simnet.dropped", run.dropped as f64);
    m.put("simnet.queue_max", traced.queue_max as f64);
    for (s, n, b) in [
        (
            "ctrl.consensus_s",
            "ctrl.consensus_n",
            Bucket::CtrlConsensus,
        ),
        ("ctrl.timer_s", "ctrl.timer_n", Bucket::CtrlTimer),
        ("ctrl.event_s", "ctrl.event_n", Bucket::CtrlEvent),
        ("ctrl.ack_s", "ctrl.ack_n", Bucket::CtrlAck),
        (
            "ctrl.aggregate_s",
            "ctrl.aggregate_n",
            Bucket::CtrlAggregate,
        ),
        ("ctrl.barrier_s", "ctrl.barrier_n", Bucket::CtrlBarrier),
        ("ctrl.recovery_s", "ctrl.recovery_n", Bucket::CtrlRecovery),
        ("switch.flow_s", "switch.flow_n", Bucket::SwitchFlow),
        ("switch.update_s", "switch.update_n", Bucket::SwitchUpdate),
        ("switch.timer_s", "switch.timer_n", Bucket::SwitchTimer),
    ] {
        m.put(s, l.s(b));
        m.put(n, l.n(b) as f64);
    }
    m.put(
        "bft.msgs_per_event",
        l.n(Bucket::CtrlConsensus) as f64 / ordered.max(1) as f64,
    );
    put_crypto(&mut m, crypto, run.run_s);
    put_wal(&mut m, &traced.wal);
    put_rtx(&mut m, &stats, applied);
    m.put(
        "node.cpu_ms_per_flow",
        1e3 * cpu_s / plain.injected.max(1) as f64,
    );
    m.put("node.mailbox_drops", 0.0);
    m.put("node.inject_late_ms", 0.0);
    m.put("trace.overhead_frac", run.run_s / plain.run_s - 1.0);
    Outcome {
        attempted: run.injected,
        verdict,
        metrics: m,
    }
}

/// `blscrypto.*` from `[total, ctrl ack, ctrl event, ctrl aggregate, ctrl
/// consensus, switch update, switch flow]` seconds.
pub fn put_crypto(m: &mut Metrics, c: [f64; 7], run_s: f64) {
    m.put("blscrypto.s", c[0]);
    m.put("blscrypto.share", c[0] / run_s);
    m.put("blscrypto.ctrl_ack_s", c[1]);
    m.put("blscrypto.ctrl_event_s", c[2]);
    m.put("blscrypto.ctrl_aggregate_s", c[3]);
    m.put("blscrypto.ctrl_consensus_s", c[4]);
    m.put("blscrypto.switch_update_s", c[5]);
    m.put("blscrypto.switch_flow_s", c[6]);
}

/// `wal.*` from the timing disks' counters.
pub fn put_wal(m: &mut Metrics, wal: &sim::WalStats) {
    let get = sim::WalStats::get;
    m.put("wal.appends", get(&wal.appends) as f64);
    m.put("wal.bytes", get(&wal.bytes) as f64);
    m.put("wal.append_s", get(&wal.append_ns) as f64 / 1e9);
    m.put("wal.snapshots", get(&wal.snapshots) as f64);
    m.put("wal.snapshot_s", get(&wal.snapshot_ns) as f64 / 1e9);
}

/// `rtx.*` from `obs::retransmit_stats`; `rtx.per_update` is recoveries
/// per applied update.
pub fn put_rtx(m: &mut Metrics, s: &cicero_core::obs::RetransmitStats, applied: usize) {
    m.put("rtx.update", s.update_retransmits as f64);
    m.put("rtx.ack", s.ack_retransmits as f64);
    m.put("rtx.event", s.event_retransmits as f64);
    m.put("rtx.segment", s.segment_retransmits as f64);
    m.put("rtx.forward", s.forward_retransmits as f64);
    m.put("rtx.nack", s.nacks as f64);
    m.put("rtx.resync", s.resyncs as f64);
    m.put(
        "rtx.per_update",
        s.total_recoveries() as f64 / applied.max(1) as f64,
    );
}
