//! The per-layer ledger: isolated layer costs, the layer counts a traced
//! pass of the workload produced (read from the program's obs
//! counters), and how far cost × count adds up to the whole.

use crate::clock::{Clock, Probe};
use crate::probes::Probes;
use crate::report::Metric;

/// Layer counts of one traced pass (batch) or round (serve), from an
/// obs snapshot taken after the traced section.
#[derive(Default, Clone, Copy)]
pub struct Counts {
    /// Traced passes or rounds the snapshot covers.
    pub passes: u64,
    pub items: u64,
    pub workers: u64,
    pub busy_ns: u64,
    pub idle_ns: u64,
    pub tasks: u64,
    pub observes: u64,
    pub transitions: u64,
    pub emitted: u64,
    pub consumed: u64,
    pub qnic_drops: u64,
    pub des_events: u64,
}

impl Counts {
    /// Reads the snapshot; counts are whole-section totals.
    pub fn from_obs(snap: &obs::Snapshot, passes: u64) -> Self {
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        let hist_sum = |name: &str| snap.hist(name).map_or(0, |h| h.sum);
        Counts {
            passes,
            items: c("pool.items.executed"),
            workers: snap.hist("time.pool.worker.busy.ns").map_or(0, |h| h.count),
            busy_ns: hist_sum("time.pool.worker.busy.ns"),
            idle_ns: hist_sum("time.pool.worker.idle.ns"),
            tasks: c("lb.tasks.assigned"),
            observes: c("qnlg.fallback.rounds.quantum")
                + c("qnlg.fallback.rounds.classical")
                + c("qnlg.fallback.rounds.independent"),
            transitions: c("qnlg.fallback.transitions"),
            emitted: c("qnet.epr.emitted"),
            consumed: c("qnet.epr.consumed"),
            qnic_drops: c("qnet.qnic.overwrite_drops") + c("qnet.qnic.expired"),
            des_events: c("qnet.des.events"),
        }
    }

    /// A total as a per-pass figure.
    fn per_pass(&self, total: u64) -> f64 {
        total as f64 / self.passes.max(1) as f64
    }
}

/// Serve-only inputs to the ledger.
pub struct ServeLayer {
    pub decide_p50_us: f64,
    /// Raw transport p50 from the run's floor rounds, its n, and whether
    /// it sits above the clock cost.
    pub floor_p50_us: f64,
    pub floor_n: u64,
    pub floor_resolved: bool,
    pub exhausted: u64,
    pub decisions: u64,
    pub refills: u64,
    /// Requests per connection per round, and the median untraced round.
    pub per_round: u64,
    pub round_wall_s: f64,
}

const RUNTIME: &str = "should move wall_s and cpu_s on fig4-family (most) and plane-faults (pool imbalance); nothing on serve-socket";
const QSIM: &str = "should move wall_s on fig4-family (noise and quantum points) and setup_s on serve-socket (prefill draws)";
const ENGINE: &str = "should move wall_s on fig4-family (most) and plane-faults (some)";
const GOVERNOR: &str = "should move wall_s on plane-faults and quantum_frac on serve-socket";
const QNET: &str =
    "should move wall_s on plane-faults (most), and setup_s and quantum_frac on serve-socket";
const HOT_PATH: &str =
    "should move decide_p50_us on serve-socket, but is under 1% of it: predicted no visible change";
const PUMP: &str = "should move quantum_frac, decide_p99_us (the pump shares the cores with the handlers) and setup_s on serve-socket";
const TRANSPORT: &str = "should move decide_p50_us and decisions_per_s on serve-socket";

fn probe_metric(
    name: &'static str,
    unit: &'static str,
    scale: f64,
    p: &Probe,
    moves: &str,
) -> Metric {
    let flag = if p.resolved {
        ""
    } else {
        "UNRESOLVED (a batch sat below 10x the clock cost); "
    };
    Metric::new(
        name,
        p.ns_per_op * scale,
        unit,
        p.ops,
        format!("isolated probe; {flag}{moves}"),
    )
}

fn count_metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: u64,
    what: &str,
    moves: &str,
) -> Metric {
    Metric::new(name, value, unit, n, format!("{what}; {moves}"))
}

/// Every per-layer metric, in a fixed order.
///
/// `cpu_ns_per_pass` is the untraced pass's CPU time (batch);
/// `serve` is present on the serve workload only.
pub fn per_layer(
    clock: &Clock,
    probes: &Probes,
    counts: &Counts,
    trace_overhead: f64,
    cpu_ns_per_pass: Option<f64>,
    serve: Option<&ServeLayer>,
) -> Vec<Metric> {
    let n = counts.passes;
    let pp = |v: u64| counts.per_pass(v);
    let busy_total = counts.busy_ns + counts.idle_ns;

    // Σ isolated cost × in-run count, over the pass's CPU time (batch) or
    // over the connections' wall time (serve).
    let coverage = match (serve, cpu_ns_per_pass) {
        (Some(s), _) => {
            let per_decision_ns =
                s.floor_p50_us * 1e3 + probes.decide.ns_per_op + probes.handoff.ns_per_op;
            s.per_round as f64 * per_decision_ns / (s.round_wall_s * 1e9)
        }
        (None, Some(cpu_ns)) => {
            (pp(counts.items) * probes.runtime_item.item.ns_per_op
                + pp(counts.tasks) * probes.sim_task.ns_per_op
                + pp(counts.emitted) * probes.distributor_pair.ns_per_op
                + pp(counts.observes) * probes.governor_observe.ns_per_op)
                / cpu_ns
        }
        (None, None) => unreachable!("batch ledger needs the pass CPU time"),
    };
    let coverage_what = if serve.is_some() {
        "requests per round x (socket floor p50 + serve.decide_ns + serve.handoff_ns) / round wall"
    } else {
        "(runtime.items x ns_per_item + loadbalance.tasks x sim_ns_per_task + qnet.pairs_emitted x distributor_ns_per_pair + governor observes x ns_per_observe) / cpu_s"
    };

    let (floor_us, floor_n, floor_flag) = match serve {
        Some(s) => (
            s.floor_p50_us,
            s.floor_n,
            if s.floor_resolved { "" } else { "UNRESOLVED; " },
        ),
        None => (0.0, 0, ""),
    };
    let (overhead_us, exhausted_frac, refills, serve_n) = match serve {
        Some(s) => (
            s.decide_p50_us - s.floor_p50_us,
            s.exhausted as f64 / s.decisions.max(1) as f64,
            s.refills as f64,
            s.decisions,
        ),
        None => (0.0, 0.0, 0.0, 0),
    };
    let not_run = if serve.is_some() {
        ""
    } else {
        "not exercised by this workload (0); "
    };

    vec![
        count_metric("runtime.items", pp(counts.items), "count", n, "obs pool.items.executed per traced pass", RUNTIME),
        count_metric(
            "runtime.busy_frac",
            if busy_total == 0 { 0.0 } else { counts.busy_ns as f64 / busy_total as f64 },
            "ratio",
            counts.workers,
            "worker busy/(busy+idle) from obs time.pool.worker.*; n = worker lifetimes",
            RUNTIME,
        ),
        probe_metric("runtime.ns_per_item", "ns", 1.0, &probes.runtime_item.item, RUNTIME),
        Metric::new(
            "runtime.probe_hangs",
            probes.runtime_item.hung as f64,
            "count",
            probes.runtime_item.batches,
            format!(
                "pool probe batches that never returned (killed after 2 s): the steal loop's lock-order deadlock; \
                 should drop to 0 once the executor cannot deadlock; {RUNTIME}"
            ),
        ),
        probe_metric("qsim.werner_ns_per_draw", "ns", 1.0, &probes.werner_draw, QSIM),
        count_metric("loadbalance.tasks", pp(counts.tasks), "count", n, "obs lb.tasks.assigned per traced pass", ENGINE),
        probe_metric("loadbalance.sim_ns_per_task", "ns", 1.0, &probes.sim_task, ENGINE),
        probe_metric("loadbalance.shard_ns_per_task", "ns", 1.0, &probes.shard_task, ENGINE),
        probe_metric("loadbalance.governor_ns_per_observe", "ns", 1.0, &probes.governor_observe, GOVERNOR),
        count_metric(
            "loadbalance.governor_transitions",
            pp(counts.transitions),
            "count",
            n,
            "obs qnlg.fallback.transitions per traced pass",
            GOVERNOR,
        ),
        count_metric("qnet.pairs_emitted", pp(counts.emitted), "count", n, "obs qnet.epr.emitted per traced pass", QNET),
        count_metric(
            "qnet.pair_use_frac",
            if counts.emitted == 0 { 0.0 } else { counts.consumed as f64 / counts.emitted as f64 },
            "ratio",
            counts.emitted,
            "obs qnet.epr.consumed / emitted; n = pairs emitted",
            QNET,
        ),
        count_metric(
            "qnet.qnic_drops",
            pp(counts.qnic_drops),
            "count",
            n,
            "obs qnet.qnic.overwrite_drops + expired per traced pass",
            QNET,
        ),
        count_metric("qnet.des_events", pp(counts.des_events), "count", n, "obs qnet.des.events per traced pass", QNET),
        probe_metric("qnet.des_ns_per_op", "ns", 1.0, &probes.des_op, QNET),
        probe_metric("qnet.distributor_ns_per_pair", "ns", 1.0, &probes.distributor_pair, QNET),
        probe_metric("qnet.distributor_faulted_ns_per_pair", "ns", 1.0, &probes.distributor_faulted_pair, QNET),
        probe_metric("qnet.route_epoch_us", "us", 1e-3, &probes.route_epoch, QNET),
        probe_metric("serve.decide_ns", "ns", 1.0, &probes.decide, HOT_PATH),
        probe_metric("serve.handoff_ns", "ns", 1.0, &probes.handoff, HOT_PATH),
        probe_metric("serve.pump_ns_per_slot", "ns", 1.0, &probes.pump_slot, PUMP),
        count_metric(
            "serve.exhausted_frac",
            exhausted_frac,
            "ratio",
            serve_n,
            &format!("{not_run}inline fallbacks / decisions from the shutdown summary"),
            PUMP,
        ),
        count_metric(
            "serve.refills",
            refills,
            "count",
            serve_n,
            &format!("{not_run}ring refills over the run from the shutdown summary"),
            PUMP,
        ),
        count_metric(
            "serve.socket_floor_p50_us",
            floor_us,
            "us",
            floor_n,
            &format!(
                "{not_run}{floor_flag}raw UnixStream ping-pong with the protocol's 10-byte request and 21-byte \
                 response, in floor rounds of the same closed loop while the service runs"
            ),
            TRANSPORT,
        ),
        count_metric(
            "serve.server_overhead_us",
            overhead_us,
            "us",
            serve_n,
            &format!("{not_run}decide_p50_us - serve.socket_floor_p50_us"),
            TRANSPORT,
        ),
        Metric::new(
            "bench.clock_ns",
            clock.pair_ns,
            "ns",
            900_000,
            format!("cost of an Instant pair; resolution {} ns", clock.resolution_ns),
        ),
        Metric::new(
            "bench.trace_overhead",
            trace_overhead,
            "ratio",
            n,
            "median traced wall / median untraced wall (obs on + spans)",
        ),
        Metric::new("bench.ledger_coverage", coverage, "ratio", n, coverage_what),
    ]
}
