//! Isolated per-layer costs, each driven through a crate's public API.
//!
//! Every probe runs with obs collection off, after the clock has been
//! calibrated, and times batches long enough to resolve (see
//! [`crate::clock`]). The traced run multiplies these costs by the
//! layer counts the workload itself produced to build the ledger.

use crate::clock::{probe, timed_loop, Clock, Probe};
use crate::stats::median;
use loadbalance::degrade::{FallbackGovernor, HysteresisConfig};
use loadbalance::shard::{run_scaled, ScaleConfig, ScaleStrategy};
use loadbalance::sim::{run_simulation, SimConfig};
use loadbalance::strategy::Strategy;
use loadbalance::task::{ArrivalModel, BernoulliWorkload};
use qnet::{
    route_epoch, star, ConsumePolicy, DistributorConfig, EntanglementDistributor, EprSource,
    EventQueue, FaultKind, FaultPlan, FaultWindow, FiberLink, LinkSide, PairDemand, Policy,
    SimTime, SwapModel,
};
use qsim::werner::WernerPair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{DecisionSlot, ServeConfig, ServiceCore};
use std::hint::black_box;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Batches per probe; the median over them is reported.
const REPS: usize = 9;

/// Every isolated cost the ledger uses.
pub struct Probes {
    pub runtime_item: PoolProbe,
    pub werner_draw: Probe,
    pub sim_task: Probe,
    pub shard_task: Probe,
    pub governor_observe: Probe,
    pub des_op: Probe,
    pub distributor_pair: Probe,
    pub distributor_faulted_pair: Probe,
    pub route_epoch: Probe,
    pub decide: Probe,
    pub handoff: Probe,
    pub pump_slot: Probe,
}

/// Runs every probe. `threads` is the pool width the workloads use.
pub fn run_all(clock: &Clock, threads: usize, seed: u64) -> Probes {
    Probes {
        runtime_item: runtime_item(clock, threads),
        werner_draw: werner_draw(clock, seed),
        sim_task: sim_task(clock, seed),
        shard_task: shard_task(clock, seed),
        governor_observe: governor_observe(clock),
        des_op: des_op(clock, seed),
        distributor_pair: distributor_pair(clock, DistributorConfig::typical(), seed),
        distributor_faulted_pair: distributor_pair(clock, faulted_plane(), seed),
        route_epoch: route_epoch_probe(clock, seed),
        decide: decide(clock, seed),
        handoff: handoff(clock),
        pump_slot: pump_slot(clock, seed),
    }
}

/// `par_map_threads` calls per pool probe batch, and items per call.
const POOL_CALLS: usize = 16;
const POOL_ITEMS: u64 = 4096;
/// Pool probe batches attempted per run.
const POOL_BATCHES: usize = 12;
/// A pool probe batch takes about a millisecond; one still running after
/// this long is hung.
const POOL_BATCH_TIMEOUT: Duration = Duration::from_secs(2);

/// The pool probe's result: cost per item over the batches that
/// returned, and how many hung.
pub struct PoolProbe {
    pub item: Probe,
    pub hung: u64,
    pub batches: u64,
}

/// One pool probe batch, run in a child process (`--pool-probe
/// <threads>`): prints the items mapped and the ns they took.
pub fn pool_batch(threads: usize) {
    let items: Vec<u64> = (0..POOL_ITEMS).collect();
    let t0 = Instant::now();
    let mut n = 0;
    for _ in 0..POOL_CALLS {
        let out = runtime::par_map_threads(threads, &items, |i, &x| x ^ i as u64);
        n += black_box(out).len() as u64;
    }
    println!("{n} {}", t0.elapsed().as_nanos());
}

/// `runtime::par_map_threads` over trivial items: the pool's own cost
/// per item (thread spawn, chunking, result collection).
///
/// Two workers that run dry together can deadlock in the pool's steal
/// loop, and trivial items make that likely. Each batch therefore runs
/// in a child process that is killed if it hangs; hung batches are
/// counted, not timed.
fn runtime_item(clock: &Clock, threads: usize) -> PoolProbe {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut per_item = Vec::new();
    let (mut ops, mut hung, mut resolved) = (0, 0, true);
    for _ in 0..POOL_BATCHES {
        let mut child = Command::new(&exe)
            .args(["--pool-probe", &threads.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("start a pool probe process");
        let deadline = Instant::now() + POOL_BATCH_TIMEOUT;
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll the pool probe process") {
                break Some(status);
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                child.wait().expect("reap the hung pool probe process");
                break None;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        if !status.is_some_and(|s| s.success()) {
            hung += 1;
            continue;
        }
        let mut line = String::new();
        child
            .stdout
            .take()
            .expect("piped stdout")
            .read_to_string(&mut line)
            .expect("read the pool probe result");
        let mut fields = line
            .split_whitespace()
            .map(|f| f.parse::<u64>().expect("numeric pool probe output"));
        let (n, ns) = (
            fields.next().expect("item count"),
            fields.next().expect("elapsed ns"),
        );
        resolved &= clock.resolves(ns as f64);
        per_item.push(ns as f64 / n as f64);
        ops += n;
    }
    PoolProbe {
        item: Probe {
            ns_per_op: if per_item.is_empty() {
                0.0
            } else {
                median(&per_item)
            },
            ops,
            resolved: resolved && !per_item.is_empty(),
        },
        hung,
        batches: POOL_BATCHES as u64,
    }
}

/// `WernerPair::sample` at the CHSH angles, visibility 0.95.
fn werner_draw(clock: &Clock, seed: u64) -> Probe {
    let pair = WernerPair::new(0.95).expect("valid visibility");
    let angles = [
        (0.0, std::f64::consts::FRAC_PI_8),
        (std::f64::consts::FRAC_PI_4, -std::f64::consts::FRAC_PI_8),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    probe(clock, REPS, || {
        let mut acc = 0u64;
        let r = timed_loop(200_000, |i| {
            let (a, b) = angles[(i & 1) as usize];
            let (x, y) = pair.sample(a, b, &mut rng);
            acc += u64::from(x ^ y);
        });
        black_box(acc);
        r
    })
}

/// Tasks one paper-config Figure-4 point assigns (N = 100 balancers over
/// warmup + measured steps).
fn paper_tasks(config: &SimConfig) -> u64 {
    config.n_balancers as u64 * (config.warmup + config.timesteps)
}

/// The legacy engine on the paper's point: load 1.2, paired-quantum.
fn sim_task(clock: &Clock, seed: u64) -> Probe {
    let config = SimConfig::paper(1.2);
    probe(clock, 5, || {
        let mut rng = StdRng::seed_from_u64(seed);
        let t0 = Instant::now();
        let r = run_simulation(
            config,
            Strategy::quantum_ideal(),
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        let took = t0.elapsed();
        black_box(r.avg_queue_len);
        (paper_tasks(&config), took)
    })
}

/// The sharded engine on the same point, one worker.
fn shard_task(clock: &Clock, seed: u64) -> Probe {
    let config = SimConfig::paper(1.2);
    let scaled = ScaleConfig {
        threads: 1,
        ..ScaleConfig::new(config, ArrivalModel::paper())
    };
    probe(clock, 5, || {
        let t0 = Instant::now();
        let r =
            run_scaled(&scaled, ScaleStrategy::quantum_ideal(), seed).expect("valid scaled run");
        let took = t0.elapsed();
        black_box(r.avg_queue_len);
        (paper_tasks(&config), took)
    })
}

/// `FallbackGovernor::observe` on delivery evidence with periodic
/// outages, so the hysteresis both holds and transitions.
fn governor_observe(clock: &Clock) -> Probe {
    let mut governor = FallbackGovernor::new(HysteresisConfig::default());
    probe(clock, REPS, || {
        timed_loop(200_000, |i| {
            let delivered = u64::from(i % 4_000 >= 600 && i % 37 != 0);
            black_box(governor.observe(delivered, 1));
        })
    })
}

/// `EventQueue` schedule + pop at a steady depth of 256 pending events
/// with 0–20 µs gaps.
fn des_op(clock: &Clock, seed: u64) -> Probe {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..256 {
        queue.schedule(SimTime::from_nanos(rng.gen_range(0..20_000u64)), i);
    }
    let gaps: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..20_000u64)).collect();
    probe(clock, REPS, || {
        timed_loop(200_000, |i| {
            let (t, payload) = queue.pop().expect("queue stays at steady depth");
            queue.schedule(
                t + Duration::from_nanos(gaps[(i & 4095) as usize]),
                black_box(payload),
            );
        })
    })
}

/// The `fig4-faults` plane at its longest outage (3.2 ms of every 4 ms)
/// plus one brownout, one QNIC clamp and one decoherence spike: a copy
/// of that experiment's private fault plan and pipeline settings.
fn faulted_plane() -> DistributorConfig {
    let horizon = SimTime::from_micros(DISTRIBUTOR_HORIZON_US);
    let mut faults = FaultPlan::periodic(
        FaultKind::LinkOutage(LinkSide::Both),
        SimTime::from_micros(1_000),
        Duration::from_micros(4_000),
        Duration::from_micros(3_200),
        horizon,
    );
    faults.push(FaultWindow {
        start: SimTime::from_micros(10_000),
        end: SimTime::from_micros(14_000),
        kind: FaultKind::SourceBrownout { rate_factor: 0.25 },
    });
    faults.push(FaultWindow {
        start: SimTime::from_micros(20_000),
        end: SimTime::from_micros(24_000),
        kind: FaultKind::QnicClamp { capacity: 2 },
    });
    faults.push(FaultWindow {
        start: SimTime::from_micros(30_000),
        end: SimTime::from_micros(34_000),
        kind: FaultKind::DecoherenceSpike {
            lifetime_factor: 0.2,
        },
    });
    DistributorConfig {
        source: EprSource::new(3e4, 0.98),
        link_a: FiberLink::new(0.5),
        link_b: FiberLink::new(0.5),
        qnic_capacity: 16,
        memory_lifetime: Duration::from_micros(100),
        max_age: Duration::from_micros(80),
        consume_policy: ConsumePolicy::FreshestFirst,
        faults,
        emission: qnet::EmissionMode::Batched,
    }
}

/// Simulated horizon of one distributor batch.
const DISTRIBUTOR_HORIZON_US: u64 = 200_000;

/// `advance_to` in 100 µs steps over a fixed horizon, one consumption
/// per step; cost per emitted pair.
fn distributor_pair(clock: &Clock, config: DistributorConfig, seed: u64) -> Probe {
    let mut rng = StdRng::seed_from_u64(seed);
    probe(clock, REPS, || {
        let mut plane = EntanglementDistributor::new(config.clone(), &mut rng);
        let t0 = Instant::now();
        for step in 1..=DISTRIBUTOR_HORIZON_US / 100 {
            let now = SimTime::from_micros(step * 100);
            plane.advance_to(now);
            black_box(plane.take_werner(now));
        }
        let took = t0.elapsed();
        (plane.stats().emitted.max(1), took)
    })
}

/// `route_epoch` on the `topology` experiment's fanout-8 star with a
/// saturating demand.
fn route_epoch_probe(clock: &Clock, seed: u64) -> Probe {
    let swap = SwapModel::new(0.9, 0.97).expect("valid swap model");
    let budget = 40_000;
    let (graph, pairs) = star(8, 5.0, 0.98, swap, budget).expect("valid star");
    let demands: Vec<PairDemand> = pairs
        .iter()
        .map(|&(from, to)| PairDemand {
            from,
            to,
            demand: budget,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    probe(clock, REPS, || {
        timed_loop(8, |epoch| {
            black_box(route_epoch(
                &graph,
                &demands,
                &[],
                Policy::RoundRobin,
                epoch,
                &mut rng,
            ));
        })
    })
}

/// `DecisionEndpoint::decide` through `ServiceCore` on a prefilled ring;
/// the refill happens between batches, outside the timer.
fn decide(clock: &Clock, seed: u64) -> Probe {
    let config = ServeConfig::typical(seed);
    let mut core = ServiceCore::new(&config);
    let per_batch = config.ring_capacity as u64;
    probe(clock, REPS * 4, || {
        core.feed_mut(0).fill(usize::MAX);
        let endpoint = core.endpoint_mut(0);
        timed_loop(per_batch, |i| {
            black_box(endpoint.decide(i & 1 == 1, i & 2 == 2));
        })
    })
}

/// One SPSC ring push immediately followed by its pop.
fn handoff(clock: &Clock) -> Probe {
    let (mut tx, mut rx) = serve::ring::spsc::<DecisionSlot>(4096);
    let slot = DecisionSlot::default();
    probe(clock, REPS, || {
        timed_loop(200_000, |i| {
            tx.push(DecisionSlot { seq: i, ..slot });
            black_box(rx.pop());
        })
    })
}

/// `EndpointFeed::fill` from an empty ring: plane advance, governor and
/// slot draws per published slot. The lanes are built outside the timer.
fn pump_slot(clock: &Clock, seed: u64) -> Probe {
    let config = ServeConfig::typical(seed);
    probe(clock, REPS, || {
        let mut core = ServiceCore::new(&config);
        let t0 = Instant::now();
        let slots = core.feed_mut(0).fill(usize::MAX) as u64;
        (slots, t0.elapsed())
    })
}
