//! The Figure 4 simulation loop.
//!
//! "At each timestep, each load balancer receives either a type-C or
//! type-E request with equal probability. They forward it to a server
//! according to its load balancing algorithm. Servers can simultaneously
//! process two type-C requests first, followed by type-E requests, which
//! are executed one at a time. We measure average queue length as a
//! function of system load, quantified by the ratio N/M."

use crate::error::SimError;
use crate::metrics::{SimResult, WaitReservoir, WAIT_RESERVOIR_SEED};
use crate::server::{Discipline, Server};
use crate::strategy::Strategy;
use crate::task::{Task, TaskType, Workload};
use rand::Rng;

/// Maximum length of [`SimResult::queue_len_series`]: the measurement
/// period is split into this many equal windows.
pub const QUEUE_SERIES_WINDOWS: usize = 32;

/// Simulation runs completed.
pub(crate) static SIM_RUNS: obs::LazyCounter = obs::LazyCounter::new("lb.sim.runs");
/// Timesteps simulated (warmup included).
pub(crate) static SIM_STEPS: obs::LazyCounter = obs::LazyCounter::new("lb.sim.steps");
/// Tasks routed through a strategy's `assign_all`, across all runs —
/// the numerator of the artifact `perf.tasks_per_sec` throughput.
/// Flushed once per run (hoisted out of the step loop).
pub(crate) static TASKS_ASSIGNED: obs::LazyCounter = obs::LazyCounter::new("lb.tasks.assigned");
/// Total queue length across servers, accumulated per measured timestep
/// but flushed per measurement window (one sample per series window), so
/// the hot loop carries no obs traffic. The histogram *sum* is unchanged
/// from the historical per-step recording: total queue·steps.
pub(crate) static QUEUE_TOTAL: obs::LazyHist = obs::LazyHist::new("lb.queue.total");
/// CC pair-rounds that co-located / all CC pair-rounds.
pub(crate) static CC_COLOCATED: obs::LazyCounter = obs::LazyCounter::new("lb.pairs.cc_colocated");
pub(crate) static CC_ROUNDS: obs::LazyCounter = obs::LazyCounter::new("lb.pairs.cc_rounds");
/// Non-CC pair-rounds that split / all non-CC pair-rounds.
pub(crate) static OTHER_SPLIT: obs::LazyCounter = obs::LazyCounter::new("lb.pairs.other_split");
pub(crate) static OTHER_ROUNDS: obs::LazyCounter = obs::LazyCounter::new("lb.pairs.other_rounds");

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of load balancers N (the paper's figure uses 100).
    pub n_balancers: usize,
    /// Number of servers M.
    pub n_servers: usize,
    /// Measured timesteps (after warmup).
    pub timesteps: u64,
    /// Warmup timesteps excluded from statistics.
    pub warmup: u64,
    /// Server queue discipline.
    pub discipline: Discipline,
}

impl SimConfig {
    /// The paper's setup at a given load: N = 100 balancers,
    /// M = ⌈N/load⌉ servers, paper discipline.
    ///
    /// # Panics
    /// Panics if `load` is not positive or implies fewer than 2 servers;
    /// [`SimConfig::paper_checked`] is the non-panicking variant.
    pub fn paper(load: f64) -> Self {
        match Self::paper_checked(load) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// The paper's setup at a given load, with a typed error instead of a
    /// panic: rejects non-positive/non-finite loads and loads implying
    /// fewer than 2 servers (a paired strategy could never split).
    pub fn paper_checked(load: f64) -> Result<Self, SimError> {
        if !load.is_finite() || load <= 0.0 {
            return Err(SimError::BadLoad { load });
        }
        let n_balancers = 100;
        let n_servers = (n_balancers as f64 / load).round() as usize;
        if n_servers < 2 {
            return Err(SimError::TooFewServers { n_servers, min: 2 });
        }
        let config = SimConfig {
            n_balancers,
            n_servers,
            timesteps: 2_000,
            warmup: 500,
            discipline: Discipline::PaperPairedC,
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks the configuration is simulatable: at least one balancer,
    /// server, and measured timestep, and a total horizon
    /// `warmup + timesteps` that does not overflow the u64 step counter
    /// (checked, so it is safe at u64 extremes).
    pub fn validate(&self) -> Result<(), SimError> {
        if self.n_balancers == 0 {
            return Err(SimError::NoBalancers);
        }
        if self.n_servers == 0 {
            return Err(SimError::TooFewServers {
                n_servers: 0,
                min: 1,
            });
        }
        if self.timesteps == 0 {
            return Err(SimError::NoTimesteps);
        }
        if self.warmup.checked_add(self.timesteps).is_none() {
            return Err(SimError::HorizonOverflow {
                warmup: self.warmup,
                timesteps: self.timesteps,
            });
        }
        Ok(())
    }

    /// The realized load ratio N/M.
    pub fn load(&self) -> f64 {
        self.n_balancers as f64 / self.n_servers as f64
    }
}

/// Runs one simulation and returns aggregate metrics.
///
/// ```
/// use loadbalance::{run_simulation, SimConfig, Strategy};
/// use loadbalance::task::BernoulliWorkload;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let result = run_simulation(
///     SimConfig::paper(1.0),
///     Strategy::quantum_ideal(),
///     &mut BernoulliWorkload::paper(),
///     &mut rng,
/// );
/// assert!(result.avg_queue_len < 5.0); // stable at load 1.0
/// ```
///
/// # Panics
/// Panics on degenerate configurations (no balancers/servers/steps);
/// [`try_run_simulation`] is the non-panicking variant.
pub fn run_simulation<W, R>(
    config: SimConfig,
    strategy: Strategy,
    workload: &mut W,
    rng: &mut R,
) -> SimResult
where
    W: Workload + ?Sized,
    R: Rng,
{
    match try_run_simulation(config, strategy, workload, rng) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Like [`run_simulation`], but rejects degenerate configurations with a
/// typed [`SimError`] instead of panicking mid-run.
pub fn try_run_simulation<W, R>(
    config: SimConfig,
    strategy: Strategy,
    workload: &mut W,
    rng: &mut R,
) -> Result<SimResult, SimError>
where
    W: Workload + ?Sized,
    R: Rng,
{
    config.validate()?;
    let mut strat = strategy.build(config.n_servers);
    try_run_simulation_with(config, strat.as_mut(), workload, rng)
}

/// Like [`run_simulation`], but takes an already-built (possibly
/// stateful) strategy — required for strategies that own simulation
/// state of their own, such as
/// [`crate::pipeline::PipelinePairedQuantum`], which carries a live
/// entanglement-distribution pipeline.
///
/// # Panics
/// Panics on degenerate configurations (no balancers/servers/steps);
/// [`try_run_simulation_with`] is the non-panicking variant.
pub fn run_simulation_with<W, R>(
    config: SimConfig,
    strat: &mut dyn crate::strategy::AssignmentStrategy,
    workload: &mut W,
    rng: &mut R,
) -> SimResult
where
    W: Workload + ?Sized,
    R: Rng,
{
    match try_run_simulation_with(config, strat, workload, rng) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Like [`run_simulation_with`], but rejects degenerate configurations
/// with a typed [`SimError`] instead of panicking mid-run.
///
/// This is the compatibility path: a `Vec<Server>` advanced one timestep
/// at a time, drawing arrivals and assignments from the caller's
/// generator in a fixed order (every task's arrival, then the strategy's
/// draws), so a `(config, strategy, workload, seed)` always gives the same
/// trajectory. It accepts any [`crate::strategy::AssignmentStrategy`],
/// stateful ones included. The sharded structure-of-arrays engine for
/// scale runs lives in [`crate::shard`]; it owns per-pair sub-streams, so
/// its trajectories differ from this loop's draw for draw.
pub fn try_run_simulation_with<W, R>(
    config: SimConfig,
    strat: &mut dyn crate::strategy::AssignmentStrategy,
    workload: &mut W,
    rng: &mut R,
) -> Result<SimResult, SimError>
where
    W: Workload + ?Sized,
    R: Rng,
{
    config.validate()?;
    let mut servers: Vec<Server> = (0..config.n_servers)
        .map(|i| Server::with_id(config.discipline, i as u64))
        .collect();
    let paired = strat.name().starts_with("paired");

    let total_steps = config.warmup + config.timesteps;
    let mut queue_len_sum = 0u64;
    let mut max_queue = 0usize;
    let mut generated = 0u64;
    let mut served_before_window = 0u64;
    let mut wait_before_window = 0u64;

    // Pair-level coordination stats.
    let mut cc_rounds = 0u64;
    let mut cc_colocated = 0u64;
    let mut other_rounds = 0u64;
    let mut other_split = 0u64;

    let mut tasks: Vec<TaskType> = Vec::with_capacity(config.n_balancers);
    let mut queue_lens: Vec<usize> = vec![0; config.n_servers];

    // Per-window queue-length accumulators for the time series.
    let windows = QUEUE_SERIES_WINDOWS.min(config.timesteps as usize);
    let mut win_queue_sum = vec![0u64; windows];
    let mut win_samples = vec![0u64; windows];

    for t in 0..total_steps {
        if t == config.warmup {
            served_before_window = servers.iter().map(|s| s.served).sum();
            wait_before_window = servers.iter().map(|s| s.total_wait).sum();
            for s in servers.iter_mut() {
                s.waits.clear();
            }
        }
        workload.on_step(t);
        tasks.clear();
        for _ in 0..config.n_balancers {
            tasks.push(workload.next_task(rng));
        }
        for (len, s) in queue_lens.iter_mut().zip(&servers) {
            *len = s.queue_len();
        }
        let assignment = strat.assign_all(&tasks, &queue_lens, rng);
        debug_assert_eq!(assignment.len(), tasks.len());

        for (i, &srv) in assignment.iter().enumerate() {
            servers[srv].enqueue(Task {
                ty: tasks[i],
                enqueued_at: t,
            });
        }
        for s in servers.iter_mut() {
            s.step(t);
        }

        if t >= config.warmup {
            generated += config.n_balancers as u64;
            let mut step_total = 0u64;
            for s in &servers {
                let q = s.queue_len();
                queue_len_sum += q as u64;
                step_total += q as u64;
                max_queue = max_queue.max(q);
            }
            let w = ((t - config.warmup) as usize * windows) / config.timesteps as usize;
            win_queue_sum[w] += step_total;
            win_samples[w] += config.n_servers as u64;
            if paired {
                let mut i = 0;
                while i + 1 < tasks.len() {
                    let both_c = tasks[i].is_colocate() && tasks[i + 1].is_colocate();
                    let same = assignment[i] == assignment[i + 1];
                    if both_c {
                        cc_rounds += 1;
                        cc_colocated += u64::from(same);
                    } else {
                        other_rounds += 1;
                        other_split += u64::from(!same);
                    }
                    i += 2;
                }
            }
        }
    }

    // Global bottom-R over the union of the per-server reservoirs — the
    // same surviving set one flat reservoir over every sample would keep.
    let mut waits = WaitReservoir::new(WAIT_RESERVOIR_SEED);
    for s in &servers {
        waits.merge(&s.waits);
    }
    let wait_samples = waits.sorted_waits();
    let served: u64 = servers.iter().map(|s| s.served).sum::<u64>() - served_before_window;
    let total_wait: u64 =
        servers.iter().map(|s| s.total_wait).sum::<u64>() - wait_before_window;
    let samples = config.timesteps * config.n_servers as u64;

    // Obs flushes, hoisted out of the step loop: counters once per run,
    // the queue histogram once per series window (sum unchanged from the
    // historical per-step recording).
    SIM_RUNS.inc();
    SIM_STEPS.add(total_steps);
    TASKS_ASSIGNED.add(config.n_balancers as u64 * total_steps);
    for &w in &win_queue_sum {
        QUEUE_TOTAL.record(w);
    }
    CC_ROUNDS.add(cc_rounds);
    CC_COLOCATED.add(cc_colocated);
    OTHER_ROUNDS.add(other_rounds);
    OTHER_SPLIT.add(other_split);

    let queue_len_series: Vec<f64> = win_queue_sum
        .iter()
        .zip(&win_samples)
        .filter(|(_, &n)| n > 0)
        .map(|(&s, &n)| s as f64 / n as f64)
        .collect();

    Ok(SimResult {
        strategy: strat.name(),
        load: config.load(),
        avg_queue_len: queue_len_sum as f64 / samples as f64,
        avg_wait: if served > 0 {
            total_wait as f64 / served as f64
        } else {
            f64::NAN
        },
        p50_wait: crate::metrics::percentile(&wait_samples, 0.5),
        p99_wait: crate::metrics::percentile(&wait_samples, 0.99),
        max_queue_len: max_queue,
        served,
        generated,
        cc_colocation_rate: if cc_rounds > 0 {
            cc_colocated as f64 / cc_rounds as f64
        } else {
            f64::NAN
        },
        split_rate: if other_rounds > 0 {
            other_split as f64 / other_rounds as f64
        } else {
            f64::NAN
        },
        cc_rounds,
        cc_colocated,
        other_rounds,
        other_split,
        queue_len_series,
    })
}

/// Sweeps the load axis of Figure 4 for one strategy, returning
/// `(load, avg_queue_len)` points.
///
/// Points run concurrently on the shared pool, each on a seed stream
/// derived from one draw on `rng` — the result depends only on the
/// caller's RNG state, never on the worker count.
pub fn load_sweep<R: Rng>(
    strategy: Strategy,
    loads: &[f64],
    rng: &mut R,
) -> Vec<(f64, f64)> {
    let master = rng.next_u64();
    runtime::par_sweep(master, loads, |_, &load, rng| {
        let _span = obs::span!("sweep.point");
        let config = SimConfig::paper(load);
        let mut workload = crate::task::BernoulliWorkload::paper();
        let r = run_simulation(config, strategy, &mut workload, rng);
        (load, r.avg_queue_len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::BernoulliWorkload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick(load: f64) -> SimConfig {
        SimConfig {
            n_balancers: 40,
            n_servers: (40.0 / load).round() as usize,
            timesteps: 600,
            warmup: 200,
            discipline: Discipline::PaperPairedC,
        }
    }

    #[test]
    fn low_load_queues_stay_short() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = run_simulation(
            quick(0.5),
            Strategy::UniformRandom,
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        assert!(r.avg_queue_len < 1.0, "avg queue {}", r.avg_queue_len);
        assert!(!r.is_saturated());
    }

    #[test]
    fn overload_saturates() {
        let mut rng = StdRng::seed_from_u64(2);
        // Load 2.0: even all-C traffic (capacity 2/step) can't keep up
        // once E tasks are in the mix.
        let r = run_simulation(
            quick(2.0),
            Strategy::UniformRandom,
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        assert!(r.avg_queue_len > 5.0, "avg queue {}", r.avg_queue_len);
    }

    #[test]
    fn quantum_beats_classical_at_moderate_load() {
        // The headline claim (Figure 4): near the classical knee, the
        // quantum strategy has strictly shorter queues.
        let mut rng = StdRng::seed_from_u64(3);
        let load = 1.2;
        let classical = run_simulation(
            quick(load),
            Strategy::UniformRandom,
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        let quantum = run_simulation(
            quick(load),
            Strategy::quantum_ideal(),
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        assert!(
            quantum.avg_queue_len < classical.avg_queue_len,
            "quantum {} vs classical {}",
            quantum.avg_queue_len,
            classical.avg_queue_len
        );
    }

    #[test]
    fn quantum_beats_best_classical_pairing() {
        let mut rng = StdRng::seed_from_u64(4);
        let load = 1.2;
        let split = run_simulation(
            quick(load),
            Strategy::PairedAlwaysSplit,
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        let quantum = run_simulation(
            quick(load),
            Strategy::quantum_ideal(),
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        assert!(
            quantum.avg_queue_len < split.avg_queue_len,
            "quantum {} vs always-split {}",
            quantum.avg_queue_len,
            split.avg_queue_len
        );
    }

    #[test]
    fn pair_stats_match_chsh_rates() {
        let mut rng = StdRng::seed_from_u64(5);
        let r = run_simulation(
            quick(1.0),
            Strategy::quantum_ideal(),
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        let expect = games::chsh_quantum_value();
        assert!(
            (r.cc_colocation_rate - expect).abs() < 0.02,
            "CC co-location {} vs {expect}",
            r.cc_colocation_rate
        );
        assert!(
            (r.split_rate - expect).abs() < 0.02,
            "split rate {} vs {expect}",
            r.split_rate
        );
    }

    #[test]
    fn queue_series_and_raw_counts_are_consistent() {
        let mut rng = StdRng::seed_from_u64(9);
        let r = run_simulation(
            quick(1.0),
            Strategy::quantum_ideal(),
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        assert_eq!(r.queue_len_series.len(), QUEUE_SERIES_WINDOWS);
        // Window means aggregate to (approximately — windows differ by at
        // most one step in width) the overall mean.
        let series_mean =
            r.queue_len_series.iter().sum::<f64>() / r.queue_len_series.len() as f64;
        assert!(
            (series_mean - r.avg_queue_len).abs() < 0.05 * r.avg_queue_len.max(1.0),
            "series mean {series_mean} vs avg {}",
            r.avg_queue_len
        );
        // The published rates are exactly the raw-count ratios.
        assert!(r.cc_rounds > 0);
        assert_eq!(
            r.cc_colocation_rate,
            r.cc_colocated as f64 / r.cc_rounds as f64
        );
        assert_eq!(r.split_rate, r.other_split as f64 / r.other_rounds as f64);
    }

    #[test]
    fn unpaired_strategies_report_nan_pair_stats() {
        let mut rng = StdRng::seed_from_u64(6);
        let r = run_simulation(
            quick(1.0),
            Strategy::UniformRandom,
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        assert!(r.cc_colocation_rate.is_nan());
        assert!(r.split_rate.is_nan());
    }

    #[test]
    fn conservation_served_le_generated() {
        let mut rng = StdRng::seed_from_u64(7);
        let r = run_simulation(
            quick(1.4),
            Strategy::UniformRandom,
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        // Within the window, served can exceed generated only by draining
        // warmup backlog; at saturating load it must lag.
        assert!(r.generated > 0);
        assert!(r.served > 0);
    }

    #[test]
    fn load_sweep_is_monotone_ish() {
        let mut rng = StdRng::seed_from_u64(8);
        let pts = load_sweep(Strategy::UniformRandom, &[0.5, 1.0, 1.6], &mut rng);
        assert_eq!(pts.len(), 3);
        assert!(pts[0].1 < pts[2].1, "queues grow with load: {pts:?}");
    }

    #[test]
    fn paper_config_realizes_requested_load() {
        let c = SimConfig::paper(1.25);
        assert_eq!(c.n_balancers, 100);
        assert_eq!(c.n_servers, 80);
        assert!((c.load() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn checked_constructors_reject_degenerate_configs() {
        use crate::error::SimError;
        assert_eq!(
            SimConfig::paper_checked(0.0).unwrap_err(),
            SimError::BadLoad { load: 0.0 }
        );
        assert!(matches!(
            SimConfig::paper_checked(f64::NAN).unwrap_err(),
            SimError::BadLoad { .. }
        ));
        assert!(matches!(
            SimConfig::paper_checked(f64::INFINITY).unwrap_err(),
            SimError::BadLoad { .. }
        ));
        assert_eq!(
            SimConfig::paper_checked(100.0).unwrap_err(),
            SimError::TooFewServers {
                n_servers: 1,
                min: 2
            }
        );
        assert!(SimConfig::paper_checked(1.2).is_ok());
    }

    #[test]
    fn validate_is_overflow_safe_at_u64_extremes() {
        use crate::error::SimError;
        let mut c = SimConfig::paper(1.0);
        c.warmup = u64::MAX;
        // warmup + timesteps would wrap; checked validation reports it.
        assert_eq!(
            c.validate().unwrap_err(),
            SimError::HorizonOverflow {
                warmup: u64::MAX,
                timesteps: c.timesteps
            }
        );
        c.warmup = u64::MAX - c.timesteps;
        assert!(c.validate().is_ok(), "exact fit must not be rejected");
    }

    #[test]
    fn try_run_returns_typed_error_instead_of_panicking() {
        use crate::error::SimError;
        let mut c = SimConfig::paper(1.0);
        c.n_servers = 0;
        let mut rng = StdRng::seed_from_u64(1);
        let err = try_run_simulation(
            c,
            Strategy::UniformRandom,
            &mut BernoulliWorkload::paper(),
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::TooFewServers {
                n_servers: 0,
                min: 1
            }
        );
    }
    #[test]
    fn reservoir_percentiles_are_exact_on_small_runs() {
        // Below the reservoir capacity (8192 samples) the bounded reservoir
        // keeps every wait, so percentiles are exactly the full-population
        // percentiles the unbounded seed implementation reported.
        let config = SimConfig {
            n_balancers: 8,
            n_servers: 7,
            timesteps: 400,
            warmup: 100,
            discipline: Discipline::PaperPairedC,
        };
        // 8 balancers x 400 steps = 3200 window tasks at most: under cap.
        let mut rng = StdRng::seed_from_u64(99);
        let r = run_simulation(
            config,
            Strategy::quantum_ideal(),
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        assert!(r.served <= 8192, "test must stay below reservoir capacity");
        assert!(r.p50_wait <= r.p99_wait);
        assert!(r.p99_wait <= r.max_queue_len as f64 * config.warmup as f64 + r.served as f64);
    }

    #[test]
    fn on_step_hook_draws_nothing() {
        // A workload that uses on_step (diurnal) must still leave the rng
        // stream identical to an equivalent stateless workload making the
        // same number of draws.
        use crate::task::DiurnalWorkload;
        let config = SimConfig {
            n_balancers: 6,
            n_servers: 6,
            timesteps: 100,
            warmup: 20,
            discipline: Discipline::PaperPairedC,
        };
        // At zero amplitude the period is irrelevant — two generators with
        // different periods must produce identical trajectories, which they
        // only can if `on_step` consumes no randomness and the phase clock
        // never leaks into the draw sequence.
        let mut flat_a = DiurnalWorkload::new(0.5, 0.0, 50);
        let mut flat_b = DiurnalWorkload::new(0.5, 0.0, 13);
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let a = run_simulation(config, Strategy::quantum_ideal(), &mut flat_a, &mut rng_a);
        let b = run_simulation(config, Strategy::quantum_ideal(), &mut flat_b, &mut rng_b);
        // NaN-tolerant equality: `SimResult` holds NaN rates for unpaired
        // strategies, and NaN != NaN under `PartialEq`.
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "diurnal(amp=0) period independence"
        );
        let _ = Workload::name(&flat_a);
    }
}

#[cfg(test)]
mod delay_metric_tests {
    use super::*;
    use crate::task::BernoulliWorkload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn wait_percentiles_are_ordered_and_quantum_improves_them() {
        let config = SimConfig {
            n_balancers: 40,
            n_servers: 36, // load ≈ 1.11
            timesteps: 800,
            warmup: 200,
            discipline: Discipline::PaperPairedC,
        };
        // A single replicate's p99 at this budget has seed-level spread
        // comparable to the effect, so compare tails averaged over seeds.
        let run_arm = |strategy: Strategy, lane: u64| -> Vec<SimResult> {
            (0..4)
                .map(|r| {
                    let mut rng = StdRng::seed_from_u64(5 + lane * 100 + r);
                    run_simulation(config, strategy, &mut BernoulliWorkload::paper(), &mut rng)
                })
                .collect()
        };
        let classical = run_arm(Strategy::UniformRandom, 0);
        let quantum = run_arm(Strategy::quantum_ideal(), 1);
        for r in classical.iter().chain(&quantum) {
            assert!(r.p50_wait >= 0.0);
            assert!(r.p99_wait >= r.p50_wait, "{}: p99 < p50", r.strategy);
            assert!(r.avg_wait.is_finite());
        }
        // The paper's Figure 4 caption is about queuing delay: quantum
        // must improve the tail, not just the mean queue length.
        let mean_p99 = |rs: &[SimResult]| rs.iter().map(|r| r.p99_wait).sum::<f64>() / rs.len() as f64;
        let (cp, qp) = (mean_p99(&classical), mean_p99(&quantum));
        assert!(qp <= cp, "quantum mean p99 {qp} vs classical {cp}");
    }
}
