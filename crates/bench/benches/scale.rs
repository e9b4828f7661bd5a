//! Bench: the sharded SoA engine ablation (DESIGN.md §5).
//!
//! Three arms at 10⁵ servers, load 1.2, quantum strategy:
//!
//! - `aos`: the array-of-structs `Vec<Server>` loop
//!   (`sim::run_simulation`) — the seed implementation's shape.
//! - `soa_single`: the sharded engine pinned to one shard, one worker —
//!   isolates the data-layout win (SoA lanes, closed-form kernels,
//!   per-pair streams) from parallelism.
//! - `soa_sharded`: the sharded engine at its default shard count,
//!   one worker (this container is single-core; multi-core numbers are
//!   reported in DESIGN.md §5) — adds the epoch/mailbox machinery.
//!
//! The PR acceptance line is `soa_single ≥ 3× aos` in tasks/second at
//! 10⁵ servers on one core. A fourth pair of arms measures the obs
//! overhead (satellite: hoisted per-run flushes must cost < 2%).
//!
//! Run with `make bench-scale`. The smaller 10⁴ AoS point keeps the
//! default criterion budget tolerable; 10⁵ AoS is measured with a
//! reduced sample count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use loadbalance::server::Discipline;
use loadbalance::shard::{default_shards, run_scaled, ScaleConfig, ScaleStrategy};
use loadbalance::sim::{run_simulation, SimConfig};
use loadbalance::strategy::Strategy;
use loadbalance::task::{ArrivalModel, BernoulliWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const LOAD: f64 = 1.2;
const STEPS: u64 = 100;

fn sim_config(n_servers: usize) -> SimConfig {
    SimConfig {
        n_balancers: (n_servers as f64 * LOAD).round() as usize,
        n_servers,
        timesteps: STEPS,
        warmup: STEPS / 4,
        discipline: Discipline::PaperPairedC,
    }
}

fn scale_config(n_servers: usize, shards: usize) -> ScaleConfig {
    let mut cfg = ScaleConfig::new(sim_config(n_servers), ArrivalModel::paper());
    cfg.shards = shards;
    cfg.threads = 1;
    cfg
}

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("lb_scale_100_steps");
    group.sample_size(10);

    for n in [10_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::new("aos", n), &n, |b, &n| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                let mut w = BernoulliWorkload::paper();
                black_box(run_simulation(
                    sim_config(n),
                    Strategy::quantum_ideal(),
                    &mut w,
                    &mut rng,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("soa_single", n), &n, |b, &n| {
            let cfg = scale_config(n, 1);
            b.iter(|| black_box(run_scaled(&cfg, ScaleStrategy::quantum_ideal(), 1).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("soa_sharded", n), &n, |b, &n| {
            let cfg = scale_config(n, default_shards(n).max(4));
            b.iter(|| black_box(run_scaled(&cfg, ScaleStrategy::quantum_ideal(), 1).unwrap()))
        });
    }

    // Obs overhead: the sharded engine with the global obs registry
    // enabled vs disabled. Flushes are per-run, so the gap must be noise
    // (< 2% is the satellite acceptance line; asserted in CI via the
    // smoke arm, measured precisely here).
    let cfg = scale_config(100_000, default_shards(100_000));
    group.bench_function("soa_obs_on", |b| {
        obs::set_enabled(true);
        b.iter(|| black_box(run_scaled(&cfg, ScaleStrategy::quantum_ideal(), 2).unwrap()));
    });
    group.bench_function("soa_obs_off", |b| {
        obs::set_enabled(false);
        b.iter(|| black_box(run_scaled(&cfg, ScaleStrategy::quantum_ideal(), 2).unwrap()));
        obs::set_enabled(true);
    });

    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
