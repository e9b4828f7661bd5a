//! Ablation bench: sampling one correlated CHSH decision.
//!
//! DESIGN.md design-choice #3: the load-balancing paths sample correlated
//! decisions from the closed-form Werner joint distribution
//! (`games::chsh::flipped_bits`) instead of simulating the 2-qubit
//! measurement each round. This bench quantifies the speedup that
//! justifies the fast path against the density-matrix oracles, and
//! times the XOR-game `games::CorrelationBox` sampler beside it (their
//! statistical equivalence with the oracle is asserted by
//! `games/tests/stat_acceptance.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use games::chsh::{alice_angle, bob_angle, flipped_bits};
use games::CorrelationBox;
use qsim::{Party, SharedPair, WernerPair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_chsh_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("chsh_round");

    group.bench_function("exact_statevector", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let mut pair = SharedPair::ideal();
            let a = pair
                .measure_angle(Party::A, alice_angle(1), &mut rng)
                .expect("fresh pair");
            let bb = pair
                .measure_angle(Party::B, bob_angle(0), &mut rng)
                .expect("fresh pair");
            black_box((a, bb))
        })
    });

    group.bench_function("exact_werner_density", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| {
            let mut pair = SharedPair::werner(0.95).expect("valid visibility");
            let a = pair
                .measure_angle(Party::A, alice_angle(1), &mut rng)
                .expect("fresh pair");
            let bb = pair
                .measure_angle(Party::B, bob_angle(0), &mut rng)
                .expect("fresh pair");
            black_box((a, bb))
        })
    });

    group.bench_function("fast_correlation_box", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        let boxx = CorrelationBox::chsh_optimal();
        b.iter(|| black_box(boxx.sample(1, 0, &mut rng)))
    });

    group.bench_function("flipped_bits", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let pair = WernerPair::ideal();
        b.iter(|| black_box(flipped_bits(&pair, 1, 0, rng.gen())))
    });

    group.finish();
}

criterion_group!(benches, bench_chsh_round);
criterion_main!(benches);
