//! Statistical acceptance tests for the CHSH, Mermin, and Magic Square
//! win rates, and for `games::chsh::flipped_bits`, the one flipped-CHSH
//! sampler behind every load-balancing path.
//!
//! Every assertion here goes through `qmath::assert_prob_in!`, which
//! checks the *theoretical* win probability against the Wilson interval
//! of the observed counts at an explicit confidence level — the sample
//! size and confidence are part of the assertion, not folded into a
//! hand-tuned tolerance. Run `make test-stat` to see the accounting.

use games::chsh::{
    alice_angle, bob_angle, flipped_bits, flipped_correlation, ChshGame, ChshVariant,
    QuantumChshStrategy,
};
use games::game::{PairStrategy, TwoPlayerGame};
use proptest::prelude::*;
use qmath::assert_prob_in;
use qsim::{Party, SharedPair, WernerPair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Confidence for all acceptance intervals in this file. At n = 50 000
/// the 99.9% Wilson interval around 0.8536 is ≈ ±0.0052 — tight enough
/// to catch an angle or sign error (worth ≥ 0.02), loose enough that a
/// correct implementation passes for any reasonable seed.
const CONF: f64 = 0.999;
const ROUNDS: u64 = 50_000;

/// Plays `ROUNDS` rounds of `game` with uniform inputs and returns the
/// win count.
fn wins<S: PairStrategy>(game: &ChshGame, strategy: &mut S, rng: &mut StdRng) -> u64 {
    let mut wins = 0u64;
    for _ in 0..ROUNDS {
        let (x, y) = (usize::from(rng.gen::<bool>()), usize::from(rng.gen::<bool>()));
        let (a, b) = strategy.play(x, y, rng);
        wins += u64::from(game.wins(x, y, a, b));
    }
    wins
}

#[test]
fn ideal_chsh_hits_the_tsirelson_win_rate() {
    // cos²(π/8) = 1/2 + √2/4 ≈ 0.85355.
    let mut rng = StdRng::seed_from_u64(100);
    let game = ChshGame::standard();
    let w = wins(&game, &mut QuantumChshStrategy::ideal(), &mut rng);
    assert_prob_in!(w, ROUNDS, games::chsh_quantum_value(), conf = CONF);
}

#[test]
fn flipped_chsh_hits_the_same_value() {
    let mut rng = StdRng::seed_from_u64(101);
    let game = ChshGame::flipped();
    let w = wins(&game, &mut QuantumChshStrategy::ideal_flipped(), &mut rng);
    assert_prob_in!(w, ROUNDS, games::chsh_quantum_value(), conf = CONF);
}

#[test]
fn depolarized_pairs_hit_the_werner_closed_form() {
    // A Bell pair depolarized to visibility v (qsim::noise::werner) wins
    // CHSH with probability exactly 1/2 + v·√2/4.
    for (lane, v) in [0.9f64, 0.6].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(200 + lane as u64);
        let game = ChshGame::standard();
        let rho = qsim::noise::werner(v).expect("valid visibility");
        let mut strategy = QuantumChshStrategy::with_source(
            move || SharedPair::from_density(rho.clone()).expect("valid Werner state"),
            ChshVariant::Standard,
        );
        let w = wins(&game, &mut strategy, &mut rng);
        let expected = 0.5 + v * std::f64::consts::SQRT_2 / 4.0;
        assert_prob_in!(w, ROUNDS, expected, conf = CONF);
    }
}

#[test]
fn sub_threshold_visibility_is_significantly_below_classical() {
    // v = 0.5 < 1/√2: the upper Wilson bound must sit below 0.75, i.e.
    // the degradation is statistically significant, not just a smaller
    // point estimate.
    let mut rng = StdRng::seed_from_u64(300);
    let game = ChshGame::standard();
    let v = 0.5;
    let mut strategy = QuantumChshStrategy::with_source(
        move || SharedPair::werner(v).expect("valid visibility"),
        ChshVariant::Standard,
    );
    let w = wins(&game, &mut strategy, &mut rng);
    let check = assert_prob_in!(w, ROUNDS, 0.5 + v * std::f64::consts::SQRT_2 / 4.0, conf = CONF);
    assert!(
        check.hi < 0.75,
        "upper bound {:.4} must fall below the classical optimum (n = {ROUNDS}, conf = {CONF})",
        check.hi
    );
}

#[test]
fn mermin_kernel_hits_the_closed_form_for_three_to_eight_players() {
    // The X/Y strategy on a visibility-v GHZ state wins the Mermin game
    // with probability exactly (1 + v)/2 for EVERY player count — the
    // ISSUE-mandated pinning of the kernel win rate, n = 3..8 at
    // 99.9%/50k.
    for n in 3..=8usize {
        for (lane, v) in [1.0f64, 0.8, 0.4].into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(400 + 10 * n as u64 + lane as u64);
            let kernel = qsim::ghz::NoisyGhz::new(n, v).expect("valid visibility");
            let batch = games::multiparty::play_mermin_batch(&kernel, ROUNDS, &mut rng);
            assert_prob_in!(
                batch.wins,
                ROUNDS,
                games::multiparty::mermin_quantum_win(v),
                conf = CONF
            );
        }
    }
}

#[test]
fn mermin_kernel_beats_the_classical_bound_above_crossover() {
    // At n = 6, v = 0.6 sits well above the crossover v* = 2^{-2} = 0.25:
    // the LOWER Wilson bound must clear the classical ceiling 0.625.
    let mut rng = StdRng::seed_from_u64(500);
    let n = 6;
    let v = 0.6;
    let kernel = qsim::ghz::NoisyGhz::new(n, v).expect("valid visibility");
    let batch = games::multiparty::play_mermin_batch(&kernel, ROUNDS, &mut rng);
    let check = assert_prob_in!(
        batch.wins,
        ROUNDS,
        games::multiparty::mermin_quantum_win(v),
        conf = CONF
    );
    let bound = games::multiparty::mermin_classical_bound(n);
    assert!(
        check.lo > bound,
        "lower bound {:.4} must clear the classical ceiling {bound} (n = {ROUNDS}, conf = {CONF})",
        check.lo
    );
}

#[test]
fn magic_square_hits_its_closed_form() {
    // Two visibility-v Werner pairs win the Magic Square with probability
    // exactly 1/2 + (4v + 5v²)/18 under uniform referee questions.
    for (lane, v) in [1.0f64, 0.9, 0.5].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(600 + lane as u64);
        let game = games::magic::MagicSquare::new(v).expect("valid visibility");
        let batch = game.play_batch(ROUNDS, &mut rng);
        assert_prob_in!(batch.wins, ROUNDS, games::magic::quantum_win(v), conf = CONF);
    }
}

/// The CDF cut points of `flipped_bits(pair, x, y, ·)`: the raw outcome
/// walk's boundaries `0, (1+E)/4, 1/2, (3−E)/4, 1`.
fn cuts(pair: &WernerPair, x: usize, y: usize) -> [f64; 5] {
    let e = -flipped_correlation(pair, x, y);
    [0.0, 0.25 * (1.0 + e), 0.5, 0.5 + 0.25 * (1.0 - e), 1.0]
}

/// The sampler's exact output distribution for `(x, y)`, read off its
/// CDF intervals: `(width, bits)` per non-empty interval. Each interval's
/// bits are checked at both of its ends, so a misplaced boundary fails
/// here rather than skewing a width.
fn intervals(pair: &WernerPair, x: usize, y: usize) -> Vec<(f64, (bool, bool))> {
    cuts(pair, x, y)
        .windows(2)
        .filter(|w| w[0] < w[1])
        .map(|w| {
            let bits = flipped_bits(pair, x, y, w[0]);
            assert_eq!(
                flipped_bits(pair, x, y, w[1].next_down()),
                bits,
                "interval {w:?}"
            );
            (w[1] - w[0], bits)
        })
        .collect()
}

/// Exact probability that `flipped_bits` returns `bits` for `(x, y)`.
fn cell_probability(pair: &WernerPair, x: usize, y: usize, bits: (bool, bool)) -> f64 {
    intervals(pair, x, y)
        .into_iter()
        .filter(|&(_, b)| b == bits)
        .map(|(w, _)| w)
        .sum()
}

/// Pairs spanning the kernel's parameter box: visibility on a 0.01 grid,
/// with fresh and dephased halves.
fn pair_grid() -> Vec<WernerPair> {
    let mut pairs = Vec::new();
    for i in 0..=100 {
        for (da, db) in [(1.0, 1.0), (0.7, 0.4), (0.0, 1.0)] {
            pairs.push(WernerPair::with_dephasing(f64::from(i) / 100.0, da, db).unwrap());
        }
    }
    pairs
}

#[test]
fn flipped_bits_is_exactly_no_signaling_on_a_dense_grid() {
    // Alice's bit must be a function of (x, u) alone: Bob's input can
    // never move it, for any draw. The grid covers [0, 1) at 2⁻¹² plus
    // one ulp either side of every CDF cut.
    for pair in pair_grid() {
        for x in 0..2 {
            let mut us: Vec<f64> = (0..4096).map(|k| f64::from(k) / 4096.0).collect();
            for y in 0..2 {
                for c in &cuts(&pair, x, y)[1..4] {
                    us.extend([c.next_down(), *c, c.next_up()]);
                }
            }
            for u in us {
                assert_eq!(
                    flipped_bits(&pair, x, 0, u).0,
                    flipped_bits(&pair, x, 1, u).0,
                    "pair {pair:?}, x = {x}, u = {u}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The same no-signaling identity at arbitrary pair parameters and
    /// draws.
    #[test]
    fn flipped_bits_alice_bit_ignores_bob_input(
        v in 0.0f64..1.0,
        da in 0.0f64..1.0,
        db in 0.0f64..1.0,
        x in 0usize..2,
        u in 0.0f64..1.0)
    {
        let pair = WernerPair::with_dephasing(v, da, db).unwrap();
        prop_assert_eq!(flipped_bits(&pair, x, 0, u).0, flipped_bits(&pair, x, 1, u).0);
    }
}

#[test]
fn flipped_bits_bob_marginal_is_exactly_one_half() {
    // Bob's bit is 1 on exactly half of [0, 1) for each x (and each y),
    // summed from the CDF interval widths. Alice's likewise.
    for pair in pair_grid() {
        for x in 0..2 {
            for y in 0..2 {
                let parts = intervals(&pair, x, y);
                let bob: f64 = parts.iter().filter(|(_, b)| b.1).map(|(w, _)| w).sum();
                let alice: f64 = parts.iter().filter(|(_, b)| b.0).map(|(w, _)| w).sum();
                assert!((bob - 0.5).abs() < 1e-12, "{pair:?} ({x},{y}): Bob {bob}");
                assert!(
                    (alice - 0.5).abs() < 1e-12,
                    "{pair:?} ({x},{y}): Alice {alice}"
                );
            }
        }
    }
}

#[test]
fn flipped_bits_colocates_at_half_plus_minus_v_sqrt2_over_4() {
    // §4.1: the pair co-locates (equal bits) with probability
    // 1/2 + v√2/4 when both tasks are type-C and 1/2 − v√2/4 otherwise.
    // n = 50 000 uniform draws per (v, x, y) at 99.9%.
    for (lane, v) in [1.0f64, 0.8, 0.5].into_iter().enumerate() {
        let pair = WernerPair::new(v).unwrap();
        for (x, y) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let mut rng = StdRng::seed_from_u64(700 + 10 * lane as u64 + 2 * x as u64 + y as u64);
            let colocated = (0..ROUNDS)
                .filter(|_| {
                    let (a, b) = flipped_bits(&pair, x, y, rng.gen());
                    a == b
                })
                .count();
            let sign = if x == 1 && y == 1 { 1.0 } else { -1.0 };
            let expected = 0.5 + sign * v * std::f64::consts::SQRT_2 / 4.0;
            assert_prob_in!(colocated, ROUNDS, expected, conf = CONF);
        }
    }
}

#[test]
fn exact_simulation_matches_fast_sampling() {
    // The density-matrix oracle (a Werner state measured qubit by qubit
    // at the CHSH angles, Bob's outcome flipped) must hit every one of
    // flipped_bits' exact cell probabilities. n = 10 000 oracle rounds
    // per (v, x, y), each cell at 99.9%.
    const ORACLE_ROUNDS: u64 = 10_000;
    for (lane, v) in [1.0f64, 0.8].into_iter().enumerate() {
        let pair = WernerPair::new(v).unwrap();
        for (x, y) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let mut rng = StdRng::seed_from_u64(800 + 10 * lane as u64 + 2 * x as u64 + y as u64);
            let mut counts = [0u64; 4];
            for _ in 0..ORACLE_ROUNDS {
                let mut oracle = SharedPair::werner(v).expect("valid visibility");
                let a = oracle
                    .measure_angle(Party::A, alice_angle(x), &mut rng)
                    .unwrap();
                let b = oracle
                    .measure_angle(Party::B, bob_angle(y), &mut rng)
                    .unwrap();
                // §4.1: Alice keeps her outcome, Bob negates his.
                let (a, b) = (a == 1, b == 0);
                counts[(usize::from(a) << 1) | usize::from(b)] += 1;
            }
            for (cell, &count) in counts.iter().enumerate() {
                let bits = (cell & 2 != 0, cell & 1 != 0);
                let p = cell_probability(&pair, x, y, bits);
                assert_prob_in!(count, ORACLE_ROUNDS, p, conf = CONF);
            }
        }
    }
}
