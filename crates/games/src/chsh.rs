//! The CHSH game and its optimal strategies.
//!
//! §2 of the paper: the referee sends uniformly random bits `x`, `y`;
//! the players answer with bits `a`, `b`, and win iff `a ⊕ b = x ∧ y`.
//! The best classical strategy (always answer 0) wins with probability
//! 0.75; sharing a Bell pair and measuring in the angles below wins with
//! `cos²(π/8) ≈ 0.8536` — the Tsirelson optimum.
//!
//! For the load-balancing application (§4.1) the paper flips one party's
//! output so the pair implements `a ⊕ b = ¬(x ∧ y)`: co-locate (equal
//! outputs) exactly when both tasks are type-C (`x = y = 1`). Both
//! variants are provided, and [`flipped_bits`] is the one sampler every
//! load-balancing path (sim, shard, pipeline, serve) draws its placement
//! bits from.

use crate::game::{PairStrategy, TwoPlayerGame};
use qsim::werner::joint_outcome;
use qsim::{Party, SharedPair, WernerPair};
use rand::Rng;

/// Which win condition the game uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChshVariant {
    /// Win iff `a ⊕ b = x ∧ y` (the standard CHSH game).
    Standard,
    /// Win iff `a ⊕ b = ¬(x ∧ y)` (the load-balancing mapping: outputs
    /// should *match* — same server — only when both inputs are 1/type-C).
    Flipped,
}

/// The CHSH game with uniform inputs.
#[derive(Debug, Clone, Copy)]
pub struct ChshGame {
    variant: ChshVariant,
}

impl ChshGame {
    /// The standard CHSH game.
    pub fn standard() -> Self {
        ChshGame {
            variant: ChshVariant::Standard,
        }
    }

    /// The flipped (load-balancing) variant.
    pub fn flipped() -> Self {
        ChshGame {
            variant: ChshVariant::Flipped,
        }
    }

    /// Which variant this game is.
    pub fn variant(&self) -> ChshVariant {
        self.variant
    }
}

impl TwoPlayerGame for ChshGame {
    fn n_inputs_a(&self) -> usize {
        2
    }
    fn n_inputs_b(&self) -> usize {
        2
    }
    fn input_probability(&self, _x: usize, _y: usize) -> f64 {
        0.25
    }
    fn wins(&self, x: usize, y: usize, a: bool, b: bool) -> bool {
        let target = (x == 1) && (y == 1);
        match self.variant {
            ChshVariant::Standard => (a ^ b) == target,
            ChshVariant::Flipped => (a ^ b) != target,
        }
    }
}

/// Alice's optimal measurement angles, indexed by her input bit:
/// `θ_A(0) = 0`, `θ_A(1) = π/4` (paper §2).
pub fn alice_angle(x: usize) -> f64 {
    match x {
        0 => 0.0,
        _ => std::f64::consts::FRAC_PI_4,
    }
}

/// Bob's optimal measurement angles, indexed by his input bit:
/// `θ_B(0) = π/8`, `θ_B(1) = −π/8` (paper §2).
pub fn bob_angle(y: usize) -> f64 {
    match y {
        0 => std::f64::consts::FRAC_PI_8,
        _ => -std::f64::consts::FRAC_PI_8,
    }
}

/// `(sin 2θ, cos 2θ)` of the optimal angles, indexed `[party][input]`
/// (party 0 is Alice, 1 is Bob): the exact values `f64::sin_cos` returns
/// for `2·alice_angle(x)` and `2·bob_angle(y)`, pinned bit for bit by a
/// unit test. Constants, so no sampler pays for trig per pair or per
/// round.
const DOUBLED_ANGLE_TRIG: [[(f64, f64); 2]; 2] = {
    // sin(π/4) rounds one ulp below cos(π/4) = 1/√2.
    const SIN_PI_4: f64 = f64::from_bits(0x3fe6_a09e_667f_3bcc);
    const COS_PI_4: f64 = std::f64::consts::FRAC_1_SQRT_2;
    // cos of the f64 nearest π/2.
    const COS_PI_2: f64 = f64::from_bits(0x3c91_a626_3314_5c07);
    [
        [(0.0, 1.0), (1.0, COS_PI_2)],
        [(SIN_PI_4, COS_PI_4), (-SIN_PI_4, COS_PI_4)],
    ]
};

/// The ±1 correlation of `pair`'s raw outcomes at the optimal angles for
/// inputs `(x, y)`: bit-for-bit
/// `pair.correlation(alice_angle(x), bob_angle(y))`.
#[inline]
fn raw_correlation(pair: &WernerPair, x: usize, y: usize) -> f64 {
    let [alice, bob] = &DOUBLED_ANGLE_TRIG;
    pair.correlation_trig(alice[usize::from(x != 0)], bob[usize::from(y != 0)])
}

/// The §4.1 flip: turns raw outcomes `(a, b)` into placement bits
/// (true → the second candidate server). Alice keeps her bit, Bob negates
/// his, so the bits match (co-locate) exactly when `a ⊕ b = 1` — which the
/// optimal angles make likely only for `x = y = 1`.
#[inline]
pub fn flip(a: u8, b: u8) -> (bool, bool) {
    (a == 1, b == 0)
}

/// The correlation `E[(−1)^{a⊕b} | x, y]` of the *placement* bits
/// [`flipped_bits`] samples: `+v/√2` for `x = y = 1` and `−v/√2`
/// otherwise, for a visibility-`v` pair. Dephasing retentions `da·db`
/// further scale Alice's `x = 1` row, whose basis is off the Z axis.
pub fn flipped_correlation(pair: &WernerPair, x: usize, y: usize) -> f64 {
    -raw_correlation(pair, x, y)
}

/// One flipped-CHSH round on `pair` for inputs `(x, y)`: maps a single
/// uniform draw `u ∈ [0, 1)` to both placement bits. The pair co-locates
/// iff the bits are equal, with probability `(1 + C)/2` for the
/// [`flipped_correlation`] `C`: `1/2 + v√2/4` for `x = y = 1` and
/// `1/2 − v√2/4` otherwise on an undephased visibility-`v` pair.
///
/// This is [`WernerPair::sample`]'s CDF walk ([`joint_outcome`]) plus the
/// §4.1 [`flip`]. Alice's bit is `u ≥ 1/2` whatever `y` is, so the
/// sampler is exactly no-signaling.
#[inline]
pub fn flipped_bits(pair: &WernerPair, x: usize, y: usize, u: f64) -> (bool, bool) {
    let (a, b) = joint_outcome(raw_correlation(pair, x, y), u);
    flip(a, b)
}

/// The optimal quantum CHSH strategy: one fresh Bell pair per round,
/// measured at the paper's angles. For the flipped variant Bob negates his
/// output bit — a purely local post-processing.
///
/// `pair_source` supplies the entangled resource, letting callers inject
/// noisy (Werner) pairs to model hardware error (experiment E6).
pub struct QuantumChshStrategy<F>
where
    F: FnMut() -> SharedPair,
{
    pair_source: F,
    flip_bob: bool,
}

impl QuantumChshStrategy<fn() -> SharedPair> {
    /// Ideal strategy for the standard game: perfect Bell pairs.
    pub fn ideal() -> Self {
        QuantumChshStrategy {
            pair_source: SharedPair::ideal,
            flip_bob: false,
        }
    }

    /// Ideal strategy for the flipped (load-balancing) game.
    pub fn ideal_flipped() -> Self {
        QuantumChshStrategy {
            pair_source: SharedPair::ideal,
            flip_bob: true,
        }
    }
}

impl<F> QuantumChshStrategy<F>
where
    F: FnMut() -> SharedPair,
{
    /// Strategy drawing pairs from an arbitrary source (e.g. Werner states
    /// with sub-unit visibility).
    pub fn with_source(pair_source: F, variant: ChshVariant) -> Self {
        QuantumChshStrategy {
            pair_source,
            flip_bob: variant == ChshVariant::Flipped,
        }
    }
}

impl<F> PairStrategy for QuantumChshStrategy<F>
where
    F: FnMut() -> SharedPair,
{
    fn play<R: Rng + ?Sized>(&mut self, x: usize, y: usize, rng: &mut R) -> (bool, bool) {
        let mut pair = (self.pair_source)();
        // Each party measures its own qubit at an angle depending only on
        // its own input. Order is irrelevant (see qsim::pair tests).
        let a = pair
            .measure_angle(Party::A, alice_angle(x), rng)
            .expect("fresh pair, party A unmeasured");
        let b = pair
            .measure_angle(Party::B, bob_angle(y), rng)
            .expect("fresh pair, party B unmeasured");
        if self.flip_bob {
            flip(a, b)
        } else {
            (a == 1, b == 1)
        }
    }

    fn name(&self) -> &'static str {
        "quantum-chsh"
    }
}

/// The optimal *classical* strategy for standard CHSH: both always output
/// 0 (wins the 3 of 4 input pairs where `x ∧ y = 0`). For the flipped
/// variant, outputting `a = 0, b = 1` wins exactly the same 3 cases.
#[derive(Debug, Clone, Copy)]
pub struct ClassicalChshStrategy {
    variant: ChshVariant,
}

impl ClassicalChshStrategy {
    /// Optimal classical strategy for the given variant.
    pub fn optimal(variant: ChshVariant) -> Self {
        ClassicalChshStrategy { variant }
    }
}

impl PairStrategy for ClassicalChshStrategy {
    fn play<R: Rng + ?Sized>(&mut self, _x: usize, _y: usize, _rng: &mut R) -> (bool, bool) {
        match self.variant {
            ChshVariant::Standard => (false, false),
            ChshVariant::Flipped => (false, true),
        }
    }

    fn name(&self) -> &'static str {
        "classical-optimal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::empirical_win_rate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classical_optimum_is_three_quarters() {
        let mut rng = StdRng::seed_from_u64(1);
        for variant in [ChshVariant::Standard, ChshVariant::Flipped] {
            let game = ChshGame { variant };
            let mut s = ClassicalChshStrategy::optimal(variant);
            let rate = empirical_win_rate(&game, &mut s, 40_000, &mut rng);
            assert!((rate - 0.75).abs() < 0.01, "{variant:?}: {rate}");
        }
    }

    #[test]
    fn quantum_strategy_beats_classical_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        let game = ChshGame::standard();
        let mut s = QuantumChshStrategy::ideal();
        let rate = empirical_win_rate(&game, &mut s, 60_000, &mut rng);
        let expect = crate::chsh_quantum_value();
        assert!((rate - expect).abs() < 0.01, "rate {rate} expect {expect}");
        assert!(rate > 0.8, "must clearly exceed the classical 0.75");
    }

    #[test]
    fn flipped_quantum_strategy_same_value() {
        let mut rng = StdRng::seed_from_u64(3);
        let game = ChshGame::flipped();
        let mut s = QuantumChshStrategy::ideal_flipped();
        let rate = empirical_win_rate(&game, &mut s, 60_000, &mut rng);
        assert!((rate - crate::chsh_quantum_value()).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn quantum_outputs_are_marginally_uniform() {
        // §2: "each party still outputs 0 or 1 with equal probability" —
        // knowing Alice's IO reveals nothing about Bob's.
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = QuantumChshStrategy::ideal();
        let trials = 40_000;
        let mut a_ones = 0u32;
        let mut b_ones = 0u32;
        for i in 0..trials {
            let (x, y) = ((i / 2) % 2, i % 2);
            let (a, b) = s.play(x, y, &mut rng);
            a_ones += u32::from(a);
            b_ones += u32::from(b);
        }
        let fa = a_ones as f64 / trials as f64;
        let fb = b_ones as f64 / trials as f64;
        assert!((fa - 0.5).abs() < 0.01, "Alice marginal {fa}");
        assert!((fb - 0.5).abs() < 0.01, "Bob marginal {fb}");
    }

    #[test]
    fn noisy_pairs_degrade_gracefully() {
        // Werner visibility 0.5 < 1/√2: quantum value drops below the
        // classical optimum (win prob = 1/2 + v·√2/4).
        let mut rng = StdRng::seed_from_u64(5);
        let game = ChshGame::standard();
        let v = 0.5;
        let mut s = QuantumChshStrategy::with_source(
            move || SharedPair::werner(v).expect("valid visibility"),
            ChshVariant::Standard,
        );
        let rate = empirical_win_rate(&game, &mut s, 60_000, &mut rng);
        let expect = 0.5 + v * std::f64::consts::SQRT_2 / 4.0;
        assert!((rate - expect).abs() < 0.01, "rate {rate} expect {expect}");
        assert!(rate < 0.75);
    }

    #[test]
    fn werner_threshold_is_the_crossover() {
        // Just above 1/√2 the quantum strategy still beats classical.
        let mut rng = StdRng::seed_from_u64(6);
        let game = ChshGame::standard();
        let v = 0.8; // > 1/√2 ≈ 0.707
        let mut s = QuantumChshStrategy::with_source(
            move || SharedPair::werner(v).expect("valid visibility"),
            ChshVariant::Standard,
        );
        let rate = empirical_win_rate(&game, &mut s, 60_000, &mut rng);
        assert!(rate > 0.75, "rate {rate} should beat classical at v=0.8");
    }

    #[test]
    fn win_predicate_truth_table() {
        let g = ChshGame::standard();
        // x∧y = 0 for (0,0),(0,1),(1,0): win iff a == b.
        assert!(g.wins(0, 0, true, true));
        assert!(!g.wins(0, 1, true, false));
        // x∧y = 1 for (1,1): win iff a != b.
        assert!(g.wins(1, 1, true, false));
        assert!(!g.wins(1, 1, false, false));

        let f = ChshGame::flipped();
        assert!(!f.wins(0, 0, true, true));
        assert!(f.wins(1, 1, false, false));
    }

    #[test]
    fn trig_table_is_sin_cos_of_the_doubled_angles_bit_for_bit() {
        let angles: [fn(usize) -> f64; 2] = [alice_angle, bob_angle];
        for (party, (row, angle)) in DOUBLED_ANGLE_TRIG.iter().zip(angles).enumerate() {
            for (input, &(s, c)) in row.iter().enumerate() {
                let (want_s, want_c) = (2.0 * angle(input)).sin_cos();
                assert_eq!(
                    s.to_bits(),
                    want_s.to_bits(),
                    "sin, party {party} input {input}"
                );
                assert_eq!(
                    c.to_bits(),
                    want_c.to_bits(),
                    "cos, party {party} input {input}"
                );
            }
        }
    }

    #[test]
    fn hoisted_trig_matches_the_kernel_correlation_bit_for_bit() {
        for (v, da, db) in [(1.0, 1.0, 1.0), (0.93, 0.8, 0.61), (0.0, 1.0, 0.5)] {
            let pair = WernerPair::with_dephasing(v, da, db).unwrap();
            for (x, y) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                let kernel = pair.correlation(alice_angle(x), bob_angle(y));
                assert_eq!(raw_correlation(&pair, x, y).to_bits(), kernel.to_bits());
                assert_eq!(flipped_correlation(&pair, x, y), -kernel);
            }
        }
    }

    #[test]
    fn angles_match_paper() {
        assert_eq!(alice_angle(0), 0.0);
        assert!((alice_angle(1) - std::f64::consts::FRAC_PI_4).abs() < 1e-15);
        assert!((bob_angle(0) - std::f64::consts::FRAC_PI_8).abs() < 1e-15);
        assert!((bob_angle(1) + std::f64::consts::FRAC_PI_8).abs() < 1e-15);
    }
}
