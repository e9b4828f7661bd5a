//! Pre-drawn decision slots: the payload the refill thread stages into
//! the SPSC rings and the hot path consumes.
//!
//! The awkward fact a pre-drawn design must absorb is that a CHSH
//! measurement *depends on the query inputs* `(x, y)` — the placement
//! bits come from measuring at input-indexed angles, so a slot drawn
//! before the query arrives cannot know which angles to use. The fix is
//! to pre-sample **all four input combinations** from the same consumed
//! pair: a [`DecisionSlot`] carries one `(s0, s1)` candidate draw plus a
//! 4-entry outcome table indexed by `(x, y)`, and answering a query is a
//! table lookup plus two conditional moves. (Physically this is the
//! simulator's shortcut, not a protocol change: each table entry is an
//! exact sample of the joint outcome distribution *at those angles*, and
//! exactly one entry is ever consumed per pair, so no-signaling is
//! respected — the discarded entries are counterfactuals.) Each entry is
//! one [`flipped_bits`] draw, the flipped-CHSH sampler the simulation
//! engines share, so a served decision and a simulated round map the
//! same `(pair, x, y, u)` to the same placement bits.
//!
//! ## Determinism
//!
//! Every slot is a pure function of `(master seed, endpoint, sequence)`:
//! the endpoint's stream seed derives per-slot [`SplitMix64`] sub-streams
//! via the workspace-wide [`runtime::stream_seed`] discipline, and the
//! slot's *simulated* consumption time is `(seq + 1) ·
//! decision_period` — a function of the sequence number, never of the
//! wall clock. Refill timing, thread count, and ring occupancy therefore
//! cannot change a single drawn bit, which is what lets a soak run's
//! canonical artifact stay byte-identical across `QNLG_THREADS`.

use games::chsh::flipped_bits;
use loadbalance::degrade::CoordinationMode;
use qsim::werner::WernerPair;
use runtime::{stream_seed, SplitMix64};

/// Decision tier a slot was drawn under, stored as one byte in the slot.
/// Mirrors [`CoordinationMode`] (same ordering as its gauge values).
pub const TIER_QUANTUM: u8 = 0;
/// Slot drawn under classical-shared fallback (governor tripped, or a
/// quantum-mode round that missed — no buffered pair).
pub const TIER_CLASSICAL: u8 = 1;
/// Slot drawn under the deep-fault independent tier.
pub const TIER_INDEPENDENT: u8 = 2;

/// Converts a stored tier byte back to the governor's mode enum.
pub fn tier_mode(tier: u8) -> CoordinationMode {
    match tier {
        TIER_QUANTUM => CoordinationMode::Quantum,
        TIER_CLASSICAL => CoordinationMode::ClassicalShared,
        _ => CoordinationMode::IndependentRandom,
    }
}

/// One pre-drawn placement decision, ready for any `(x, y)` input pair.
///
/// `Copy` and 24 bytes, so a ring slot hand-off is a couple of plain
/// stores and the hot path never touches the heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionSlot {
    /// Position in the endpoint's decision stream (also determines the
    /// slot's simulated consumption time).
    pub seq: u64,
    /// First candidate server.
    pub s0: u32,
    /// Second candidate server (distinct from `s0` except in the
    /// independent tier, where both are unconstrained draws).
    pub s1: u32,
    /// Flipped-CHSH outcome bits per input combination, indexed
    /// `(x << 1) | y`: bit 0 is Alice's placement bit `a` (true → `s1`),
    /// bit 1 is Bob's placement bit `b` (true → `s1`).
    pub outcomes: [u8; 4],
    /// [`TIER_QUANTUM`] / [`TIER_CLASSICAL`] / [`TIER_INDEPENDENT`].
    pub tier: u8,
}

/// A resolved placement for one query: where the two tasks go, and which
/// tier produced the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Server for the first task.
    pub first: u32,
    /// Server for the second task.
    pub second: u32,
    /// Tier byte of the slot that answered.
    pub tier: u8,
    /// Sequence number of the slot that answered (`u64::MAX` for an
    /// exhausted-ring inline fallback).
    pub seq: u64,
}

impl DecisionSlot {
    /// Resolves the slot against query inputs `(x, y)` (`true` = type-C
    /// task). Pure table lookup + two conditional selects — the entire
    /// hot-path compute.
    #[inline]
    pub fn place(&self, x: bool, y: bool) -> Placement {
        let bits = self.outcomes[((x as usize) << 1) | (y as usize)];
        Placement {
            first: if bits & 1 != 0 { self.s1 } else { self.s0 },
            second: if bits & 2 != 0 { self.s1 } else { self.s0 },
            tier: self.tier,
            seq: self.seq,
        }
    }
}

/// The slot sub-stream for `(endpoint stream seed, seq)`. Index 0 of the
/// endpoint family is reserved for the exhausted-ring fallback stream,
/// so slot `seq` draws from index `seq + 1`.
#[inline]
pub fn slot_rng(endpoint_seed: u64, seq: u64) -> SplitMix64 {
    SplitMix64::new(stream_seed(endpoint_seed, seq.wrapping_add(1)))
}

/// The endpoint's dedicated stream for inline classical fallbacks when
/// its ring is exhausted (index 0 of the endpoint family; see
/// [`slot_rng`]).
#[inline]
pub fn fallback_rng(endpoint_seed: u64) -> SplitMix64 {
    SplitMix64::new(stream_seed(endpoint_seed, 0))
}

/// Draws the distinct candidate pair `(s0, s1)` — the same
/// uniform-then-bump rule as `loadbalance::pipeline`.
#[inline]
fn draw_candidates(n_servers: u32, rng: &mut SplitMix64) -> (u32, u32) {
    let s0 = rng.gen_range(n_servers);
    let mut s1 = rng.gen_range(n_servers - 1);
    if s1 >= s0 {
        s1 += 1;
    }
    (s0, s1)
}

/// Draws a quantum-tier slot from a consumed pair: one candidate draw
/// plus one [`flipped_bits`] sample per input combination (6 RNG draws
/// total, all from the slot's own sub-stream).
pub fn draw_quantum(seq: u64, n_servers: u32, pair: &WernerPair, rng: &mut SplitMix64) -> DecisionSlot {
    let (s0, s1) = draw_candidates(n_servers, rng);
    let mut outcomes = [0u8; 4];
    for x in 0..2usize {
        for y in 0..2usize {
            let (a, b) = flipped_bits(pair, x, y, rng.next_f64());
            outcomes[(x << 1) | y] = u8::from(a) | (u8::from(b) << 1);
        }
    }
    DecisionSlot {
        seq,
        s0,
        s1,
        outcomes,
        tier: TIER_QUANTUM,
    }
}

/// Outcome bits of the classical always-split rule: `(a, b) = (false,
/// true)` for every input, i.e. first task → `s0`, second → `s1`.
pub const CLASSICAL_OUTCOMES: [u8; 4] = [0b10; 4];

/// Draws a classical-shared slot: distinct candidates split
/// unconditionally (win rate 0.75, the best classical pairing).
pub fn draw_classical_shared(seq: u64, n_servers: u32, rng: &mut SplitMix64) -> DecisionSlot {
    let (s0, s1) = draw_candidates(n_servers, rng);
    DecisionSlot {
        seq,
        s0,
        s1,
        outcomes: CLASSICAL_OUTCOMES,
        tier: TIER_CLASSICAL,
    }
}

/// Draws a deep-fault independent slot: two unconstrained uniform
/// draws, no shared structure at all.
pub fn draw_independent(seq: u64, n_servers: u32, rng: &mut SplitMix64) -> DecisionSlot {
    let s0 = rng.gen_range(n_servers);
    let s1 = rng.gen_range(n_servers);
    DecisionSlot {
        seq,
        s0,
        s1,
        outcomes: CLASSICAL_OUTCOMES,
        tier: TIER_INDEPENDENT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_is_small_and_copy() {
        // The ring hand-off budget: a slot must stay well inside a cache
        // line.
        assert!(std::mem::size_of::<DecisionSlot>() <= 32);
    }

    #[test]
    fn placement_selects_by_outcome_bits() {
        let slot = DecisionSlot {
            seq: 7,
            s0: 3,
            s1: 9,
            outcomes: [0b00, 0b01, 0b10, 0b11],
            tier: TIER_QUANTUM,
        };
        let p = slot.place(false, false);
        assert_eq!((p.first, p.second), (3, 3));
        let p = slot.place(false, true);
        assert_eq!((p.first, p.second), (9, 3));
        let p = slot.place(true, false);
        assert_eq!((p.first, p.second), (3, 9));
        let p = slot.place(true, true);
        assert_eq!((p.first, p.second), (9, 9));
        assert_eq!(p.seq, 7);
    }

    #[test]
    fn slots_are_pure_functions_of_their_coordinates() {
        let pair = WernerPair::new(0.95).unwrap();
        let endpoint_seed = stream_seed(0xFEED, 2);
        for seq in [0u64, 1, 17, 1000] {
            let a = draw_quantum(seq, 64, &pair, &mut slot_rng(endpoint_seed, seq));
            let b = draw_quantum(seq, 64, &pair, &mut slot_rng(endpoint_seed, seq));
            assert_eq!(a, b);
        }
        // Distinct sequence numbers draw from decorrelated sub-streams.
        let a = draw_quantum(0, 64, &pair, &mut slot_rng(endpoint_seed, 0));
        let b = draw_quantum(1, 64, &pair, &mut slot_rng(endpoint_seed, 1));
        assert!(a.s0 != b.s0 || a.s1 != b.s1 || a.outcomes != b.outcomes);
    }

    #[test]
    fn candidates_are_distinct_and_in_range() {
        let mut rng = SplitMix64::new(42);
        for seq in 0..500 {
            let slot = draw_classical_shared(seq, 10, &mut rng);
            assert!(slot.s0 < 10 && slot.s1 < 10);
            assert_ne!(slot.s0, slot.s1, "shared-draw candidates must differ");
        }
    }

    #[test]
    fn classical_slot_always_splits() {
        let mut rng = SplitMix64::new(7);
        let slot = draw_classical_shared(0, 16, &mut rng);
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            let p = slot.place(x, y);
            assert_eq!(p.first, slot.s0);
            assert_eq!(p.second, slot.s1);
            assert_ne!(p.first, p.second);
        }
    }

    #[test]
    fn quantum_outcomes_match_the_werner_joint_distribution() {
        // Aggregate the pre-drawn (1,1) table entries over many slots.
        // Standard CHSH at x = y = 1 wants a ⊕ b = 1 and achieves it
        // w.p. cos²(π/8); flipping Bob's bit converts that into the two
        // placement bits *matching* (co-location), so P(first pick ==
        // second pick) at (1,1) ≈ cos²(π/8) for an ideal pair.
        let pair = WernerPair::ideal();
        let endpoint_seed = stream_seed(99, 0);
        let n = 40_000u64;
        let mut matches = 0u64;
        for seq in 0..n {
            let slot = draw_quantum(seq, 8, &pair, &mut slot_rng(endpoint_seed, seq));
            let bits = slot.outcomes[0b11];
            if (bits & 1 != 0) == (bits & 2 != 0) {
                matches += 1;
            }
        }
        let rate = matches as f64 / n as f64;
        let expected = (std::f64::consts::FRAC_PI_8).cos().powi(2);
        assert!(
            (rate - expected).abs() < 0.01,
            "co-location rate at (1,1): {rate} vs cos²(π/8) = {expected}"
        );
    }

    #[test]
    fn fallback_stream_is_disjoint_from_slot_streams() {
        let endpoint_seed = stream_seed(5, 3);
        let fb = fallback_rng(endpoint_seed).raw();
        for seq in 0..64 {
            assert_ne!(fb, slot_rng(endpoint_seed, seq).raw());
        }
    }
}
