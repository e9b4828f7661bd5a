//! Load-balancer assignment strategies.
//!
//! The classical baselines (§4.1): uniform random, round-robin, power of
//! two choices, and the best *classical pairing* strategies. The quantum
//! strategy pairs balancers and plays the flipped CHSH game per round.
//!
//! ## Locality discipline
//!
//! Every strategy here uses only (a) the balancer's own input, (b)
//! resources fixed *before* inputs arrive (shared randomness, entangled
//! pairs), and — for power-of-two only — (c) server queue lengths, which
//! models an *informed* baseline that already pays a communication cost
//! the others don't. No strategy lets one balancer's input influence
//! another balancer's output beyond what its pre-shared resource allows;
//! the quantum pairing inherits this from [`games::chsh::flipped_bits`],
//! whose no-signaling property is tested upstream.

use crate::task::TaskType;
use games::chsh::flipped_bits;
use qsim::WernerPair;
use rand::Rng;

/// The outcome of one pair-coordination round (exposed for tests and for
/// the `qnlg-core` coordinator API).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairDecision {
    /// First balancer's output bit (selects between the two candidate
    /// servers).
    pub a: bool,
    /// Second balancer's output bit.
    pub b: bool,
}

/// An assignment strategy: maps this timestep's tasks to server indices.
pub trait AssignmentStrategy {
    /// Assigns each balancer's task to a server. `queue_lens` holds each
    /// server's queue length at the start of the step (used only by
    /// informed strategies).
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize>;

    /// Name for report tables.
    fn name(&self) -> &'static str;
}

/// Strategy selector — the menu of strategies the experiments sweep over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Paper's classical baseline: each balancer picks a uniformly random
    /// server, independently.
    UniformRandom,
    /// Round-robin with a random per-balancer starting offset.
    RoundRobin,
    /// Power of two choices: probe two random servers, pick the shorter
    /// queue (an *informed* strategy — it reads server state).
    PowerOfTwoChoices,
    /// Classical pairing, always-split: the two balancers always pick
    /// different servers (wins the CE/EC/EE cases, never co-locates CC).
    PairedAlwaysSplit,
    /// Classical pairing, match-types (`a = x, b = y`): co-locates CC and
    /// splits CE/EC, but collides both Es (fails EE).
    PairedMatchTypes,
    /// Quantum pairing: flipped CHSH over pre-shared entanglement,
    /// sampled on the closed-form Werner kernel
    /// ([`games::chsh::flipped_bits`]).
    PairedQuantum {
        /// Probability a fresh pair is available at decision time
        /// (1.0 = ideal pipeline); misses fall back to always-split.
        availability: f64,
        /// Bell-pair visibility (1.0 = perfect, < 1 = Werner noise).
        visibility: f64,
    },
    /// Hybrid: a fixed fraction of servers is dedicated to type-C tasks;
    /// C goes to a random dedicated server, E to a random general server.
    DedicatedServers {
        /// Fraction of servers reserved for type-C.
        dedicated_fraction: f64,
    },
}

impl Strategy {
    /// The ideal quantum strategy (full availability, perfect pairs).
    pub fn quantum_ideal() -> Self {
        Strategy::PairedQuantum {
            availability: 1.0,
            visibility: 1.0,
        }
    }

    /// Instantiates the runnable strategy state.
    pub fn build(self, n_servers: usize) -> Box<dyn AssignmentStrategy> {
        assert!(n_servers >= 2, "need at least two servers");
        match self {
            Strategy::UniformRandom => Box::new(UniformRandom { n_servers }),
            Strategy::RoundRobin => Box::new(RoundRobin {
                n_servers,
                offsets: Vec::new(),
            }),
            Strategy::PowerOfTwoChoices => Box::new(PowerOfTwo { n_servers }),
            Strategy::PairedAlwaysSplit => Box::new(Paired {
                n_servers,
                decider: Decider::AlwaysSplit,
            }),
            Strategy::PairedMatchTypes => Box::new(Paired {
                n_servers,
                decider: Decider::MatchTypes,
            }),
            Strategy::PairedQuantum {
                availability,
                visibility,
            } => {
                assert!((0.0..=1.0).contains(&availability), "bad availability");
                let pair = WernerPair::new(visibility).expect("bad visibility");
                Box::new(Paired {
                    n_servers,
                    decider: Decider::Quantum { pair, availability },
                })
            }
            Strategy::DedicatedServers { dedicated_fraction } => {
                assert!(
                    (0.0..=1.0).contains(&dedicated_fraction),
                    "bad dedicated fraction"
                );
                let dedicated = ((n_servers as f64 * dedicated_fraction).round() as usize)
                    .clamp(1, n_servers - 1);
                Box::new(Dedicated {
                    n_servers,
                    dedicated,
                })
            }
        }
    }
}

struct UniformRandom {
    n_servers: usize,
}

impl AssignmentStrategy for UniformRandom {
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        _queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        tasks
            .iter()
            .map(|_| rng.gen_range(0..self.n_servers))
            .collect()
    }

    fn name(&self) -> &'static str {
        "uniform-random"
    }
}

struct RoundRobin {
    n_servers: usize,
    offsets: Vec<usize>,
}

impl AssignmentStrategy for RoundRobin {
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        _queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        if self.offsets.len() != tasks.len() {
            self.offsets = (0..tasks.len())
                .map(|_| rng.gen_range(0..self.n_servers))
                .collect();
        }
        self.offsets
            .iter_mut()
            .map(|off| {
                *off = (*off + 1) % self.n_servers;
                *off
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

struct PowerOfTwo {
    n_servers: usize,
}

impl AssignmentStrategy for PowerOfTwo {
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        tasks
            .iter()
            .map(|_| {
                let s1 = rng.gen_range(0..self.n_servers);
                let s2 = rng.gen_range(0..self.n_servers);
                // Queue lengths are start-of-step (stale within the step)
                // — the standard idealization.
                if queue_lens[s1] <= queue_lens[s2] {
                    s1
                } else {
                    s2
                }
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "power-of-two"
    }
}

enum Decider {
    AlwaysSplit,
    MatchTypes,
    Quantum { pair: WernerPair, availability: f64 },
}

impl Decider {
    fn decide(&self, x: usize, y: usize, rng: &mut dyn rand::RngCore) -> PairDecision {
        match self {
            Decider::AlwaysSplit => PairDecision { a: false, b: true },
            Decider::MatchTypes => PairDecision {
                a: x == 1,
                b: y == 1,
            },
            Decider::Quantum { pair, availability } => {
                if rng.gen::<f64>() < *availability {
                    let (a, b) = flipped_bits(pair, x, y, rng.gen());
                    PairDecision { a, b }
                } else {
                    PairDecision { a: false, b: true }
                }
            }
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Decider::AlwaysSplit => "paired-always-split",
            Decider::MatchTypes => "paired-match-types",
            Decider::Quantum { .. } => "paired-quantum",
        }
    }
}

struct Paired {
    n_servers: usize,
    decider: Decider,
}

impl AssignmentStrategy for Paired {
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        _queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        let mut out = vec![0usize; tasks.len()];
        let mut i = 0;
        while i + 1 < tasks.len() {
            // Pre-shared randomness picks two distinct candidate servers
            // per round (§4.1: "each pair randomly selects a pair of
            // servers in each round").
            let s0 = rng.gen_range(0..self.n_servers);
            let mut s1 = rng.gen_range(0..self.n_servers - 1);
            if s1 >= s0 {
                s1 += 1;
            }
            let (x, y) = (tasks[i].chsh_input(), tasks[i + 1].chsh_input());
            let d = self.decider.decide(x, y, rng);
            out[i] = if d.a { s1 } else { s0 };
            out[i + 1] = if d.b { s1 } else { s0 };
            i += 2;
        }
        if i < tasks.len() {
            // Odd balancer out: uniform random.
            out[i] = rng.gen_range(0..self.n_servers);
        }
        out
    }

    fn name(&self) -> &'static str {
        self.decider.label()
    }
}

struct Dedicated {
    n_servers: usize,
    dedicated: usize,
}

impl AssignmentStrategy for Dedicated {
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        _queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        tasks
            .iter()
            .map(|t| {
                if t.is_colocate() {
                    rng.gen_range(0..self.dedicated)
                } else {
                    rng.gen_range(self.dedicated..self.n_servers)
                }
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "dedicated-servers"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const C: TaskType = TaskType::Colocate(0);
    const E: TaskType = TaskType::Exclusive;

    fn lens(n: usize) -> Vec<usize> {
        vec![0; n]
    }

    #[test]
    fn uniform_random_spreads() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = Strategy::UniformRandom.build(10);
        let mut counts = vec![0usize; 10];
        for _ in 0..5000 {
            for srv in s.assign_all(&[C, E], &lens(10), &mut rng) {
                counts[srv] += 1;
            }
        }
        for c in counts {
            let f = c as f64 / 10_000.0;
            assert!((f - 0.1).abs() < 0.02, "server load {f}");
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = Strategy::RoundRobin.build(4);
        let a1 = s.assign_all(&[C], &lens(4), &mut rng)[0];
        let a2 = s.assign_all(&[C], &lens(4), &mut rng)[0];
        let a3 = s.assign_all(&[C], &lens(4), &mut rng)[0];
        assert_eq!((a1 + 1) % 4, a2);
        assert_eq!((a2 + 1) % 4, a3);
    }

    #[test]
    fn power_of_two_prefers_short_queue() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Strategy::PowerOfTwoChoices.build(2);
        // Server 0 is very long: nearly all picks should land on 1.
        let queue_lens = vec![100, 0];
        let mut to_short = 0;
        for _ in 0..1000 {
            if s.assign_all(&[C], &queue_lens, &mut rng)[0] == 1 {
                to_short += 1;
            }
        }
        // Picks 1 unless both probes hit 0 (prob 1/4).
        let f = to_short as f64 / 1000.0;
        assert!((f - 0.75).abs() < 0.05, "short-queue rate {f}");
    }

    #[test]
    fn always_split_never_collides() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = Strategy::PairedAlwaysSplit.build(8);
        for _ in 0..500 {
            let a = s.assign_all(&[C, C], &lens(8), &mut rng);
            assert_ne!(a[0], a[1]);
        }
    }

    #[test]
    fn match_types_colocates_cc_collides_ee() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = Strategy::PairedMatchTypes.build(8);
        for _ in 0..200 {
            let a = s.assign_all(&[C, C], &lens(8), &mut rng);
            assert_eq!(a[0], a[1], "CC must co-locate");
            let a = s.assign_all(&[E, E], &lens(8), &mut rng);
            assert_eq!(a[0], a[1], "EE collides under match-types");
            let a = s.assign_all(&[C, E], &lens(8), &mut rng);
            assert_ne!(a[0], a[1], "CE splits");
        }
    }

    #[test]
    fn quantum_box_meets_chsh_rates() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut s = Strategy::quantum_ideal().build(8);
        let cases: [(&[TaskType; 2], bool); 4] = [
            (&[C, C], true),  // want same server
            (&[C, E], false), // want different
            (&[E, C], false),
            (&[E, E], false),
        ];
        let trials = 20_000;
        for (tasks, want_same) in cases {
            let mut ok = 0usize;
            for _ in 0..trials {
                let a = s.assign_all(tasks.as_slice(), &lens(8), &mut rng);
                ok += usize::from((a[0] == a[1]) == want_same);
            }
            let f = ok as f64 / trials as f64;
            let expect = games::chsh_quantum_value();
            assert!(
                (f - expect).abs() < 0.015,
                "{tasks:?}: success {f}, expected {expect}"
            );
        }
    }

    #[test]
    fn zero_availability_degenerates_to_split() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut s = Strategy::PairedQuantum {
            availability: 0.0,
            visibility: 1.0,
        }
        .build(8);
        for _ in 0..200 {
            let a = s.assign_all(&[C, C], &lens(8), &mut rng);
            assert_ne!(a[0], a[1], "fallback is always-split");
        }
    }

    #[test]
    fn degraded_visibility_weakens_correlation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = Strategy::PairedQuantum {
            availability: 1.0,
            visibility: 0.0, // fully depolarized: coin-flip correlation
        }
        .build(8);
        let trials = 20_000;
        let mut same = 0usize;
        for _ in 0..trials {
            let a = s.assign_all(&[C, C], &lens(8), &mut rng);
            same += usize::from(a[0] == a[1]);
        }
        let f = same as f64 / trials as f64;
        assert!((f - 0.5).abs() < 0.02, "v=0 co-location rate {f}");
    }

    #[test]
    fn dedicated_partitions_by_type() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut s = Strategy::DedicatedServers {
            dedicated_fraction: 0.5,
        }
        .build(10);
        for _ in 0..200 {
            let a = s.assign_all(&[C, E], &lens(10), &mut rng);
            assert!(a[0] < 5, "C goes to dedicated half");
            assert!(a[1] >= 5, "E goes to general half");
        }
    }

    #[test]
    fn odd_balancer_count_is_handled() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut s = Strategy::quantum_ideal().build(4);
        let a = s.assign_all(&[C, C, E], &lens(4), &mut rng);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&srv| srv < 4));
    }

    #[test]
    #[should_panic(expected = "at least two servers")]
    fn one_server_panics() {
        Strategy::UniformRandom.build(1);
    }
}
