//! The coordination primitives.
//!
//! ## How the referee works (and why it is honest)
//!
//! A real deployment has no referee: physics correlates the measurement
//! outcomes. A simulation needs *something* to hold the joint state; the
//! danger is accidentally letting one endpoint's input leak to the other.
//! The implementation here samples outcomes in arrival order from the
//! exact quantum joint distribution:
//!
//! - The first endpoint of a round gets a **uniform** bit — its marginal
//!   is 50/50 independent of everything (no-signaling), so no information
//!   about the peer is needed or used.
//! - The second endpoint's bit agrees with the first with probability
//!   `(1 + C[x][y])/2`, where `C` is the game's correlation matrix — the
//!   Born-rule conditional.
//!
//! This is exactly the distribution a Bell-pair measurement produces
//! (cross-validated against the full statevector simulation in the test
//! suite), and the API makes leaking impossible: `decide` takes only the
//! caller's own input.

use crate::error::CoreError;
use games::chsh::flipped_correlation;
use games::{AffinityGraph, XorGame};
use qsim::WernerPair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Maximum rounds one endpoint may run ahead of its peer before `decide`
/// fails — a guard against unbounded memory when one side stalls.
pub const MAX_ROUND_AHEAD: usize = 4096;

/// The binary task classification of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskClass {
    /// Benefits from co-location (type-C).
    Colocate,
    /// Wants exclusive access (type-E).
    Exclusive,
}

impl TaskClass {
    fn index(self) -> usize {
        match self {
            TaskClass::Colocate => 1,
            TaskClass::Exclusive => 0,
        }
    }
}

/// One coordination round's referee record.
struct Round {
    /// Per-party (input, output-bit), set when that party decides.
    outcome: [Option<(usize, bool)>; 2],
    /// The round's shared candidate servers (lazily drawn).
    servers: Option<(usize, usize)>,
}

struct Inner {
    /// The game's correlation `C[x][y] = E[(−1)^{a⊕b} | x, y]`, with
    /// party A's input first.
    corr: Box<dyn Fn(usize, usize) -> f64 + Send>,
    rng: StdRng,
    rounds: VecDeque<Round>,
    /// Round index of `rounds[0]`.
    base: u64,
    /// Next round index per party.
    cursor: [u64; 2],
}

impl Inner {
    fn decide(&mut self, party: usize, input: usize) -> Result<bool, CoreError> {
        Ok(self.decide_full(party, input, None)?.0)
    }

    /// Decides and, when `n_servers` is given, draws the round's shared
    /// candidate-server pair atomically (before the round can be garbage
    /// collected).
    fn decide_full(
        &mut self,
        party: usize,
        input: usize,
        n_servers: Option<usize>,
    ) -> Result<(bool, Option<(usize, usize)>), CoreError> {
        let other = 1 - party;
        let ahead = self.cursor[party].saturating_sub(self.cursor[other]) as usize;
        if ahead >= MAX_ROUND_AHEAD {
            return Err(CoreError::RoundOverrun { ahead });
        }
        let idx = self.cursor[party];
        self.cursor[party] += 1;
        while self.base + (self.rounds.len() as u64) <= idx {
            self.rounds.push_back(Round {
                outcome: [None, None],
                servers: None,
            });
        }
        let slot = (idx - self.base) as usize;
        let round = &mut self.rounds[slot];
        debug_assert!(round.outcome[party].is_none(), "cursor guarantees fresh");
        let bit = match round.outcome[other] {
            // First to decide: uniform marginal (no-signaling).
            None => self.rng.gen::<bool>(),
            // Second: Born-rule conditional on the peer's bit.
            Some((peer_input, peer_bit)) => {
                let c = if party == 0 {
                    (self.corr)(input, peer_input)
                } else {
                    (self.corr)(peer_input, input)
                };
                let agree = self.rng.gen::<f64>() < (1.0 + c) / 2.0;
                if agree {
                    peer_bit
                } else {
                    !peer_bit
                }
            }
        };
        round.outcome[party] = Some((input, bit));
        let servers = match n_servers {
            None => None,
            Some(n) => {
                if self.rounds[slot].servers.is_none() {
                    let s0 = self.rng.gen_range(0..n);
                    let mut s1 = self.rng.gen_range(0..n - 1);
                    if s1 >= s0 {
                        s1 += 1;
                    }
                    self.rounds[slot].servers = Some((s0, s1));
                }
                self.rounds[slot].servers
            }
        };
        self.gc();
        Ok((bit, servers))
    }

    /// Drops rounds both parties have consumed.
    fn gc(&mut self) {
        let min_cursor = self.cursor[0].min(self.cursor[1]);
        while self.base < min_cursor {
            let front = &self.rounds[0];
            if front.outcome[0].is_none() || front.outcome[1].is_none() {
                break;
            }
            self.rounds.pop_front();
            self.base += 1;
        }
    }
}

fn shared(corr: Box<dyn Fn(usize, usize) -> f64 + Send>, seed: u64) -> Arc<Mutex<Inner>> {
    Arc::new(Mutex::new(Inner {
        corr,
        rng: StdRng::seed_from_u64(seed),
        rounds: VecDeque::new(),
        base: 0,
        cursor: [0, 0],
    }))
}

/// Builder for coordinators.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorBuilder {
    seed: u64,
    visibility: f64,
}

impl Default for CoordinatorBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CoordinatorBuilder {
    /// A builder with a fixed default seed and perfect pairs.
    pub fn new() -> Self {
        CoordinatorBuilder {
            seed: 0,
            visibility: 1.0,
        }
    }

    /// Sets the RNG seed (determinism for tests and reproducibility).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the entangled-pair visibility (1.0 = ideal; the CHSH
    /// advantage survives while `v > 1/√2`).
    ///
    /// # Panics
    /// Panics if `visibility ∉ [0, 1]`.
    pub fn visibility(mut self, visibility: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&visibility),
            "visibility {visibility} outside [0, 1]"
        );
        self.visibility = visibility;
        self
    }

    /// Builds the two-class (C/E) co-location coordinator of §4.1.
    pub fn build_colocation(self) -> ColocationCoordinator {
        let pair = WernerPair::new(self.visibility).expect("visibility validated by the builder");
        // Flipped CHSH: agree (same server) only when both inputs are C.
        let corr = move |x: usize, y: usize| -> f64 { flipped_correlation(&pair, x, y) };
        ColocationCoordinator {
            inner: shared(Box::new(corr), self.seed),
        }
    }

    /// Builds a multi-class coordinator from an affinity graph: solves the
    /// graph's XOR game for the optimal quantum strategy and uses its
    /// correlation matrix. Solve time is polynomial in the number of task
    /// classes (§4.1).
    ///
    /// # Panics
    /// Panics if the graph exceeds the classical enumeration limit
    /// (`games::xor::ENUM_LIMIT` vertices) — far beyond any coordinator
    /// deployment size the paper considers.
    pub fn build_affinity(self, graph: &AffinityGraph) -> AffinityCoordinator {
        let game = graph.to_xor_game(true);
        let mut solver_rng = StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let solution = game.quantum_solution(8, &mut solver_rng);
        let c = solution.correlation_matrix();
        let v = self.visibility;
        let n = graph.n_vertices();
        let corr = move |x: usize, y: usize| -> f64 { (v * c[(x, y)]).clamp(-1.0, 1.0) };
        AffinityCoordinator {
            inner: shared(Box::new(corr), self.seed),
            n_classes: n,
            quantum_value: solution.value,
            classical_value: game
                .classical_value()
                .expect("coordinator graphs stay below the enumeration limit"),
        }
    }
}

/// A two-endpoint C/E co-location coordinator (flipped CHSH).
pub struct ColocationCoordinator {
    inner: Arc<Mutex<Inner>>,
}

impl ColocationCoordinator {
    /// The two endpoint handles (give one to each load balancer).
    pub fn endpoints(&self) -> (Endpoint, Endpoint) {
        (
            Endpoint {
                inner: Arc::clone(&self.inner),
                party: 0,
            },
            Endpoint {
                inner: Arc::clone(&self.inner),
                party: 1,
            },
        )
    }
}

/// One side of a [`ColocationCoordinator`].
pub struct Endpoint {
    inner: Arc<Mutex<Inner>>,
    party: usize,
}

impl Endpoint {
    /// Decides this round's bit from the local input only. Zero latency;
    /// correlated with the peer's bit per the flipped CHSH game.
    ///
    /// # Panics
    /// Panics if this endpoint runs more than [`MAX_ROUND_AHEAD`] rounds
    /// ahead of its peer (use [`Endpoint::try_decide`] to handle that
    /// case gracefully).
    pub fn decide(&self, class: TaskClass) -> bool {
        self.try_decide(class).expect("round overrun")
    }

    /// Fallible variant of [`Endpoint::decide`].
    ///
    /// # Errors
    /// [`CoreError::RoundOverrun`] if the peer has stalled.
    pub fn try_decide(&self, class: TaskClass) -> Result<bool, CoreError> {
        self.inner
            .lock()
            .expect("coordinator lock poisoned")
            .decide(self.party, class.index())
    }

    /// Full §4.1 load-balancer decision: pick one of `n_servers` using
    /// the round's shared candidate pair and this endpoint's decision
    /// bit. When both endpoints' tasks are [`TaskClass::Colocate`], they
    /// land on the same server with probability cos²(π/8).
    ///
    /// # Panics
    /// Panics on round overrun or `n_servers < 2`.
    pub fn decide_server(&self, class: TaskClass, n_servers: usize) -> usize {
        assert!(n_servers >= 2, "need at least two servers");
        let mut inner = self.inner.lock().expect("coordinator lock poisoned");
        let (bit, servers) = inner
            .decide_full(self.party, class.index(), Some(n_servers))
            .expect("round overrun");
        let (s0, s1) = servers.expect("requested servers");
        if bit {
            s1
        } else {
            s0
        }
    }
}

/// A two-endpoint multi-class coordinator built from an affinity graph.
pub struct AffinityCoordinator {
    inner: Arc<Mutex<Inner>>,
    n_classes: usize,
    /// The solved quantum value of the underlying XOR game.
    pub quantum_value: f64,
    /// The exact classical value of the underlying XOR game.
    pub classical_value: f64,
}

impl AffinityCoordinator {
    /// The two endpoint handles.
    pub fn endpoints(&self) -> (AffinityEndpoint, AffinityEndpoint) {
        (
            AffinityEndpoint {
                inner: Arc::clone(&self.inner),
                party: 0,
                n_classes: self.n_classes,
            },
            AffinityEndpoint {
                inner: Arc::clone(&self.inner),
                party: 1,
                n_classes: self.n_classes,
            },
        )
    }

    /// True if the configured graph's game has a quantum advantage.
    pub fn has_quantum_advantage(&self) -> bool {
        self.quantum_value > self.classical_value + 1e-4
    }
}

/// One side of an [`AffinityCoordinator`].
pub struct AffinityEndpoint {
    inner: Arc<Mutex<Inner>>,
    party: usize,
    n_classes: usize,
}

impl AffinityEndpoint {
    /// Decides this round's bit from the local task class (a graph
    /// vertex).
    ///
    /// # Errors
    /// [`CoreError::UnknownTaskClass`] for an out-of-range vertex;
    /// [`CoreError::RoundOverrun`] if the peer has stalled.
    pub fn decide(&self, class: usize) -> Result<bool, CoreError> {
        if class >= self.n_classes {
            return Err(CoreError::UnknownTaskClass {
                vertex: class,
                n_classes: self.n_classes,
            });
        }
        self.inner
            .lock()
            .expect("coordinator lock poisoned")
            .decide(self.party, class)
    }
}

/// Convenience: build the underlying XOR game for a graph (exposed so
/// callers can inspect values without building a coordinator).
pub fn graph_game(graph: &AffinityGraph) -> XorGame {
    graph.to_xor_game(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colocation_rates_match_chsh() {
        let pair = CoordinatorBuilder::new().seed(1).build_colocation();
        let (a, b) = pair.endpoints();
        let trials = 30_000;
        let expect = games::chsh_quantum_value();
        let cases = [
            (TaskClass::Colocate, TaskClass::Colocate, true),
            (TaskClass::Colocate, TaskClass::Exclusive, false),
            (TaskClass::Exclusive, TaskClass::Colocate, false),
            (TaskClass::Exclusive, TaskClass::Exclusive, false),
        ];
        for (ca, cb, want_same) in cases {
            let mut ok = 0usize;
            for _ in 0..trials {
                let da = a.decide(ca);
                let db = b.decide(cb);
                ok += usize::from((da == db) == want_same);
            }
            let f = ok as f64 / trials as f64;
            assert!(
                (f - expect).abs() < 0.01,
                "({ca:?},{cb:?}): success {f} vs {expect}"
            );
        }
    }

    #[test]
    fn order_independence() {
        // B deciding before A must produce the same statistics.
        let pair = CoordinatorBuilder::new().seed(2).build_colocation();
        let (a, b) = pair.endpoints();
        let trials = 30_000;
        let mut same = 0usize;
        for _ in 0..trials {
            let db = b.decide(TaskClass::Colocate);
            let da = a.decide(TaskClass::Colocate);
            same += usize::from(da == db);
        }
        let f = same as f64 / trials as f64;
        assert!((f - games::chsh_quantum_value()).abs() < 0.01, "rate {f}");
    }

    #[test]
    fn marginals_are_uniform() {
        let pair = CoordinatorBuilder::new().seed(3).build_colocation();
        let (a, b) = pair.endpoints();
        let trials = 30_000;
        let mut a_ones = 0usize;
        for i in 0..trials {
            let class = if i % 2 == 0 {
                TaskClass::Colocate
            } else {
                TaskClass::Exclusive
            };
            a_ones += usize::from(a.decide(class));
            let _ = b.decide(TaskClass::Exclusive);
        }
        let f = a_ones as f64 / trials as f64;
        assert!((f - 0.5).abs() < 0.01, "marginal {f}");
    }

    #[test]
    fn decide_server_colocates_cc() {
        let pair = CoordinatorBuilder::new().seed(4).build_colocation();
        let (a, b) = pair.endpoints();
        let trials = 20_000;
        let mut same = 0usize;
        for _ in 0..trials {
            let sa = a.decide_server(TaskClass::Colocate, 10);
            let sb = b.decide_server(TaskClass::Colocate, 10);
            assert!(sa < 10 && sb < 10);
            same += usize::from(sa == sb);
        }
        let f = same as f64 / trials as f64;
        assert!(
            (f - games::chsh_quantum_value()).abs() < 0.01,
            "co-location rate {f}"
        );
    }

    #[test]
    fn round_overrun_detected() {
        let pair = CoordinatorBuilder::new().seed(5).build_colocation();
        let (a, _b) = pair.endpoints();
        for _ in 0..MAX_ROUND_AHEAD {
            a.try_decide(TaskClass::Colocate).unwrap();
        }
        assert!(matches!(
            a.try_decide(TaskClass::Colocate),
            Err(CoreError::RoundOverrun { .. })
        ));
    }

    #[test]
    fn degraded_visibility_reduces_correlation() {
        let pair = CoordinatorBuilder::new()
            .seed(6)
            .visibility(0.5)
            .build_colocation();
        let (a, b) = pair.endpoints();
        let trials = 30_000;
        let mut ok = 0usize;
        for _ in 0..trials {
            let da = a.decide(TaskClass::Colocate);
            let db = b.decide(TaskClass::Colocate);
            ok += usize::from(da == db);
        }
        let f = ok as f64 / trials as f64;
        let expect = 0.5 + 0.5 * std::f64::consts::FRAC_1_SQRT_2 / 2.0;
        assert!((f - expect).abs() < 0.01, "rate {f} vs {expect}");
    }

    #[test]
    fn affinity_coordinator_beats_classical_on_frustrated_graph() {
        let graph = AffinityGraph::from_edges(3, &[(0, 1, true)]);
        let coord = CoordinatorBuilder::new().seed(7).build_affinity(&graph);
        assert!(coord.has_quantum_advantage());
        let (a, b) = coord.endpoints();

        // Empirical win rate over uniform vertex pairs must approach the
        // solved quantum value and beat the classical value.
        let game = graph_game(&graph);
        let trials = 60_000;
        let mut rng = StdRng::seed_from_u64(99);
        let mut wins = 0usize;
        for _ in 0..trials {
            let x = rng.gen_range(0..3);
            let y = rng.gen_range(0..3);
            let da = a.decide(x).unwrap();
            let db = b.decide(y).unwrap();
            let want_differ = graph.is_exclusive(x, y);
            wins += usize::from((da != db) == want_differ);
        }
        let f = wins as f64 / trials as f64;
        assert!(
            f > game.classical_value().unwrap() + 0.01,
            "win rate {f} vs classical {}",
            game.classical_value().unwrap()
        );
        assert!(
            (f - coord.quantum_value).abs() < 0.01,
            "win rate {f} vs quantum {}",
            coord.quantum_value
        );
    }

    #[test]
    fn affinity_rejects_unknown_class() {
        let graph = AffinityGraph::from_edges(3, &[]);
        let coord = CoordinatorBuilder::new().build_affinity(&graph);
        let (a, _) = coord.endpoints();
        assert!(matches!(
            a.decide(3),
            Err(CoreError::UnknownTaskClass { vertex: 3, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "visibility")]
    fn bad_visibility_panics() {
        CoordinatorBuilder::new().visibility(1.5);
    }

    #[test]
    fn endpoints_are_send() {
        fn assert_send<T: Send>(_: &T) {}
        let pair = CoordinatorBuilder::new().build_colocation();
        let (a, b) = pair.endpoints();
        assert_send(&a);
        assert_send(&b);
    }
}
