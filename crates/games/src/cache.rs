//! Canonicalizing, sharded value cache for XOR games.
//!
//! The Figure 3 sweeps draw thousands of random affinity-graph games, and
//! many of those games are identical up to vertex relabeling (a
//! simultaneous row/column permutation of the bias matrix) and global
//! sign. This module computes a *canonical form* of the bias matrix —
//! lexicographically minimal over the permutation orbit and global sign —
//! and memoizes game values keyed on it, so repeat solves become hash
//! lookups.
//!
//! ## Determinism contract (load-bearing)
//!
//! Cached values must not depend on which orbit representative reached
//! the cache first, on thread count, or on whether the cache is enabled
//! at all — the `qnlg.bench.v1` artifacts are byte-identical across
//! `QNLG_THREADS` and across `QNLG_XOR_CACHE=0/1`. This works because
//! [`ValueCache::solve`] never solves the game it was handed: it solves
//! the **canonical matrix**, with the solver's restart RNG seeded from a
//! hash of the canonical key. Values are therefore a pure function of the
//! canonical form, and the cache is a transparent memo of that function.
//!
//! Soundness of the canonicalization itself is easy: any procedure that
//! only *applies* row/column permutations and a global sign flip maps a
//! game to one with identical classical and quantum values (relabel
//! inputs; negate every strategy sign / vector of one player). Equal
//! canonical forms ⟹ same orbit ⟹ same value. For the symmetric
//! matrices of graph games with ≤ [`EXACT_LIMIT`] vertices the canonical
//! form is the exact orbit minimum (branch-and-bound over simultaneous
//! permutations), so relabelings of the same graph always collide; larger
//! or non-symmetric games fall back to a sort-refinement heuristic that
//! is still sound, just not guaranteed to merge every orbit.
//!
//! Counters `games.xor.cache.hits` / `games.xor.cache.misses` land in the
//! obs snapshot of every artifact; the repro CI job asserts hits > 0 on
//! the fig3 quick run. `QNLG_XOR_CACHE=0` is the escape hatch.

use crate::error::GameError;
use crate::xor::{classical_bias_flat, solve_quantum_flat, SolverOpts, XorGame};
use obs::LazyCounter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering as AtomicOrdering};
use std::sync::{Mutex, OnceLock};

static HITS: LazyCounter = LazyCounter::new("games.xor.cache.hits");
static MISSES: LazyCounter = LazyCounter::new("games.xor.cache.misses");

/// Largest (square, symmetric) bias matrix canonicalized exactly; beyond
/// this the heuristic takes over. 8 covers every graph size the
/// experiments sweep with room to spare — branch-and-bound over 8! orders
/// with prefix pruning is microseconds.
pub const EXACT_LIMIT: usize = 8;

const SHARDS: usize = 8;

/// The pair of values the pipeline needs per game.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GameValues {
    /// Classical bias `β_c` (exact, Gray-code enumeration).
    pub classical_bias: f64,
    /// Quantum bias `β_q` (alternating solver on the canonical matrix).
    pub quantum_bias: f64,
}

impl GameValues {
    /// Classical game value `(1 + β_c)/2`.
    pub fn classical_value(&self) -> f64 {
        (1.0 + self.classical_bias) / 2.0
    }

    /// Quantum game value `(1 + β_q)/2`.
    pub fn quantum_value(&self) -> f64 {
        (1.0 + self.quantum_bias) / 2.0
    }

    /// Whether the quantum value beats the classical by more than `tol`.
    pub fn has_advantage(&self, tol: f64) -> bool {
        self.quantum_value() > self.classical_value() + tol
    }
}

// --- enable/disable state ------------------------------------------------

const STATE_UNSET: u8 = 0;
const STATE_ON: u8 = 1;
const STATE_OFF: u8 = 2;

static ENABLED: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// Whether caching is enabled. First call reads `QNLG_XOR_CACHE` (any
/// value other than `0` — including unset — enables); later calls reuse
/// the decision. [`set_enabled`] overrides either way.
pub fn enabled() -> bool {
    match ENABLED.load(AtomicOrdering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = std::env::var("QNLG_XOR_CACHE").map_or(true, |v| v != "0");
            ENABLED.store(
                if on { STATE_ON } else { STATE_OFF },
                AtomicOrdering::Relaxed,
            );
            on
        }
    }
}

/// Force the cache on or off (tests and ablation benches). Results are
/// identical either way by the determinism contract; only speed and the
/// hit/miss counters change.
pub fn set_enabled(on: bool) {
    ENABLED.store(
        if on { STATE_ON } else { STATE_OFF },
        AtomicOrdering::Relaxed,
    );
}

// --- canonical form ------------------------------------------------------

/// Canonical representative of a bias matrix's orbit under row/column
/// permutations (simultaneous, for symmetric matrices) and global sign.
struct Canonical {
    /// Hash key: `[na, nb, entry bits of the canonical matrix...]`.
    key: Vec<u64>,
    /// The canonical matrix itself (row-major `na × nb`); values are
    /// computed on *this* matrix, never on the input representative.
    mat: Vec<f64>,
    na: usize,
    nb: usize,
}

fn cmp_slices(a: &[f64], b: &[f64]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// `seq ≤ best[..seq.len()]` lexicographically (total order on f64).
fn le_prefix(seq: &[f64], best: &[f64]) -> bool {
    cmp_slices(seq, &best[..seq.len()]) != Ordering::Greater
}

/// Exact lex-minimal simultaneous permutation of a symmetric `n × n`
/// matrix: branch-and-bound over vertex orders, comparing the
/// lower-triangular entry sequence `[m(p₀,p₀), m(p₁,p₀), m(p₁,p₁), ...]`
/// (which determines the symmetric matrix) and pruning any prefix already
/// greater than the best known.
fn lexmin_symmetric_perm(m: &[f64], n: usize) -> Vec<usize> {
    struct Search<'a> {
        m: &'a [f64],
        n: usize,
        perm: Vec<usize>,
        used: Vec<bool>,
        seq: Vec<f64>,
        best_seq: Vec<f64>,
        best_perm: Vec<usize>,
    }
    impl Search<'_> {
        fn rec(&mut self) {
            if self.perm.len() == self.n {
                if self.best_seq.is_empty()
                    || cmp_slices(&self.seq, &self.best_seq) == Ordering::Less
                {
                    self.best_seq.clone_from(&self.seq);
                    self.best_perm.clone_from(&self.perm);
                }
                return;
            }
            for v in 0..self.n {
                if self.used[v] {
                    continue;
                }
                let start = self.seq.len();
                for i in 0..self.perm.len() {
                    self.seq.push(self.m[v * self.n + self.perm[i]]);
                }
                self.seq.push(self.m[v * self.n + v]);
                if self.best_seq.is_empty() || le_prefix(&self.seq, &self.best_seq) {
                    self.used[v] = true;
                    self.perm.push(v);
                    self.rec();
                    self.perm.pop();
                    self.used[v] = false;
                }
                self.seq.truncate(start);
            }
        }
    }
    let mut s = Search {
        m,
        n,
        perm: Vec::with_capacity(n),
        used: vec![false; n],
        seq: Vec::with_capacity(n * (n + 1) / 2),
        best_seq: Vec::new(),
        best_perm: (0..n).collect(),
    };
    s.rec();
    s.best_perm
}

/// Sound sort-refinement heuristic for matrices outside the exact path:
/// alternately sort rows and columns by content until stable (≤ 4
/// passes). Only applies permutations, so it never merges distinct
/// orbits — it just may not merge all of one.
fn sort_refine(m: &mut [f64], na: usize, nb: usize) {
    let mut col = vec![0.0f64; na];
    for _ in 0..4 {
        let mut rows: Vec<usize> = (0..na).collect();
        rows.sort_by(|&a, &b| cmp_slices(&m[a * nb..(a + 1) * nb], &m[b * nb..(b + 1) * nb]));
        let rowed: Vec<f64> = rows
            .iter()
            .flat_map(|&r| m[r * nb..(r + 1) * nb].iter().copied())
            .collect();
        m.copy_from_slice(&rowed);

        let mut cols: Vec<usize> = (0..nb).collect();
        cols.sort_by(|&a, &b| {
            for x in 0..na {
                match m[x * nb + a].total_cmp(&m[x * nb + b]) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            Ordering::Equal
        });
        if rows.iter().enumerate().all(|(i, &r)| i == r)
            && cols.iter().enumerate().all(|(i, &c)| i == c)
        {
            break;
        }
        let snapshot: Vec<f64> = m.to_vec();
        for (j, &c) in cols.iter().enumerate() {
            for (x, cv) in col.iter_mut().enumerate() {
                *cv = snapshot[x * nb + c];
            }
            for x in 0..na {
                m[x * nb + j] = col[x];
            }
        }
    }
}

/// Canonicalize one sign choice of the matrix (already `−0.0`-normalized).
fn canonicalize_signed(m: &[f64], na: usize, nb: usize, symmetric: bool) -> Vec<f64> {
    if symmetric && na <= EXACT_LIMIT {
        let p = lexmin_symmetric_perm(m, na);
        let mut out = vec![0.0; na * nb];
        for i in 0..na {
            for j in 0..nb {
                out[i * nb + j] = m[p[i] * nb + p[j]];
            }
        }
        out
    } else {
        let mut out = m.to_vec();
        sort_refine(&mut out, na, nb);
        out
    }
}

fn canonical_form(game: &XorGame) -> Canonical {
    let (na, nb) = (game.n_a(), game.n_b());
    let bias = game.bias_matrix();
    // Normalize −0.0 → +0.0 so bitwise keys and total_cmp agree on zero.
    let m: Vec<f64> = bias
        .as_slice()
        .iter()
        .map(|&v| if v == 0.0 { 0.0 } else { v })
        .collect();
    let symmetric = na == nb
        && (0..na).all(|x| (0..x).all(|y| m[x * nb + y].to_bits() == m[y * nb + x].to_bits()));
    let neg: Vec<f64> = m.iter().map(|&v| if v == 0.0 { 0.0 } else { -v }).collect();
    let a = canonicalize_signed(&m, na, nb, symmetric);
    let b = canonicalize_signed(&neg, na, nb, symmetric);
    let mat = if cmp_slices(&b, &a) == Ordering::Less { b } else { a };
    let mut key = Vec::with_capacity(2 + mat.len());
    key.push(na as u64);
    key.push(nb as u64);
    key.extend(mat.iter().map(|v| v.to_bits()));
    Canonical { key, mat, na, nb }
}

/// The canonical cache key of a game's bias matrix. Exposed for the
/// relabeling-invariance property tests; equal keys imply equal game
/// values.
pub fn canonical_key(game: &XorGame) -> Vec<u64> {
    canonical_form(game).key
}

/// Deterministic solver seed from a canonical key: SplitMix64-fold of the
/// key words, so random restarts are a pure function of the orbit.
fn key_seed(key: &[u64]) -> u64 {
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    for &w in key {
        acc = runtime::mix64(acc ^ w);
    }
    acc
}

// --- the cache -----------------------------------------------------------

/// Sharded memo of canonical-form → [`GameValues`]. Use [`global`] in the
/// pipeline; tests and benches build private instances with
/// [`ValueCache::new`] for isolation.
pub struct ValueCache {
    shards: [Mutex<HashMap<Vec<u64>, GameValues>>; SHARDS],
}

impl Default for ValueCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ValueCache {
    /// An empty cache.
    pub fn new() -> Self {
        ValueCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard(&self, key: &[u64]) -> &Mutex<HashMap<Vec<u64>, GameValues>> {
        &self.shards[(key_seed(key) % SHARDS as u64) as usize]
    }

    /// Number of cached orbits.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached value.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().expect("cache shard poisoned").clear();
        }
    }

    /// Solves `game` through the cache: canonicalize, look up, and on a
    /// miss compute both values **on the canonical matrix** with the
    /// solver RNG seeded from the canonical key (see the module docs for
    /// why results are then independent of caching, ordering, and thread
    /// count). When the cache is disabled ([`enabled`] is false) the same
    /// canonical computation runs every time — identical results, no
    /// memo.
    ///
    /// # Errors
    /// [`GameError::TooLarge`] if the exact classical enumeration is
    /// infeasible; nothing is cached in that case.
    pub fn solve(&self, game: &XorGame, opts: &SolverOpts) -> Result<GameValues, GameError> {
        let canon = canonical_form(game);
        let use_cache = enabled();
        if use_cache {
            if let Some(v) = self
                .shard(&canon.key)
                .lock()
                .expect("cache shard poisoned")
                .get(&canon.key)
            {
                HITS.inc();
                return Ok(*v);
            }
        }
        let values = solve_canonical(&canon, opts)?;
        if use_cache {
            MISSES.inc();
            self.shard(&canon.key)
                .lock()
                .expect("cache shard poisoned")
                .insert(canon.key, values);
        }
        Ok(values)
    }
}

/// Compute both values on the canonical matrix. Pure function of
/// `(canon, opts)` — the solver RNG is derived from the key.
fn solve_canonical(canon: &Canonical, opts: &SolverOpts) -> Result<GameValues, GameError> {
    let classical_bias = classical_bias_flat(&canon.mat, canon.na, canon.nb)?;
    let dim = canon.na + canon.nb;
    let mut u = vec![0.0; canon.na * dim];
    let mut v = vec![0.0; canon.nb * dim];
    let mut rng = StdRng::seed_from_u64(key_seed(&canon.key));
    let quantum_bias = solve_quantum_flat(
        &canon.mat,
        canon.na,
        canon.nb,
        opts,
        &mut rng,
        &mut u,
        &mut v,
    );
    Ok(GameValues {
        classical_bias,
        quantum_bias,
    })
}

/// The process-wide cache the experiment pipeline shares.
pub fn global() -> &'static ValueCache {
    static GLOBAL: OnceLock<ValueCache> = OnceLock::new();
    GLOBAL.get_or_init(ValueCache::new)
}

/// Solves one game through the [`global`] cache.
///
/// # Errors
/// [`GameError::TooLarge`] if the classical enumeration is infeasible.
pub fn solve_values(game: &XorGame, opts: &SolverOpts) -> Result<GameValues, GameError> {
    global().solve(game, opts)
}

/// Solves a batch of games through the [`global`] cache, fanned out over
/// the [`runtime`] chunk-cursor pool.
///
/// There is no RNG parameter: per-item determinism here is *stronger*
/// than the usual `par_sweep` stream-splitting — each value is a pure
/// function of its game's canonical form (the solver RNG is derived from
/// the canonical key), so results are independent of index, thread
/// count, and batch composition.
pub fn solve_batch(games: &[XorGame], opts: &SolverOpts) -> Vec<Result<GameValues, GameError>> {
    runtime::par_map(games, |_, game| solve_values(game, opts))
}

/// [`solve_batch`] with an explicit worker count (determinism tests).
pub fn solve_batch_threads(
    threads: usize,
    games: &[XorGame],
    opts: &SolverOpts,
) -> Vec<Result<GameValues, GameError>> {
    runtime::par_map_threads(threads, games, |_, game| solve_values(game, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AffinityGraph;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn relabel(g: &AffinityGraph, perm: &[usize]) -> AffinityGraph {
        let n = g.n_vertices();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((perm[i], perm[j], g.is_exclusive(i, j)));
            }
        }
        AffinityGraph::from_edges(n, &edges)
    }

    fn random_perm<R: Rng>(n: usize, rng: &mut R) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..i + 1);
            p.swap(i, j);
        }
        p
    }

    #[test]
    fn canonical_key_invariant_under_relabeling() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [3usize, 4, 5, 6] {
            for _ in 0..8 {
                let g = AffinityGraph::random(n, 0.5, &mut rng);
                let base = canonical_key(&g.to_xor_game(true));
                for _ in 0..4 {
                    let p = random_perm(n, &mut rng);
                    let relabeled = relabel(&g, &p);
                    assert_eq!(
                        canonical_key(&relabeled.to_xor_game(true)),
                        base,
                        "n={n} perm={p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn canonical_key_invariant_under_global_sign() {
        // Complementing every edge label of the 2-vertex off-diagonal
        // game negates the whole bias matrix.
        let g = AffinityGraph::from_edges(2, &[(0, 1, true)]);
        let h = AffinityGraph::from_edges(2, &[(0, 1, false)]);
        assert_eq!(
            canonical_key(&g.to_xor_game(false)),
            canonical_key(&h.to_xor_game(false))
        );
    }

    #[test]
    fn distinct_games_get_distinct_keys() {
        let g = AffinityGraph::from_edges(3, &[(0, 1, true)]);
        let h = AffinityGraph::from_edges(3, &[(0, 1, true), (1, 2, true)]);
        assert_ne!(
            canonical_key(&g.to_xor_game(true)),
            canonical_key(&h.to_xor_game(true))
        );
    }

    #[test]
    fn cache_hit_returns_identical_values() {
        let cache = ValueCache::new();
        let opts = SolverOpts::default();
        let mut rng = StdRng::seed_from_u64(12);
        let g = AffinityGraph::random(4, 0.5, &mut rng);
        let game = g.to_xor_game(true);
        let first = cache.solve(&game, &opts).unwrap();
        let second = cache.solve(&game, &opts).unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.len(), 1);
        // A relabeled copy hits the same entry.
        let relabeled = relabel(&g, &[2, 0, 3, 1]).to_xor_game(true);
        let third = cache.solve(&relabeled, &opts).unwrap();
        assert_eq!(first, third);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cached_values_match_direct_solver() {
        let cache = ValueCache::new();
        let opts = SolverOpts::default();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..6 {
            let g = AffinityGraph::random(5, 0.4, &mut rng);
            let game = g.to_xor_game(true);
            let cached = cache.solve(&game, &opts).unwrap();
            let direct_c = game.classical_bias().unwrap();
            assert!(
                (cached.classical_bias - direct_c).abs() < 1e-9,
                "classical {} vs {direct_c}",
                cached.classical_bias
            );
            let direct_q = game.quantum_solution_with(&opts, &mut rng).bias;
            assert!(
                (cached.quantum_bias - direct_q).abs() < 1e-6,
                "quantum {} vs {direct_q}",
                cached.quantum_bias
            );
        }
    }

    #[test]
    fn batch_matches_sequential_and_is_thread_invariant() {
        let opts = SolverOpts::default();
        let mut rng = StdRng::seed_from_u64(14);
        let games: Vec<XorGame> = (0..12)
            .map(|_| AffinityGraph::random(4, 0.5, &mut rng).to_xor_game(true))
            .collect();
        let one = solve_batch_threads(1, &games, &opts);
        let four = solve_batch_threads(4, &games, &opts);
        assert_eq!(one, four);
        for (g, r) in games.iter().zip(&one) {
            assert_eq!(solve_values(g, &opts).unwrap(), r.clone().unwrap());
        }
    }

    #[test]
    fn too_large_games_error_and_are_not_cached() {
        use qmath::RMatrix;
        let n = crate::xor::ENUM_LIMIT + 1;
        let prob = RMatrix::from_fn(n, 2, |_, _| 1.0 / (2 * n) as f64);
        let game = XorGame::new(prob, vec![vec![false; 2]; n]);
        let cache = ValueCache::new();
        assert!(cache.solve(&game, &SolverOpts::default()).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn heuristic_path_is_sound_for_rectangular_games() {
        // Rectangular (non-symmetric) games take the sort-refinement
        // path; cached values must still match the direct solver.
        use qmath::RMatrix;
        let prob = RMatrix::from_fn(2, 3, |_, _| 1.0 / 6.0);
        let target = vec![vec![false, true, false], vec![true, false, false]];
        let game = XorGame::new(prob, target);
        let cache = ValueCache::new();
        let cached = cache.solve(&game, &SolverOpts::default()).unwrap();
        let direct = game.classical_bias().unwrap();
        assert!((cached.classical_bias - direct).abs() < 1e-12);
    }
}
