//! The sharded, structure-of-arrays, batch-advanced Figure 4 engine.
//!
//! [`crate::sim::run_simulation`] advances a `Vec<Server>` one timestep
//! at a time with a caller-supplied generator — the right contract for
//! paper-sized runs (100 balancers) and for bit-stable history, but a
//! dead end at the ROADMAP's "millions of users" scale: array-of-structs
//! queues, per-step allocations, and a single global RNG that serializes
//! everything. This module is the scale path. Same model, different
//! shape:
//!
//! - **Structure of arrays.** A server is a row across flat arrays —
//!   queue counts (`q_len`), in-service slots (`in_service`), wait
//!   accumulators (`served`/`total_wait`), and two FIFO *lanes* of `u32`
//!   arrival steps (type-C and type-E). Lanes are exact for the
//!   disciplines whose serve choice depends only on (lane, age) — the
//!   paper's rule, C-priority-single, and exclusive-first — because with
//!   a single C subtype "the first type-C and the next of the same
//!   subtype" is just the two oldest entries of the C lane.
//!   Order-sensitive disciplines (FIFO-paired-C, single-slot) interleave
//!   lanes within a step and stay on the compatibility path
//!   ([`SimError::UnsupportedDiscipline`]).
//! - **Sharding.** Servers are partitioned into contiguous shards, and
//!   balancer *pairs* into pair-shards, advanced by [`runtime`] workers.
//!   Each epoch runs two lock-free phases: pair-shards draw arrivals and
//!   assignments, appending packed `(step, server, lane)` entries to one
//!   outbox per server-shard (phase A); server-shards then drain their
//!   inboxes in pair-shard order and serve (phase B). Cross-shard
//!   handoff is only ever through these per-epoch mailboxes — the step
//!   path takes no locks.
//! - **Determinism at any shard/worker count.** The PR 1/PR 5 stream
//!   pattern, pushed one level deeper: one master seed, and each balancer
//!   pair owns the [`runtime::SplitMix64`] sub-stream
//!   `stream_seed(master, pair)` — a shard owns the streams of its pair
//!   range, so every draw is a pure function of `(master, pair, step)`
//!   and the partition only decides *who computes it*. Shard-local stats
//!   merge in shard-index order; wait percentiles come from the
//!   order-invariant bottom-R reservoir ([`crate::metrics::WaitReservoir`]),
//!   seeded from the reserved stream index past the pair range. Results
//!   are byte-identical across `QNLG_THREADS` and shard counts.
//!
//! The one deliberate semantic difference from the step-at-a-time loop:
//! informed strategies (power-of-two) see queue lengths refreshed per
//! *epoch*, not per step — the staleness any real probe-based balancer
//! has at this scale. Epoch length 1 recovers per-step freshness.

use crate::error::SimError;
use crate::metrics::{SimResult, WaitReservoir};
use crate::server::Discipline;
use crate::sim::{
    SimConfig, CC_COLOCATED, CC_ROUNDS, OTHER_ROUNDS, OTHER_SPLIT, QUEUE_SERIES_WINDOWS,
    QUEUE_TOTAL, SIM_RUNS, SIM_STEPS, TASKS_ASSIGNED,
};
use crate::task::ArrivalModel;
use games::chsh::flipped_bits;
use qsim::WernerPair;
use runtime::{par_map_mut_threads, stream_seed, SplitMix64};
use std::collections::VecDeque;

/// Default steps per epoch: long enough to amortize the two phase
/// dispatches and the mailbox churn, short enough that informed
/// strategies' queue snapshot stays fresh.
pub const DEFAULT_EPOCH_LEN: u64 = 64;

/// Mailbox entries must address a step within the epoch in 16 bits.
const MAX_EPOCH_LEN: u64 = u16::MAX as u64;

/// Configuration of one sharded run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// The simulated system (balancers, servers, horizon, discipline).
    pub sim: SimConfig,
    /// Arrival model (the engine keeps per-balancer phase state itself).
    pub workload: ArrivalModel,
    /// Server/pair shard count. Results are byte-identical for any value;
    /// it only controls parallel grain. Clamped to at least 1 by
    /// [`ScaleConfig::validate`] callers via error, not silently.
    pub shards: usize,
    /// Steps per epoch (mailbox batch size), capped at 65535.
    pub epoch_len: u64,
    /// Worker threads; 0 means the configured count
    /// ([`runtime::thread_count`]).
    pub threads: usize,
}

impl ScaleConfig {
    /// A sharded run of `sim` under `workload` with default epoch length
    /// and auto shard/worker counts.
    pub fn new(sim: SimConfig, workload: ArrivalModel) -> Self {
        ScaleConfig {
            sim,
            workload,
            shards: default_shards(sim.n_servers),
            epoch_len: DEFAULT_EPOCH_LEN,
            threads: 0,
        }
    }

    /// Checks the configuration, including the u32 step-counter bound the
    /// packed lane entries impose.
    pub fn validate(&self) -> Result<(), SimError> {
        self.sim.validate()?;
        if !self.workload.is_valid() {
            return Err(SimError::BadArrivalModel {
                model: self.workload.label(),
            });
        }
        if self.shards == 0 {
            return Err(SimError::NoShards);
        }
        if self.epoch_len == 0 {
            return Err(SimError::EmptyEpoch);
        }
        // Arrival steps live in u32 lanes and mailbox entries.
        let horizon = self.sim.warmup + self.sim.timesteps; // validated add
        if horizon > u32::MAX as u64 || self.sim.n_servers > u32::MAX as usize {
            return Err(SimError::HorizonOverflow {
                warmup: self.sim.warmup,
                timesteps: self.sim.timesteps,
            });
        }
        Ok(())
    }
}

/// A deterministic shard count for a given system size: one shard per
/// ~64k servers, between 1 and 16. Fixed by size (never by machine) so
/// artifacts stay machine-independent even though results are
/// shard-count invariant anyway.
pub fn default_shards(n_servers: usize) -> usize {
    (n_servers / 65_536).clamp(1, 16).max(1)
}

/// Assignment kernels of the sharded engine.
///
/// These are closed-form re-implementations of the [`crate::strategy`]
/// menu entries that scale runs sweep; labels match so downstream tables
/// and checks treat both engines uniformly. Stateful strategies (round
/// robin, pipeline, degradation governor) stay on the compatibility
/// path, which accepts any `dyn AssignmentStrategy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleStrategy {
    /// Each balancer picks a uniformly random server.
    UniformRandom,
    /// Probe two random servers, pick the shorter queue (epoch-stale).
    PowerOfTwoChoices,
    /// Paired, always split.
    PairedAlwaysSplit,
    /// Paired, match types (`a = x, b = y`).
    PairedMatchTypes,
    /// Paired, flipped CHSH on the Werner kernel
    /// ([`games::chsh::flipped_bits`]): P(same server) = (1 ± v/√2)/2,
    /// + exactly when both tasks are type-C.
    PairedQuantum {
        /// Probability a fresh pair is available (misses split).
        availability: f64,
        /// Bell-pair visibility (Werner scaling of the correlation).
        visibility: f64,
    },
}

impl ScaleStrategy {
    /// The ideal quantum strategy.
    pub fn quantum_ideal() -> Self {
        ScaleStrategy::PairedQuantum {
            availability: 1.0,
            visibility: 1.0,
        }
    }

    /// Label for report tables (matches the [`crate::strategy`] names).
    pub fn name(&self) -> &'static str {
        match self {
            ScaleStrategy::UniformRandom => "uniform-random",
            ScaleStrategy::PowerOfTwoChoices => "power-of-two",
            ScaleStrategy::PairedAlwaysSplit => "paired-always-split",
            ScaleStrategy::PairedMatchTypes => "paired-match-types",
            ScaleStrategy::PairedQuantum { .. } => "paired-quantum",
        }
    }

    fn is_paired(&self) -> bool {
        matches!(
            self,
            ScaleStrategy::PairedAlwaysSplit
                | ScaleStrategy::PairedMatchTypes
                | ScaleStrategy::PairedQuantum { .. }
        )
    }

    fn needs_queue_lens(&self) -> bool {
        matches!(self, ScaleStrategy::PowerOfTwoChoices)
    }
}

/// Contiguous partition range `i` of `n` items over `shards` parts.
#[inline]
fn part(i: usize, n: usize, shards: usize) -> (usize, usize) {
    (i * n / shards, (i + 1) * n / shards)
}

/// The shard whose [`part`] range contains item `s` — the exact inverse
/// of `part`'s floored boundaries: `ceil((s+1)·shards / n) - 1`, written
/// division-safe as `floor((s·shards + shards - 1) / n)`.
#[inline]
fn part_of(s: usize, n: usize, shards: usize) -> usize {
    (s * shards + shards - 1) / n
}

/// Packed mailbox entry: `step_off << 40 | server << 8 | lane`.
#[inline]
fn pack(step_off: u64, server: u32, colocate: bool) -> u64 {
    (step_off << 40) | (u64::from(server) << 8) | u64::from(colocate)
}

/// One shard of balancer pairs: the pair sub-streams it owns, the MMPP
/// phase bits of its balancers, and one outbox per server shard.
struct PairShard {
    g0: usize,
    g1: usize,
    /// Raw SplitMix64 state per owned pair (flat, resumable).
    rng: Vec<u64>,
    /// MMPP phase per owned pair: bit 0 = left balancer hot, bit 1 =
    /// right. Both start hot, like [`crate::task::BurstyWorkload`].
    hot: Vec<u8>,
    /// Packed task handoffs, one outbox per server shard, refilled each
    /// epoch (allocation-free at steady state).
    outbox: Vec<Vec<u64>>,
    cc_rounds: u64,
    cc_colocated: u64,
    other_rounds: u64,
    other_split: u64,
}

impl PairShard {
    /// Phase A for steps `[e0, e1)`: draw arrivals and assignments for
    /// every owned pair, appending handoffs in (step, pair) order — which
    /// is why server shards can drain inboxes sequentially per step with
    /// no sort.
    #[allow(clippy::too_many_arguments)]
    fn run_epoch(
        &mut self,
        e0: u64,
        e1: u64,
        cfg: &ScaleConfig,
        strategy: ScaleStrategy,
        n_balancers: usize,
        n_servers: u32,
        server_shards: usize,
        queue_lens: &[u32],
    ) -> u64 {
        for b in self.outbox.iter_mut() {
            b.clear();
        }
        let model = cfg.workload;
        let switch = model.switch_prob();
        let warmup = cfg.sim.warmup;
        let paired = strategy.is_paired();
        // The quantum pairing's Werner kernel (visibility validated by
        // `run_scaled`); unused by the other strategies.
        let kernel = match strategy {
            ScaleStrategy::PairedQuantum { visibility, .. } => {
                WernerPair::new(visibility).expect("validated visibility")
            }
            _ => WernerPair::ideal(),
        };
        let mut assigned = 0u64;
        for t in e0..e1 {
            let off = t - e0;
            for g in self.g0..self.g1 {
                let li = g - self.g0;
                let mut rng = SplitMix64::from_raw(self.rng[li]);
                let full = 2 * g + 1 < n_balancers;

                // Arrival draws, left then right (per-balancer MMPP
                // phase chains flip before each type draw).
                let mut hot = self.hot[li];
                if switch > 0.0 && rng.next_f64() < switch {
                    hot ^= 1;
                }
                let x_c = rng.next_f64() < model.p_colocate(t, hot & 1 != 0);
                let y_c = if full {
                    if switch > 0.0 && rng.next_f64() < switch {
                        hot ^= 2;
                    }
                    rng.next_f64() < model.p_colocate(t, hot & 2 != 0)
                } else {
                    false
                };
                self.hot[li] = hot;

                // Assignment draws.
                let (sl, sr) = if full {
                    match strategy {
                        ScaleStrategy::UniformRandom => {
                            (rng.gen_range(n_servers), Some(rng.gen_range(n_servers)))
                        }
                        ScaleStrategy::PowerOfTwoChoices => {
                            let l = probe_two(&mut rng, n_servers, queue_lens);
                            let r = probe_two(&mut rng, n_servers, queue_lens);
                            (l, Some(r))
                        }
                        _ => {
                            // Pre-shared randomness: two distinct
                            // candidate servers per round.
                            let s0 = rng.gen_range(n_servers);
                            let mut s1 = rng.gen_range(n_servers - 1);
                            if s1 >= s0 {
                                s1 += 1;
                            }
                            let (a, b) = match strategy {
                                ScaleStrategy::PairedAlwaysSplit => (false, true),
                                ScaleStrategy::PairedMatchTypes => (x_c, y_c),
                                ScaleStrategy::PairedQuantum { availability, .. } => {
                                    if rng.next_f64() < availability {
                                        let (x, y) = (usize::from(x_c), usize::from(y_c));
                                        flipped_bits(&kernel, x, y, rng.next_f64())
                                    } else {
                                        (false, true)
                                    }
                                }
                                _ => unreachable!("non-paired handled above"),
                            };
                            (
                                if a { s1 } else { s0 },
                                Some(if b { s1 } else { s0 }),
                            )
                        }
                    }
                } else {
                    // Odd balancer out: uniform for paired strategies
                    // (the legacy fallback); native kernel otherwise.
                    let s = match strategy {
                        ScaleStrategy::PowerOfTwoChoices => {
                            probe_two(&mut rng, n_servers, queue_lens)
                        }
                        _ => rng.gen_range(n_servers),
                    };
                    (s, None)
                };
                self.rng[li] = rng.raw();

                let shard_of = |s: u32| part_of(s as usize, n_servers as usize, server_shards);
                self.outbox[shard_of(sl)].push(pack(off, sl, x_c));
                assigned += 1;
                if let Some(sr) = sr {
                    self.outbox[shard_of(sr)].push(pack(off, sr, y_c));
                    assigned += 1;
                    if paired && t >= warmup {
                        let same = sl == sr;
                        if x_c && y_c {
                            self.cc_rounds += 1;
                            self.cc_colocated += u64::from(same);
                        } else {
                            self.other_rounds += 1;
                            self.other_split += u64::from(!same);
                        }
                    }
                }
            }
        }
        assigned
    }
}

#[inline]
fn probe_two(rng: &mut SplitMix64, n_servers: u32, queue_lens: &[u32]) -> u32 {
    let s1 = rng.gen_range(n_servers);
    let s2 = rng.gen_range(n_servers);
    if queue_lens[s1 as usize] <= queue_lens[s2 as usize] {
        s1
    } else {
        s2
    }
}

/// One shard of servers in structure-of-arrays form.
struct ServerShard {
    s0: usize,
    s1: usize,
    /// FIFO lanes of arrival steps, per local server.
    c_lane: Vec<VecDeque<u32>>,
    e_lane: Vec<VecDeque<u32>>,
    /// Queue length per local server (`c + e`), the probe snapshot source.
    q_len: Vec<u32>,
    /// Service slots filled in the server's latest step (0, 1, or 2).
    in_service: Vec<u8>,
    /// Per-server completion counter — the reservoir sample sequence.
    served_seq: Vec<u32>,
    /// Dense list of local indices with non-empty queues; only these are
    /// stepped, so an idle system costs arrivals, not O(servers)/step.
    active: Vec<u32>,
    in_active: Vec<bool>,
    /// Running total queue length of the shard (post-serve).
    q_total: u64,
    /// Inbox read cursors, one per pair shard, reset each epoch.
    cursor: Vec<usize>,
    // Window statistics (merged in shard-index order at the end).
    queue_len_sum: u64,
    max_q: u32,
    served: u64,
    total_wait: u64,
    dual_serves: u64,
    waits: WaitReservoir,
    win_queue_sum: Vec<u64>,
    win_samples: Vec<u64>,
}

impl ServerShard {
    fn new(s0: usize, s1: usize, pair_shards: usize, windows: usize, resv_seed: u64) -> Self {
        let n = s1 - s0;
        ServerShard {
            s0,
            s1,
            c_lane: (0..n).map(|_| VecDeque::new()).collect(),
            e_lane: (0..n).map(|_| VecDeque::new()).collect(),
            q_len: vec![0; n],
            in_service: vec![0; n],
            served_seq: vec![0; n],
            active: Vec::new(),
            in_active: vec![false; n],
            q_total: 0,
            cursor: vec![0; pair_shards],
            queue_len_sum: 0,
            max_q: 0,
            served: 0,
            total_wait: 0,
            dual_serves: 0,
            waits: WaitReservoir::new(resv_seed),
            win_queue_sum: vec![0; windows],
            win_samples: vec![0; windows],
        }
    }

    /// Phase B for steps `[e0, e1)`: per step, drain every pair shard's
    /// handoffs for this step (in pair-shard order — global balancer
    /// order, matching the one-shard run exactly), then serve the active
    /// servers and accumulate window statistics.
    fn run_epoch(&mut self, e0: u64, e1: u64, me: usize, inboxes: &[&Vec<u64>], cfg: &ScaleConfig) {
        debug_assert_eq!(inboxes.len(), self.cursor.len());
        let _ = me;
        for c in self.cursor.iter_mut() {
            *c = 0;
        }
        let discipline = cfg.sim.discipline;
        let warmup = cfg.sim.warmup;
        let timesteps = cfg.sim.timesteps;
        let windows = self.win_queue_sum.len();
        for t in e0..e1 {
            let off = t - e0;
            // Deliver this step's arrivals.
            for (a, inbox) in inboxes.iter().enumerate() {
                let cur = &mut self.cursor[a];
                while *cur < inbox.len() {
                    let entry = inbox[*cur];
                    if entry >> 40 != off {
                        break;
                    }
                    *cur += 1;
                    let server = (entry >> 8) as u32;
                    let li = server as usize - self.s0;
                    if entry & 1 != 0 {
                        self.c_lane[li].push_back(t as u32);
                    } else {
                        self.e_lane[li].push_back(t as u32);
                    }
                    self.q_len[li] += 1;
                    self.q_total += 1;
                    if !self.in_active[li] {
                        self.in_active[li] = true;
                        self.active.push(li as u32);
                    }
                }
            }
            // Serve. Every non-empty server is active; empty servers have
            // nothing to do, so skipping them is exact.
            let measured = t >= warmup;
            let mut i = 0;
            while i < self.active.len() {
                let li = self.active[i] as usize;
                let mut slots = 0u8;
                let mut wait_sum = 0u64;
                let mut w0 = 0u64;
                let mut w1 = 0u64;
                match discipline {
                    Discipline::PaperPairedC => {
                        if let Some(at) = self.c_lane[li].pop_front() {
                            w0 = t - u64::from(at);
                            slots = 1;
                            if let Some(at2) = self.c_lane[li].pop_front() {
                                w1 = t - u64::from(at2);
                                slots = 2;
                            }
                        } else if let Some(at) = self.e_lane[li].pop_front() {
                            w0 = t - u64::from(at);
                            slots = 1;
                        }
                    }
                    Discipline::CPrioritySingle => {
                        if let Some(at) = self.c_lane[li].pop_front() {
                            w0 = t - u64::from(at);
                            slots = 1;
                        } else if let Some(at) = self.e_lane[li].pop_front() {
                            w0 = t - u64::from(at);
                            slots = 1;
                        }
                    }
                    Discipline::ExclusiveFirst => {
                        if let Some(at) = self.e_lane[li].pop_front() {
                            w0 = t - u64::from(at);
                            slots = 1;
                        } else if let Some(at) = self.c_lane[li].pop_front() {
                            w0 = t - u64::from(at);
                            slots = 1;
                            if let Some(at2) = self.c_lane[li].pop_front() {
                                w1 = t - u64::from(at2);
                                slots = 2;
                            }
                        }
                    }
                    Discipline::FifoPairedC | Discipline::SingleSlot => {
                        unreachable!("rejected by run_scaled validation")
                    }
                }
                self.in_service[li] = slots;
                if slots > 0 {
                    wait_sum += w0;
                    if slots == 2 {
                        wait_sum += w1;
                        self.dual_serves += 1;
                    }
                    self.q_len[li] -= u32::from(slots);
                    self.q_total -= u64::from(slots);
                    if measured {
                        self.served += u64::from(slots);
                        self.total_wait += wait_sum;
                        let sid = (self.s0 + li) as u64;
                        let seq = &mut self.served_seq[li];
                        self.waits.offer(sid, u64::from(*seq), w0);
                        *seq += 1;
                        if slots == 2 {
                            self.waits.offer(sid, u64::from(*seq), w1);
                            *seq += 1;
                        }
                    }
                }
                if measured {
                    self.max_q = self.max_q.max(self.q_len[li]);
                }
                if self.q_len[li] == 0 {
                    self.in_active[li] = false;
                    self.active.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if measured {
                self.queue_len_sum += self.q_total;
                let w = ((t - warmup) as usize * windows) / timesteps as usize;
                self.win_queue_sum[w] += self.q_total;
                self.win_samples[w] += (self.s1 - self.s0) as u64;
            }
        }
    }
}

/// Runs one sharded simulation with deterministic per-pair sub-streams
/// derived from `master_seed`.
///
/// The result is byte-identical for any `cfg.shards` and `cfg.threads`;
/// informed strategies additionally depend on `cfg.epoch_len` (snapshot
/// staleness), all others do not.
pub fn run_scaled(
    cfg: &ScaleConfig,
    strategy: ScaleStrategy,
    master_seed: u64,
) -> Result<SimResult, SimError> {
    cfg.validate()?;
    match cfg.sim.discipline {
        Discipline::FifoPairedC | Discipline::SingleSlot => {
            return Err(SimError::UnsupportedDiscipline {
                discipline: cfg.sim.discipline.label(),
            });
        }
        _ => {}
    }
    if strategy.is_paired() && cfg.sim.n_servers < 2 {
        return Err(SimError::TooFewServers {
            n_servers: cfg.sim.n_servers,
            min: 2,
        });
    }
    if let ScaleStrategy::PairedQuantum {
        availability,
        visibility,
    } = strategy
    {
        assert!((0.0..=1.0).contains(&availability), "bad availability");
        assert!((0.0..=1.0).contains(&visibility), "bad visibility");
    }

    let n_balancers = cfg.sim.n_balancers;
    let n_servers = cfg.sim.n_servers;
    let n_groups = n_balancers.div_ceil(2);
    let shards = cfg.shards;
    let threads = if cfg.threads == 0 {
        runtime::thread_count()
    } else {
        cfg.threads
    };
    let epoch_len = cfg.epoch_len.min(MAX_EPOCH_LEN);
    let total_steps = cfg.sim.warmup + cfg.sim.timesteps;
    let windows = QUEUE_SERIES_WINDOWS.min(cfg.sim.timesteps as usize);
    // Reserved stream index past the pair range: the reservoir seed is
    // drawn from the run's master stream without touching any pair's.
    let resv_seed = stream_seed(master_seed, n_groups as u64);

    let mut pair_shards: Vec<PairShard> = (0..shards)
        .map(|a| {
            let (g0, g1) = part(a, n_groups, shards);
            PairShard {
                g0,
                g1,
                rng: (g0..g1)
                    .map(|g| stream_seed(master_seed, g as u64))
                    .collect(),
                hot: vec![0b11; g1 - g0],
                outbox: (0..shards).map(|_| Vec::new()).collect(),
                cc_rounds: 0,
                cc_colocated: 0,
                other_rounds: 0,
                other_split: 0,
            }
        })
        .collect();
    let mut server_shards: Vec<ServerShard> = (0..shards)
        .map(|b| {
            let (s0, s1) = part(b, n_servers, shards);
            ServerShard::new(s0, s1, shards, windows, resv_seed)
        })
        .collect();

    let needs_lens = strategy.needs_queue_lens();
    let mut queue_lens: Vec<u32> = vec![0; if needs_lens { n_servers } else { 0 }];

    let mut e0 = 0u64;
    while e0 < total_steps {
        let e1 = (e0 + epoch_len).min(total_steps);
        if needs_lens {
            // Epoch-start snapshot, assembled in shard order.
            for ss in &server_shards {
                queue_lens[ss.s0..ss.s1].copy_from_slice(&ss.q_len);
            }
        }
        let queue_lens_ref: &[u32] = &queue_lens;
        let cfg_ref = cfg;
        par_map_mut_threads(threads, &mut pair_shards, |_, ps| {
            ps.run_epoch(
                e0,
                e1,
                cfg_ref,
                strategy,
                n_balancers,
                n_servers as u32,
                shards,
                queue_lens_ref,
            )
        });
        let pair_ref: &[PairShard] = &pair_shards;
        par_map_mut_threads(threads, &mut server_shards, |b, ss| {
            let inboxes: Vec<&Vec<u64>> = pair_ref.iter().map(|ps| &ps.outbox[b]).collect();
            ss.run_epoch(e0, e1, b, &inboxes, cfg_ref);
        });
        e0 = e1;
    }

    // Merge shard-local statistics in shard-index order.
    let mut queue_len_sum = 0u64;
    let mut max_queue = 0u32;
    let mut served = 0u64;
    let mut total_wait = 0u64;
    let mut win_queue_sum = vec![0u64; windows];
    let mut win_samples = vec![0u64; windows];
    let mut waits = WaitReservoir::new(resv_seed);
    for ss in &server_shards {
        queue_len_sum += ss.queue_len_sum;
        max_queue = max_queue.max(ss.max_q);
        served += ss.served;
        total_wait += ss.total_wait;
        for (acc, &v) in win_queue_sum.iter_mut().zip(&ss.win_queue_sum) {
            *acc += v;
        }
        for (acc, &v) in win_samples.iter_mut().zip(&ss.win_samples) {
            *acc += v;
        }
        waits.merge(&ss.waits);
    }
    let mut cc_rounds = 0u64;
    let mut cc_colocated = 0u64;
    let mut other_rounds = 0u64;
    let mut other_split = 0u64;
    for ps in &pair_shards {
        cc_rounds += ps.cc_rounds;
        cc_colocated += ps.cc_colocated;
        other_rounds += ps.other_rounds;
        other_split += ps.other_split;
    }

    let generated = n_balancers as u64 * cfg.sim.timesteps;
    let samples = cfg.sim.timesteps * n_servers as u64;
    let wait_samples = waits.sorted_waits();

    // Obs flushes: once per run, never on the step path.
    SIM_RUNS.inc();
    SIM_STEPS.add(total_steps);
    TASKS_ASSIGNED.add(n_balancers as u64 * total_steps);
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
        strategy: strategy.name(),
        load: cfg.sim.load(),
        avg_queue_len: queue_len_sum as f64 / samples as f64,
        avg_wait: if served > 0 {
            total_wait as f64 / served as f64
        } else {
            f64::NAN
        },
        p50_wait: crate::metrics::percentile(&wait_samples, 0.5),
        p99_wait: crate::metrics::percentile(&wait_samples, 0.99),
        max_queue_len: max_queue as usize,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ArrivalModel;

    fn quick(load: f64, n_balancers: usize) -> ScaleConfig {
        let n_servers = (n_balancers as f64 / load).round() as usize;
        ScaleConfig {
            sim: SimConfig {
                n_balancers,
                n_servers,
                timesteps: 400,
                warmup: 100,
                discipline: Discipline::PaperPairedC,
            },
            workload: ArrivalModel::paper(),
            shards: 4,
            epoch_len: 32,
            threads: 1,
        }
    }

    /// NaN-tolerant result fingerprint (`cc` rates are NaN for unpaired
    /// strategies, and NaN != NaN under `PartialEq`).
    fn key(r: &SimResult) -> String {
        format!("{r:?}")
    }

    #[test]
    fn results_are_shard_and_thread_count_invariant() {
        for strategy in [
            ScaleStrategy::quantum_ideal(),
            ScaleStrategy::UniformRandom,
            ScaleStrategy::PowerOfTwoChoices,
            ScaleStrategy::PairedMatchTypes,
        ] {
            let mut cfg = quick(1.2, 61); // odd: exercises the half pair
            let reference = {
                cfg.shards = 1;
                cfg.threads = 1;
                key(&run_scaled(&cfg, strategy, 0xc0ffee).unwrap())
            };
            for (shards, threads) in [(1, 2), (4, 1), (4, 3), (16, 4), (7, 2)] {
                cfg.shards = shards;
                cfg.threads = threads;
                let r = key(&run_scaled(&cfg, strategy, 0xc0ffee).unwrap());
                assert_eq!(
                    r,
                    reference,
                    "{}: shards={shards} threads={threads} diverged",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn epoch_length_does_not_change_uninformed_results() {
        // Only informed strategies may see epoch boundaries (snapshot
        // staleness); everything else must be epoch-length invariant.
        let mut cfg = quick(1.2, 60);
        let reference = key(&run_scaled(&cfg, ScaleStrategy::quantum_ideal(), 9).unwrap());
        for epoch_len in [1, 7, 100, 10_000] {
            cfg.epoch_len = epoch_len;
            let r = key(&run_scaled(&cfg, ScaleStrategy::quantum_ideal(), 9).unwrap());
            assert_eq!(r, reference, "epoch_len={epoch_len} diverged");
        }
    }

    #[test]
    fn quantum_beats_classical_at_the_knee() {
        let cfg = quick(1.2, 200);
        let classical = run_scaled(&cfg, ScaleStrategy::UniformRandom, 7).unwrap();
        let quantum = run_scaled(&cfg, ScaleStrategy::quantum_ideal(), 7).unwrap();
        assert!(
            quantum.avg_queue_len < classical.avg_queue_len,
            "quantum {} vs classical {}",
            quantum.avg_queue_len,
            classical.avg_queue_len
        );
    }

    #[test]
    fn pair_stats_match_chsh_rates() {
        let mut cfg = quick(1.0, 400);
        cfg.sim.timesteps = 600;
        let r = run_scaled(&cfg, ScaleStrategy::quantum_ideal(), 11).unwrap();
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
    fn agrees_with_the_compat_engine_statistically() {
        // Different generators, same model: the sharded engine and the
        // step-at-a-time loop must agree on the physics (mean queue
        // lengths within Monte-Carlo noise at a stable load).
        use crate::task::BernoulliWorkload;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let cfg = quick(1.0, 120);
        let scaled = run_scaled(&cfg, ScaleStrategy::quantum_ideal(), 5).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let legacy = crate::sim::run_simulation(
            cfg.sim,
            crate::strategy::Strategy::quantum_ideal(),
            &mut BernoulliWorkload::paper(),
            &mut rng,
        );
        let rel = (scaled.avg_queue_len - legacy.avg_queue_len).abs()
            / legacy.avg_queue_len.max(0.05);
        assert!(
            rel < 0.35,
            "scaled {} vs legacy {} (rel {rel})",
            scaled.avg_queue_len,
            legacy.avg_queue_len
        );
        // Serve accounting conserves: in a stable system nearly all
        // generated tasks are served within the window.
        assert!(scaled.served > 0 && scaled.generated > 0);
    }

    #[test]
    fn disciplines_match_compat_semantics_statistically() {
        use crate::task::BernoulliWorkload;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for discipline in [
            Discipline::PaperPairedC,
            Discipline::CPrioritySingle,
            Discipline::ExclusiveFirst,
        ] {
            let mut cfg = quick(0.9, 120);
            cfg.sim.discipline = discipline;
            let scaled = run_scaled(&cfg, ScaleStrategy::UniformRandom, 3).unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            let legacy = crate::sim::run_simulation(
                cfg.sim,
                crate::strategy::Strategy::UniformRandom,
                &mut BernoulliWorkload::paper(),
                &mut rng,
            );
            let diff = (scaled.avg_wait - legacy.avg_wait).abs();
            assert!(
                diff < legacy.avg_wait.max(1.0) * 0.4,
                "{}: scaled wait {} vs legacy {}",
                discipline.label(),
                scaled.avg_wait,
                legacy.avg_wait
            );
        }
    }

    #[test]
    fn mmpp_and_diurnal_models_run_and_stay_sane() {
        for workload in [
            ArrivalModel::Mmpp {
                p_c_hot: 0.9,
                p_c_cold: 0.1,
                switch_prob: 0.02,
            },
            ArrivalModel::Diurnal {
                mean: 0.5,
                amplitude: 0.3,
                period: 100,
            },
        ] {
            let mut cfg = quick(0.8, 80);
            cfg.workload = workload;
            let r = run_scaled(&cfg, ScaleStrategy::quantum_ideal(), 13).unwrap();
            assert!(r.avg_queue_len.is_finite() && r.avg_queue_len >= 0.0);
            assert!(r.served > 0, "{}: no tasks served", workload.label());
            // Still byte-stable across shard counts with phase state.
            let mut cfg16 = cfg;
            cfg16.shards = 16;
            cfg16.threads = 3;
            let r16 = run_scaled(&cfg16, ScaleStrategy::quantum_ideal(), 13).unwrap();
            assert_eq!(key(&r), key(&r16), "{}", workload.label());
        }
    }

    #[test]
    fn unsupported_configs_are_typed_errors() {
        let mut cfg = quick(1.0, 40);
        cfg.sim.discipline = Discipline::SingleSlot;
        assert_eq!(
            run_scaled(&cfg, ScaleStrategy::UniformRandom, 1).unwrap_err(),
            SimError::UnsupportedDiscipline {
                discipline: "single-slot"
            }
        );
        let mut cfg = quick(1.0, 40);
        cfg.shards = 0;
        assert_eq!(
            run_scaled(&cfg, ScaleStrategy::UniformRandom, 1).unwrap_err(),
            SimError::NoShards
        );
        let mut cfg = quick(1.0, 40);
        cfg.epoch_len = 0;
        assert_eq!(
            run_scaled(&cfg, ScaleStrategy::UniformRandom, 1).unwrap_err(),
            SimError::EmptyEpoch
        );
        let mut cfg = quick(1.0, 40);
        cfg.workload = ArrivalModel::Bernoulli { p_c: 2.0 };
        assert_eq!(
            run_scaled(&cfg, ScaleStrategy::UniformRandom, 1).unwrap_err(),
            SimError::BadArrivalModel { model: "bernoulli" }
        );
        let mut cfg = quick(1.0, 40);
        cfg.sim.n_servers = 1;
        assert_eq!(
            run_scaled(&cfg, ScaleStrategy::quantum_ideal(), 1).unwrap_err(),
            SimError::TooFewServers {
                n_servers: 1,
                min: 2
            }
        );
    }

    #[test]
    fn part_of_is_the_exact_inverse_of_part() {
        for &(n, shards) in &[(1usize, 1usize), (5, 4), (41, 4), (165, 4), (165, 16), (100, 7)] {
            for s in 0..n {
                let b = part_of(s, n, shards);
                let (lo, hi) = part(b, n, shards);
                assert!(
                    (lo..hi).contains(&s),
                    "n={n} shards={shards}: item {s} routed to shard {b} = [{lo},{hi})"
                );
            }
        }
    }

    #[test]
    fn default_shards_scale_with_system_size() {
        assert_eq!(default_shards(100), 1);
        assert_eq!(default_shards(100_000), 1);
        assert_eq!(default_shards(1_000_000), 15);
        assert_eq!(default_shards(10_000_000), 16);
    }
}
