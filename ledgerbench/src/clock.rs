//! Clock calibration and batch timing.
//!
//! A single `Instant` pair costs tens of nanoseconds, so timing one
//! sub-microsecond operation at a time measures the clock, not the
//! operation. Every probe here times a batch of operations whose total
//! runs at least [`MIN_RESOLVED_RATIO`] × the clock-pair cost, and a
//! result from a shorter batch is flagged unresolved.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A batch must last this many clock-pair costs to count as resolved.
pub const MIN_RESOLVED_RATIO: f64 = 10.0;

/// The cost and granularity of `Instant::now()` on this machine.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// Mean cost of one `Instant::now()` pair, in ns.
    pub pair_ns: f64,
    /// Smallest nonzero difference seen between two consecutive reads.
    pub resolution_ns: f64,
}

impl Clock {
    /// Measures the clock: the median over 9 batches of 100k pairs.
    pub fn calibrate() -> Self {
        const PAIRS: u32 = 100_000;
        let mut costs = Vec::new();
        let mut resolution = u128::MAX;
        for _ in 0..9 {
            let t0 = Instant::now();
            for _ in 0..PAIRS {
                let a = Instant::now();
                let b = Instant::now();
                let d = black_box(b.duration_since(a)).as_nanos();
                if d > 0 {
                    resolution = resolution.min(d);
                }
            }
            costs.push(t0.elapsed().as_nanos() as f64 / f64::from(PAIRS));
        }
        Clock {
            pair_ns: median(&costs),
            resolution_ns: if resolution == u128::MAX {
                f64::NAN
            } else {
                resolution as f64
            },
        }
    }

    /// Whether an interval of `ns` sits far enough above the clock cost
    /// to be trusted.
    pub fn resolves(&self, ns: f64) -> bool {
        ns >= MIN_RESOLVED_RATIO * self.pair_ns.max(self.resolution_ns)
    }
}

/// A per-operation cost measured in isolation.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Median over batches of (batch time / operations in the batch).
    pub ns_per_op: f64,
    /// Operations timed across all batches.
    pub ops: u64,
    /// False when some batch was too short to sit above the clock.
    pub resolved: bool,
}

/// Runs `batch` `reps` times; each call performs some operations and
/// returns `(operations, time they took)`. Set-up the caller does inside
/// `batch` before starting its own timer stays out of the figure.
pub fn probe(clock: &Clock, reps: usize, mut batch: impl FnMut() -> (u64, Duration)) -> Probe {
    let mut per_op = Vec::with_capacity(reps);
    let mut ops = 0;
    let mut resolved = true;
    for _ in 0..reps {
        let (n, took) = batch();
        assert!(n > 0, "a probe batch must perform work");
        let ns = took.as_nanos() as f64;
        resolved &= clock.resolves(ns);
        per_op.push(ns / n as f64);
        ops += n;
    }
    Probe {
        ns_per_op: median(&per_op),
        ops,
        resolved,
    }
}

/// Times `n` calls of `op` as one batch.
pub fn timed_loop(n: u64, mut op: impl FnMut(u64)) -> (u64, Duration) {
    let t0 = Instant::now();
    for i in 0..n {
        op(i);
    }
    (n, t0.elapsed())
}
