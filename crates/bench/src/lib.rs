//! # qnlg-bench — the reproduction harness
//!
//! One module per paper exhibit (see DESIGN.md's experiment index). Each
//! experiment exposes a `run(quick: bool) -> Report` that computes the
//! figure's data and returns a typed [`Report`] — rendered text table,
//! key scalars, Wilson intervals for Monte-Carlo estimates, per-point
//! JSON records, and pass/fail acceptance checks. `quick` trims
//! Monte-Carlo budgets for CI; the `repro` binary defaults to full
//! budgets and can serialize each report as a JSON-lines artifact
//! (`repro <exp> --json` / `--out <dir>`).
//!
//! Heavy sweeps run on the shared `runtime` chunk-cursor pool
//! (`runtime::par_map` / `runtime::par_sweep`; CPU-bound work, so an
//! async runtime is the wrong tool). Every point is seeded
//! deterministically from its coordinates so results are bit-identical
//! regardless of worker count or scheduling order. `QNLG_THREADS` overrides
//! the pool size.

pub mod experiments;
pub mod perfdiff;
pub mod report;
pub mod table;

pub use report::{Report, RunContext};
pub use table::Table;

/// Deterministic per-point seed derived from experiment coordinates
/// (SplitMix64 of the packed indices). Delegates to
/// [`runtime::point_seed`], which freezes the historical formula.
pub fn point_seed(experiment: u64, i: u64, j: u64) -> u64 {
    runtime::point_seed(experiment, i, j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        assert_eq!(point_seed(1, 2, 3), point_seed(1, 2, 3));
        assert_ne!(point_seed(1, 2, 3), point_seed(1, 2, 4));
        assert_ne!(point_seed(1, 2, 3), point_seed(2, 2, 3));
    }
}
