//! # qnlg-obs — std-only metrics and tracing
//!
//! The observability layer of the workspace: every simulation and sweep
//! can record *how* it behaved (events processed, pairs dropped, worker
//! busy time, wall-clock per labelled region) without changing *what* it
//! computes. Three design rules:
//!
//! 1. **std-only.** Atomics, `Mutex<HashMap>`, `Instant` — nothing else
//!    (the workspace dependency policy, DESIGN.md §3).
//! 2. **Off by default, negligible when off.** Recording is gated on one
//!    relaxed atomic-bool load; the `span!` timer does not even call
//!    `Instant::now()` while disabled. `repro` enables collection for
//!    its runs; unit tests and library users pay nothing.
//! 3. **Deterministic values, explicit time.** Counters/gauges/histograms
//!    record simulation quantities that are worker-count-invariant;
//!    anything wall-clock lives under the reserved `time.` name prefix so
//!    machine-readable output can exempt it from byte-identity checks.
//!
//! ```
//! let c = obs::counter("demo.events");
//! obs::set_enabled(true);
//! c.inc();
//! c.add(2);
//! assert_eq!(c.get(), 3);
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("demo.events"), Some(3));
//! obs::set_enabled(false);
//! ```

pub mod hist;
pub mod json;
pub mod registry;
pub mod span;

pub use hist::{bucket_bounds, bucket_index, HistSnapshot, HIST_BUCKETS};
pub use registry::{
    counter, enabled, gauge, hist, reset, set_enabled, snapshot, Counter, Gauge, GaugeSnapshot,
    LazyCounter, LazyGauge, LazyHist, Snapshot,
};
pub use span::SpanGuard;

/// Times a scope and aggregates the elapsed wall-clock (nanoseconds)
/// into a histogram named `time.<label>.ns`.
///
/// Bind the guard — `let _span = obs::span!("sweep.point");` — so it
/// lives to the end of the scope. While collection is disabled the guard
/// is inert: no clock read, no registry access.
///
/// ```
/// fn point() {
///     let _span = obs::span!("demo.point");
///     // ... work ...
/// }
/// obs::set_enabled(true);
/// point();
/// assert_eq!(obs::snapshot().hist("time.demo.point.ns").unwrap().count, 1);
/// obs::set_enabled(false);
/// ```
#[macro_export]
macro_rules! span {
    ($label:literal) => {{
        static SPAN_HIST: $crate::LazyHist =
            $crate::LazyHist::new(concat!("time.", $label, ".ns"));
        $crate::SpanGuard::new(&SPAN_HIST)
    }};
}
