//! Cache-transparency guarantee: a cached fig3 quick run must produce
//! JSON identical to an uncached run (`QNLG_XOR_CACHE=0` escape hatch).
//!
//! This lives in its own integration-test binary (its own process), so
//! no other test binary sees the process-global cache flag change. The
//! tests in this file still run on parallel threads of that process and
//! both toggle the flag, so each holds [`CACHE_FLAG`] for its whole body.

use std::sync::Mutex;

/// Serializes the tests below: each one flips the process-global
/// `games::cache` flag and asserts on what it set. A poisoned guard only
/// means the other test failed, which its own assertion already reports.
static CACHE_FLAG: Mutex<()> = Mutex::new(());

/// Renders a report with the run-environment fields pinned, mirroring
/// `determinism.rs`: any byte difference left is a real divergence.
fn canonical_json(report: &qnlg_bench::Report) -> String {
    let ctx = qnlg_bench::RunContext {
        quick: true,
        threads: 0,
        git: "pinned".into(),
        obs: None,
        perf: None,
        series: None,
    };
    report.to_json(&ctx).render()
}

#[test]
fn fig3_quick_json_is_identical_with_cache_disabled() {
    let _flag = CACHE_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    // Cached pass first (populates the global cache), then the same run
    // with the cache forced off — equivalent to QNLG_XOR_CACHE=0.
    games::cache::set_enabled(true);
    let cached = qnlg_bench::experiments::fig3::run_with_threads(2, true);
    assert!(
        !games::cache::global().is_empty(),
        "cached run must populate the global cache"
    );

    games::cache::set_enabled(false);
    let uncached = qnlg_bench::experiments::fig3::run_with_threads(2, true);
    games::cache::set_enabled(true);

    assert_eq!(
        format!("{cached}"),
        format!("{uncached}"),
        "cache changed the text report"
    );
    assert_eq!(
        canonical_json(&cached),
        canonical_json(&uncached),
        "cache changed the JSON artifact"
    );
}

#[test]
fn env_escape_hatch_is_honored_lazily() {
    let _flag = CACHE_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    // set_enabled overrides whatever the env said; this just checks the
    // toggle round-trips, since the env itself was read (or preempted)
    // by the test above in this shared process.
    games::cache::set_enabled(false);
    assert!(!games::cache::enabled());
    games::cache::set_enabled(true);
    assert!(games::cache::enabled());
}
