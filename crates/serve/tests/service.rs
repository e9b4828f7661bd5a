//! End-to-end service tests: governor behaviour under faults, and the
//! Unix-socket protocol round trip.

use qnet::{FaultKind, FaultPlan, LinkSide, SimTime};
use serve::{ServeConfig, Service, ServiceCore, TIER_QUANTUM};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Serializes the tests below. Every service flushes its decision
/// counters into the process-global obs registry when it stops, and
/// `shutdown_flushes_obs_exactly_once` counts exactly one such flush, so
/// no other service in this process may stop while it runs. A poisoned
/// guard only means another test failed, which its own assertion reports.
static OBS_FLUSH: Mutex<()> = Mutex::new(());

fn base_config(seed: u64) -> ServeConfig {
    ServeConfig {
        n_servers: 32,
        n_endpoints: 2,
        ring_capacity: 512,
        low_water: 128,
        refill_batch: 256,
        ..ServeConfig::typical(seed)
    }
}

#[test]
fn fault_soak_trips_the_governor_and_recovers() {
    let _flush = OBS_FLUSH.lock().unwrap_or_else(|e| e.into_inner());
    // A long outage on both links starves the plane: produced slots must
    // degrade to the classical tier, then return to quantum after the
    // fault clears.
    let mut config = base_config(21);
    config.distributor.faults = FaultPlan::periodic(
        FaultKind::LinkOutage(LinkSide::Both),
        SimTime::from_micros(2_000),
        Duration::from_micros(40_000),
        Duration::from_micros(8_000),
        SimTime::from_micros(120_000),
    );
    let mut core = ServiceCore::new(&config);
    let mut tiers_seen = [false; 3];
    // 6000 decisions × 20 µs sim period = 120 ms of sim time, spanning
    // three outage windows.
    for i in 0..6_000u64 {
        core.pump_all();
        let p = core.decide(0, i % 2 == 0, i % 3 == 0);
        tiers_seen[(p.tier as usize).min(2)] = true;
    }
    let summary = core.finish();
    assert!(
        summary.feeds.transitions > 0,
        "outages must trip the governor"
    );
    assert!(tiers_seen[0], "healthy windows must serve quantum");
    assert!(
        tiers_seen[1] || tiers_seen[2],
        "outage windows must serve degraded tiers"
    );
    assert!(summary.feeds.misses > 0, "outages must cause misses");
}

#[cfg(unix)]
#[test]
fn socket_round_trip_matches_in_process_decisions() {
    let _flush = OBS_FLUSH.lock().unwrap_or_else(|e| e.into_inner());
    use serve::socket::{Client, SocketServer};

    let config = base_config(33);
    // Reference: the same seed through the single-threaded core.
    let mut reference = ServiceCore::new(&config);
    reference.fill_all();

    let service = Arc::new(Service::start(&config));
    let path = std::env::temp_dir().join(format!("qnlg-serve-test-{}.sock", std::process::id()));
    let mut server = SocketServer::start(&path, Arc::clone(&service)).expect("bind socket");

    let mut client = Client::connect(&path).expect("connect");
    for i in 0..200u64 {
        let (x, y) = (i % 2 == 0, i % 3 == 0);
        let got = client.decide(0, x, y).expect("socket decision");
        let want = reference.decide(0, x, y);
        assert_eq!(got, want, "socket decision {i} diverged from in-process");
        assert!(got.first < 32 && got.second < 32);
    }

    // Out-of-range endpoints close the connection with an error, not a
    // bogus decision.
    let mut bad = Client::connect(&path).expect("connect");
    assert!(bad.decide(99, false, false).is_err());

    // Concurrent clients on distinct endpoints don't interfere.
    let path2 = path.clone();
    let other = std::thread::spawn(move || {
        let mut c = Client::connect(&path2).expect("connect");
        for i in 0..200u64 {
            let p = c.decide(1, i % 2 == 0, false).expect("socket decision");
            assert!(p.first < 32 && p.second < 32);
        }
    });
    for i in 0..100u64 {
        let p = client.decide(0, false, i % 2 == 0).expect("socket decision");
        assert!(p.first < 32 && p.second < 32);
    }
    other.join().unwrap();

    // Graceful stop: drains handlers and removes the socket file.
    server.stop();
    assert!(!path.exists(), "socket file must be removed on stop");
    drop(client);
}

#[test]
fn healthy_plane_serves_quantum_overwhelmingly() {
    let _flush = OBS_FLUSH.lock().unwrap_or_else(|e| e.into_inner());
    let mut core = ServiceCore::new(&base_config(55));
    core.fill_all();
    let mut quantum = 0u64;
    let n = 400u64;
    for i in 0..n {
        let p = core.decide(1, i % 2 == 0, i % 5 == 0);
        quantum += u64::from(p.tier == TIER_QUANTUM);
    }
    assert!(
        quantum as f64 / n as f64 > 0.9,
        "healthy plane served only {quantum}/{n} quantum decisions"
    );
}

#[test]
fn shutdown_flushes_obs_exactly_once() {
    let _flush = OBS_FLUSH.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    let before = obs::snapshot()
        .counter("qnlg.serve.decisions")
        .unwrap_or(0);
    let mut svc = Service::start(&base_config(77));
    for i in 0..500 {
        svc.decide(i % 2, i % 3 == 0, i % 7 == 0);
    }
    let s1 = svc.shutdown();
    let s2 = svc.shutdown(); // idempotent: must not double-flush
    assert_eq!(s1, s2);
    drop(svc); // Drop after shutdown: also must not double-flush
    let after = obs::snapshot()
        .counter("qnlg.serve.decisions")
        .unwrap_or(0);
    assert_eq!(
        after - before,
        500,
        "decision counter must reflect exactly one flush of 500 decisions"
    );
    // Sim-time decision cadence is wall-clock-free, so a second service
    // with the same seed reproduces the same slot stream.
    let mut svc2 = Service::start(&base_config(77));
    let p = svc2.decide(0, true, true);
    let mut core = ServiceCore::new(&base_config(77));
    core.fill_all();
    assert_eq!(p, core.decide(0, true, true));
    svc2.shutdown();
}

#[test]
fn soak_interrupted_midway_still_yields_complete_summary() {
    let _flush = OBS_FLUSH.lock().unwrap_or_else(|e| e.into_inner());
    // The SIGINT path in `repro serve --soak` reduces to this: stop
    // consuming at an arbitrary point, shut down, and the summary must
    // still be internally consistent (counters balanced, flush done).
    let mut svc = Service::start(&base_config(88));
    for i in 0..137 {
        svc.decide(i % 2, false, true);
    }
    let s = svc.shutdown();
    assert_eq!(s.endpoints.decisions, 137);
    let consumed: u64 = s.endpoints.by_tier.iter().sum();
    assert_eq!(consumed, 137, "every decision must be tier-accounted");
}
