//! `ledgerbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! ledgerbench --workload <fig4-family|plane-faults|serve-socket>
//!             --seed <n> --seconds <n> --trace <0|1>
//! ledgerbench --smoke [--workload <name>]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer ledger (isolated layer costs, the layer counts one
//! traced pass produced, and how far they add up to the whole). Lines
//! starting with `#` carry provenance, the ledger with each figure's n
//! and what it should move, and information-only figures; the last line
//! is one JSON object. A failed correctness check prints
//! `"correct": false` and exits 1. See README.md for the metric
//! definitions.

mod batch;
mod clock;
mod ledger;
mod probes;
mod report;
mod serveload;
mod spans;
mod stats;
mod sys;

use batch::{BatchWorkload, FIG4_FAMILY, PLANE_FAULTS};
use clock::Clock;
use ledger::{Counts, ServeLayer};
use report::{Metric, Outcome};
use spans::Spans;
use stats::{median, percentile_sorted};
use std::path::PathBuf;
use std::time::Duration;

const WORKLOADS: [&str; 3] = ["fig4-family", "plane-faults", "serve-socket"];

/// A run that has not finished by then is hung; it is stopped with a
/// nonzero exit so the caller's own time limit is never reached.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value}; expected one of {WORKLOADS:?}"
                    ));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 100.0) {
                    return Err(format!("--seconds {value}: expected (0, 100]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_none() && !args.smoke {
        return Err("--workload is required (or --smoke)".into());
    }
    Ok(args)
}

fn main() {
    let mut raw = std::env::args().skip(1);
    if raw.next().as_deref() == Some("--pool-probe") {
        let threads = raw
            .next()
            .and_then(|t| t.parse().ok())
            .expect("--pool-probe <threads>");
        probes::pool_batch(threads);
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledgerbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "ledgerbench: no result after {} s; the run is hung",
            WATCHDOG.as_secs()
        );
        std::process::exit(3);
    });
    // Batch workloads run at a fixed pool width: every core.
    let threads = sys::nproc();
    std::env::set_var("QNLG_THREADS", threads.to_string());
    obs::set_enabled(false);

    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    for workload in workloads {
        println!(
            "# provenance {{\"git\": \"{}\", \"nproc\": {}, \"threads\": {threads}, \"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}}}",
            sys::git_describe(),
            sys::nproc(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            args.smoke
        );
        let outcome = run_workload(workload, &args, threads);
        outcome.print();
        all_correct &= outcome.correct();
    }
    std::process::exit(if all_correct { 0 } else { 1 });
}

fn run_workload(workload: &str, args: &Args, threads: usize) -> Outcome {
    let clock = Clock::calibrate();
    let mut out = Outcome::default();
    if args.trace {
        let probes = probes::run_all(&clock, threads, args.seed);
        obs::reset();
        let mut spans = Spans::new();
        match workload {
            "serve-socket" => serve_traced(args, &clock, &probes, &mut out, &mut spans),
            w => batch_traced(
                batch_workload(w),
                args,
                &clock,
                &probes,
                &mut out,
                &mut spans,
            ),
        }
        let path =
            PathBuf::from(".ledgerbench").join(format!("spans-{workload}-seed{}.jsonl", args.seed));
        match spans.write(&path) {
            Ok(()) => out
                .info
                .push(format!("spans written to {}", path.display())),
            Err(e) => out
                .info
                .push(format!("spans not written to {}: {e}", path.display())),
        }
    } else {
        let peak_rss_mb = match workload {
            "serve-socket" => serve_end_to_end(args, &clock, &mut out),
            w => {
                batch_end_to_end(batch_workload(w), args, &mut out);
                sys::peak_rss_mb()
            }
        };
        out.metrics.push(Metric::new(
            "peak_rss_mb",
            peak_rss_mb,
            "MB",
            1,
            "peak resident memory (VmHWM) of the benchmark process",
        ));
    }
    out
}

fn batch_workload(name: &str) -> &'static BatchWorkload {
    match name {
        "fig4-family" => &FIG4_FAMILY,
        "plane-faults" => &PLANE_FAULTS,
        _ => unreachable!("workload names are validated on entry"),
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    v
}

fn batch_end_to_end(w: &BatchWorkload, args: &Args, out: &mut Outcome) {
    let run = w.run(args.seconds, args.smoke, out);
    let passes = run.wall_s.len() as u64;
    // Each experiment's median call latency, so one slow pass moves the
    // percentiles no more than it moves wall_s.
    let calls = sorted(run.call_us.iter().map(|c| median(c)).collect());
    let n_calls = run.call_us.iter().map(Vec::len).sum::<usize>() as u64;
    let wall = median(&run.wall_s);
    let (quantum, trials) = run.quantum.unwrap_or((0.0, 0));
    out.check(run.quantum.is_some(), || {
        format!(
            "{} reported no {} interval",
            w.quantum_source.0, w.quantum_source.1
        )
    });
    let m = &mut out.metrics;
    m.push(Metric::new(
        "setup_s",
        median(&run.setup_s),
        "s",
        run.setup_s.len() as u64,
        "median wall of a quick-budget warm-up pass over the experiment set",
    ));
    m.push(Metric::new(
        "wall_s",
        wall,
        "s",
        passes,
        "median wall of a full-budget pass",
    ));
    m.push(Metric::new(
        "cpu_s",
        median(&run.cpu_s),
        "s",
        passes,
        "median process user+sys CPU of a full-budget pass",
    ));
    m.push(Metric::new(
        "decide_p50_us",
        percentile_sorted(&calls, 0.5),
        "us",
        n_calls,
        "p50 over experiments of an experiments::run call's median latency",
    ));
    m.push(Metric::new(
        "decide_p99_us",
        percentile_sorted(&calls, 0.99),
        "us",
        n_calls,
        "p99 over experiments of an experiments::run call's median latency (the slowest experiment)",
    ));
    m.push(Metric::new(
        "decisions_per_s",
        w.experiments.len() as f64 / wall,
        "1/s",
        passes,
        "experiments::run calls completed per second (per median pass)",
    ));
    m.push(Metric::new(
        "quantum_frac",
        quantum,
        "ratio",
        trials,
        format!(
            "{} interval {} (deterministic: built-in seeds)",
            w.quantum_source.0, w.quantum_source.1
        ),
    ));
    out.info.push(format!(
        "per-pass wall s {:?}; cpu s {:?}; setup s {:?}",
        run.wall_s, run.cpu_s, run.setup_s
    ));
}

fn batch_traced(
    w: &BatchWorkload,
    args: &Args,
    clock: &Clock,
    probes: &probes::Probes,
    out: &mut Outcome,
    spans: &mut Spans,
) {
    let run = w.run_traced(args.seconds, args.smoke, out, spans);
    let counts = Counts::from_obs(&obs::snapshot(), run.traced_wall_s.len() as u64);
    let overhead = median(&run.traced_wall_s) / median(&run.wall_s);
    let cpu_ns = median(&run.cpu_s) * 1e9;
    out.metrics = ledger::per_layer(clock, probes, &counts, overhead, Some(cpu_ns), None);
}

/// Returns the run's peak resident memory in MB.
fn serve_end_to_end(args: &Args, clock: &Clock, out: &mut Outcome) -> f64 {
    let mut run = serveload::run(args.seed, args.seconds, false, args.smoke, out, None);
    let lat = std::mem::take(&mut run.latency_ns);
    let lat = sorted_u32(lat);
    let n = lat.len() as u64;
    let p = |q: f64| f64::from(percentile_sorted(&lat, q));
    let unresolved = |ns: f64| {
        if clock.resolves(ns) {
            ""
        } else {
            " UNRESOLVED (below 10x clock cost)"
        }
    };
    let round_wall = median(&run.round_wall_s);
    let rounds = run.round_wall_s.len() as u64;
    let m = &mut out.metrics;
    m.push(Metric::new(
        "setup_s",
        median(&run.setup_s),
        "s",
        run.setup_s.len() as u64,
        "median of Service::start (synchronous ring prefill) + SocketServer::start + connects",
    ));
    m.push(Metric::new(
        "wall_s",
        round_wall,
        "s",
        rounds,
        format!(
            "median wall of one round of {} requests per connection",
            run.per_round
        ),
    ));
    m.push(Metric::new(
        "cpu_s",
        median(&run.round_cpu_s),
        "s",
        rounds,
        "median process CPU of one round",
    ));
    m.push(Metric::new(
        "decide_p50_us",
        p(0.5) / 1e3,
        "us",
        n,
        format!(
            "client round trip per decision, exact{}",
            unresolved(p(0.5))
        ),
    ));
    m.push(Metric::new(
        "decide_p99_us",
        p(0.99) / 1e3,
        "us",
        n,
        format!(
            "client round trip per decision, exact{}",
            unresolved(p(0.99))
        ),
    ));
    m.push(Metric::new(
        "decisions_per_s",
        (serveload::CONNS as u64 * run.per_round) as f64 / round_wall,
        "1/s",
        rounds,
        "decisions completed per second across both connections (median round)",
    ));
    m.push(Metric::new(
        "quantum_frac",
        run.quantum as f64 / run.decisions.max(1) as f64,
        "ratio",
        run.decisions,
        "share of decisions answered from the quantum tier (client-observed tier byte)",
    ));
    out.info.push(format!("setup s {:?}", run.setup_s));
    out.info.push(format!(
        "decide_p999_us = {} (n={n}, information only: too noisy to bound)",
        p(0.999) / 1e3
    ));
    out.info.push(format!(
        "service summary: {} decisions, {} inline fallbacks, {} refills, {} governor transitions",
        run.summary.endpoints.decisions,
        run.summary.endpoints.exhausted,
        run.summary.feeds.refills,
        run.summary.feeds.transitions
    ));
    run.peak_rss_mb
}

fn sorted_u32(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

fn serve_traced(
    args: &Args,
    clock: &Clock,
    probes: &probes::Probes,
    out: &mut Outcome,
    spans: &mut Spans,
) {
    let mut run = serveload::run(args.seed, args.seconds, true, args.smoke, out, Some(spans));
    let lat = sorted_u32(std::mem::take(&mut run.latency_ns));
    let floor = sorted_u32(std::mem::take(&mut run.floor_ns));
    let floor_p50_ns = f64::from(percentile_sorted(&floor, 0.5));
    let counts = Counts::from_obs(&obs::snapshot(), run.traced_round_wall_s.len() as u64);
    let round_wall = median(&run.round_wall_s);
    let layer = ServeLayer {
        decide_p50_us: f64::from(percentile_sorted(&lat, 0.5)) / 1e3,
        floor_p50_us: floor_p50_ns / 1e3,
        floor_n: floor.len() as u64,
        floor_resolved: clock.resolves(floor_p50_ns),
        exhausted: run.summary.endpoints.exhausted,
        decisions: run.summary.endpoints.decisions,
        refills: run.summary.feeds.refills,
        per_round: run.per_round,
        round_wall_s: round_wall,
    };
    let overhead = median(&run.traced_round_wall_s) / round_wall;
    out.metrics = ledger::per_layer(clock, probes, &counts, overhead, None, Some(&layer));
}
