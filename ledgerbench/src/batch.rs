//! The batch workloads: sets of `repro` experiments run in-process
//! through `qnlg_bench::experiments::run`, with their built-in seeds
//! (byte-identical artifacts are the repro contract, so the benchmark's
//! seed does not reach them).

use crate::report::Outcome;
use crate::spans::Spans;
use crate::sys::process_cpu;
use qnlg_bench::Report;
use std::time::{Duration, Instant};

/// A batch workload: which experiments, and which report interval
/// carries its quantum-tier share.
pub struct BatchWorkload {
    pub name: &'static str,
    pub experiments: &'static [&'static str],
    /// `(experiment, interval)` whose estimate is `quantum_frac`.
    pub quantum_source: (&'static str, &'static str),
}

/// Most time in the legacy `loadbalance` engine, the `runtime` pool over
/// many small points, and CHSH kernel draws.
pub const FIG4_FAMILY: BatchWorkload = BatchWorkload {
    name: "fig4-family",
    experiments: &[
        "fig4",
        "fig4-scaling",
        "fig4-disciplines",
        "hybrid",
        "noise",
    ],
    quantum_source: ("fig4", "cc_colocation.paired-quantum"),
};

/// Most time in the `qnet` plane and the `loadbalance::degrade`
/// governor: a few heavy points with stateful pair-fed strategies.
pub const PLANE_FAULTS: BatchWorkload = BatchWorkload {
    name: "plane-faults",
    experiments: &["fig4-faults", "pipeline", "topology"],
    quantum_source: ("fig4-faults", "coordinated.control"),
};

/// Raw measurements of one batch run.
#[derive(Default)]
pub struct BatchRun {
    /// Wall time of each quick-budget warm-up pass (untraced runs only).
    pub setup_s: Vec<f64>,
    /// Wall and CPU time of each untraced full pass.
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    /// Latency of every untraced `experiments::run` call, in µs, per
    /// experiment (indexed like the workload's experiment list).
    pub call_us: Vec<Vec<f64>>,
    /// Wall time of each traced pass (obs on, spans recorded).
    pub traced_wall_s: Vec<f64>,
    /// `(estimate, trials)` of the workload's quantum-tier interval.
    pub quantum: Option<(f64, u64)>,
}

/// Whether one more step of length `last` should start: runs end as
/// close to `seconds` after `start` as whole steps allow.
fn another_fits(start: Instant, last: f64, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + last / 2.0 < seconds
}

/// Runs one experiment, tallies its acceptance checks, and returns the
/// report with the call's latency.
fn call(name: &str, quick: bool, out: &mut Outcome) -> (Report, Duration) {
    let t0 = Instant::now();
    let report =
        qnlg_bench::experiments::run(name, quick).expect("workload names only known experiments");
    let took = t0.elapsed();
    for c in &report.checks {
        out.check(c.passed, || {
            format!(
                "{name}{}: check {} — {}",
                if quick { " --quick" } else { "" },
                c.name,
                c.detail
            )
        });
    }
    out.check(!report.checks.is_empty() && report.passed(), || {
        format!("{name}: Report::passed() does not hold")
    });
    (report, took)
}

impl BatchWorkload {
    /// The untraced run: full passes until about `seconds` have elapsed,
    /// each preceded by a quick-budget warm-up pass; the warm-up passes'
    /// median is the set-up time. Spreading them over the run samples the
    /// machine's speed as widely as the full passes do. `smoke` makes one
    /// warm-up and one quick-budget pass.
    pub fn run(&self, seconds: f64, smoke: bool, out: &mut Outcome) -> BatchRun {
        let mut run = BatchRun::default();
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            for name in self.experiments {
                call(name, true, out);
            }
            run.setup_s.push(t0.elapsed().as_secs_f64());
            let (wall, cpu) = self.pass(smoke, out, &mut run, None);
            run.wall_s.push(wall);
            run.cpu_s.push(cpu);
            if smoke || !another_fits(start, wall, seconds) {
                break;
            }
        }
        run
    }

    /// The traced run: alternating untraced and traced full passes until
    /// `seconds` have elapsed. Traced passes collect obs counters and
    /// record a span around each `experiments::run`.
    pub fn run_traced(
        &self,
        seconds: f64,
        smoke: bool,
        out: &mut Outcome,
        spans: &mut Spans,
    ) -> BatchRun {
        let mut run = BatchRun::default();
        let start = Instant::now();
        loop {
            let (wall, cpu) = self.pass(smoke, out, &mut run, None);
            run.wall_s.push(wall);
            run.cpu_s.push(cpu);
            obs::set_enabled(true);
            let (wall, _) = self.pass(smoke, out, &mut run, Some(spans));
            obs::set_enabled(false);
            run.traced_wall_s.push(wall);
            if smoke || !another_fits(start, run.wall_s[run.wall_s.len() - 1] + wall, seconds) {
                break;
            }
        }
        run
    }

    /// One pass over the experiment set; returns `(wall s, CPU s)`.
    fn pass(
        &self,
        quick: bool,
        out: &mut Outcome,
        run: &mut BatchRun,
        spans: Option<&mut Spans>,
    ) -> (f64, f64) {
        let mut children = Vec::new();
        let cpu0 = process_cpu();
        let t0 = Instant::now();
        run.call_us.resize(self.experiments.len(), Vec::new());
        for (i, name) in self.experiments.iter().enumerate() {
            let started = Instant::now();
            let (report, took) = call(name, quick, out);
            if spans.is_some() {
                children.push((*name, started, started + took));
            } else {
                run.call_us[i].push(took.as_secs_f64() * 1e6);
            }
            if *name == self.quantum_source.0 {
                let interval = report
                    .intervals
                    .iter()
                    .find(|(n, _)| n == self.quantum_source.1);
                run.quantum = interval.map(|(_, p)| (p.estimate, p.trials));
            }
        }
        let end = Instant::now();
        let cpu = (process_cpu() - cpu0).as_secs_f64();
        if let Some(spans) = spans {
            let pass = spans.record(
                format!("{}.pass", self.name),
                None,
                t0,
                end,
                self.experiments.len() as u64,
            );
            for (name, s, e) in children {
                spans.record(format!("experiments::run({name})"), Some(pass), s, e, 1);
            }
        }
        (end.duration_since(t0).as_secs_f64(), cpu)
    }
}
