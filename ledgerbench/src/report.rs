//! The result of one run: named metrics with units and sample counts,
//! the correctness tally, and the final JSON line.

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples (or operations) behind the value.
    pub n: u64,
    /// What the figure means here, and for a per-layer figure which
    /// end-to-end metric it should move on which workload.
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        n: u64,
        note: impl Into<String>,
    ) -> Self {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        Metric {
            name,
            value,
            unit,
            n,
            note: note.into(),
        }
    }
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked (acceptance checks, requests).
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Human-readable failure evidence.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Figures printed for information only (not part of the contract).
    pub info: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, passed: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints the ledger and information lines, then the result object as
    /// the last line of standard output.
    pub fn print(&self) {
        for line in &self.info {
            println!("# {line}");
        }
        for f in &self.failures {
            println!("# FAIL {f}");
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# fail_frac = {fail_frac} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for m in &self.metrics {
            println!(
                "# {} = {} {} (n={}) {}",
                m.name, m.value, m.unit, m.n, m.note
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
