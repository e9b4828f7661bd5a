//! Experiment E6: the §3 error-margin caveat, quantified.
//!
//! Three ablations: (a) CHSH win probability vs Werner visibility — the
//! advantage dies exactly at v = 1/√2; (b) the end-to-end Figure 4 effect
//! of degraded visibility and finite pair availability; (c) QNIC storage
//! time vs CHSH value (a pair held for time t suffers dephasing
//! (1 − e^{−t/τ})/2 per half).

use crate::report::Report;
use crate::table::{f2, f4, Table};
use games::chsh::{ChshGame, QuantumChshStrategy};
use games::game::empirical_win_rate;
use games::ChshVariant;
use loadbalance::server::Discipline;
use loadbalance::sim::{run_simulation, SimConfig};
use loadbalance::strategy::Strategy;
use loadbalance::task::BernoulliWorkload;
use obs::json::Json;
use qmath::stats::wilson;
use qsim::noise::{werner, KrausChannel, WERNER_CHSH_THRESHOLD};
use qsim::SharedPair;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the noise ablations.
pub fn run(quick: bool) -> Report {
    let mut report = Report::new("noise", 6);
    let mut out = String::new();

    // (a) CHSH vs visibility — one pool point per visibility, each on its
    // own seed stream.
    let rounds = if quick { 20_000 } else { 200_000 };
    let vis = [1.0, 0.9, 0.8, WERNER_CHSH_THRESHOLD, 0.6, 0.5];
    let rates = runtime::par_sweep(crate::point_seed(6, 0, 0), &vis, |_, &v, rng| {
        let mut s = QuantumChshStrategy::with_source(
            move || SharedPair::werner(v).expect("valid visibility"),
            ChshVariant::Standard,
        );
        empirical_win_rate(&ChshGame::standard(), &mut s, rounds, rng)
    });
    let mut t = Table::new(vec!["visibility", "CHSH win prob", "theory", "advantage?"]);
    for (&v, &rate) in vis.iter().zip(&rates) {
        let theory = 0.5 + v * std::f64::consts::SQRT_2 / 4.0;
        t.row(vec![
            f4(v),
            f4(rate),
            f4(theory),
            (if rate > 0.75 { "yes" } else { "NO" }).to_string(),
        ]);
        report.interval(
            format!("chsh.v{v:.4}"),
            wilson((rate * rounds as f64).round() as u64, rounds as u64),
        );
        report.point(Json::obj([
            ("part", Json::str("visibility")),
            ("visibility", Json::num(v)),
            ("win_rate", Json::num(rate)),
            ("theory", Json::num(theory)),
            ("rounds", Json::uint(rounds as u64)),
        ]));
    }
    out.push_str(&format!(
        "E6a — CHSH vs Werner visibility ({rounds} rounds/point; threshold 1/√2 ≈ 0.7071)\n\n{}\n",
        t.render()
    ));

    // (b) End-to-end: Figure 4 point at load 1.2 under degraded hardware.
    let (n, steps) = if quick { (40, 600) } else { (100, 3_000) };
    let load = 1.2;
    let run_point = |strategy: Strategy, seed: u64| -> f64 {
        let config = SimConfig {
            n_balancers: n,
            n_servers: (n as f64 / load).round() as usize,
            timesteps: steps,
            warmup: steps / 4,
            discipline: Discipline::PaperPairedC,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        run_simulation(config, strategy, &mut BernoulliWorkload::paper(), &mut rng)
            .avg_queue_len
    };
    let mut rows: Vec<(String, Strategy, u64)> = vec![
        (
            "classical uniform-random".into(),
            Strategy::UniformRandom,
            crate::point_seed(6, 1, 0),
        ),
        (
            "classical paired-split".into(),
            Strategy::PairedAlwaysSplit,
            crate::point_seed(6, 1, 1),
        ),
    ];
    for (vi, v) in [1.0, 0.9, 0.8, WERNER_CHSH_THRESHOLD, 0.5].iter().enumerate() {
        rows.push((
            format!("quantum, visibility {v:.3}"),
            Strategy::PairedQuantum {
                availability: 1.0,
                visibility: *v,
            },
            crate::point_seed(6, 2, vi as u64),
        ));
    }
    for (ai, a) in [0.9, 0.7, 0.5].iter().enumerate() {
        rows.push((
            format!("quantum, availability {a:.1}"),
            Strategy::PairedQuantum {
                availability: *a,
                visibility: 1.0,
            },
            crate::point_seed(6, 3, ai as u64),
        ));
    }
    let queues = runtime::par_map(&rows, |_, (_, strategy, seed)| run_point(*strategy, *seed));
    let mut t = Table::new(vec!["configuration", "avg queue @ load 1.2"]);
    for ((label, _, _), q) in rows.iter().zip(&queues) {
        t.row(vec![label.clone(), f2(*q)]);
        report.point(Json::obj([
            ("part", Json::str("end_to_end")),
            ("configuration", Json::str(label.clone())),
            ("avg_queue_len", Json::num(*q)),
            ("load", Json::num(load)),
        ]));
    }
    out.push_str(&format!(
        "E6b — end-to-end load balancing under degraded hardware (N = {n})\n\n{}\n",
        t.render()
    ));

    // (c) Storage-time ablation: hold both halves for t, play CHSH.
    let rounds_c = if quick { 5_000 } else { 50_000 };
    let tau = 100e-6; // 100 µs QNIC memory lifetime (§3)
    let ratios = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0];
    let rates_c = runtime::par_sweep(crate::point_seed(6, 4, 0), &ratios, |_, &ratio, rng| {
        let held = ratio * tau;
        let ch = KrausChannel::storage_decay(held, tau).expect("valid params");
        // Build the decohered pair once; clone per round.
        let rho0 = werner(1.0).expect("valid");
        let rho = ch.apply(&rho0, 0).expect("qubit 0");
        let rho = ch.apply(&rho, 1).expect("qubit 1");
        let mut s = QuantumChshStrategy::with_source(
            move || SharedPair::from_density(rho.clone()).expect("two qubits"),
            ChshVariant::Standard,
        );
        empirical_win_rate(&ChshGame::standard(), &mut s, rounds_c, rng)
    });
    let mut t = Table::new(vec!["hold time / τ", "CHSH win prob", "advantage?"]);
    for (&ratio, &rate) in ratios.iter().zip(&rates_c) {
        t.row(vec![
            format!("{ratio:.2}"),
            f4(rate),
            (if rate > 0.755 {
                "yes"
            } else if rate > 0.745 {
                "marginal"
            } else {
                "NO"
            })
            .to_string(),
        ]);
        report.interval(
            format!("chsh.hold{ratio:.2}"),
            wilson((rate * rounds_c as f64).round() as u64, rounds_c as u64),
        );
        report.point(Json::obj([
            ("part", Json::str("storage_decay")),
            ("hold_over_tau", Json::num(ratio)),
            ("win_rate", Json::num(rate)),
            ("rounds", Json::uint(rounds_c as u64)),
        ]));
    }
    out.push_str(&format!(
        "E6c — QNIC storage decoherence (τ = 100 µs, dephasing on both halves, \
         {rounds_c} rounds/point)\n\n{}",
        t.render()
    ));

    report.scalar("chsh_rate.v1.0", rates[0]);
    report.scalar("chsh_rate.v0.5", rates[5]);
    report.scalar("werner_threshold", WERNER_CHSH_THRESHOLD);

    // Acceptance: full visibility must clear the classical bound and
    // v = 0.5 must fall below it — the §3 threshold is the point of E6.
    report.check(
        "advantage-at-full-visibility",
        rates[0] > 0.8,
        format!("win rate {:.4} > 0.8 at v = 1.0", rates[0]),
    );
    report.check(
        "no-advantage-below-threshold",
        rates[5] < 0.76,
        format!("win rate {:.4} < 0.76 at v = 0.5", rates[5]),
    );

    report.text = out;
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn threshold_visible_in_report() {
        let report = super::run(true);
        let out = format!("{report}");
        // Visibility 0.5 must show NO advantage; visibility 1.0 must show yes.
        assert!(out.contains("NO"), "{out}");
        assert!(out.contains("yes"), "{out}");
        assert!(report.passed(), "{out}");
    }
}
