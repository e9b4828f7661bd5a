# Local mirror of .github/workflows/ci.yml — `make ci` is the gate a
# change must pass before it lands.

CARGO ?= cargo

.PHONY: ci build test clippy bench-compile ledgerbench-smoke bench-sweep bench-xor bench-plane bench-scale bench-trace bench-ghz bench-topology bench-serve repro-quick trace-quick perf-diff test-stat test-topology test-serve serve-soak

ci: build test clippy bench-compile ledgerbench-smoke repro-quick

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# All bench harnesses must keep building even when not run.
bench-compile:
	$(CARGO) bench --no-run

# The repository benchmark (ledgerbench/) has its own manifest, so
# `test` does not cover it. Smoke mode runs every workload at quick
# budgets and exits non-zero on any failed correctness check; then its
# unit tests.
ledgerbench-smoke:
	$(CARGO) run --release --offline --quiet --manifest-path ledgerbench/Cargo.toml -- --smoke
	$(CARGO) test --release --offline --manifest-path ledgerbench/Cargo.toml

# Spawn-per-point vs pooled executor + CorrelationBox sampling kernels
# + obs on/off overhead.
bench-sweep:
	$(CARGO) bench -p qnlg-bench --bench sweep

# XOR solver-pipeline ablation: naive/Gray classical, cold/warm solver,
# and the end-to-end fig3-quick seed-stack vs cached fast-stack numbers
# recorded in DESIGN.md §5.
bench-xor:
	$(CARGO) bench -p qnlg-bench --bench xor_value

# Entanglement data-plane ablation: Werner kernel vs exact oracle,
# batched (survivor-process) vs per-emission sampling, calendar wheel vs
# binary heap — the DESIGN.md §5 batched-plane rows.
bench-plane:
	$(CARGO) bench -p qnlg-bench --bench plane

# Sharded-SoA load-balance engine ablation: frozen AoS loop vs SoA
# single-shard vs sharded (data layout vs parallel machinery), plus the
# obs on/off overhead arm — the DESIGN.md §5 fig4-scale rows.
bench-scale:
	$(CARGO) bench -p qnlg-bench --bench scale

# Trace-overhead ablation: the disabled gate (one relaxed bool load)
# against no call at all — must be free — plus the batched-plane step
# traced vs untraced (the cost of --trace runs). Numbers in DESIGN.md §5.
bench-trace:
	$(CARGO) bench -p qnlg-bench --bench trace

# Multiparty-round ablation: exact GHZ statevector vs closed-form noisy
# kernel vs batched kernel play, at n = 3/6/10 — the DESIGN.md §5 ghz
# rows (acceptance bar: kernel ≥5x over statevector at n = 3).
bench-ghz:
	$(CARGO) bench -p qnlg-bench --bench ghz

# Chain-evaluation ablation: closed-form end-to-end visibility vs the
# hop-by-hop density-matrix oracle (acceptance bar: ≥5x at h = 4), plus
# the full route+schedule+sample epoch on the fanout-8 star — the
# DESIGN.md §5 topology rows.
bench-topology:
	$(CARGO) bench -p qnlg-bench --bench topology

# Served decision-path ablation: pre-drawn SPSC ring vs the same slots
# handed through a Mutex<VecDeque> (ring-vs-lock knob) vs drawing each
# slot on demand (buffering knob) — the DESIGN.md §5 qnlg-serve rows
# (acceptance bar: SPSC ≥3x over the mutex/draw-on-demand baseline).
bench-serve:
	$(CARGO) bench -p qnlg-bench --bench serve

# The qnlg-serve battery: SPSC ring property tests, the zero-alloc
# counting-allocator gate, the in-process + Unix-socket service tests,
# the E11 experiment's own checks, and the BENCH_serve.json
# determinism arm.
test-serve:
	$(CARGO) test -p qnlg-serve
	$(CARGO) test -p qnlg-bench --lib serve
	$(CARGO) test -p qnlg-bench --test determinism serve

# Open-ended wall-clock soak of the serve hot path (Ctrl-C to stop;
# finishes the current round, then writes the artifact with the
# measured decisions/sec and latency percentiles).
serve-soak:
	$(CARGO) run --release -p qnlg-bench --bin repro -- serve --soak --json --out artifacts/

# Quick-budget chaos run with the event timeline on: writes
# artifacts/TRACE_fig4-faults.json (Chrome trace_event — load in
# Perfetto or chrome://tracing) next to the BENCH artifact.
trace-quick:
	$(CARGO) run --release -p qnlg-bench --bin repro -- fig4-faults --quick --trace --out artifacts/

# Perf-regression gate: freshly regenerated quick artifacts vs the
# checked-in full-budget ones. Budgets differ, so only the per-unit-work
# throughput rates are compared; 5x absorbs machine-to-machine noise
# while still catching order-of-magnitude collapses.
perf-diff: repro-quick
	$(CARGO) run --release -p qnlg-bench --bin repro -- perf-diff . artifacts/ --tolerance 5.0

# Statistical acceptance tests with their sample-size/confidence
# accounting printed (every stochastic assertion states its n and
# confidence via qmath::assert_prob_in! — no bare magic tolerances).
test-stat:
	$(CARGO) test -p games --test stat_acceptance -- --nocapture
	$(CARGO) test -p qnet --test stat_acceptance -- --nocapture
	$(CARGO) test -p qnet --test topology_stat -- --nocapture
	$(CARGO) test -p qsim --test werner_stat --test ghz_stat -- --nocapture

# The metro-topology battery: property tests (chain monotonicity,
# downed-edge avoidance, exact budget conservation, relabeling
# invariance), the chain CHSH statistical pins, the E10 experiment's own
# checks, and the BENCH_topology.json determinism arm.
test-topology:
	$(CARGO) test -p qnet --test topology_props --test topology_stat
	$(CARGO) test -p qnlg-bench --lib topology
	$(CARGO) test -p qnlg-bench --test determinism topology

# CI-budget reproduction of every experiment, with schema-validated
# JSON-lines artifacts in artifacts/. Fails if any acceptance check fails.
repro-quick:
	$(CARGO) run --release -p qnlg-bench --bin repro -- all --quick --json --out artifacts/
	$(CARGO) run --release -p qnlg-bench --bin repro -- check-artifacts artifacts/
