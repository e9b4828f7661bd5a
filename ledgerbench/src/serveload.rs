//! The `serve-socket` workload: a closed loop of client connections to a
//! `SocketServer` over a threaded `Service`.
//!
//! Each connection drives its own endpoint and waits for every reply
//! before sending the next request, as a load balancer does before
//! placing a task. Closed loop because an open-loop paced generator on
//! two cores runs milliseconds late, and its numbers then measure the
//! scheduler rather than the service.

use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{wilson_lower, Z_999};
use crate::sys::process_cpu;
use rand::Rng;
use serve::socket::{Client, SocketServer};
use serve::{ServeConfig, Service, ServiceSummary, TIER_QUANTUM};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Client connections (and endpoints, one each).
pub const CONNS: usize = 2;
/// P(type-C task): the paper's Bernoulli C/E mix.
const P_COLOCATE: f64 = 0.5;
/// Timed rounds between two extra start-ups; their median, with the
/// first start-up's, is `setup_s`.
const SETUP_EVERY: usize = 16;
/// Pause before an extra start-up, so the running service's pump has
/// refilled its rings and is idle.
const SETTLE: Duration = Duration::from_millis(20);
/// Untimed requests per connection before the first timed round.
const WARMUP: usize = 2_000;
/// Best classical win rate of the co-locate-iff-x∧y game.
const CLASSICAL_WIN: f64 = 0.75;
/// Latency samples reserved per connection per second of run: above any
/// rate two cores reach, so the buffer never reallocates and resident
/// memory grows only with the samples written.
const SAMPLES_PER_SECOND: f64 = 400_000.0;

/// Raw measurements of one serve run.
#[derive(Default)]
pub struct ServeRun {
    pub setup_s: Vec<f64>,
    /// Requests per connection per round.
    pub per_round: u64,
    /// Wall and CPU time of each untraced round.
    pub round_wall_s: Vec<f64>,
    pub round_cpu_s: Vec<f64>,
    /// Wall time of each traced round (obs on).
    pub traced_round_wall_s: Vec<f64>,
    /// Client-side round trip of every untraced request, in ns.
    pub latency_ns: Vec<u32>,
    /// Raw transport round trips of the floor rounds, in ns.
    pub floor_ns: Vec<u32>,
    /// Every request answered, traced rounds and warm-up included.
    pub decisions: u64,
    pub quantum: u64,
    /// Quantum-tier answers that co-located iff both tasks were type-C.
    pub quantum_wins: u64,
    /// The service's shutdown summary.
    pub summary: ServiceSummary,
    /// Peak resident memory through set-up and the timed rounds, less the
    /// latency samples, read before the samples are merged and sorted.
    pub peak_rss_mb: f64,
}

#[derive(Default)]
struct ClientTally {
    sent: u64,
    errors: u64,
    out_of_range: u64,
    decisions: u64,
    quantum: u64,
    quantum_wins: u64,
    latency_ns: Vec<u32>,
    /// Raw transport round trips of the floor rounds, in ns.
    floor_ns: Vec<u32>,
    /// `(round, kind, start, end)` of each round this client ran.
    rounds: Vec<(usize, u8, Instant, Instant)>,
}

/// Builds a running service, its socket server and the client
/// connections.
fn start_service(
    config: &ServeConfig,
    path: &Path,
    spans: Option<&mut Spans>,
) -> (Arc<Service>, SocketServer, Vec<Client>) {
    let t0 = Instant::now();
    let service = Arc::new(Service::start(config));
    let t1 = Instant::now();
    let server =
        SocketServer::start(path, Arc::clone(&service)).expect("bind the benchmark socket");
    let t2 = Instant::now();
    let clients: Vec<Client> = (0..CONNS)
        .map(|_| Client::connect(path).expect("connect to the benchmark socket"))
        .collect();
    let t3 = Instant::now();
    if let Some(spans) = spans {
        let setup = spans.record("serve.setup", None, t0, t3, 1);
        spans.record("Service::start", Some(setup), t0, t1, 1);
        spans.record("SocketServer::start", Some(setup), t1, t2, 1);
        spans.record("Client::connect", Some(setup), t2, t3, CONNS as u64);
    }
    (service, server, clients)
}

/// What a round measures.
const SERVE: u8 = 0;
/// A serve round with obs collection on (traced runs only).
const SERVE_TRACED: u8 = 1;
/// Raw socket ping-pong instead of requests (traced runs only).
const FLOOR: u8 = 2;
/// Round kinds of a traced run, in order: untraced and traced rounds
/// each follow a floor round equally often, so neither inherits the
/// other's position in the cycle.
const TRACED_CYCLE: [u8; 6] = [SERVE, SERVE_TRACED, FLOOR, SERVE_TRACED, SERVE, FLOOR];

/// Request frame (length prefix + endpoint + x + y) and response frame
/// (length prefix + first + second + seq + tier) of the serve protocol.
const REQUEST_FRAME: usize = 10;
const RESPONSE_FRAME: usize = 21;

/// Answers raw ping-pong frames with the serve protocol's sizes and read
/// pattern until the peer closes.
fn echo(mut server: UnixStream) {
    let mut len = [0u8; 4];
    let mut payload = [0u8; REQUEST_FRAME - 4];
    let response = [0u8; RESPONSE_FRAME];
    while server.read_exact(&mut len).is_ok() {
        server.read_exact(&mut payload).expect("echo read payload");
        server.write_all(&response).expect("echo write");
    }
}

/// One raw round trip; returns its ns.
fn ping(client: &mut UnixStream) -> u64 {
    let request = [0u8; REQUEST_FRAME];
    let mut len = [0u8; 4];
    let mut payload = [0u8; RESPONSE_FRAME - 4];
    let t0 = Instant::now();
    client.write_all(&request).expect("floor write");
    client.read_exact(&mut len).expect("floor read len");
    client.read_exact(&mut payload).expect("floor read payload");
    t0.elapsed().as_nanos() as u64
}

fn push_ns(samples: &mut Vec<u32>, ns: u64) {
    samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
}

/// Runs the workload for `seconds` of timed rounds. With `trace`, rounds
/// cycle through untraced, traced (obs on) and floor rounds, and every
/// round gets spans. A floor round runs the same closed loop on a raw
/// `UnixStream` pair per client with the protocol's frame sizes, inside
/// the same process with the service running, so that the transport
/// floor and the served round trip see the same scheduling.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: &mut Outcome,
    mut spans: Option<&mut Spans>,
) -> ServeRun {
    let config = ServeConfig::typical(seed);
    let dir = PathBuf::from(".ledgerbench");
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    let path = dir.join(format!("serve-{}.sock", std::process::id()));
    let mut run = ServeRun {
        per_round: if smoke { 2_000 } else { 10_000 },
        ..ServeRun::default()
    };

    let t0 = Instant::now();
    let (service, mut server, clients) = start_service(&config, &path, spans.as_deref_mut());
    run.setup_s.push(t0.elapsed().as_secs_f64());
    // Extra start-ups bind their own socket next to the running one.
    let extra_path = dir.join(format!("serve-{}-setup.sock", std::process::id()));

    let barrier = Barrier::new(CONNS + 1);
    let stop = AtomicBool::new(false);
    let round_kind = AtomicU8::new(SERVE);
    let per_round = run.per_round;
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(e, mut client)| {
                let (barrier, stop, round_kind) = (&barrier, &stop, &round_kind);
                let n_servers = config.n_servers;
                let mut raw = trace.then(|| {
                    let (near, far) = UnixStream::pair().expect("floor socket pair");
                    scope.spawn(move || echo(far));
                    near
                });
                scope.spawn(move || {
                    let mut rng = runtime::stream_rng(seed, e as u64);
                    let mut t = ClientTally {
                        latency_ns: Vec::with_capacity(
                            (seconds.ceil() * SAMPLES_PER_SECOND) as usize + per_round as usize,
                        ),
                        ..ClientTally::default()
                    };
                    let mut ask = |t: &mut ClientTally| -> Option<u64> {
                        let (x, y) = (rng.gen_bool(P_COLOCATE), rng.gen_bool(P_COLOCATE));
                        t.sent += 1;
                        let t0 = Instant::now();
                        let reply = client.decide(e as u32, x, y);
                        let ns = t0.elapsed().as_nanos() as u64;
                        let Ok(p) = reply else {
                            t.errors += 1;
                            return None;
                        };
                        t.decisions += 1;
                        if p.first >= n_servers || p.second >= n_servers {
                            t.out_of_range += 1;
                        }
                        if p.tier == TIER_QUANTUM {
                            t.quantum += 1;
                            t.quantum_wins += u64::from((p.first == p.second) == (x && y));
                        }
                        Some(ns)
                    };
                    let mut broken = false;
                    for _ in 0..WARMUP {
                        if ask(&mut t).is_none() {
                            broken = true;
                            break;
                        }
                        if let Some(raw) = raw.as_mut() {
                            ping(raw);
                        }
                    }
                    for round in 0.. {
                        barrier.wait();
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let kind = round_kind.load(Ordering::Acquire);
                        let t0 = Instant::now();
                        for _ in 0..per_round {
                            if kind == FLOOR {
                                let raw = raw.as_mut().expect("floor rounds run only when traced");
                                push_ns(&mut t.floor_ns, ping(raw));
                                continue;
                            }
                            if broken {
                                break;
                            }
                            match ask(&mut t) {
                                Some(ns) if kind == SERVE => push_ns(&mut t.latency_ns, ns),
                                Some(_) => {}
                                None => broken = true,
                            }
                        }
                        t.rounds.push((round, kind, t0, Instant::now()));
                        barrier.wait();
                    }
                    t
                })
            })
            .collect();

        let start = Instant::now();
        for round in 0.. {
            let kind = if trace {
                TRACED_CYCLE[round % TRACED_CYCLE.len()]
            } else {
                SERVE
            };
            round_kind.store(kind, Ordering::Release);
            obs::set_enabled(kind == SERVE_TRACED);
            let cpu0 = process_cpu();
            barrier.wait();
            let t0 = Instant::now();
            barrier.wait();
            let wall = t0.elapsed().as_secs_f64();
            let cpu = (process_cpu() - cpu0).as_secs_f64();
            obs::set_enabled(false);
            match kind {
                SERVE => {
                    run.round_wall_s.push(wall);
                    run.round_cpu_s.push(cpu);
                }
                SERVE_TRACED => run.traced_round_wall_s.push(wall),
                _ => {}
            }
            // A traced run ends on a floor round, so it has all three kinds.
            let done = start.elapsed().as_secs_f64() >= seconds || smoke;
            if done && (!trace || kind == FLOOR) {
                break;
            }
            if round % SETUP_EVERY == SETUP_EVERY - 1 {
                std::thread::sleep(SETTLE);
                let t0 = Instant::now();
                let (extra_service, extra_server, extra_clients) =
                    start_service(&config, &extra_path, spans.as_deref_mut());
                run.setup_s.push(t0.elapsed().as_secs_f64());
                drop(extra_clients);
                drop(extra_server);
                drop(extra_service);
            }
        }
        stop.store(true, Ordering::Release);
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    // The latency buffers never reallocate, so they are resident exactly
    // as far as they were written; leave them out so the figure does not
    // follow throughput.
    let sample_mb = tallies
        .iter()
        .map(|t| t.latency_ns.len() * 4)
        .sum::<usize>() as f64
        / (1024.0 * 1024.0);
    run.peak_rss_mb = crate::sys::peak_rss_mb() - sample_mb;
    server.stop();
    drop(server);
    run.summary = Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("socket server released every handle to the service"))
        .shutdown();

    if let Some(spans) = spans {
        for (e, t) in tallies.iter().enumerate() {
            for &(round, kind, s, end) in &t.rounds {
                let what = if kind == FLOOR {
                    "raw ping-pong"
                } else {
                    "Client::decide"
                };
                spans.record(
                    format!("round{round}.client{e}.{what}"),
                    None,
                    s,
                    end,
                    per_round,
                );
            }
        }
    }
    let (mut sent, mut errors, mut out_of_range) = (0, 0, 0);
    run.latency_ns
        .reserve_exact(tallies.iter().map(|t| t.latency_ns.len()).sum());
    for t in tallies {
        sent += t.sent;
        errors += t.errors;
        out_of_range += t.out_of_range;
        run.decisions += t.decisions;
        run.quantum += t.quantum;
        run.quantum_wins += t.quantum_wins;
        run.latency_ns.extend_from_slice(&t.latency_ns);
        run.floor_ns.extend_from_slice(&t.floor_ns);
    }
    out.attempted += sent;
    out.failed += errors + out_of_range;
    if errors > 0 {
        out.failures
            .push(format!("{errors} of {sent} requests errored"));
    }
    if out_of_range > 0 {
        out.failures.push(format!(
            "{out_of_range} placements outside 0..{}",
            config.n_servers
        ));
    }
    let lower = wilson_lower(run.quantum_wins, run.quantum, Z_999);
    out.check(lower > CLASSICAL_WIN, || {
        format!(
            "quantum-tier win rate {}/{}: 99.9% Wilson lower bound {lower:.4} does not exceed {CLASSICAL_WIN}",
            run.quantum_wins, run.quantum
        )
    });
    out.info.push(format!(
        "quantum-tier co-locate-iff-x∧y win rate {:.4} (n={}), 99.9% Wilson lower bound {lower:.4} vs classical {CLASSICAL_WIN}",
        run.quantum_wins as f64 / run.quantum.max(1) as f64,
        run.quantum
    ));
    run
}
