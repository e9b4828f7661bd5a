//! The sweep executor: a fixed-size scoped worker pool over one atomic
//! chunk cursor.
//!
//! Replaces the bench harness's historical spawn-one-OS-thread-per-point
//! pattern (60+ threads for a Figure-4 sweep). Idle workers claim the next
//! contiguous index chunk with one `fetch_add`, so skewed point costs
//! balance themselves with no queue to lock. Each worker hands its
//! `(index, result)` pairs over once, under the single result lock, as it
//! exits: no thread ever holds two locks. Results are put back in item
//! order, so every downstream table is independent of scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

/// Items mapped (inline or pooled) — deterministic for a given workload.
static ITEMS_EXECUTED: obs::LazyCounter = obs::LazyCounter::new("pool.items.executed");
/// Workers spawned across all pooled calls.
static WORKERS_SPAWNED: obs::LazyCounter = obs::LazyCounter::new("pool.workers.spawned");
/// Chunk sizes in items, sharded per worker.
static CHUNK_ITEMS: obs::LazyHist = obs::LazyHist::new("pool.chunk.items");
/// Per-worker wall-clock spent inside `f` (one sample per worker).
static WORKER_BUSY_NS: obs::LazyHist = obs::LazyHist::new("time.pool.worker.busy.ns");
/// Per-worker wall-clock spent outside `f` (lifetime − busy).
static WORKER_IDLE_NS: obs::LazyHist = obs::LazyHist::new("time.pool.worker.idle.ns");

/// Number of worker threads a parallel call will use: the `QNLG_THREADS`
/// environment variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`]. A set-but-invalid value (not a
/// number, or zero) is reported once to stderr and then ignored.
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var("QNLG_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => {
                static WARNED: Once = Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: QNLG_THREADS={v:?} is not a positive integer; \
                         falling back to available parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Chunks per worker to create: more gives idle workers finer
/// granularity when point costs are skewed; fewer keeps cursor traffic low.
const CHUNKS_PER_WORKER: usize = 4;

/// The one scheduling loop behind both maps: `f(i)` for every `i` in
/// `0..len` on up to `threads` scoped workers, results in index order.
fn run_indexed<R, F>(threads: usize, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    ITEMS_EXECUTED.add(len as u64);
    if threads <= 1 || len <= 1 {
        // The inline path is its own span on the main track, so a
        // single-core trace still shows where map time went.
        trace::span_begin(trace::Track::Main, "pool.map.inline");
        let out = (0..len).map(f).collect();
        trace::span_end(trace::Track::Main, "pool.map.inline");
        return out;
    }
    let workers = threads.min(len);
    let chunk = len.div_ceil(workers * CHUNKS_PER_WORKER);

    // The cursor publishes no data, only disjoint index ranges, so
    // `Relaxed` suffices; the result lock and the scope's join order results.
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(len));
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (cursor, collected, f) = (&cursor, &collected, &f);
            scope.spawn(move || {
                WORKERS_SPAWNED.inc();
                // Clocks are read only while obs collection is on; with it
                // off the accounting is one relaxed bool load per chunk.
                let timing = obs::enabled();
                let spawned = timing.then(Instant::now);
                let mut busy = Duration::ZERO;
                let mut local: Vec<(usize, R)> = Vec::new();
                let track = trace::Track::Worker(w as u32);
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= len {
                        break;
                    }
                    let end = (start + chunk).min(len);
                    CHUNK_ITEMS.record_shard(w, (end - start) as u64);
                    let t0 = timing.then(Instant::now);
                    trace::span_begin(track, "pool.chunk");
                    for i in start..end {
                        local.push((i, f(i)));
                    }
                    trace::span_end(track, "pool.chunk");
                    if let Some(t0) = t0 {
                        busy += t0.elapsed();
                    }
                }
                if let Some(spawned) = spawned {
                    let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                    WORKER_BUSY_NS.record_shard(w, ns(busy));
                    WORKER_IDLE_NS.record_shard(w, ns(spawned.elapsed().saturating_sub(busy)));
                }
                collected.lock().expect("result lock").extend(local);
            });
        }
    });

    let mut pairs = collected.into_inner().expect("result lock");
    debug_assert_eq!(pairs.len(), len);
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Parallel indexed map over a slice with an explicit worker count.
///
/// `f` receives `(index, &item)` and results are returned in item order.
/// `threads == 1` runs inline with no thread machinery at all, which is
/// also the reference path for determinism tests.
pub fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_indexed(threads, items.len(), |i| f(i, &items[i]))
}

/// Parallel indexed map over a *mutable* slice with an explicit worker
/// count, on the same chunk-cursor loop as [`par_map_threads`].
///
/// Built for advancing sharded simulator state. Each item sits behind its
/// own mutex, which the one worker that claimed its index locks exactly
/// once, so the lock is never contended and never held beside another.
/// Results are returned in item order; `threads <= 1` runs inline and is
/// the reference path for determinism tests.
pub fn par_map_mut_threads<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    run_indexed(threads, cells.len(), |i| {
        f(i, &mut cells[i].lock().expect("item lock"))
    })
}

/// Parallel indexed map over a mutable slice using the configured worker
/// count ([`thread_count`]).
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    par_map_mut_threads(thread_count(), items, f)
}

/// Parallel indexed map using the configured worker count
/// ([`thread_count`]).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_threads(thread_count(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map_threads(4, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..257).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let items: Vec<u64> = (0..100).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9e37_79b9).rotate_left(7);
        let one = par_map_threads(1, &items, f);
        let two = par_map_threads(2, &items, f);
        let many = par_map_threads(16, &items, f);
        assert_eq!(one, two);
        assert_eq!(one, many);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_threads(8, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map_threads(8, &[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = par_map_threads(32, &[1, 2, 3], |_, &x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_returns_in_order() {
        let mut items: Vec<u64> = (0..97).collect();
        let out = par_map_mut_threads(4, &mut items, |i, x| {
            assert_eq!(i as u64, *x);
            *x += 100;
            *x
        });
        assert_eq!(out, (100..197).collect::<Vec<_>>());
        assert_eq!(items, (100..197).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_mut_is_worker_count_invariant() {
        let run = |threads| {
            let mut items: Vec<u64> = (0..31).collect();
            let out = par_map_mut_threads(threads, &mut items, |i, x| {
                *x = x.wrapping_mul(0x9e37_79b9).rotate_left(i as u32 % 13);
                *x
            });
            (items, out)
        };
        let reference = run(1);
        for threads in [2, 3, 16] {
            assert_eq!(run(threads), reference);
        }
    }

    #[test]
    fn par_map_mut_handles_empty_and_singleton() {
        let mut empty: Vec<u32> = vec![];
        assert!(par_map_mut_threads(8, &mut empty, |_, x| *x).is_empty());
        let mut one = vec![5u32];
        assert_eq!(par_map_mut_threads(8, &mut one, |_, x| *x + 1), vec![6]);
    }

    #[test]
    fn pool_metrics_record_when_enabled() {
        let samples = |name| obs::snapshot().hist(name).map_or(0, |h| h.count);
        obs::set_enabled(true);
        let items: Vec<u64> = (0..100).collect();
        let _ = par_map_threads(4, &items, |_, &x| x + 1);
        let (busy, idle) = (
            samples("time.pool.worker.busy.ns"),
            samples("time.pool.worker.idle.ns"),
        );
        let mut shards: Vec<u64> = (0..8).collect();
        let _ = par_map_mut_threads(2, &mut shards, |_, x| *x += 1);
        obs::set_enabled(false);
        let snap = obs::snapshot();
        assert!(snap.counter("pool.items.executed").unwrap_or(0) >= 108);
        assert!(snap.hist("pool.chunk.items").is_some_and(|h| h.count >= 1));
        // The mutable map runs on the same workers, so it is timed too.
        assert!(samples("time.pool.worker.busy.ns") >= busy + 2);
        assert!(samples("time.pool.worker.idle.ns") >= idle + 2);
    }

    #[test]
    fn idle_workers_never_deadlock() {
        // Two items on eight requested workers: both workers run dry at
        // nearly the same instant on every call, the interleaving that
        // deadlocks any scheme where a worker holds one lock while taking
        // another. A hang cannot be joined, so the calls run on their own
        // thread and the test waits on a channel with a deadline.
        let (done, finished) = std::sync::mpsc::channel();
        let calls = std::thread::spawn(move || {
            for _ in 0..20_000 {
                assert_eq!(par_map_threads(8, &[1, 2], |_, &x| x + 1), vec![2, 3]);
                let mut items = [1, 2];
                let out = par_map_mut_threads(8, &mut items, |_, x| {
                    *x += 1;
                    *x
                });
                assert_eq!(out, vec![2, 3]);
            }
            done.send(()).expect("the test thread is waiting");
        });
        finished
            .recv_timeout(Duration::from_secs(120))
            .expect("20 000 pool calls did not finish within 120 s");
        calls.join().expect("pool calls panicked");
    }

    #[test]
    fn skewed_work_completes_in_order() {
        // One pathologically slow item at index 0; the rest must still
        // complete promptly and in order. (Correctness check — timing is
        // exercised by benches/sweep.rs.)
        let items: Vec<usize> = (0..64).collect();
        let out = par_map_threads(4, &items, |_, &x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }
}
