//! The shared work-stealing scheduler behind every parallel operator.
//!
//! One fixed pool of worker threads serves the whole process: morsel-driven
//! scans, filters, projections, sorts, partition-parallel aggregation and
//! window evaluation, and batched view maintenance all inject chunked tasks
//! here instead of spawning ad-hoc `thread::scope` threads. Each worker owns
//! a deque; an idle worker steals from the back of its peers' deques, so an
//! uneven morsel (one giant partition, one selective filter chunk) never
//! serializes the rest of the pipeline behind it.
//!
//! ## Determinism contract
//!
//! [`run_ordered`] is the only way work enters the pool, and it returns
//! results **in input order**, keyed by chunk index — never by completion
//! order. Operators built on it are required to produce byte-identical
//! output to their serial forms at every thread count: order-preserving
//! concatenation for scans/filters/projections, k-way merge with
//! chunk-index tie-breaks for sort, and per-group input-order folding with
//! first-seen emission for aggregation. Scheduling decides only *when* a
//! chunk runs, never *what* the caller observes.
//!
//! ## Cost gate
//!
//! Parallelism only pays above a row-count threshold (task injection,
//! wake-ups, and result stitching are not free). [`should_parallelize`]
//! centralizes that decision: at least two independent units of work,
//! at least [`DEFAULT_PARALLEL_THRESHOLD`] rows (override with the
//! `RFV_PARALLEL_THRESHOLD` env var or [`set_parallel_threshold`]), and an
//! effective thread count above one. `window.rs` and the morsel operators
//! all consult this gate instead of carrying private heuristics.
//!
//! ## Pool lifecycle
//!
//! Workers are spawned lazily on first parallel execution and live for the
//! rest of the process (they park on a condvar when idle). The pool grows
//! to the high-water effective thread count and never shrinks; threads are
//! detached, so process exit reaps them. `RFV_THREADS` pins the effective
//! count at startup; [`set_threads`] (surfaced as `Database::set_threads`
//! and the shell's `\threads`) overrides it at runtime. An effective count
//! of one bypasses the pool entirely — serial execution never pays for a
//! thread, a lock, or a clock read.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use rfv_obs::{Counter, Histogram};
use rfv_types::{Result, RfvError};

/// Default minimum input rows before an operator goes parallel.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 8192;

/// Hard cap on worker threads (sanity bound for `RFV_THREADS`).
const MAX_THREADS: usize = 512;

/// Runtime override of the effective thread count (0 = unset).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Runtime override of the parallel row threshold (`usize::MAX` = unset).
static THRESHOLD_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
}

/// `RFV_THREADS` parsed once (the env cannot change mid-process).
fn env_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| env_usize("RFV_THREADS").filter(|&n| n > 0))
}

/// `RFV_PARALLEL_THRESHOLD` parsed once.
fn env_threshold() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| env_usize("RFV_PARALLEL_THRESHOLD"))
}

/// Override the effective thread count for this process (`0` resets to
/// `RFV_THREADS` / hardware). Exposed as `Database::set_threads`.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n.min(MAX_THREADS), Ordering::Relaxed);
}

/// Effective thread count: runtime override, else `RFV_THREADS`, else
/// `available_parallelism`. Always at least 1.
pub fn effective_threads() -> usize {
    let n = match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => env_threads()
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        n => n,
    };
    n.clamp(1, MAX_THREADS)
}

/// Override the parallel row threshold (`usize::MAX` resets to
/// `RFV_PARALLEL_THRESHOLD` / the default). Tests use this to force the
/// parallel paths on small inputs.
pub fn set_parallel_threshold(rows: usize) {
    THRESHOLD_OVERRIDE.store(rows, Ordering::Relaxed);
}

/// Minimum input rows before an operator goes parallel.
pub fn parallel_threshold() -> usize {
    match THRESHOLD_OVERRIDE.load(Ordering::Relaxed) {
        usize::MAX => env_threshold().unwrap_or(DEFAULT_PARALLEL_THRESHOLD),
        n => n,
    }
}

/// The shared cost gate: `units` independent pieces of work over `rows`
/// input rows is worth parallelizing iff there are at least two units,
/// the input meets [`parallel_threshold`], and more than one thread is
/// effective.
pub fn should_parallelize(rows: usize, units: usize) -> bool {
    units > 1 && rows >= parallel_threshold() && effective_threads() > 1
}

/// Process-wide scheduler metrics, mirrored into each engine's
/// [`rfv_obs::MetricsRegistry`] (the pool is shared, so the totals are
/// shared too).
#[derive(Debug)]
pub struct SchedMetrics {
    /// Tasks injected into the pool.
    pub tasks: Counter,
    /// Tasks a worker obtained from another worker's deque.
    pub steals: Counter,
    /// Parallel operator executions (one per [`run_ordered`] that actually
    /// used the pool).
    pub parallel_ops: Counter,
    /// Per-task busy time in nanoseconds.
    pub busy_ns: Histogram,
}

/// The scheduler's metric handles (created on first use, shared forever).
pub fn metrics() -> &'static SchedMetrics {
    static METRICS: OnceLock<SchedMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SchedMetrics {
        tasks: Counter::new(),
        steals: Counter::new(),
        parallel_ops: Counter::new(),
        busy_ns: Histogram::new(),
    })
}

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Per-worker counters behind the process-wide totals in
/// [`SchedMetrics`], surfaced through [`worker_stats`] (and from there
/// the `rfv_stat_workers` system view).
#[derive(Debug, Default)]
struct WorkerCounters {
    tasks: AtomicU64,
    steals: AtomicU64,
    busy_ns: AtomicU64,
}

/// One worker's state: its own deque plus its counters.
struct Worker {
    deque: Mutex<VecDeque<Task>>,
    counters: WorkerCounters,
}

/// A snapshot of one pool worker's lifetime totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStat {
    /// Worker id (index into the pool, stable for the process lifetime).
    pub worker: usize,
    /// Tasks this worker executed (own deque or stolen).
    pub tasks: u64,
    /// Tasks this worker obtained by stealing from a peer's deque.
    pub steals: u64,
    /// Total busy (task execution) nanoseconds on this worker.
    pub busy_ns: u64,
}

/// Per-worker totals for every pool worker spawned so far. Empty until
/// the first parallel execution spawns the pool (serial processes never
/// pay for workers, so they have none to report).
pub fn worker_stats() -> Vec<WorkerStat> {
    Pool::global()
        .workers
        .read()
        .iter()
        .enumerate()
        .map(|(id, w)| WorkerStat {
            worker: id,
            tasks: w.counters.tasks.load(Ordering::Relaxed),
            steals: w.counters.steals.load(Ordering::Relaxed),
            busy_ns: w.counters.busy_ns.load(Ordering::Relaxed),
        })
        .collect()
}

struct Pool {
    /// Grow-only worker list. Read-locked on every pop/steal; the vector
    /// only ever appends, so contention is reads against rare growth.
    workers: rfv_types::sync::RwLock<Vec<Arc<Worker>>>,
    /// Injection epoch: bumped (under the lock) whenever tasks arrive, so
    /// a parking worker that re-checked emptiness before the bump still
    /// observes the change through the condvar.
    epoch: Mutex<u64>,
    idle: Condvar,
    /// Round-robin injection cursor.
    cursor: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Set inside pool workers so nested `run_ordered` calls execute
    /// inline instead of deadlocking the pool on itself.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// The executing worker, for per-worker task attribution from inside
    /// the `run_ordered` task wrapper.
    static CURRENT_WORKER: std::cell::RefCell<Option<Arc<Worker>>> =
        const { std::cell::RefCell::new(None) };
}

/// Attribute one executed task to the current pool worker (no-op on
/// non-worker threads, i.e. the inline fallback paths).
fn credit_current_worker(busy_ns: u64) {
    CURRENT_WORKER.with(|w| {
        if let Some(worker) = w.borrow().as_ref() {
            worker.counters.tasks.fetch_add(1, Ordering::Relaxed);
            worker
                .counters
                .busy_ns
                .fetch_add(busy_ns, Ordering::Relaxed);
        }
    });
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            workers: rfv_types::sync::RwLock::new(Vec::new()),
            epoch: Mutex::new(0),
            idle: Condvar::new(),
            cursor: AtomicU64::new(0),
        })
    }

    /// Grow the pool to at least `n` workers.
    fn ensure_workers(&'static self, n: usize) {
        if self.workers.read().len() >= n {
            return;
        }
        let mut workers = self.workers.write();
        while workers.len() < n {
            let worker = Arc::new(Worker {
                deque: Mutex::new(VecDeque::new()),
                counters: WorkerCounters::default(),
            });
            workers.push(worker.clone());
            let id = workers.len() - 1;
            let spawned = std::thread::Builder::new()
                .name(format!("rfv-sched-{id}"))
                .spawn(move || self.worker_loop(id, worker));
            if spawned.is_err() {
                // Could not spawn: drop the registered worker again and
                // stop growing — the pool keeps whatever it has.
                workers.pop();
                break;
            }
        }
    }

    /// Push `tasks` round-robin across worker deques and wake the pool.
    fn inject(&self, tasks: Vec<Task>) {
        let workers = self.workers.read();
        debug_assert!(!workers.is_empty());
        let base = self.cursor.fetch_add(tasks.len() as u64, Ordering::Relaxed) as usize;
        for (k, task) in tasks.into_iter().enumerate() {
            let w = &workers[(base + k) % workers.len()];
            lock(&w.deque).push_back(task);
        }
        drop(workers);
        *lock(&self.epoch) += 1;
        self.idle.notify_all();
    }

    /// Pop from the own deque, else steal from a peer (back of their
    /// deque). Returns `None` when every deque is empty.
    fn pop_or_steal(&self, id: usize, own: &Worker) -> Option<Task> {
        if let Some(t) = lock(&own.deque).pop_front() {
            return Some(t);
        }
        let workers = self.workers.read();
        let n = workers.len();
        for k in 1..n {
            let peer = &workers[(id + k) % n];
            if let Some(t) = lock(&peer.deque).pop_back() {
                metrics().steals.incr();
                own.counters.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    fn worker_loop(&'static self, id: usize, own: Arc<Worker>) {
        IN_WORKER.with(|w| w.set(true));
        CURRENT_WORKER.with(|w| *w.borrow_mut() = Some(Arc::clone(&own)));
        // Claim a flight-recorder lane so this worker's tasks show up as
        // their own timeline row in the Perfetto export.
        rfv_obs::event::set_thread_lane(
            rfv_obs::event::WORKER_LANE_BASE + id as u32,
            &format!("worker-{id}"),
        );
        loop {
            if let Some(task) = self.pop_or_steal(id, &own) {
                task();
                continue;
            }
            // Park: re-check the epoch-guarded emptiness so an injection
            // racing this park cannot be missed. A task surfaced by the
            // re-check must actually run (outside the lock) — popping it
            // and discarding it would strand its `run_ordered` caller.
            let raced_in = {
                let mut epoch = lock(&self.epoch);
                match self.pop_or_steal(id, &own) {
                    Some(task) => Some(task),
                    None => {
                        let seen = *epoch;
                        while *epoch == seen {
                            epoch = self
                                .idle
                                .wait(epoch)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                        None
                    }
                }
            };
            if let Some(task) = raced_in {
                task();
            }
        }
    }
}

/// Outcome slot for one task of a [`run_ordered`] call.
enum TaskOut<U> {
    Done(Result<U>),
    Panicked(String),
}

struct RunSlots<U> {
    results: Vec<Option<TaskOut<U>>>,
    remaining: usize,
}

struct RunState<U> {
    slots: Mutex<RunSlots<U>>,
    done: Condvar,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic payload>".to_string())
    }
}

/// Execute `f` over `chunks` on the shared pool, returning the results
/// **in chunk order**. The panic-safe join converts a panicking chunk into
/// an internal error (never a poisoned pool or a hung caller), and error
/// reporting is deterministic: the error of the lowest-index failing chunk
/// wins, exactly as a serial left-to-right fold would report it.
///
/// Runs inline (in order, on the calling thread) when the pool would not
/// help: fewer than two chunks, an effective thread count of one, or a
/// call from inside a pool worker (nested parallelism).
pub fn run_ordered<C, U, F>(chunks: Vec<C>, f: F) -> Result<Vec<U>>
where
    C: Send + 'static,
    U: Send + 'static,
    F: Fn(usize, C) -> Result<U> + Send + Sync + 'static,
{
    let n = chunks.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let threads = effective_threads();
    if n == 1 || threads == 1 || IN_WORKER.with(|w| w.get()) {
        return chunks
            .into_iter()
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect();
    }

    let pool = Pool::global();
    pool.ensure_workers(threads.min(n));
    if pool.workers.read().is_empty() {
        // Thread spawning unavailable; degrade to serial.
        return chunks
            .into_iter()
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect();
    }

    let m = metrics();
    m.parallel_ops.incr();
    m.tasks.add(n as u64);

    let state: Arc<RunState<U>> = Arc::new(RunState {
        slots: Mutex::new(RunSlots {
            results: (0..n).map(|_| None).collect(),
            remaining: n,
        }),
        done: Condvar::new(),
    });
    let f = Arc::new(f);
    let tasks: Vec<Task> = chunks
        .into_iter()
        .enumerate()
        .map(|(i, chunk)| {
            let state = Arc::clone(&state);
            let f = Arc::clone(&f);
            Box::new(move || {
                // The recorder start stamp is guarded on enablement so a
                // disabled recorder costs one relaxed load, no clock read.
                let rec = rfv_obs::event::recorder();
                let rec_start = rec.is_enabled().then(rfv_obs::event::now_ns);
                let clock = rfv_obs::Stopwatch::start();
                let out = panic::catch_unwind(AssertUnwindSafe(|| f(i, chunk)));
                let busy = clock.elapsed_ns();
                metrics().busy_ns.record(busy);
                credit_current_worker(busy);
                if let Some(start) = rec_start {
                    rec.complete("task", "sched", start, busy, None);
                }
                let mut slots = lock(&state.slots);
                slots.results[i] = Some(match out {
                    Ok(r) => TaskOut::Done(r),
                    Err(p) => TaskOut::Panicked(panic_message(p)),
                });
                slots.remaining -= 1;
                if slots.remaining == 0 {
                    state.done.notify_all();
                }
            }) as Task
        })
        .collect();
    pool.inject(tasks);

    let mut slots = lock(&state.slots);
    while slots.remaining > 0 {
        slots = state
            .done
            .wait(slots)
            .unwrap_or_else(PoisonError::into_inner);
    }
    let results = std::mem::take(&mut slots.results);
    drop(slots);

    let mut out = Vec::with_capacity(n);
    for slot in results {
        match slot {
            Some(TaskOut::Done(Ok(v))) => out.push(v),
            Some(TaskOut::Done(Err(e))) => return Err(e),
            Some(TaskOut::Panicked(msg)) => {
                return Err(RfvError::internal(format!(
                    "parallel worker panicked: {msg}"
                )))
            }
            None => {
                return Err(RfvError::internal(
                    "parallel task completed without filling its result slot",
                ))
            }
        }
    }
    Ok(out)
}

/// [`run_ordered`] with a governance checkpoint in the work loop: every
/// task polls `gov` *before* doing any work, so once a statement's token
/// trips, its queued morsels drain from the pool in microseconds instead
/// of running to completion. This is the scheduler-level cancellation
/// point; operators add finer-grained checks inside their own loops.
pub fn run_ordered_gov<C, U, F>(chunks: Vec<C>, gov: rfv_types::Gov, f: F) -> Result<Vec<U>>
where
    C: Send + 'static,
    U: Send + 'static,
    F: Fn(usize, C) -> Result<U> + Send + Sync + 'static,
{
    run_ordered(chunks, move |i, chunk| {
        gov.check()?;
        f(i, chunk)
    })
}

/// Split `len` items into contiguous morsel ranges `[lo, hi)` sized for
/// the current pool: roughly four morsels per effective thread, but never
/// smaller than an eighth of the parallel threshold (so tiny overridden
/// thresholds still produce multiple morsels for the tests that force
/// parallelism on small inputs).
pub fn morsel_ranges(len: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let target = effective_threads().saturating_mul(4).max(1);
    let min_morsel = (parallel_threshold() / 8).max(1);
    let size = len.div_ceil(target).max(min_morsel);
    let mut ranges = Vec::with_capacity(len.div_ceil(size));
    let mut lo = 0;
    while lo < len {
        let hi = (lo + size).min(len);
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

/// Split an owned vector into the same contiguous morsels as
/// [`morsel_ranges`], preserving order.
pub fn split_morsels<T>(mut items: Vec<T>) -> Vec<Vec<T>> {
    let ranges = morsel_ranges(items.len());
    if ranges.len() <= 1 {
        return vec![items];
    }
    let mut chunks = Vec::with_capacity(ranges.len());
    for &(lo, hi) in ranges.iter().rev() {
        chunks.push(items.split_off(lo));
        debug_assert_eq!(lo + chunks.last().unwrap().len(), hi);
    }
    chunks.reverse();
    chunks
}

/// How a parallel-capable operator actually executed: number of morsels
/// (tasks) it injected and the worker budget they ran under. Default
/// (zeroed) means the operator took its serial path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    pub morsels: u64,
    pub workers: u64,
    /// What an ordering operator (`Sort`, `Window`) found in its input.
    pub order: Option<crate::filter::OrderFound>,
}

impl ParStats {
    /// Record a parallel execution over `morsels` tasks.
    pub fn record(&mut self, morsels: usize) {
        self.morsels = morsels as u64;
        self.workers = effective_threads().min(morsels) as u64;
    }

    /// Whether the operator actually went parallel.
    pub fn is_parallel(&self) -> bool {
        self.morsels > 1
    }
}

/// Serialize this crate's unit tests that mutate the process-wide knobs.
#[cfg(test)]
pub(crate) fn knob_guard() -> MutexGuard<'static, ()> {
    static KNOBS: Mutex<()> = Mutex::new(());
    KNOBS.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_ordered_preserves_input_order() {
        let _g = knob_guard();
        set_threads(4);
        let chunks: Vec<usize> = (0..64).collect();
        let out = run_ordered(chunks, |i, c| {
            assert_eq!(i, c);
            // Uneven work so completion order scrambles.
            std::thread::sleep(std::time::Duration::from_micros(((c * 7) % 13) as u64));
            Ok(c * 2)
        })
        .unwrap();
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        set_threads(0);
    }

    #[test]
    fn panicking_chunk_becomes_internal_error() {
        let _g = knob_guard();
        set_threads(4);
        let err = run_ordered((0..8).collect::<Vec<usize>>(), |_, c| {
            if c == 5 {
                panic!("boom in chunk {c}");
            }
            Ok(c)
        })
        .unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        assert!(err.to_string().contains("boom in chunk 5"), "{err}");
        // The pool survives a panicking task.
        let ok = run_ordered(vec![1usize, 2, 3], |_, c| Ok(c)).unwrap();
        assert_eq!(ok, vec![1, 2, 3]);
        set_threads(0);
    }

    #[test]
    fn lowest_index_error_wins_like_serial() {
        let _g = knob_guard();
        set_threads(4);
        for _ in 0..16 {
            let err = run_ordered((0..16).collect::<Vec<usize>>(), |_, c| {
                if c >= 3 {
                    Err(RfvError::internal(format!("err {c}")))
                } else {
                    Ok(c)
                }
            })
            .unwrap_err();
            assert!(err.to_string().contains("err 3"), "{err}");
        }
        set_threads(0);
    }

    #[test]
    fn serial_mode_runs_inline() {
        let _g = knob_guard();
        set_threads(1);
        let before = metrics().parallel_ops.get();
        let out = run_ordered(vec![10usize, 20, 30], |i, c| Ok(i + c)).unwrap();
        assert_eq!(out, vec![10, 21, 32]);
        assert_eq!(
            metrics().parallel_ops.get(),
            before,
            "no pool use at 1 thread"
        );
        set_threads(0);
    }

    #[test]
    fn nested_run_ordered_executes_inline() {
        let _g = knob_guard();
        set_threads(2);
        let out = run_ordered(vec![0usize, 1, 2, 3], |_, c| {
            let inner = run_ordered(vec![c, c + 1], |_, x| Ok(x * 10))?;
            Ok(inner.iter().sum::<usize>())
        })
        .unwrap();
        assert_eq!(out, vec![10, 30, 50, 70]);
        set_threads(0);
    }

    #[test]
    fn cost_gate_honors_threshold_override() {
        let _g = knob_guard();
        set_threads(4);
        set_parallel_threshold(100);
        assert!(!should_parallelize(99, 8));
        assert!(should_parallelize(100, 8));
        assert!(!should_parallelize(100, 1), "one unit is never parallel");
        set_threads(1);
        assert!(
            !should_parallelize(1 << 30, 8),
            "one thread is never parallel"
        );
        set_parallel_threshold(usize::MAX);
        set_threads(0);
        assert_eq!(parallel_threshold(), DEFAULT_PARALLEL_THRESHOLD);
    }

    #[test]
    fn morsels_cover_input_exactly_and_in_order() {
        let _g = knob_guard();
        set_parallel_threshold(8);
        for len in [0usize, 1, 2, 7, 64, 1000] {
            let ranges = morsel_ranges(len);
            let mut expect = 0;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, expect);
                assert!(hi > lo);
                expect = hi;
            }
            assert_eq!(expect, len);
            let chunks = split_morsels((0..len).collect::<Vec<_>>());
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, (0..len).collect::<Vec<_>>());
        }
        set_parallel_threshold(usize::MAX);
    }

    #[test]
    fn steals_happen_under_imbalance() {
        let _g = knob_guard();
        set_threads(4);
        let before = metrics().tasks.get();
        // Plenty of uneven tasks: some worker will drain its deque first.
        let out = run_ordered((0..256usize).collect::<Vec<_>>(), |_, c| {
            if c % 17 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            Ok(1usize)
        })
        .unwrap();
        assert_eq!(out.len(), 256);
        assert!(metrics().tasks.get() >= before + 256);
        set_threads(0);
    }

    #[test]
    fn worker_stats_account_for_executed_tasks() {
        let _g = knob_guard();
        set_threads(4);
        let before: u64 = worker_stats().iter().map(|w| w.tasks).sum();
        let out = run_ordered((0..64usize).collect::<Vec<_>>(), |_, c| Ok(c)).unwrap();
        assert_eq!(out.len(), 64);
        let stats = worker_stats();
        assert!(!stats.is_empty(), "pool spawned workers");
        let after: u64 = stats.iter().map(|w| w.tasks).sum();
        assert_eq!(after, before + 64, "every task credited to a worker");
        for (i, w) in stats.iter().enumerate() {
            assert_eq!(w.worker, i);
        }
        set_threads(0);
    }

    #[test]
    fn par_stats_records_effective_workers() {
        let _g = knob_guard();
        set_threads(3);
        let mut p = ParStats::default();
        assert!(!p.is_parallel());
        p.record(8);
        assert_eq!(
            p,
            ParStats {
                morsels: 8,
                workers: 3,
                order: None
            }
        );
        p.record(2);
        assert_eq!(p.workers, 2, "capped by morsel count");
        set_threads(0);
    }
}
