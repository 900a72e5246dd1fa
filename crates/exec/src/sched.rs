//! The shared work-stealing scheduler and the one morsel driver on it.
//!
//! One fixed pool of worker threads serves the whole process. The three
//! operators that were measured to gain from splitting — table scan,
//! filter, projection — hand [`morsels`] a per-morsel closure; nothing else
//! injects work. `Sort`, `HashAggregate` and `Window` run one algorithm at
//! every thread count (see [`DEFAULT_PARALLEL_THRESHOLD`] for the
//! measurement). Each worker owns a deque; an idle worker steals from the
//! back of its peers' deques, so an uneven morsel (one selective filter
//! chunk) never serializes the rest behind it.
//!
//! ## Determinism contract
//!
//! [`run_ordered`] is the only way work enters the pool, and it returns
//! results **in input order**, keyed by chunk index — never by completion
//! order. [`morsels`] concatenates them in that order, so a split operator
//! produces byte-identical output to the same closure called once on the
//! whole input. Scheduling decides only *when* a chunk runs, never *what*
//! the caller observes.
//!
//! ## Cost gate
//!
//! Parallelism only pays above a row count (task injection, wake-ups, and
//! result stitching are not free). [`should_parallelize`] is that decision,
//! consulted in one place, by [`morsels`]: enough rows for two morsels, at
//! least [`DEFAULT_PARALLEL_THRESHOLD`] rows ([`set_parallel_threshold`] is
//! the tests' hook to force splitting on small inputs), and an effective
//! thread count above one.
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

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use rfv_obs::{Counter, Histogram};
use rfv_types::{Gov, Result, RfvError, Row};

/// Minimum input rows before a morsel operator splits: a measured
/// constant, not a knob. On the 2-vCPU reference host (EXPERIMENTS.md,
/// "Parallel operators, T = 2 vs T = 1": p50 of 40 fresh-literal statements
/// a side, two rounds, two passes; serial ÷ split, > 1 means the split
/// wins) a scan → filter → project statement with the gate forced open
/// reads 0.80–1.00 at 8 192 rows, 0.71–1.47 at 16 384 (parity), 1.25–2.03
/// at 32 768 (one cell of sixteen at 1.04) and 1.59–1.94 at 65 536. This
/// is the smallest power of two at which the split is worth ≥ 1.2 ×, and
/// it leaves the benchmark's 10 000-row window table and 22 000-row view
/// bodies unsplit, where T = 2 must cost what T = 1 costs.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 32_768;

/// Hard cap on worker threads (sanity bound for `RFV_THREADS`).
const MAX_THREADS: usize = 512;

/// Runtime override of the effective thread count (0 = unset).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Test override of the parallel row threshold (`usize::MAX` = unset).
static THRESHOLD_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// `RFV_THREADS` parsed once (the env cannot change mid-process).
fn env_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let threads = std::env::var("RFV_THREADS").ok()?.trim().parse().ok()?;
        Some(threads).filter(|&n| n > 0)
    })
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
/// [`DEFAULT_PARALLEL_THRESHOLD`]). Tests use this to force the morsel
/// split on small inputs.
pub fn set_parallel_threshold(rows: usize) {
    THRESHOLD_OVERRIDE.store(rows, Ordering::Relaxed);
}

/// Minimum input rows before a morsel operator splits.
pub fn parallel_threshold() -> usize {
    match THRESHOLD_OVERRIDE.load(Ordering::Relaxed) {
        usize::MAX => DEFAULT_PARALLEL_THRESHOLD,
        n => n,
    }
}

/// The cost gate: an input of `rows` rows is worth splitting iff it can
/// make two morsels, meets [`parallel_threshold`], and more than one
/// thread is effective.
fn should_parallelize(rows: usize) -> bool {
    rows >= parallel_threshold().max(2) && effective_threads() > 1
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
    /// The executing pool worker, for per-worker task attribution from
    /// inside the `run_ordered` task wrapper; `None` on every other thread.
    static CURRENT_WORKER: std::cell::RefCell<Option<Arc<Worker>>> =
        const { std::cell::RefCell::new(None) };
}

/// Whether this is a pool worker: a nested `run_ordered` call executes
/// inline instead of deadlocking the pool on itself.
fn in_worker() -> bool {
    CURRENT_WORKER.with(|w| w.borrow().is_some())
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

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = match payload.downcast_ref::<&str>() {
        Some(s) => Some((*s).to_string()),
        None => payload.downcast_ref::<String>().cloned(),
    };
    let msg = msg.unwrap_or_else(|| "<non-string panic payload>".to_string());
    format!("parallel worker panicked: {msg}")
}

/// Execute `f` over `chunks` on the shared pool, returning the results
/// **in chunk order**. The panic-safe join converts a panicking chunk into
/// an internal error (never a poisoned pool or a hung caller), and error
/// reporting is deterministic: the error of the lowest-index failing chunk
/// wins, exactly as a serial left-to-right fold would report it.
///
/// Every task polls `gov` *before* doing any work, so once a statement's
/// token trips, its queued chunks drain from the pool in microseconds
/// instead of running to completion. This is the scheduler-level
/// cancellation point; operators add finer-grained checks inside their own
/// loops.
///
/// Runs inline (in order, on the calling thread) when the pool would not
/// help: fewer than two chunks, an effective thread count of one, or a
/// call from inside a pool worker (nested parallelism).
pub fn run_ordered<C, U, F>(chunks: Vec<C>, gov: Gov, f: F) -> Result<Vec<U>>
where
    C: Send + 'static,
    U: Send + 'static,
    F: Fn(usize, C) -> Result<U> + Send + Sync + 'static,
{
    let f = move |i, chunk| {
        gov.check()?;
        f(i, chunk)
    };
    let n = chunks.len();
    let threads = effective_threads();
    let pool = Pool::global();
    let inline = n < 2 || threads == 1 || in_worker() || {
        pool.ensure_workers(threads.min(n));
        // Thread spawning unavailable: degrade to serial.
        pool.workers.read().is_empty()
    };
    if inline {
        return (chunks.into_iter().enumerate())
            .map(|(i, c)| f(i, c))
            .collect();
    }

    let m = metrics();
    m.parallel_ops.incr();
    m.tasks.add(n as u64);

    // Every task sends its chunk's result home and drops its sender, so
    // the receive loop ends when the last one has.
    let (home, results) = mpsc::channel();
    let f = Arc::new(f);
    let tasks: Vec<Task> = chunks
        .into_iter()
        .enumerate()
        .map(|(i, chunk)| {
            let home = home.clone();
            let f = Arc::clone(&f);
            Box::new(move || {
                // The recorder start stamp is guarded on enablement so a
                // disabled recorder costs one relaxed load, no clock read.
                let rec = rfv_obs::event::recorder();
                let rec_start = rec.is_enabled().then(rfv_obs::event::now_ns);
                let clock = rfv_obs::Stopwatch::start();
                let out = panic::catch_unwind(AssertUnwindSafe(|| f(i, chunk)))
                    .unwrap_or_else(|p| Err(RfvError::internal(panic_message(p))));
                let busy = clock.elapsed_ns();
                metrics().busy_ns.record(busy);
                credit_current_worker(busy);
                if let Some(start) = rec_start {
                    rec.complete("task", "sched", start, busy, None);
                }
                // The caller is blocked on the other end until this is dropped.
                let _ = home.send((i, out));
            }) as Task
        })
        .collect();
    drop(home);
    pool.inject(tasks);

    let mut slots: Vec<Option<Result<U>>> = (0..n).map(|_| None).collect();
    for (i, out) in results {
        slots[i] = Some(out);
    }
    // In chunk order, so the first error is the lowest-index one.
    let unfilled = || RfvError::internal("parallel task completed without filling its result slot");
    (slots.into_iter())
        .map(|slot| slot.unwrap_or_else(|| Err(unfilled())))
        .collect()
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

/// An operator input [`morsels`] can cut into contiguous pieces.
pub trait Morsels: Sized + Send + 'static {
    /// Rows (or table slots) in the input: what the cost gate weighs.
    fn rows(&self) -> usize;
    /// The input cut at `ranges` — those of [`morsel_ranges`]: contiguous,
    /// ascending, covering `0..rows()` — preserving order.
    fn split(self, ranges: &[(usize, usize)]) -> Vec<Self>;
}

impl<T: Send + 'static> Morsels for Vec<T> {
    fn rows(&self) -> usize {
        self.len()
    }

    fn split(mut self, ranges: &[(usize, usize)]) -> Vec<Self> {
        // Back to front, so `split_off` always leaves the prefix behind;
        // what is left at the end is the first morsel.
        let tail = ranges.iter().skip(1).rev();
        let mut chunks: Vec<Self> = tail.map(|&(lo, _)| self.split_off(lo)).collect();
        chunks.push(self);
        chunks.reverse();
        chunks
    }
}

/// A run of table slots `[lo, hi)`.
impl Morsels for (usize, usize) {
    fn rows(&self) -> usize {
        self.1 - self.0
    }

    fn split(self, ranges: &[(usize, usize)]) -> Vec<Self> {
        ranges
            .iter()
            .map(|&(lo, hi)| (self.0 + lo, self.0 + hi))
            .collect()
    }
}

/// The one entry every morsel operator goes through: `f(state, input, gov)`
/// is the operator over any contiguous piece of its input. Below the cost
/// gate it is called once, here, on the whole input — nothing is cloned,
/// split or scheduled. Above it the input is cut into [`morsel_ranges`],
/// `f` runs per morsel on the pool over an owned copy of `state` (the
/// operator's expressions or table handle), the outputs concatenate in
/// morsel order — byte-identical to the single call — and `par` records
/// the split.
pub fn morsels<S, I, F>(
    state: &S,
    input: I,
    par: &mut ParStats,
    gov: &Gov,
    f: F,
) -> Result<Vec<Row>>
where
    S: ToOwned + ?Sized,
    S::Owned: Send + Sync + 'static,
    I: Morsels,
    F: Fn(&S, I, &Gov) -> Result<Vec<Row>> + Send + Sync + 'static,
{
    let len = input.rows();
    if !should_parallelize(len) {
        return f(state, input, gov);
    }
    let chunks = input.split(&morsel_ranges(len));
    par.record(chunks.len());
    let (state, task_gov) = (state.to_owned(), gov.clone());
    let outs = run_ordered(chunks, gov.clone(), move |_, chunk| {
        f(state.borrow(), chunk, &task_gov)
    })?;
    let mut out = Vec::with_capacity(outs.iter().map(Vec::len).sum());
    for chunk in outs {
        out.extend(chunk);
    }
    Ok(out)
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
        let out = run_ordered(chunks, Gov::none(), |i, c| {
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
        let err = run_ordered((0..8).collect::<Vec<usize>>(), Gov::none(), |_, c| {
            if c == 5 {
                panic!("boom in chunk {c}");
            }
            Ok(c)
        })
        .unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        assert!(err.to_string().contains("boom in chunk 5"), "{err}");
        // The pool survives a panicking task.
        let ok = run_ordered(vec![1usize, 2, 3], Gov::none(), |_, c| Ok(c)).unwrap();
        assert_eq!(ok, vec![1, 2, 3]);
        set_threads(0);
    }

    #[test]
    fn lowest_index_error_wins_like_serial() {
        let _g = knob_guard();
        set_threads(4);
        for _ in 0..16 {
            let err = run_ordered((0..16).collect::<Vec<usize>>(), Gov::none(), |_, c| {
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
        let out = run_ordered(vec![10usize, 20, 30], Gov::none(), |i, c| Ok(i + c)).unwrap();
        assert_eq!(out, vec![10, 21, 32]);
        assert_eq!(
            metrics().parallel_ops.get(),
            before,
            "no pool use at 1 thread"
        );
        set_threads(0);
    }

    /// The driver over `0..n` as one-column rows: every morsel passes its
    /// rows through, bumps `calls` and notes the thread it ran on.
    fn drive(
        n: i64,
        par: &mut ParStats,
        gov: &Gov,
        calls: &Arc<Mutex<Vec<std::thread::ThreadId>>>,
    ) -> Result<Vec<Row>> {
        let rows: Vec<Row> = (0..n).map(|i| rfv_types::row![i]).collect();
        morsels(calls, rows, par, gov, |calls, chunk, _| {
            lock(calls).push(std::thread::current().id());
            Ok(chunk)
        })
    }

    #[test]
    fn a_shut_gate_is_one_call_on_the_calling_thread() {
        let _g = knob_guard();
        let rows: Vec<Row> = (0..64).map(|i| rfv_types::row![i]).collect();
        // Shut by the thread count, then by the row count.
        for (threads, threshold) in [(1, 4), (4, 65)] {
            set_threads(threads);
            set_parallel_threshold(threshold);
            let tasks = metrics().tasks.get();
            let (calls, mut par) = (Arc::default(), ParStats::default());
            let out = drive(64, &mut par, &Gov::none(), &calls).unwrap();
            assert_eq!(out, rows);
            assert_eq!(*lock(&calls), [std::thread::current().id()]);
            assert_eq!(metrics().tasks.get(), tasks, "nothing was scheduled");
            assert_eq!(par, ParStats::default());
        }
        set_parallel_threshold(usize::MAX);
        set_threads(0);
    }

    #[test]
    fn an_open_gate_concatenates_in_morsel_order_and_records_the_split() {
        let _g = knob_guard();
        set_threads(4);
        set_parallel_threshold(4);
        let tasks = metrics().tasks.get();
        let (calls, mut par) = (Arc::default(), ParStats::default());
        let out = drive(64, &mut par, &Gov::none(), &calls).unwrap();
        assert_eq!(out, (0..64).map(|i| rfv_types::row![i]).collect::<Vec<_>>());
        let morsels = morsel_ranges(64).len();
        assert_eq!(lock(&calls).len(), morsels);
        assert_eq!((par.morsels, par.workers), (morsels as u64, 4));
        assert_eq!(metrics().tasks.get(), tasks + morsels as u64);
        // Slot runs are cut at the same places, offset by where they start.
        let cuts = (100, 164).split(&morsel_ranges(64));
        assert_eq!(cuts.first().map(|c| c.0), Some(100));
        assert_eq!(cuts.last().map(|c| c.1), Some(164));
        assert!(cuts.windows(2).all(|w| w[0].1 == w[1].0));
        set_parallel_threshold(usize::MAX);
        set_threads(0);
    }

    #[test]
    fn a_tripped_token_drains_queued_morsels_before_they_do_work() {
        let _g = knob_guard();
        set_threads(4);
        set_parallel_threshold(4);
        // Tripped before the split: no morsel does any work.
        let token = Arc::new(rfv_types::CancelToken::new());
        token.cancel();
        let calls = Arc::default();
        let gov = Gov::new(Some(token));
        let err = drive(64, &mut ParStats::default(), &gov, &calls).unwrap_err();
        assert!(matches!(err, RfvError::Cancelled(_)), "{err}");
        assert!(lock(&calls).is_empty());
        // Tripped by the first morsel while every other morsel that got
        // past its check waits for exactly that: at most one morsel per
        // worker did work, the queued rest drained.
        let token = Arc::new(rfv_types::CancelToken::new());
        let gov = Gov::new(Some(Arc::clone(&token)));
        let worked = Arc::new(AtomicUsize::new(0));
        let chunks: Vec<usize> = (0..64).collect();
        let err = run_ordered(chunks, gov, {
            let worked = Arc::clone(&worked);
            move |i, _| {
                worked.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    token.cancel();
                }
                while token.check().is_ok() {
                    std::thread::yield_now();
                }
                Ok(())
            }
        })
        .unwrap_err();
        assert!(matches!(err, RfvError::Cancelled(_)), "{err}");
        assert!(
            worked.load(Ordering::SeqCst) <= 4,
            "{worked:?} of 64 worked"
        );
        set_parallel_threshold(usize::MAX);
        set_threads(0);
    }

    #[test]
    fn nested_run_ordered_executes_inline() {
        let _g = knob_guard();
        set_threads(2);
        let out = run_ordered(vec![0usize, 1, 2, 3], Gov::none(), |_, c| {
            let inner = run_ordered(vec![c, c + 1], Gov::none(), |_, x| Ok(x * 10))?;
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
        assert!(!should_parallelize(99));
        assert!(should_parallelize(100));
        set_parallel_threshold(0);
        assert!(!should_parallelize(1), "one row is never two morsels");
        set_threads(1);
        assert!(!should_parallelize(1 << 30), "one thread is never parallel");
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
            let chunks = (0..len).collect::<Vec<_>>().split(&ranges);
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
        let out = run_ordered((0..256usize).collect::<Vec<_>>(), Gov::none(), |_, c| {
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
        let out = run_ordered((0..64usize).collect::<Vec<_>>(), Gov::none(), |_, c| Ok(c)).unwrap();
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
