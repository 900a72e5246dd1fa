//! The one morsel driver: a scoped fork-join, called per operator.
//!
//! The three operators that were measured to gain from splitting — table
//! scan, filter, projection — hand [`morsels`] a per-morsel closure; nothing
//! else splits. `Sort`, `HashAggregate` and `Window` run one algorithm at
//! every thread count. [`should_parallelize`] is the cost gate: at least
//! [`DEFAULT_PARALLEL_THRESHOLD`] = 32 768 rows, the measured size where a
//! split first wins ≥ 1.2 × at T = 2, and more than one effective thread
//! (`RFV_THREADS`, overridden by [`set_threads`]).
//!
//! ## Fork-join
//!
//! A split is one function call, [`run_ordered`]: it reserves helpers,
//! spawns them inside `std::thread::scope`, and the helpers and the
//! calling thread claim chunks from one shared cursor until none is left.
//! Claiming is dynamic, so one slow morsel never holds up the rest.
//! Results are keyed by chunk index, never by completion order, so a split
//! operator's output is byte-identical to one call on the whole input.
//! Nothing outlives the call — no pool, no queues, no parked threads.
//!
//! ## Helper budget
//!
//! At most `effective_threads() − 1` helpers are alive across the whole
//! process: every split reserves its helpers from one atomic count and
//! returns them when it joins, so concurrent statements share the threads
//! instead of multiplying them, and a split that gets none runs every
//! morsel on the calling thread. A helper that cannot be spawned is one
//! helper fewer, never an error. Slot 0 of a split is the calling thread,
//! slot `i ≥ 1` its `i`-th helper: per-slot totals back [`worker_stats`],
//! and each morsel's `task` span lands on recorder lane
//! `WORKER_LANE_BASE + slot`.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use rfv_obs::event::{self, Event, EventPh, WORKER_LANE_BASE};
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
/// bodies unsplit, where T = 2 must cost what T = 1 costs. Spawning the
/// helpers per call instead of waking pooled ones is not visible at the
/// gate (same section, "Scoped fork-join").
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 32_768;

/// Hard cap on threads (sanity bound for `RFV_THREADS`).
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
/// [`rfv_obs::MetricsRegistry`] (splits of every engine add to them).
#[derive(Debug)]
pub struct SchedMetrics {
    /// Morsels run by splits.
    pub tasks: Counter,
    /// Always 0; removed with ROADMAP item 1b.
    pub steals: Counter,
    /// Splits: one per [`run_ordered`] call that forked.
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

/// Per-slot lifetime `(tasks, busy_ns)`: slot 0 is a split's calling
/// thread, slot `i ≥ 1` its `i`-th helper. The budget keeps helpers below
/// [`MAX_THREADS`].
static SLOTS: [(AtomicU64, AtomicU64); MAX_THREADS] =
    [const { (AtomicU64::new(0), AtomicU64::new(0)) }; MAX_THREADS];

/// A snapshot of one fork-join slot's lifetime totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStat {
    /// Slot id: 0 for the thread that split, `i` for its `i`-th helper.
    pub worker: usize,
    /// Morsels run in this slot.
    pub tasks: u64,
    /// Total busy (morsel execution) nanoseconds in this slot.
    pub busy_ns: u64,
}

/// Per-slot totals up to the highest slot that has run a morsel, in slot
/// order. Empty until the first split (serial processes have none).
pub fn worker_stats() -> Vec<WorkerStat> {
    let used = SLOTS
        .iter()
        .rposition(|(tasks, _)| tasks.load(Ordering::Relaxed) > 0);
    (SLOTS[..used.map_or(0, |last| last + 1)].iter().enumerate())
        .map(|(worker, (tasks, busy_ns))| WorkerStat {
            worker,
            tasks: tasks.load(Ordering::Relaxed),
            busy_ns: busy_ns.load(Ordering::Relaxed),
        })
        .collect()
}

/// Helpers reserved across the process: never above `effective_threads() − 1`.
static HELPERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on helper threads: a split nested inside a morsel runs inline.
    static IN_HELPER: Cell<bool> = const { Cell::new(false) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = match payload.downcast_ref::<&str>() {
        Some(s) => Some((*s).to_string()),
        None => payload.downcast_ref::<String>().cloned(),
    };
    let msg = msg.unwrap_or_else(|| "<non-string panic payload>".to_string());
    format!("parallel worker panicked: {msg}")
}

/// Run one morsel in `slot`: a panic becomes an internal error, and its
/// busy time is credited to the slot, the histogram and the recorder.
fn task<U>(slot: usize, run: impl FnOnce() -> Result<U>) -> Result<U> {
    // The recorder start stamp is guarded on enablement so a disabled
    // recorder costs one relaxed load, no clock read.
    let rec = event::recorder();
    let rec_start = rec.is_enabled().then(event::now_ns);
    let clock = rfv_obs::Stopwatch::start();
    let out = panic::catch_unwind(AssertUnwindSafe(run))
        .unwrap_or_else(|p| Err(RfvError::internal(panic_message(p))));
    let busy = clock.elapsed_ns();
    metrics().busy_ns.record(busy);
    SLOTS[slot].0.fetch_add(1, Ordering::Relaxed);
    SLOTS[slot].1.fetch_add(busy, Ordering::Relaxed);
    if let Some(ts_ns) = rec_start {
        rec.record(Event {
            name: "task",
            cat: "sched",
            ph: EventPh::Complete,
            ts_ns,
            dur_ns: busy,
            lane: WORKER_LANE_BASE + slot as u32,
            detail: None,
        });
    }
    out
}

/// Execute `f` over `chunks` as one fork-join, returning the results **in
/// chunk order**, and record the split in `par`. A panicking chunk becomes
/// an internal error (never a hung caller), and error reporting is
/// deterministic: the error of the lowest-index failing chunk wins, exactly
/// as a serial left-to-right fold would report it.
///
/// Every chunk polls `gov` *before* doing any work, so once a statement's
/// token trips, its unclaimed chunks drain in microseconds instead of
/// running to completion. This is the scheduler-level cancellation point;
/// operators add finer-grained checks inside their own loops.
///
/// Runs inline (in order, on the calling thread, unrecorded) when a split
/// cannot help: fewer than two chunks, an effective thread count of one,
/// or a call from inside a helper (nested parallelism).
pub(crate) fn run_ordered<C, U, F>(
    chunks: Vec<C>,
    gov: &Gov,
    par: &mut ParStats,
    f: F,
) -> Result<Vec<U>>
where
    C: Send,
    U: Send,
    F: Fn(C) -> Result<U> + Sync,
{
    let f = |chunk| {
        gov.check()?;
        f(chunk)
    };
    let n = chunks.len();
    let threads = effective_threads();
    if n < 2 || threads == 1 || IN_HELPER.get() {
        return chunks.into_iter().map(f).collect();
    }

    let m = metrics();
    m.parallel_ops.incr();
    m.tasks.add(n as u64);

    // As many helpers as the budget has left, up to one per chunk beyond
    // the caller's own; returned when the scope has joined them.
    let mut helpers = 0;
    let _ = HELPERS.fetch_update(Ordering::AcqRel, Ordering::Acquire, |live| {
        helpers = (n - 1).min((threads - 1).saturating_sub(live));
        Some(live + helpers)
    });
    let todo = Mutex::new(chunks.into_iter().enumerate());
    let done = Mutex::new((0..n).map(|_| None).collect::<Vec<_>>());
    // Claim the next unclaimed chunk until none is left.
    let claim = |slot: usize| loop {
        let Some((i, chunk)) = lock(&todo).next() else {
            return;
        };
        let out = task(slot, || f(chunk));
        lock(&done)[i] = Some(out);
    };
    let spawned = std::thread::scope(|s| {
        let mut spawned = 0;
        for slot in 1..=helpers {
            let helper = std::thread::Builder::new().name(format!("rfv-helper-{slot}"));
            let run = move || {
                IN_HELPER.set(true);
                claim(slot);
            };
            if helper.spawn_scoped(s, run).is_err() {
                break;
            }
            spawned += 1;
        }
        claim(0);
        spawned
    });
    HELPERS.fetch_sub(helpers, Ordering::AcqRel);
    par.morsels = n as u64;
    par.workers = spawned as u64 + 1;

    // In chunk order, so the first error is the lowest-index one.
    let done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    (done.into_iter())
        .map(|out| out.expect("every claimed chunk stores its result"))
        .collect()
}

/// Split `len` items into contiguous morsel ranges `[lo, hi)`: roughly
/// four morsels per effective thread, but never smaller than an eighth of
/// the parallel threshold (so tiny overridden thresholds still produce
/// multiple morsels for the tests that force parallelism on small inputs).
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
pub trait Morsels: Sized + Send {
    /// Rows (or table slots) in the input: what the cost gate weighs.
    fn rows(&self) -> usize;
    /// The input cut at `ranges` — those of [`morsel_ranges`]: contiguous,
    /// ascending, covering `0..rows()` — preserving order.
    fn split(self, ranges: &[(usize, usize)]) -> Vec<Self>;
}

impl<T: Send> Morsels for Vec<T> {
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
/// gate it is called once, here, on the whole input — nothing is split or
/// spawned. Above it the input is cut into [`morsel_ranges`], `f` runs per
/// morsel in one [`run_ordered`] fork-join over the borrowed `state` (the
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
    S: Sync + ?Sized,
    I: Morsels,
    F: Fn(&S, I, &Gov) -> Result<Vec<Row>> + Sync,
{
    let len = input.rows();
    if !should_parallelize(len) {
        return f(state, input, gov);
    }
    let chunks = input.split(&morsel_ranges(len));
    let outs = run_ordered(chunks, gov, par, |chunk| f(state, chunk, gov))?;
    let mut out = Vec::with_capacity(outs.iter().map(Vec::len).sum());
    for chunk in outs {
        out.extend(chunk);
    }
    Ok(out)
}

/// How a parallel-capable operator actually executed: the morsels it was
/// split into and the threads that ran them — the helpers the split got
/// plus the calling thread. Default (zeroed) means the operator took its
/// serial path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    pub morsels: u64,
    pub workers: u64,
    /// What an ordering operator (`Sort`, `Window`) found in its input.
    pub order: Option<crate::filter::OrderFound>,
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
    use std::sync::Arc;
    use std::time::Duration;

    /// [`run_ordered`] without a statement: no token, the split discarded.
    fn run<C: Send, U: Send>(chunks: Vec<C>, f: impl Fn(C) -> Result<U> + Sync) -> Result<Vec<U>> {
        run_ordered(chunks, &Gov::none(), &mut ParStats::default(), f)
    }

    #[test]
    fn run_ordered_preserves_input_order() {
        let _g = knob_guard();
        set_threads(4);
        let chunks: Vec<usize> = (0..64).collect();
        let out = run(chunks, |c| {
            // Uneven work so completion order scrambles.
            std::thread::sleep(Duration::from_micros(((c * 7) % 13) as u64));
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
        let err = run((0..8).collect::<Vec<usize>>(), |c| {
            if c == 5 {
                panic!("boom in chunk {c}");
            }
            Ok(c)
        })
        .unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        assert!(err.to_string().contains("boom in chunk 5"), "{err}");
        // The next split is unaffected by a panicking task.
        let ok = run(vec![1usize, 2, 3], Ok).unwrap();
        assert_eq!(ok, vec![1, 2, 3]);
        assert_eq!(HELPERS.load(Ordering::SeqCst), 0, "every helper returned");
        set_threads(0);
    }

    #[test]
    fn lowest_index_error_wins_like_serial() {
        let _g = knob_guard();
        set_threads(4);
        for _ in 0..16 {
            let err = run((0..16).collect::<Vec<usize>>(), |c| {
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
        let out = run(vec![10usize, 20, 30], |c| Ok(c + 1)).unwrap();
        assert_eq!(out, vec![11, 21, 31]);
        assert_eq!(metrics().parallel_ops.get(), before, "no split at 1 thread");
        set_threads(0);
    }

    /// The driver over `0..n` as one-column rows: every morsel passes its
    /// rows through, bumps `calls` and notes the thread it ran on.
    fn drive(
        n: i64,
        par: &mut ParStats,
        gov: &Gov,
        calls: &Mutex<Vec<std::thread::ThreadId>>,
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
            let (calls, mut par) = (Mutex::default(), ParStats::default());
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
        let (calls, mut par) = (Mutex::default(), ParStats::default());
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
        let calls = Mutex::default();
        let gov = Gov::new(Some(token));
        let err = drive(64, &mut ParStats::default(), &gov, &calls).unwrap_err();
        assert!(matches!(err, RfvError::Cancelled(_)), "{err}");
        assert!(lock(&calls).is_empty());
        // Tripped by the first morsel while every other morsel that got
        // past its check waits for exactly that: at most one morsel per
        // thread did work, the unclaimed rest drained.
        let token = Arc::new(rfv_types::CancelToken::new());
        let gov = Gov::new(Some(Arc::clone(&token)));
        let worked = AtomicUsize::new(0);
        let chunks: Vec<usize> = (0..64).collect();
        let err = run_ordered(chunks, &gov, &mut ParStats::default(), |i| {
            worked.fetch_add(1, Ordering::SeqCst);
            if i == 0 {
                token.cancel();
            }
            while token.check().is_ok() {
                std::thread::yield_now();
            }
            Ok(())
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
        let out = run(vec![0usize, 1, 2, 3], |c| {
            let inner = run(vec![c, c + 1], |x| Ok(x * 10))?;
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

    /// Dynamic claiming balances load: while one thread runs a 20 ms
    /// morsel, the other claims the fast ones.
    #[test]
    fn steals_happen_under_imbalance() {
        let _g = knob_guard();
        set_threads(2);
        let ran: Vec<Mutex<Option<std::thread::ThreadId>>> =
            (0..64).map(|_| Mutex::new(None)).collect();
        run((0..64usize).collect::<Vec<_>>(), |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            *lock(&ran[i]) = Some(std::thread::current().id());
            Ok(())
        })
        .unwrap();
        let ran: Vec<_> = ran.into_iter().map(|t| t.into_inner().unwrap()).collect();
        let slow = ran[0];
        let alongside = ran[1..].iter().filter(|&&t| t == slow).count();
        assert!(
            alongside <= 8,
            "the slow morsel's thread also ran {alongside} of 63"
        );
        set_threads(0);
    }

    #[test]
    fn worker_stats_account_for_executed_tasks() {
        let _g = knob_guard();
        set_threads(4);
        let before = worker_stats();
        let mut par = ParStats::default();
        let chunks: Vec<usize> = (0..64).collect();
        let out = run_ordered(chunks, &Gov::none(), &mut par, Ok).unwrap();
        assert_eq!(out.len(), 64);
        let after = worker_stats();
        let slots = par.workers as usize;
        let tasks = |stats: &[WorkerStat], slot: usize| stats.get(slot).map_or(0, |w| w.tasks);
        let credited: u64 = (0..slots)
            .map(|s| tasks(&after, s) - tasks(&before, s))
            .sum();
        assert_eq!(credited, 64, "every task credited to a slot 0..{slots}");
        for (i, w) in after.iter().enumerate() {
            assert_eq!(w.worker, i);
            if i >= slots {
                assert_eq!(w.tasks, tasks(&before, i), "slot {i} was not in the split");
            }
        }
        set_threads(0);
    }

    #[test]
    fn par_stats_records_effective_workers() {
        let _g = knob_guard();
        set_threads(3);
        set_parallel_threshold(2);
        let calls = Mutex::default();
        let mut p = ParStats::default();
        drive(64, &mut p, &Gov::none(), &calls).unwrap();
        let morsels = morsel_ranges(64).len() as u64;
        assert_eq!(
            p,
            ParStats {
                morsels,
                workers: 3,
                order: None
            }
        );
        drive(2, &mut p, &Gov::none(), &calls).unwrap();
        assert_eq!((p.morsels, p.workers), (2, 2), "capped by morsel count");
        set_parallel_threshold(usize::MAX);
        set_threads(0);
    }

    #[test]
    fn a_split_borrows_its_state_and_never_clones_it() {
        struct Counted(AtomicUsize);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                Counted(AtomicUsize::new(self.0.fetch_add(1, Ordering::SeqCst) + 1))
            }
        }
        let _g = knob_guard();
        set_threads(4);
        set_parallel_threshold(4);
        let state = Counted(AtomicUsize::new(0));
        let rows: Vec<Row> = (0..64).map(|i| rfv_types::row![i]).collect();
        let mut par = ParStats::default();
        let out = morsels(
            &state,
            rows.clone(),
            &mut par,
            &Gov::none(),
            |_, chunk, _| Ok(chunk),
        )
        .unwrap();
        assert_eq!(out, rows);
        assert!(par.morsels > 1, "the input was split");
        assert_eq!(state.0.load(Ordering::SeqCst), 0, "no clone per split");
        set_parallel_threshold(usize::MAX);
        set_threads(0);
    }

    #[test]
    fn concurrent_splits_share_one_helper_budget() {
        let _g = knob_guard();
        set_threads(3);
        set_parallel_threshold(4);
        let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..20 {
                        let rows: Vec<Row> = (0..64).map(|i| rfv_types::row![i]).collect();
                        let mut par = ParStats::default();
                        morsels(&(), rows, &mut par, &Gov::none(), |_, chunk, _| {
                            assert!(HELPERS.load(Ordering::SeqCst) <= 2);
                            let helper = usize::from(IN_HELPER.get());
                            let now = running.fetch_add(helper, Ordering::SeqCst) + helper;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_micros(200));
                            running.fetch_sub(helper, Ordering::SeqCst);
                            Ok(chunk)
                        })
                        .unwrap();
                        assert!((1..=3).contains(&par.workers), "{par:?}");
                    }
                });
            }
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=2).contains(&peak), "{peak} helpers ran at once");
        assert_eq!(HELPERS.load(Ordering::SeqCst), 0, "every helper returned");
        set_parallel_threshold(usize::MAX);
        set_threads(0);
    }
}
