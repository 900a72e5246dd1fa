//! The flight recorder: a process-wide, fixed-capacity, lock-light ring
//! buffer of typed lifecycle events, exportable as Chrome Trace Event
//! ("Perfetto") JSON.
//!
//! Design rules, in priority order:
//!
//! 1. **Disabled costs (almost) nothing.** [`Recorder::is_enabled`] is a
//!    single relaxed atomic load; every recording helper checks it before
//!    touching the clock or allocating. Call sites that must time a span
//!    guard the *start* clock read on `is_enabled()` too.
//! 2. **Recording never blocks.** A writer claims a slot index with one
//!    `fetch_add` and then `try_lock`s the slot; if a concurrent reader
//!    (or a wrapped-around writer) holds it, the event is counted in
//!    `dropped` and the writer moves on. There is no path on which a
//!    query thread or a scheduler worker waits on the recorder.
//! 3. **The buffer is a ring.** With capacity `N` (default 65 536,
//!    override with `RFV_RECORDER_CAP`), only the most recent ~`N`
//!    events survive; older ones are overwritten silently. That bounds
//!    memory for arbitrarily long recording sessions.
//!
//! The recorder is process-global: one shared monotonic time origin means
//! events from every engine, client thread, and morsel split land on a
//! single timeline. Lanes (`tid` in the trace) are per-thread — every
//! thread is lazily assigned a small `client-N` lane on first use — except
//! the scheduler's `task` spans, which land on `WORKER_LANE_BASE + slot` of
//! the split that ran them.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::clock::Stopwatch;
use crate::json::Json;

/// Default ring capacity (events), override with `RFV_RECORDER_CAP`.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Scheduler `task` spans land on lanes `WORKER_LANE_BASE + slot`
/// (exported as `worker-<slot>`); client threads get lazily assigned
/// lanes `1, 2, …` well below it.
pub const WORKER_LANE_BASE: u32 = 1_000_000;

/// Chrome trace phase of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPh {
    /// A span with a duration (`ph: "X"`).
    Complete,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

/// One recorded lifecycle event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Static event name (e.g. `"parse"`, `"cache.hit"`, `"task"`).
    pub name: &'static str,
    /// Static category (`"engine"`, `"cache"`, `"rewrite"`, `"sched"`,
    /// `"maintenance"`) — becomes `cat` in the trace, so Perfetto can
    /// filter by subsystem.
    pub cat: &'static str,
    pub ph: EventPh,
    /// Nanoseconds since the process-wide origin ([`now_ns`]).
    pub ts_ns: u64,
    /// Span length (0 for instants).
    pub dur_ns: u64,
    /// Trace lane (`tid`): the recording thread's lane.
    pub lane: u32,
    /// Optional free-form payload (normalized SQL, strategy label, …).
    pub detail: Option<String>,
}

/// Counters describing the recorder's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderStats {
    pub enabled: bool,
    pub capacity: usize,
    /// Events accepted into the ring since the last [`Recorder::clear`].
    pub recorded: u64,
    /// Events discarded because their slot was contended (never because
    /// a writer waited — writers do not wait).
    pub dropped: u64,
}

/// The process-wide flight recorder. Obtain it with [`recorder`].
pub struct Recorder {
    enabled: AtomicBool,
    head: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
    slots: Box<[Mutex<Option<Event>>]>,
    /// lane id → human name, for `thread_name` metadata in the export.
    lanes: Mutex<BTreeMap<u32, String>>,
}

impl Recorder {
    fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        Recorder {
            enabled: AtomicBool::new(false),
            head: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            lanes: Mutex::new(BTreeMap::new()),
        }
    }

    /// One relaxed load — the whole cost of a disabled recorder on the
    /// hot path.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off. Existing buffer contents are kept (so
    /// `\record off` followed by `\record dump` works).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Drop all buffered events and reset the accepted/dropped counts.
    /// Lane names are kept — they describe threads, not events.
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
        self.head.store(0, Ordering::Relaxed);
        self.recorded.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            enabled: self.is_enabled(),
            capacity: self.capacity(),
            recorded: self.recorded.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Record a fully-formed event. Never blocks: a contended slot
    /// drops the event (counted) instead of waiting.
    pub fn record(&self, ev: Event) {
        if !self.is_enabled() {
            return;
        }
        let i = (self.head.fetch_add(1, Ordering::Relaxed) as usize) % self.slots.len();
        match self.slots[i].try_lock() {
            Ok(mut slot) => {
                *slot = Some(ev);
                self.recorded.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Record an instant event stamped `now` on the calling thread's
    /// lane. Cheap no-op when disabled (the clock is not read).
    pub fn instant(&self, name: &'static str, cat: &'static str, detail: Option<String>) {
        if !self.is_enabled() {
            return;
        }
        self.record(Event {
            name,
            cat,
            ph: EventPh::Instant,
            ts_ns: now_ns(),
            dur_ns: 0,
            lane: thread_lane(),
            detail,
        });
    }

    /// Record a complete (span) event on the calling thread's lane.
    /// `start_ns` must come from [`now_ns`]; callers guard that clock
    /// read on [`is_enabled`](Self::is_enabled).
    pub fn complete(
        &self,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
        dur_ns: u64,
        detail: Option<String>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.record(Event {
            name,
            cat,
            ph: EventPh::Complete,
            ts_ns: start_ns,
            dur_ns,
            lane: thread_lane(),
            detail,
        });
    }

    /// [`complete`](Self::complete) with `dur = now − start`.
    pub fn complete_since(
        &self,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
        detail: Option<String>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let dur = now_ns().saturating_sub(start_ns);
        self.complete(name, cat, start_ns, dur, detail);
    }

    fn register_lane(&self, lane: u32, name: &str) {
        self.lanes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(lane)
            .or_insert_with(|| name.to_string());
    }

    /// All buffered events, sorted by timestamp. The reader takes slot
    /// locks *blocking*; concurrent writers still never wait (their
    /// `try_lock` fails and the event is dropped instead).
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            if let Some(ev) = slot.lock().unwrap_or_else(PoisonError::into_inner).as_ref() {
                out.push(ev.clone());
            }
        }
        out.sort_by_key(|e| (e.ts_ns, e.lane));
        out
    }

    /// The buffer as a Chrome Trace Event JSON document (the format
    /// Perfetto and `chrome://tracing` load). `ts`/`dur` are in
    /// microseconds per the spec; lanes become `tid`s with
    /// `thread_name` metadata.
    pub fn chrome_trace(&self) -> Json {
        let events = self.snapshot();
        let lane_names = self
            .lanes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let used: BTreeSet<u32> = events.iter().map(|e| e.lane).collect();
        let mut arr = Vec::with_capacity(events.len() + used.len() + 1);
        arr.push(Json::Obj(vec![
            ("name".into(), Json::Str("process_name".into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Int(1)),
            ("tid".into(), Json::Int(0)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str("rfv".into()))]),
            ),
        ]));
        for lane in &used {
            let name = lane_names.get(lane).cloned().unwrap_or_else(|| {
                match lane.checked_sub(WORKER_LANE_BASE) {
                    Some(slot) => format!("worker-{slot}"),
                    None => format!("lane-{lane}"),
                }
            });
            arr.push(Json::Obj(vec![
                ("name".into(), Json::Str("thread_name".into())),
                ("ph".into(), Json::Str("M".into())),
                ("pid".into(), Json::Int(1)),
                ("tid".into(), Json::Int(i64::from(*lane))),
                (
                    "args".into(),
                    Json::Obj(vec![("name".into(), Json::Str(name))]),
                ),
            ]));
        }
        for ev in &events {
            let mut obj = vec![
                ("name".into(), Json::Str(ev.name.into())),
                ("cat".into(), Json::Str(ev.cat.into())),
                (
                    "ph".into(),
                    Json::Str(match ev.ph {
                        EventPh::Complete => "X".into(),
                        EventPh::Instant => "i".into(),
                    }),
                ),
                ("pid".into(), Json::Int(1)),
                ("tid".into(), Json::Int(i64::from(ev.lane))),
                ("ts".into(), Json::Float(ev.ts_ns as f64 / 1e3)),
            ];
            match ev.ph {
                EventPh::Complete => {
                    obj.push(("dur".into(), Json::Float(ev.dur_ns as f64 / 1e3)));
                }
                EventPh::Instant => {
                    // Scope: thread-local marker.
                    obj.push(("s".into(), Json::Str("t".into())));
                }
            }
            if let Some(detail) = &ev.detail {
                obj.push((
                    "args".into(),
                    Json::Obj(vec![("detail".into(), Json::Str(detail.clone()))]),
                ));
            }
            arr.push(Json::Obj(obj));
        }
        Json::Obj(vec![("traceEvents".into(), Json::Arr(arr))])
    }
}

/// The process-wide recorder (created on first use; capacity from
/// `RFV_RECORDER_CAP`, default [`DEFAULT_CAPACITY`]).
pub fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| {
        let cap = std::env::var("RFV_RECORDER_CAP")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_CAPACITY);
        Recorder::with_capacity(cap)
    })
}

/// Nanoseconds since the process-wide trace origin (first call wins).
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Stopwatch> = OnceLock::new();
    ORIGIN.get_or_init(Stopwatch::start).elapsed_ns()
}

thread_local! {
    static LANE: std::cell::Cell<u32> = const { std::cell::Cell::new(u32::MAX) };
}

static CLIENT_LANES: AtomicU32 = AtomicU32::new(1);

/// The calling thread's trace lane: `client-1`, `client-2`, … assigned
/// lazily in first-use order.
pub fn thread_lane() -> u32 {
    LANE.with(|l| {
        let cur = l.get();
        if cur != u32::MAX {
            return cur;
        }
        let lane = CLIENT_LANES.fetch_add(1, Ordering::Relaxed);
        l.set(lane);
        recorder().register_lane(lane, &format!("client-{lane}"));
        lane
    })
}

/// Summary of a parsed Chrome Trace Event document, as produced by
/// [`validate_chrome_trace`]. Lets tests/CI assert structural facts
/// (per-worker lanes present, ≥1 rewrite event, …) without re-parsing.
#[derive(Debug, Default)]
pub struct TraceSummary {
    pub events: usize,
    pub complete: usize,
    pub instant: usize,
    pub metadata: usize,
    /// Distinct `tid`s of non-metadata events.
    pub lanes: BTreeSet<i64>,
    /// Event-name → occurrence count (non-metadata events).
    pub names: BTreeMap<String, usize>,
    /// Category → occurrence count (non-metadata events).
    pub cats: BTreeMap<String, usize>,
}

impl TraceSummary {
    /// Count of non-metadata events in category `cat`.
    pub fn cat_count(&self, cat: &str) -> usize {
        self.cats.get(cat).copied().unwrap_or(0)
    }

    /// Count of non-metadata events named `name`.
    pub fn name_count(&self, name: &str) -> usize {
        self.names.get(name).copied().unwrap_or(0)
    }

    /// Lanes at or above [`WORKER_LANE_BASE`] — scheduler worker lanes.
    pub fn worker_lanes(&self) -> usize {
        self.lanes
            .iter()
            .filter(|&&l| l >= i64::from(WORKER_LANE_BASE))
            .count()
    }
}

/// Parse `text` with the first-party [`Json`] parser and check it is a
/// structurally valid Chrome Trace Event document: a `traceEvents`
/// array whose members all carry `name`/`ph`/`pid`/`tid`, with numeric
/// `ts` (+ `dur` for complete events) where the phase requires them.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut summary = TraceSummary::default();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string `name`"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string `ph`"))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("event {i}: missing integer `tid`"))?;
        if ev.get("pid").and_then(Json::as_i64).is_none() {
            return Err(format!("event {i}: missing integer `pid`"));
        }
        let needs_ts = ph != "M";
        if needs_ts && ev.get("ts").and_then(Json::as_f64).is_none() {
            return Err(format!("event {i} ({name}): missing numeric `ts`"));
        }
        summary.events += 1;
        match ph {
            "M" => summary.metadata += 1,
            "X" => {
                if ev.get("dur").and_then(Json::as_f64).is_none() {
                    return Err(format!("event {i} ({name}): complete event without `dur`"));
                }
                summary.complete += 1;
            }
            "i" => summary.instant += 1,
            other => return Err(format!("event {i} ({name}): unknown phase {other:?}")),
        }
        if ph != "M" {
            summary.lanes.insert(tid);
            *summary.names.entry(name.to_string()).or_default() += 1;
            if let Some(cat) = ev.get("cat").and_then(Json::as_str) {
                *summary.cats.entry(cat.to_string()).or_default() += 1;
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder under test is private to this module (the global one
    // is shared across the whole test binary, so unit tests build their
    // own instances).

    fn ev(name: &'static str, ts: u64) -> Event {
        Event {
            name,
            cat: "test",
            ph: EventPh::Instant,
            ts_ns: ts,
            dur_ns: 0,
            lane: 1,
            detail: None,
        }
    }

    #[test]
    fn disabled_recorder_accepts_nothing() {
        let r = Recorder::with_capacity(16);
        r.record(ev("a", 1));
        r.instant("b", "test", None);
        r.complete("c", "test", 0, 5, None);
        assert_eq!(r.stats().recorded, 0);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn ring_wraps_and_keeps_recent_events() {
        let r = Recorder::with_capacity(16);
        r.set_enabled(true);
        for i in 0..40u64 {
            r.record(ev("tick", i));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 16);
        // Only the most recent writes survive the wrap.
        assert!(snap.iter().all(|e| e.ts_ns >= 24));
        assert_eq!(r.stats().recorded, 40);
        r.clear();
        assert!(r.snapshot().is_empty());
        assert_eq!(r.stats().recorded, 0);
    }

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let r = Recorder::with_capacity(64);
        r.set_enabled(true);
        r.register_lane(1, "client-1");
        r.record(Event {
            name: "query",
            cat: "engine",
            ph: EventPh::Complete,
            ts_ns: 1_000,
            dur_ns: 2_500,
            lane: 1,
            detail: Some("SELECT 1".into()),
        });
        r.record(ev("cache.hit", 1_500));
        let text = r.chrome_trace().to_string();
        let summary = validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(summary.complete, 1);
        assert_eq!(summary.instant, 1);
        assert!(summary.metadata >= 2, "process + thread metadata");
        assert_eq!(summary.name_count("query"), 1);
        assert_eq!(summary.cat_count("test"), 1);
        // ts is microseconds: 1_000 ns = 1.0 µs.
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let q = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("query"))
            .unwrap();
        assert_eq!(q.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(q.get("dur").and_then(Json::as_f64), Some(2.5));
        assert_eq!(
            q.get("args")
                .and_then(|a| a.get("detail"))
                .and_then(Json::as_str),
            Some("SELECT 1")
        );
    }

    #[test]
    fn validate_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("not json").is_err());
        // Complete event without dur.
        let bad = r#"{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":0,"ts":1.0}]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Unknown phase.
        let bad = r#"{"traceEvents":[{"name":"x","ph":"Q","pid":1,"tid":0,"ts":1.0}]}"#;
        assert!(validate_chrome_trace(bad).is_err());
    }

    #[test]
    fn concurrent_writers_never_lose_the_plot() {
        let r = std::sync::Arc::new(Recorder::with_capacity(128));
        r.set_enabled(true);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..1_000 {
                        r.record(ev("w", t * 10_000 + i));
                    }
                });
            }
        });
        let stats = r.stats();
        assert_eq!(stats.recorded + stats.dropped, 8_000);
        let snap = r.snapshot();
        assert!(snap.len() <= 128);
        assert!(snap.iter().all(|e| e.name == "w"));
    }
}
