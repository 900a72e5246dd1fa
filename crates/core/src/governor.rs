//! Statement admission control and governance limits.
//!
//! The [`Governor`] is the engine-side half of the resource-governance
//! layer (the executor-side half is [`rfv_types::governance`]): it owns
//! the runtime-settable limits — statement timeout, per-statement memory
//! budget, concurrency cap — mints one [`CancelToken`] per statement from
//! them, keeps a weak registry of in-flight tokens so
//! [`Database::cancel`](crate::Database::cancel) can sweep every running
//! statement, and gates statement entry through a bounded-wait admission
//! turnstile.
//!
//! Admission is deliberately *bounded*: a statement arriving while the
//! engine is saturated waits with doubling backoff for at most
//! [`ADMIT_WAIT_MAX`], then fails fast with [`RfvError::Overloaded`] —
//! shedding load beats queueing it unboundedly in a warehouse serving
//! interactive reporting queries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::time::Duration;

use rfv_types::governance::{CancelToken, UNLIMITED};
use rfv_types::sync::RwLock;
use rfv_types::{Result, RfvError};

/// Upper bound on how long one statement waits for an admission slot
/// before the engine sheds it with [`RfvError::Overloaded`].
pub(crate) const ADMIT_WAIT_MAX: Duration = Duration::from_millis(100);

/// Runtime-settable governance limits (seeded from the environment at
/// engine build).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GovLimits {
    /// Per-statement deadline; `None` disables.
    pub timeout: Option<Duration>,
    /// Per-statement memory budget in bytes ([`UNLIMITED`] disables).
    pub mem_budget: u64,
    /// Concurrent-statement cap; `0` means unlimited.
    pub max_concurrent: usize,
    /// Whether minted tokens consume the process-global interrupt flag
    /// (shell Ctrl-C) — see [`rfv_types::governance::raise_interrupt`].
    pub interrupt: bool,
}

#[cfg(test)]
impl GovLimits {
    /// No timeout, no memory budget, no concurrency cap.
    pub const UNLIMITED: GovLimits = GovLimits {
        timeout: None,
        mem_budget: UNLIMITED,
        max_concurrent: 0,
        interrupt: false,
    };
}

/// Per-engine resource governor: limit store, token mint, in-flight
/// registry, admission turnstile.
#[derive(Debug)]
pub(crate) struct Governor {
    limits: RwLock<GovLimits>,
    /// Statements currently between admission and completion (all of
    /// them — counted even when no concurrency cap is configured, so
    /// `rfv_stat_resources.running` is always truthful).
    running: Mutex<usize>,
    turnstile: Condvar,
    /// Weak handles to every live statement token; swept on mint and on
    /// [`cancel_all`](Self::cancel_all), so the vector stays bounded by
    /// the number of statements actually in flight.
    inflight: Mutex<Vec<Weak<CancelToken>>>,
    /// Lifetime count of tokens signalled through [`Self::cancel_all`].
    cancel_requests: AtomicU64,
}

impl Governor {
    /// A governor starting from `limits`.
    pub fn new(limits: GovLimits) -> Governor {
        Governor {
            limits: RwLock::new(limits),
            running: Mutex::new(0),
            turnstile: Condvar::new(),
            inflight: Mutex::new(Vec::new()),
            cancel_requests: AtomicU64::new(0),
        }
    }

    /// Snapshot of the current limits.
    pub fn limits(&self) -> GovLimits {
        *self.limits.read()
    }

    pub fn set_timeout(&self, timeout: Option<Duration>) {
        self.limits.write().timeout = timeout;
    }

    pub fn set_mem_budget(&self, bytes: Option<u64>) {
        self.limits.write().mem_budget = bytes.filter(|&b| b > 0).unwrap_or(UNLIMITED);
    }

    pub fn set_max_concurrent(&self, n: usize) {
        self.limits.write().max_concurrent = n;
        // A raised cap may unblock waiters immediately.
        self.turnstile.notify_all();
    }

    pub fn set_interrupt(&self, on: bool) {
        self.limits.write().interrupt = on;
    }

    /// Statements currently in flight.
    pub fn running(&self) -> usize {
        *self.running.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lifetime count of tokens signalled through [`Self::cancel_all`].
    pub fn cancel_requests(&self) -> u64 {
        self.cancel_requests.load(Ordering::Relaxed)
    }

    /// Admit one statement, waiting (bounded, doubling backoff) for a
    /// slot when the concurrency cap is saturated. The returned guard
    /// releases the slot on drop — including on unwind, so an errored or
    /// cancelled statement never leaks its slot.
    pub fn admit(self: &Arc<Self>) -> Result<AdmitGuard> {
        let mut running = self.running.lock().unwrap_or_else(PoisonError::into_inner);
        let mut wait = Duration::from_millis(1);
        let mut waited = Duration::ZERO;
        loop {
            // Re-read the cap every lap: it is runtime-settable and a
            // raise must unblock waiters.
            let max = self.limits.read().max_concurrent;
            if max == 0 || *running < max {
                *running += 1;
                return Ok(AdmitGuard(Some(Arc::clone(self))));
            }
            if waited >= ADMIT_WAIT_MAX {
                return Err(RfvError::overloaded(format!(
                    "{} statements already running (max {max}); \
                     admission timed out after {} ms",
                    *running,
                    waited.as_millis()
                )));
            }
            let step = wait.min(ADMIT_WAIT_MAX - waited);
            let (guard, _) = self
                .turnstile
                .wait_timeout(running, step)
                .unwrap_or_else(PoisonError::into_inner);
            running = guard;
            waited += step;
            wait = wait.saturating_mul(2);
        }
    }

    /// Mint the [`CancelToken`] for one statement from the current limits
    /// and register it in the in-flight set (weakly — dropping the last
    /// statement-side `Arc` retires it).
    pub fn statement_token(&self) -> Arc<CancelToken> {
        let limits = self.limits();
        let mut t = CancelToken::new()
            .with_mem_budget(limits.mem_budget)
            .with_interrupt(limits.interrupt);
        if let Some(timeout) = limits.timeout {
            t = t.with_timeout(timeout);
        }
        let token = Arc::new(t);
        let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        inflight.retain(|w| w.strong_count() > 0);
        inflight.push(Arc::downgrade(&token));
        token
    }

    /// Cooperatively cancel every in-flight statement. Returns how many
    /// live, not-yet-tripped tokens were signalled; each aborts at its
    /// next checkpoint with [`RfvError::Cancelled`].
    pub fn cancel_all(&self) -> usize {
        let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        let mut signalled = 0;
        inflight.retain(|w| match w.upgrade() {
            Some(token) => {
                if !token.is_tripped() {
                    token.cancel();
                    signalled += 1;
                }
                true
            }
            None => false,
        });
        self.cancel_requests
            .fetch_add(signalled as u64, Ordering::Relaxed);
        signalled
    }
}

/// RAII admission slot: dropping it (normally or on unwind) releases the
/// slot and wakes one waiter.
#[derive(Debug)]
pub(crate) struct AdmitGuard(Option<Arc<Governor>>);

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        if let Some(gov) = self.0.take() {
            let mut running = gov.running.lock().unwrap_or_else(PoisonError::into_inner);
            *running = running.saturating_sub(1);
            drop(running);
            gov.turnstile.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unlimited() -> Arc<Governor> {
        Arc::new(Governor::new(GovLimits::UNLIMITED))
    }

    #[test]
    fn admission_counts_and_releases() {
        let gov = unlimited();
        assert_eq!(gov.running(), 0);
        let a = gov.admit().unwrap();
        let b = gov.admit().unwrap();
        assert_eq!(gov.running(), 2);
        drop(a);
        assert_eq!(gov.running(), 1);
        drop(b);
        assert_eq!(gov.running(), 0);
    }

    #[test]
    fn saturated_turnstile_sheds_with_overloaded() {
        let gov = unlimited();
        gov.set_max_concurrent(1);
        let _slot = gov.admit().unwrap();
        let start = std::time::Instant::now();
        let err = gov.admit().unwrap_err();
        assert!(matches!(err, RfvError::Overloaded(_)), "{err}");
        // Bounded wait: well past the cap is a bug, not jitter.
        assert!(start.elapsed() < ADMIT_WAIT_MAX * 10);
    }

    #[test]
    fn released_slot_unblocks_a_waiter() {
        let gov = unlimited();
        gov.set_max_concurrent(1);
        let slot = gov.admit().unwrap();
        let gov2 = Arc::clone(&gov);
        let waiter = std::thread::spawn(move || gov2.admit().map(drop));
        std::thread::sleep(Duration::from_millis(10));
        drop(slot);
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn cancel_all_signals_only_live_tokens() {
        let gov = unlimited();
        let keep = gov.statement_token();
        let dead = gov.statement_token();
        drop(dead);
        assert_eq!(gov.cancel_all(), 1);
        assert!(keep.is_tripped());
        // Already-tripped tokens are not re-signalled.
        assert_eq!(gov.cancel_all(), 0);
        assert_eq!(gov.cancel_requests(), 1);
    }

    #[test]
    fn minted_tokens_reflect_current_limits() {
        let gov = unlimited();
        gov.set_mem_budget(Some(4096));
        let t = gov.statement_token();
        assert_eq!(t.mem_budget(), 4096);
        gov.set_mem_budget(None);
        let t = gov.statement_token();
        assert_eq!(t.mem_budget(), UNLIMITED);
    }
}
