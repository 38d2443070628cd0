//! Deterministic fault injection, panic tolerance and the workspace's
//! worker pool.
//!
//! The worker pools of this workspace (per-signal synthesis, CSC
//! candidate scoring, the serve job queue) promise to survive a
//! panicking worker: the panic is caught, converted into a structured
//! error, and the process stays alive. This crate provides that promise:
//!
//! * **Panic tolerance** — [`run_isolated`] (a `catch_unwind` wrapper
//!   that extracts the panic message) and [`relock`] (poison-tolerant
//!   mutex acquisition: a panicked worker must not turn every later
//!   `lock().unwrap()` into a second panic).
//! * **The pool** — [`par_map`] maps independent jobs over scoped
//!   threads, each job isolated, results in index order, at any worker
//!   count including one. Per-signal synthesis and CSC candidate scoring
//!   both run on it; [`hardware_threads`] is their default worker count.
//! * **Fault injection** — named *failpoints* compiled into the pools
//!   only under the `failpoints` feature (off by default; release builds
//!   carry no injection code). Tests [`arm`] a site with a
//!   [`FaultAction`] and the next matching [`fail_point!`] hit fires it:
//!   panic, or trigger (a boolean the site uses to simulate a condition
//!   such as "the budget bursts at iteration *k*").
//!
//! Injection is deterministic: sites are keyed by name plus an optional
//! `u64` value (signal index, iteration count, candidate index), so a
//! test arms exactly the hit it means. Armed faults fire once and disarm.
//!
//! # Examples
//!
//! ```
//! // Always available, feature or not:
//! let r = si_fault::run_isolated(|| 2 + 2);
//! assert_eq!(r, Ok(4));
//! let r = si_fault::run_isolated(|| -> u32 { panic!("boom") });
//! assert_eq!(r, Err("boom".to_string()));
//!
//! let squares = si_fault::par_map(4, 2, |i| i * i);
//! assert_eq!(squares, vec![Ok(0), Ok(1), Ok(4), Ok(9)]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// What an armed failpoint does when hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic inside the hitting thread (exercises `catch_unwind` +
    /// poison recovery in the surrounding pool).
    Panic,
    /// Make the site's [`fail_trigger!`] expression return `true` (the
    /// site decides what that simulates — e.g. a budget burst at
    /// iteration `k`).
    Trigger,
}

/// One armed fault: fires on the next [`hit`] whose site name matches and
/// whose value matches (`None` = any value), then disarms.
#[derive(Debug)]
struct ArmedFault {
    site: &'static str,
    value: Option<u64>,
    action: FaultAction,
}

/// Count of armed faults — the fast path: [`hit`] is a single relaxed
/// atomic load when nothing is armed.
static ARMED_COUNT: AtomicUsize = AtomicUsize::new(0);
static REGISTRY: Mutex<Vec<ArmedFault>> = Mutex::new(Vec::new());

/// Disarms every failpoint. Call at the start of each injection test.
pub fn reset() {
    let mut reg = relock(&REGISTRY);
    reg.clear();
    ARMED_COUNT.store(0, Ordering::Release);
}

/// Arms `site` so that the next [`hit`] carrying a matching `value`
/// (`None` matches any) performs `action` and disarms. Multiple arms may
/// be outstanding, including several on the same site with different
/// values.
pub fn arm(site: &'static str, value: Option<u64>, action: FaultAction) {
    let mut reg = relock(&REGISTRY);
    reg.push(ArmedFault {
        site,
        value,
        action,
    });
    ARMED_COUNT.fetch_add(1, Ordering::Release);
}

/// Reports a failpoint hit. Returns `true` iff an armed
/// [`FaultAction::Trigger`] fired. Called through the [`fail_point!`] /
/// [`fail_trigger!`] macros — downstream code should not call it
/// directly, so that sites compile out without the `failpoints` feature.
///
/// # Panics
///
/// Panics (by design) when the matching armed fault is
/// [`FaultAction::Panic`].
pub fn hit(site: &str, value: u64) -> bool {
    if ARMED_COUNT.load(Ordering::Acquire) == 0 {
        return false;
    }
    let action = {
        let mut reg = relock(&REGISTRY);
        let found = reg
            .iter()
            .position(|f| f.site == site && f.value.is_none_or(|v| v == value));
        match found {
            Some(i) => {
                ARMED_COUNT.fetch_sub(1, Ordering::Release);
                reg.remove(i).action
            }
            None => return false,
        }
    };
    match action {
        FaultAction::Panic => panic!("injected fault at failpoint {site} (value {value})"),
        FaultAction::Trigger => true,
    }
}

/// Number of currently armed faults (a test can assert its injection was
/// actually consumed).
pub fn armed_count() -> usize {
    ARMED_COUNT.load(Ordering::Acquire)
}

/// Poison-tolerant mutex acquisition: a panic in another thread while it
/// held the lock poisons the mutex, but the data of every pool in this
/// workspace stays valid across a worker panic (first-error-wins slots,
/// per-index result slots), so the poison flag is
/// cleared rather than propagated — one panicking worker must not turn
/// every subsequent lock into a second panic.
pub fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Extracts the human-readable message from a panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f`, converting a panic into `Err(message)` — the per-worker
/// isolation wrapper of every thread pool in the workspace.
///
/// The closure is treated as unwind-safe: pool workers communicate only
/// through the pool's shared state, which is designed to stay consistent
/// across a mid-flight panic (see [`relock`]).
pub fn run_isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
}

/// The machine's hardware thread count, `1` when it cannot be queried —
/// the default worker count of the workspace's pools.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f(i)` for every `i` in `0..n` on `min(workers, n)` scoped
/// threads that pull indices from a shared cursor, and returns the results
/// in index order — independent of scheduling.
///
/// Each call runs under [`run_isolated`]: a panic in `f(i)` becomes
/// `Err(message)` at index `i` while every other index still runs. With
/// one worker (or `workers == 0`) the calls run inline on the calling
/// thread, in index order, isolated all the same.
pub fn par_map<T: Send>(
    n: usize,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<Result<T, String>> {
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(|i| run_isolated(|| f(i))).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *relock(&slots[i]) = Some(run_isolated(|| f(i)));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .expect("a worker filled every slot")
        })
        .collect()
}

/// Reports a hit at a named failpoint, performing the armed action if
/// any. Without the `failpoints` feature (of the *calling* crate) this
/// expands to nothing.
///
/// `fail_point!("site")` hits with value `0`;
/// `fail_point!("site", v)` hits with value `v` (any `as u64` castable
/// expression — signal index, job sequence number, candidate index).
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        $crate::fail_point!($site, 0u64)
    };
    ($site:expr, $value:expr) => {{
        #[cfg(feature = "failpoints")]
        {
            let _ = $crate::hit($site, $value as u64);
        }
        #[cfg(not(feature = "failpoints"))]
        {
            let _ = &$value;
        }
    }};
}

/// Like [`fail_point!`] but evaluates to `true` iff an armed
/// [`FaultAction::Trigger`] fired — for sites that *simulate a
/// condition* (e.g. "the budget bursts at iteration `k`") rather than
/// crash. Without the `failpoints` feature this is a constant `false`.
#[macro_export]
macro_rules! fail_trigger {
    ($site:expr, $value:expr) => {{
        #[cfg(feature = "failpoints")]
        {
            $crate::hit($site, $value as u64)
        }
        #[cfg(not(feature = "failpoints"))]
        {
            let _ = &$value;
            false
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_hits_are_free_and_false() {
        reset();
        assert!(!hit("nowhere", 7));
        assert_eq!(armed_count(), 0);
    }

    #[test]
    fn trigger_fires_once_on_matching_value() {
        reset();
        arm("t::site", Some(3), FaultAction::Trigger);
        assert!(!hit("t::site", 2), "value mismatch must not fire");
        assert!(!hit("other", 3), "site mismatch must not fire");
        assert!(hit("t::site", 3));
        assert!(!hit("t::site", 3), "armed faults are one-shot");
        reset();
    }

    #[test]
    fn panic_action_panics_and_is_isolated() {
        reset();
        arm("t::panic", None, FaultAction::Panic);
        let r = run_isolated(|| hit("t::panic", 0));
        let msg = r.unwrap_err();
        assert!(msg.contains("t::panic"), "got: {msg}");
        assert_eq!(armed_count(), 0);
        reset();
    }

    #[test]
    fn par_map_returns_results_in_index_order() {
        for workers in [1, 3] {
            for n in [0, 1, 7] {
                let expected: Vec<Result<usize, String>> = (0..n).map(|i| Ok(10 * i)).collect();
                assert_eq!(
                    par_map(n, workers, |i| 10 * i),
                    expected,
                    "n={n} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn par_map_isolates_a_panic_to_its_index() {
        for workers in [1, 3] {
            let results = par_map(7, workers, |i| {
                if i == 4 {
                    panic!("job {i} failed");
                }
                i
            });
            for (i, r) in results.into_iter().enumerate() {
                if i == 4 {
                    assert_eq!(r, Err("job 4 failed".to_string()), "workers={workers}");
                } else {
                    assert_eq!(r, Ok(i), "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn relock_recovers_poison() {
        let m = Mutex::new(41);
        let _ = run_isolated(|| {
            let _guard = m.lock().unwrap();
            panic!("poison it");
        });
        assert!(m.is_poisoned());
        *relock(&m) += 1;
        assert_eq!(*relock(&m), 42);
    }
}
