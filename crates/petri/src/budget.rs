//! Resource governance for long-running explorations.
//!
//! Every unbounded computation in the workspace — state-space exploration,
//! verification, conformance products, CSC candidate search — accepts a
//! [`Budget`]: a state cap, an approximate byte ceiling, a wall-clock
//! deadline and a cooperative [`CancelToken`]. Exhausting any of them does
//! **not** abort the work: the explorers return a *partial* result tagged
//! with an [`InterruptReason`], so callers can report "no violation in the
//! N states explored" instead of throwing the exploration away.
//!
//! Governance checks are amortized: the explorers consult the soft limits
//! (deadline / cancellation / bytes) once per batch of states, not per
//! state, so an unbounded budget costs one branch per batch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation handle: cloneable, thread-safe, one-way.
///
/// Cancellation is *cooperative* — the explorers poll the token at their
/// amortized governance checkpoints and wind down gracefully, returning
/// the states explored so far.
///
/// # Examples
///
/// ```
/// use si_petri::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; safe to call from any thread
    /// (and from a signal handler — it is a single atomic store).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

impl PartialEq for CancelToken {
    /// Tokens compare by identity: two tokens are equal iff they share
    /// the same underlying flag.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

impl Eq for CancelToken {}

/// Why a governed computation stopped before exhausting its state space.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum InterruptReason {
    /// The state cap ([`Budget::cap`]) was reached.
    CapExceeded,
    /// The wall-clock deadline ([`Budget::deadline`]) passed.
    DeadlineExpired,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The approximate byte ceiling ([`Budget::max_bytes`]) was reached.
    MemoryExhausted,
}

impl InterruptReason {
    /// A stable machine-readable name (used by `sisyn --json`).
    pub fn as_str(self) -> &'static str {
        match self {
            InterruptReason::CapExceeded => "cap-exceeded",
            InterruptReason::DeadlineExpired => "deadline-expired",
            InterruptReason::Cancelled => "cancelled",
            InterruptReason::MemoryExhausted => "memory-exhausted",
        }
    }
}

impl std::fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            InterruptReason::CapExceeded => "state cap exceeded",
            InterruptReason::DeadlineExpired => "deadline expired",
            InterruptReason::Cancelled => "cancelled",
            InterruptReason::MemoryExhausted => "memory budget exhausted",
        };
        f.write_str(what)
    }
}

/// An interrupted analysis: why it stopped and how far it got. This is a
/// *verdict qualifier*, not a failure — "no violation in the
/// `states_explored` states explored".
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Interrupt {
    /// Which budget dimension ran out.
    pub reason: InterruptReason,
    /// States explored before the interruption (the partial result covers
    /// exactly these).
    pub states_explored: usize,
    /// Wall time the computation ran before the interruption; a deadline
    /// interrupt counts from the moment the deadline was armed
    /// ([`Budget::elapsed_since`]).
    pub elapsed: Duration,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} after exploring {} states in {:.3}s",
            self.reason,
            self.states_explored,
            self.elapsed.as_secs_f64()
        )
    }
}

/// Resource budget of a governed computation.
///
/// # Examples
///
/// ```
/// use si_petri::{Budget, CancelToken};
/// use std::time::Duration;
///
/// let b = Budget::with_cap(1_000_000)
///     .timeout(Duration::from_secs(30))
///     .cancel(CancelToken::new());
/// assert_eq!(b.cap, 1_000_000);
/// assert!(b.deadline.is_some());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Budget {
    /// Maximum number of states to intern (`usize::MAX` = unbounded).
    pub cap: usize,
    /// Approximate ceiling on bytes held by the exploration (state arena +
    /// interner tables); accounting is per-batch and approximate.
    pub max_bytes: Option<usize>,
    /// Wall-clock instant after which the computation winds down.
    pub deadline: Option<Instant>,
    /// When [`Budget::timeout`] armed [`Self::deadline`] (`None` for a
    /// deadline set by [`Budget::deadline`]); see [`Budget::elapsed_since`].
    armed_at: Option<Instant>,
    /// Cooperative cancellation handle.
    pub cancel: Option<CancelToken>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            cap: usize::MAX,
            max_bytes: None,
            deadline: None,
            armed_at: None,
            cancel: None,
        }
    }
}

impl Budget {
    /// An unbounded budget (cap `usize::MAX`, no deadline, no token).
    pub fn unbounded() -> Self {
        Budget::default()
    }

    /// A budget bounded only by a state cap.
    pub fn with_cap(cap: usize) -> Self {
        Budget {
            cap,
            ..Budget::default()
        }
    }

    /// Sets the state cap.
    pub fn cap(mut self, cap: usize) -> Self {
        self.cap = cap;
        self
    }

    /// Sets the approximate byte ceiling.
    pub fn max_bytes(mut self, bytes: usize) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// Sets an absolute wall-clock deadline.
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self.armed_at = None;
        self
    }

    /// Sets the deadline `d` from now. A `d` too large for an [`Instant`]
    /// means no deadline at all.
    pub fn timeout(mut self, d: Duration) -> Self {
        let now = Instant::now();
        self.deadline = now.checked_add(d);
        self.armed_at = self.deadline.map(|_| now);
        self
    }

    /// Attaches a cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether any *soft* limit (deadline, token, bytes) is configured.
    /// The explorers skip the per-batch governance check entirely when
    /// this is `false` — the cap alone is enforced per interned state.
    pub fn has_soft_limits(&self) -> bool {
        self.max_bytes.is_some() || self.deadline.is_some() || self.cancel.is_some()
    }

    /// The wall time that a computation which began at `started` reports
    /// when it ends, `interrupted` or not. A deadline interrupt counts from
    /// the moment [`Budget::timeout`] armed the deadline, so it never reads
    /// below the timeout, even when the deadline passed before the
    /// computation began. Everything else counts from `started`.
    pub fn elapsed_since(
        &self,
        started: Instant,
        interrupted: Option<InterruptReason>,
    ) -> Duration {
        match (interrupted, self.armed_at) {
            (Some(InterruptReason::DeadlineExpired), Some(armed)) => armed.elapsed(),
            _ => started.elapsed(),
        }
    }

    /// The amortized governance check: cancellation, then deadline, then
    /// bytes. Returns the first exhausted dimension, if any. Callers pass
    /// their approximate live byte count (`0` is fine when no byte
    /// ceiling is set).
    pub fn check_soft(&self, approx_bytes: usize) -> Option<InterruptReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(InterruptReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(InterruptReason::DeadlineExpired);
            }
        }
        if let Some(max) = self.max_bytes {
            if approx_bytes >= max {
                return Some(InterruptReason::MemoryExhausted);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared() {
        let t = CancelToken::new();
        let u = t.clone();
        t.cancel();
        assert!(u.is_cancelled());
        assert_eq!(t, u);
        assert_ne!(t, CancelToken::new());
    }

    #[test]
    fn soft_checks_fire_in_order() {
        let b = Budget::unbounded();
        assert!(!b.has_soft_limits());
        assert_eq!(b.check_soft(usize::MAX), None);

        let b = Budget::unbounded().max_bytes(100);
        assert_eq!(b.check_soft(99), None);
        assert_eq!(b.check_soft(100), Some(InterruptReason::MemoryExhausted));

        let b = Budget::unbounded().deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.check_soft(0), Some(InterruptReason::DeadlineExpired));

        let token = CancelToken::new();
        let b = Budget::unbounded()
            .cancel(token.clone())
            .deadline(Instant::now() - Duration::from_millis(1));
        // Cancellation outranks the (already expired) deadline.
        token.cancel();
        assert_eq!(b.check_soft(0), Some(InterruptReason::Cancelled));
    }

    /// `n` independent two-place cycles: `2^n` reachable markings.
    fn toggles(n: usize) -> crate::PetriNet {
        let mut b = crate::PetriNet::builder();
        for i in 0..n {
            let lo = b.add_place(format!("lo{i}"), true);
            let hi = b.add_place(format!("hi{i}"), false);
            let up = b.add_transition(format!("up{i}"));
            let down = b.add_transition(format!("down{i}"));
            b.arc_pt(lo, up);
            b.arc_tp(up, hi);
            b.arc_pt(hi, down);
            b.arc_tp(down, lo);
        }
        b.build()
    }

    #[test]
    fn deadline_expired_before_the_start_reads_at_least_the_timeout() {
        use crate::space::{explore, ExploreOptions, MarkingSpace};
        let net = toggles(12);
        let space = MarkingSpace::new(&net);
        let timeout = Duration::from_millis(3);
        let budget = Budget::unbounded().timeout(timeout);
        std::thread::sleep(timeout + Duration::from_millis(1));
        let opts = ExploreOptions::with_cap(usize::MAX).budget(budget);
        let i = explore(&space, opts)
            .expect("no fatal violation")
            .interrupt()
            .expect("the deadline interrupts the exploration");
        assert_eq!(i.reason, InterruptReason::DeadlineExpired);
        assert!(i.elapsed >= timeout, "explicit: {:?}", i.elapsed);
        let budget = Budget::unbounded().timeout(timeout);
        std::thread::sleep(timeout + Duration::from_millis(1));
        let sym = crate::SymbolicReach::build_with(&net, &budget).expect("safe net");
        let i = sym
            .interrupt()
            .expect("the deadline interrupts the fixpoint");
        assert_eq!(i.reason, InterruptReason::DeadlineExpired);
        assert!(i.elapsed >= timeout, "symbolic: {:?}", i.elapsed);

        // An absolute deadline has no arming moment: the computation's own
        // time is all it reports.
        let budget = Budget::unbounded()
            .timeout(timeout)
            .deadline(Instant::now());
        assert_eq!(budget.armed_at, None);
    }
}
