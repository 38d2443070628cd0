//! The generic **sharded** state-space explorer.
//!
//! The sequential explorer of [`crate::space`] is bounded by one thread
//! walking one interner. This module removes that bound for *any*
//! [`StateSpace`] by *partitioning the interner*: every discovered packed
//! state is owned by exactly one **shard**, chosen by a multiplicative mix
//! of the state's word hash, and every shard is explored by its own worker
//! thread. It runs the searches whose reports name none of its state
//! ids: the speed-independence violation search, the conformance product
//! and the CFSM deadlock check. Reachability graphs are built by the
//! sequential explorer alone.
//!
//! # Pipeline
//!
//! ```text
//!             ┌────────────────────── worker i ──────────────────────┐
//!             │ frontier_i ─▶ space.for_each_successor(state)        │
//!             │     ▲               │                                │
//!             │     │        shard_of(s') == i ? ──yes─▶ intern_i ───┤
//!             │     └──────────────────────────────────── (if new)   │
//!             │                      no                              │
//!             │                      ▼                               │
//!             │            queues[j][i]  (batched, mutexed)          │
//!             └──────────────────────┬───────────────────────────────┘
//!                                    ▼
//!             ┌────────────────────── worker j ──────────────────────┐
//!             │ drain queues[j][*] ─▶ intern_j ─▶ record parent      │
//!             │                          │ (if new) ─▶ frontier_j    │
//!             └──────────────────────────┴───────────────────────────┘
//!
//!   termination: global `pending` counter =
//!       (discovered-but-unexplored states) + (sent-but-unprocessed msgs);
//!   a worker may exit only when its frontier and inbox are empty AND
//!   pending == 0 — or when the shared stop flag is raised (fatal
//!   violation, state cap, or violation budget spent).
//! ```
//!
//! Each worker owns a private interner (open-addressing table + flat word
//! arena) and a LIFO frontier, so the hot loop is identical to the
//! sequential explorer: no locks, no allocation per successor. Only
//! *cross-shard successors* pay for communication, and those are staged in
//! per-destination batches that are flushed under a per-`(src, dst)` pair
//! mutex — workers never contend on a single global structure.
//!
//! # Merging
//!
//! After the parallel phase the shards hold disjoint state sets with
//! *shard-local* ids. [`explore_sharded`] merges them into one
//! [`Exploration`] under global ids (shard offset + local id): states
//! into a flat arena, per-state discovering edges (witnesses) and
//! violations. The ids depend on thread scheduling, but the state *set*,
//! the violation *set* and the validity of every witness do not, so the
//! verdict-style clients canonicalize their reports without ids.

use crate::budget::{Budget, InterruptReason};
use crate::reach::{MarkingInterner, StateId};
use crate::space::{
    Exploration, ExploreError, ExploreOptions, SpaceVisitor, StateSpace, Store, NO_PARENT,
};
use si_boolean::hash_word_slice;
use si_fault::{fail_point, fail_trigger, relock, run_isolated};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Odd multiplier decorrelating the shard index from the interner's slot
/// index (both are derived from the same word hash; without the remix a
/// shard's keys would share their low hash bits and cluster in its table).
const SHARD_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Staged cross-shard messages are flushed to the shared queue once this
/// many have accumulated for one destination (or when the sender's local
/// frontier drains). Batching amortizes the queue mutex.
const FLUSH_AT: usize = 128;

/// Owning shard of a packed state: top `log2(nshards)` bits of the remixed
/// hash. `shift == 64 - log2(nshards)`.
#[inline]
fn shard_of(key: &[u64], shift: u32) -> usize {
    (hash_word_slice(key).wrapping_mul(SHARD_MIX) >> shift) as usize
}

/// A batch of cross-shard messages: `nw` state words plus
/// `(source-local state, label)` per message. The source shard is
/// implied by which queue the batch sits in.
#[derive(Default)]
struct MsgBatch {
    words: Vec<u64>,
    meta: Vec<(u32, u32)>,
}

/// One `(src, dst)` message queue. The `nonempty` flag is written only
/// while `buf`'s lock is held, so a receiver that reads `true` (Acquire)
/// will find the messages, and a stale `false` merely defers the batch to
/// the receiver's next spin (the `pending` counter keeps it spinning).
/// Idle workers thereby skip empty inboxes without touching any mutex.
#[derive(Default)]
struct Queue {
    nonempty: AtomicBool,
    buf: Mutex<MsgBatch>,
}

/// [`Shared::interrupted`] codes: 0 = none, otherwise an
/// [`InterruptReason`] (first writer wins via compare-exchange).
const INTR_NONE: u8 = 0;

fn intr_code(reason: InterruptReason) -> u8 {
    match reason {
        InterruptReason::CapExceeded => 1,
        InterruptReason::DeadlineExpired => 2,
        InterruptReason::Cancelled => 3,
        InterruptReason::MemoryExhausted => 4,
    }
}

fn intr_reason(code: u8) -> Option<InterruptReason> {
    match code {
        1 => Some(InterruptReason::CapExceeded),
        2 => Some(InterruptReason::DeadlineExpired),
        3 => Some(InterruptReason::Cancelled),
        4 => Some(InterruptReason::MemoryExhausted),
        _ => None,
    }
}

/// State shared by all workers of one exploration.
struct Shared<V> {
    nshards: usize,
    shift: u32,
    /// Words per state (byte accounting).
    nw: usize,
    budget: Budget,
    max_violations: usize,
    /// In-flight work: discovered-but-unexplored states plus
    /// sent-but-unprocessed messages. Zero ⇔ exploration complete.
    pending: AtomicUsize,
    /// Total states interned across all shards (cap accounting).
    states: AtomicUsize,
    /// Total violations reported across all shards (budget accounting).
    violations: AtomicUsize,
    /// Raised on fatal violation, worker panic, or an exhausted budget
    /// dimension; every worker winds down when it sees it — even with
    /// `pending` still nonzero (a panicked worker can never drain its
    /// share, so termination must not depend on the counter then).
    stop: AtomicBool,
    /// First exhausted budget dimension ([`INTR_NONE`] = none).
    interrupted: AtomicU8,
    fatal: Mutex<Option<V>>,
    /// First worker panic `(shard, message)`; like `fatal`, first wins.
    panic_slot: Mutex<Option<(usize, String)>>,
    /// `queues[dst][src]` — receiver `dst` drains row `dst`, sender `src`
    /// appends under the pair's own mutex, so flushes to different
    /// destinations never contend.
    queues: Vec<Vec<Queue>>,
}

impl<V> Shared<V> {
    /// First fatal violation wins; everyone else sees `stop` and unwinds.
    fn fail(&self, v: V) {
        let mut slot = relock(&self.fatal);
        if slot.is_none() {
            *slot = Some(v);
        }
        self.stop.store(true, Ordering::Release);
    }

    /// A worker panicked (caught at the worker boundary): record the
    /// first panic and stop every other worker.
    fn worker_panicked(&self, shard: usize, message: String) {
        let mut slot = relock(&self.panic_slot);
        if slot.is_none() {
            *slot = Some((shard, message));
        }
        self.stop.store(true, Ordering::Release);
    }

    /// A budget dimension ran out: record the first reason (the partial
    /// result is still merged and returned) and stop every worker.
    fn interrupt(&self, reason: InterruptReason) {
        let _ = self.interrupted.compare_exchange(
            INTR_NONE,
            intr_code(reason),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        self.stop.store(true, Ordering::Release);
    }

    /// The state cap was burst: record it and stop every worker.
    fn cap_burst(&self) {
        self.interrupt(InterruptReason::CapExceeded);
    }

    /// Amortized soft-budget check (deadline / cancellation / bytes),
    /// called from the workers' periodic checkpoints. The byte estimate
    /// is the interned-state arena plus interner-table overhead.
    fn check_budget(&self) {
        let approx_bytes = self
            .states
            .load(Ordering::Relaxed)
            .saturating_mul(self.nw * 8 + 16);
        if let Some(reason) = self.budget.check_soft(approx_bytes) {
            self.interrupt(reason);
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Per-worker private state: one shard of the interner, its frontier, its
/// parent/violation records and its outbound staging buffers.
struct Worker<V> {
    me: usize,
    nw: usize,
    interner: MarkingInterner,
    /// LIFO frontier of shard-local state ids (same discipline as the
    /// sequential explorer).
    frontier: Vec<u32>,
    /// Discovering `(src_shard, src_local, label)` per local state, when
    /// [`ExploreOptions::witness`].
    parents: Vec<(u32, u32, u32)>,
    /// Violations observed while exploring, tagged with the local id of
    /// the observing state.
    violations: Vec<(u32, V)>,
    /// Outbound staging, one batch per destination shard.
    out: Vec<MsgBatch>,
    witness: bool,
    /// Cross-shard batches this worker published (plain field: summed
    /// into the observability registry at merge time, so the hot path
    /// never touches shared metrics).
    flushes: u64,
    /// Idle spins (frontier and inbox empty, pending > 0); ditto.
    idle_spins: u64,
}

impl<V: Send> Worker<V> {
    fn new(me: usize, nw: usize, nshards: usize, opts: &ExploreOptions) -> Self {
        Worker {
            me,
            nw,
            interner: MarkingInterner::new(nw),
            frontier: Vec::new(),
            parents: Vec::new(),
            violations: Vec::new(),
            out: (0..nshards).map(|_| MsgBatch::default()).collect(),
            witness: opts.witness,
            flushes: 0,
            idle_spins: 0,
        }
    }

    /// Interns `key` in this shard, recording the parent that
    /// discovered it; new states are charged against the global cap and
    /// pushed on the local frontier. Returns `false` when the exploration
    /// must stop.
    fn accept(
        &mut self,
        key: &[u64],
        src_shard: u32,
        src_local: u32,
        label: u32,
        shared: &Shared<V>,
    ) -> bool {
        let (local, is_new) = self.interner.intern(key);
        if is_new {
            if self.witness {
                self.parents.push((src_shard, src_local, label));
            }
            let before = shared.states.fetch_add(1, Ordering::AcqRel);
            // Injection site: simulate the cap bursting at state k.
            if fail_trigger!("shard::accept", before) {
                shared.cap_burst();
                return false;
            }
            if before >= shared.budget.cap {
                shared.cap_burst();
                return false;
            }
            shared.pending.fetch_add(1, Ordering::AcqRel);
            self.frontier.push(local.0);
        }
        true
    }

    /// Takes every waiting inbound batch and interns its states.
    /// Returns whether anything was received.
    fn drain_inbox(&mut self, shared: &Shared<V>) -> bool {
        let mut any = false;
        for src in 0..shared.nshards {
            if src == self.me {
                continue;
            }
            let q = &shared.queues[self.me][src];
            if !q.nonempty.load(Ordering::Acquire) {
                continue;
            }
            let batch = {
                let mut buf = relock(&q.buf);
                q.nonempty.store(false, Ordering::Release);
                std::mem::take(&mut *buf)
            };
            if batch.meta.is_empty() {
                continue;
            }
            if batch.words.len() != batch.meta.len() * self.nw {
                // A sender panicked mid-append and left the batch torn.
                // Its panic has already raised `stop`; skip the batch
                // rather than cascade the failure into this worker.
                debug_assert!(shared.stopped());
                continue;
            }
            any = true;
            for (k, &(src_local, label)) in batch.meta.iter().enumerate() {
                let key = &batch.words[k * self.nw..(k + 1) * self.nw];
                let ok = self.accept(key, src as u32, src_local, label, shared);
                shared.pending.fetch_sub(1, Ordering::AcqRel);
                if !ok {
                    return any;
                }
            }
        }
        any
    }

    /// Publishes the staged batch for `dst` into the shared queue.
    fn flush_to(&mut self, dst: usize, shared: &Shared<V>) {
        if self.out[dst].meta.is_empty() {
            return;
        }
        // Injection site: delay the publish (queue stall) — the pending
        // counter must keep the receiver spinning until this lands.
        fail_point!("shard::flush", dst);
        self.flushes += 1;
        // Flushes are already amortized (per FLUSH_AT messages), so the
        // states-per-batch histogram costs one relaxed load per flush.
        si_obs::histogram_record("explore.flush_batch", self.out[dst].meta.len() as u64);
        let staged = &mut self.out[dst];
        {
            let q = &shared.queues[dst][self.me];
            let mut buf = relock(&q.buf);
            buf.words.extend_from_slice(&staged.words);
            buf.meta.extend_from_slice(&staged.meta);
            q.nonempty.store(true, Ordering::Release);
        }
        staged.words.clear();
        staged.meta.clear();
    }

    fn flush_all(&mut self, shared: &Shared<V>) {
        for dst in 0..shared.nshards {
            if dst != self.me {
                self.flush_to(dst, shared);
            }
        }
    }

    /// The worker main loop: drain inbox, explore the local frontier
    /// through the space's `inspect` + `for_each_successor`, flush
    /// outbound batches, spin-yield when idle until `pending` reaches
    /// zero (or someone stops the run).
    fn run<S: StateSpace<Violation = V>>(&mut self, space: &S, shared: &Shared<V>) {
        // Injection site: a worker that dies on arrival (value = shard
        // index) — the catch_unwind boundary in `explore_sharded` must
        // convert this into a structured `WorkerPanicked` error.
        fail_point!("shard::worker", self.me);
        let nw = self.nw;
        let mut cur = vec![0u64; nw];
        let mut scratch = vec![0u64; nw];
        let governed = shared.budget.has_soft_limits();
        // Progress heartbeats ride the existing per-64-states checkpoint,
        // so arming them adds no branch to the per-state loop.
        let ticking = si_obs::progress_armed();
        loop {
            if shared.stopped() {
                return;
            }
            let received = self.drain_inbox(shared);
            let mut explored = 0usize;
            while let Some(s) = self.frontier.pop() {
                if shared.violations.load(Ordering::Acquire) >= shared.max_violations {
                    shared.stop.store(true, Ordering::Release);
                    return;
                }
                cur.copy_from_slice(self.interner.key(s as usize));
                let fatal = {
                    let mut vis = WorkerVisitor {
                        worker: self,
                        shared,
                        src: s,
                        stopped: false,
                    };
                    // A violating verdict re-checks the budget at once: a
                    // spent budget stops the run before this state's
                    // successors are expanded (mirrors the sequential
                    // explorer).
                    if space.inspect(&cur, &mut vis) == crate::space::Verdict::Violation
                        && shared.violations.load(Ordering::Acquire) >= shared.max_violations
                    {
                        shared.stop.store(true, Ordering::Release);
                        return;
                    }
                    space.for_each_successor(&cur, &mut scratch, &mut vis).err()
                };
                if let Some(v) = fatal {
                    shared.fail(v);
                    return;
                }
                shared.pending.fetch_sub(1, Ordering::AcqRel);
                explored += 1;
                if explored.is_multiple_of(64) {
                    if governed {
                        shared.check_budget();
                    }
                    if ticking {
                        si_obs::progress_tick(
                            shared.states.load(Ordering::Relaxed),
                            self.frontier.len(),
                        );
                    }
                    if shared.stopped() {
                        return;
                    }
                    // Keep cross-shard latency bounded even during long
                    // local runs: publish what we have and take deliveries.
                    self.flush_all(shared);
                    self.drain_inbox(shared);
                }
            }
            self.flush_all(shared);
            if !received && self.frontier.is_empty() {
                if shared.pending.load(Ordering::Acquire) == 0 {
                    return;
                }
                if governed {
                    // An idle worker still honors deadline/cancellation:
                    // with every shard idle-spinning on a stalled queue,
                    // someone has to notice the budget ran out.
                    shared.check_budget();
                }
                self.idle_spins += 1;
                std::thread::yield_now();
            }
        }
    }
}

/// The space-facing visitor of one state expansion inside a worker:
/// routes successors to their owning shard, collects violations.
struct WorkerVisitor<'a, V> {
    worker: &'a mut Worker<V>,
    shared: &'a Shared<V>,
    /// Local id of the state being expanded.
    src: u32,
    /// This expansion must stop (cap burst locally).
    stopped: bool,
}

impl<V: Send> SpaceVisitor<V> for WorkerVisitor<'_, V> {
    fn successor(&mut self, label: u32, next: &[u64]) -> bool {
        if self.stopped {
            return false;
        }
        let dst = shard_of(next, self.shared.shift);
        if dst == self.worker.me {
            let me = self.worker.me as u32;
            if !self.worker.accept(next, me, self.src, label, self.shared) {
                self.stopped = true;
                return false;
            }
        } else {
            // Counted as in-flight from the moment it is staged, so no
            // receiver can observe pending == 0 while the message sits in
            // our buffer.
            self.shared.pending.fetch_add(1, Ordering::AcqRel);
            let staged = &mut self.worker.out[dst];
            staged.words.extend_from_slice(next);
            staged.meta.push((self.src, label));
            if staged.meta.len() >= FLUSH_AT {
                self.worker.flush_to(dst, self.shared);
            }
        }
        true
    }

    fn violation(&mut self, v: V) {
        self.shared.violations.fetch_add(1, Ordering::AcqRel);
        self.worker.violations.push((self.src, v));
    }
}

/// The generic **sharded** explorer: one worker thread per shard of the
/// hash-partitioned interner, exploring `space` under `opts`. See the
/// module docs for the pipeline; see [`crate::space::explore`] for the
/// sequential counterpart sharing the same contract.
///
/// `opts.shards` is normalized like [`crate::ReachOptions::shards`];
/// `shards <= 1` falls back to the sequential explorer. More than one
/// shard records no successor adjacency: [`ExploreOptions::record_edges`]
/// belongs to the sequential explorer, which builds every
/// [`crate::ReachabilityGraph`].
///
/// # Errors
///
/// [`ExploreError::Fatal`]: the first fatal violation a racing worker
/// hits wins. On a space with several fatal violations, *which* one is
/// reported depends on thread scheduling; on one that is both fatal
/// **and** larger than the cap, even whether the run fails or ends with
/// the cap interrupt may differ from run to run.
/// [`ExploreError::WorkerPanicked`]: a worker thread panicked — the
/// panic is caught at the worker boundary, the remaining workers wind
/// down, and the first panic is reported with the process intact.
pub fn explore_sharded<S: StateSpace>(
    space: &S,
    opts: ExploreOptions,
) -> Result<Exploration<S::Violation>, ExploreError<S::Violation>> {
    let nshards = opts.shards.max(1).next_power_of_two().min(64);
    if nshards <= 1 {
        return crate::space::explore(space, opts);
    }
    let _span = si_obs::span("explore.sharded");
    let t0 = std::time::Instant::now();
    let nw = space.words();
    let shift = 64 - nshards.trailing_zeros();

    let shared: Shared<S::Violation> = Shared {
        nshards,
        shift,
        nw,
        budget: opts.budget.clone(),
        max_violations: opts.max_violations,
        pending: AtomicUsize::new(1), // the initial state
        states: AtomicUsize::new(1),  // ditto (never charged against the cap)
        violations: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        interrupted: AtomicU8::new(INTR_NONE),
        fatal: Mutex::new(None),
        panic_slot: Mutex::new(None),
        queues: (0..nshards)
            .map(|_| (0..nshards).map(|_| Queue::default()).collect())
            .collect(),
    };

    let mut workers: Vec<Worker<S::Violation>> = (0..nshards)
        .map(|i| Worker::new(i, nw, nshards, &opts))
        .collect();

    // Seed the initial state into its owner shard as local state 0. Like
    // the sequential explorer, it is admitted without a cap check (it has
    // no discovering edge either, so `accept` does not apply).
    let init = space.initial();
    let owner = shard_of(&init, shift);
    let (s0, _) = workers[owner].interner.intern(&init);
    debug_assert_eq!(s0, StateId(0));
    if opts.witness {
        workers[owner].parents.push((NO_PARENT, 0, 0));
    }
    workers[owner].frontier.push(0);

    std::thread::scope(|scope| {
        for w in workers.iter_mut() {
            let shared = &shared;
            scope.spawn(move || {
                // Per-worker panic isolation: a panicking space (or an
                // injected fault) takes down this worker only; the panic
                // is converted into a structured error and every other
                // worker winds down via the stop flag.
                let me = w.me;
                if let Err(message) = run_isolated(|| w.run(space, shared)) {
                    shared.worker_panicked(me, message);
                }
            });
        }
    });

    if let Some((shard, message)) = relock(&shared.panic_slot).take() {
        return Err(ExploreError::WorkerPanicked { shard, message });
    }
    if let Some(v) = relock(&shared.fatal).take() {
        return Err(ExploreError::Fatal(v));
    }
    let mut expl = merge(workers, &shared, owner, &opts);
    expl.elapsed = opts.budget.elapsed_since(t0, expl.interrupted);
    Ok(expl)
}

/// Merges the shards into one [`Exploration`] under global ids
/// (`gid = shard offset + local id`).
fn merge<V>(
    workers: Vec<Worker<V>>,
    shared: &Shared<V>,
    owner: usize,
    opts: &ExploreOptions,
) -> Exploration<V> {
    let nshards = workers.len();
    let nw = workers[0].nw;

    if si_obs::enabled() {
        si_obs::counter_add(
            "explore.flushes",
            workers.iter().map(|w| w.flushes).sum::<u64>(),
        );
        si_obs::counter_add(
            "explore.idle_spins",
            workers.iter().map(|w| w.idle_spins).sum::<u64>(),
        );
    }

    // Shard offsets: gid = off[shard] + local id.
    let mut off = vec![0usize; nshards + 1];
    for (i, w) in workers.iter().enumerate() {
        off[i + 1] = off[i] + w.interner.len();
    }
    let n = off[nshards];
    let gid = |shard: u32, local: u32| (off[shard as usize] + local as usize) as u32;

    // One consuming pass per worker: states into the flat arena, parents
    // and violations remapped to gids.
    let mut words: Vec<u64> = Vec::with_capacity(n * nw);
    let mut parents: Vec<(u32, u32)> = Vec::with_capacity(if opts.witness { n } else { 0 });
    let mut violations: Vec<(u32, V)> = Vec::new();
    for (j, w) in workers.into_iter().enumerate() {
        words.extend_from_slice(&w.interner.words);
        for &(ps, pl, label) in &w.parents {
            parents.push(if ps == NO_PARENT {
                (NO_PARENT, 0)
            } else {
                (gid(ps, pl), label)
            });
        }
        violations.extend(w.violations.into_iter().map(|(l, v)| (gid(j as u32, l), v)));
    }
    debug_assert!(!opts.witness || parents.len() == n);

    let interrupted = intr_reason(shared.interrupted.load(Ordering::Acquire));
    let states = n.min(shared.budget.cap);
    if si_obs::enabled() {
        si_obs::counter_add("explore.states", states as u64);
    }
    Exploration {
        store: Store::Flat { nw, words, len: n },
        root: off[owner] as u32,
        succ_edges: Vec::new(),
        succ_ranges: Vec::new(),
        parents,
        violations,
        interrupted,
        states,
        elapsed: Duration::ZERO, // overwritten by explore_sharded
    }
}

#[cfg(test)]
mod tests {
    use super::explore_sharded;
    use crate::budget::InterruptReason;
    use crate::net::PetriNet;
    use crate::reach::ReachError;
    use crate::space::{explore, Exploration, ExploreError, ExploreOptions, MarkingSpace};

    /// An `n`-stage pipeline of fork-joins — enough states to exercise
    /// cross-shard traffic and table growth.
    fn pipeline(n: usize) -> PetriNet {
        let mut b = PetriNet::builder();
        let mut prev = b.add_place("p0", true);
        for i in 0..n {
            let fork = b.add_transition(format!("fork{i}"));
            let a = b.add_place(format!("a{i}"), false);
            let c = b.add_place(format!("b{i}"), false);
            let a2 = b.add_place(format!("a{i}x"), false);
            let c2 = b.add_place(format!("b{i}x"), false);
            let join = b.add_transition(format!("join{i}"));
            let next = b.add_place(format!("p{}", i + 1), false);
            b.arc_pt(prev, fork);
            b.arc_tp(fork, a);
            b.arc_tp(fork, c);
            let ta = b.add_transition(format!("ta{i}"));
            let tb = b.add_transition(format!("tb{i}"));
            b.arc_pt(a, ta);
            b.arc_tp(ta, a2);
            b.arc_pt(c, tb);
            b.arc_tp(tb, c2);
            b.arc_pt(a2, join);
            b.arc_pt(c2, join);
            b.arc_tp(join, next);
            prev = next;
        }
        // Close the loop so the net is live.
        let back = b.add_transition("back");
        let first = crate::net::PlaceId(0);
        b.arc_pt(prev, back);
        b.arc_tp(back, first);
        b.build()
    }

    /// The interned states of an exploration, sorted — the id-free view
    /// every sharded client reports from.
    fn sorted_keys<V>(e: &Exploration<V>) -> Vec<Vec<u64>> {
        let mut keys: Vec<Vec<u64>> = (0..e.interned() as u32)
            .map(|s| e.key(s).to_vec())
            .collect();
        keys.sort_unstable();
        keys
    }

    fn assert_same_states(net: &PetriNet, shards: usize) {
        let space = MarkingSpace::new(net);
        let seq = explore(&space, ExploreOptions::with_cap(1_000_000)).unwrap();
        let par =
            explore_sharded(&space, ExploreOptions::with_cap(1_000_000).shards(shards)).unwrap();
        assert_eq!(par.interrupted, None);
        assert_eq!(par.states, seq.states, "{shards} shards");
        assert_eq!(sorted_keys(&par), sorted_keys(&seq), "{shards} shards");
        assert_eq!(par.key(par.root()), seq.key(seq.root()));
    }

    #[test]
    fn sharded_matches_sequential_bit_for_bit() {
        for n in [1, 3, 6] {
            let net = pipeline(n);
            for shards in [2, 4, 8] {
                assert_same_states(&net, shards);
            }
        }
    }

    #[test]
    fn sharded_respects_cap() {
        let net = pipeline(4);
        let space = MarkingSpace::new(&net);
        let full = explore(&space, ExploreOptions::with_cap(1_000_000)).unwrap();
        let cap = full.states - 1;
        let par = explore_sharded(&space, ExploreOptions::with_cap(cap).shards(4)).unwrap();
        assert_eq!(par.interrupted, Some(InterruptReason::CapExceeded));
        assert_eq!(par.states, cap);
    }

    #[test]
    fn sharded_detects_unsafe_nets() {
        // Two producers race tokens onto p1.
        let mut b = PetriNet::builder();
        let p0 = b.add_place("p0", true);
        let p1 = b.add_place("p1", false);
        let p2 = b.add_place("p2", true);
        let t0 = b.add_transition("t0");
        let t1 = b.add_transition("t1");
        b.arc_pt(p0, t0);
        b.arc_tp(t0, p1);
        b.arc_pt(p2, t1);
        b.arc_tp(t1, p1);
        b.arc_tp(t1, p0);
        let net = b.build();
        let r = explore_sharded(
            &MarkingSpace::new(&net),
            ExploreOptions::with_cap(100).shards(2),
        );
        assert!(matches!(
            r,
            Err(ExploreError::Fatal(ReachError::NotSafe { .. }))
        ));
    }

    #[test]
    fn wide_nets_cross_word_boundaries() {
        // > 64 places forces multi-word markings through the message path.
        let n = 40; // 6 places per stage + 1 => ~241 places
        assert_same_states(&pipeline(n), 4);
    }

    #[test]
    fn sharded_witnesses_replay() {
        let net = pipeline(3);
        let space = MarkingSpace::new(&net);
        let e = explore_sharded(
            &space,
            ExploreOptions::with_cap(1_000_000).shards(4).witness(),
        )
        .unwrap();
        // Every discovered state's witness must replay, via the firing
        // rule, from m0 to that state's packed words.
        let view = net.firing_view();
        let nw = view.words();
        for s in (0..e.interned() as u32).step_by(7) {
            let mut cur = net.initial_marking().as_words().to_vec();
            let mut scratch = vec![0u64; nw];
            for label in e.witness(s) {
                assert!(view.is_enabled(&cur, label as usize));
                view.fire_into(&cur, label as usize, &mut scratch);
                std::mem::swap(&mut cur, &mut scratch);
            }
            assert_eq!(&cur[..], e.key(s), "witness of state {s} does not replay");
        }
    }
}
