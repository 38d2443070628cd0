//! The deterministic fault-injection suite: drives the real worker pools
//! of the workspace — per-signal synthesis, CSC candidate scoring, the
//! serve job queue and artifact store — and the symbolic fixpoint with
//! faults armed at their named failpoints, and asserts the robustness
//! contract: every injected panic surfaces as a structured error (process
//! intact, pool reusable), and a simulated budget burst degrades into the
//! ordinary partial verdict.
//!
//! Requires the `failpoints` feature (CI runs
//! `cargo test -p si-fault --features failpoints`); without it the
//! downstream sites compile to nothing and this file is empty.
#![cfg(feature = "failpoints")]

use si_csc::EngineResolve;
use si_fault::{arm, armed_count, relock, reset, FaultAction};
use si_petri::{InterruptReason, ReachabilityGraph, SymbolicReach};
use si_serve::json::{self, Value};
use si_serve::{ArtifactStore, JobQueue, Service};
use std::sync::{Arc, Mutex, MutexGuard};

/// The failpoint registry is process-global, so the injection tests must
/// not interleave: each takes this lock for its whole body. `relock`
/// because a failing test poisons it for every later one.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    relock(&LOCK)
}

#[test]
fn synthesis_worker_panic_names_the_signal_and_the_pool_survives() {
    let _guard = serial();
    reset();
    let stg = si_stg::generators::muller_pipeline(4);
    assert!(
        stg.synthesized_signals().len() >= 2,
        "need a multi-signal batch to engage the pool"
    );
    // Kill the worker synthesizing the first signal of the batch.
    arm("synthesis::signal", Some(0), FaultAction::Panic);
    let err = si_core::synthesize(&stg, &si_core::SynthesisOptions::default()).unwrap_err();
    match err {
        si_core::SynthesisError::WorkerPanicked { signal, detail } => {
            assert_eq!(signal, stg.synthesized_signals()[0]);
            assert!(detail.contains("injected fault"), "got: {detail}");
        }
        other => panic!("expected WorkerPanicked, got {other}"),
    }
    assert_eq!(armed_count(), 0, "the armed fault must have fired");
    // First-error-wins slot and poison-tolerant collection leave the pool
    // reusable: the same synthesis succeeds on the next call.
    let syn = si_core::synthesize(&stg, &si_core::SynthesisOptions::default()).unwrap();
    assert!(syn.literal_area > 0);
    reset();
}

#[test]
fn first_worker_panic_wins_and_only_one_is_reported() {
    let _guard = serial();
    reset();
    let stg = si_stg::generators::muller_pipeline(4);
    let signals = stg.synthesized_signals();
    assert!(signals.len() >= 3, "need three signals in the batch");
    // Kill the workers of the third and the second signal: both panics
    // fire, and the error names the earlier-listed signal alone.
    arm("synthesis::signal", Some(2), FaultAction::Panic);
    arm("synthesis::signal", Some(1), FaultAction::Panic);
    let err = si_core::synthesize(&stg, &si_core::SynthesisOptions::default()).unwrap_err();
    match err {
        si_core::SynthesisError::WorkerPanicked { signal, detail } => {
            assert_eq!(signal, signals[1]);
            assert!(detail.contains("(value 1)"), "got: {detail}");
        }
        other => panic!("expected WorkerPanicked, got {other}"),
    }
    assert_eq!(armed_count(), 0, "both armed faults must have fired");
    reset();
}

#[test]
fn one_signal_synthesis_panic_is_isolated_too() {
    let _guard = serial();
    reset();
    // A one-signal batch runs inline on the calling thread, and must be
    // isolated all the same: a panic is a structured error, not exit 101.
    let stg = si_stg::generators::clatch(2);
    assert_eq!(stg.synthesized_signals().len(), 1);
    arm("synthesis::signal", Some(0), FaultAction::Panic);
    let err = si_core::synthesize(&stg, &si_core::SynthesisOptions::default()).unwrap_err();
    match err {
        si_core::SynthesisError::WorkerPanicked { signal, detail } => {
            assert_eq!(signal, stg.synthesized_signals()[0]);
            assert!(detail.contains("injected fault"), "got: {detail}");
        }
        other => panic!("expected WorkerPanicked, got {other}"),
    }
    assert_eq!(armed_count(), 0, "the armed fault must have fired");
    reset();
}

#[test]
fn symbolic_iteration_burst_degrades_into_the_tagged_partial_verdict() {
    let _guard = serial();
    reset();
    let stg = si_stg::generators::clatch(6);
    let net = stg.net();
    // Simulate the budget bursting at the 3rd fixpoint iteration (value =
    // iterations completed when the check runs): the build must wind down
    // into the same tagged partial verdict a genuine deadline/cancel
    // produces — `Ok` with an underapproximated reached set, not an error.
    arm("symbolic::iterate", Some(2), FaultAction::Trigger);
    let total = ReachabilityGraph::build(net, 1_000_000)
        .unwrap()
        .state_count() as u128;
    let partial = SymbolicReach::build(net).expect("a burst is not an error");
    let i = partial.interrupt().expect("tagged partial verdict");
    assert_eq!(i.reason, InterruptReason::Cancelled);
    assert!(!partial.is_complete());
    assert_eq!(partial.iterations(), 2);
    assert!(partial.state_count() >= 1);
    assert!(
        partial.state_count() < total,
        "bursting at iteration 2 must leave an underapproximation"
    );
    assert_eq!(i.states_explored as u128, partial.state_count());
    assert!(partial.contains(&net.initial_marking()));
    assert_eq!(armed_count(), 0, "the trigger must have fired");
    // The burst leaves no residue: a clean rebuild reaches the fixpoint
    // and agrees with the explicit oracle.
    let clean = SymbolicReach::build(net).unwrap();
    assert!(clean.is_complete());
    assert_eq!(clean.state_count(), total);
    reset();
}

/// A serve stack (store + service + 2-worker queue) and a synth request
/// line for a small benchmark, as the socket server would wire them.
fn serve_stack() -> (Arc<ArtifactStore>, Arc<Service>, JobQueue, String) {
    let store = Arc::new(ArtifactStore::in_memory(16 << 20));
    let service = Arc::new(Service::new(Arc::clone(&store)));
    let queue = JobQueue::new(2);
    let spec = si_stg::write_g(&si_stg::generators::clatch(2));
    let line = format!("{{\"op\": \"synth\", \"spec\": {}}}", json::escape(&spec));
    (store, service, queue, line)
}

#[test]
fn serve_job_panic_is_a_structured_error_and_the_queue_keeps_serving() {
    let _guard = serial();
    reset();
    let (store, service, queue, line) = serve_stack();
    // Kill the first job the pool picks up (seq 0), exactly where the
    // server's worker runs it.
    arm("serve::job", Some(0), FaultAction::Panic);
    let svc = Arc::clone(&service);
    let req = line.clone();
    let err = queue
        .submit(move || svc.execute(&req).body)
        .expect_err("the injected panic must surface as Err");
    assert!(err.contains("injected fault"), "got: {err}");
    assert_eq!(armed_count(), 0, "the armed fault must have fired");
    // Neither the queue nor the store is poisoned: the same request
    // succeeds on the next submission, through the same workers.
    let svc = Arc::clone(&service);
    let req = line.clone();
    let body = queue.submit(move || svc.execute(&req).body).unwrap();
    let v = json::parse(&body).expect("response body is JSON");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{body}");
    let s = queue.stats();
    assert_eq!((s.executed, s.panicked, s.depth), (1, 1, 0));
    // The successful retry populated the store past the casualty.
    assert!(store.stats().mem_entries > 0);
    reset();
}

#[test]
fn store_write_panic_mid_job_poisons_neither_queue_nor_store() {
    let _guard = serial();
    reset();
    let (_store, service, queue, line) = serve_stack();
    // Kill the first artifact write (a per-signal cover) *inside* the
    // executing job: the panic unwinds through the service and the
    // store, and must be contained by the worker's isolation.
    arm("store::write", Some(0), FaultAction::Panic);
    let svc = Arc::clone(&service);
    let req = line.clone();
    let err = queue
        .submit(move || svc.execute(&req).body)
        .expect_err("the injected panic must surface as Err");
    assert!(err.contains("injected fault"), "got: {err}");
    assert_eq!(armed_count(), 0, "the armed fault must have fired");
    // The store's locks are intact: the identical request re-derives
    // everything, caches it, and a third run is answered from cache.
    let svc = Arc::clone(&service);
    let req = line.clone();
    let body = queue.submit(move || svc.execute(&req).body).unwrap();
    let v = json::parse(&body).expect("response body is JSON");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{body}");
    let cached = service.execute(&line);
    assert!(cached.cache_hit, "the interrupted write left no residue");
    assert_eq!(cached.body, body);
    let s = queue.stats();
    assert_eq!((s.executed, s.panicked), (1, 1));
    reset();
}

#[test]
fn csc_scoring_panic_skips_the_candidate_and_the_search_continues() {
    let _guard = serial();
    reset();
    let stg = si_stg::benchmarks::vme_read_raw();
    // Kill the worker scoring the first candidate of the first batch: the
    // search must count the casualty, skip it and resolve on a survivor.
    arm("csc::evaluate", Some(0), FaultAction::Panic);
    let opts = si_csc::CscOptions::default().workers(2);
    let outcome = si_core::Engine::new(&stg).resolve_csc_outcome(&opts);
    assert_eq!(outcome.stats.panicked, 1, "stats: {:?}", outcome.stats);
    assert!(
        outcome.resolution.is_some(),
        "surviving candidates must still resolve the conflict"
    );
    assert_eq!(armed_count(), 0, "the armed fault must have fired");
    // The panicking candidate is charged against neither verdict counter.
    let stats = &outcome.stats;
    assert!(stats.evaluated + stats.panicked <= stats.generated.max(stats.evaluated + 1));
    reset();
}
