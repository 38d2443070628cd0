//! The deterministic fault-injection suite: drives the real worker pools
//! of the workspace — the sharded state-space explorer, per-signal
//! synthesis, CSC candidate scoring, the serve job queue and
//! artifact store — with faults armed at
//! their named failpoints, and asserts the robustness contract: every
//! injected panic surfaces as a structured `WorkerPanicked` (process
//! intact), stalls never deadlock the termination counter, and a
//! simulated cap burst degrades into the ordinary cap verdict.
//!
//! Requires the `failpoints` feature (CI runs
//! `cargo test -p si-fault --features failpoints`); without it the
//! downstream sites compile to nothing and this file is empty.
#![cfg(feature = "failpoints")]

use si_fault::{arm, armed_count, relock, reset, FaultAction};
use si_petri::{InterruptReason, ReachError, ReachOptions, ReachabilityGraph, SymbolicReach};
use si_serve::json::{self, Value};
use si_serve::{ArtifactStore, JobQueue, Service};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The failpoint registry is process-global, so the injection tests must
/// not interleave: each takes this lock for its whole body. `relock`
/// because a failing test poisons it for every later one.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    relock(&LOCK)
}

#[test]
fn shard_worker_panic_becomes_structured_error() {
    let _guard = serial();
    let stg = si_stg::generators::clatch(6);
    let net = stg.net();
    // Every shard of the explorer must convert a dying worker into the
    // structured error naming it, with the process intact.
    for shard in 0..4u64 {
        reset();
        arm("shard::worker", Some(shard), FaultAction::Panic);
        let err = ReachabilityGraph::build_with(net, ReachOptions::with_cap(1_000_000).shards(4))
            .unwrap_err();
        match err {
            ReachError::WorkerPanicked { shard: s, message } => {
                assert_eq!(s, shard as usize);
                assert!(message.contains("injected fault"), "got: {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(armed_count(), 0, "the armed fault must have fired");
    }
    // The pool is reusable after the panic: a clean rebuild succeeds and
    // matches the sequential engine.
    let seq = ReachabilityGraph::build(net, 1_000_000).unwrap();
    let par =
        ReachabilityGraph::build_with(net, ReachOptions::with_cap(1_000_000).shards(4)).unwrap();
    assert_eq!(seq.state_count(), par.state_count());
    assert_eq!(seq.edge_count(), par.edge_count());
    reset();
}

#[test]
fn first_worker_panic_wins_and_only_one_is_reported() {
    let _guard = serial();
    reset();
    let stg = si_stg::generators::clatch(6);
    let net = stg.net();
    arm("shard::worker", Some(1), FaultAction::Panic);
    arm("shard::worker", Some(2), FaultAction::Panic);
    let err = ReachabilityGraph::build_with(net, ReachOptions::with_cap(1_000_000).shards(4))
        .unwrap_err();
    match err {
        ReachError::WorkerPanicked { shard, .. } => {
            assert!(
                shard == 1 || shard == 2,
                "reported shard {shard} was never armed"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    reset();
}

#[test]
fn flush_stall_does_not_deadlock_and_the_sealed_graph_is_identical() {
    let _guard = serial();
    reset();
    let stg = si_stg::generators::clatch(6);
    let net = stg.net();
    // Delay one cross-shard publish: the in-flight counter must keep the
    // receiver spinning until the batch lands, and the canonical seal must
    // still reproduce the sequential graph bit for bit.
    arm(
        "shard::flush",
        None,
        FaultAction::Stall(Duration::from_millis(50)),
    );
    let par =
        ReachabilityGraph::build_with(net, ReachOptions::with_cap(1_000_000).shards(4)).unwrap();
    let seq = ReachabilityGraph::build(net, 1_000_000).unwrap();
    assert_eq!(seq.state_count(), par.state_count());
    assert_eq!(seq.edge_count(), par.edge_count());
    assert_eq!(armed_count(), 0, "the stall must have fired");
    reset();
}

#[test]
fn injected_cap_burst_degrades_into_the_ordinary_cap_verdict() {
    let _guard = serial();
    reset();
    let stg = si_stg::generators::clatch(6);
    let net = stg.net();
    // Simulate the global state counter bursting at the 4th interned
    // state (value = count before the add): the run winds down exactly
    // like a genuine cap hit, not a crash.
    arm("shard::accept", Some(3), FaultAction::Trigger);
    let err = ReachabilityGraph::build_with(net, ReachOptions::with_cap(1_000_000).shards(4))
        .unwrap_err();
    assert!(
        matches!(err, ReachError::StateCapExceeded { .. }),
        "expected StateCapExceeded, got {err:?}"
    );
    assert_eq!(armed_count(), 0, "the trigger must have fired");
    // And the burst leaves no residue: the next build is exhaustive.
    let rg =
        ReachabilityGraph::build_with(net, ReachOptions::with_cap(1_000_000).shards(4)).unwrap();
    assert_eq!(
        rg.state_count(),
        ReachabilityGraph::build(net, 1_000_000)
            .unwrap()
            .state_count()
    );
    reset();
}

#[test]
fn protocol_step_panic_surfaces_without_poisoning_the_pool() {
    let _guard = serial();
    reset();
    let sys = si_proto::dining(6);
    // Kill the first successor expansion a shard worker performs: the
    // deadlock checker must hand back the structured worker error, not
    // tear the process down.
    arm("proto::step", None, FaultAction::Panic);
    let mut reach = ReachOptions::with_cap(1_000_000);
    reach.shards = 4;
    let si_proto::ProtoError::WorkerPanicked { shard, message } =
        si_proto::check_deadlock_with(&sys, reach).unwrap_err();
    assert!(shard < 4, "reported shard {shard} out of range");
    assert!(message.contains("injected fault"), "got: {message}");
    assert_eq!(armed_count(), 0, "the armed fault must have fired");
    // The pool is reusable after the casualty: the clean sharded rerun
    // reproduces the sequential report — same deadlock, same witness
    // target, same state count.
    let mut reach = ReachOptions::with_cap(1_000_000);
    reach.shards = 4;
    let par = si_proto::check_deadlock_with(&sys, reach).unwrap();
    let seq = si_proto::check_deadlock(&sys).unwrap();
    assert_eq!(par.violations, seq.violations);
    assert_eq!(par.states_explored, seq.states_explored);
    assert!(!par.is_ok(), "dining(6) deadlocks");
    reset();
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
    let outcome = si_csc::resolve(&stg, &opts);
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
