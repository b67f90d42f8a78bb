//! The live telemetry plane's harness-side contract.
//!
//! Three properties the `/watch` endpoint (and any other subscriber)
//! leans on:
//!
//! * events carry strictly increasing, gap-free sequence numbers no
//!   matter how many workers raced to emit them — subscribers resume
//!   from `Last-Event-ID` by arithmetic, not heuristics;
//! * a subscriber that never drains (or disconnected) costs shed
//!   journal entries, never job progress — the run finishes with full
//!   results regardless;
//! * degraded trials surface as structured `trial_failed` events, not
//!   just stderr diagnostics.
//!
//! All of this is operational-plane only: the canonical result
//! envelopes these runs write are exercised elsewhere
//! (`harness_parallelism.rs`) and contain none of these events.

use polite_wifi::harness::progress::set_thread_progress_sink;
use polite_wifi::harness::{ChannelProgress, Experiment, ProgressSink, RunArgs};
use std::sync::Arc;

fn run_with_channel_sink(args: RunArgs, capacity: usize) -> (Arc<ChannelProgress>, usize) {
    let sink = Arc::new(ChannelProgress::new(capacity));
    let prev = set_thread_progress_sink(Some(Arc::clone(&sink) as Arc<dyn ProgressSink>));
    let mut exp = Experiment::start_with("E0: telemetry", "none", args);
    let results = exp.run_trials(|ctx| ctx.index as u64);
    set_thread_progress_sink(prev);
    let completed = results.iter().filter(|r| r.is_some()).count();
    (sink, completed)
}

#[test]
fn events_are_strictly_sequence_ordered_across_worker_counts() {
    for workers in [1usize, 4, 8] {
        let args = RunArgs {
            trials: 24,
            workers,
            seed: 7,
            ..RunArgs::default()
        };
        let (sink, completed) = run_with_channel_sink(args, 4096);
        assert_eq!(completed, 24);

        let delivery = sink.hub().snapshot_since(0);
        assert_eq!(delivery.first_seq, 0, "nothing shed at this capacity");
        let seqs: Vec<u64> = delivery.events.iter().map(|e| e.seq).collect();
        let expected: Vec<u64> = (0..delivery.events.len() as u64).collect();
        assert_eq!(
            seqs, expected,
            "sequence numbers must be gap-free and strictly increasing at {workers} workers"
        );

        let count_of = |kind: &str| delivery.events.iter().filter(|e| e.kind == kind).count();
        assert_eq!(count_of("trial_started"), 24, "at {workers} workers");
        assert_eq!(count_of("trial_finished"), 24, "at {workers} workers");
        assert_eq!(sink.trials_done(), 24);
        assert_eq!(sink.trials_total(), 24);
        // The final completion report counts all trials, whatever the
        // interleaving.
        let last_done = delivery
            .events
            .iter()
            .rev()
            .find(|e| e.kind == "trial_finished")
            .and_then(|e| e.field("done"));
        assert_eq!(last_done, Some(24));
    }
}

#[test]
fn trial_finished_reports_count_up_in_journal_order() {
    // Many short trials on many workers make completions race; the
    // journal must still read done = 1, 2, .., total in order.
    for round in 0..8u64 {
        let args = RunArgs {
            trials: 64,
            workers: 8,
            seed: round,
            ..RunArgs::default()
        };
        let (sink, completed) = run_with_channel_sink(args, 4096);
        assert_eq!(completed, 64);
        let done: Vec<u64> = sink
            .hub()
            .snapshot_since(0)
            .events
            .iter()
            .filter(|e| e.kind == "trial_finished")
            .filter_map(|e| e.field("done"))
            .collect();
        assert_eq!(done, (1..=64).collect::<Vec<u64>>(), "round {round}");
        assert_eq!(sink.trials_done(), 64);
    }
}

#[test]
fn undrained_subscriber_sheds_events_but_never_blocks_the_run() {
    // A 4-event journal with nobody reading: 50 trials emit 100 trial
    // boundary events into it. The run must complete fully — shedding
    // is the journal's problem, not the job's.
    let args = RunArgs {
        trials: 50,
        workers: 4,
        seed: 11,
        ..RunArgs::default()
    };
    let (sink, completed) = run_with_channel_sink(args, 4);
    assert_eq!(completed, 50, "shedding must not cost trial results");
    assert_eq!(sink.hub().published(), 100);
    assert_eq!(sink.hub().shed(), 96);
    // What survives is the newest tail, still gap-free.
    let delivery = sink.hub().snapshot_since(0);
    let seqs: Vec<u64> = delivery.events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![96, 97, 98, 99]);
}

#[test]
fn degraded_trials_surface_as_trial_failed_events() {
    let args = RunArgs {
        trials: 4,
        workers: 2,
        seed: 3,
        inject_trial_panic: Some(2),
        allow_partial: true,
        ..RunArgs::default()
    };
    let (sink, completed) = run_with_channel_sink(args, 256);
    assert_eq!(completed, 3);
    let delivery = sink.hub().snapshot_since(0);
    let failed: Vec<_> = delivery
        .events
        .iter()
        .filter(|e| e.kind == "trial_failed")
        .collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].field("trial"), Some(2));
    assert!(failed[0].detail.contains("injected trial panic"));
}
