//! Persistent-store integration tests: round trips, corruption fallback and
//! the acceptance pin — a warm-store run is bit-identical to a cold run at
//! `SLA_THREADS ∈ {1, 4}` with zero learning work units on the warm path —
//! and the in-process contract of `Session::atpg_streaming`.

use sla_atpg::{AbortReason, AtpgOptions, AtpgRun, FaultStatus, LearningMode};
use sla_circuits::{s27, table5_circuit, Table5Config};
use sla_core::{LearnOptions, WorkBudget};
use sla_netlist::Netlist;
use sla_sim::collapsed_fault_list;
use sla_snapshot::SnapshotError;
use sla_store::{CacheOutcome, LearnedStore, Session, StoreError, StoreKey};
use std::path::PathBuf;

/// A fresh scratch directory, removed on drop even when the test fails.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("sla-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn learn_options() -> LearnOptions {
    LearnOptions::builder().cross_frame(true).build()
}

fn atpg_options() -> AtpgOptions {
    AtpgOptions::builder()
        .backtrack_limit(100)
        .learning(LearningMode::ForbiddenValue)
        .build()
}

/// Zeroes the documented thread/run-variant diagnostics so runs can be
/// compared bit-for-bit.
fn canonical(mut run: AtpgRun) -> AtpgRun {
    run.stats.cpu = std::time::Duration::ZERO;
    run.stats.wasted_speculations = 0;
    run
}

/// Flattened view of a learned database for equality assertions.
type LearnedParts = (
    Vec<(sla_core::Implication, bool)>,
    Vec<sla_core::CrossImplication>,
    Vec<(sla_netlist::NodeId, bool)>,
);

fn learned_parts(learned: &sla_atpg::LearnedData) -> LearnedParts {
    (
        learned.implications().iter().collect(),
        learned.cross_frame().to_vec(),
        learned.tied().to_vec(),
    )
}

/// The entry file the store keeps for (netlist, options).
fn entry_file(store: &LearnedStore, netlist: &Netlist, options: &LearnOptions) -> PathBuf {
    store
        .dir()
        .join(format!("{}.slal", StoreKey::new(netlist, options)))
}

/// Acceptance pin: cold learn populates the store; a second session hits it,
/// spends zero learning work units and produces a bit-identical ATPG run —
/// at one and four worker threads.
#[test]
fn warm_store_run_is_bit_identical_to_cold() {
    let netlist = table5_circuit(&Table5Config::default());
    let faults = collapsed_fault_list(&netlist);
    for threads in [1usize, 4] {
        let scratch = Scratch::new(&format!("warm-{threads}"));
        let mut store = LearnedStore::open(scratch.path(), 8).expect("open store");

        let mut cold = Session::open(&netlist).with_threads(threads);
        let report = cold
            .learn_cached(&learn_options(), &mut store)
            .expect("cold learning");
        assert_eq!(report.outcome, CacheOutcome::Miss, "first run must miss");
        assert!(report.work_units > 0, "cold run must spend learning work");
        assert!(report.store_error.is_none(), "clean store, no error");
        let cold_parts = learned_parts(cold.learned());
        let cold_run = canonical(cold.atpg(&atpg_options(), &faults).expect("cold ATPG"));

        let mut warm = Session::open(&netlist).with_threads(threads);
        let report = warm
            .learn_cached(&learn_options(), &mut store)
            .expect("warm lookup");
        assert_eq!(report.outcome, CacheOutcome::Hit, "second run must hit");
        assert_eq!(
            report.work_units, 0,
            "a cache hit must spend zero learning work units"
        );
        assert_eq!(
            learned_parts(warm.learned()),
            cold_parts,
            "cached database must round-trip exactly (threads {threads})"
        );
        let warm_run = canonical(warm.atpg(&atpg_options(), &faults).expect("warm ATPG"));
        assert_eq!(
            warm_run, cold_run,
            "warm run must be bit-identical to cold (threads {threads})"
        );
    }
}

/// Runs `Session::atpg_streaming`, checks that the sink saw every fault
/// index exactly once in ascending order with the run's own verdicts, and
/// returns the run.
fn streamed(session: &Session<'_>, options: &AtpgOptions, faults: &[sla_sim::Fault]) -> AtpgRun {
    let mut seen: Vec<(usize, FaultStatus)> = Vec::new();
    let run = session
        .atpg_streaming(options, faults, |i, status| seen.push((i, status)))
        .expect("streaming ATPG");
    let indices: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
    assert_eq!(
        indices,
        (0..faults.len()).collect::<Vec<_>>(),
        "every index exactly once, ascending"
    );
    let statuses: Vec<FaultStatus> = seen.iter().map(|&(_, s)| s).collect();
    assert_eq!(statuses, run.status, "streamed verdicts are the run's");
    run
}

/// Streaming emits each verdict once, in fault order, equal to the batch
/// `Session::atpg` run — at one and two worker threads, and under a work
/// budget whose unsearched `Aborted(Budget)` tail is emitted after the run
/// is finished.
#[test]
fn streaming_emits_every_verdict_once_in_fault_order() {
    let netlist = table5_circuit(&Table5Config::default());
    let faults = collapsed_fault_list(&netlist);
    let mut batches = Vec::new();
    for threads in [1usize, 2] {
        let mut session = Session::open(&netlist).with_threads(threads);
        session.learn(&learn_options()).expect("learning");
        let batch = canonical(session.atpg(&atpg_options(), &faults).expect("batch ATPG"));
        let run = canonical(streamed(&session, &atpg_options(), &faults));
        assert_eq!(run, batch, "threads {threads}");

        let mut budgeted = atpg_options();
        budgeted.budget = WorkBudget::units(batch.stats.budget_spent / 2);
        let run = streamed(&session, &budgeted, &faults);
        assert!(
            run.status
                .contains(&FaultStatus::Aborted(AbortReason::Budget)),
            "half the budget must leave a tail unsearched (threads {threads})"
        );
        let budgeted_batch = session.atpg(&budgeted, &faults).expect("budgeted ATPG");
        assert_eq!(run.status, budgeted_batch.status, "threads {threads}");
        batches.push(batch);
    }
    assert_eq!(batches[0], batches[1], "thread counts agree");
}

/// A corrupted entry is a typed miss: the session falls back to fresh
/// learning, reports the decode error, repopulates the entry, and the next
/// lookup hits again.
#[test]
fn corrupt_entry_falls_back_and_repopulates() {
    let netlist = s27();
    let scratch = Scratch::new("corrupt");
    let mut store = LearnedStore::open(scratch.path(), 8).expect("open store");

    let mut session = Session::open(&netlist).with_threads(1);
    session
        .learn_cached(&learn_options(), &mut store)
        .expect("populate");
    let baseline = learned_parts(session.learned());

    // Flip a payload byte; the checksum must catch it.
    let path = entry_file(&store, &netlist, &learn_options());
    let mut bytes = std::fs::read(&path).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write corrupted entry");

    let mut session = Session::open(&netlist).with_threads(1);
    let report = session
        .learn_cached(&learn_options(), &mut store)
        .expect("fallback learning");
    assert_eq!(
        report.outcome,
        CacheOutcome::Miss,
        "corrupt entry is a miss"
    );
    assert!(report.work_units > 0, "fallback must learn fresh");
    match &report.store_error {
        Some(StoreError::Codec { .. }) => {}
        other => panic!("expected a typed codec error, got {other:?}"),
    }
    assert_eq!(
        learned_parts(session.learned()),
        baseline,
        "fallback must learn the same database"
    );

    let mut session = Session::open(&netlist).with_threads(1);
    let report = session
        .learn_cached(&learn_options(), &mut store)
        .expect("repopulated lookup");
    assert_eq!(
        report.outcome,
        CacheOutcome::Hit,
        "the fallback must have repopulated the entry"
    );
    assert_eq!(learned_parts(session.learned()), baseline);
}

/// An entry written by a future format version is rejected with the typed
/// version error and likewise repopulated.
#[test]
fn version_mismatch_is_typed_and_repopulated() {
    let netlist = s27();
    let scratch = Scratch::new("version");
    let mut store = LearnedStore::open(scratch.path(), 8).expect("open store");

    let mut session = Session::open(&netlist).with_threads(1);
    session
        .learn_cached(&learn_options(), &mut store)
        .expect("populate");

    // Overwrite the entry with a validly-framed file of a future version.
    let mut w = sla_snapshot::codec::Writer::new();
    w.bytes_raw(b"SLAL");
    w.u32(99);
    let path = entry_file(&store, &netlist, &learn_options());
    std::fs::write(&path, w.seal()).expect("write future-version entry");

    let mut session = Session::open(&netlist).with_threads(1);
    let report = session
        .learn_cached(&learn_options(), &mut store)
        .expect("fallback learning");
    assert_eq!(report.outcome, CacheOutcome::Miss);
    match &report.store_error {
        Some(StoreError::Codec {
            source: SnapshotError::UnsupportedVersion { found: 99, .. },
            ..
        }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    let mut session = Session::open(&netlist).with_threads(1);
    let report = session
        .learn_cached(&learn_options(), &mut store)
        .expect("repopulated lookup");
    assert_eq!(report.outcome, CacheOutcome::Hit);
}

/// Insertion order is the eviction order, entries beyond capacity evict the
/// oldest first, and the order survives a close/reopen cycle.
#[test]
fn fifo_eviction_and_reopen_are_deterministic() {
    let netlist = s27();
    let scratch = Scratch::new("fifo");
    let options: Vec<LearnOptions> = [10usize, 20, 30]
        .iter()
        .map(|&frames| LearnOptions::builder().max_frames(frames).build())
        .collect();
    let keys: Vec<StoreKey> = options.iter().map(|o| StoreKey::new(&netlist, o)).collect();

    let mut store = LearnedStore::open(scratch.path(), 2).expect("open store");
    for opts in &options {
        let mut session = Session::open(&netlist).with_threads(1);
        session.learn_cached(opts, &mut store).expect("populate");
    }
    assert_eq!(
        store.keys(),
        &keys[1..],
        "inserting a third entry at capacity 2 must evict the oldest"
    );
    assert!(
        !entry_file(&store, &netlist, &options[0]).exists(),
        "the evicted entry file must be gone"
    );

    let reopened = LearnedStore::open(scratch.path(), 2).expect("reopen store");
    assert_eq!(
        reopened.keys(),
        store.keys(),
        "insertion order must survive reopen"
    );
    assert!(reopened
        .lookup(&keys[2])
        .expect("surviving entry readable")
        .is_some());
    assert!(reopened
        .lookup(&keys[0])
        .expect("evicted key is a clean miss")
        .is_none());
}

/// A corrupt index fails `open` with a typed error and `open_or_reset`
/// recovers to an empty store, reporting why.
#[test]
fn corrupt_index_is_typed_and_resettable() {
    let netlist = s27();
    let scratch = Scratch::new("index");
    let mut store = LearnedStore::open(scratch.path(), 8).expect("open store");
    let mut session = Session::open(&netlist).with_threads(1);
    session
        .learn_cached(&learn_options(), &mut store)
        .expect("populate");

    let index = scratch.path().join("index");
    std::fs::write(&index, b"not an index at all").expect("clobber index");

    match LearnedStore::open(scratch.path(), 8) {
        Err(StoreError::Codec { .. }) => {}
        other => panic!("expected a typed codec error, got {other:?}"),
    }

    let (reset, err) = LearnedStore::open_or_reset(scratch.path(), 8);
    assert!(reset.is_empty(), "reset store starts empty");
    assert!(
        matches!(err, Some(StoreError::Codec { .. })),
        "the reset must report why: {err:?}"
    );
}
