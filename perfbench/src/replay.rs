//! The traced replay: the pipeline re-composed from the public entry points
//! of each layer, in the order `Session` composes them, with a span around
//! every layer call.
//!
//! The replay exists to attribute time; its outputs must be bit-identical
//! to the untraced `Session` run, and the caller treats any difference as a
//! failed operation. `learn` mirrors `SequentialLearner::learn_with_threads`
//! and `atpg_serial` mirrors the single-thread `AtpgEngine` run. A threads-2
//! ATPG run is replayed as one `par.atpg` span around `AtpgEngine::advance`,
//! because its speculative waves are internal to the engine.

use crate::trace::Tracer;
use sla_atpg::{
    AtpgEngine, AtpgOptions, AtpgRun, FaultStatus, GenOutcome, LearnedData, LiteralAdjacency,
    TestGenerator,
};
use sla_core::classes::{clock_classes, ClockClass};
use sla_core::single_node::STEMS_PER_BATCH;
use sla_core::{
    multi_node, single_node, ImplicationDb, LearnOptions, LearnResult, LearnStats, TieKind,
    TiedGate,
};
use sla_netlist::levelize::levelize;
use sla_netlist::stems::fanout_stems;
use sla_netlist::{Netlist, NetlistError, NodeId};
use sla_sim::{find_equivalences, Fault, FaultSimulator, InjectionSim, SimOptions};
use std::collections::BTreeMap;
use std::time::Duration;

/// Deterministic work counters of the learning layers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LearnCounts {
    /// Stems injected by single-node learning.
    pub stems: u64,
    /// Packed forward passes of single-node learning.
    pub packed_passes: u64,
    /// Multiple-node targets simulated.
    pub targets: u64,
    /// Ties found by multiple-node learning.
    pub multi_ties: u64,
    /// Relations offered to `ImplicationDb::add`.
    pub db_offered: u64,
    /// Relations the database accepted as new.
    pub db_accepted: u64,
    /// Cross-frame relations before export.
    pub cross_in: u64,
    /// Cross-frame relations after export (sorted, deduplicated).
    pub cross_out: u64,
    /// Learning work units spent (stems plus targets).
    pub work_units: u64,
}

/// Deterministic work counters of the ATPG layers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtpgCounts {
    /// Edges of the compiled implication adjacency.
    pub adjacency_edges: u64,
    /// Faults proved untestable by the tie shortcut.
    pub tie_untestable: u64,
    /// `TestGenerator::generate` calls.
    pub search_calls: u64,
    /// Backtracks of those searches.
    pub backtracks: u64,
    /// Decisions of those searches.
    pub decisions: u64,
    /// Searches that ended detected or untestable.
    pub resolved: u64,
    /// `FaultSimulator::detected_faults` calls.
    pub fsim_calls: u64,
    /// Faults simulated by those calls.
    pub fsim_simulated: u64,
    /// Faults those calls dropped.
    pub fsim_dropped: u64,
}

/// Replays `SequentialLearner::learn_with_threads` followed by the export
/// to `LearnedData`, as `Session::learn` does.
pub fn learn(
    tr: &mut Tracer,
    netlist: &Netlist,
    config: &LearnOptions,
    threads: usize,
    counts: &mut LearnCounts,
) -> Result<LearnedData, NetlistError> {
    let stems = fanout_stems(netlist);
    let equivalences = if config.gate_equivalence {
        let classes = tr.span("sim.equiv", || {
            find_equivalences(netlist, &config.equiv_config)
        })?;
        Some(classes).filter(|c| !c.is_empty())
    } else {
        None
    };
    let classes: Vec<Option<ClockClass>> = if config.partition_by_clock_class {
        let cc = clock_classes(netlist);
        if cc.len() <= 1 {
            vec![None]
        } else {
            cc.into_iter().map(Some).collect()
        }
    } else {
        vec![None]
    };
    let options = SimOptions {
        max_frames: config.max_frames,
        stop_on_repeat: true,
        respect_seq_rules: config.respect_seq_rules,
    };

    let mut db = ImplicationDb::new();
    let mut cross_frame = Vec::new();
    let mut tied: BTreeMap<NodeId, TiedGate> = BTreeMap::new();
    let budget = config.budget;
    let mut spent = 0u64;
    for class in &classes {
        let mask: Option<Vec<bool>> = class.as_ref().map(|c| c.activation_mask(netlist));
        let mut sim = InjectionSim::new(netlist)?;
        if let Some(eq) = &equivalences {
            sim.set_equivalences(eq.clone());
        }
        sim.set_active_sequential(mask.clone());
        sim.set_tied(tied.values().map(|t| (t.node, t.value)).collect());
        let mut class_stems: Vec<NodeId> = stems
            .iter()
            .copied()
            .filter(|&s| {
                !netlist.node(s).is_sequential() || mask.as_ref().is_none_or(|m| m[s.index()])
            })
            .collect();
        let cap = usize::try_from(budget.remaining(spent)).unwrap_or(usize::MAX);
        class_stems.truncate(cap);
        spent += class_stems.len() as u64;
        counts.stems += class_stems.len() as u64;
        counts.packed_passes += class_stems.len().div_ceil(STEMS_PER_BATCH) as u64;

        let single = tr.span("core.single_node", || {
            single_node::run_sharded(
                &sim,
                &class_stems,
                &options,
                mask.as_deref(),
                config.learn_cross_frame,
                threads,
            )
        });
        tr.span("core.db", || {
            add_all(&mut db, single.implications, counts);
        });
        cross_frame.extend(single.cross_frame);
        for tie in single.ties {
            record_tie(&mut tied, tie);
        }
        sim.set_tied(tied.values().map(|t| (t.node, t.value)).collect());

        if config.multiple_node {
            let remaining = budget.remaining(spent);
            if remaining == 0 {
                continue;
            }
            let target_cap = if budget.is_unlimited() {
                config.max_multi_node_targets
            } else {
                let r = usize::try_from(remaining).unwrap_or(usize::MAX);
                if config.max_multi_node_targets == 0 {
                    r
                } else {
                    config.max_multi_node_targets.min(r)
                }
            };
            let multi = tr.span("core.multi_node", || {
                multi_node::run_sharded(
                    &mut sim,
                    &single.support,
                    &options,
                    mask.as_deref(),
                    target_cap,
                    config.learn_cross_frame,
                    threads,
                )
            });
            spent += multi.targets_processed as u64;
            counts.targets += multi.targets_processed as u64;
            counts.multi_ties += multi.ties.len() as u64;
            tr.span("core.db", || {
                add_all(&mut db, multi.implications, counts);
            });
            cross_frame.extend(multi.cross_frame);
            for tie in multi.ties {
                record_tie(&mut tied, tie);
            }
        }
    }
    if config.closure_limit > 0 {
        tr.span("core.db", || db.transitive_closure(config.closure_limit));
    }
    let mut tied: Vec<TiedGate> = tied.into_values().collect();
    tied.sort_by_key(|t| t.node);
    counts.cross_in += cross_frame.len() as u64;
    counts.work_units += spent;
    let result = LearnResult {
        implications: db,
        cross_frame,
        tied,
        stats: LearnStats::default(),
    };
    let learned = tr.span("atpg.export", || LearnedData::from_learn_result(&result));
    counts.cross_out += learned.cross_frame().len() as u64;
    Ok(learned)
}

fn add_all(
    db: &mut ImplicationDb,
    relations: Vec<(sla_core::Implication, bool)>,
    c: &mut LearnCounts,
) {
    for (imp, sequential) in relations {
        c.db_offered += 1;
        if db.add(imp, sequential) {
            c.db_accepted += 1;
        }
    }
}

/// The learner's tie merge: keep the first proof of a node, upgraded to
/// combinational when a later proof is combinational.
fn record_tie(tied: &mut BTreeMap<NodeId, TiedGate>, tie: TiedGate) {
    match tied.get_mut(&tie.node) {
        Some(existing) => {
            if existing.value == tie.value && tie.kind == TieKind::Combinational {
                existing.kind = TieKind::Combinational;
            }
        }
        None => {
            tied.insert(tie.node, tie);
        }
    }
}

/// A replayed ATPG run plus the duration of every per-fault search.
pub struct AtpgReplay {
    /// The run, in `AtpgRun` form (wall time left at zero).
    pub run: AtpgRun,
    /// Per-fault search durations, in search order.
    pub searches: Vec<Duration>,
}

/// Replays the single-thread `AtpgEngine` run `Session::atpg` performs:
/// levelization, the tie shortcut, adjacency compilation, then the serial
/// search loop with fault dropping by fault simulation.
pub fn atpg_serial(
    tr: &mut Tracer,
    netlist: &Netlist,
    learned: &LearnedData,
    options: &AtpgOptions,
    faults: &[Fault],
    counts: &mut AtpgCounts,
) -> Result<AtpgReplay, NetlistError> {
    let (levels, engine) = tr.span("netlist.levelize", || -> Result<_, NetlistError> {
        let levels = levelize(netlist)?;
        let engine = AtpgEngine::new(netlist, *options)?;
        Ok((levels, engine))
    })?;
    let engine = engine.with_learned(learned.clone());
    let progress = tr.span("atpg.tie", || engine.start(faults));
    counts.tie_untestable += progress.untestable_from_ties() as u64;
    let generator = tr.span("atpg.adjacency", || {
        TestGenerator::with_levels(netlist, levels.clone(), *options, learned)
    });
    let fault_sim = FaultSimulator::with_levels(netlist, levels);

    let mut status: Vec<Option<FaultStatus>> = progress.status().to_vec();
    let mut run = AtpgRun::default();
    let mut searches = Vec::new();
    for i in 0..faults.len() {
        if status[i].is_some() {
            continue;
        }
        if options.budget.exhausted(run.stats.budget_spent) {
            break;
        }
        let open = tr.enter("atpg.search");
        let result = generator.generate(&faults[i]);
        searches.push(tr.exit(open));
        counts.search_calls += 1;
        counts.backtracks += result.backtracks as u64;
        counts.decisions += result.decisions as u64;
        run.stats.backtracks += result.backtracks;
        run.stats.decisions += result.decisions;
        run.stats.budget_spent += (result.backtracks + result.decisions) as u64;
        match result.outcome {
            GenOutcome::Detected(sequence) => {
                counts.resolved += 1;
                status[i] = Some(FaultStatus::Detected);
                if options.fault_dropping {
                    let remaining: Vec<usize> = (i + 1..faults.len())
                        .filter(|&j| status[j].is_none())
                        .collect();
                    let targets: Vec<Fault> = remaining.iter().map(|&j| faults[j]).collect();
                    let hit = tr.span("sim.fault_sim", || {
                        fault_sim.detected_faults(&targets, &sequence)
                    });
                    counts.fsim_calls += 1;
                    counts.fsim_simulated += targets.len() as u64;
                    for (&j, &detected) in remaining.iter().zip(&hit) {
                        if detected {
                            counts.fsim_dropped += 1;
                            status[j] = Some(FaultStatus::Detected);
                        }
                    }
                }
                run.stats.test_vectors += sequence.len();
                run.sequences.push(sequence);
            }
            GenOutcome::Untestable => {
                counts.resolved += 1;
                status[i] = Some(FaultStatus::Untestable);
            }
            GenOutcome::Aborted => {
                status[i] = Some(FaultStatus::Aborted(sla_atpg::AbortReason::Limit));
            }
        }
    }
    run.status = status
        .into_iter()
        .map(|s| s.unwrap_or(FaultStatus::Aborted(sla_atpg::AbortReason::Budget)))
        .collect();
    run.stats.total_faults = run.status.len();
    run.stats.untestable_from_ties = progress.untestable_from_ties();
    run.stats.sequences = run.sequences.len();
    for s in &run.status {
        match s {
            FaultStatus::Detected => run.stats.detected += 1,
            FaultStatus::Untestable => run.stats.untestable += 1,
            FaultStatus::Aborted(_) => run.stats.aborted += 1,
        }
    }
    Ok(AtpgReplay { run, searches })
}

/// Edges of the implication adjacency `TestGenerator::with_levels` compiles
/// from `learned` (none when the options do not use learning). The generator
/// keeps its adjacency private, so this builds a second one; call it outside
/// every span.
pub fn adjacency_edges(netlist: &Netlist, learned: &LearnedData, options: &AtpgOptions) -> u64 {
    if !options.learning.uses_learning() {
        return 0;
    }
    LiteralAdjacency::build_with_cross(
        learned.implications(),
        learned.cross_frame(),
        netlist.num_nodes(),
    )
    .num_edges() as u64
}

/// Replays a multi-threaded `AtpgEngine` run: the tie shortcut, then the
/// engine's speculative waves as one `par.atpg` span.
pub fn atpg_parallel(
    tr: &mut Tracer,
    netlist: &Netlist,
    learned: &LearnedData,
    options: &AtpgOptions,
    faults: &[Fault],
    threads: usize,
) -> Result<AtpgRun, NetlistError> {
    let engine = tr.span("netlist.levelize", || AtpgEngine::new(netlist, *options))?;
    let engine = engine.with_learned(learned.clone());
    let mut progress = tr.span("atpg.tie", || engine.start(faults));
    tr.span("par.atpg", || {
        engine.advance(faults, threads, &mut progress, None);
    });
    Ok(engine.finish(progress))
}

impl LearnCounts {
    /// Adds `other`'s counters to these.
    pub fn add(&mut self, other: &LearnCounts) {
        self.stems += other.stems;
        self.packed_passes += other.packed_passes;
        self.targets += other.targets;
        self.multi_ties += other.multi_ties;
        self.db_offered += other.db_offered;
        self.db_accepted += other.db_accepted;
        self.cross_in += other.cross_in;
        self.cross_out += other.cross_out;
        self.work_units += other.work_units;
    }
}
