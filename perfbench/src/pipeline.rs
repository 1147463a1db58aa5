//! One pass of a workload, untraced through the public `Session` API or
//! traced through the layer-by-layer replay, plus the served request loop.

use crate::check::{LearnedView, RunView, Served};
use crate::inputs::Inputs;
use crate::probe;
use crate::replay::{self, AtpgCounts, LearnCounts};
use crate::serve::{self, Server};
use crate::trace::Tracer;
use sla_atpg::{AtpgRun, FaultStatus};
use sla_netlist::levelize::levelize;
use sla_netlist::parser::parse_bench;
use sla_netlist::wallclock;
use sla_netlist::Netlist;
use sla_sim::Fault;
use sla_store::proto::{self, resolve_faults, Message, Summary};
use sla_store::{CacheOutcome, LearnedStore, Session, StoreKey};
use std::error::Error;
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

/// Errors that end a pass: a stage returned an error instead of output.
pub type Res<T> = Result<T, Box<dyn Error>>;

/// Wall time of each pipeline phase over one pass, summed over designs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// `parse_bench` + `levelize` + `structural_hash`.
    pub ingest: Duration,
    /// `Session::learn` at threads 1.
    pub learn: Duration,
    /// `Session::learn` at threads 2.
    pub learn_t2: Duration,
    /// `Session::atpg` at threads 1.
    pub atpg: Duration,
    /// `Session::atpg` at threads 2.
    pub atpg_t2: Duration,
}

impl PhaseTimes {
    /// Sum of every phase.
    pub fn total(&self) -> Duration {
        self.ingest + self.learn + self.learn_t2 + self.atpg + self.atpg_t2
    }
}

/// The outputs of one design's threads-1 pipeline.
#[derive(Debug, Clone)]
pub struct DesignOutput {
    /// What learning produced.
    pub learned: LearnedView,
    /// What ATPG produced.
    pub run: RunView,
    /// Learning work units `Session::learn` reported.
    pub learn_work_units: u64,
}

/// Ingested designs: the parsed netlists and their resolved fault lists.
pub struct Ingested {
    /// One netlist per design.
    pub netlists: Vec<Netlist>,
    /// One fault list per design.
    pub faults: Vec<Vec<Fault>>,
}

/// Result of one untraced pass.
pub struct SessionPass {
    /// Phase times scaled to the reference probe speed (see `probe`).
    pub times: PhaseTimes,
    /// Phase wall times.
    pub wall: PhaseTimes,
    /// Threads-1 outputs per design.
    pub outputs: Vec<DesignOutput>,
    /// Threads-1 ATPG runs per design (for the audit).
    pub runs: Vec<AtpgRun>,
    /// Sum of `wasted_speculations` over the threads-2 ATPG runs.
    pub wasted: u64,
    /// Output checks made: threads 2 against threads 1, per design.
    pub attempted: u64,
    /// Descriptions of the operations whose outputs failed a check.
    pub failures: Vec<String>,
    /// The ingested designs, kept for the checks that follow the pass.
    pub ingested: Ingested,
}

/// Each phase of a pass repeats over all designs until it has run for at
/// least this long, and its time is the mean per repetition. Phases of a few
/// milliseconds (ingest and learning of the small circuits, where threads 2
/// also pays worker start-up) otherwise swung by a quarter between runs.
const MIN_PHASE: Duration = Duration::from_millis(100);

/// One phase of a pass: its outputs (of the last repetition) and its wall
/// and probe-scaled time per repetition.
struct Phase<T> {
    outputs: Vec<T>,
    wall: Duration,
    scaled: Duration,
}

/// Calls `call` on every item, timing each call and feeding it to `clock`,
/// and repeats over all items until the calls add up to [`MIN_PHASE`].
/// Collecting and dropping outputs is not timed.
fn phase<I, T>(
    clock: &mut probe::Clock,
    items: &[I],
    mut call: impl FnMut(&I) -> Res<T>,
) -> Res<Phase<T>> {
    let mut wall = Duration::ZERO;
    let mut repetitions = 0u32;
    loop {
        let mut outputs = Vec::with_capacity(items.len());
        for item in items {
            let start = wallclock::now();
            let out = call(item)?;
            let took = start.elapsed();
            outputs.push(out);
            wall += took;
            clock.add(took);
        }
        repetitions += 1;
        if wall >= MIN_PHASE {
            return Ok(Phase {
                outputs,
                wall: wall / repetitions,
                scaled: clock.take() / repetitions,
            });
        }
    }
}

/// Runs every design through ingest, then `Session` learning and ATPG at
/// threads 1 and 2, phase by phase, with host-speed probes between the
/// calls. Threads-2 outputs must equal threads-1 outputs.
pub fn session_pass(inputs: &Inputs) -> Res<SessionPass> {
    let designs = &inputs.designs;
    let mut clock = probe::Clock::start();
    let ingest = phase(&mut clock, designs, |design| {
        let netlist = parse_bench(&design.name, &design.bench)?;
        black_box(levelize(&netlist)?);
        black_box(netlist.structural_hash());
        Ok(netlist)
    })?;
    let netlists = &ingest.outputs;
    let faults = designs
        .iter()
        .zip(netlists)
        .map(|(d, n)| resolve_faults(n, &d.faults))
        .collect::<Result<Vec<_>, _>>()?;
    let jobs: Vec<usize> = (0..designs.len()).collect();
    let learn_all = |clock: &mut probe::Clock, threads: usize| {
        phase(clock, &jobs, |&i| {
            let mut session = Session::open(&netlists[i]).with_threads(threads);
            let work_units = session.learn(&inputs.learn)?.work_units;
            Ok((session, work_units))
        })
    };
    let learn = learn_all(&mut clock, 1)?;
    let learn_t2 = learn_all(&mut clock, 2)?;
    let atpg_all = |clock: &mut probe::Clock, sessions: &[(Session, u64)]| {
        phase(clock, &jobs, |&i| {
            Ok(sessions[i].0.atpg(&inputs.atpg, &faults[i])?)
        })
    };
    let atpg = atpg_all(&mut clock, &learn.outputs)?;
    let atpg_t2 = atpg_all(&mut clock, &learn_t2.outputs)?;
    let (s1, s2) = (&learn.outputs, &learn_t2.outputs);
    let (r1, r2) = (&atpg.outputs, &atpg_t2.outputs);

    let mut failures = Vec::new();
    let mut outputs = Vec::new();
    for (i, design) in designs.iter().enumerate() {
        let learned = LearnedView::of(s1[i].0.learned());
        if LearnedView::of(s2[i].0.learned()) != learned {
            failures.push(format!(
                "{}: threads-2 learning differs from threads 1",
                design.name
            ));
        }
        let run = RunView::of(&r1[i]);
        if RunView::of(&r2[i]) != run {
            failures.push(format!(
                "{}: threads-2 ATPG differs from threads 1",
                design.name
            ));
        }
        outputs.push(DesignOutput {
            learned,
            run,
            learn_work_units: s1[i].1,
        });
    }
    let wasted = r2.iter().map(|r| r.stats.wasted_speculations as u64).sum();
    let times = PhaseTimes {
        ingest: ingest.scaled,
        learn: learn.scaled,
        learn_t2: learn_t2.scaled,
        atpg: atpg.scaled,
        atpg_t2: atpg_t2.scaled,
    };
    let wall = PhaseTimes {
        ingest: ingest.wall,
        learn: learn.wall,
        learn_t2: learn_t2.wall,
        atpg: atpg.wall,
        atpg_t2: atpg_t2.wall,
    };
    drop((learn, learn_t2));
    Ok(SessionPass {
        times,
        wall,
        outputs,
        runs: atpg.outputs,
        wasted,
        attempted: 2 * designs.len() as u64,
        failures,
        ingested: Ingested {
            netlists: ingest.outputs,
            faults,
        },
    })
}

/// Per-pass counters of the traced replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Bytes handed to `parse_bench`.
    pub parse_bytes: u64,
    /// Threads-1 learning counters.
    pub learn: LearnCounts,
    /// Threads-1 ATPG counters.
    pub atpg: AtpgCounts,
    /// `LearnedStore::lookup` calls and hits.
    pub lookups: u64,
    /// Lookups that found the key.
    pub hits: u64,
    /// Bytes of entry files written by `LearnedStore::insert`.
    pub insert_bytes: u64,
    /// Inserts that evicted an entry.
    pub evictions: u64,
    /// Bytes of protocol frames encoded.
    pub proto_bytes: u64,
}

/// Result of one traced pass.
pub struct TracedPass {
    /// The spans.
    pub tracer: Tracer,
    /// Deterministic counters.
    pub counts: TraceCounts,
    /// Per-fault search durations of the threads-1 replay.
    pub searches: Vec<Duration>,
    /// Wall time of each replayed request.
    pub requests: Vec<Duration>,
    /// Operations replayed.
    pub attempted: u64,
    /// Replayed operations whose outputs differ from the untraced run.
    pub failures: Vec<String>,
}

/// Replays `pass`'s work layer by layer under a tracer and compares every
/// output with the untraced pass. `served` holds the untraced served streams
/// when the workload serves; the replay then also replays every request
/// in-process against a fresh store in `store_dir`.
pub fn traced_pass(
    inputs: &Inputs,
    reference: &[DesignOutput],
    served: &[Served],
    store_dir: &Path,
) -> Res<TracedPass> {
    let mut out = TracedPass {
        tracer: Tracer::new(),
        counts: TraceCounts::default(),
        searches: Vec::new(),
        requests: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    let tr = &mut out.tracer;
    let mut design_edges = Vec::with_capacity(inputs.designs.len());
    for (i, design) in inputs.designs.iter().enumerate() {
        tr.set_request(i as u64);
        let op = tr.enter("op.ingest");
        let netlist = tr.span("netlist.parse", || parse_bench(&design.name, &design.bench))?;
        tr.span("netlist.levelize", || levelize(&netlist))?;
        black_box(tr.span("netlist.hash", || netlist.structural_hash()));
        let faults = resolve_faults(&netlist, &design.faults)?;
        tr.exit(op);
        out.counts.parse_bytes += design.bench.len() as u64;

        let op = tr.enter("op.learn");
        let mut t1_counts = LearnCounts::default();
        let learned = replay::learn(tr, &netlist, &inputs.learn, 1, &mut t1_counts)?;
        tr.exit(op);
        let op = tr.enter("op.learn_t2");
        let mut t2_counts = LearnCounts::default();
        let learned_t2 = replay::learn(tr, &netlist, &inputs.learn, 2, &mut t2_counts)?;
        tr.exit(op);
        out.counts.learn.add(&t1_counts);
        let op = tr.enter("op.atpg");
        let serial = replay::atpg_serial(
            tr,
            &netlist,
            &learned,
            &inputs.atpg,
            &faults,
            &mut out.counts.atpg,
        )?;
        tr.exit(op);
        let op = tr.enter("op.atpg_t2");
        let parallel = replay::atpg_parallel(tr, &netlist, &learned_t2, &inputs.atpg, &faults, 2)?;
        tr.exit(op);
        let edges = replay::adjacency_edges(&netlist, &learned, &inputs.atpg);
        out.counts.atpg.adjacency_edges += edges;
        design_edges.push(edges);
        out.attempted += 5;
        out.searches.extend(serial.searches);

        let expect = &reference[i];
        let name = &design.name;
        if t1_counts != t2_counts {
            out.failures.push(format!(
                "{name}: learning counters differ between threads 1 and 2"
            ));
        }
        if LearnedView::of(&learned) != expect.learned {
            out.failures
                .push(format!("{name}: replayed learning differs"));
        }
        if LearnedView::of(&learned_t2) != expect.learned {
            out.failures
                .push(format!("{name}: replayed threads-2 learning differs"));
        }
        if RunView::of(&serial.run) != expect.run {
            out.failures.push(format!("{name}: replayed ATPG differs"));
        }
        if RunView::of(&parallel) != expect.run {
            out.failures
                .push(format!("{name}: replayed threads-2 ATPG differs"));
        }
    }
    if !inputs.schedule.is_empty() {
        replay_requests(inputs, served, &design_edges, store_dir, &mut out)?;
    }
    Ok(out)
}

/// Replays every scheduled request in-process, as the server runs it, and
/// compares the verdict stream and summary with what the server sent.
/// `design_edges` holds each design's adjacency edge count, which every
/// request for the design compiles again.
fn replay_requests(
    inputs: &Inputs,
    served: &[Served],
    design_edges: &[u64],
    store_dir: &Path,
    out: &mut TracedPass,
) -> Res<()> {
    let _ = std::fs::remove_dir_all(store_dir);
    let mut store = LearnedStore::open(store_dir, inputs.store_capacity)?;
    let tr = &mut out.tracer;
    for (k, &d) in inputs.schedule.iter().enumerate() {
        tr.set_request((inputs.designs.len() + k) as u64);
        let message = serve::request(inputs, d);
        let op = tr.enter("op.request");
        let bytes = tr.span("store.proto.encode", || proto::encode_message(&message));
        out.counts.proto_bytes += bytes.len() as u64;
        let decoded = tr.span("store.proto.decode", || proto::decode_message(&bytes));
        let Ok(Message::Request(request)) = decoded else {
            tr.exit(op);
            out.failures
                .push(format!("request {k}: frame did not decode"));
            continue;
        };
        let netlist = tr.span("netlist.parse", || {
            parse_bench(&request.name, &request.bench)
        })?;
        out.counts.parse_bytes += request.bench.len() as u64;
        let faults = resolve_faults(&netlist, &request.faults)?;
        let learn = request.learn.clone().unwrap_or_default();
        let key = tr.span("netlist.hash", || StoreKey::new(&netlist, &learn));
        let found = tr.span("store.lookup", || store.lookup(&key));
        out.counts.lookups += 1;
        let (learned, cache, work_units) = match found {
            Ok(Some(learned)) => {
                out.counts.hits += 1;
                (learned, CacheOutcome::Hit, 0)
            }
            _ => {
                let before = out.counts.learn.work_units;
                let learned = replay::learn(tr, &netlist, &learn, 1, &mut out.counts.learn)?;
                let evicts = store.len() >= store.capacity() && !store.contains(&key);
                let inserted = tr.span("store.insert", || store.insert(key, &learned));
                if inserted.is_err() {
                    out.failures
                        .push(format!("request {k}: store insert failed"));
                }
                out.counts.evictions += u64::from(evicts);
                out.counts.insert_bytes +=
                    std::fs::metadata(store.dir().join(format!("{key}.slal")))
                        .map_or(0, |m| m.len());
                (
                    learned,
                    CacheOutcome::Miss,
                    out.counts.learn.work_units - before,
                )
            }
        };
        let replayed = replay::atpg_serial(
            tr,
            &netlist,
            &learned,
            &request.atpg,
            &faults,
            &mut out.counts.atpg,
        )?;
        let run = &replayed.run;
        let summary = Summary {
            total_faults: run.stats.total_faults as u32,
            detected: run.stats.detected as u32,
            untestable: run.stats.untestable as u32,
            aborted: run.stats.aborted as u32,
            backtracks: run.stats.backtracks as u64,
            decisions: run.stats.decisions as u64,
            sequences: run.stats.sequences as u32,
            test_vectors: run.stats.test_vectors as u64,
            budget_spent: run.stats.budget_spent,
            cache,
            learn_work_units: work_units,
        };
        let mut frames: Vec<Message> = run
            .status
            .iter()
            .enumerate()
            .map(|(i, &status)| Message::Verdict {
                index: i as u32,
                status,
            })
            .collect();
        frames.push(Message::Done(summary));
        let encoded: Vec<Vec<u8>> = tr.span("store.proto.encode", || {
            frames.iter().map(proto::encode_message).collect()
        });
        out.counts.proto_bytes += encoded.iter().map(|f| f.len() as u64).sum::<u64>();
        let decoded: Vec<Message> = tr.span("store.proto.decode", || {
            encoded
                .iter()
                .filter_map(|f| proto::decode_message(f).ok())
                .collect()
        });
        out.requests.push(tr.exit(op));
        out.counts.atpg.adjacency_edges += design_edges.get(d).copied().unwrap_or(0);
        out.attempted += 1;
        let stream = Served {
            verdicts: run
                .status
                .iter()
                .enumerate()
                .map(|(i, &s)| (i as u32, s))
                .collect::<Vec<(u32, FaultStatus)>>(),
            summary,
        };
        if decoded != frames || served.get(k) != Some(&stream) {
            out.failures.push(format!(
                "request {k}: replay differs from the served stream"
            ));
        }
    }
    Ok(())
}

/// Result of one served pass.
pub struct ServedPass {
    /// Per-request round-trip times.
    pub latencies: Vec<Duration>,
    /// The streams, in schedule order.
    pub streams: Vec<Served>,
    /// Wall time of the whole request loop.
    pub elapsed: Duration,
    /// Peak resident set of the server child, KiB.
    pub server_rss_kib: Option<u64>,
}

/// Sends the schedule over one connection to a fresh server child.
pub fn served_pass(inputs: &Inputs, work: &Path) -> Result<ServedPass, String> {
    let server = Server::spawn(
        &work.join("store"),
        inputs.store_capacity,
        &work.join("server.log"),
    )?;
    let mut client = server.connect()?;
    let messages: Vec<Message> = (0..inputs.designs.len())
        .map(|d| serve::request(inputs, d))
        .collect();
    let mut latencies = Vec::with_capacity(inputs.schedule.len());
    let mut streams = Vec::with_capacity(inputs.schedule.len());
    let loop_start = wallclock::now();
    for &d in &inputs.schedule {
        let start = wallclock::now();
        let served = client.round_trip(&messages[d])?;
        latencies.push(start.elapsed());
        streams.push(served);
    }
    let elapsed = loop_start.elapsed();
    let server_rss_kib = server.peak_rss_kib();
    server.shutdown(client)?;
    Ok(ServedPass {
        latencies,
        streams,
        elapsed,
        server_rss_kib,
    })
}

/// Checks a served pass against the in-process outputs: every stream must
/// carry the in-process verdicts and counters, warm hits included, and the
/// cache outcome must follow the store's FIFO policy. Returns one message
/// per failing request.
pub fn check_served(
    inputs: &Inputs,
    reference: &[DesignOutput],
    streams: &[Served],
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut cached: Vec<usize> = Vec::new();
    for (k, (&d, served)) in inputs.schedule.iter().zip(streams).enumerate() {
        let hit = cached.contains(&d);
        if !hit {
            cached.push(d);
            if cached.len() > inputs.store_capacity {
                cached.remove(0);
            }
        }
        let expect = &reference[d];
        let verdicts: Vec<(u32, FaultStatus)> = expect
            .run
            .status
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u32, s))
            .collect();
        let s = &served.summary;
        let (bt, dec, vectors, _, budget) = expect.run.counters;
        let counters_match = s.total_faults as usize == expect.run.status.len()
            && s.backtracks == bt as u64
            && s.decisions == dec as u64
            && s.test_vectors == vectors as u64
            && s.budget_spent == budget
            && s.sequences as usize == expect.run.sequences.len();
        let cache_match = if hit {
            s.cache == CacheOutcome::Hit && s.learn_work_units == 0
        } else {
            s.cache == CacheOutcome::Miss && s.learn_work_units == expect.learn_work_units
        };
        if served.verdicts != verdicts || !counters_match || !cache_match {
            failures.push(format!(
                "request {k} ({}): served output differs from in-process",
                inputs.designs[d].name
            ));
        }
    }
    failures
}
