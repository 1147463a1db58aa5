//! Single-node learning (paper §3.1, first half) and tie extraction from stem
//! simulation (paper §3.2, first criterion).
//!
//! For every fanout stem both logic values are injected at frame 0 and
//! simulated forward. With `s=0 → g1=v1 @ t` and `s=1 → g2=v2 @ t`, the
//! contrapositive law gives the same-frame relation `g1=¬v1 → g2=v2`.
//! A node driven to the *same* value at the same frame by both polarities is a
//! tied gate. The per-stem traces also populate the *support map* — for every
//! `(node, value)` the set of stem assignments that produce it — which is the
//! input of the multiple-node learning phase.

use crate::relation::{CrossImplication, Implication, Literal};
use crate::tie::{TieKind, TiedGate};
use sla_netlist::{FastHashMap, Netlist, NodeId};
use sla_sim::{Injection, InjectionSim, Logic3, SimOptions, Trace, TraceRead};
use std::collections::hash_map::Entry;

/// For every `(node, value)`: the list of `(stem, stem_value, frame)` stem
/// assignments whose forward simulation sets the node to that value at that
/// frame offset.
///
/// An insertion-ordered map rather than a bare `FastHashMap` alias: the
/// accumulate path stays O(1) per assignment, while iteration walks keys in
/// first-insertion order. That makes iteration a pure function of the
/// accumulation sequence — the fast-map-iteration discipline — without
/// paying a `BTreeMap` comparison ladder on every simulated assignment.
///
/// Accumulation runs once per simulated binary assignment. On the Table-3
/// circuits at one thread, logging the entries and pushing them into this
/// map takes about as long as the relation pair loop, and each of the two
/// takes less than the packed simulation itself; tie and repeated-frame
/// detection are an order of magnitude smaller.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SupportMap {
    map: FastHashMap<SupportKey, Vec<SupportEntry>>,
    /// Keys in first-insertion order; the only iteration order handed out.
    keys: Vec<SupportKey>,
}

/// A `(node, value)` support-map key.
pub type SupportKey = (NodeId, bool);

/// A `(stem, stem_value, frame)` assignment supporting a key.
pub type SupportEntry = (NodeId, bool, usize);

impl SupportMap {
    /// Appends one support entry for `key`.
    pub fn push(&mut self, key: SupportKey, entry: SupportEntry) {
        match self.map.entry(key) {
            Entry::Occupied(slot) => slot.into_mut().push(entry),
            Entry::Vacant(slot) => {
                self.keys.push(key);
                slot.insert(vec![entry]);
            }
        }
    }

    /// Support entries of `key`, if any.
    pub fn get(&self, key: &SupportKey) -> Option<&Vec<SupportEntry>> {
        self.map.get(key)
    }

    /// Number of distinct `(node, value)` keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no support was accumulated.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates `(key, entries)` in first-insertion key order.
    pub fn iter(&self) -> impl Iterator<Item = (&SupportKey, &Vec<SupportEntry>)> {
        self.keys
            .iter()
            .map(|k| (k, self.map.get(k).expect("key recorded at insertion")))
    }
}

/// Decides whether a relation between two endpoints is worth keeping.
///
/// The paper only extracts relations between pairs of sequential elements and
/// between gates and sequential elements (gate–gate relations follow from
/// those, primary inputs are free variables); with multiple clock domains the
/// sequential endpoints must additionally belong to the active class.
pub fn keep_relation(netlist: &Netlist, class_mask: Option<&[bool]>, a: NodeId, b: NodeId) -> bool {
    if netlist.is_input(a) || netlist.is_input(b) {
        return false;
    }
    let (seq_a, seq_b) = (netlist.is_sequential(a), netlist.is_sequential(b));
    if !(seq_a || seq_b) {
        return false;
    }
    if let Some(mask) = class_mask {
        if seq_a && !mask[a.index()] {
            return false;
        }
        if seq_b && !mask[b.index()] {
            return false;
        }
    }
    true
}

/// Everything learned by one single-node pass over a set of stems.
#[derive(Debug, Default)]
pub struct SingleNodeOutcome {
    /// Same-frame relations with the flag "required sequential analysis".
    pub implications: Vec<(Implication, bool)>,
    /// Optional cross-frame relations (only filled when requested).
    pub cross_frame: Vec<CrossImplication>,
    /// Tied gates found by the same-value-under-both-polarities criterion.
    pub ties: Vec<TiedGate>,
    /// Support map feeding the multiple-node phase.
    pub support: SupportMap,
    /// Number of stems actually simulated.
    pub stems_processed: usize,
}

/// Simulates both polarities of one stem.
pub fn simulate_stem(sim: &InjectionSim<'_>, stem: NodeId, options: &SimOptions) -> (Trace, Trace) {
    let t0 = sim.run(&[Injection::new(stem, false, 0)], options);
    let t1 = sim.run(&[Injection::new(stem, true, 0)], options);
    (t0, t1)
}

/// How many stems fit into one packed forward pass (two polarities per stem,
/// 64 lanes per [`sla_sim::PackedWord`]).
pub const STEMS_PER_BATCH: usize = 32;

/// Simulates both polarities of up to [`STEMS_PER_BATCH`] stems in a single
/// packed forward pass: lane `2i` carries stem `i` injected at 0, lane
/// `2i + 1` at 1, each identical to the matching trace of [`simulate_stem`].
/// The result is read in place via [`sla_sim::PackedTraces::lane`].
pub fn simulate_stem_batch_packed(
    sim: &InjectionSim<'_>,
    stems: &[NodeId],
    options: &SimOptions,
) -> sla_sim::PackedTraces {
    assert!(stems.len() <= STEMS_PER_BATCH);
    let injections: Vec<[Injection; 1]> = stems
        .iter()
        .flat_map(|&stem| {
            [
                [Injection::new(stem, false, 0)],
                [Injection::new(stem, true, 0)],
            ]
        })
        .collect();
    let jobs: Vec<&[Injection]> = injections.iter().map(|j| j.as_slice()).collect();
    sim.run_batch_packed(&jobs, options)
}

/// Marks frames whose `(trace0, trace1)` value pair exactly repeats an
/// earlier frame pair. A repeated pair derives exactly the relations and tie
/// candidates of its first occurrence, so extraction skips it — sequential
/// state oscillation otherwise re-derives the same facts dozens of times.
///
/// Skipping preserves the extracted set: a duplicate of frame 0 would only
/// re-derive frame-0 facts with the weaker "sequential" flag, which the
/// database ignores in favour of the combinational derivation anyway.
fn repeated_frame_pairs<T: TraceRead>(trace0: &T, trace1: &T, frames: usize) -> Vec<bool> {
    // O(frames × nodes) fingerprint prefilter; the exact frame comparison
    // only runs on fingerprint matches, so the all-pairs worst case is
    // reserved for traces that really do repeat.
    let fp: Vec<(u64, u64)> = (0..frames)
        .map(|t| (trace0.frame_fingerprint(t), trace1.frame_fingerprint(t)))
        .collect();
    (0..frames)
        .map(|t| {
            (0..t).any(|earlier| {
                fp[earlier] == fp[t]
                    && trace0.frames_equal(t, earlier)
                    && trace1.frames_equal(t, earlier)
            })
        })
        .collect()
}

/// Extracts tied gates from the two traces of a stem: a node holding the same
/// binary value at the same frame under both polarities can only ever hold
/// that value (combinational tie at frame 0, sequential tie otherwise).
pub fn extract_ties<T: TraceRead>(
    netlist: &Netlist,
    stem: NodeId,
    trace0: &T,
    trace1: &T,
) -> Vec<TiedGate> {
    let frames = trace0.num_frames().min(trace1.num_frames());
    let repeated = repeated_frame_pairs(trace0, trace1, frames);
    let mut seen = vec![false; netlist.num_nodes()];
    extract_ties_skipping(netlist, stem, trace0, trace1, &repeated, &mut seen)
}

/// [`extract_ties`] with a precomputed repeated-frame mask, so one mask can
/// serve both tie and relation extraction of a stem.
///
/// A node tied at several frames is reported once, at its first sighting
/// (earliest frame): `seen` marks the nodes already reported and is all
/// `false` again on return. The first sighting is also the strongest one —
/// frames are walked in ascending order and frame 0 is never marked
/// repeated, so a combinational (frame-0) tie is always seen first and a
/// later sequential sighting never needs to upgrade it.
fn extract_ties_skipping<T: TraceRead>(
    netlist: &Netlist,
    stem: NodeId,
    trace0: &T,
    trace1: &T,
    repeated: &[bool],
    seen: &mut [bool],
) -> Vec<TiedGate> {
    let mut ties: Vec<TiedGate> = Vec::new();
    for t in (0..repeated.len()).filter(|&t| !repeated[t]) {
        let kind = if t == 0 {
            TieKind::Combinational
        } else {
            TieKind::Sequential
        };
        for (node, value) in trace0.binary_assignments(t) {
            if node == stem || seen[node.index()] || netlist.is_input(node) {
                continue;
            }
            if trace1.value(t, node) == Logic3::from_bool(value) {
                seen[node.index()] = true;
                ties.push(TiedGate::new(node, value, kind));
            }
        }
    }
    for tie in &ties {
        seen[tie.node.index()] = false;
    }
    ties
}

/// Per-node endpoint role, precomputed so the quadratic pair loop of
/// [`extract_relations`] does two array loads per pair instead of node and
/// mask lookups (the role is the compiled form of [`keep_relation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Primary input or masked-out sequential element: never an endpoint.
    Excluded,
    /// Combinational gate: kept when paired with a sequential element.
    Gate,
    /// Sequential element of the active class.
    Seq,
}

fn endpoint_roles(netlist: &Netlist, class_mask: Option<&[bool]>) -> Vec<Role> {
    netlist
        .iter()
        .map(|(id, node)| {
            if node.is_input() {
                Role::Excluded
            } else if node.is_sequential() {
                match class_mask {
                    Some(mask) if !mask[id.index()] => Role::Excluded,
                    _ => Role::Seq,
                }
            } else {
                Role::Gate
            }
        })
        .collect()
}

/// Exact-duplicate filter for the relation pair stream of one learning pass.
///
/// The quadratic pair loops re-derive the same `(antecedent, consequent)` pair
/// across frames and stems thousands of times; the filter drops a pair whose
/// insertion into [`crate::ImplicationDb`] would provably be a no-op, before
/// it is materialized. The database result is unchanged: a pair is suppressed
/// only when the same pair was already emitted with an equal-or-stronger flag
/// (a combinational re-derivation of a pair so far only seen sequentially is
/// still emitted — it downgrades the stored flag).
#[derive(Debug)]
pub enum PairFilter {
    /// Dense pair bitset — O(1) with no hashing; `literals²` bits of memory,
    /// used up to mid-size netlists.
    Bits {
        /// Bit per directed `(literal, literal)` pair emitted with `seq = true`.
        seen_seq: Vec<u64>,
        /// Same, for `seq = false` emissions.
        seen_comb: Vec<u64>,
        /// Number of literal codes (2 × nodes).
        literals: usize,
    },
    /// Sparse fallback for large netlists: packed pair code → flag byte
    /// (bit 0 = emitted combinational, bit 1 = emitted sequential).
    Sparse(sla_netlist::FastHashMap<u64, u8>),
}

impl PairFilter {
    /// Dense up to this many nodes (bitsets ≤ 2 × 8 MiB), sparse beyond.
    const DENSE_NODE_LIMIT: usize = 4096;

    fn for_netlist(netlist: &Netlist) -> PairFilter {
        let n = netlist.num_nodes();
        if n <= PairFilter::DENSE_NODE_LIMIT {
            let literals = 2 * n;
            let words = (literals * literals).div_ceil(64);
            PairFilter::Bits {
                seen_seq: vec![0; words],
                seen_comb: vec![0; words],
                literals,
            }
        } else {
            PairFilter::Sparse(sla_netlist::FastHashMap::default())
        }
    }

    /// Returns `true` when the pair must still be emitted: it is new, or it
    /// downgrades a sequential-only pair to combinational.
    #[inline]
    fn admit(&mut self, g1: NodeId, v1: bool, g2: NodeId, v2: bool, sequential: bool) -> bool {
        let a = (g1.0 as u64) * 2 + v1 as u64;
        let c = (g2.0 as u64) * 2 + v2 as u64;
        match self {
            PairFilter::Bits {
                seen_seq,
                seen_comb,
                literals,
            } => {
                let bit = a as usize * *literals + c as usize;
                let (word, mask) = (bit / 64, 1u64 << (bit % 64));
                if sequential {
                    if (seen_seq[word] | seen_comb[word]) & mask != 0 {
                        return false;
                    }
                    seen_seq[word] |= mask;
                } else {
                    if seen_comb[word] & mask != 0 {
                        return false;
                    }
                    seen_comb[word] |= mask;
                }
                true
            }
            PairFilter::Sparse(seen) => {
                let flags = seen.entry((a << 32) | c).or_insert(0);
                let wanted: u8 = if sequential { 0b11 } else { 0b01 };
                if *flags & wanted != 0 {
                    return false;
                }
                *flags |= if sequential { 0b10 } else { 0b01 };
                true
            }
        }
    }

    /// [`PairFilter::admit`] for an already materialized implication.
    fn admit_implication(&mut self, imp: Implication, sequential: bool) -> bool {
        self.admit(
            imp.antecedent.node,
            imp.antecedent.value,
            imp.consequent.node,
            imp.consequent.value,
            sequential,
        )
    }
}

/// Extracts same-frame relations by pairing the assignments of the two traces
/// at equal frames (contrapositive law), restricted by `keep_relation`.
pub fn extract_relations<T: TraceRead>(
    netlist: &Netlist,
    trace0: &T,
    trace1: &T,
    class_mask: Option<&[bool]>,
) -> Vec<(Implication, bool)> {
    let mut out = Vec::new();
    let mut filter = PairFilter::for_netlist(netlist);
    let roles = endpoint_roles(netlist, class_mask);
    let frames = trace0.num_frames().min(trace1.num_frames());
    let repeated = repeated_frame_pairs(trace0, trace1, frames);
    extract_relations_into(trace0, trace1, &repeated, &roles, &mut filter, &mut out);
    out
}

/// [`extract_relations`] with caller-owned per-pass state: the duplicate
/// filter and endpoint roles span every stem of a learning pass, and the
/// repeated-frame mask is shared with tie extraction.
fn extract_relations_into<T: TraceRead>(
    trace0: &T,
    trace1: &T,
    repeated: &[bool],
    roles: &[Role],
    filter: &mut PairFilter,
    out: &mut Vec<(Implication, bool)>,
) {
    let frames = repeated.len();
    for t in (0..frames).filter(|&t| !repeated[t]) {
        // Keep the pair loop tractable: a relation must involve at least one
        // sequential element, so pair "sequential assignments of one trace"
        // against "all kept assignments of the other". The roles make every
        // pairing below pass `keep_relation` by construction.
        let kept0: Vec<(NodeId, bool)> = trace0
            .binary_assignments(t)
            .filter(|(n, _)| roles[n.index()] != Role::Excluded)
            .collect();
        let kept1: Vec<(NodeId, bool)> = trace1
            .binary_assignments(t)
            .filter(|(n, _)| roles[n.index()] != Role::Excluded)
            .collect();
        let seq0: Vec<(NodeId, bool)> = kept0
            .iter()
            .copied()
            .filter(|(n, _)| roles[n.index()] == Role::Seq)
            .collect();
        let seq1: Vec<(NodeId, bool)> = kept1
            .iter()
            .copied()
            .filter(|(n, _)| roles[n.index()] == Role::Seq)
            .collect();
        let sequential = t > 0;
        // trace0 carries s=0, trace1 carries s=1:
        //   g1 = !v1  =>  s = 1  =>  g2 = v2.
        for &(g1, v1) in &kept0 {
            for &(g2, v2) in &seq1 {
                if g1 == g2 {
                    continue;
                }
                if filter.admit(g1, !v1, g2, v2, sequential) {
                    out.push((
                        Implication::new(Literal::new(g1, !v1), Literal::new(g2, v2)),
                        sequential,
                    ));
                }
            }
        }
        for &(g1, v1) in &seq0 {
            for &(g2, v2) in &kept1 {
                if roles[g2.index()] == Role::Seq {
                    continue; // already covered above
                }
                if filter.admit(g1, !v1, g2, v2, sequential) {
                    out.push((
                        Implication::new(Literal::new(g1, !v1), Literal::new(g2, v2)),
                        sequential,
                    ));
                }
            }
        }
    }
}

/// Extracts cross-frame relations directly from one trace: `stem=value @ 0`
/// implies every recorded assignment at its frame, so the contrapositive links
/// the assignment back to the stem across `frame` time frames.
pub fn extract_cross_frame<T: TraceRead>(
    netlist: &Netlist,
    stem: NodeId,
    value: bool,
    trace: &T,
) -> Vec<CrossImplication> {
    let mut out = Vec::new();
    for t in 1..trace.num_frames() {
        for (node, v) in trace.binary_assignments(t) {
            if node == stem || netlist.is_input(node) {
                continue;
            }
            out.push(CrossImplication {
                antecedent: Literal::new(node, !v),
                consequent: Literal::new(stem, !value),
                offset: -(t as i32),
            });
        }
    }
    out
}

/// Support assignments in the order the support map accumulates them, held
/// until the ordered merge. Every stem trace frame contributes one run: the
/// `(stem, stem_value, frame)` entry is stored once per run, not once per
/// assignment, which keeps the log a third of the size of flat
/// `(key, entry)` pairs — the log of a whole pass is resident at the merge.
#[derive(Default)]
struct SupportLog {
    /// Run headers: the entry shared by the run, and the run's key count.
    runs: Vec<(SupportEntry, usize)>,
    /// The runs' keys, back to back.
    keys: Vec<SupportKey>,
}

impl SupportLog {
    /// Appends the support assignments of one stem trace.
    fn record<T: TraceRead>(&mut self, netlist: &Netlist, stem: NodeId, value: bool, trace: &T) {
        for t in 0..trace.num_frames() {
            let start = self.keys.len();
            self.keys.extend(
                trace
                    .binary_assignments(t)
                    .filter(|&(node, _)| node != stem && !netlist.is_input(node)),
            );
            let len = self.keys.len() - start;
            if len > 0 {
                self.runs.push(((stem, value, t), len));
            }
        }
    }

    /// Pushes every logged assignment into `map`, in log order.
    fn drain_into(self, map: &mut SupportMap) {
        let mut keys = self.keys.into_iter();
        for (entry, len) in self.runs {
            for key in keys.by_ref().take(len) {
                map.push(key, entry);
            }
        }
    }
}

/// Runs single-node learning over `stems` using an already configured
/// simulator (equivalences, tied constants and the active clock class are
/// taken from the simulator state).
///
/// This is the scalar reference path — one forward simulation per stem
/// polarity. The learning engine uses [`run_sharded`], which produces the
/// same outcome from packed 64-lane passes; property tests assert the
/// equality.
pub fn run(
    sim: &InjectionSim<'_>,
    stems: &[NodeId],
    options: &SimOptions,
    class_mask: Option<&[bool]>,
    learn_cross_frame: bool,
) -> SingleNodeOutcome {
    let netlist = sim.netlist();
    let mut worker = ChunkWorker::new(netlist, class_mask);
    let mut harvest = ChunkHarvest::new(true);
    for &stem in stems {
        let (t0, t1) = simulate_stem(sim, stem, options);
        harvest_stem(
            netlist,
            stem,
            &t0,
            &t1,
            learn_cross_frame,
            &mut worker,
            &mut harvest,
        );
    }
    merge(netlist, [harvest])
}

/// What one worker harvested from one chunk of stems.
struct ChunkHarvest {
    implications: Vec<(Implication, bool)>,
    cross_frame: Vec<CrossImplication>,
    ties: Vec<TiedGate>,
    /// Support assignments in accumulation order; the merge pushes them into
    /// the pass's one [`SupportMap`].
    support: SupportLog,
    stems: usize,
    /// `true` when the worker's duplicate filter had seen every earlier chunk,
    /// so `implications` already is this chunk's slice of the pass stream.
    in_order: bool,
}

impl ChunkHarvest {
    fn new(in_order: bool) -> Self {
        ChunkHarvest {
            implications: Vec::new(),
            cross_frame: Vec::new(),
            ties: Vec::new(),
            support: SupportLog::default(),
            stems: 0,
            in_order,
        }
    }
}

/// A worker's private state: its duplicate filter, the endpoint roles, the
/// tie dedupe marks and how many chunks the filter has seen.
struct ChunkWorker {
    filter: PairFilter,
    roles: Vec<Role>,
    /// Per-node "already tied by this stem" marks, all `false` between stems.
    tie_seen: Vec<bool>,
    chunks_seen: usize,
}

impl ChunkWorker {
    fn new(netlist: &Netlist, class_mask: Option<&[bool]>) -> Self {
        ChunkWorker {
            filter: PairFilter::for_netlist(netlist),
            roles: endpoint_roles(netlist, class_mask),
            tie_seen: vec![false; netlist.num_nodes()],
            chunks_seen: 0,
        }
    }
}

/// Extracts everything single-node learning derives from the two polarity
/// traces of one stem and adds it to `out`.
fn harvest_stem<T: TraceRead>(
    netlist: &Netlist,
    stem: NodeId,
    t0: &T,
    t1: &T,
    learn_cross_frame: bool,
    worker: &mut ChunkWorker,
    out: &mut ChunkHarvest,
) {
    let frames = t0.num_frames().min(t1.num_frames());
    let repeated = repeated_frame_pairs(t0, t1, frames);
    out.ties.extend(extract_ties_skipping(
        netlist,
        stem,
        t0,
        t1,
        &repeated,
        &mut worker.tie_seen,
    ));
    extract_relations_into(
        t0,
        t1,
        &repeated,
        &worker.roles,
        &mut worker.filter,
        &mut out.implications,
    );
    if learn_cross_frame {
        out.cross_frame
            .extend(extract_cross_frame(netlist, stem, false, t0));
        out.cross_frame
            .extend(extract_cross_frame(netlist, stem, true, t1));
    }
    out.support.record(netlist, stem, false, t0);
    out.support.record(netlist, stem, true, t1);
    out.stems += 1;
}

/// Runs single-node learning over `stems` on `threads` workers (inline on
/// the caller's thread when `threads <= 1`), packing [`STEMS_PER_BATCH`]
/// stems — both polarities each — into every forward pass. Produces exactly
/// the outcome of the scalar [`run`]: the same implication stream (including
/// the duplicate-filter suppressions), ties, cross-frame relations and
/// support map.
///
/// Stems are split at [`STEMS_PER_BATCH`] boundaries and the chunks claimed
/// dynamically, always in increasing index order; each worker keeps a
/// private [`PairFilter`] across the chunks it claims. A chunk whose worker
/// claimed every earlier chunk (always the case on one worker) was filtered
/// against the whole preceding stream, so its implications are taken as
/// they are; the ordered merge replays the stream of every later chunk
/// through one global filter.
pub fn run_sharded(
    sim: &InjectionSim<'_>,
    stems: &[NodeId],
    options: &SimOptions,
    class_mask: Option<&[bool]>,
    learn_cross_frame: bool,
    threads: usize,
) -> SingleNodeOutcome {
    let netlist = sim.netlist();
    let chunks: Vec<&[NodeId]> = stems.chunks(STEMS_PER_BATCH).collect();
    let harvests = sla_par::run_indexed_with(
        &chunks,
        threads,
        |_worker| ChunkWorker::new(netlist, class_mask),
        |worker, index, chunk| {
            let packed = simulate_stem_batch_packed(sim, chunk, options);
            let mut harvest = ChunkHarvest::new(worker.chunks_seen == index);
            for (k, &stem) in chunk.iter().enumerate() {
                harvest_stem(
                    netlist,
                    stem,
                    &packed.lane(2 * k),
                    &packed.lane(2 * k + 1),
                    learn_cross_frame,
                    worker,
                    &mut harvest,
                );
            }
            worker.chunks_seen += 1;
            harvest
        },
    );
    merge(netlist, harvests)
}

/// Ordered merge of chunk harvests (chunk order = stem order).
///
/// Only the implication stream can need a replay: ties, cross-frame
/// relations and support are never duplicate-filtered, so in-order
/// concatenation is exact. From the first chunk whose worker missed an
/// earlier chunk, the stream goes through one global filter, fed first with
/// everything merged so far (a filter's state is exactly the set of pairs it
/// admitted). A pair's first occurrence in the chunk-ordered concatenation
/// is its first occurrence in stem order, so the replay reconstructs the
/// stem-order emission stream bit for bit.
fn merge(netlist: &Netlist, harvests: impl IntoIterator<Item = ChunkHarvest>) -> SingleNodeOutcome {
    let mut merged = SingleNodeOutcome::default();
    let mut replay: Option<PairFilter> = None;
    for harvest in harvests {
        if replay.is_none() && !harvest.in_order {
            let mut filter = PairFilter::for_netlist(netlist);
            for &(imp, seq) in &merged.implications {
                filter.admit_implication(imp, seq);
            }
            replay = Some(filter);
        }
        match &mut replay {
            None => merged.implications.extend(harvest.implications),
            Some(filter) => merged.implications.extend(
                harvest
                    .implications
                    .into_iter()
                    .filter(|&(imp, seq)| filter.admit_implication(imp, seq)),
            ),
        }
        merged.cross_frame.extend(harvest.cross_frame);
        merged.ties.extend(harvest.ties);
        harvest.support.drain_into(&mut merged.support);
        merged.stems_processed += harvest.stems;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::{GateType, NetlistBuilder};

    /// `z = AND(i1, NOT i1)` is combinationally tied to 0; the flip-flop pair
    /// (f1, f2) can never both be 1 because their data inputs are an AND with
    /// complementary first operands.
    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("single");
        b.input("i1");
        b.input("i2");
        b.gate("ni1", GateType::Not, &["i1"]).unwrap();
        b.gate("z", GateType::And, &["i1", "ni1"]).unwrap();
        b.gate("d1", GateType::And, &["i2", "nf2"]).unwrap();
        b.gate("d2", GateType::And, &["ni2", "nf1"]).unwrap();
        b.gate("ni2", GateType::Not, &["i2"]).unwrap();
        b.gate("nf1", GateType::Not, &["f1"]).unwrap();
        b.gate("nf2", GateType::Not, &["f2"]).unwrap();
        b.dff("f1", "d1").unwrap();
        b.dff("f2", "d2").unwrap();
        b.gate("o", GateType::Or, &["f1", "f2", "z"]).unwrap();
        b.output("o").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn combinational_tie_found_from_stem_polarities() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let i1 = n.require("i1").unwrap();
        let z = n.require("z").unwrap();
        let (t0, t1) = simulate_stem(&sim, i1, &SimOptions::default());
        let ties = extract_ties(&n, i1, &t0, &t1);
        assert!(ties
            .iter()
            .any(|t| t.node == z && !t.value && t.kind == TieKind::Combinational));
    }

    /// A hand-written trace: `frames[t][node]`.
    struct FixedTrace(Vec<Vec<Logic3>>);

    impl TraceRead for FixedTrace {
        fn num_frames(&self) -> usize {
            self.0.len()
        }
        fn num_nodes(&self) -> usize {
            self.0[0].len()
        }
        fn value(&self, frame: usize, node: NodeId) -> Logic3 {
            self.0[frame][node.index()]
        }
        fn conflict(&self) -> Option<sla_sim::Conflict> {
            None
        }
        fn frames_equal(&self, a: usize, b: usize) -> bool {
            self.0[a] == self.0[b]
        }
    }

    /// Each node is reported once, at its first sighting: a node tied at
    /// several frames keeps its earliest kind, and a node tied to different
    /// values at two frames keeps the earlier value.
    #[test]
    fn tie_dedupe_keeps_the_first_sighting() {
        let n = sample();
        let i1 = n.require("i1").unwrap();
        let z = n.require("z").unwrap();
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        let o = n.require("o").unwrap();
        let (x, zero, one) = (Logic3::X, Logic3::Zero, Logic3::One);
        // Frame by frame, both polarities agree on:
        //   z  = 0 at frames 0, 1, 2  (combinational first)
        //   f1 = 1 at frames 1, 2     (sequential only)
        //   o  = 1 at frame 1, 0 at frame 2 (different values)
        // f2 disagrees between the polarities and is never tied; the stem i1
        // is excluded.
        let frame = |vals: &[(NodeId, Logic3)]| {
            let mut f = vec![x; n.num_nodes()];
            for &(node, v) in vals {
                f[node.index()] = v;
            }
            f
        };
        let t0 = FixedTrace(vec![
            frame(&[(i1, zero), (z, zero)]),
            frame(&[(z, zero), (f1, one), (f2, zero), (o, one)]),
            frame(&[(z, zero), (f1, one), (f2, one), (o, zero)]),
        ]);
        let t1 = FixedTrace(vec![
            frame(&[(i1, one), (z, zero)]),
            frame(&[(z, zero), (f1, one), (f2, one), (o, one)]),
            frame(&[(z, zero), (f1, one), (f2, zero), (o, zero)]),
        ]);
        let ties = extract_ties(&n, i1, &t0, &t1);
        assert_eq!(
            ties,
            vec![
                TiedGate::new(z, false, TieKind::Combinational),
                TiedGate::new(f1, true, TieKind::Sequential),
                TiedGate::new(o, true, TieKind::Sequential),
            ]
        );
    }

    #[test]
    fn invalid_state_relation_found_from_input_stem() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let i2 = n.require("i2").unwrap();
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        let (t0, t1) = simulate_stem(&sim, i2, &SimOptions::default());
        // i2=0 -> d1=0 -> f1=0 @1 ; i2=1 -> d2=0 -> f2=0 @1.
        assert_eq!(t0.value(1, f1), Logic3::Zero);
        assert_eq!(t1.value(1, f2), Logic3::Zero);
        let rels = extract_relations(&n, &t0, &t1, None);
        let expected = Implication::new(Literal::new(f1, true), Literal::new(f2, false));
        assert!(
            rels.iter().any(|(imp, seq)| *imp == expected && *seq),
            "expected f1=1 -> f2=0 as a sequential relation, got {:?}",
            rels.iter().map(|(i, _)| i.describe(&n)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn relations_never_involve_primary_inputs_or_gate_gate_pairs() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let options = SimOptions::default();
        let stems = sla_netlist::stems::fanout_stems(&n);
        let outcome = run(&sim, &stems, &options, None, false);
        for (imp, _) in &outcome.implications {
            let a = n.node(imp.antecedent.node);
            let c = n.node(imp.consequent.node);
            assert!(!a.is_input() && !c.is_input(), "{}", imp.describe(&n));
            assert!(
                a.is_sequential() || c.is_sequential(),
                "{}",
                imp.describe(&n)
            );
        }
    }

    #[test]
    fn support_map_records_stem_assignments() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let i2 = n.require("i2").unwrap();
        let f1 = n.require("f1").unwrap();
        let outcome = run(&sim, &[i2], &SimOptions::default(), None, false);
        let entries = outcome
            .support
            .get(&(f1, false))
            .expect("f1=0 must be supported by i2=0");
        assert!(entries.contains(&(i2, false, 1)));
    }

    #[test]
    fn class_mask_filters_out_foreign_flip_flops() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let i2 = n.require("i2").unwrap();
        let f1 = n.require("f1").unwrap();
        let (t0, t1) = simulate_stem(&sim, i2, &SimOptions::default());
        // Mask excludes f1: no kept relation may have f1 as an endpoint.
        let mut mask = vec![true; n.num_nodes()];
        mask[f1.index()] = false;
        let rels = extract_relations(&n, &t0, &t1, Some(&mask));
        assert!(rels
            .iter()
            .all(|(imp, _)| imp.antecedent.node != f1 && imp.consequent.node != f1));
    }

    #[test]
    fn cross_frame_relations_point_back_to_the_stem() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let i2 = n.require("i2").unwrap();
        let f1 = n.require("f1").unwrap();
        let (t0, _) = simulate_stem(&sim, i2, &SimOptions::default());
        let cross = extract_cross_frame(&n, i2, false, &t0);
        // f1=0 @1 came from i2=0 @0, so f1=1 implies i2=1 one frame earlier.
        assert!(cross.iter().any(|c| c.antecedent == Literal::new(f1, true)
            && c.consequent == Literal::new(i2, true)
            && c.offset == -1));
    }

    /// Enough independent motif copies to exceed several [`STEMS_PER_BATCH`]
    /// boundaries, so sharding has real chunks to distribute.
    fn many_stems(copies: usize) -> Netlist {
        let mut b = NetlistBuilder::new("many");
        for i in 0..copies {
            let i1 = format!("i1_{i}");
            let i2 = format!("i2_{i}");
            b.input(&i1);
            b.input(&i2);
            b.gate(&format!("n1_{i}"), GateType::Not, &[&i1]).unwrap();
            b.gate(&format!("n2_{i}"), GateType::Not, &[&i2]).unwrap();
            b.gate(
                &format!("d1_{i}"),
                GateType::And,
                &[i2.as_str(), &format!("nf2_{i}")],
            )
            .unwrap();
            b.gate(
                &format!("d2_{i}"),
                GateType::And,
                &[&format!("n2_{i}"), &format!("nf1_{i}")],
            )
            .unwrap();
            b.gate(&format!("nf1_{i}"), GateType::Not, &[&format!("f1_{i}")])
                .unwrap();
            b.gate(&format!("nf2_{i}"), GateType::Not, &[&format!("f2_{i}")])
                .unwrap();
            b.dff(&format!("f1_{i}"), &format!("d1_{i}")).unwrap();
            b.dff(&format!("f2_{i}"), &format!("d2_{i}")).unwrap();
            b.gate(
                &format!("o_{i}"),
                GateType::Or,
                &[
                    format!("f1_{i}").as_str(),
                    format!("f2_{i}").as_str(),
                    format!("n1_{i}").as_str(),
                ],
            )
            .unwrap();
            b.output(&format!("o_{i}")).unwrap();
        }
        b.build().unwrap()
    }

    /// Every thread count of the batched (packed, sharded) pass must
    /// reproduce the scalar oracle exactly.
    fn assert_sharded_matches_scalar(n: &Netlist, chunks_at_least: usize) {
        let sim = InjectionSim::new(n).unwrap();
        let stems = sla_netlist::stems::fanout_stems(n);
        let chunks = stems.len().div_ceil(STEMS_PER_BATCH);
        assert!(chunks >= chunks_at_least, "{} stems", stems.len());
        let options = SimOptions::default();
        let reference = run(&sim, &stems, &options, None, true);
        for threads in [1, 2, 3, 8] {
            let sharded = run_sharded(&sim, &stems, &options, None, true, threads);
            let at = format!("{chunks} chunks, t={threads}");
            assert_eq!(reference.implications, sharded.implications, "{at}");
            assert_eq!(reference.ties, sharded.ties, "{at}");
            assert_eq!(reference.cross_frame, sharded.cross_frame, "{at}");
            assert_eq!(reference.support, sharded.support, "{at}");
            assert_eq!(reference.stems_processed, sharded.stems_processed, "{at}");
        }
    }

    /// A single chunk (at most [`STEMS_PER_BATCH`] stems).
    #[test]
    fn batched_run_matches_scalar_run() {
        let n = sample();
        let stems = sla_netlist::stems::fanout_stems(&n);
        assert!(stems.len() <= STEMS_PER_BATCH, "{} stems", stems.len());
        assert_sharded_matches_scalar(&n, 1);
    }

    /// Several chunks, whose merge replays the duplicate filter once a
    /// worker misses a chunk.
    #[test]
    fn sharded_run_matches_batched_run() {
        assert_sharded_matches_scalar(&many_stems(40), 4);
    }

    #[test]
    fn run_processes_every_stem() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let stems = sla_netlist::stems::fanout_stems(&n);
        let outcome = run(&sim, &stems, &SimOptions::default(), None, true);
        assert_eq!(outcome.stems_processed, stems.len());
        assert!(!outcome.support.is_empty());
        assert!(!outcome.cross_frame.is_empty());
    }
}
