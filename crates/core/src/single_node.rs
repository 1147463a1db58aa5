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
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// For every `(node, value)`: the list of `(stem, stem_value, frame)` stem
/// assignments whose forward simulation sets the node to that value at that
/// frame offset.
///
/// Keys iterate in literal-code order (`node * 2 + value`, i.e. by node,
/// then value), so iteration is a pure function of the accumulated set. Each
/// key's entries keep accumulation order: stems in pass order, and within a
/// stem polarity 0 before 1 and frames ascending.
///
/// The map is built without hashing or a global per-entry copy. Each chunk
/// worker of the pass turns its own support log into a key-major block by
/// a stable sort (a chunk's block is small enough to stay in cache), and
/// the merge only indexes, per key, the `(block, range)` runs of the blocks
/// that hold it. [`SupportMap::get`] and [`SupportMap::iter`]
/// hand out [`SupportEntries`] views over those runs.
///
/// Cost: on the Table-3 circuits at one thread, logging, transposing and
/// indexing the support take about a quarter of the time of the packed
/// simulation they read. The transposition scratch is sized by a chunk's
/// log and the index by the keys present; nothing is per literal.
#[derive(Default, Clone)]
pub struct SupportMap {
    /// The chunks' key-major blocks, in chunk order.
    blocks: Vec<SupportBlock>,
    /// Distinct literal codes, ascending.
    keys: Vec<u32>,
    /// Key `i`'s runs are `runs[spans[i]..spans[i + 1]]`.
    spans: Vec<usize>,
    /// `(block, key position in the block)`, ascending by block per key.
    runs: Vec<(u32, u32)>,
}

/// A `(node, value)` support-map key.
pub type SupportKey = (NodeId, bool);

/// A `(stem, stem_value, frame)` assignment supporting a key.
pub type SupportEntry = (NodeId, bool, usize);

/// The literal code `node * 2 + value` of a support key or endpoint.
fn literal_code(node: NodeId, value: bool) -> u32 {
    2 * node.0 + u32::from(value)
}

impl SupportMap {
    /// Indexes the chunks' key-major blocks: a merge of their sorted key
    /// lists that records, per key, the blocks holding it in block order.
    fn from_blocks(blocks: Vec<SupportBlock>) -> SupportMap {
        let index = |i: usize| u32::try_from(i).expect("support blocks and keys fit u32");
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = blocks
            .iter()
            .enumerate()
            .filter_map(|(b, block)| block.keys.first().map(|&key| Reverse((key, index(b)))))
            .collect();
        let mut cursors = vec![0usize; blocks.len()];
        let mut keys = Vec::new();
        let mut spans = Vec::new();
        let mut runs = Vec::new();
        while let Some(Reverse((key, b))) = heap.pop() {
            if keys.last() != Some(&key) {
                keys.push(key);
                spans.push(runs.len());
            }
            let block = b as usize;
            let pos = cursors[block];
            runs.push((b, index(pos)));
            cursors[block] += 1;
            if let Some(&next) = blocks[block].keys.get(pos + 1) {
                heap.push(Reverse((next, b)));
            }
        }
        spans.push(runs.len());
        SupportMap {
            blocks,
            keys,
            spans,
            runs,
        }
    }

    /// The entries of the `i`-th key.
    fn entries(&self, i: usize) -> SupportEntries<'_> {
        let runs = &self.runs[self.spans[i]..self.spans[i + 1]];
        let len = runs
            .iter()
            .map(|&(b, pos)| self.blocks[b as usize].range(pos).len())
            .sum();
        SupportEntries {
            blocks: &self.blocks,
            runs,
            len,
        }
    }

    /// Support entries of `key`, if any.
    pub fn get(&self, key: &SupportKey) -> Option<SupportEntries<'_>> {
        let code = literal_code(key.0, key.1);
        self.keys.binary_search(&code).ok().map(|i| self.entries(i))
    }

    /// Number of distinct `(node, value)` keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no support was accumulated.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates `(key, entries)` in literal-code key order.
    pub fn iter(&self) -> impl Iterator<Item = (SupportKey, SupportEntries<'_>)> + '_ {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, &code)| ((NodeId(code >> 1), code & 1 == 1), self.entries(i)))
    }
}

/// Equal when both hold the same keys with the same entries in the same
/// order, however the entries are split into chunk blocks.
impl PartialEq for SupportMap {
    fn eq(&self, other: &SupportMap) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for SupportMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The support entries of one key: a view over the runs the key has in the
/// chunk blocks, in accumulation order.
#[derive(Clone, Copy)]
pub struct SupportEntries<'a> {
    blocks: &'a [SupportBlock],
    runs: &'a [(u32, u32)],
    len: usize,
}

impl<'a> SupportEntries<'a> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries in accumulation order.
    pub fn iter(&self) -> impl Iterator<Item = SupportEntry> + Clone + 'a {
        let blocks = self.blocks;
        self.runs.iter().flat_map(move |&(b, pos)| {
            let block = &blocks[b as usize];
            block.entries[block.range(pos)].iter().map(|e| e.unpack())
        })
    }
}

impl PartialEq for SupportEntries<'_> {
    fn eq(&self, other: &SupportEntries<'_>) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for SupportEntries<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A [`SupportEntry`] in 8 bytes: the stem and `frame * 2 + stem_value`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PackedEntry {
    stem: u32,
    frame_value: u32,
}

impl PackedEntry {
    fn new(stem: NodeId, value: bool, frame: usize) -> PackedEntry {
        let frame = u32::try_from(frame).expect("frame offsets fit u32");
        PackedEntry {
            stem: stem.0,
            frame_value: frame.checked_mul(2).expect("frame offsets fit u32") | u32::from(value),
        }
    }

    fn unpack(self) -> SupportEntry {
        (
            NodeId(self.stem),
            self.frame_value & 1 == 1,
            (self.frame_value >> 1) as usize,
        )
    }
}

/// One chunk's support, key-major: the entries of `keys[i]` are
/// `entries[starts[i]..starts[i + 1]]`, in accumulation order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct SupportBlock {
    /// Distinct literal codes, ascending.
    keys: Vec<u32>,
    starts: Vec<u32>,
    entries: Vec<PackedEntry>,
}

impl SupportBlock {
    /// The entry range of the key at position `pos`.
    fn range(&self, pos: u32) -> std::ops::Range<usize> {
        let pos = pos as usize;
        self.starts[pos] as usize..self.starts[pos + 1] as usize
    }
}

/// Support assignments of one chunk in accumulation order, until the chunk
/// is transposed. Every stem trace frame contributes one run: the
/// `(stem, stem_value, frame)` entry is stored once per run, not once per
/// assignment.
#[derive(Default)]
struct SupportLog {
    /// Run headers: the entry shared by the run, and the run's key count.
    runs: Vec<(PackedEntry, usize)>,
    /// The runs' keys (literal codes), back to back.
    keys: Vec<u32>,
}

impl SupportLog {
    /// Appends the support assignments of one stem trace.
    fn record<T: TraceRead>(&mut self, netlist: &Netlist, stem: NodeId, value: bool, trace: &T) {
        for t in 0..trace.num_frames() {
            let start = self.keys.len();
            self.keys.extend(
                trace
                    .binary_assignments(t)
                    .filter(|&(node, _)| node != stem && !netlist.is_input(node))
                    .map(|(node, v)| literal_code(node, v)),
            );
            let len = self.keys.len() - start;
            if len > 0 {
                self.runs.push((PackedEntry::new(stem, value, t), len));
            }
        }
    }

    /// Moves the log into a key-major block — its entries sorted stably by
    /// key, so the order within a key is log order — and leaves the log
    /// empty.
    fn transpose(&mut self) -> SupportBlock {
        let mut keys = std::mem::take(&mut self.keys);
        let mut entries: Vec<PackedEntry> = self
            .runs
            .drain(..)
            .flat_map(|(entry, len)| std::iter::repeat_n(entry, len))
            .collect();
        radix_sort_by_key(&mut keys, &mut entries);
        let at = |i: usize| u32::try_from(i).expect("a chunk's support fits u32 offsets");
        let mut block = SupportBlock::default();
        for (i, &key) in keys.iter().enumerate() {
            if block.keys.last() != Some(&key) {
                block.keys.push(key);
                block.starts.push(at(i));
            }
        }
        block.starts.push(at(keys.len()));
        block.entries = entries;
        keys.clear();
        self.keys = keys;
        block
    }
}

/// Sorts `keys` stably, permuting `entries` alongside: a
/// least-significant-digit radix sort whose passes are counting sorts over
/// digits of at most 16 key bits. Keys under 2^16 take one pass over
/// counters sized by the largest key; larger keys take more passes but
/// never more than 2^16 counters, so the scratch is a copy of the input
/// whatever the key range.
fn radix_sort_by_key(keys: &mut Vec<u32>, entries: &mut Vec<PackedEntry>) {
    const MAX_DIGIT_BITS: u32 = 16;
    let key_bits = keys
        .iter()
        .max()
        .map_or(0, |&key| u32::BITS - key.leading_zeros());
    let passes = key_bits.div_ceil(MAX_DIGIT_BITS);
    if passes == 0 {
        return;
    }
    let digit_bits = key_bits.div_ceil(passes);
    let mask = (1usize << digit_bits) - 1;
    let mut counts = vec![0u32; 1 << digit_bits];
    let mut sorted_keys = vec![0u32; keys.len()];
    let mut sorted_entries = vec![PackedEntry::default(); entries.len()];
    for pass in 0..passes {
        let digit = |key: u32| (key >> (pass * digit_bits)) as usize & mask;
        counts.fill(0);
        for &key in keys.iter() {
            counts[digit(key)] += 1;
        }
        let mut at = 0;
        for count in &mut counts {
            (*count, at) = (at, at + *count);
        }
        for (&key, &entry) in keys.iter().zip(entries.iter()) {
            let slot = &mut counts[digit(key)];
            sorted_keys[*slot as usize] = key;
            sorted_entries[*slot as usize] = entry;
            *slot += 1;
        }
        std::mem::swap(keys, &mut sorted_keys);
        std::mem::swap(entries, &mut sorted_entries);
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

/// The relation endpoints of one learning pass, numbered compactly by role
/// in node order: the active class's sequential elements get `0..S` and the
/// gates `0..G`, so endpoint `i`'s literals are `2i` and `2i + 1` within
/// its role. Primary inputs and masked-out sequential elements are
/// excluded. This is the compiled form of [`keep_relation`]: every pairing
/// of a sequential endpoint with any endpoint passes it.
///
/// Roles are two bits per node and each index a rank over them, so the
/// table stays small on large netlists: only the few sequential endpoints
/// are listed, and a gate index is mapped back to its node by a select
/// over the gate bits.
#[derive(Debug)]
struct Endpoints {
    /// Bit per node: a gate.
    gate_bits: Vec<u64>,
    /// Bit per node: a sequential endpoint.
    seq_bits: Vec<u64>,
    /// Per word of `gate_bits`: the gates before it.
    gate_rank: Vec<u32>,
    /// Per word of `seq_bits`: the sequential endpoints before it.
    seq_rank: Vec<u32>,
    /// Number of gates.
    gates: usize,
    /// Sequential endpoint `i` is node `seq[i]`.
    seq: Vec<NodeId>,
    /// Number of nodes.
    nodes: usize,
}

/// A node's endpoint role, with its index within the role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Excluded,
    Seq(u32),
    Gate(u32),
}

impl Endpoints {
    fn new(netlist: &Netlist, class_mask: Option<&[bool]>) -> Endpoints {
        let words = netlist.num_nodes().div_ceil(64);
        let mut endpoints = Endpoints {
            gate_bits: vec![0; words],
            seq_bits: vec![0; words],
            gate_rank: Vec::with_capacity(words),
            seq_rank: Vec::with_capacity(words),
            gates: 0,
            seq: Vec::new(),
            nodes: netlist.num_nodes(),
        };
        let rank = |count: usize| u32::try_from(count).expect("node ids fit u32");
        for (id, node) in netlist.iter() {
            let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
            if bit == 1 {
                endpoints.gate_rank.push(rank(endpoints.gates));
                endpoints.seq_rank.push(rank(endpoints.seq.len()));
            }
            if node.is_input() {
                continue;
            }
            if !node.is_sequential() {
                endpoints.gate_bits[word] |= bit;
                endpoints.gates += 1;
            } else if class_mask.is_none_or(|mask| mask[id.index()]) {
                endpoints.seq_bits[word] |= bit;
                endpoints.seq.push(id);
            }
        }
        endpoints
    }

    #[inline]
    fn slot(&self, node: NodeId) -> Slot {
        let (word, bit) = (node.index() / 64, 1u64 << (node.index() % 64));
        if self.gate_bits[word] & bit != 0 {
            Slot::Gate(self.gate_rank[word] + (self.gate_bits[word] & (bit - 1)).count_ones())
        } else if self.seq_bits[word] & bit != 0 {
            Slot::Seq(self.seq_rank[word] + (self.seq_bits[word] & (bit - 1)).count_ones())
        } else {
            Slot::Excluded
        }
    }

    /// Number of sequential endpoint literals (`2S`).
    fn seq_literals(&self) -> usize {
        2 * self.seq.len()
    }

    /// Number of gate endpoint literals (`2G`).
    fn gate_literals(&self) -> usize {
        2 * self.gates
    }

    /// The node of gate `g`: the word whose rank range holds `g`, then the
    /// `g - rank`-th set bit of that word.
    fn gate_node(&self, g: usize) -> NodeId {
        let g = u32::try_from(g).expect("gate indices fit u32");
        // Words after the one holding `g` all rank above it.
        let word = self.gate_rank.partition_point(|&rank| rank <= g) - 1;
        let mut bits = self.gate_bits[word];
        for _ in self.gate_rank[word]..g {
            bits &= bits - 1;
        }
        let index = word * 64 + bits.trailing_zeros() as usize;
        NodeId(u32::try_from(index).expect("node ids fit u32"))
    }

    /// The antecedent code of `node = value` in the sequential-consequent
    /// rectangle of [`PairFilter`]: sequential literals `0..2S` first, then
    /// gate literals `2S..2S + 2G`. `None` for an excluded node.
    fn antecedent_code(&self, node: NodeId, value: bool) -> Option<u32> {
        let seq_literals = u32::try_from(self.seq_literals()).expect("endpoint literals fit u32");
        match self.slot(node) {
            Slot::Excluded => None,
            Slot::Seq(i) => Some(2 * i + u32::from(value)),
            Slot::Gate(g) => Some(seq_literals + 2 * g + u32::from(value)),
        }
    }
}

/// One antecedent's row of a [`PairFilter`] rectangle.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// First word of the row in the dense bitsets.
    word: usize,
    /// The antecedent's code in the rectangle.
    antecedent: u32,
    /// `true` for the gate-consequent rectangle.
    gate: bool,
}

/// Exact-duplicate filter for the relation pair stream of one learning pass.
///
/// The pair loops re-derive the same `(antecedent, consequent)` pair across
/// frames and stems thousands of times; the filter drops a pair whose
/// insertion into [`crate::ImplicationDb`] would provably be a no-op, before
/// it is materialized. The database result is unchanged: a pair is suppressed
/// only when the same pair was already emitted with an equal-or-stronger flag
/// (a combinational re-derivation of a pair so far only seen sequentially is
/// still emitted — it downgrades the stored flag).
///
/// The two pair loops produce disjoint pairs, which live in two rectangles
/// over the [`Endpoints`] numbering: every antecedent literal × the `2S`
/// sequential consequent literals, and the `2S` sequential antecedent
/// literals × the `2G` gate consequent literals. A row holds one
/// antecedent's consequents, 64 to a word, so the pair loop admits a whole
/// word of candidates with two mask operations.
#[derive(Debug)]
struct PairFilter {
    /// Words per row of the sequential-consequent rectangle.
    seq_stride: usize,
    /// Words per row of the gate-consequent rectangle.
    gate_stride: usize,
    /// First word of the gate-consequent rectangle.
    gate_base: usize,
    seen: Seen,
}

/// The admitted pairs of a [`PairFilter`].
#[derive(Debug)]
enum Seen {
    /// Dense bitsets over both rectangles — no hashing, used up to mid-size
    /// netlists.
    Bits {
        /// Bit per pair emitted with `seq = true`.
        seq: Vec<u64>,
        /// Same, for `seq = false` emissions.
        comb: Vec<u64>,
    },
    /// Sparse fallback for large netlists, one map per rectangle: packed
    /// `(antecedent, consequent)` code → flag byte (bit 0 = emitted
    /// combinational, bit 1 = emitted sequential).
    Sparse([FastHashMap<u64, u8>; 2]),
}

impl PairFilter {
    /// Dense up to this many nodes, sparse beyond. With `2S + 2G ≤ 2n`
    /// endpoint literals the two rectangles hold `(2S + 2G) × 2S + 2S × 2G
    /// ≤ (2n)²` bits plus at most one padding word per row, so each of the
    /// two dense bitsets stays within about 8 MiB.
    const DENSE_NODE_LIMIT: usize = 4096;

    fn new(endpoints: &Endpoints) -> PairFilter {
        PairFilter::with_dense(endpoints, endpoints.nodes <= PairFilter::DENSE_NODE_LIMIT)
    }

    fn with_dense(endpoints: &Endpoints, dense: bool) -> PairFilter {
        let (seq, gates) = (endpoints.seq_literals(), endpoints.gate_literals());
        let seq_stride = seq.div_ceil(64);
        let gate_stride = gates.div_ceil(64);
        let gate_base = (seq + gates) * seq_stride;
        let seen = if dense {
            let words = gate_base + seq * gate_stride;
            Seen::Bits {
                seq: vec![0; words],
                comb: vec![0; words],
            }
        } else {
            Seen::Sparse([FastHashMap::default(), FastHashMap::default()])
        };
        PairFilter {
            seq_stride,
            gate_stride,
            gate_base,
            seen,
        }
    }

    /// The row of antecedent `code` over the sequential consequents.
    fn seq_row(&self, code: u32) -> Row {
        Row {
            word: code as usize * self.seq_stride,
            antecedent: code,
            gate: false,
        }
    }

    /// The row of sequential antecedent `code` over the gate consequents.
    fn gate_row(&self, code: u32) -> Row {
        Row {
            word: self.gate_base + code as usize * self.gate_stride,
            antecedent: code,
            gate: true,
        }
    }

    /// Admits the `candidates` among consequents `64 * word ..` of `row`:
    /// returns the ones that must still be emitted — new, or downgrading a
    /// sequential-only pair to combinational — and records them.
    #[inline]
    fn admit_word(&mut self, row: Row, word: usize, candidates: u64, sequential: bool) -> u64 {
        match &mut self.seen {
            Seen::Bits { seq, comb } => {
                let at = row.word + word;
                if sequential {
                    let fresh = candidates & !(seq[at] | comb[at]);
                    seq[at] |= fresh;
                    fresh
                } else {
                    let fresh = candidates & !comb[at];
                    comb[at] |= fresh;
                    fresh
                }
            }
            Seen::Sparse(maps) => {
                let seen = &mut maps[usize::from(row.gate)];
                let wanted: u8 = if sequential { 0b11 } else { 0b01 };
                let mark: u8 = if sequential { 0b10 } else { 0b01 };
                let mut fresh = 0;
                let mut bits = candidates;
                while bits != 0 {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    let consequent = (word * 64) as u64 + u64::from(bit);
                    let flags = seen
                        .entry(u64::from(row.antecedent) << 32 | consequent)
                        .or_insert(0);
                    if *flags & wanted == 0 {
                        *flags |= mark;
                        fresh |= 1 << bit;
                    }
                }
                fresh
            }
        }
    }

    /// Admits one already materialized implication (the merge's replay).
    fn admit_implication(&mut self, endpoints: &Endpoints, imp: Implication, seq: bool) -> bool {
        let (a, c) = (imp.antecedent, imp.consequent);
        let (row, consequent) = match endpoints.slot(c.node) {
            Slot::Seq(i) => {
                let code = endpoints
                    .antecedent_code(a.node, a.value)
                    .expect("emitted antecedents are endpoints");
                (self.seq_row(code), 2 * i + u32::from(c.value))
            }
            Slot::Gate(g) => {
                let Slot::Seq(s) = endpoints.slot(a.node) else {
                    unreachable!("gate consequents pair only with sequential antecedents")
                };
                (
                    self.gate_row(2 * s + u32::from(a.value)),
                    2 * g + u32::from(c.value),
                )
            }
            Slot::Excluded => unreachable!("emitted consequents are endpoints"),
        };
        let consequent = consequent as usize;
        self.admit_word(row, consequent / 64, 1 << (consequent % 64), seq) != 0
    }
}

/// One trace's consequent literals at one frame, as a bitset over a compact
/// literal range plus the list of its non-zero words (ascending).
#[derive(Debug)]
struct ConsequentMask {
    bits: Vec<u64>,
    words: Vec<usize>,
}

impl ConsequentMask {
    fn new(literals: usize) -> ConsequentMask {
        ConsequentMask {
            bits: vec![0; literals.div_ceil(64)],
            words: Vec::new(),
        }
    }

    /// Sets literal `code`; codes must arrive in ascending order.
    #[inline]
    fn set(&mut self, code: u32) {
        let code = code as usize;
        let word = code / 64;
        debug_assert!(self.words.last().is_none_or(|&last| last <= word));
        if self.bits[word] == 0 {
            self.words.push(word);
        }
        self.bits[word] |= 1 << (code % 64);
    }

    fn clear(&mut self) {
        for word in self.words.drain(..) {
            self.bits[word] = 0;
        }
    }
}

/// The relation pair loop of one worker: the pass's duplicate filter and the
/// per-frame scratch masks.
#[derive(Debug)]
struct PairLoop<'e> {
    endpoints: &'e Endpoints,
    filter: PairFilter,
    /// trace1's sequential consequents at the current frame.
    seq_mask: ConsequentMask,
    /// trace1's gate consequents at the current frame.
    gate_mask: ConsequentMask,
    /// trace0's sequential antecedent codes at the current frame.
    seq_antecedents: Vec<u32>,
}

impl<'e> PairLoop<'e> {
    fn new(endpoints: &'e Endpoints) -> PairLoop<'e> {
        PairLoop::with_filter(endpoints, PairFilter::new(endpoints))
    }

    fn with_filter(endpoints: &'e Endpoints, filter: PairFilter) -> PairLoop<'e> {
        PairLoop {
            endpoints,
            filter,
            seq_mask: ConsequentMask::new(endpoints.seq_literals()),
            gate_mask: ConsequentMask::new(endpoints.gate_literals()),
            seq_antecedents: Vec::new(),
        }
    }

    /// Extracts the same-frame relations of one stem's two traces into
    /// `out`, skipping `repeated` frames.
    ///
    /// A relation must involve a sequential element, so the loop pairs every
    /// kept assignment of trace0 with the sequential assignments of trace1,
    /// then the sequential assignments of trace0 with the gate assignments
    /// of trace1. trace1's consequents are turned into masks once per frame;
    /// each antecedent then admits its row 64 candidates at a time. Set bits
    /// are emitted in ascending order, so the stream runs antecedents
    /// ascending by node and, per antecedent, consequents ascending by node.
    fn extract<T: TraceRead>(
        &mut self,
        trace0: &T,
        trace1: &T,
        repeated: &[bool],
        out: &mut Vec<(Implication, bool)>,
    ) {
        let endpoints = self.endpoints;
        let seq_literals = u32::try_from(endpoints.seq_literals()).expect("literals fit u32");
        for t in (0..repeated.len()).filter(|&t| !repeated[t]) {
            for (node, value) in trace1.binary_assignments(t) {
                match endpoints.slot(node) {
                    Slot::Seq(i) => self.seq_mask.set(2 * i + u32::from(value)),
                    Slot::Gate(g) => self.gate_mask.set(2 * g + u32::from(value)),
                    Slot::Excluded => {}
                }
            }
            let sequential = t > 0;
            // trace0 carries s=0, trace1 carries s=1:
            //   g1 = !v1  =>  s = 1  =>  g2 = v2.
            self.seq_antecedents.clear();
            for (g1, v1) in trace0.binary_assignments(t) {
                let antecedent = Literal::new(g1, !v1);
                let (code, own) = match endpoints.slot(g1) {
                    Slot::Seq(i) => {
                        let code = 2 * i + u32::from(!v1);
                        self.seq_antecedents.push(code);
                        // A node never relates to itself.
                        (code, Some(2 * i))
                    }
                    Slot::Gate(g) => (seq_literals + 2 * g + u32::from(!v1), None),
                    Slot::Excluded => continue,
                };
                let row = self.filter.seq_row(code);
                emit_row(
                    &mut self.filter,
                    row,
                    &self.seq_mask,
                    own,
                    antecedent,
                    |i| endpoints.seq[i],
                    sequential,
                    out,
                );
            }
            for &code in &self.seq_antecedents {
                let antecedent = Literal::new(endpoints.seq[(code / 2) as usize], code & 1 == 1);
                let row = self.filter.gate_row(code);
                emit_row(
                    &mut self.filter,
                    row,
                    &self.gate_mask,
                    None,
                    antecedent,
                    |g| endpoints.gate_node(g),
                    sequential,
                    out,
                );
            }
            self.seq_mask.clear();
            self.gate_mask.clear();
        }
    }
}

/// Admits one antecedent's row against the consequent `mask` (without the
/// two literals at `own`, the antecedent's own node) and emits the fresh
/// pairs in ascending consequent order. Consequent literal `2i + v` is node
/// `node_of(i)`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn emit_row(
    filter: &mut PairFilter,
    row: Row,
    mask: &ConsequentMask,
    own: Option<u32>,
    antecedent: Literal,
    node_of: impl Fn(usize) -> NodeId,
    sequential: bool,
    out: &mut Vec<(Implication, bool)>,
) {
    for &word in &mask.words {
        let mut candidates = mask.bits[word];
        if let Some(own) = own {
            let own = own as usize;
            if own / 64 == word {
                candidates &= !(0b11 << (own % 64));
            }
        }
        if candidates == 0 {
            continue;
        }
        let mut fresh = filter.admit_word(row, word, candidates, sequential);
        while fresh != 0 {
            let code = word * 64 + fresh.trailing_zeros() as usize;
            fresh &= fresh - 1;
            out.push((
                Implication::new(antecedent, Literal::new(node_of(code / 2), code & 1 == 1)),
                sequential,
            ));
        }
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
    let endpoints = Endpoints::new(netlist, class_mask);
    let frames = trace0.num_frames().min(trace1.num_frames());
    let repeated = repeated_frame_pairs(trace0, trace1, frames);
    PairLoop::new(&endpoints).extract(trace0, trace1, &repeated, &mut out);
    out
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

/// Runs single-node learning over `stems` using an already configured
/// simulator (equivalences, tied constants and the active clock class are
/// taken from the simulator state).
///
/// This is the scalar reference path — one forward simulation per stem
/// polarity. The learning engine uses [`run_sharded`], which produces the
/// same outcome from packed 64-lane passes; property tests assert the
/// equality. Both share the pair loop and the support transposition; the
/// property tests check the relation stream against an independent naive
/// pairing.
pub fn run(
    sim: &InjectionSim<'_>,
    stems: &[NodeId],
    options: &SimOptions,
    class_mask: Option<&[bool]>,
    learn_cross_frame: bool,
) -> SingleNodeOutcome {
    let netlist = sim.netlist();
    let endpoints = Endpoints::new(netlist, class_mask);
    let mut worker = ChunkWorker::new(netlist, &endpoints);
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
    worker.finish_chunk(&mut harvest);
    merge(&endpoints, [harvest])
}

/// What one worker harvested from one chunk of stems.
struct ChunkHarvest {
    implications: Vec<(Implication, bool)>,
    cross_frame: Vec<CrossImplication>,
    ties: Vec<TiedGate>,
    /// The chunk's support, key-major.
    support: SupportBlock,
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
            support: SupportBlock::default(),
            stems: 0,
            in_order,
        }
    }
}

/// A worker's private state: its pair loop (with the duplicate filter), the
/// tie dedupe marks, the support log, and how many chunks the filter has
/// seen.
struct ChunkWorker<'e> {
    pairs: PairLoop<'e>,
    /// Per-node "already tied by this stem" marks, all `false` between stems.
    tie_seen: Vec<bool>,
    /// The current chunk's support assignments.
    support_log: SupportLog,
    chunks_seen: usize,
}

impl<'e> ChunkWorker<'e> {
    fn new(netlist: &Netlist, endpoints: &'e Endpoints) -> Self {
        ChunkWorker {
            pairs: PairLoop::new(endpoints),
            tie_seen: vec![false; netlist.num_nodes()],
            support_log: SupportLog::default(),
            chunks_seen: 0,
        }
    }

    /// Transposes the chunk's support log into the harvest.
    fn finish_chunk(&mut self, harvest: &mut ChunkHarvest) {
        harvest.support = self.support_log.transpose();
        self.chunks_seen += 1;
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
    worker: &mut ChunkWorker<'_>,
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
    worker
        .pairs
        .extract(t0, t1, &repeated, &mut out.implications);
    if learn_cross_frame {
        out.cross_frame
            .extend(extract_cross_frame(netlist, stem, false, t0));
        out.cross_frame
            .extend(extract_cross_frame(netlist, stem, true, t1));
    }
    worker.support_log.record(netlist, stem, false, t0);
    worker.support_log.record(netlist, stem, true, t1);
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
/// private duplicate filter across the chunks it claims, and transposes
/// each chunk's support into a key-major block before handing the chunk
/// back. A chunk whose worker claimed every earlier chunk (always the case
/// on one worker) was filtered against the whole preceding stream, so its
/// implications are taken as they are; the ordered merge replays the stream
/// of every later chunk through one global filter.
pub fn run_sharded(
    sim: &InjectionSim<'_>,
    stems: &[NodeId],
    options: &SimOptions,
    class_mask: Option<&[bool]>,
    learn_cross_frame: bool,
    threads: usize,
) -> SingleNodeOutcome {
    let netlist = sim.netlist();
    let endpoints = Endpoints::new(netlist, class_mask);
    let chunks: Vec<&[NodeId]> = stems.chunks(STEMS_PER_BATCH).collect();
    let harvests = sla_par::run_indexed_with(
        &chunks,
        threads,
        |_worker| ChunkWorker::new(netlist, &endpoints),
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
            worker.finish_chunk(&mut harvest);
            harvest
        },
    );
    merge(&endpoints, harvests)
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
///
/// The support blocks are kept as they are; the merge only indexes them
/// per key (see [`SupportMap`]).
fn merge(
    endpoints: &Endpoints,
    harvests: impl IntoIterator<Item = ChunkHarvest>,
) -> SingleNodeOutcome {
    let mut merged = SingleNodeOutcome::default();
    let mut replay: Option<PairFilter> = None;
    let mut blocks = Vec::new();
    for harvest in harvests {
        if replay.is_none() && !harvest.in_order {
            let mut filter = PairFilter::new(endpoints);
            for &(imp, seq) in &merged.implications {
                filter.admit_implication(endpoints, imp, seq);
            }
            replay = Some(filter);
        }
        match &mut replay {
            None => merged.implications.extend(harvest.implications),
            Some(filter) => merged.implications.extend(
                harvest
                    .implications
                    .into_iter()
                    .filter(|&(imp, seq)| filter.admit_implication(endpoints, imp, seq)),
            ),
        }
        merged.cross_frame.extend(harvest.cross_frame);
        merged.ties.extend(harvest.ties);
        blocks.push(harvest.support);
        merged.stems_processed += harvest.stems;
    }
    merged.support = SupportMap::from_blocks(blocks);
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
        assert!(entries.iter().any(|entry| entry == (i2, false, 1)));
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
        let stems = sla_netlist::stems::fanout_stems(n);
        assert_sharded_matches_scalar_on(n, &stems, chunks_at_least);
    }

    /// [`assert_sharded_matches_scalar`] over the given stems.
    fn assert_sharded_matches_scalar_on(n: &Netlist, stems: &[NodeId], chunks_at_least: usize) {
        let sim = InjectionSim::new(n).unwrap();
        let chunks = stems.len().div_ceil(STEMS_PER_BATCH);
        assert!(chunks >= chunks_at_least, "{} stems", stems.len());
        let options = SimOptions::default();
        let reference = run(&sim, stems, &options, None, true);
        for threads in [1, 2, 3, 8] {
            let sharded = run_sharded(&sim, stems, &options, None, true, threads);
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

    /// Past the dense limit the pass takes the sparse duplicate filter; the
    /// sharded pass must still reproduce the scalar oracle.
    #[test]
    fn sparse_filter_sharded_run_matches_scalar_run() {
        let n = many_stems(400);
        assert!(n.num_nodes() > PairFilter::DENSE_NODE_LIMIT);
        let stems = sla_netlist::stems::fanout_stems(&n);
        assert_sharded_matches_scalar_on(&n, &stems[..4 * STEMS_PER_BATCH], 4);
    }

    /// The transposition keeps every key's entries in log order: it equals a
    /// stable sort of the logged `(key, entry)` pairs by key.
    #[test]
    fn support_transposition_is_a_stable_sort() {
        let n = many_stems(3);
        let sim = InjectionSim::new(&n).unwrap();
        let mut log = SupportLog::default();
        for stem in sla_netlist::stems::fanout_stems(&n) {
            let (t0, t1) = simulate_stem(&sim, stem, &SimOptions::default());
            log.record(&n, stem, false, &t0);
            log.record(&n, stem, true, &t1);
        }
        let mut pairs: Vec<(u32, PackedEntry)> = log
            .runs
            .iter()
            .flat_map(|&(entry, len)| std::iter::repeat_n(entry, len))
            .zip(&log.keys)
            .map(|(entry, &key)| (key, entry))
            .collect();
        pairs.sort_by_key(|&(key, _)| key);
        let flatten = |block: &SupportBlock| -> Vec<(u32, PackedEntry)> {
            (0u32..)
                .zip(&block.keys)
                .flat_map(|(pos, &key)| {
                    block.entries[block.range(pos)]
                        .iter()
                        .map(move |&e| (key, e))
                })
                .collect()
        };
        let block = log.transpose();
        assert!(block.keys.len() > 1 && block.entries.len() > block.keys.len());
        assert_eq!(flatten(&block), pairs);
        assert!(
            log.runs.is_empty() && log.keys.is_empty(),
            "the log is left empty"
        );
    }

    /// The relation stream of `pairs` over the traces of several stems.
    fn pair_stream<T: TraceRead>(
        pairs: &mut PairLoop<'_>,
        stems: &[(T, T)],
    ) -> Vec<(Implication, bool)> {
        let mut out = Vec::new();
        for (t0, t1) in stems {
            let frames = t0.num_frames().min(t1.num_frames());
            let repeated = repeated_frame_pairs(t0, t1, frames);
            pairs.extract(t0, t1, &repeated, &mut out);
        }
        out
    }

    /// The dense and the sparse duplicate filter admit the same stream: on
    /// hand-written traces that derive one pair sequentially, then
    /// combinationally (a downgrade, emitted again), then sequentially
    /// (suppressed), and on the simulated traces of every stem.
    #[test]
    fn dense_and_sparse_filters_admit_the_same_stream() {
        let n = sample();
        let [d1, f1, f2, ni2] = ["d1", "f1", "f2", "ni2"].map(|name| n.require(name).unwrap());
        let (x, zero, one) = (Logic3::X, Logic3::Zero, Logic3::One);
        let frame = |vals: &[(NodeId, Logic3)]| {
            let mut f = vec![x; n.num_nodes()];
            for &(node, v) in vals {
                f[node.index()] = v;
            }
            f
        };
        // s=0 side: d1, f1, f2 all 0; s=1 side: f1 = 1 and the gate ni2 = 1.
        let zeros = frame(&[(d1, zero), (f1, zero), (f2, zero)]);
        let ones = frame(&[(f1, one), (ni2, one)]);
        let empty = frame(&[]);
        let stems = [
            // Frame 1: every pair is new and sequential.
            (
                FixedTrace(vec![empty.clone(), zeros.clone()]),
                FixedTrace(vec![empty.clone(), ones.clone()]),
            ),
            // Frame 0: the same pairs combinationally — all emitted again.
            (
                FixedTrace(vec![zeros.clone()]),
                FixedTrace(vec![ones.clone()]),
            ),
            // Frame 2: sequential again — all suppressed.
            (
                FixedTrace(vec![empty.clone(), frame(&[(d1, one)]), zeros]),
                FixedTrace(vec![empty.clone(), frame(&[(ni2, zero)]), ones]),
            ),
        ];
        let endpoints = Endpoints::new(&n, None);
        let stream = |dense: bool| {
            let filter = PairFilter::with_dense(&endpoints, dense);
            pair_stream(&mut PairLoop::with_filter(&endpoints, filter), &stems)
        };
        let dense = stream(true);
        assert_eq!(dense, stream(false));
        let pair = |a: NodeId, va: bool, c: NodeId, vc: bool| {
            Implication::new(Literal::new(a, va), Literal::new(c, vc))
        };
        // Per frame, the first loop pairs d1 and f2 (never f1 with itself)
        // with f1, then the second loop pairs f1 and f2 with the gate ni2;
        // each loop's antecedents come in node order.
        let in_node_order = |mut imps: Vec<Implication>| {
            imps.sort_by_key(|imp| imp.antecedent.node);
            imps
        };
        let frame_stream = in_node_order(vec![pair(d1, true, f1, true), pair(f2, true, f1, true)])
            .into_iter()
            .chain(in_node_order(vec![
                pair(f1, true, ni2, true),
                pair(f2, true, ni2, true),
            ]));
        let expected: Vec<(Implication, bool)> = [true, false]
            .into_iter()
            .flat_map(|seq| frame_stream.clone().map(move |imp| (imp, seq)))
            .collect();
        assert_eq!(dense, expected);

        // Simulated traces of every stem of two netlists, with a class mask
        // on the second.
        for (net, masked) in [(sample(), false), (many_stems(3), true)] {
            let sim = InjectionSim::new(&net).unwrap();
            let traces: Vec<(Trace, Trace)> = sla_netlist::stems::fanout_stems(&net)
                .into_iter()
                .map(|stem| simulate_stem(&sim, stem, &SimOptions::default()))
                .collect();
            let mut mask = vec![true; net.num_nodes()];
            if let Some(s) = net.sequential_elements().next() {
                mask[s.index()] = !masked;
            }
            let endpoints = Endpoints::new(&net, Some(&mask));
            let stream = |dense: bool| {
                let filter = PairFilter::with_dense(&endpoints, dense);
                pair_stream(&mut PairLoop::with_filter(&endpoints, filter), &traces)
            };
            let dense = stream(true);
            assert!(!dense.is_empty());
            assert_eq!(dense, stream(false));
        }
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
