//! Property tests for the packed 64-wide simulation backbone: on random
//! netlists and random injection batches, the packed kernel must agree exactly
//! with the scalar three-valued reference paths.

use proptest::prelude::*;
use seqlearn::circuits::{synthesize, SynthConfig};
use seqlearn::learn::{multi_node, single_node};
use seqlearn::netlist::stems::fanout_stems;
use seqlearn::netlist::{Netlist, NodeId};
use seqlearn::sim::{
    collapsed_fault_list, eval_gate3, eval_gate3x64, find_equivalences, EquivConfig,
    FaultSimulator, Injection, InjectionSim, Logic3, PackedTraces, PackedWord, SimOptions,
    TestSequence, TraceRead,
};

fn small_synth(seed: u64, flip_flops: usize, gates: usize) -> Netlist {
    synthesize(&SynthConfig {
        name: format!("packed{seed}"),
        inputs: 4,
        outputs: 3,
        flip_flops,
        gates,
        max_fanin: 3,
        seed,
    })
}

/// Deterministic value stream for building random injection jobs.
struct Bits(u64);

impl Bits {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// Random injection jobs plus two fixed lanes: `jobs[0]` injects both
/// values on one node at frame 0 (a conflicting lane), `jobs[1]` injects
/// nothing (from the all-X state, three-valued simulation is monotone, so
/// with fewer flip-flops than frames its state must repeat).
fn lane_accessor_jobs(netlist: &Netlist, bits: &mut Bits, random: usize) -> Vec<Vec<Injection>> {
    let n = netlist.num_nodes() as u64;
    let victim = NodeId((bits.next() % n) as u32);
    let mut jobs = vec![
        vec![
            Injection::new(victim, false, 0),
            Injection::new(victim, true, 0),
        ],
        Vec::new(),
    ];
    jobs.extend((0..random).map(|_| {
        (0..1 + bits.next() % 3)
            .map(|_| {
                Injection::new(
                    NodeId((bits.next() % n) as u32),
                    bits.next().is_multiple_of(2),
                    (bits.next() % 4) as usize,
                )
            })
            .collect::<Vec<_>>()
    }));
    jobs
}

/// Every frame-wide `LaneTrace` accessor, which reads the lane's decoded
/// assignment list, equals the same accessor on the lane unpacked from the
/// packed words.
fn assert_lane_accessors_match(batch: &PackedTraces) {
    for lane in 0..batch.lanes() {
        let view = batch.lane(lane);
        let unpacked = batch.to_trace(lane);
        let frames = view.num_frames();
        prop_assert_eq!(frames, TraceRead::num_frames(&unpacked), "lane {}", lane);
        prop_assert_eq!(view.conflict(), unpacked.conflict, "lane {}", lane);
        prop_assert_eq!(view.repeated(), unpacked.repeated, "lane {}", lane);
        for t in 0..frames {
            let decoded: Vec<(NodeId, bool)> = view.binary_assignments(t).collect();
            let reference: Vec<(NodeId, bool)> = unpacked.binary_assignments(t).collect();
            prop_assert_eq!(decoded, reference, "lane {} frame {}", lane, t);
            for a in 0..frames {
                let equal = unpacked.frames_equal(t, a);
                prop_assert_eq!(view.frames_equal(t, a), equal, "lane {} {}~{}", lane, t, a);
                if equal {
                    prop_assert_eq!(view.frame_fingerprint(t), view.frame_fingerprint(a));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lane accessors agree with the unpacked lane on repeat-stopping runs,
    /// including a conflicting and a repeat-stopped lane in every batch.
    #[test]
    fn lane_accessors_match_unpacked_lanes(
        seed in 0u64..400,
        flip_flops in 1usize..6,
        gates in 6usize..30,
        random in 0usize..40,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let mut sim = InjectionSim::new(&netlist).unwrap();
        sim.set_equivalences(find_equivalences(&netlist, &EquivConfig::default()).unwrap());
        let mut bits = Bits(seed + 29);
        let jobs = lane_accessor_jobs(&netlist, &mut bits, random);
        let slices: Vec<&[Injection]> = jobs.iter().map(|j| j.as_slice()).collect();
        let options = SimOptions {
            max_frames: 8,
            stop_on_repeat: true,
            respect_seq_rules: true,
        };
        let batch = sim.run_batch_packed(&slices, &options);
        prop_assert!(batch.lane(0).conflict().is_some(), "lane 0 must conflict");
        prop_assert!(batch.lane(1).repeated(), "lane 1 must repeat-stop");
        assert_lane_accessors_match(&batch);
    }

    /// The same under per-lane frame limits (including a zero limit), as
    /// multiple-node learning packs its targets.
    #[test]
    fn lane_accessors_match_unpacked_lanes_under_limits(
        seed in 0u64..400,
        flip_flops in 1usize..6,
        gates in 6usize..30,
        random in 0usize..40,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let sim = InjectionSim::new(&netlist).unwrap();
        let mut bits = Bits(seed + 31);
        let jobs = lane_accessor_jobs(&netlist, &mut bits, random);
        let slices: Vec<&[Injection]> = jobs.iter().map(|j| j.as_slice()).collect();
        let mut limits: Vec<usize> = (0..jobs.len()).map(|_| (bits.next() % 7) as usize).collect();
        limits[0] = limits[0].max(1);
        limits[1] = 0;
        let options = SimOptions {
            max_frames: 6,
            stop_on_repeat: false,
            respect_seq_rules: true,
        };
        let batch = sim.run_batch_with_limits_packed(&slices, &options, &limits);
        prop_assert!(batch.lane(0).conflict().is_some(), "lane 0 must conflict");
        prop_assert_eq!(batch.lane(1).num_frames(), 0);
        assert_lane_accessors_match(&batch);
    }

    /// Lane-wise packed gate evaluation equals the scalar three-valued
    /// evaluation for every gate type over random packed operands.
    #[test]
    fn packed_gate_eval_matches_scalar(seed in 0u64..1000, arity in 1usize..4) {
        let mut bits = Bits(seed.wrapping_mul(0x9e3779b97f4a7c15) + 1);
        let fanins: Vec<PackedWord> = (0..arity)
            .map(|_| {
                let a = bits.next();
                let b = bits.next();
                // Disjoint planes: `one` wins where both bits are set.
                PackedWord { one: a, zero: b & !a }
            })
            .collect();
        for gate in seqlearn::netlist::GateType::ALL {
            let packed = eval_gate3x64(gate, &fanins);
            prop_assert_eq!(packed.zero & packed.one, 0, "planes must stay disjoint");
            for lane in [0usize, 1, 17, 40, 63] {
                let scalar = eval_gate3(gate, fanins.iter().map(|w| w.get(lane)));
                prop_assert_eq!(packed.get(lane), scalar, "{} lane {}", gate, lane);
            }
        }
    }

    /// `run_batch_packed` produces, lane for lane, exactly the trace the scalar
    /// `run` produces for the same injection job — frames, values, conflicts
    /// and state-repeat flags — on random netlists and random multi-frame
    /// injection batches.
    #[test]
    fn run_batch_matches_scalar_runs(
        seed in 0u64..400,
        flip_flops in 1usize..6,
        gates in 6usize..30,
        jobs in 1usize..20,
        with_equiv in proptest::strategy::Just(true),
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let mut sim = InjectionSim::new(&netlist).unwrap();
        if with_equiv {
            let classes = find_equivalences(&netlist, &EquivConfig::default()).unwrap();
            sim.set_equivalences(classes);
        }
        let mut bits = Bits(seed + 7);
        let n = netlist.num_nodes() as u64;
        let injections: Vec<Vec<Injection>> = (0..jobs)
            .map(|_| {
                (0..1 + bits.next() % 3)
                    .map(|_| {
                        Injection::new(
                            NodeId((bits.next() % n) as u32),
                            bits.next().is_multiple_of(2),
                            (bits.next() % 6) as usize,
                        )
                    })
                    .collect()
            })
            .collect();
        let job_slices: Vec<&[Injection]> = injections.iter().map(|j| j.as_slice()).collect();
        let options = SimOptions {
            max_frames: 8,
            stop_on_repeat: true,
            respect_seq_rules: true,
        };
        let batch = sim.run_batch_packed(&job_slices, &options);
        prop_assert_eq!(batch.lanes(), jobs);
        for (lane, job) in job_slices.iter().enumerate() {
            let scalar = sim.run(job, &options);
            prop_assert_eq!(batch.to_trace(lane), scalar, "lane trace differs for {:?}", job);
        }
    }

    /// Per-lane frame limits behave exactly like per-job `max_frames`.
    #[test]
    fn run_batch_limits_match_per_job_max_frames(
        seed in 0u64..200,
        flip_flops in 1usize..5,
        gates in 6usize..24,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let sim = InjectionSim::new(&netlist).unwrap();
        let mut bits = Bits(seed + 13);
        let n = netlist.num_nodes() as u64;
        let injections: Vec<Vec<Injection>> = (0..8)
            .map(|_| {
                vec![Injection::new(
                    NodeId((bits.next() % n) as u32),
                    bits.next().is_multiple_of(2),
                    (bits.next() % 3) as usize,
                )]
            })
            .collect();
        let job_slices: Vec<&[Injection]> = injections.iter().map(|j| j.as_slice()).collect();
        let limits: Vec<usize> = (0..8).map(|_| (bits.next() % 7) as usize).collect();
        let options = SimOptions {
            max_frames: 6,
            stop_on_repeat: false,
            respect_seq_rules: true,
        };
        let batch = sim.run_batch_with_limits_packed(&job_slices, &options, &limits);
        for (lane, (job, &limit)) in job_slices.iter().zip(&limits).enumerate() {
            let scalar = sim.run(
                job,
                &SimOptions {
                    max_frames: limit.min(options.max_frames),
                    ..options
                },
            );
            prop_assert_eq!(batch.to_trace(lane), scalar);
        }
    }

    /// Batched single-node learning produces exactly the scalar outcome at
    /// every thread count — relations (with flags and order), ties,
    /// cross-frame relations, the support map — on random netlists, with and
    /// without a class mask.
    #[test]
    fn batched_single_node_learning_matches_scalar(
        seed in 0u64..300,
        flip_flops in 2usize..7,
        gates in 8usize..40,
        mask_out in 0usize..4,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let mut sim = InjectionSim::new(&netlist).unwrap();
        let classes = find_equivalences(&netlist, &EquivConfig::default()).unwrap();
        sim.set_equivalences(classes);
        let stems = fanout_stems(&netlist);
        let options = SimOptions::default();
        // Optionally mask out one sequential element to exercise class masks.
        let mask: Option<Vec<bool>> = if mask_out > 0 {
            let mut m = vec![true; netlist.num_nodes()];
            if let Some(s) = netlist.sequential_elements().nth(mask_out - 1) {
                m[s.index()] = false;
            }
            Some(m)
        } else {
            None
        };
        let scalar = single_node::run(&sim, &stems, &options, mask.as_deref(), true);
        for threads in [1, 2, 3, 8] {
            let batched =
                single_node::run_sharded(&sim, &stems, &options, mask.as_deref(), true, threads);
            prop_assert_eq!(&scalar.implications, &batched.implications, "t={}", threads);
            prop_assert_eq!(&scalar.ties, &batched.ties, "t={}", threads);
            prop_assert_eq!(&scalar.cross_frame, &batched.cross_frame, "t={}", threads);
            prop_assert_eq!(&scalar.support, &batched.support, "t={}", threads);
            prop_assert_eq!(scalar.stems_processed, batched.stems_processed, "t={}", threads);
        }
    }

    /// Batched multiple-node learning — including its tie-restart protocol —
    /// produces exactly the scalar outcome at every thread count and leaves
    /// the simulator with the same tied set.
    #[test]
    fn batched_multi_node_learning_matches_scalar(
        seed in 0u64..300,
        flip_flops in 2usize..7,
        gates in 8usize..40,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let base = InjectionSim::new(&netlist).unwrap();
        let stems = fanout_stems(&netlist);
        let options = SimOptions::default();
        let single = single_node::run(&base, &stems, &options, None, false);
        let mut scalar_sim = InjectionSim::new(&netlist).unwrap();
        let scalar = multi_node::run(&mut scalar_sim, &single.support, &options, None, 0, true);
        for threads in [1, 2, 3, 8] {
            let mut batched_sim = InjectionSim::new(&netlist).unwrap();
            let batched = multi_node::run_sharded(
                &mut batched_sim,
                &single.support,
                &options,
                None,
                0,
                true,
                threads,
            );
            prop_assert_eq!(&scalar.implications, &batched.implications, "t={}", threads);
            prop_assert_eq!(&scalar.ties, &batched.ties, "t={}", threads);
            prop_assert_eq!(&scalar.cross_frame, &batched.cross_frame, "t={}", threads);
            prop_assert_eq!(scalar.targets_processed, batched.targets_processed, "t={}", threads);
            prop_assert_eq!(scalar_sim.tied(), batched_sim.tied(), "t={}", threads);
        }
    }

    /// Word-parallel fault dropping classifies every fault exactly like the
    /// serial single-fault simulation.
    #[test]
    fn packed_fault_dropping_matches_serial_detection(
        seed in 0u64..300,
        flip_flops in 1usize..6,
        gates in 8usize..40,
        frames in 1usize..5,
    ) {
        let netlist = small_synth(seed, flip_flops, gates);
        let sim = FaultSimulator::new(&netlist).unwrap();
        let faults = collapsed_fault_list(&netlist);
        let mut bits = Bits(seed + 41);
        let vectors: Vec<Vec<Logic3>> = (0..frames)
            .map(|_| {
                (0..netlist.inputs().len())
                    .map(|_| match bits.next() % 3 {
                        0 => Logic3::Zero,
                        1 => Logic3::One,
                        _ => Logic3::X,
                    })
                    .collect()
            })
            .collect();
        let sequence = TestSequence::new(vectors);
        let bulk = sim.detected_faults(&faults, &sequence);
        for (fault, &detected) in faults.iter().zip(&bulk) {
            prop_assert_eq!(
                sim.detects(fault, &sequence),
                detected,
                "{} mismatches",
                fault.describe(&netlist)
            );
        }
    }
}
