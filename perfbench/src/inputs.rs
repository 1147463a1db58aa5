//! Workload inputs: the designs as `.bench` text, their fault lists by site
//! name, the learning and ATPG options, and the seeded request schedule.
//!
//! Everything here is set-up: it runs before any timed region and its cost is
//! reported as `setup_s`. The program under test only ever sees the generated
//! text and fault names, exactly as a user or a service client would send them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sla_atpg::{AtpgOptions, LearningMode, WorkBudget};
use sla_circuits::profiles::{build_profile, profile_by_name};
use sla_circuits::{
    industrial_circuit, retimed_circuit, scale_circuit, table5_circuit, IndustrialConfig,
    RetimedConfig, ScaleConfig, Table5Config,
};
use sla_core::LearnOptions;
use sla_netlist::writer::write_bench;
use sla_netlist::Netlist;
use sla_sim::collapsed_fault_list;
use sla_store::proto::{fault_specs, FaultSpec};

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table-3-style learning sweep over synthesized and industrial circuits.
    LearnTable3,
    /// Table-5-style ATPG on the scaled cross-cell `table5_circuit`.
    AtpgTable5,
    /// Closed-loop traffic against an `sla-serve` child.
    ServeMixed,
    /// The 2^20-gate layered circuit through the text front end.
    IngestScale,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::LearnTable3,
        Kind::AtpgTable5,
        Kind::ServeMixed,
        Kind::IngestScale,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LearnTable3 => "learn_table3",
            Kind::AtpgTable5 => "atpg_table5",
            Kind::ServeMixed => "serve_mixed",
            Kind::IngestScale => "ingest_scale",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One design as the program receives it.
#[derive(Debug, Clone)]
pub struct Design {
    /// Netlist name.
    pub name: String,
    /// `.bench` text, in generator order.
    pub bench: String,
    /// Target faults by site name, in generator order.
    pub faults: Vec<FaultSpec>,
}

/// A workload's complete input set.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The designs, in pipeline order.
    pub designs: Vec<Design>,
    /// Learning configuration of every design.
    pub learn: LearnOptions,
    /// ATPG configuration of every design.
    pub atpg: AtpgOptions,
    /// Served requests as design indices; empty unless the workload serves.
    pub schedule: Vec<usize>,
    /// Capacity of the server's learned store.
    pub store_capacity: usize,
    /// Whether the inputs depend on the seed; outputs of seed-invariant
    /// inputs are pinned for every seed.
    pub seeded: bool,
}

/// Requests per served pass. Each pass starts a fresh server with an empty
/// store, so the first requests of every pass miss.
pub const REQUESTS_PER_PASS: usize = 80;

/// The design as the program receives it: `.bench` text in generator order
/// and the faults by site name.
fn design(netlist: &Netlist, faults: &[sla_sim::Fault]) -> Design {
    Design {
        name: netlist.name().to_string(),
        bench: write_bench(netlist),
        faults: fault_specs(netlist, faults),
    }
}

/// `count` faults evenly strided over the collapsed list.
fn fault_sample(netlist: &Netlist, count: usize) -> Vec<sla_sim::Fault> {
    let all = collapsed_fault_list(netlist);
    let stride = (all.len() / count).max(1);
    all.into_iter().step_by(stride).take(count).collect()
}

/// The ATPG configuration of the paper's Table 5 with learning on.
fn table5_atpg() -> AtpgOptions {
    AtpgOptions::builder()
        .backtrack_limit(100)
        .learning(LearningMode::ForbiddenValue)
        .fault_dropping(true)
        .build()
}

/// Builds the inputs of `kind` for `seed`. `tiny` shrinks every design so a
/// whole run takes well under a second of work (the benchmark's own tests).
pub fn build(kind: Kind, seed: u64, tiny: bool) -> Inputs {
    match kind {
        Kind::LearnTable3 => learn_table3(tiny),
        Kind::AtpgTable5 => atpg_table5(tiny),
        Kind::ServeMixed => serve_mixed(seed, tiny),
        Kind::IngestScale => ingest_scale(tiny),
    }
}

/// Seed-invariant: the circuits are the canonical Table-3 generator outputs.
/// On circuits this small, another generator seed or declaration order moves
/// learning cost by up to 3x and search cost by 20%, which would swamp every
/// bound; the seed drives the `serve_mixed` request schedule.
fn learn_table3(tiny: bool) -> Inputs {
    let scale = if tiny { 0.1 } else { 1.0 };
    let profile = |name: &str| profile_by_name(name).expect("Table-3 profile exists");
    let (ind_ffs, ind_gates) = if tiny { (12, 120) } else { (75, 750) };
    let circuits = [
        build_profile(profile("s1423"), scale),
        build_profile(profile("s5378"), 0.5 * scale),
        build_profile(profile("s9234"), 0.25 * scale),
        industrial_circuit(&IndustrialConfig::sized(
            "industrial",
            ind_ffs,
            ind_gates,
            23,
        )),
    ];
    // A two-fault probe per circuit gives the learned relations an ATPG
    // consumer without letting search outweigh learning: at four faults the
    // probe took a third of the traced time.
    let designs = circuits
        .iter()
        .map(|n| design(n, &fault_sample(n, 2)))
        .collect();
    Inputs {
        designs,
        learn: LearnOptions::default(),
        atpg: table5_atpg(),
        schedule: Vec::new(),
        store_capacity: 8,
        seeded: false,
    }
}

/// Seed-invariant for the reason given at [`learn_table3`]; the generator
/// takes no seed anyway.
fn atpg_table5(tiny: bool) -> Inputs {
    let (cells, cross_cells) = if tiny { (2, 1) } else { (12, 6) };
    let netlist = table5_circuit(&Table5Config {
        cells,
        cross_cells,
        ..Table5Config::with_cross_cells(cross_cells)
    });
    let faults = collapsed_fault_list(&netlist);
    Inputs {
        designs: vec![design(&netlist, &faults)],
        learn: LearnOptions::builder().cross_frame(true).build(),
        atpg: table5_atpg(),
        schedule: Vec::new(),
        store_capacity: 8,
        seeded: false,
    }
}

/// The served design pool: table5 variants (mux-stack invariants the learner
/// proves) and retimed variants (invalid-state relations), all small enough
/// that one request costs tens of milliseconds.
fn serve_pool(tiny: bool) -> Vec<Netlist> {
    let mut pool = Vec::new();
    for (i, (cells, cross, layers)) in [
        (2, 0, 2),
        (2, 1, 2),
        (3, 0, 2),
        (2, 0, 3),
        (3, 1, 2),
        (2, 1, 3),
        (4, 0, 2),
        (3, 0, 3),
    ]
    .into_iter()
    .enumerate()
    {
        pool.push(table5_circuit(&Table5Config {
            name: format!("t5v{i}"),
            cells,
            cross_cells: cross,
            select_layers: layers,
            ..Table5Config::default()
        }));
    }
    for (i, (ffs, gates)) in [
        (6, 40),
        (8, 40),
        (6, 60),
        (8, 60),
        (10, 50),
        (12, 50),
        (10, 70),
        (12, 70),
    ]
    .into_iter()
    .enumerate()
    {
        pool.push(retimed_circuit(&RetimedConfig::sized(
            &format!("rtv{i}"),
            ffs,
            gates,
            101 + i as u64,
        )));
    }
    if tiny {
        // The first two table5 variants and the first retimed variant.
        pool = pool
            .into_iter()
            .enumerate()
            .filter(|(i, _)| [0, 1, 8].contains(i))
            .map(|(_, n)| n)
            .collect();
    }
    pool
}

fn serve_mixed(seed: u64, tiny: bool) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = serve_pool(tiny);
    let designs: Vec<Design> = pool
        .iter()
        .map(|n| design(n, &collapsed_fault_list(n)))
        .collect();
    // Skewed popularity: design `i` is requested with weight 1/(i+1), and the
    // seed permutes which design holds which rank.
    let mut rank: Vec<usize> = (0..designs.len()).collect();
    for i in (1..rank.len()).rev() {
        rank.swap(i, rng.gen_range(0..=i));
    }
    let weights: Vec<u64> = (0..designs.len())
        .map(|i| 720_720 / (i as u64 + 1))
        .collect();
    let total: u64 = weights.iter().sum();
    let requests = if tiny { 12 } else { REQUESTS_PER_PASS };
    let schedule = (0..requests)
        .map(|_| {
            let mut pick = rng.gen::<u64>() % total;
            let mut i = 0;
            while pick >= weights[i] {
                pick -= weights[i];
                i += 1;
            }
            rank[i]
        })
        .collect();
    Inputs {
        designs,
        learn: LearnOptions::builder().cross_frame(true).build(),
        atpg: AtpgOptions::builder()
            .backtrack_limit(20)
            .learning(LearningMode::ForbiddenValue)
            .build(),
        schedule,
        store_capacity: if tiny { 2 } else { 8 },
        seeded: true,
    }
}

/// Seed-invariant for the reason given at [`learn_table3`]: between generator
/// seeds the budgeted learning on this circuit moved by 35% and its peak
/// resident set by 20%.
fn ingest_scale(tiny: bool) -> Inputs {
    let config = if tiny {
        ScaleConfig::sized("scale4k", 1 << 12, 16, 1)
    } else {
        ScaleConfig::million(1)
    };
    let netlist = scale_circuit(&config);
    let mut faults = collapsed_fault_list(&netlist);
    faults.truncate(1);
    let design = design(&netlist, &faults);
    drop(netlist);
    Inputs {
        designs: vec![design],
        // Budgeted like the CI large-circuit smoke: gate-equivalence sweeps
        // every gate before any budget applies, so it is off at this scale.
        learn: LearnOptions::builder()
            .budget(WorkBudget::units(8))
            .gate_equivalence(false)
            .max_frames(8)
            .build(),
        atpg: AtpgOptions::builder()
            .backtrack_limit(8)
            .budget(WorkBudget::units(50_000))
            .build(),
        schedule: Vec::new(),
        store_capacity: 8,
        seeded: false,
    }
}
