//! Output checks: comparable views of the pipeline's outputs, the pinned
//! digest and the independent re-simulation audit. None of this runs inside
//! a timed region.

use sla_atpg::{AtpgRun, FaultStatus, LearnedData};
use sla_netlist::{FastHasher, Netlist, NetlistError};
use sla_sim::{Fault, FaultSimulator};
use sla_store::proto::Summary;
use std::hash::Hasher;

/// Everything a learning step hands to ATPG, in a comparable form: the
/// learned database in insertion order, the ties and the cross-frame
/// relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnedView {
    /// `(relation, sequential)` in database insertion order.
    pub db: Vec<String>,
    /// Tied gates as `(node, value)`.
    pub tied: Vec<String>,
    /// Cross-frame relations in canonical order.
    pub cross: Vec<String>,
}

impl LearnedView {
    /// Captures `learned`.
    pub fn of(learned: &LearnedData) -> LearnedView {
        LearnedView {
            db: learned
                .implications()
                .iter()
                .map(|(imp, seq)| format!("{imp:?}/{seq}"))
                .collect(),
            tied: learned.tied().iter().map(|t| format!("{t:?}")).collect(),
            cross: learned
                .cross_frame()
                .iter()
                .map(|c| format!("{c:?}"))
                .collect(),
        }
    }
}

/// The thread-invariant part of an ATPG run: verdicts, sequences and the
/// deterministic counters. Wall time and wasted speculations are left out —
/// they depend on the host and the thread count by design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunView {
    /// Per-fault verdicts.
    pub status: Vec<FaultStatus>,
    /// Test sequences, rendered.
    pub sequences: Vec<String>,
    /// `(backtracks, decisions, test_vectors, untestable_from_ties, budget_spent)`.
    pub counters: (usize, usize, usize, usize, u64),
}

impl RunView {
    /// Captures `run`.
    pub fn of(run: &AtpgRun) -> RunView {
        RunView {
            status: run.status.clone(),
            sequences: run.sequences.iter().map(|s| format!("{s:?}")).collect(),
            counters: (
                run.stats.backtracks,
                run.stats.decisions,
                run.stats.test_vectors,
                run.stats.untestable_from_ties,
                run.stats.budget_spent,
            ),
        }
    }
}

/// One served (or replayed) request: the verdict stream and the summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// `(fault index, verdict)` in stream order.
    pub verdicts: Vec<(u32, FaultStatus)>,
    /// The closing summary frame.
    pub summary: Summary,
}

/// Order-sensitive digest of rendered outputs.
#[derive(Default)]
pub struct Digest(FastHasher);

impl Digest {
    /// Folds one rendered item into the digest.
    pub fn add(&mut self, item: &str) {
        self.0.write(item.as_bytes());
        self.0.write_u8(0xff);
    }

    /// Folds a learning output.
    pub fn add_learned(&mut self, view: &LearnedView) {
        for item in view.db.iter().chain(&view.tied).chain(&view.cross) {
            self.add(item);
        }
    }

    /// Folds an ATPG output.
    pub fn add_run(&mut self, view: &RunView) {
        for status in &view.status {
            self.add(&format!("{status:?}"));
        }
        for seq in &view.sequences {
            self.add(seq);
        }
        self.add(&format!("{:?}", view.counters));
    }

    /// Folds a served stream.
    pub fn add_served(&mut self, served: &Served) {
        self.add(&format!("{:?}", served.verdicts));
        self.add(&format!("{:?}", served.summary));
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Independent audit of `Detected` verdicts: every fault the run reports
/// detected must be detected again by plain fault simulation of the run's
/// own test sequences. Returns the number of detected faults no sequence
/// re-detects (0 on a sound run).
pub fn audit_detected(
    netlist: &Netlist,
    faults: &[Fault],
    run: &AtpgRun,
) -> Result<usize, NetlistError> {
    let sim = FaultSimulator::new(netlist)?;
    let mut pending: Vec<Fault> = faults
        .iter()
        .zip(&run.status)
        .filter(|(_, s)| **s == FaultStatus::Detected)
        .map(|(f, _)| *f)
        .collect();
    for sequence in &run.sequences {
        if pending.is_empty() {
            break;
        }
        let hit = sim.detected_faults(&pending, sequence);
        pending = pending
            .into_iter()
            .zip(hit)
            .filter(|(_, h)| !h)
            .map(|(f, _)| f)
            .collect();
    }
    Ok(pending.len())
}

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 100.0);
        assert_eq!(quantile(&v, 0.95), 190.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.add("x");
        a.add("y");
        let mut b = Digest::default();
        b.add("y");
        b.add("x");
        assert_ne!(a.finish(), b.finish());
    }
}
