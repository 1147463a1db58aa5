//! Host-speed probe: a fixed kernel of the benchmark's own, timed next to
//! every measured phase so that phase times can be scaled to one host speed.
//!
//! On a shared virtual machine the program's speed swings with what other
//! tenants do to the shared caches and memory: phases of the pipeline and a
//! memory-bound kernel slowed together by 30–50% within a minute, while a
//! register-only integer loop stayed within 4%. So the clock rate is steady
//! and the memory system is not. The probe sorts a fresh 800 KB array of
//! pseudo-random words, which touches memory the way the pipeline's own
//! allocation-heavy phases do and shares none of its code, so no change to
//! the program moves it. A phase's scaled time is its wall time times
//! [`REFERENCE`] over the probe time measured just before and just after it.

use sla_netlist::wallclock;
use std::hint::black_box;
use std::time::Duration;

/// Words sorted by one probe call (800 KB).
const WORDS: usize = 100_000;

/// Probe calls per sample; the sample is their median.
const CALLS: usize = 3;

/// The median probe sample on the reference host (a 2-vCPU Intel Xeon VM,
/// Linux 6.18). Scaled times are the wall times that host would show at
/// that probe speed.
pub const REFERENCE: Duration = Duration::from_micros(1_800);

/// One probe call: fill and sort [`WORDS`] xorshift words.
fn kernel() -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut words: Vec<u64> = (0..WORDS)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect();
    words.sort_unstable();
    words.get(WORDS / 2).copied().unwrap_or(0)
}

/// Times [`CALLS`] probe calls and returns their median.
fn sample() -> Duration {
    let mut times: Vec<Duration> = (0..CALLS)
        .map(|_| {
            let start = wallclock::now();
            black_box(kernel());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times.get(CALLS / 2).copied().unwrap_or(REFERENCE)
}

/// `wall` scaled to the reference probe speed, from the probe samples taken
/// right before and right after it.
fn scale(wall: Duration, before: Duration, after: Duration) -> Duration {
    let probe = (before + after).as_secs_f64() / 2.0;
    if probe > 0.0 {
        wall.mul_f64(REFERENCE.as_secs_f64() / probe)
    } else {
        wall
    }
}

/// Measured work between two probe samples: a phase is probed after at
/// least this much of it and at its end, so a long phase follows the host's
/// speed through it.
const SEGMENT: Duration = Duration::from_millis(100);

/// A running probe. Work is added call by call; each segment of work is
/// scaled by the samples taken right before and right after it.
pub struct Clock {
    last: Duration,
    pending: Duration,
    scaled: Duration,
}

impl Clock {
    /// Starts the clock with a first sample.
    pub fn start() -> Clock {
        Clock {
            last: sample(),
            pending: Duration::ZERO,
            scaled: Duration::ZERO,
        }
    }

    /// Adds a call's wall time; probes once a segment has accumulated.
    pub fn add(&mut self, wall: Duration) {
        self.pending += wall;
        if self.pending >= SEGMENT {
            self.settle();
        }
    }

    fn settle(&mut self) {
        let next = sample();
        self.scaled += scale(self.pending, self.last, next);
        self.last = next;
        self.pending = Duration::ZERO;
    }

    /// Ends a phase: probes after the work still pending and returns the
    /// scaled time of everything added since the last `take`.
    pub fn take(&mut self) -> Duration {
        if self.pending > Duration::ZERO {
            self.settle();
        }
        std::mem::take(&mut self.scaled)
    }
}
