//! The host-speed probe: a slice of fixed work that has nothing to do with
//! this repository, timed between the benchmark's calls.
//!
//! The host this benchmark was sized on changes speed for minutes at a
//! time (README, "Noise"): identical passes of `steady` answered between
//! 13 k and 23 k queries a second within twenty minutes. Nothing measured
//! inside one invocation can average that out, but it can be measured:
//! the same state change slows this probe too. Each pass divides its
//! latencies by how much slower than the reference its own probe slices
//! ran, and the metrics are computed from those normalised latencies —
//! time as the reference host state would have measured it (raw numbers
//! stay in every result's `detail`).
//!
//! What makes a probe track the engine was found by running candidates
//! beside 2 700 identical passes. While the engine's time moved by
//! 30-40 %, a register-only multiply loop moved 5-12 %, chains of
//! dependent loads over 2 and 16 MiB 3-4 %, cold stores not at all, a
//! sort with binary searches in 64 KiB half as much as the engine — and
//! a short `memmove` of memory that has left the core's own caches as
//! much as the engine. The engine's 50 MB of window, index and samples do
//! not fit those caches either; how fast a burst of misses comes back is
//! what changes, and a cold 8 KiB copy times that. Dividing by it left
//! 4-6 % between medians of nine passes where the sort left 6 % and no
//! division 11-16 %. (An allocate-fill-free kernel tracked better still,
//! but runs through the allocator the engine's own allocations shape.)

use std::hint::black_box;
use std::time::Instant;

/// What one slice takes in the state the sizing host is usually in. A
/// pass whose median slice takes this long has a factor of 1 and reports
/// its times as measured.
pub const REFERENCE_SLICE_NS: f64 = 1_400.0;

/// Bytes one slice copies, and the ring it walks through: 128 slices pass
/// before a line is touched again, by which time the engine has pushed
/// it out of the 4 MiB second-level cache many times over.
const COPY: usize = 8 << 10;
const RING: usize = 2 << 20;

pub struct Probe {
    ring: Vec<u8>,
    at: usize,
}

/// The slices of one phase of a pass, summed up: their median duration
/// (a slice the scheduler interrupted must not count for a hundred) and
/// how many there were.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    pub median_ns: u64,
    pub slices: u64,
}

impl Sample {
    pub fn of(slice_ns: &mut [u64]) -> Sample {
        slice_ns.sort_unstable();
        Sample {
            median_ns: slice_ns.get(slice_ns.len() / 2).copied().unwrap_or(0),
            slices: slice_ns.len() as u64,
        }
    }

    /// How much slower than the reference the host ran (1 when nothing
    /// was sampled, so an unprobed series passes through unchanged).
    pub fn factor(&self) -> f64 {
        if self.slices == 0 {
            1.0
        } else {
            self.median_ns as f64 / REFERENCE_SLICE_NS
        }
    }
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            // Written, not just reserved, so every page is resident
            // before the first slice is timed.
            ring: (0..RING).map(|i| i as u8).collect(),
            at: 0,
        }
    }

    /// Runs one slice — copy the next 8 KiB of the ring onto the 8 KiB
    /// after it — and appends its duration.
    pub fn slice(&mut self, slice_ns: &mut Vec<u64>) {
        let at = self.at;
        self.at = (at + 2 * COPY) % RING;
        let start = Instant::now();
        self.ring.copy_within(at..at + COPY, at + COPY);
        black_box(&mut self.ring[at + COPY]);
        slice_ns.push(start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_walk_the_ring_and_sum_up_by_their_median() {
        let mut probe = Probe::new();
        let mut times = Vec::new();
        for _ in 0..RING / (2 * COPY) + 3 {
            probe.slice(&mut times);
        }
        // Once round the ring and three slices on, without leaving it.
        assert_eq!(probe.at, 3 * 2 * COPY);
        assert_eq!(times.len(), RING / (2 * COPY) + 3);
        // Each slice moved its source block one block on.
        assert_eq!(probe.ring[COPY..2 * COPY], probe.ring[..COPY]);
        let sample = Sample::of(&mut [2_000, 1_000, 9_000_000, 900, 1_100]);
        assert_eq!((sample.median_ns, sample.slices), (1_100, 5));
        assert_eq!(sample.factor(), 1_100.0 / REFERENCE_SLICE_NS);
        assert_eq!(Sample::of(&mut []).factor(), 1.0);
        assert_eq!(Sample::default().factor(), 1.0);
    }
}
