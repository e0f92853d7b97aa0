//! A speed reference for the host, measured beside the statements.
//!
//! The sandbox this benchmark runs on is a small virtual machine whose
//! speed moves in phases that last minutes: the same binary on the same
//! inputs reads 10–35 % slower in a slow phase, in every statement class and
//! down to the tenth percentile, so neither longer runs nor medians over
//! processes remove it. What removes about half of it is a fixed piece of
//! work of the benchmark's own — no product code, so no change to the
//! product can move it — timed at the start of every round: sorting 4096
//! pseudo-random words and filling a 1024-entry hash map, 60 µs. Each child
//! divides its end-to-end times by `its median calibration ÷ REFERENCE_US`.
//!
//! Measured on 30 runs per workload that crossed a slow phase: between two
//! consecutive sets of ten runs the median of a statement class moved by up
//! to 34 % as measured and by up to 13 % scaled; within a set of ten the
//! quartile distance was up to 26 % of the median as measured, up to 16 %
//! scaled. The scaling is not exact — in a slow phase the calibration work
//! slows by 30 %, `point` and `whatif` by 20 %, `repair` by 6 % — which is
//! why the bounds in `metrics.rs` are wide.

use std::collections::HashMap;
use std::time::Instant;

/// What the calibration work takes on the reference host in a quiet phase.
/// End-to-end times read as microseconds at this speed.
pub const REFERENCE_US: f64 = 60.0;

/// The calibration work, with its buffers: they are allocated once, so
/// that the allocator's state, which differs from process to process, is
/// not part of what is timed.
pub struct Calibration {
    words: Vec<u64>,
    index: HashMap<u64, usize>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            words: Vec::with_capacity(4096),
            index: HashMap::with_capacity(1024),
        }
    }

    /// Do the work once and return how long it took, in µs.
    pub fn measure_us(&mut self) -> f64 {
        let t = Instant::now();
        self.words.clear();
        self.index.clear();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        self.words.extend((0..4096).map(|_| {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }));
        self.words.sort_unstable();
        for (i, w) in self.words.iter().enumerate().take(1024) {
            self.index.insert(*w, i);
        }
        std::hint::black_box((&self.words, &self.index));
        t.elapsed().as_secs_f64() * 1e6
    }
}
