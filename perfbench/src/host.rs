//! Host-speed normalisation of the end-to-end times of the in-process
//! workloads (`paper_spill`, `paper_resident`, `par_chain`).
//!
//! The benchmark runs on shared hosts whose speed drifts by a fifth or more
//! from one minute to the next: the neighbours' load, not this program,
//! moves every time of a run together. So a fixed reference kernel (code of
//! the benchmark's own: a sort and a hash-table fill over pseudo-random
//! integers, in memory allocated once) runs after every measured statement
//! and set-up, and every end-to-end time is reported at the reference
//! speed, `measured × NOMINAL_KERNEL_MS / kernel`, every rate inversely,
//! where `kernel` is the median of the kernel runs around the measurement.
//! `qps` is scaled as the statements' total time is. The measured values
//! are printed beside the scaled ones, and the kernel's median over the run
//! is the per-layer `host.kernel_ms`.
//!
//! `served_mix` is reported as measured: its latencies are mostly wire
//! waits (delayed acknowledgements) and thread wake-ups, which do not run
//! at the kernel's speed, and scaling them widened the run-to-run spread.

use std::time::Instant;

use crate::stats::median;

/// The kernel's median on the reference host (2-vCPU Xeon VM at 2.0 GHz).
pub const NOMINAL_KERNEL_MS: f64 = 11.0;

/// Integers the kernel sorts.
const KERNEL_VALUES: usize = 300_000;
/// Slots of the kernel's hash table (a power of two).
const KERNEL_SLOTS: usize = 1 << 18;

/// The kernel's memory, allocated and touched once before the first timed
/// run, so that its time does not depend on the state the program left
/// the allocator in.
struct Scratch {
    values: Vec<u64>,
    slots: Vec<u64>,
}

impl Scratch {
    fn new() -> Scratch {
        let mut s = Scratch {
            values: vec![0; KERNEL_VALUES],
            slots: vec![0; KERNEL_SLOTS],
        };
        s.kernel_ms();
        s
    }

    /// Run the reference kernel once: fill, sort, and insert every fourth
    /// value into an open-addressing table. Returns its wall time in ms.
    fn kernel_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for v in &mut self.values {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        self.values.sort_unstable();
        self.slots.fill(0);
        let mask = KERNEL_SLOTS - 1;
        for &v in self.values.iter().step_by(4) {
            let mut i = (v.wrapping_mul(0xA076_1D64_78BD_642F) >> 32) as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = v | 1;
        }
        std::hint::black_box(&self.slots);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Kernel runs on each side of a measurement that set its scale.
const WINDOW: usize = 3;

/// The kernel runs of one benchmark run.
#[derive(Default)]
pub struct HostSpeed {
    runs_ms: Vec<f64>,
    scratch: Option<Scratch>,
}

impl HostSpeed {
    /// Run the kernel once, between measured work; returns the ms it took.
    pub fn sample(&mut self) -> f64 {
        let ms = self.scratch.get_or_insert_with(Scratch::new).kernel_ms();
        self.runs_ms.push(ms);
        ms
    }

    /// Kernel runs so far. A measurement is tagged with this count, its
    /// mark, taken just before it.
    pub fn runs(&self) -> usize {
        self.runs_ms.len()
    }

    /// The kernel's median over the whole run, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.runs_ms)
    }

    /// Factor that brings a time measured over the whole run to the
    /// reference speed.
    pub fn scale(&self) -> f64 {
        NOMINAL_KERNEL_MS / self.median_ms()
    }

    /// Factor that brings a time tagged `mark` to the reference speed: from
    /// the median of the `WINDOW` kernel runs before it and the `WINDOW`
    /// after it, so that the host's drift within a run cancels too.
    pub fn scale_at(&self, mark: usize) -> f64 {
        let lo = mark.saturating_sub(WINDOW);
        let hi = (mark + WINDOW).min(self.runs_ms.len());
        if lo >= hi {
            return self.scale();
        }
        NOMINAL_KERNEL_MS / median(&self.runs_ms[lo..hi])
    }
}
