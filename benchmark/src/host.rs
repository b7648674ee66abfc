//! A meter for how fast the host is right now.
//!
//! The sandbox is a small VM on a shared machine, and its speed changes with
//! no change to the program: the same binary reads 13 ms and then 20 ms for
//! one batch-32 `predict`, for seconds or for many minutes. A slow stretch
//! can outlast a whole run, so no statistic over one run's samples sees past
//! it. What can is a fixed piece of work, owned by the benchmark, timed
//! alongside the workload: when it slows, the host has.
//!
//! The reference operation is shaped like the program's hot path — a fresh
//! allocation the size of a batch-8 im2col matrix, a gather into it, one
//! multiply-add pass over it — because an arithmetic-only loop does not feel
//! the slow stretches and a memory-touching one does (one that reuses its
//! buffer tracks less well; measured, see the README). It feels them about
//! half as much as `predict` does (x1.14 where `predict` slows x1.32), so
//! dividing by it halves a slow stretch's footprint rather than removing it.
//! Whether that is worth having is a measured question: `benchmark/README.md`,
//! "Host noise", has both variants of each metric from the same runs. The
//! operation shares the cores and the allocator with the program, so every
//! reading is kept in the run's JSON beside the clock's.

use crate::stats::median;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the reference operation takes on this class of host when it is
/// quiet. Only fixes the unit — a host factor of 1 means "as fast as that" —
/// and cancels in every ratio of two readings.
pub const REFERENCE_OP_MS: f64 = 0.30;
/// Pause between reference operations: ~1.5 % of one core, so the meter does
/// not become part of the load it measures.
const PAUSE: Duration = Duration::from_millis(20);
const ROWS: usize = 512;
const COLS: usize = 144;
const SOURCE: usize = 1 << 15;

fn reference_op(source: &[f32]) -> Duration {
    let start = Instant::now();
    let mut matrix = vec![0.0f32; ROWS * COLS];
    for (i, cell) in matrix.iter_mut().enumerate() {
        *cell = source[(i * 7 + (i >> 8)) & (SOURCE - 1)];
    }
    let mut sums = [0.0f32; 8];
    for chunk in matrix.chunks_exact(8) {
        for (sum, x) in sums.iter_mut().zip(chunk) {
            *sum = x.mul_add(1.0001, *sum);
        }
    }
    black_box(sums);
    start.elapsed()
}

/// Runs the reference operation on a thread of its own until stopped.
pub struct HostMeter {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl HostMeter {
    /// Starts metering.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let source: Vec<f32> = (0..SOURCE).map(|i| (i % 251) as f32 * 0.01).collect();
            let mut readings_ms = Vec::new();
            // Relaxed: the flag publishes nothing but itself.
            while !stopped.load(Ordering::Relaxed) {
                readings_ms.push(reference_op(&source).as_secs_f64() * 1e3);
                std::thread::sleep(PAUSE);
            }
            readings_ms
        });
        Self { stop, thread }
    }

    /// Stops metering and returns the host factor over the metered time: the
    /// median reference operation over [`REFERENCE_OP_MS`]. Above 1 the host
    /// was slower than the reference host.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let readings_ms = self.thread.join().expect("host meter thread panicked");
        median(&readings_ms) / REFERENCE_OP_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_meter_takes_readings_and_reports_a_positive_factor() {
        let meter = HostMeter::start();
        std::thread::sleep(Duration::from_millis(60));
        let factor = meter.finish();
        assert!(factor.is_finite() && factor > 0.0);
    }
}
