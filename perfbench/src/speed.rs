//! Host-speed calibration for the passes that simulate cells: every pass
//! of `probe-cache` and `paper-grid`, and the cold passes of
//! `fleet-stream`.
//!
//! The reference host is a share of a machine whose speed drifts by up to
//! 2x over an hour as its neighbours' load changes. The slowdown is not
//! lost CPU time (steal stays near 0 and the process's CPU time grows with
//! its wall time): every instruction runs slower. A pass's wall time alone
//! therefore tracks the host as much as the program. To take the host out,
//! a fixed kernel is timed on every worker thread before the first pass
//! and after each pass, and each pass's time is scaled by the kernel's
//! reference time over the median kernel time of the calibrations around
//! it. Calibrating once per round of passes instead, to spend less time on
//! it, spread the scaled rates more.
//!
//! The kernel does the kind of work the cells do, all of it in the
//! benchmark's own code and the standard library: it formats short string
//! keys, hashes them into a map and appends to small vectors, so it
//! allocates, hashes and chases pointers. A change to the program does not
//! change it. Of the kernels tried on the reference host (an integer
//! loop, breadth-first walks over a random graph, and this one), this one
//! slowed down most nearly as much as the workloads did when the host
//! slowed.

use crate::PARALLELISM;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Wall time of one [`kernel_s`] on the reference host when it ran at its
/// usual speed. Scaled times are times on a host where the kernel takes
/// this long.
pub const REFERENCE_S: f64 = 0.014;

/// Kernels per calibration; the median is kept, so that one preempted
/// kernel does not read as a slow host.
const KERNEL_REPEATS: usize = 3;

/// A pass is scaled by the median of the calibrations around it: the one
/// before it, one more before, and the two after it.
const WINDOW_BEFORE: usize = 1;
const WINDOW_AFTER: usize = 2;

/// Times the calibration kernel [`KERNEL_REPEATS`] times and returns the
/// median wall time in seconds.
fn kernel_s() -> f64 {
    let times: Vec<f64> = (0..KERNEL_REPEATS).map(|_| kernel_once_s()).collect();
    crate::stats::median(&times)
}

/// Rounds of [`keys`] per calibration kernel, about 0.8 ms each on the
/// reference host.
const KERNEL_ROUNDS: u64 = 36;

/// Runs the calibration kernel on [`PARALLELISM`] threads at once and
/// returns its wall time in seconds. The threads take rounds from a shared
/// counter, as the sweep's workers take cells from a shared queue, so that
/// the kernel slows with the host's total speed as a pass does. A kernel
/// that gave each thread a fixed half of the work waits for the slower
/// core: in one stretch it ran twice as slow while the passes ran only a
/// third slower.
fn kernel_once_s() -> f64 {
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let sum: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..PARALLELISM)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut acc = 0u64;
                    loop {
                        let round = next.fetch_add(1, Ordering::Relaxed);
                        if round >= KERNEL_ROUNDS {
                            return acc;
                        }
                        acc = acc.wrapping_add(keys(round));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("calibration thread panicked"))
            .sum()
    });
    black_box(sum);
    started.elapsed().as_secs_f64()
}

/// String keys formatted into a hash map, many of them repeated.
fn keys(round: u64) -> u64 {
    let mut map: HashMap<String, Vec<u32>> = HashMap::new();
    for i in 0..2_000u64 {
        let key = format!("k{}", (i * 7_919 + round) % 1_500);
        map.entry(key).or_default().push(i as u32);
    }
    let mut acc = 0u64;
    for (key, values) in &map {
        let sum: u64 = values.iter().map(|&v| u64::from(v)).sum();
        acc = acc.wrapping_add(key.len() as u64 + sum);
    }
    acc
}

/// Times passes and the calibrations between them.
pub struct PassTimer {
    pub kernels: Vec<f64>,
}

/// One timed pass: the last calibration before it and its wall time.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    after_kernel: usize,
    pub wall: Duration,
}

impl PassTimer {
    /// Runs the first calibration.
    pub fn new() -> PassTimer {
        PassTimer {
            kernels: vec![kernel_s()],
        }
    }

    /// Times `pass`, then runs a calibration.
    pub fn time<T>(&mut self, pass: impl FnOnce() -> T) -> (T, Pass) {
        let started = Instant::now();
        let out = pass();
        let pass = Pass {
            after_kernel: self.kernels.len() - 1,
            wall: started.elapsed(),
        };
        self.kernels.push(kernel_s());
        (out, pass)
    }

    /// The pass's wall time scaled to the reference host speed, by the
    /// median of the calibrations around it.
    pub fn scaled_s(&self, pass: Pass) -> f64 {
        let lo = pass.after_kernel.saturating_sub(WINDOW_BEFORE);
        let hi = (pass.after_kernel + WINDOW_AFTER).min(self.kernels.len() - 1);
        let host_s = crate::stats::median(&self.kernels[lo..=hi]);
        pass.wall.as_secs_f64() * REFERENCE_S / host_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_is_scaled_by_the_median_calibration_around_it() {
        let timer = PassTimer {
            kernels: vec![0.010, 0.024, 0.030, 0.024, 0.500],
        };
        let pass = |after_kernel| Pass {
            after_kernel,
            wall: Duration::from_secs(2),
        };
        // Calibrations 0..=3 around a pass after calibration 1: their
        // median is 0.024 s.
        let expected = 2.0 * REFERENCE_S / 0.024;
        assert!((timer.scaled_s(pass(1)) - expected).abs() < 1e-12);
        // A window past the last calibration is cut there: 2..=4.
        assert!((timer.scaled_s(pass(3)) - 2.0 * REFERENCE_S / 0.030).abs() < 1e-12);
    }
}
