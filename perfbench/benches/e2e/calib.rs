//! `box.calib_ms`: how fast this box runs a fixed integer loop that
//! calls no repository code. Recorded next to every run's metrics so
//! numbers recorded on different days can be read against box drift; it is
//! a diagnostic, never a gated metric.

use std::hint::black_box;

use crate::clock;

const ROUNDS: usize = 5;
const ITERS: u64 = 1 << 23;

/// Median wall time of [`ROUNDS`] runs of the loop, in ms.
pub fn box_calib_ms() -> f64 {
    let mut times: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            let start = clock::now();
            let mut x = black_box(0x2545_F491_4F6C_DD1D_u64 + round as u64);
            for _ in 0..black_box(ITERS) {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[ROUNDS / 2]
}
