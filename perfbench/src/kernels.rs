//! Kernel-level probes for the traced run: the fused checksum's cost
//! over plain FlashAttention-2, and the cost of one parallel terminal on
//! the rayon pool.

use crate::serving::mix;
use crate::stats::{iqr, median};
use fa_attention::{flash2, AttentionConfig};
use fa_tensor::{random::ElementDist, Matrix};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Median and IQR (both in %) of the per-pair overhead of
/// `flash2_with_checksum` over `flash2::attention`, from interleaved
/// pairs whose order alternates pair by pair, on a causal prompt of `n`
/// tokens with heads of width `d`. Pairs run for `budget_s` seconds, and
/// at least 20 of them. Returns the pair count too.
pub fn checksum_overhead(n: usize, d: usize, budget_s: f64, seed: u64) -> (f64, f64, usize) {
    let dist = ElementDist::default();
    let q = Matrix::<f64>::random_seeded(n, d, dist, mix(seed, 11));
    let k = Matrix::<f64>::random_seeded(n, d, dist, mix(seed, 12));
    let v = Matrix::<f64>::random_seeded(n, d, dist, mix(seed, 13));
    let cfg = AttentionConfig::new(d).with_causal(true);
    let plain = || {
        let t = Instant::now();
        black_box(flash2::attention(black_box(&q), &k, &v, &cfg));
        t.elapsed().as_secs_f64()
    };
    let fused = || {
        let t = Instant::now();
        black_box(flash_abft::flash2_with_checksum(
            black_box(&q),
            &k,
            &v,
            &cfg,
        ));
        t.elapsed().as_secs_f64()
    };
    // Warm both paths before timing.
    plain();
    fused();
    let start = Instant::now();
    let mut ratios = Vec::new();
    while ratios.len() < 20 || start.elapsed().as_secs_f64() < budget_s {
        let (a, b) = if ratios.len() % 2 == 0 {
            let a = plain();
            (a, fused())
        } else {
            let b = fused();
            (plain(), b)
        };
        ratios.push(100.0 * (b / a - 1.0));
    }
    (median(&ratios), iqr(&ratios), ratios.len())
}

/// Median wall time, in µs, of one two-item parallel terminal.
pub fn fork_us(reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            (0..2usize).into_par_iter().for_each(|i| {
                black_box(i);
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}
