//! Same-run kernel ceilings: GEMM at the workload's electron and phonon
//! RGF block sizes and SBSMM at its SSE shape, each on one thread through
//! the `omen-linalg` public entry points, which pick the packed or the
//! small-matrix kernel for the shape as the solver's calls do. They are
//! the denominators of `gf.ceiling_frac` and `sse.ceiling_frac`.

use dace_omen::linalg::{c64, gemm, sbsmm, BatchDims, CMatrix, Op, Strides, C64};
use std::hint::black_box;
use std::time::Instant;

/// Best single-thread rates, in GFLOP/s.
#[derive(Clone, Copy, Debug)]
pub struct Ceilings {
    /// `gemm` on square electron blocks.
    pub gemm_el: f64,
    /// `gemm` on square phonon blocks.
    pub gemm_ph: f64,
    /// `sbsmm` on the SSE stage-A shape: square `norb` items, `ne` per
    /// batch, shared left operand.
    pub sbsmm: f64,
}

/// Wall time of each timed batch; the best of [`BATCHES`] counts.
const BATCH_S: f64 = 0.05;
const BATCHES: usize = 5;

/// Measures the three ceilings (about 0.75 s).
pub fn measure(block_el: usize, block_ph: usize, norb: usize, ne: usize) -> Ceilings {
    Ceilings {
        gemm_el: gemm_rate(block_el),
        gemm_ph: gemm_rate(block_ph),
        sbsmm: sbsmm_rate(norb, ne),
    }
}

fn operand(len: usize, salt: usize) -> Vec<C64> {
    (0..len)
        .map(|i| {
            let x = ((i * 7 + salt * 13) % 17) as f64 / 17.0;
            c64(x - 0.5, 0.25 - x * 0.5)
        })
        .collect()
}

fn gemm_rate(n: usize) -> f64 {
    let a = CMatrix::from_vec(n, n, operand(n * n, 1));
    let b = CMatrix::from_vec(n, n, operand(n * n, 2));
    let mut c = CMatrix::zeros(n, n);
    let flops = 8.0 * (n * n * n) as f64;
    best_rate(flops, || {
        gemm(C64::ONE, black_box(&a), Op::N, &b, Op::N, C64::ZERO, &mut c);
        black_box(&c);
    })
}

fn sbsmm_rate(norb: usize, batch: usize) -> f64 {
    let dims = BatchDims::square(norb);
    let bsz = norb * norb;
    let a = operand(bsz, 3);
    let b = operand(bsz * batch, 4);
    let mut c = vec![C64::ZERO; bsz * batch];
    let strides = Strides {
        a: 0,
        b: bsz,
        c: bsz,
    };
    let flops = (dims.flops() * batch as u64) as f64;
    best_rate(flops, || {
        sbsmm(
            dims,
            batch,
            C64::ONE,
            black_box(&a),
            &b,
            C64::ZERO,
            &mut c,
            strides,
        );
        black_box(&c);
    })
}

/// Best rate over [`BATCHES`] timed batches of `call`, in GFLOP/s.
fn best_rate(flops_per_call: f64, mut call: impl FnMut()) -> f64 {
    // Size a batch from a short probe so each lasts about BATCH_S.
    let t0 = Instant::now();
    let mut probe = 0usize;
    while t0.elapsed().as_secs_f64() < 0.005 {
        call();
        probe += 1;
    }
    let per_call = t0.elapsed().as_secs_f64() / probe as f64;
    let reps = ((BATCH_S / per_call) as usize).max(1);
    (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                call();
            }
            flops_per_call * reps as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}
