//! Table 9: strided-batched small-matrix multiplication — padded
//! vendor-style batched GEMM vs the specialized SBSMM (scalar loop vs the
//! packed split-complex micro-kernel) vs the fused f16 panel path.
//!
//! The batch uses the transformed SSE kernel's stage-C shape: `12 × 12`
//! items, `A` strided (`Norb²`), `B` shared (stride `0`), accumulating
//! `C`. A second section runs the same stage-C strides at the demo
//! device's shape, `3 × 3` items in batches of 48: too small for the
//! packed path, so `sbsmm` runs its register-resident shared-operand
//! kernel, compared with the scalar loop. `--json` merges
//! machine-readable records into `BENCH_kernels.json`; `--quick` shrinks
//! the batch and reps for the CI smoke run (the perf-regression gate
//! compares the `_quick` records against the committed baseline).
use omen_bench::{
    header, json_flag, quick_flag, row, timed_median, write_bench_json, BenchRecord,
    BENCH_JSON_PATH,
};
use omen_linalg::{
    sbsmm, sbsmm_f16, sbsmm_f16_packed, sbsmm_padded, sbsmm_pb, sbsmm_scalar, BatchDims,
    F16APanels, F16BPanels, Normalization, PackedB, SplitF16Batch, Strides, C64,
};

fn main() {
    let quick = quick_flag();
    let suffix = if quick { "_quick" } else { "" };
    let norb = 12;
    let dims = BatchDims::square(norb);
    let bsz = norb * norb;
    let batch = if quick { 512 } else { 4096 };
    let reps = if quick { 5 } else { 9 };
    println!(
        "Table 9: Strided Matrix Multiplication Performance ({norb}x{norb}, batch {batch}, SSE stage-C shape)\n"
    );
    // Stage-C strides: A per-item, B shared, C per-item (accumulating).
    let s = Strides {
        a: bsz,
        b: 0,
        c: bsz,
    };
    let mk = |n: usize, seed: usize| -> Vec<C64> {
        (0..n)
            .map(|i| {
                omen_linalg::c64(
                    ((i * 7 + seed) as f64).sin() * 1e-3,
                    ((i * 3) as f64).cos() * 1e-3,
                )
            })
            .collect()
    };
    let a = mk(batch * bsz, 1);
    let b = mk(bsz, 2);
    let mut c = vec![C64::ZERO; batch * bsz];
    let useful = dims.flops() as f64 * batch as f64;

    // Padded vendor stand-in needs per-item B; reuse the shared block.
    let b_full = mk(batch * bsz, 2);
    let s_full = Strides::packed(dims);
    let t_pad = timed_median(reps, || {
        sbsmm_padded(
            dims,
            batch,
            C64::ONE,
            &a,
            &b_full,
            C64::ZERO,
            &mut c,
            s_full,
            16,
        )
    });

    let t_scalar = timed_median(reps, || {
        sbsmm_scalar(dims, batch, C64::ONE, &a, &b, C64::ZERO, &mut c, s)
    });
    let t_packed = timed_median(reps, || {
        sbsmm(dims, batch, C64::ONE, &a, &b, C64::ZERO, &mut c, s)
    });
    let mut pb = PackedB::empty();
    pb.pack(norb, norb, &b);
    let t_pb = timed_median(reps, || {
        sbsmm_pb(dims, batch, C64::ONE, &a, s.a, &pb, C64::ZERO, &mut c, s.c)
    });

    // f16: scalar split-plane reference vs the fused panel path.
    let a16 = SplitF16Batch::from_c64(&a, Normalization::PerTensor);
    let b16 = SplitF16Batch::from_c64(&b, Normalization::PerTensor);
    let t_f16 = timed_median(reps, || {
        c.fill(C64::ZERO);
        sbsmm_f16(dims, batch, &a16, &b16, &mut c, s)
    });
    let mut ap = F16APanels::empty();
    ap.pack_from_c64(&a, norb, norb, batch, bsz, Normalization::PerTensor);
    let mut bp = F16BPanels::empty();
    bp.pack_from_c64(&b, norb, norb, 1, bsz, Normalization::PerTensor);
    let denorm = 1.0 / (ap.factor * bp.factor);
    let t_f16p = timed_median(reps, || {
        c.fill(C64::ZERO);
        sbsmm_f16_packed(dims, batch, &ap, 0, &bp, 0, denorm, &mut c, bsz);
    });

    let w = [28, 12, 16, 12];
    header(&["Kernel", "Time [ms]", "Useful Gflop/s", "vs scalar"], &w);
    let entries: &[(&str, f64)] = &[
        ("padded batched (cuBLAS-like)", t_pad),
        ("SBSMM scalar (seed loop)", t_scalar),
        ("SBSMM packed micro-kernel", t_packed),
        ("SBSMM packed, prepacked B", t_pb),
        ("SBSMM-16 scalar split-cplx", t_f16),
        ("SBSMM-16 fused f16 panels", t_f16p),
    ];
    for (name, t) in entries {
        row(
            &[
                (*name).into(),
                format!("{:.3}", t * 1e3),
                format!("{:.2}", useful / t / 1e9),
                format!("{:.2}x", t_scalar / t),
            ],
            &w,
        );
    }
    println!(
        "\nuseful fraction of the padded kernel: {:.1}% (paper: ~6-7% useful on cuBLAS)",
        useful / omen_linalg::batched::padded_flops(16, batch) as f64 * 100.0
    );
    println!(
        "paper (V100): cuBLAS 4.62 ms vs SBSMM 0.70 ms (5.76x); Tensor-Core f16 0.13 ms (31x)"
    );
    println!("shape target: packed sbsmm >= 2x the scalar small_gemm loop on stage-C batches");

    let (sn, sbatch, s_useful, t_small_scalar, t_small_shared) = small_shape(quick, reps, &mk);
    println!(
        "\nDemo SSE shape ({sn}x{sn}, batch {sbatch}, stage-C strides; below the packed threshold)\n"
    );
    header(&["Kernel", "Time [us]", "Useful Gflop/s", "vs scalar"], &w);
    for (name, t) in [
        ("SBSMM scalar (seed loop)", t_small_scalar),
        ("SBSMM shared-operand", t_small_shared),
    ] {
        row(
            &[
                name.into(),
                format!("{:.3}", t * 1e6),
                format!("{:.2}", s_useful / t / 1e9),
                format!("{:.2}x", t_small_scalar / t),
            ],
            &w,
        );
    }

    if json_flag() {
        let rec = |name: &str, t: f64| BenchRecord {
            name: format!("{name}_{norb}x{norb}_b{batch}{suffix}"),
            n: norb,
            median_ns: t * 1e9,
            gflops: useful / t / 1e9,
        };
        let small_rec = |name: &str, t: f64| BenchRecord {
            name: format!("{name}_{sn}x{sn}_b{sbatch}{suffix}"),
            n: sn,
            median_ns: t * 1e9,
            gflops: s_useful / t / 1e9,
        };
        let records = vec![
            rec("sbsmm_scalar_sseC", t_scalar),
            rec("sbsmm_packed_sseC", t_packed),
            rec("sbsmm_packed_pb_sseC", t_pb),
            rec("sbsmm_f16_scalar_sseC", t_f16),
            rec("sbsmm_f16_packed_sseC", t_f16p),
            small_rec("sbsmm_small_scalar_sseC", t_small_scalar),
            small_rec("sbsmm_small_shared_sseC", t_small_shared),
        ];
        write_bench_json(BENCH_JSON_PATH, &records).expect("write BENCH_kernels.json");
        println!("\nwrote {} records to {BENCH_JSON_PATH}", records.len());
    }
}

/// The demo device's SSE shape: `3 × 3` items, batch 48, `A` strided, `B`
/// shared, accumulating `C`. One call lasts microseconds, so each sample
/// times many calls; returns `(norb, batch, useful flops per call, scalar
/// seconds per call, shared-kernel seconds per call)`.
fn small_shape(
    quick: bool,
    reps: usize,
    mk: &dyn Fn(usize, usize) -> Vec<C64>,
) -> (usize, usize, f64, f64, f64) {
    let norb = 3;
    let dims = BatchDims::square(norb);
    let bsz = norb * norb;
    let batch = 48;
    let calls = if quick { 500 } else { 4000 };
    let s = Strides {
        a: bsz,
        b: 0,
        c: bsz,
    };
    let a = mk(batch * bsz, 3);
    let b = mk(bsz, 4);
    let mut c = vec![C64::ZERO; batch * bsz];
    let t_scalar = timed_median(reps, || {
        for _ in 0..calls {
            sbsmm_scalar(dims, batch, C64::ONE, &a, &b, C64::ONE, &mut c, s);
        }
    }) / calls as f64;
    let t_shared = timed_median(reps, || {
        for _ in 0..calls {
            sbsmm(dims, batch, C64::ONE, &a, &b, C64::ONE, &mut c, s);
        }
    }) / calls as f64;
    let useful = dims.flops() as f64 * batch as f64;
    (norb, batch, useful, t_scalar, t_shared)
}
