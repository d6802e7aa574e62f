//! Per-point SSE update kernels over abstract block storage.
//!
//! The OMEN communication plan in `omen-comm` executes SSE round by round
//! with data scattered across simulated ranks; it cannot hand full
//! [`GTensor`]s to the kernels. These helpers compute the contribution of
//! a single `(qz, ω)` round to `Σ^≷(kz, E)` and `Π^≷(qz, ω)` through the
//! [`GBlocks`]/[`DBlocks`] traits, and the test suite proves that summing
//! the rounds reproduces [`crate::reference::sse_reference`] exactly.

use crate::problem::SseProblem;
use crate::reference::{d_combination_from, trace_product};
use crate::tensors::{DTensor, GTensor, D_BSZ};
use omen_linalg::{small_gemm, small_gemm_pb, use_packed_kernel, BatchDims, Workspace, C64};

/// Abstract access to `G^≷` atom-diagonal blocks.
pub trait GBlocks {
    /// The `Norb × Norb` block of atom `a` at point `(k, e)`.
    fn gblock(&self, k: usize, e: usize, a: usize) -> &[C64];
}

impl GBlocks for GTensor {
    fn gblock(&self, k: usize, e: usize, a: usize) -> &[C64] {
        self.block(k, e, a)
    }
}

/// Abstract access to `D^≷` pair/diagonal blocks at one `(q, ω)` point.
pub trait DBlocks {
    /// The `3 × 3` block of `entry` at point `(q, w)`; entries follow the
    /// [`DTensor`] convention (pairs first, then atom diagonals).
    fn dblock(&self, q: usize, w: usize, entry: usize) -> &[C64];
}

impl DBlocks for DTensor {
    fn dblock(&self, q: usize, w: usize, entry: usize) -> &[C64] {
        self.block(q, w, entry)
    }
}

/// Adds the `(q, m)` round's contribution to `Σ^≷(k, e)` for every atom.
///
/// `out_l`/`out_g` are the unscaled `Σ^≷` accumulators at `(k, e)`:
/// `na · Norb²` elements, atom-blocked. The arithmetic is identical to the
/// corresponding slice of [`crate::reference::sse_reference`].
#[allow(clippy::too_many_arguments)]
pub fn sigma_round_update(
    prob: &SseProblem,
    q: usize,
    m: usize,
    k: usize,
    e: usize,
    g_l: &impl GBlocks,
    g_g: &impl GBlocks,
    d_l: &impl DBlocks,
    d_g: &impl DBlocks,
    out_l: &mut [C64],
    out_g: &mut [C64],
) {
    let mut ws = Workspace::new();
    sigma_round_update_ws(prob, q, m, k, e, g_l, g_g, d_l, d_g, out_l, out_g, &mut ws);
}

/// [`sigma_round_update`] with workspace-held scratch (allocation-free
/// once `ws` is warm).
#[allow(clippy::too_many_arguments)]
pub fn sigma_round_update_ws(
    prob: &SseProblem,
    q: usize,
    m: usize,
    k: usize,
    e: usize,
    g_l: &impl GBlocks,
    g_g: &impl GBlocks,
    d_l: &impl DBlocks,
    d_g: &impl DBlocks,
    out_l: &mut [C64],
    out_g: &mut [C64],
    ws: &mut Workspace,
) {
    let norb = prob.norb();
    let bsz = norb * norb;
    let dims = BatchDims::square(norb);
    let na = prob.na();
    assert_eq!(out_l.len(), na * bsz, "Σ< accumulator length");
    assert_eq!(out_g.len(), na * bsz, "Σ> accumulator length");
    let grads = &prob.device.gradients;
    let steps = prob.omega_steps(m);
    let kk = prob.k_minus_q(k, q);
    let emission = e >= steps;
    let absorption = e + steps < prob.ne;
    if !emission && !absorption {
        return;
    }
    let mut t1 = ws.take_buf(bsz);
    let mut t2 = ws.take_buf(bsz);
    let mut c_l = ws.take_buf(bsz);
    let mut c_g = ws.take_buf(bsz);
    // When the block shape amortizes packing, each G block is packed once
    // per pair into split-complex micro-panels (workspace-pooled, warm in
    // steady state) and reused across the three gradient directions.
    let packed = use_packed_kernel(dims);
    let mut pb_em_l = ws.take_packed_b();
    let mut pb_em_g = ws.take_packed_b();
    let mut pb_ab_l = ws.take_packed_b();
    let mut pb_ab_g = ws.take_packed_b();

    for a in 0..na {
        for (pair, b) in prob.pairs_of(a) {
            let rev = prob.rev_pair[pair];
            let dc_l = d_combination_from(d_l, q, m, pair, rev, a, b, prob.npairs());
            let dc_g = d_combination_from(d_g, q, m, pair, rev, a, b, prob.npairs());
            let grad_ab = &grads.grads[pair];
            let grad_ba = &grads.grads[rev];
            if packed {
                if emission {
                    pb_em_l.pack(norb, norb, g_l.gblock(kk, e - steps, b));
                    pb_em_g.pack(norb, norb, g_g.gblock(kk, e - steps, b));
                }
                if absorption {
                    pb_ab_l.pack(norb, norb, g_l.gblock(kk, e + steps, b));
                    pb_ab_g.pack(norb, norb, g_g.gblock(kk, e + steps, b));
                }
            }
            for i in 0..3 {
                c_l.fill(C64::ZERO);
                c_g.fill(C64::ZERO);
                for j in 0..3 {
                    let wl = dc_l[j * 3 + i];
                    let wg = dc_g[j * 3 + i];
                    let gj = grad_ba[j].as_slice();
                    for x in 0..bsz {
                        c_l[x] = c_l[x].mul_add(gj[x], wl);
                        c_g[x] = c_g[x].mul_add(gj[x], wg);
                    }
                }
                let gi = grad_ab[i].as_slice();
                let out_l_blk = &mut out_l[a * bsz..(a + 1) * bsz];
                if emission {
                    if packed {
                        small_gemm_pb(dims, C64::ONE, gi, &pb_em_l, C64::ZERO, &mut t1);
                    } else {
                        small_gemm(
                            dims,
                            C64::ONE,
                            gi,
                            g_l.gblock(kk, e - steps, b),
                            C64::ZERO,
                            &mut t1,
                        );
                    }
                    small_gemm(dims, C64::ONE, &t1, &c_l, C64::ZERO, &mut t2);
                    for (o, v) in out_l_blk.iter_mut().zip(&t2) {
                        *o += *v;
                    }
                }
                if absorption {
                    if packed {
                        small_gemm_pb(dims, C64::ONE, gi, &pb_ab_l, C64::ZERO, &mut t1);
                    } else {
                        small_gemm(
                            dims,
                            C64::ONE,
                            gi,
                            g_l.gblock(kk, e + steps, b),
                            C64::ZERO,
                            &mut t1,
                        );
                    }
                    small_gemm(dims, C64::ONE, &t1, &c_g, C64::ZERO, &mut t2);
                    for (o, v) in out_l_blk.iter_mut().zip(&t2) {
                        *o += *v;
                    }
                }
                let out_g_blk = &mut out_g[a * bsz..(a + 1) * bsz];
                if emission {
                    if packed {
                        small_gemm_pb(dims, C64::ONE, gi, &pb_em_g, C64::ZERO, &mut t1);
                    } else {
                        small_gemm(
                            dims,
                            C64::ONE,
                            gi,
                            g_g.gblock(kk, e - steps, b),
                            C64::ZERO,
                            &mut t1,
                        );
                    }
                    small_gemm(dims, C64::ONE, &t1, &c_g, C64::ZERO, &mut t2);
                    for (o, v) in out_g_blk.iter_mut().zip(&t2) {
                        *o += *v;
                    }
                }
                if absorption {
                    if packed {
                        small_gemm_pb(dims, C64::ONE, gi, &pb_ab_g, C64::ZERO, &mut t1);
                    } else {
                        small_gemm(
                            dims,
                            C64::ONE,
                            gi,
                            g_g.gblock(kk, e + steps, b),
                            C64::ZERO,
                            &mut t1,
                        );
                    }
                    small_gemm(dims, C64::ONE, &t1, &c_l, C64::ZERO, &mut t2);
                    for (o, v) in out_g_blk.iter_mut().zip(&t2) {
                        *o += *v;
                    }
                }
            }
        }
    }
    for buf in [t1, t2, c_l, c_g] {
        ws.give_buf(buf);
    }
    for pb in [pb_em_l, pb_em_g, pb_ab_l, pb_ab_g] {
        ws.give_packed_b(pb);
    }
}

/// The `(q, m)` round's `Π^≷` contribution from summation point `(k, e)`,
/// restricted to the directed pairs in `pair_subset` (pass all pairs for a
/// full evaluation). Returns `(pair, C^<_{3×3}, C^>_{3×3})` tuples; each
/// contributes to both the pair entry `Π_ab` and the diagonal entry
/// `Π_aa` of the pair's source atom.
#[allow(clippy::too_many_arguments)]
pub fn pi_round_update(
    prob: &SseProblem,
    q: usize,
    m: usize,
    k: usize,
    e: usize,
    g_l: &impl GBlocks,
    g_g: &impl GBlocks,
    pair_subset: &[usize],
) -> Vec<(usize, [C64; D_BSZ], [C64; D_BSZ])> {
    let mut ws = Workspace::new();
    let mut out = Vec::new();
    pi_round_update_into(prob, q, m, k, e, g_l, g_g, pair_subset, &mut ws, &mut out);
    out
}

/// [`pi_round_update`] into a reusable vector with workspace-held scratch
/// (allocation-free once `ws` and `out` are warm).
#[allow(clippy::too_many_arguments)]
pub fn pi_round_update_into(
    prob: &SseProblem,
    q: usize,
    m: usize,
    k: usize,
    e: usize,
    g_l: &impl GBlocks,
    g_g: &impl GBlocks,
    pair_subset: &[usize],
    ws: &mut Workspace,
    out: &mut Vec<(usize, [C64; D_BSZ], [C64; D_BSZ])>,
) {
    out.clear();
    let norb = prob.norb();
    let bsz = norb * norb;
    let dims = BatchDims::square(norb);
    let steps = prob.omega_steps(m);
    if e + steps >= prob.ne {
        return;
    }
    let kq = prob.k_plus_q(k, q);
    let grads = &prob.device.gradients;
    let pairs = &prob.device.neighbors.pairs;
    let mut t1 = ws.take_buf(bsz);
    let mut t2 = ws.take_buf(bsz);
    // Pack the four G blocks of each pair once and sweep them across the
    // 3×3 gradient-direction loop (see `sigma_round_core`).
    let packed = use_packed_kernel(dims);
    let mut pb_l_a = ws.take_packed_b();
    let mut pb_g_a = ws.take_packed_b();
    let mut pb_l_b = ws.take_packed_b();
    let mut pb_g_b = ws.take_packed_b();
    out.reserve(pair_subset.len());
    for &p in pair_subset {
        let a = pairs[p].from;
        let b = pairs[p].to;
        let rev = prob.rev_pair[p];
        let grad_ab = &grads.grads[p];
        let grad_ba = &grads.grads[rev];
        if packed {
            pb_l_a.pack(norb, norb, g_l.gblock(kq, e + steps, a));
            pb_g_a.pack(norb, norb, g_g.gblock(kq, e + steps, a));
            pb_g_b.pack(norb, norb, g_g.gblock(k, e, b));
            pb_l_b.pack(norb, norb, g_l.gblock(k, e, b));
        }
        let mut c_l = [C64::ZERO; D_BSZ];
        let mut c_g = [C64::ZERO; D_BSZ];
        for i in 0..3 {
            for j in 0..3 {
                if packed {
                    small_gemm_pb(
                        dims,
                        C64::ONE,
                        grad_ba[i].as_slice(),
                        &pb_l_a,
                        C64::ZERO,
                        &mut t1,
                    );
                    small_gemm_pb(
                        dims,
                        C64::ONE,
                        grad_ab[j].as_slice(),
                        &pb_g_b,
                        C64::ZERO,
                        &mut t2,
                    );
                } else {
                    small_gemm(
                        dims,
                        C64::ONE,
                        grad_ba[i].as_slice(),
                        g_l.gblock(kq, e + steps, a),
                        C64::ZERO,
                        &mut t1,
                    );
                    small_gemm(
                        dims,
                        C64::ONE,
                        grad_ab[j].as_slice(),
                        g_g.gblock(k, e, b),
                        C64::ZERO,
                        &mut t2,
                    );
                }
                c_l[j * 3 + i] += trace_product(&t1, &t2, norb);
                if packed {
                    small_gemm_pb(
                        dims,
                        C64::ONE,
                        grad_ba[i].as_slice(),
                        &pb_g_a,
                        C64::ZERO,
                        &mut t1,
                    );
                    small_gemm_pb(
                        dims,
                        C64::ONE,
                        grad_ab[j].as_slice(),
                        &pb_l_b,
                        C64::ZERO,
                        &mut t2,
                    );
                } else {
                    small_gemm(
                        dims,
                        C64::ONE,
                        grad_ba[i].as_slice(),
                        g_g.gblock(kq, e + steps, a),
                        C64::ZERO,
                        &mut t1,
                    );
                    small_gemm(
                        dims,
                        C64::ONE,
                        grad_ab[j].as_slice(),
                        g_l.gblock(k, e, b),
                        C64::ZERO,
                        &mut t2,
                    );
                }
                c_g[j * 3 + i] += trace_product(&t1, &t2, norb);
            }
        }
        out.push((p, c_l, c_g));
    }
    ws.give_buf(t1);
    ws.give_buf(t2);
    for pb in [pb_l_a, pb_g_a, pb_l_b, pb_g_b] {
        ws.give_packed_b(pb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sse_reference;
    use crate::tensors::{DLayout, GLayout};
    use crate::testutil::{random_inputs, tiny_device, tiny_problem};

    #[test]
    fn summed_rounds_match_reference() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 31);
        let reference = sse_reference(&prob, &gl, &gg, &dl, &dg);

        let norb = prob.norb();
        let bsz = norb * norb;
        let na = prob.na();
        let mut sigma_l = GTensor::zeros(prob.nk, prob.ne, na, norb, GLayout::PairMajor);
        let mut sigma_g = GTensor::zeros(prob.nk, prob.ne, na, norb, GLayout::PairMajor);
        let mut pi_l = DTensor::zeros(prob.nq, prob.nw, prob.npairs(), na, DLayout::PointMajor);
        let mut pi_g = DTensor::zeros(prob.nq, prob.nw, prob.npairs(), na, DLayout::PointMajor);
        let all_pairs: Vec<usize> = (0..prob.npairs()).collect();

        for q in 0..prob.nq {
            for m in 0..prob.nw {
                for k in 0..prob.nk {
                    for e in 0..prob.ne {
                        let mut acc_l = vec![C64::ZERO; na * bsz];
                        let mut acc_g = vec![C64::ZERO; na * bsz];
                        sigma_round_update(
                            &prob, q, m, k, e, &gl, &gg, &dl, &dg, &mut acc_l, &mut acc_g,
                        );
                        for a in 0..na {
                            for (x, v) in sigma_l.block_mut(k, e, a).iter_mut().enumerate() {
                                *v += acc_l[a * bsz + x];
                            }
                            for (x, v) in sigma_g.block_mut(k, e, a).iter_mut().enumerate() {
                                *v += acc_g[a * bsz + x];
                            }
                        }
                        for (p, c_l, c_g) in
                            pi_round_update(&prob, q, m, k, e, &gl, &gg, &all_pairs)
                        {
                            let a = dev.neighbors.pairs[p].from;
                            let pe = pi_l.pair_entry(p);
                            let de = pi_l.diag_entry(a);
                            for x in 0..D_BSZ {
                                pi_l.block_mut(q, m, pe)[x] += c_l[x];
                                pi_l.block_mut(q, m, de)[x] += c_l[x];
                                pi_g.block_mut(q, m, pe)[x] += c_g[x];
                                pi_g.block_mut(q, m, de)[x] += c_g[x];
                            }
                        }
                    }
                }
            }
        }
        // (scale factors are 1.0 in tiny_problem)
        let ds = sigma_l.max_deviation(&reference.sigma_l) / reference.sigma_l.max_abs();
        assert!(ds < 1e-12, "Σ< deviation {ds}");
        let dg_ = sigma_g.max_deviation(&reference.sigma_g) / reference.sigma_g.max_abs();
        assert!(dg_ < 1e-12, "Σ> deviation {dg_}");
        let dp = pi_l.max_deviation(&reference.pi_l) / reference.pi_l.max_abs();
        assert!(dp < 1e-12, "Π< deviation {dp}");
        let dpg = pi_g.max_deviation(&reference.pi_g) / reference.pi_g.max_abs();
        assert!(dpg < 1e-12, "Π> deviation {dpg}");
    }

    #[test]
    fn out_of_window_round_is_noop() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 8);
        let na = prob.na();
        let bsz = prob.norb() * prob.norb();
        // e = 0 with only absorption possible; m such that steps >= ne is
        // impossible here, so test the Π window instead: e + steps >= ne.
        let e = prob.ne - 1;
        let updates = pi_round_update(&prob, 0, 0, 0, e, &gl, &gg, &[0, 1]);
        assert!(updates.is_empty());
        // Σ at e=ne−1 has emission only; accumulator changes.
        let mut acc_l = vec![C64::ZERO; na * bsz];
        let mut acc_g = vec![C64::ZERO; na * bsz];
        sigma_round_update(
            &prob, 0, 0, 0, e, &gl, &gg, &dl, &dg, &mut acc_l, &mut acc_g,
        );
        assert!(acc_l.iter().any(|z| z.abs() > 0.0));
        let _ = (dl, dg);
    }
}
