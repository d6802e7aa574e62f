//! The DaCe-transformed SSE kernel — Fig. 6 of the paper.
//!
//! Four transformations are applied to the reference dataflow:
//!
//! 1. **Map fission** (❶): the products `∇H·G^≷` and `Σ_j Dc^{ij}·∇H^j`
//!    are hoisted into transient arrays (`hg`, `hd`), lowering the
//!    multiplication count — each `∇H·G` block is reused by all
//!    `Nqz · Nω` consumers instead of being recomputed, the
//!    `2NqzNω/(NqzNω+1)` flop reduction of §6.1.1.
//! 2. **Data layout** (❷): `G^≷`/`Σ^≷` are held `AtomMajor` (energy
//!    innermost) so consecutive batch items sit at constant stride.
//! 3. **Strided-batched multiplication** (❸): the per-energy small GEMMs
//!    become one `sbsmm` call per `(pair, i, kz, qz, ω)` tuple with
//!    `A`-stride `Norb²`, `B`-stride `0`, `C`-stride `Norb²`.
//! 4. **Map fusion** (❹): the stages share transients and loop structure.
//!
//! At small `Norb` (the demo device has 3 orbitals) the stage-A and
//! stage-C batches are too small for the packed micro-kernel; `sbsmm`
//! runs them through its register-resident shared-operand kernel.
//!
//! Stage D (`Π^≷`) runs in parallel over pairs. For each `kz + qz` it
//! transposes the reverse pair's three `∇H·G` panels once into a
//! per-worker buffer, which turns every trace into a plain dot product
//! over the contiguous `E·Norb²` range; the nine `(i, j)` sums of one
//! `(qz, kz, ω)` tuple are one pass of register-blocked complex dots. The
//! per-pair sums land in an accumulator kept in [`Transients`] and are
//! scattered into the Π pair and diagonal entries serially, in ascending
//! pair order. Every stage therefore gives bitwise the same `Σ^≷`/`Π^≷`
//! at any thread count.
//!
//! The stages run over an [`AtomBlock`]: an atom range with its pairs, the
//! reverse pairs of those pairs, and an energy range with its `Nω` halo.
//! [`sse_transformed`] runs one block covering the whole problem; the
//! data-centric plan of `omen-comm` runs [`sse_block`] over bounded blocks
//! of each rank's atom × energy tile. Every `Σ^≷` element and every pair's
//! `Π^≷` sum is computed by the same arithmetic in either case, so a
//! tiling that splits only atoms reproduces [`sse_transformed`] bitwise.
//!
//! The kernel produces values elementwise-identical (up to floating-point
//! reassociation) to [`crate::reference::sse_reference`].

use crate::point_kernels::DBlocks;
use crate::problem::SseProblem;
use crate::reference::{d_combination_from, SseOutput};
use crate::tensors::{DLayout, DTensor, GLayout, GTensor, D_BSZ};
use omen_linalg::{
    give_tls_packed_b, sbsmm, sbsmm_pb, small_gemm, take_tls_packed_b, use_packed_kernel,
    BatchDims, Strides, C64,
};
use rayon::prelude::*;
use std::ops::Range;

/// Below this many complex elements in a stage's output, the per-call
/// heap cost of parallel dispatch (job buffers, scoped threads) outweighs
/// the speedup; the serial loop is both faster and allocation-free, which
/// keeps warm Born iterations on test-sized devices off the heap
/// entirely (pinned by `tests/integration_alloc.rs`).
const PAR_MIN_ELEMS: usize = 1 << 16;

/// Runs `f` over `chunk`-sized pieces of `buf` — in parallel when the
/// block allows it and the buffer is large enough to amortize dispatch,
/// serially otherwise.
fn for_each_chunk<F>(buf: &mut [C64], chunk: usize, parallel: bool, f: F)
where
    F: Fn(usize, &mut [C64]) + Sync + Send,
{
    if parallel && buf.len() >= PAR_MIN_ELEMS {
        buf.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(i, c)| f(i, c));
    } else {
        buf.chunks_mut(chunk).enumerate().for_each(|(i, c)| f(i, c));
    }
}

/// `AtomMajor` `G^≷` storage the stages read from.
pub trait GPanels: Sync {
    /// The blocks `(k, e, a)` of atom `a` at momentum `k` for every energy
    /// of the block's halo, contiguous and in energy order.
    fn panel(&self, k: usize, a: usize) -> &[C64];
}

impl GPanels for GTensor {
    /// The whole energy axis; the tensor must be `AtomMajor`.
    fn panel(&self, k: usize, a: usize) -> &[C64] {
        debug_assert_eq!(self.layout, GLayout::AtomMajor);
        &self.as_slice()[self.offset(k, 0, a)..][..self.ne * self.bsz()]
    }
}

/// The share of the SSE one pass of stages A–D computes.
///
/// Outputs: `Σ^≷` of `atoms` at `energies` (every momentum), and the `Π^≷`
/// sums of the block's pairs — the pairs whose source atom lies in
/// `atoms` — over the summation energies in `energies`. Stage A also
/// builds `∇H·G` for the reverse pairs of the block's pairs that start
/// outside `atoms`, because stage D reads them.
///
/// Transient slots: the block's pairs first, in pair order, then those
/// outer reverse pairs, ascending.
#[derive(Clone, Debug)]
pub struct AtomBlock {
    atoms: Range<usize>,
    energies: Range<usize>,
    halo: Range<usize>,
    pairs: Range<usize>,
    outer: Vec<usize>,
    parallel: bool,
}

impl AtomBlock {
    /// The whole problem in one block. Its stages fan out over the Rayon
    /// pool once their output passes the size threshold. Performs no
    /// allocation.
    pub fn whole(prob: &SseProblem) -> Self {
        AtomBlock {
            atoms: 0..prob.na(),
            energies: 0..prob.ne,
            halo: 0..prob.ne,
            pairs: 0..prob.npairs(),
            outer: Vec::new(),
            parallel: true,
        }
    }

    /// The block of `atoms` at `energies`; the halo widens `energies` by
    /// `Nω` on both sides, clamped to the grid. Its stages run on the
    /// calling thread.
    pub fn new(prob: &SseProblem, atoms: Range<usize>, energies: Range<usize>) -> Self {
        assert!(
            atoms.start < atoms.end && atoms.end <= prob.na(),
            "atom range"
        );
        assert!(
            energies.start < energies.end && energies.end <= prob.ne,
            "energy range"
        );
        let offsets = &prob.device.neighbors.offsets;
        let pairs = offsets[atoms.start]..offsets[atoms.end];
        let mut outer: Vec<usize> = pairs
            .clone()
            .map(|p| prob.rev_pair[p])
            .filter(|r| !pairs.contains(r))
            .collect();
        outer.sort_unstable();
        let halo = energies.start.saturating_sub(prob.nw)..(energies.end + prob.nw).min(prob.ne);
        AtomBlock {
            atoms,
            energies,
            halo,
            pairs,
            outer,
            parallel: false,
        }
    }

    /// Transient slots: block pairs plus outer reverse pairs.
    fn slots(&self) -> usize {
        self.pairs.len() + self.outer.len()
    }

    /// The pair held in transient slot `s`.
    fn pair_of_slot(&self, s: usize) -> usize {
        match s.checked_sub(self.pairs.len()) {
            None => self.pairs.start + s,
            Some(x) => self.outer[x],
        }
    }

    /// The transient slot of pair `p` (a block pair or an outer reverse
    /// pair).
    fn slot_of(&self, p: usize) -> usize {
        if self.pairs.contains(&p) {
            p - self.pairs.start
        } else {
            let x = self
                .outer
                .binary_search(&p)
                .expect("pair outside the block's transient slots");
            self.pairs.len() + x
        }
    }

    /// Σ emission window of phonon step `steps`: output energies
    /// `e ∈ [start, end)` with `e − steps` on the grid.
    fn emission(&self, steps: usize) -> Range<usize> {
        self.energies.start.max(steps)..self.energies.end.max(steps)
    }

    /// Σ absorption window of `steps`, which is also the Π summation
    /// window: output energies `e` with `e + steps` on the grid.
    fn absorption(&self, steps: usize, ne: usize) -> Range<usize> {
        let end = self.energies.end.min(ne.saturating_sub(steps));
        self.energies.start..end.max(self.energies.start)
    }
}

/// The transient arrays produced by map fission (step ❶), kept public so
/// the mixed-precision kernel can reuse stage A/B outputs.
pub struct Transients {
    /// `∇H·G^<` blocks: layout `[slot][i][kz][E][Norb²]` over the block's
    /// halo energies (for the whole-problem block, slot = pair and the
    /// whole energy axis).
    pub hg_l: Vec<C64>,
    /// `∇H·G^>` blocks.
    pub hg_g: Vec<C64>,
    /// `Σ_j Dc^<_{ij}·∇H^j_ba` blocks of the block's pairs: layout
    /// `[pair][i][qz][ω][Norb²]`.
    pub hd_l: Vec<C64>,
    /// Greater-component `∇H·D` blocks.
    pub hd_g: Vec<C64>,
    /// Flops spent building the transients (stages A and B).
    pub flops: u64,
    /// Stage-D scratch, reused across calls.
    pi: PiScratch,
    nk: usize,
    ne: usize,
    nq: usize,
    nw: usize,
    bsz: usize,
}

impl Transients {
    /// Empty transients, the reusable slot for [`build_transients_into`].
    /// Performs no allocation.
    pub fn empty() -> Self {
        Transients {
            hg_l: Vec::new(),
            hg_g: Vec::new(),
            hd_l: Vec::new(),
            hd_g: Vec::new(),
            flops: 0,
            pi: PiScratch::default(),
            nk: 0,
            ne: 0,
            nq: 0,
            nw: 0,
            bsz: 0,
        }
    }

    /// Offset of `hg[slot][i][k][e]` (`e` counted from the halo start).
    #[inline]
    pub fn hg_offset(&self, slot: usize, i: usize, k: usize, e: usize) -> usize {
        (((slot * 3 + i) * self.nk + k) * self.ne + e) * self.bsz
    }

    /// Offset of `hd[pair][i][q][m]` (`pair` counted from the block's
    /// first pair).
    #[inline]
    pub fn hd_offset(&self, pair: usize, i: usize, q: usize, m: usize) -> usize {
        (((pair * 3 + i) * self.nq + q) * self.nw + m) * self.bsz
    }
}

/// Reusable storage of stage D: the per-pair `C^≷` sums and one panel
/// buffer of `6 · NE · Norb²` elements per worker.
#[derive(Default)]
struct PiScratch {
    acc: Vec<C64>,
    panels: Vec<C64>,
}

impl Default for Transients {
    fn default() -> Self {
        Transients::empty()
    }
}

/// Stage A + B: builds the `∇H·G` and `∇H·D` transients.
///
/// `g_l`/`g_g` must be `AtomMajor` (the data-layout transformation);
/// `d_l`/`d_g` may be in either layout.
pub fn build_transients(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
) -> Transients {
    let mut tr = Transients::empty();
    build_transients_into(prob, g_l, g_g, d_l, d_g, &mut tr);
    tr
}

/// [`build_transients`] into reusable storage: the four transient tensors
/// keep their buffers across calls, so a warm `Transients` makes the
/// stage-A/B rebuild allocation-free.
pub fn build_transients_into(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
    tr: &mut Transients,
) {
    assert_eq!(
        g_l.layout,
        GLayout::AtomMajor,
        "transformed kernel expects AtomMajor G"
    );
    assert_eq!(
        g_g.layout,
        GLayout::AtomMajor,
        "transformed kernel expects AtomMajor G"
    );
    block_transients(prob, &AtomBlock::whole(prob), g_l, g_g, d_l, d_g, tr);
}

/// Stages A and B of one block into `tr`.
fn block_transients<G: GPanels, D: DBlocks + Sync>(
    prob: &SseProblem,
    blk: &AtomBlock,
    g_l: &G,
    g_g: &G,
    d_l: &D,
    d_g: &D,
    tr: &mut Transients,
) {
    let norb = prob.norb();
    let bsz = norb * norb;
    let dims = BatchDims::square(norb);
    let (nk, nq, nw) = (prob.nk, prob.nq, prob.nw);
    let nh = blk.halo.len();
    let grads = &prob.device.gradients;
    let pairs = &prob.device.neighbors.pairs;

    // ---- stage A: hg[s][i][k][e] = ∇H^i_p · G_{to(p)}(k, e) ----
    let hg_len = blk.slots() * 3 * nk * nh * bsz;
    tr.hg_l.clear();
    tr.hg_l.resize(hg_len, C64::ZERO);
    tr.hg_g.clear();
    tr.hg_g.resize(hg_len, C64::ZERO);
    let hg_l = &mut tr.hg_l;
    let hg_g = &mut tr.hg_g;
    let chunk = 3 * nk * nh * bsz;
    let stage_a = |hg: &mut [C64], g: &G| {
        for_each_chunk(hg, chunk, blk.parallel, |s, out| {
            let p = blk.pair_of_slot(s);
            let b = pairs[p].to;
            for i in 0..3 {
                let grad = grads.grads[p][i].as_slice();
                for k in 0..nk {
                    // One strided-batched GEMM over the contiguous energy
                    // axis: A = ∇H (stride 0), B = G blocks (stride bsz).
                    let o0 = ((i * nk) + k) * nh * bsz;
                    let panel = g.panel(k, b);
                    assert_eq!(panel.len(), nh * bsz, "G panel must span the halo");
                    sbsmm(
                        dims,
                        nh,
                        C64::ONE,
                        grad,
                        panel,
                        C64::ZERO,
                        &mut out[o0..o0 + nh * bsz],
                        Strides {
                            a: 0,
                            b: bsz,
                            c: bsz,
                        },
                    );
                }
            }
        });
    };
    stage_a(hg_l, g_l);
    stage_a(hg_g, g_g);
    let flops_a = 2 * (blk.slots() * 3 * nk * nh) as u64 * dims.flops();

    // ---- stage B: hd[p][i][q][m] = Σ_j Dc^{ij}(q,m,p) · ∇H^j_ba ----
    let hd_len = blk.pairs.len() * 3 * nq * nw * bsz;
    tr.hd_l.clear();
    tr.hd_l.resize(hd_len, C64::ZERO);
    tr.hd_g.clear();
    tr.hd_g.resize(hd_len, C64::ZERO);
    let hd_l = &mut tr.hd_l;
    let hd_g = &mut tr.hd_g;
    let chunk_b = 3 * nq * nw * bsz;
    let stage_b = |hd: &mut [C64], d: &D| {
        for_each_chunk(hd, chunk_b, blk.parallel, |s, out| {
            let p = blk.pairs.start + s;
            let a = pairs[p].from;
            let b = pairs[p].to;
            let rev = prob.rev_pair[p];
            let grad_ba = &grads.grads[rev];
            for q in 0..nq {
                for m in 0..nw {
                    let dc = d_combination_from(d, q, m, p, rev, a, b, prob.npairs());
                    for i in 0..3 {
                        let o = ((i * nq + q) * nw + m) * bsz;
                        let dst = &mut out[o..o + bsz];
                        for j in 0..3 {
                            let w = dc[j * 3 + i];
                            let gj = grad_ba[j].as_slice();
                            for x in 0..bsz {
                                dst[x] = dst[x].mul_add(gj[x], w);
                            }
                        }
                    }
                }
            }
        });
    };
    stage_b(hd_l, d_l);
    stage_b(hd_g, d_g);
    let flops_b = 2 * (blk.pairs.len() * nq * nw * 3 * 3) as u64 * 8 * bsz as u64;

    tr.flops = flops_a + flops_b;
    tr.nk = nk;
    tr.ne = nh;
    tr.nq = nq;
    tr.nw = nw;
    tr.bsz = bsz;
}

/// Stage C + D: consumes the transients, producing `Σ^≷` (AtomMajor) and
/// `Π^≷` (PointMajor).
pub fn sse_transformed(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
) -> SseOutput {
    let mut tr = Transients::empty();
    let mut out = SseOutput::empty();
    sse_transformed_into(prob, g_l, g_g, d_l, d_g, &mut tr, &mut out);
    out
}

/// [`sse_transformed`] with reusable transient and output storage: a warm
/// `(tr, out)` pair re-runs stages A–D without reallocating any of the
/// large intermediate tensors.
pub fn sse_transformed_into(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
    tr: &mut Transients,
    out: &mut SseOutput,
) {
    build_transients_into(prob, g_l, g_g, d_l, d_g, tr);
    consume_transients_into(prob, tr, out);
}

/// The Σ/Π assembly (stages C and D) from prebuilt transients. Takes the
/// transients mutably because stage D keeps its scratch in them.
pub fn consume_transients(prob: &SseProblem, tr: &mut Transients) -> SseOutput {
    let mut out = SseOutput::empty();
    consume_transients_into(prob, tr, &mut out);
    out
}

/// [`consume_transients`] into reusable output storage.
pub fn consume_transients_into(prob: &SseProblem, tr: &mut Transients, out: &mut SseOutput) {
    let norb = prob.norb();
    let na = prob.na();
    out.sigma_l
        .reset(prob.nk, prob.ne, na, norb, GLayout::AtomMajor);
    out.sigma_g
        .reset(prob.nk, prob.ne, na, norb, GLayout::AtomMajor);
    let blk = AtomBlock::whole(prob);
    let flops_c = sigma_stage(
        prob,
        &blk,
        tr,
        out.sigma_l.as_mut_slice(),
        out.sigma_g.as_mut_slice(),
    );
    let flops_d = pi_stage(prob, tr, &mut out.pi_l, &mut out.pi_g);
    out.flops = tr.flops + flops_c + flops_d;
}

/// Stages A–D of one block. Writes the block's `Σ^≷` into `sigma_l` /
/// `sigma_g` (`[atom][kz][E]` over the block's atoms and energies; they
/// must hold zeros) and adds its pairs' `Π^≷` contributions to the pair and
/// source-diagonal entries of `pi_l` / `pi_g` (full-size tensors). Both
/// carry the problem's scale factors. Returns the flops spent.
#[allow(clippy::too_many_arguments)]
pub fn sse_block<G: GPanels, D: DBlocks + Sync>(
    prob: &SseProblem,
    blk: &AtomBlock,
    g_l: &G,
    g_g: &G,
    d_l: &D,
    d_g: &D,
    tr: &mut Transients,
    sigma_l: &mut [C64],
    sigma_g: &mut [C64],
    pi_l: &mut DTensor,
    pi_g: &mut DTensor,
) -> u64 {
    block_transients(prob, blk, g_l, g_g, d_l, d_g, tr);
    let flops_c = sigma_stage(prob, blk, tr, sigma_l, sigma_g);
    let flops_d = block_pi_stage(prob, blk, tr, pi_l, pi_g);
    tr.flops + flops_c + flops_d
}

/// Stage C: `Σ^≷[a][k][e]` of the block via strided-batched GEMMs, then
/// the `scale_sigma` factor. Returns the stage's flops.
fn sigma_stage(
    prob: &SseProblem,
    blk: &AtomBlock,
    tr: &Transients,
    sigma_l: &mut [C64],
    sigma_g: &mut [C64],
) -> u64 {
    let norb = prob.norb();
    let bsz = norb * norb;
    let dims = BatchDims::square(norb);
    let (nk, ne, nq, nw) = (prob.nk, prob.ne, prob.nq, prob.nw);
    let nout = blk.energies.len();
    let atom_chunk = nk * nout * bsz;
    assert_eq!(sigma_l.len(), blk.atoms.len() * atom_chunk, "Σ< block size");
    assert_eq!(sigma_g.len(), blk.atoms.len() * atom_chunk, "Σ> block size");
    let offsets = &prob.device.neighbors.offsets;

    // Each atom owns a contiguous output chunk; atoms run in parallel when
    // the block allows it and the Σ tensors are large enough to amortize
    // dispatch. When the block shape amortizes packing, each ∇H·D block is
    // packed once per (pair, i, qz, ω) into split-complex micro-panels
    // (thread-local `PackedB`s, warm after the first atom) and swept by the
    // FMA micro-kernel across the whole kz loop and all four Σ^≷ updates;
    // tiny blocks keep the scalar batched loop.
    let packed = use_packed_kernel(dims);
    let par = blk.parallel && sigma_l.len() >= PAR_MIN_ELEMS;
    let atom_body = |x: usize, out_l: &mut [C64], out_g: &mut [C64]| -> u64 {
        let a = blk.atoms.start + x;
        let mut flops = 0u64;
        let strides = Strides {
            a: bsz,
            b: 0,
            c: bsz,
        };
        let mut pb_l = take_tls_packed_b();
        let mut pb_g = take_tls_packed_b();
        for p in offsets[a]..offsets[a + 1] {
            let s = p - blk.pairs.start;
            for i in 0..3 {
                for q in 0..nq {
                    for m in 0..nw {
                        let steps = prob.omega_steps(m);
                        // Emission: Σ(e) += hg(e−steps) · hd over `em`;
                        // absorption: Σ(e) += hg(e+steps) · hd' over `ab`.
                        let em = blk.emission(steps);
                        let ab = blk.absorption(steps, ne);
                        if em.is_empty() && ab.is_empty() {
                            continue;
                        }
                        let hd_l_blk = &tr.hd_l[tr.hd_offset(s, i, q, m)..][..bsz];
                        let hd_g_blk = &tr.hd_g[tr.hd_offset(s, i, q, m)..][..bsz];
                        if packed {
                            pb_l.pack(norb, norb, hd_l_blk);
                            pb_g.pack(norb, norb, hd_g_blk);
                        }
                        for k in 0..nk {
                            let kk = prob.k_minus_q(k, q);
                            let out_base = k * nout * bsz;
                            let a0 = tr.hg_offset(s, i, kk, em.start - steps - blk.halo.start);
                            let c0 = out_base + (em.start - blk.energies.start) * bsz;
                            let a1 = tr.hg_offset(s, i, kk, ab.start + steps - blk.halo.start);
                            let c1 = out_base + (ab.start - blk.energies.start) * bsz;
                            let (n0, n1) = (em.len(), ab.len());
                            if packed {
                                let mul = |hg: &[C64],
                                           ax: usize,
                                           pb: &omen_linalg::PackedB,
                                           out: &mut [C64],
                                           cx: usize,
                                           batch: usize| {
                                    if batch == 0 {
                                        return;
                                    }
                                    sbsmm_pb(
                                        dims,
                                        batch,
                                        C64::ONE,
                                        &hg[ax..ax + batch * bsz],
                                        bsz,
                                        pb,
                                        C64::ONE,
                                        &mut out[cx..cx + batch * bsz],
                                        bsz,
                                    );
                                };
                                mul(&tr.hg_l, a0, &pb_l, out_l, c0, n0);
                                mul(&tr.hg_g, a0, &pb_g, out_g, c0, n0);
                                mul(&tr.hg_l, a1, &pb_g, out_l, c1, n1);
                                mul(&tr.hg_g, a1, &pb_l, out_g, c1, n1);
                            } else {
                                let mul = |hg: &[C64],
                                           ax: usize,
                                           hd: &[C64],
                                           out: &mut [C64],
                                           cx: usize,
                                           batch: usize| {
                                    if batch == 0 {
                                        return;
                                    }
                                    sbsmm(
                                        dims,
                                        batch,
                                        C64::ONE,
                                        &hg[ax..ax + batch * bsz],
                                        hd,
                                        C64::ONE,
                                        &mut out[cx..cx + batch * bsz],
                                        strides,
                                    );
                                };
                                mul(&tr.hg_l, a0, hd_l_blk, out_l, c0, n0);
                                mul(&tr.hg_g, a0, hd_g_blk, out_g, c0, n0);
                                mul(&tr.hg_l, a1, hd_g_blk, out_l, c1, n1);
                                mul(&tr.hg_g, a1, hd_l_blk, out_g, c1, n1);
                            }
                            flops += 2 * (n0 + n1) as u64 * dims.flops();
                        }
                    }
                }
            }
        }
        give_tls_packed_b(pb_l);
        give_tls_packed_b(pb_g);
        flops
    };
    let flops = if par {
        sigma_l
            .par_chunks_mut(atom_chunk)
            .zip(sigma_g.par_chunks_mut(atom_chunk))
            .enumerate()
            .map(|(x, (out_l, out_g))| atom_body(x, out_l, out_g))
            .sum()
    } else {
        sigma_l
            .chunks_mut(atom_chunk)
            .zip(sigma_g.chunks_mut(atom_chunk))
            .enumerate()
            .map(|(x, (out_l, out_g))| atom_body(x, out_l, out_g))
            .sum()
    };
    if prob.scale_sigma != 1.0 {
        for v in sigma_l.iter_mut().chain(sigma_g.iter_mut()) {
            *v = v.scale(prob.scale_sigma);
        }
    }
    flops
}

/// Stage D: `Π^≷` from the `∇H·G` transients; shared by the transformed
/// and mixed-precision kernels. Returns the stage's flops.
pub(crate) fn pi_stage(
    prob: &SseProblem,
    tr: &mut Transients,
    pi_l: &mut DTensor,
    pi_g: &mut DTensor,
) -> u64 {
    pi_l.reset(
        prob.nq,
        prob.nw,
        prob.npairs(),
        prob.na(),
        DLayout::PointMajor,
    );
    pi_g.reset(
        prob.nq,
        prob.nw,
        prob.npairs(),
        prob.na(),
        DLayout::PointMajor,
    );
    block_pi_stage(prob, &AtomBlock::whole(prob), tr, pi_l, pi_g)
}

/// Stage D of one block: adds the block pairs' scaled `C^≷` sums to the
/// pair and source-diagonal entries of `pi_l`/`pi_g`.
///
/// Each pair's per-`(qz, ω)` `C^≷` sums are independent, so they are
/// computed in parallel over pairs (when the block allows it, above the
/// same Σ-size threshold as stages A–C) into the accumulator held in `tr`.
/// The scatter into the Π pair and diagonal entries then runs serially in
/// ascending pair order: a diagonal entry collects several pairs. Every
/// sum has a fixed order, so `Π^≷` does not depend on the thread count.
fn block_pi_stage(
    prob: &SseProblem,
    blk: &AtomBlock,
    tr: &mut Transients,
    pi_l: &mut DTensor,
    pi_g: &mut DTensor,
) -> u64 {
    let mut scratch = std::mem::take(&mut tr.pi);
    let flops = pi_stage_with(prob, blk, tr, &mut scratch, pi_l, pi_g);
    tr.pi = scratch;
    flops
}

fn pi_stage_with(
    prob: &SseProblem,
    blk: &AtomBlock,
    tr: &Transients,
    scratch: &mut PiScratch,
    pi_l: &mut DTensor,
    pi_g: &mut DTensor,
) -> u64 {
    let norb = prob.norb();
    let bsz = norb * norb;
    let (nk, ne, nq, nw) = (prob.nk, prob.ne, prob.nq, prob.nw);
    let npairs = blk.pairs.len();
    let per_pair = nq * nw * 2 * D_BSZ;
    let panel = blk.halo.len() * bsz;
    if npairs == 0 || per_pair == 0 || panel == 0 {
        return 0;
    }

    // Per pair: [qz][ω][lesser, greater][D_BSZ] sums. Per worker: the
    // three rev-side ∇H·G^< panels, then the three ∇H·G^> panels, each
    // transposed block by block over the block's halo energies.
    let par = blk.parallel && nk * blk.energies.len() * blk.atoms.len() * bsz >= PAR_MIN_ELEMS;
    let workers = if par {
        rayon::current_num_threads().clamp(1, npairs)
    } else {
        1
    };
    let group = npairs.div_ceil(workers);
    scratch.acc.resize(npairs * per_pair, C64::ZERO);
    scratch
        .panels
        .resize(npairs.div_ceil(group) * 6 * panel, C64::ZERO);

    let group_body = |g: usize, acc: &mut [C64], xt: &mut [C64]| -> u64 {
        acc.chunks_mut(per_pair)
            .enumerate()
            .map(|(t, acc_p)| pair_sums(prob, blk, tr, g * group + t, acc_p, xt))
            .sum()
    };
    let acc = &mut scratch.acc;
    let flops: u64 = if par {
        acc.par_chunks_mut(group * per_pair)
            .zip(scratch.panels.par_chunks_mut(6 * panel))
            .enumerate()
            .map(|(g, (acc, xt))| group_body(g, acc, xt))
            .sum()
    } else {
        acc.chunks_mut(group * per_pair)
            .zip(scratch.panels.chunks_mut(6 * panel))
            .enumerate()
            .map(|(g, (acc, xt))| group_body(g, acc, xt))
            .sum()
    };

    let pairs = &prob.device.neighbors.pairs;
    for (t, acc_p) in acc.chunks(per_pair).enumerate() {
        let p = blk.pairs.start + t;
        let pe = pi_l.pair_entry(p);
        let de = pi_l.diag_entry(pairs[p].from);
        for q in 0..nq {
            for m in 0..nw {
                if blk.absorption(prob.omega_steps(m), ne).is_empty() {
                    continue;
                }
                let o = (q * nw + m) * 2 * D_BSZ;
                let (c_l, c_g) = acc_p[o..o + 2 * D_BSZ].split_at(D_BSZ);
                for x in 0..D_BSZ {
                    pi_l.block_mut(q, m, pe)[x] += c_l[x].scale(prob.scale_pi);
                    pi_l.block_mut(q, m, de)[x] += c_l[x].scale(prob.scale_pi);
                    pi_g.block_mut(q, m, pe)[x] += c_g[x].scale(prob.scale_pi);
                    pi_g.block_mut(q, m, de)[x] += c_g[x].scale(prob.scale_pi);
                }
            }
        }
    }
    flops
}

/// The `C^≷` sums of the block's `t`-th pair `p` into `acc`
/// (`[qz][ω][lesser, greater]` blocks): `C^<_{ij}(q, ω) = Σ_k Σ_e
/// tr(∇H^i_rev·G^<(k+q, e+ω) · ∇H^j_p·G^>(k, e))` and its greater
/// counterpart, `e` over the block's summation window. `xt` is the
/// worker's panel buffer. Returns the flops spent.
fn pair_sums(
    prob: &SseProblem,
    blk: &AtomBlock,
    tr: &Transients,
    t: usize,
    acc: &mut [C64],
    xt: &mut [C64],
) -> u64 {
    let norb = prob.norb();
    let bsz = norb * norb;
    let (nk, ne, nq, nw) = (prob.nk, prob.ne, prob.nq, prob.nw);
    let panel = blk.halo.len() * bsz;
    let rev_slot = blk.slot_of(prob.rev_pair[blk.pairs.start + t]);
    let mut flops = 0u64;
    acc.fill(C64::ZERO);
    for kq in 0..nk {
        // tr(X·Y) = Σ_{r,s} X[r,s]·Y[s,r]: transposing each rev-side block
        // once turns every trace into a plain dot product over the
        // contiguous energy range, reused for all qz and ω.
        for (side, hg) in [&tr.hg_l, &tr.hg_g].into_iter().enumerate() {
            for i in 0..3 {
                let src = &hg[tr.hg_offset(rev_slot, i, kq, 0)..][..panel];
                let dst = &mut xt[(side * 3 + i) * panel..][..panel];
                for (d, s) in dst.chunks_exact_mut(bsz).zip(src.chunks_exact(bsz)) {
                    for r in 0..norb {
                        for c in 0..norb {
                            d[r * norb + c] = s[c * norb + r];
                        }
                    }
                }
            }
        }
        let (xt_l, xt_g) = xt.split_at(3 * panel);
        let y0 = blk.energies.start - blk.halo.start;
        for q in 0..nq {
            let k = prob.k_minus_q(kq, q);
            let y_l = [0, 1, 2].map(|j| &tr.hg_l[tr.hg_offset(t, j, k, y0)..][..panel - y0 * bsz]);
            let y_g = [0, 1, 2].map(|j| &tr.hg_g[tr.hg_offset(t, j, k, y0)..][..panel - y0 * bsz]);
            for m in 0..nw {
                let steps = prob.omega_steps(m);
                let win = blk.absorption(steps, ne);
                if win.is_empty() {
                    continue;
                }
                let len = win.len() * bsz;
                let x0 = (y0 + steps) * bsz;
                let x_l = [0, 1, 2].map(|i| &xt_l[i * panel + x0..][..len]);
                let x_g = [0, 1, 2].map(|i| &xt_g[i * panel + x0..][..len]);
                let o = (q * nw + m) * 2 * D_BSZ;
                let (c_l, c_g) = acc[o..o + 2 * D_BSZ].split_at_mut(D_BSZ);
                let s_l = dot9(x_l, y_g);
                let s_g = dot9(x_g, y_l);
                for x in 0..D_BSZ {
                    c_l[x] += s_l[x];
                    c_g[x] += s_g[x];
                }
                flops += 2 * 8 * (D_BSZ * len) as u64;
            }
        }
    }
    flops
}

/// The nine unconjugated dots `Σ_t x_i[t]·y_j[t]` (slot `j·3 + i`, the Π
/// block's column-major order) in one pass over `x`'s length, with the
/// nine complex accumulators held in registers.
#[inline]
fn dot9(x: [&[C64]; 3], y: [&[C64]; 3]) -> [C64; D_BSZ] {
    let n = x[0].len();
    let (x0, x1, x2) = (&x[0][..n], &x[1][..n], &x[2][..n]);
    let (y0, y1, y2) = (&y[0][..n], &y[1][..n], &y[2][..n]);
    let mut s = [C64::ZERO; D_BSZ];
    for t in 0..n {
        let xs = [x0[t], x1[t], x2[t]];
        for (j, yj) in [y0[t], y1[t], y2[t]].into_iter().enumerate() {
            for (i, &xi) in xs.iter().enumerate() {
                s[j * 3 + i] = s[j * 3 + i].mul_add(xi, yj);
            }
        }
    }
    s
}

/// Sequential single-block helper mirroring the reference arithmetic; used
/// in unit tests of the transient construction.
pub fn check_transient_block(
    prob: &SseProblem,
    g: &GTensor,
    pair: usize,
    i: usize,
    k: usize,
    e: usize,
) -> Vec<C64> {
    let norb = prob.norb();
    let dims = BatchDims::square(norb);
    let b = prob.device.neighbors.pairs[pair].to;
    let mut out = vec![C64::ZERO; norb * norb];
    small_gemm(
        dims,
        C64::ONE,
        prob.device.gradients.grads[pair][i].as_slice(),
        g.block(k, e, b),
        C64::ZERO,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sse_reference;
    use crate::testutil::{random_inputs, tiny_device, tiny_problem};

    #[test]
    fn transformed_matches_reference() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 42);
        let reference = sse_reference(&prob, &gl, &gg, &dl, &dg);
        let gl_am = gl.to_layout(GLayout::AtomMajor);
        let gg_am = gg.to_layout(GLayout::AtomMajor);
        let transformed = sse_transformed(&prob, &gl_am, &gg_am, &dl, &dg);

        let scale = reference.sigma_l.max_abs().max(1e-300);
        let dev_sl = transformed.sigma_l.max_deviation(&reference.sigma_l) / scale;
        assert!(dev_sl < 1e-12, "Σ< relative deviation {dev_sl}");
        let dev_sg = transformed.sigma_g.max_deviation(&reference.sigma_g)
            / reference.sigma_g.max_abs().max(1e-300);
        assert!(dev_sg < 1e-12, "Σ> relative deviation {dev_sg}");
        let dev_pl =
            transformed.pi_l.max_deviation(&reference.pi_l) / reference.pi_l.max_abs().max(1e-300);
        assert!(dev_pl < 1e-12, "Π< relative deviation {dev_pl}");
        let dev_pg =
            transformed.pi_g.max_deviation(&reference.pi_g) / reference.pi_g.max_abs().max(1e-300);
        assert!(dev_pg < 1e-12, "Π> relative deviation {dev_pg}");
    }

    #[test]
    fn flop_reduction_matches_model() {
        // The GEMM-dominated part shrinks by ≈ 2NqNω/(NqNω+1) (§6.1.1).
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 1);
        let reference = sse_reference(&prob, &gl, &gg, &dl, &dg);
        let gl_am = gl.to_layout(GLayout::AtomMajor);
        let gg_am = gg.to_layout(GLayout::AtomMajor);
        let transformed = sse_transformed(&prob, &gl_am, &gg_am, &dl, &dg);
        assert!(
            transformed.flops < reference.flops,
            "transformed must do fewer flops: {} vs {}",
            transformed.flops,
            reference.flops
        );
        // Windowing and the Π stage blur the exact ratio; require at least
        // a 25% reduction for this tiny configuration.
        let ratio = transformed.flops as f64 / reference.flops as f64;
        assert!(ratio < 0.75, "flop ratio {ratio}");
    }

    #[test]
    fn transient_blocks_match_direct_product() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, _, _) = random_inputs(&prob, 9);
        let gl_am = gl.to_layout(GLayout::AtomMajor);
        let gg_am = gg.to_layout(GLayout::AtomMajor);
        let (_, _, dl, dg) = random_inputs(&prob, 9);
        let tr = build_transients(&prob, &gl_am, &gg_am, &dl, &dg);
        let bsz = prob.norb() * prob.norb();
        for &(p, i, k, e) in &[(0usize, 0usize, 0usize, 0usize), (3, 2, 1, 4), (7, 1, 1, 2)] {
            let want = check_transient_block(&prob, &gl_am, p, i, k, e);
            let got = &tr.hg_l[tr.hg_offset(p, i, k, e)..tr.hg_offset(p, i, k, e) + bsz];
            let dev: f64 = want
                .iter()
                .zip(got)
                .map(|(w, g)| (*w - *g).abs())
                .fold(0.0, f64::max);
            assert!(dev < 1e-13, "transient ({p},{i},{k},{e}) deviates by {dev}");
        }
    }

    #[test]
    fn layout_requirement_enforced() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 2);
        // PairMajor input must panic.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sse_transformed(&prob, &gl, &gg, &dl, &dg)
        }));
        assert!(result.is_err(), "PairMajor input must be rejected");
    }
}
