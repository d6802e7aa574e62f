//! Shared scaffolding of the distributed SSE plans: initial data
//! distributions, rank outputs, and result assembly.

use crate::sse_state::{LocalD, LocalG};
use crate::topology::OmenGrid;
use omen_linalg::C64;
use omen_sse::{DLayout, DTensor, GBlocks, GLayout, GTensor, SseProblem};

/// Per-point lesser/greater row pair keyed by its grid point: one rank's
/// share of a tensor, as `((i, j), row_l, row_g)` triples.
pub type RankRows = Vec<((usize, usize), Vec<C64>, Vec<C64>)>;

/// Per-rank SSE results handed back by a plan's rank closure.
pub struct RankSse {
    /// Owned `Σ^≷(k, e)` rows (full `na · bsz`, scaled by `scale_sigma`).
    pub sigma: RankRows,
    /// Owned `Π^≷(q, m)` rows (full `nentries · 9`, scaled by `scale_pi`).
    pub pi: RankRows,
    /// Flops the rank's SSE arithmetic spent (0 where a plan does not
    /// meter it).
    pub flops: u64,
}

/// Assembled plan output (scaled; comparable to
/// [`omen_sse::reference::sse_reference`]).
pub struct PlanResult {
    /// `Σ^<` in `PairMajor` layout.
    pub sigma_l: GTensor,
    /// `Σ^>`.
    pub sigma_g: GTensor,
    /// `Π^<` in `PointMajor` layout.
    pub pi_l: DTensor,
    /// `Π^>`.
    pub pi_g: DTensor,
    /// Flops summed over the ranks.
    pub flops: u64,
}

/// Extracts the initial per-rank `G^≷` distribution: the `(k, e)` rows the
/// GF phase left on this rank (no communication — this is the plan's
/// starting state).
pub fn initial_g(
    prob: &SseProblem,
    grid: &OmenGrid,
    rank: usize,
    g_l: &GTensor,
    g_g: &GTensor,
) -> (LocalG, LocalG) {
    let bsz = prob.norb() * prob.norb();
    let na = prob.na();
    let mut ll = LocalG::new(na, bsz);
    let mut lg = LocalG::new(na, bsz);
    for (k, e) in grid.owned_pairs(rank) {
        let mut row_l = Vec::with_capacity(na * bsz);
        let mut row_g = Vec::with_capacity(na * bsz);
        for a in 0..na {
            row_l.extend_from_slice(g_l.block(k, e, a));
            row_g.extend_from_slice(g_g.block(k, e, a));
        }
        ll.insert_row(k, e, row_l);
        lg.insert_row(k, e, row_g);
    }
    (ll, lg)
}

/// Extracts the initial per-rank `D^≷` distribution (phonon-point owners).
pub fn initial_d(
    prob: &SseProblem,
    grid: &OmenGrid,
    rank: usize,
    d_l: &DTensor,
    d_g: &DTensor,
) -> (LocalD, LocalD) {
    let nentries = prob.npairs() + prob.na();
    let mut ll = LocalD::new(nentries);
    let mut lg = LocalD::new(nentries);
    for q in 0..prob.nq {
        for m in 0..prob.nw {
            if grid.owner_phonon(q, m, prob.nw) == rank {
                let mut row_l = Vec::with_capacity(nentries * 9);
                let mut row_g = Vec::with_capacity(nentries * 9);
                for en in 0..nentries {
                    row_l.extend_from_slice(d_l.block(q, m, en));
                    row_g.extend_from_slice(d_g.block(q, m, en));
                }
                ll.insert_row(q, m, row_l);
                lg.insert_row(q, m, row_g);
            }
        }
    }
    (ll, lg)
}

/// Assembles rank outputs into full tensors. The rows arrive scaled: each
/// plan applies the problem scales where its arithmetic needs them.
pub fn assemble(prob: &SseProblem, rank_outputs: Vec<RankSse>) -> PlanResult {
    let norb = prob.norb();
    let bsz = norb * norb;
    let na = prob.na();
    let mut sigma_l = GTensor::zeros(prob.nk, prob.ne, na, norb, GLayout::PairMajor);
    let mut sigma_g = GTensor::zeros(prob.nk, prob.ne, na, norb, GLayout::PairMajor);
    let mut pi_l = DTensor::zeros(prob.nq, prob.nw, prob.npairs(), na, DLayout::PointMajor);
    let mut pi_g = DTensor::zeros(prob.nq, prob.nw, prob.npairs(), na, DLayout::PointMajor);
    let mut flops = 0;
    for out in rank_outputs {
        flops += out.flops;
        for ((k, e), row_l, row_g) in out.sigma {
            for a in 0..na {
                for (x, v) in sigma_l.block_mut(k, e, a).iter_mut().enumerate() {
                    *v += row_l[a * bsz + x];
                }
                for (x, v) in sigma_g.block_mut(k, e, a).iter_mut().enumerate() {
                    *v += row_g[a * bsz + x];
                }
            }
        }
        let nentries = prob.npairs() + na;
        for ((q, m), row_l, row_g) in out.pi {
            for en in 0..nentries {
                for x in 0..9 {
                    pi_l.block_mut(q, m, en)[x] += row_l[en * 9 + x];
                    pi_g.block_mut(q, m, en)[x] += row_g[en * 9 + x];
                }
            }
        }
    }
    PlanResult {
        sigma_l,
        sigma_g,
        pi_l,
        pi_g,
        flops,
    }
}

/// A read-through view over two `LocalG` stores: the rank's resident data
/// plus the blocks received this round.
pub struct CombinedG<'a> {
    /// Resident store.
    pub own: &'a LocalG,
    /// Received-this-round store.
    pub extra: &'a LocalG,
}

impl GBlocks for CombinedG<'_> {
    fn gblock(&self, k: usize, e: usize, a: usize) -> &[C64] {
        if self.own.has(k, e) {
            self.own.get_block(k, e, a)
        } else {
            self.extra.get_block(k, e, a)
        }
    }
}
