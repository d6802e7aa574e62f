//! The data-centric (DaCe) SSE communication scheme (§5.2, Fig. 5 right).
//!
//! The SSE map is re-tiled by atom position × energy window. Exactly
//! **four** `Alltoallv` collectives move the data, once per tensor:
//!
//! 1. `G^≷` from the GF-phase `(kz, E)` owners to atom×energy tiles
//!    (each tile receives its atoms + neighbor halo, its energies ± `Nω`
//!    halo, all momenta);
//! 2. `D^≷` from phonon owners to tiles (local pairs, reverse pairs, and
//!    the touched diagonals);
//! 3. `Σ^≷` from tiles back to `(kz, E)` owners;
//! 4. `Π^≷` partials from tiles to phonon owners (summed at destination).
//!
//! No `G` row is ever replicated per `(qz, ω)` round — the asymptotic
//! volume reduction of Tables 4–5.
//!
//! Between the exchanges each rank computes its tile with the transformed
//! kernel (Fig. 6): the `G^≷` blocks of Alltoall #1 are unpacked straight
//! into an `AtomMajor` tile (halo atoms × kz × halo energies, layout
//! transformation ❷), and stages A–D run over bounded atom blocks of the
//! tile ([`omen_sse::sse_block`]) on the rank's own thread — the ranks
//! are the parallelism. The blocks stream: only one block's transients
//! are alive at a time, and each block recomputes the `∇H·G` of the
//! reverse pairs it does not own. Both `Σ^≷` and `Π^≷` carry the problem
//! scales where [`omen_sse::sse_transformed`] applies them, so with one
//! energy tile the plan reproduces the transformed kernel bitwise; energy
//! tiles split the `Π^≷` energy sums across ranks (≤ 1e-12 relative).

use crate::mpi_sim::{run_world, Comm};
use crate::plan_common::{assemble, initial_d, initial_g, PlanResult, RankSse};
use crate::sse_state::LocalD;
use crate::topology::{DaceTiling, OmenGrid};
use crate::volume::VolumeLedger;
use omen_linalg::C64;
use omen_sse::{
    sse_block, AtomBlock, DLayout, DTensor, GPanels, GTensor, SseProblem, Transients, D_BSZ,
};
use std::collections::BTreeSet;
use std::ops::Range;

/// Sorted atoms of tile `ia` plus the neighbor halo (the `c ≤ Nb` extra
/// atoms of §6.1.2).
pub fn tile_atoms_with_halo(prob: &SseProblem, tiling: &DaceTiling, ia: usize) -> Vec<usize> {
    let (lo, hi) = tiling.atom_range(ia);
    let mut set: BTreeSet<usize> = (lo..hi).collect();
    for a in lo..hi {
        for (_, b) in prob.pairs_of(a) {
            set.insert(b);
        }
    }
    set.into_iter().collect()
}

/// Sorted `D`-tensor entries tile `ia` needs: its atoms' pairs, their
/// reverse pairs, and the diagonals of local + halo atoms.
pub fn tile_d_entries(prob: &SseProblem, tiling: &DaceTiling, ia: usize) -> Vec<usize> {
    let (lo, hi) = tiling.atom_range(ia);
    let np = prob.npairs();
    let mut set = BTreeSet::new();
    for a in lo..hi {
        set.insert(np + a);
        for (p, b) in prob.pairs_of(a) {
            set.insert(p);
            set.insert(prob.rev_pair[p]);
            set.insert(np + b);
        }
    }
    set.into_iter().collect()
}

/// Sorted entries tile `ia` *produces* for `Π^≷`: its atoms' pairs and
/// diagonals.
pub fn tile_pi_entries(prob: &SseProblem, tiling: &DaceTiling, ia: usize) -> Vec<usize> {
    let (lo, hi) = tiling.atom_range(ia);
    let np = prob.npairs();
    let mut set = BTreeSet::new();
    for a in lo..hi {
        set.insert(np + a);
        for (p, _) in prob.pairs_of(a) {
            set.insert(p);
        }
    }
    set.into_iter().collect()
}

/// One tile's `G^≷` in `AtomMajor` order: halo atoms × kz × halo
/// energies, filled straight from the Alltoall #1 messages.
struct TileG {
    atoms: Vec<usize>,
    nk: usize,
    h_lo: usize,
    nh: usize,
    bsz: usize,
    data: Vec<C64>,
}

impl TileG {
    fn new(atoms: Vec<usize>, nk: usize, (h_lo, h_hi): (usize, usize), bsz: usize) -> Self {
        let nh = h_hi - h_lo;
        let data = vec![C64::ZERO; atoms.len() * nk * nh * bsz];
        TileG {
            atoms,
            nk,
            h_lo,
            nh,
            bsz,
            data,
        }
    }

    /// The block of the `x`-th halo atom at `(k, e)`.
    fn block_mut(&mut self, x: usize, k: usize, e: usize) -> &mut [C64] {
        let o = ((x * self.nk + k) * self.nh + e - self.h_lo) * self.bsz;
        &mut self.data[o..o + self.bsz]
    }
}

impl GPanels for TileG {
    fn panel(&self, k: usize, a: usize) -> &[C64] {
        let x = self
            .atoms
            .binary_search(&a)
            .unwrap_or_else(|_| panic!("atom {a} outside the tile's halo"));
        &self.data[(x * self.nk + k) * self.nh * self.bsz..][..self.nh * self.bsz]
    }
}

/// Upper bound on the pairs of one streamed atom block (a block holds at
/// least one atom). It bounds the block's transients: a block holds the
/// `∇H·G^≷` of at most twice this many pairs (its own and their outer
/// reverse pairs), `2 · 3 · Nkz · NE_halo · Norb²` elements each: at most
/// 2.5 MiB per rank on the demo device at `Nkz = 2`, `NE = 32`.
const BLOCK_PAIRS: usize = 24;

/// Consecutive atom blocks of `lo..hi`, each with at most [`BLOCK_PAIRS`]
/// pairs unless a single atom has more.
fn atom_blocks(prob: &SseProblem, lo: usize, hi: usize) -> Vec<Range<usize>> {
    let offsets = &prob.device.neighbors.offsets;
    let mut blocks = Vec::new();
    let mut start = lo;
    while start < hi {
        let mut end = start + 1;
        while end < hi && offsets[end + 1] - offsets[start] <= BLOCK_PAIRS {
            end += 1;
        }
        blocks.push(start..end);
        start = end;
    }
    blocks
}

/// Executes the data-centric SSE on `tiling.nranks()` simulated ranks.
/// `grid` describes where the GF phase left `G^≷`/`D^≷` (pair owners);
/// it must have the same rank count as the tiling.
pub fn run_dace_plan(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
    grid: &OmenGrid,
    tiling: &DaceTiling,
) -> (PlanResult, VolumeLedger) {
    assert_eq!(
        grid.nranks(),
        tiling.nranks(),
        "source and tile decompositions must share the world"
    );
    let _phase = omen_trace::PhaseGuard::enter("comm_dace_plan");
    let nranks = tiling.nranks();
    let ledger = VolumeLedger::new(nranks);
    let bsz = prob.norb() * prob.norb();
    let (nk, nq, nw) = (prob.nk, prob.nq, prob.nw);
    let (na, npairs) = (prob.na(), prob.npairs());
    let nentries = npairs + na;

    let outputs = run_world(nranks, ledger.clone(), |comm: Comm| {
        let me = comm.rank();
        let (my_ia, my_ie) = tiling.tile_of(me);
        let (a_lo, a_hi) = tiling.atom_range(my_ia);
        let my_atoms_halo = tile_atoms_with_halo(prob, tiling, my_ia);
        let (e_lo, e_hi) = tiling.energy_range(my_ie);
        let halo = tiling.energy_range_halo(my_ie, nw);

        // ---- Alltoall #1: G^≷ to tiles, unpacked AtomMajor (❷) ----
        // Each stage's source data and messages are dropped as soon as
        // they are consumed: the ranks' peaks add up.
        let my_owned = grid.owned_pairs(me);
        let (gl_own, gg_own) = initial_g(prob, grid, me, g_l, g_g);
        let sendbufs: Vec<Vec<C64>> = (0..nranks)
            .map(|t| {
                let (ta_t, te_t) = tiling.tile_of(t);
                let (tl, th) = tiling.energy_range_halo(te_t, nw);
                let atoms = tile_atoms_with_halo(prob, tiling, ta_t);
                let mut buf = Vec::new();
                for &(k, e) in &my_owned {
                    if e >= tl && e < th {
                        for &a in &atoms {
                            buf.extend_from_slice(gl_own.get_block(k, e, a));
                        }
                        for &a in &atoms {
                            buf.extend_from_slice(gg_own.get_block(k, e, a));
                        }
                    }
                }
                buf
            })
            .collect();
        drop((gl_own, gg_own));
        let got = comm.alltoallv(1, sendbufs);
        let nhalo = my_atoms_halo.len();
        let mut tile_gl = TileG::new(my_atoms_halo.clone(), nk, halo, bsz);
        let mut tile_gg = TileG::new(my_atoms_halo, nk, halo, bsz);
        for (s, buf) in got.iter().enumerate() {
            let mut blocks = buf.chunks_exact(bsz);
            for (k, e) in grid.owned_pairs(s) {
                if e >= halo.0 && e < halo.1 {
                    for tile in [&mut tile_gl, &mut tile_gg] {
                        for x in 0..nhalo {
                            let blk = blocks.next().expect("G message too short");
                            tile.block_mut(x, k, e).copy_from_slice(blk);
                        }
                    }
                }
            }
            assert!(blocks.next().is_none(), "G unpack mismatch from rank {s}");
        }
        drop(got);

        // ---- Alltoall #2: D^≷ to tiles ----
        let my_phonon_points: Vec<(usize, usize)> = (0..nq)
            .flat_map(|q| (0..nw).map(move |m| (q, m)))
            .filter(|&(q, m)| grid.owner_phonon(q, m, nw) == me)
            .collect();
        let (dl_own, dg_own) = initial_d(prob, grid, me, d_l, d_g);
        let sendbufs: Vec<Vec<C64>> = (0..nranks)
            .map(|t| {
                let (ta_t, _) = tiling.tile_of(t);
                let entries = tile_d_entries(prob, tiling, ta_t);
                let mut buf = Vec::new();
                for &(q, m) in &my_phonon_points {
                    for &en in &entries {
                        buf.extend_from_slice(dl_own.get_block(q, m, en));
                    }
                    for &en in &entries {
                        buf.extend_from_slice(dg_own.get_block(q, m, en));
                    }
                }
                buf
            })
            .collect();
        drop((dl_own, dg_own));
        let got = comm.alltoallv(2, sendbufs);
        let my_d_entries = tile_d_entries(prob, tiling, my_ia);
        let mut tile_dl = DTensor::zeros(nq, nw, npairs, na, DLayout::PointMajor);
        let mut tile_dg = DTensor::zeros(nq, nw, npairs, na, DLayout::PointMajor);
        for (s, buf) in got.iter().enumerate() {
            let mut blocks = buf.chunks_exact(D_BSZ);
            for q in 0..nq {
                for m in 0..nw {
                    if grid.owner_phonon(q, m, nw) == s {
                        for tile in [&mut tile_dl, &mut tile_dg] {
                            for &en in &my_d_entries {
                                let blk = blocks.next().expect("D message too short");
                                tile.block_mut(q, m, en).copy_from_slice(blk);
                            }
                        }
                    }
                }
            }
            assert!(blocks.next().is_none(), "D unpack mismatch from rank {s}");
        }
        drop(got);

        // ---- local compute: stages A–D of the transformed kernel over
        // bounded atom blocks of the tile, on this rank's thread ----
        let nout = e_hi - e_lo;
        let atom_chunk = nk * nout * bsz;
        let mut sig_l = vec![C64::ZERO; (a_hi - a_lo) * atom_chunk];
        let mut sig_g = vec![C64::ZERO; (a_hi - a_lo) * atom_chunk];
        let mut pi_l = DTensor::zeros(nq, nw, npairs, na, DLayout::PointMajor);
        let mut pi_g = DTensor::zeros(nq, nw, npairs, na, DLayout::PointMajor);
        let mut flops = 0;
        {
            let mut tr = Transients::empty();
            for atoms in atom_blocks(prob, a_lo, a_hi) {
                let out = (atoms.start - a_lo) * atom_chunk..(atoms.end - a_lo) * atom_chunk;
                let blk = AtomBlock::new(prob, atoms, e_lo..e_hi);
                flops += sse_block(
                    prob,
                    &blk,
                    &tile_gl,
                    &tile_gg,
                    &tile_dl,
                    &tile_dg,
                    &mut tr,
                    &mut sig_l[out.clone()],
                    &mut sig_g[out],
                    &mut pi_l,
                    &mut pi_g,
                );
            }
        }
        drop((tile_gl, tile_gg, tile_dl, tile_dg));

        // ---- Alltoall #3: Σ^≷ back to pair owners ----
        let sendbufs: Vec<Vec<C64>> = (0..nranks)
            .map(|t| {
                let mut buf = Vec::new();
                for (k, e) in grid.owned_pairs(t) {
                    if e >= e_lo && e < e_hi {
                        for sig in [&sig_l, &sig_g] {
                            for x in 0..a_hi - a_lo {
                                let o = x * atom_chunk + (k * nout + e - e_lo) * bsz;
                                buf.extend_from_slice(&sig[o..o + bsz]);
                            }
                        }
                    }
                }
                buf
            })
            .collect();
        drop((sig_l, sig_g));
        let got = comm.alltoallv(3, sendbufs);
        let mut sigma_out: std::collections::BTreeMap<(usize, usize), (Vec<C64>, Vec<C64>)> =
            my_owned
                .iter()
                .map(|&p| (p, (vec![C64::ZERO; na * bsz], vec![C64::ZERO; na * bsz])))
                .collect();
        for (s, buf) in got.iter().enumerate() {
            let (ta_s, te_s) = tiling.tile_of(s);
            let (sl, sh) = tiling.energy_range(te_s);
            let (alo, ahi) = tiling.atom_range(ta_s);
            let nsrc = ahi - alo;
            let mut off = 0;
            for &(k, e) in &my_owned {
                if e >= sl && e < sh {
                    let (row_l, row_g) = sigma_out.get_mut(&(k, e)).unwrap();
                    for row in [row_l, row_g] {
                        row[alo * bsz..ahi * bsz].copy_from_slice(&buf[off..off + nsrc * bsz]);
                        off += nsrc * bsz;
                    }
                }
            }
            assert_eq!(off, buf.len(), "Σ unpack mismatch from rank {s}");
        }
        drop(got);

        // ---- Alltoall #4: Π^≷ partials to phonon owners ----
        let my_pi_entries = tile_pi_entries(prob, tiling, my_ia);
        let sendbufs: Vec<Vec<C64>> = (0..nranks)
            .map(|t| {
                let mut buf = Vec::new();
                for q in 0..nq {
                    for m in 0..nw {
                        if grid.owner_phonon(q, m, nw) == t {
                            for pi in [&pi_l, &pi_g] {
                                for &en in &my_pi_entries {
                                    buf.extend_from_slice(pi.block(q, m, en));
                                }
                            }
                        }
                    }
                }
                buf
            })
            .collect();
        let got = comm.alltoallv(4, sendbufs);
        let mut pi_dest = LocalD::new(nentries);
        let mut pi_dest_g = LocalD::new(nentries);
        for (s, buf) in got.iter().enumerate() {
            let (ta_s, _) = tiling.tile_of(s);
            let entries = tile_pi_entries(prob, tiling, ta_s);
            let mut off = 0;
            for &(q, m) in &my_phonon_points {
                for &en in &entries {
                    pi_dest.add_block(q, m, en, &buf[off..off + 9]);
                    off += 9;
                }
                for &en in &entries {
                    pi_dest_g.add_block(q, m, en, &buf[off..off + 9]);
                    off += 9;
                }
            }
            assert_eq!(off, buf.len(), "Π unpack mismatch from rank {s}");
        }
        let pi_out: crate::plan_common::RankRows = my_phonon_points
            .iter()
            .map(|&(q, m)| {
                let row_l: Vec<C64> = (0..nentries)
                    .flat_map(|en| pi_dest.get_block(q, m, en).to_vec())
                    .collect();
                let row_g: Vec<C64> = (0..nentries)
                    .flat_map(|en| pi_dest_g.get_block(q, m, en).to_vec())
                    .collect();
                ((q, m), row_l, row_g)
            })
            .collect();

        RankSse {
            sigma: sigma_out
                .into_iter()
                .map(|((k, e), (l, g))| ((k, e), l, g))
                .collect(),
            pi: pi_out,
            flops,
        }
    });

    (assemble(prob, outputs), ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omen_plan::run_omen_plan;
    use crate::topology::{grid_for_ranks, tiling_for_ranks};
    use crate::volume::OpKind;
    use omen_device::{DeviceConfig, DeviceStructure};
    use omen_sse::testutil::{random_inputs, tiny_device};
    use omen_sse::{sse_reference, sse_transformed, GLayout, SseOutput};

    /// Runs the DaCe plan on `ranks` ranks with the tiling the plan kernel
    /// picks, and the transformed kernel on the same inputs.
    fn dace_and_transformed(prob: &SseProblem, ranks: usize, seed: u64) -> (PlanResult, SseOutput) {
        let (gl, gg, dl, dg) = random_inputs(prob, seed);
        let grid = grid_for_ranks(prob.nk, prob.ne, ranks).unwrap();
        let tiling = tiling_for_ranks(prob.na(), prob.ne, ranks).unwrap();
        assert_eq!(tiling.te, 1, "atom-only tiling");
        let (res, _) = run_dace_plan(prob, &gl, &gg, &dl, &dg, &grid, &tiling);
        let gl = gl.to_layout(GLayout::AtomMajor);
        let gg = gg.to_layout(GLayout::AtomMajor);
        (res, sse_transformed(prob, &gl, &gg, &dl, &dg))
    }

    /// Every Σ^≷/Π^≷ deviation of `res` from `want`, relative to `want`'s
    /// largest magnitude, is at most `tol` (0: bitwise equal values).
    fn assert_close(res: &PlanResult, want: &SseOutput, tol: f64, what: &str) {
        let rel = |d: f64, s: f64| d / s.max(1e-300);
        let devs = [
            (
                "Σ<",
                rel(
                    res.sigma_l.max_deviation(&want.sigma_l),
                    want.sigma_l.max_abs(),
                ),
            ),
            (
                "Σ>",
                rel(
                    res.sigma_g.max_deviation(&want.sigma_g),
                    want.sigma_g.max_abs(),
                ),
            ),
            (
                "Π<",
                rel(res.pi_l.max_deviation(&want.pi_l), want.pi_l.max_abs()),
            ),
            (
                "Π>",
                rel(res.pi_g.max_deviation(&want.pi_g), want.pi_g.max_abs()),
            ),
        ];
        for (name, d) in devs {
            assert!(d <= tol, "{what}: {name} deviation {d}");
        }
    }

    #[test]
    fn dace_atom_tiles_equal_transformed_on_tiny() {
        // Non-unit scales: both kernels must scale at the same points.
        let dev = tiny_device();
        let prob = SseProblem::new(&dev, 2, 6, 2, 2, 0.37, 1.9);
        for ranks in [1, 2, 4] {
            let (res, want) = dace_and_transformed(&prob, ranks, 61);
            assert_close(&res, &want, 0.0, &format!("{ranks} ranks"));
            // Blocks recompute the ∇H·G of reverse pairs outside them.
            assert!(res.flops >= want.flops, "{ranks} ranks: flops");
        }
    }

    #[test]
    fn dace_atom_tiles_equal_transformed_on_demo() {
        // The born_distributed shape, with several streamed blocks per
        // tile (so outer reverse pairs are recomputed).
        let dev = DeviceStructure::build(DeviceConfig::demo());
        let prob = SseProblem::new(&dev, 2, 32, 2, 2, 0.37, 1.9);
        assert!(atom_blocks(&prob, 0, prob.na() / 2).len() > 1);
        for ranks in [2, 4] {
            let (res, want) = dace_and_transformed(&prob, ranks, 7);
            assert_close(&res, &want, 0.0, &format!("{ranks} ranks"));
            assert!(res.flops >= want.flops, "{ranks} ranks: flops");
        }
    }

    #[test]
    fn dace_plan_matches_reference() {
        // Energy tiles split the Π energy sums across ranks, so the plan is
        // close to the local kernels rather than bitwise equal.
        let dev = tiny_device();
        let prob = SseProblem::new(&dev, 2, 6, 2, 2, 0.37, 1.9);
        let (gl, gg, dl, dg) = random_inputs(&prob, 55);
        let reference = sse_reference(&prob, &gl, &gg, &dl, &dg);
        let grid = OmenGrid::new(2, 3, prob.nk, prob.ne);
        let tiling = DaceTiling::new(3, 2, prob.na(), prob.ne);
        let (result, ledger) = run_dace_plan(&prob, &gl, &gg, &dl, &dg, &grid, &tiling);
        assert_close(&result, &reference, 1e-12, "vs reference");
        let gl = gl.to_layout(GLayout::AtomMajor);
        let gg = gg.to_layout(GLayout::AtomMajor);
        let transformed = sse_transformed(&prob, &gl, &gg, &dl, &dg);
        assert_close(&result, &transformed, 1e-12, "vs transformed");

        // Exactly four Alltoallv collectives, nothing else.
        assert_eq!(ledger.calls(OpKind::Alltoall), 4);
        assert_eq!(ledger.calls(OpKind::Bcast), 0);
        assert_eq!(ledger.calls(OpKind::Reduce), 0);
        assert_eq!(ledger.calls(OpKind::PointToPoint), 0);
    }

    #[test]
    fn dace_volume_beats_omen() {
        // With enough (q, m) rounds the OMEN replication dwarfs the
        // one-time DaCe redistribution.
        let dev = tiny_device();
        let prob = SseProblem::new(&dev, 2, 10, 2, 3, 1.0, 1.0);
        let (gl, gg, dl, dg) = random_inputs(&prob, 21);
        let grid = OmenGrid::new(2, 3, prob.nk, prob.ne);
        let tiling = DaceTiling::new(3, 2, prob.na(), prob.ne);
        let (res_o, ledger_o) = run_omen_plan(&prob, &gl, &gg, &dl, &dg, &grid);
        let (res_d, ledger_d) = run_dace_plan(&prob, &gl, &gg, &dl, &dg, &grid, &tiling);
        // Same answer…
        let dev_sig =
            res_d.sigma_l.max_deviation(&res_o.sigma_l) / res_o.sigma_l.max_abs().max(1e-300);
        assert!(dev_sig <= 1e-12, "Σ< DaCe vs OMEN deviation {dev_sig}");
        // …at a fraction of the traffic.
        let vo = ledger_o.total_bytes();
        let vd = ledger_d.total_bytes();
        assert!(
            vd * 2 < vo,
            "DaCe volume {vd} should be well below OMEN volume {vo}"
        );
        // And with constant invocation count (4) vs O(Nq·Nω·…).
        assert!(ledger_o.total_calls() > ledger_d.total_calls() * 5);
    }

    #[test]
    fn entry_sets_are_consistent() {
        let dev = tiny_device();
        let prob = SseProblem::new(&dev, 2, 6, 2, 2, 1.0, 1.0);
        let tiling = DaceTiling::new(4, 1, prob.na(), prob.ne);
        for ia in 0..4 {
            let atoms = tile_atoms_with_halo(&prob, &tiling, ia);
            let (lo, hi) = tiling.atom_range(ia);
            // Halo includes the tile itself.
            for a in lo..hi {
                assert!(atoms.contains(&a));
            }
            // Sorted and unique.
            for w in atoms.windows(2) {
                assert!(w[0] < w[1]);
            }
            // D entries cover every pair of every tile atom and its rev.
            let entries = tile_d_entries(&prob, &tiling, ia);
            for a in lo..hi {
                for (p, b) in prob.pairs_of(a) {
                    assert!(entries.contains(&p));
                    assert!(entries.contains(&prob.rev_pair[p]));
                    assert!(entries.contains(&(prob.npairs() + b)));
                }
            }
            // Π entries are a subset of D entries (pairs + own diags).
            let pi_entries = tile_pi_entries(&prob, &tiling, ia);
            for en in &pi_entries {
                assert!(entries.contains(en));
            }
        }
    }
}
