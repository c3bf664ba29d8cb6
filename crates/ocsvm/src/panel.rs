//! Cache-blocked, unit-stride scoring kernels over packed probe panels.
//!
//! Batch scoring evaluates one support vector (or weight vector) against
//! *many* probe windows. The sparse merge loops in [`SparseVector`] walk
//! index lists with data-dependent branches — correct, but opaque to the
//! autovectorizer. A [`ProbePanel`] repacks the probe batch once into
//! blocks of [`PANEL_BLOCK`] probes. Each block stores only the columns
//! at least one of its probes stores: an ascending `cols` list and
//! `data[slot * bw + j]`, probe `j`'s value in column `cols[slot]`. Every
//! kernel primitive is then a unit-stride loop over the probe lane `j`
//! with a block-sized accumulator that stays in registers/L1 — exactly
//! the shape LLVM's autovectorizer turns into SIMD on any target.
//!
//! A panel borrows the probe slice it was packed from, so one panel per
//! probe set serves every row against it: a regularization sweep packs
//! its `ACCother` probes once and every model of the sweep scores them
//! through [`OneClassModel::panel_acceptance`](crate::OneClassModel::panel_acceptance),
//! while batch scoring packs each fresh batch once for all of a model's
//! support vectors.
//!
//! # Compact blocks
//!
//! Feature windows are very sparse (about 14 of 843 columns), but the
//! windows of one block share most of their columns, so a block stores a
//! small fraction of the panel's width. Each primitive walks only what
//! can change an accumulator:
//!
//! * [`ProbePanel::dot_into`] walks `x`'s entries that hit a block column;
//! * [`ProbePanel::gemv_into`] walks the block columns with a non-zero
//!   weight;
//! * [`ProbePanel::sq_dist_into`] walks the ascending union of `x`'s
//!   columns and the block's columns. A column only `x` has adds `x_c²`
//!   to every lane, because no probe of the block stores it.
//!
//! A column that neither `x` nor any probe of the block stores would add
//! `+0.0` to every lane, so skipping it changes nothing (see below).
//!
//! # Bit-identity
//!
//! The primitives are **bit-identical** to the sparse merge loops they
//! replace, not merely close:
//!
//! * Terms are added in the same ascending-column order as the merges.
//! * The extra terms a block walk sees for a probe are all `±0.0`
//!   (`x·0.0`, `w·0.0` or `0.0²`: the probe does not store a column its
//!   block stores), and adding `±0.0` never changes an accumulator that is
//!   not `-0.0`. No accumulator here can ever *be* `-0.0`: each starts at
//!   `+0.0`, and IEEE 754 round-to-nearest gives `(+0.0) + (−0.0) = +0.0`,
//!   so the zero-sign never flips negative.
//! * Where `x` has a column the probe lacks, the walk adds
//!   `(x_c − 0.0)² = x_c²`, the merge's term, bit-exactly; where only the
//!   probe has it, `p²`, again the merge's term.
//!
//! The equivalence tests below and the suites in `gram`/`model` re-prove
//! this on every run.

use crate::kernel::Kernel;
use crate::sparse::SparseVector;
use std::sync::OnceLock;

/// Probes per panel block: the per-block accumulator (`PANEL_BLOCK`
/// scalars) must stay resident in registers/L1 across a row fill.
pub const PANEL_BLOCK: usize = 64;

/// One block of up to [`PANEL_BLOCK`] probes, stored over only the
/// columns its probes store.
#[derive(Debug, Clone)]
struct Block {
    /// Ascending columns stored by at least one probe of the block.
    cols: Vec<u32>,
    /// `data[slot * bw + j]`: probe `j`'s value in column `cols[slot]`
    /// (`+0.0` where the probe does not store it).
    data: Vec<f64>,
    /// Probes in this block (= lane width of every column row).
    bw: usize,
}

impl Block {
    /// Packs one chunk of probes. `occupied` is an all-zero bitmap with a
    /// bit for every column the chunk may store, `ranks` a buffer of its
    /// length; both are scratch reused across blocks, and `occupied` is
    /// left all-zero. The bitmap yields the ascending columns without a
    /// sort, and a column's slot is its rank among them.
    fn pack(chunk: &[&SparseVector], occupied: &mut [u64], ranks: &mut [u32]) -> Self {
        let bw = chunk.len();
        for probe in chunk {
            for &(column, _) in probe.as_pairs() {
                occupied[column as usize / 64] |= 1 << (column % 64);
            }
        }
        let mut cols = Vec::new();
        for (w, (&bits, rank)) in occupied.iter().zip(ranks.iter_mut()).enumerate() {
            *rank = cols.len() as u32;
            let mut rest = bits;
            while rest != 0 {
                cols.push((w * 64) as u32 + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
        let mut data = vec![0.0; cols.len() * bw];
        for (j, probe) in chunk.iter().enumerate() {
            for &(column, value) in probe.as_pairs() {
                let w = column as usize / 64;
                let below = occupied[w] & ((1u64 << (column % 64)) - 1);
                let slot = (ranks[w] + below.count_ones()) as usize;
                data[slot * bw + j] = value;
            }
        }
        occupied.fill(0);
        Self { cols, data, bw }
    }

    /// Every probe's value in column `cols[slot]`.
    fn lane(&self, slot: usize) -> &[f64] {
        &self.data[slot * self.bw..(slot + 1) * self.bw]
    }
}

/// A probe batch repacked into compact, unit-stride blocks.
///
/// Pack once per batch ([`ProbePanel::pack`]), then evaluate any number
/// of kernel rows against it. The panel borrows the probes it was packed
/// from ([`ProbePanel::probes`]), so a kernel row needs nothing but the
/// panel.
#[derive(Debug, Clone)]
pub struct ProbePanel<'a> {
    probes: &'a [&'a SparseVector],
    blocks: Vec<Block>,
    /// `‖pⱼ‖²` per probe, computed on the first
    /// [`squared_norms`](Self::squared_norms) call.
    squared_norms: OnceLock<Vec<f64>>,
}

impl<'a> ProbePanel<'a> {
    /// Packs `probes` into blocks of [`PANEL_BLOCK`], each over the
    /// ascending columns its probes store. A column a probe does not store
    /// holds `+0.0`, which the kernels treat exactly like the sparse
    /// merges treat absent entries.
    pub fn pack(probes: &'a [&'a SparseVector]) -> Self {
        let width = probes.iter().map(|p| p.dimension_lower_bound()).max().unwrap_or(0);
        let mut occupied = vec![0u64; width.div_ceil(64)];
        let mut ranks = vec![0u32; occupied.len()];
        let blocks = probes
            .chunks(PANEL_BLOCK)
            .map(|chunk| Block::pack(chunk, &mut occupied, &mut ranks))
            .collect();
        Self { probes, blocks, squared_norms: OnceLock::new() }
    }

    /// The probes the panel was packed from, in packing order.
    pub fn probes(&self) -> &'a [&'a SparseVector] {
        self.probes
    }

    /// Number of packed probes (= output length of every kernel).
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }

    /// `‖pⱼ‖²` for every probe, in packing order: computed once per panel,
    /// on the first call, and shared by every later one.
    pub fn squared_norms(&self) -> &[f64] {
        self.squared_norms.get_or_init(|| self.probes.iter().map(|p| p.squared_norm()).collect())
    }

    /// Each block with its slice of `out`, zeroed.
    fn zeroed_blocks<'s, 'o>(
        &'s self,
        out: &'o mut [f64],
    ) -> std::iter::Zip<std::slice::Iter<'s, Block>, std::slice::ChunksMut<'o, f64>> {
        assert_eq!(out.len(), self.probes.len(), "output width must match probe count");
        out.fill(0.0);
        self.blocks.iter().zip(out.chunks_mut(PANEL_BLOCK))
    }

    /// `out[j] = x · probeⱼ` for every probe.
    ///
    /// Bit-identical to [`SparseVector::dot`] per probe: common-column
    /// products are added in ascending column order, and the extra
    /// `x[c]·0.0` terms for block columns the probe lacks are `±0.0`
    /// no-ops (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.probe_count()`.
    pub fn dot_into(&self, x: &SparseVector, out: &mut [f64]) {
        for (block, acc) in self.zeroed_blocks(out) {
            let mut slot = 0;
            for &(column, value) in x.as_pairs() {
                slot += block.cols[slot..].partition_point(|&c| c < column);
                match block.cols.get(slot) {
                    None => break,
                    Some(&c) if c == column => {
                        for (a, &p) in acc.iter_mut().zip(block.lane(slot)) {
                            *a += value * p;
                        }
                    }
                    Some(_) => {}
                }
            }
        }
    }

    /// `out[j] = ‖x − probeⱼ‖²` for every probe.
    ///
    /// Bit-identical to [`SparseVector::squared_distance`] per probe: the
    /// union walk adds one term per column in ascending order —
    /// `(x[c]−p[c])²` where both store `c` (the merge's `(va−vb)²`),
    /// `x[c]²` where the probe lacks it (`x[c]−0.0 = x[c]`, the merge's
    /// `va²`), `p[c]²` where `x` lacks it (the merge's `vb²`), and a `+0.0`
    /// no-op for a block column neither `x` nor the probe stores.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.probe_count()`.
    pub fn sq_dist_into(&self, x: &SparseVector, out: &mut [f64]) {
        for (block, acc) in self.zeroed_blocks(out) {
            let mut rest = x.as_pairs();
            for (slot, &column) in block.cols.iter().enumerate() {
                // x's columns below this one are stored by no probe.
                while let Some((&(c, v), tail)) = rest.split_first() {
                    if c >= column {
                        break;
                    }
                    add_square(acc, v);
                    rest = tail;
                }
                let lane = block.lane(slot);
                match rest.split_first() {
                    Some((&(c, v), tail)) if c == column => {
                        for (a, &p) in acc.iter_mut().zip(lane) {
                            let d = v - p;
                            *a += d * d;
                        }
                        rest = tail;
                    }
                    _ => {
                        for (a, &p) in acc.iter_mut().zip(lane) {
                            *a += p * p;
                        }
                    }
                }
            }
            for &(_, v) in rest {
                add_square(acc, v);
            }
        }
    }

    /// `out[j] = Σ_c w[c] · probeⱼ[c]` for every probe (GEMV).
    ///
    /// Bit-identical to
    /// [`LinearBatchScorer::weighted_sum`](crate::LinearBatchScorer::weighted_sum)
    /// per probe: block columns with a non-zero weight are visited in
    /// ascending order (matching the probe-entry walk over the same
    /// columns), and columns the probe lacks contribute `w·0.0 = ±0.0`
    /// no-ops.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.probe_count()`.
    pub fn gemv_into(&self, weights: &[f64], out: &mut [f64]) {
        for (block, acc) in self.zeroed_blocks(out) {
            for (slot, &column) in block.cols.iter().enumerate() {
                let Some(&w) = weights.get(column as usize) else { break };
                if w == 0.0 {
                    continue;
                }
                for (a, &p) in acc.iter_mut().zip(block.lane(slot)) {
                    *a += w * p;
                }
            }
        }
    }
}

/// Adds `v²` to every lane: a column `x` stores and no probe of the block
/// does, where the merge adds `va²` per probe.
fn add_square(acc: &mut [f64], v: f64) {
    let vv = v * v;
    for a in acc.iter_mut() {
        *a += vv;
    }
}

/// Writes one kernel row `k(x, pⱼ)` for every packed probe into `out`,
/// **bit-identical** to `kernel.compute(x, pⱼ)` per probe.
///
/// Dot-product kernels (linear, polynomial, sigmoid) run
/// [`ProbePanel::dot_into`]; the RBF kernel runs
/// [`ProbePanel::sq_dist_into`]. Both walk only the columns of each
/// compact block (and `x`'s), so every kernel always takes the panel.
/// `out`'s previous contents are ignored; the row allocates nothing, so a
/// support-vector loop reusing `out` is free of per-row allocations.
///
/// The finishing ops are applied with exactly the expressions of
/// [`Kernel::compute`].
///
/// # Panics
///
/// Panics if `out.len() != panel.probe_count()`.
pub fn kernel_cross_row_into(
    kernel: Kernel,
    x: &SparseVector,
    panel: &ProbePanel,
    out: &mut [f64],
) {
    match kernel {
        Kernel::Linear => panel.dot_into(x, out),
        Kernel::Polynomial { gamma, coef0, degree } => {
            panel.dot_into(x, out);
            for v in out.iter_mut() {
                *v = (gamma * *v + coef0).powi(degree as i32);
            }
        }
        Kernel::Sigmoid { gamma, coef0 } => {
            panel.dot_into(x, out);
            for v in out.iter_mut() {
                *v = (gamma * *v + coef0).tanh();
            }
        }
        Kernel::Rbf { gamma } => {
            panel.sq_dist_into(x, out);
            for v in out.iter_mut() {
                *v = (-gamma * *v).exp();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* — no RNG dependency, stable across runs.
    struct Xs(u64);

    impl Xs {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Sparse vector with ~`nnz` entries below `width`, mixed signs, some
    /// exact negations to exercise `x + (−x) = +0.0` and `-0.0` handling.
    fn random_vector(rng: &mut Xs, width: u32, nnz: usize) -> SparseVector {
        let mut builder = crate::sparse::SparseVectorBuilder::new();
        for _ in 0..nnz {
            let column = (rng.next() % u64::from(width)) as u32;
            let magnitude = (rng.f64() * 8.0) - 4.0;
            builder.set(column, magnitude);
        }
        builder.build()
    }

    fn random_batch(rng: &mut Xs, n: usize, width: u32, nnz: usize) -> Vec<SparseVector> {
        (0..n).map(|_| random_vector(rng, width, nnz)).collect()
    }

    const KERNELS: [Kernel; 4] = [
        Kernel::Linear,
        Kernel::Polynomial { gamma: 0.3, coef0: 1.0, degree: 3 },
        Kernel::Rbf { gamma: 0.7 },
        Kernel::Sigmoid { gamma: 0.1, coef0: -0.2 },
    ];

    /// Asserts every primitive over `panel` equals the per-probe merge
    /// walk bit for bit: `dot_into`, `sq_dist_into` and the kernel rows of
    /// all four kernels against `x`, and `gemv_into` against `x` as a
    /// weight vector.
    fn assert_panel_matches_merges(panel: &ProbePanel, x: &SparseVector) {
        let refs = panel.probes();
        let mut out = vec![f64::NAN; refs.len()];
        panel.dot_into(x, &mut out);
        for (j, p) in refs.iter().enumerate() {
            assert_eq!(out[j].to_bits(), x.dot(p).to_bits(), "dot bits diverge at probe {j}");
        }
        out.fill(f64::NAN);
        panel.sq_dist_into(x, &mut out);
        for (j, p) in refs.iter().enumerate() {
            let merge = x.squared_distance(p);
            assert_eq!(out[j].to_bits(), merge.to_bits(), "sq_dist bits diverge at probe {j}");
        }
        let scorer = crate::LinearBatchScorer::from_collapsed(x);
        out.fill(f64::NAN);
        panel.gemv_into(scorer.weights(), &mut out);
        for (j, p) in refs.iter().enumerate() {
            let scalar = scorer.weighted_sum(p);
            assert_eq!(out[j].to_bits(), scalar.to_bits(), "gemv bits diverge at probe {j}");
        }
        for kernel in KERNELS {
            out.fill(f64::NAN);
            kernel_cross_row_into(kernel, x, panel, &mut out);
            for (j, p) in refs.iter().enumerate() {
                assert_eq!(
                    out[j].to_bits(),
                    kernel.compute(x, p).to_bits(),
                    "{kernel:?} row bits diverge at probe {j}"
                );
            }
        }
    }

    /// Production-shaped windows: 843 columns, about 14 entries each, and
    /// runs of 32 windows drawn from one 44-column vocabulary (one user's
    /// windows), so a 64-probe block stores under a fifth of the columns
    /// and most columns are absent from every probe of a block. Every
    /// 29th window is empty; every 7th stores a `±0.0` entry.
    fn production_batch(rng: &mut Xs, n: usize) -> Vec<SparseVector> {
        let mut vocab = Vec::new();
        (0..n)
            .map(|i| {
                if i % 32 == 0 {
                    vocab = (0..44).map(|_| (rng.next() % PRODUCTION_WIDTH) as u32).collect();
                }
                if i % 29 == 28 {
                    return SparseVector::new();
                }
                let mut pairs: Vec<(u32, f64)> = (0..18)
                    .map(|_| {
                        let u = rng.f64();
                        (vocab[(u * u * vocab.len() as f64) as usize], rng.f64() * 6.0 - 3.0)
                    })
                    .collect();
                if i % 7 == 3 {
                    let sign = if i % 2 == 0 { 0.0 } else { -0.0 };
                    pairs.push((vocab[rng.next() as usize % vocab.len()], sign));
                }
                pairs.sort_by_key(|&(c, _)| c);
                pairs.dedup_by_key(|&mut (c, _)| c);
                SparseVector::from_pairs(pairs).unwrap()
            })
            .collect()
    }

    const PRODUCTION_WIDTH: u64 = 843;

    #[test]
    fn dot_bit_identical_to_merge() {
        let mut rng = Xs(0x9E37_79B9_7F4A_7C15);
        for (n, width, nnz) in [(1usize, 40u32, 6usize), (64, 300, 24), (130, 300, 24), (7, 8, 8)] {
            let probes = random_batch(&mut rng, n, width, nnz);
            let refs: Vec<&SparseVector> = probes.iter().collect();
            let panel = ProbePanel::pack(&refs);
            let mut out = vec![0.0; n];
            for _ in 0..8 {
                let x = random_vector(&mut rng, width + 20, nnz + 4);
                panel.dot_into(&x, &mut out);
                for (j, p) in refs.iter().enumerate() {
                    assert!(
                        out[j].to_bits() == x.dot(p).to_bits(),
                        "dot bits diverge at probe {j}: {} vs {}",
                        out[j],
                        x.dot(p)
                    );
                }
            }
        }
    }

    #[test]
    fn sq_dist_bit_identical_to_merge() {
        let mut rng = Xs(0xDEAD_BEEF_CAFE_F00D);
        for (n, width, nnz) in [(1usize, 40u32, 6usize), (64, 200, 30), (100, 200, 30)] {
            let probes = random_batch(&mut rng, n, width, nnz);
            let refs: Vec<&SparseVector> = probes.iter().collect();
            let panel = ProbePanel::pack(&refs);
            let mut out = vec![0.0; n];
            for _ in 0..8 {
                // Entries beyond every probe's columns exercise the tail.
                let x = random_vector(&mut rng, width + 60, nnz + 4);
                panel.sq_dist_into(&x, &mut out);
                for (j, p) in refs.iter().enumerate() {
                    assert!(
                        out[j].to_bits() == x.squared_distance(p).to_bits(),
                        "sq_dist bits diverge at probe {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemv_bit_identical_to_scalar_scorer() {
        let mut rng = Xs(0x1234_5678_9ABC_DEF1);
        let probes = random_batch(&mut rng, 90, 250, 20);
        let refs: Vec<&SparseVector> = probes.iter().collect();
        let panel = ProbePanel::pack(&refs);
        for _ in 0..6 {
            // Weight vectors narrower and wider than the probes.
            for w_width in [120u32, 400] {
                let w = random_vector(&mut rng, w_width, 40);
                let scorer = crate::LinearBatchScorer::from_collapsed(&w);
                let mut out = vec![0.0; refs.len()];
                panel.gemv_into(scorer.weights(), &mut out);
                for (j, p) in refs.iter().enumerate() {
                    assert!(
                        out[j].to_bits() == w.dot(p).to_bits(),
                        "gemv bits diverge at probe {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_rows_bit_identical_for_every_kernel() {
        let mut rng = Xs(0xFEED_FACE_0BAD_F00D);
        // Dense-ish blocks and sparse ones that store most of the width.
        for (width, nnz) in [(60u32, 20usize), (500, 10)] {
            let probes = random_batch(&mut rng, 70, width, nnz);
            let refs: Vec<&SparseVector> = probes.iter().collect();
            let panel = ProbePanel::pack(&refs);
            let mut row = vec![f64::NAN; refs.len()];
            for kernel in KERNELS {
                let x = random_vector(&mut rng, width, nnz + 2);
                kernel_cross_row_into(kernel, &x, &panel, &mut row);
                for (j, p) in refs.iter().enumerate() {
                    assert!(
                        row[j].to_bits() == kernel.compute(&x, p).to_bits(),
                        "{kernel:?} row bits diverge at probe {j} (width {width})"
                    );
                }
            }
        }
    }

    #[test]
    fn production_shape_is_bit_identical_for_every_primitive_and_kernel() {
        let mut rng = Xs(0x0DDB_A11C_AFE5_EED5);
        // 150 probes: two full blocks and a partial 22-probe last block.
        let probes = production_batch(&mut rng, 150);
        let refs: Vec<&SparseVector> = probes.iter().collect();
        let panel = ProbePanel::pack(&refs);
        // The shape under test: blocks store a small share of the width.
        assert!(panel.blocks.len() == 3 && panel.blocks[2].bw == 22);
        for block in &panel.blocks {
            assert!(block.cols.len() * 4 < PRODUCTION_WIDTH as usize, "{}", block.cols.len());
        }
        assert!(refs.iter().any(|p| p.is_empty()));
        assert!(refs.iter().any(|p| p.iter().any(|(_, v)| v == 0.0)));
        let norms: Vec<u64> = refs.iter().map(|p| p.squared_norm().to_bits()).collect();
        assert_eq!(panel.squared_norms().iter().map(|n| n.to_bits()).collect::<Vec<_>>(), norms);

        let mut xs = production_batch(&mut rng, 40);
        // Columns absent from every block, and beyond every probe's width.
        let stored: std::collections::BTreeSet<u32> =
            refs.iter().flat_map(|p| p.iter().map(|(c, _)| c)).collect();
        let absent: Vec<u32> =
            (0..PRODUCTION_WIDTH as u32).filter(|c| !stored.contains(c)).take(6).collect();
        assert_eq!(absent.len(), 6);
        let widest = stored.iter().max().copied().unwrap_or(0);
        for extra in [&absent[..], &[widest + 1, widest + 90][..], &[absent[0], widest + 3][..]] {
            let base = refs[rng.next() as usize % refs.len()];
            let mut pairs: Vec<(u32, f64)> = base.as_pairs().to_vec();
            pairs.extend(extra.iter().map(|&c| (c, rng.f64() * 4.0 - 2.0)));
            pairs.sort_by_key(|&(c, _)| c);
            pairs.dedup_by_key(|&mut (c, _)| c);
            xs.push(SparseVector::from_pairs(pairs).unwrap());
        }
        // A probe itself, its exact negation, stored ±0.0 and the empty x.
        xs.push(refs[5].clone());
        xs.push(refs[5].scaled(-1.0));
        xs.push(SparseVector::from_pairs(vec![(absent[1], -0.0), (widest + 2, 0.0)]).unwrap());
        xs.push(SparseVector::new());
        for x in &xs {
            assert_panel_matches_merges(&panel, x);
        }
    }

    #[test]
    fn stored_zeros_and_negated_entries_stay_bit_identical() {
        // from_pairs permits stored ±0.0 entries; the block walks must
        // treat them exactly like the merges do.
        let probes = [
            SparseVector::from_pairs(vec![(0, 0.0), (2, -0.0), (5, 1.5)]).unwrap(),
            SparseVector::from_pairs(vec![(1, -2.0), (2, 2.0)]).unwrap(),
            SparseVector::new(),
        ];
        let refs: Vec<&SparseVector> = probes.iter().collect();
        let panel = ProbePanel::pack(&refs);
        for x in [
            SparseVector::from_pairs(vec![(1, 2.0), (2, -0.0), (5, -1.5)]).unwrap(),
            SparseVector::from_pairs(vec![(3, -0.0), (4, 2.5), (9, 0.0)]).unwrap(),
            SparseVector::from_pairs(vec![(2, 0.0), (7, -1.0)]).unwrap(),
        ] {
            assert_panel_matches_merges(&panel, &x);
        }
    }

    #[test]
    fn empty_inputs() {
        let panel = ProbePanel::pack(&[]);
        assert_eq!(panel.probe_count(), 0);
        let mut out = vec![];
        panel.dot_into(&SparseVector::new(), &mut out);
        // A block of empty probes stores no column; x's entries are all
        // x-only terms.
        let empty = SparseVector::new();
        let probes = [&empty, &empty];
        let panel = ProbePanel::pack(&probes);
        assert!(panel.blocks[0].cols.is_empty());
        let mut out = vec![1.0, 1.0];
        panel.sq_dist_into(&SparseVector::from_dense(&[3.0, 0.0, 4.0]), &mut out);
        assert_eq!(out, [25.0, 25.0]);
        panel.dot_into(&SparseVector::from_dense(&[3.0]), &mut out);
        assert_eq!(out, [0.0, 0.0]);
        panel.gemv_into(&[2.0, 1.0], &mut out);
        assert_eq!(out, [0.0, 0.0]);
    }
}
