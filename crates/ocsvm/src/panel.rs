//! Cache-blocked, unit-stride scoring kernels over packed probe panels.
//!
//! Batch scoring evaluates one support vector (or weight vector) against
//! *many* probe windows. The sparse merge loops in [`SparseVector`] walk
//! index lists with data-dependent branches — correct, but opaque to the
//! autovectorizer. A [`ProbePanel`] repacks the probe batch once into
//! column-major blocks of [`PANEL_BLOCK`] probes (`block[c * bw + j]` =
//! probe `j`'s value in column `c`), after which every kernel primitive is
//! a unit-stride loop over the probe lane `j` with a block-sized
//! accumulator that stays in registers/L1 — exactly the shape LLVM's
//! autovectorizer turns into SIMD on any target.
//!
//! A panel borrows the probe slice it was packed from, so one panel per
//! probe set serves every row against it: a regularization sweep packs
//! its `ACCother` probes once and every [`CrossGram`](crate::CrossGram)
//! over them borrows that panel, while batch scoring packs each fresh
//! batch once for all of a model's support vectors.
//!
//! # Bit-identity
//!
//! The primitives are **bit-identical** to the sparse merge loops they
//! replace, not merely close:
//!
//! * Terms are added in the same ascending-column order as the merges.
//! * The extra terms a dense walk sees are all `±0.0` (`x·0.0`, or
//!   `(0−0)²`), and adding `±0.0` never changes an accumulator that is not
//!   `-0.0`. No accumulator here can ever *be* `-0.0`: each starts at
//!   `+0.0`, and IEEE 754 round-to-nearest gives `(+0.0) + (−0.0) = +0.0`,
//!   so the zero-sign never flips negative.
//! * Probe-only squared-distance terms use `(0.0 − v)² = v²` bit-exactly
//!   (negation is exact; squaring is sign-symmetric).
//!
//! The equivalence tests below and the suites in `gram`/`model` re-prove
//! this on every run.
//!
//! # Adaptivity
//!
//! Squared distance has no sparse formulation that preserves the merge's
//! term order, so its panel form walks all `width` columns; for very
//! sparse operands the merge does less work than the dense walk gains
//! back in stride. [`kernel_cross_row_into`] therefore picks the panel only
//! when the dense walk is within [`SQ_DIST_DENSE_FACTOR`] of the merge's
//! operand count — both paths are bit-identical, so the choice is
//! invisible to callers.

use crate::kernel::Kernel;
use crate::sparse::SparseVector;

/// Probes per panel block: the per-block accumulator (`PANEL_BLOCK`
/// scalars) must stay resident in registers/L1 across a row fill.
pub const PANEL_BLOCK: usize = 64;

/// Maximum ratio of dense-walk columns to merge-walk entries at which the
/// panel squared-distance path is still preferred over the sparse merge
/// (the unit-stride walk retires several lanes per cycle, so it affords
/// doing a few times more scalar work).
pub const SQ_DIST_DENSE_FACTOR: usize = 4;

/// One column-major block of up to [`PANEL_BLOCK`] probes.
#[derive(Debug, Clone)]
struct Block {
    /// `data[c * bw + j]`: probe `j`'s value in column `c`.
    data: Vec<f64>,
    /// Probes in this block (= lane width of every column row).
    bw: usize,
}

/// A probe batch repacked into column-major, unit-stride blocks.
///
/// Pack once per batch ([`ProbePanel::pack`]), then evaluate any number
/// of kernel rows against it. The panel borrows the probes it was packed
/// from ([`ProbePanel::probes`]), so a kernel row needs nothing but the
/// panel.
#[derive(Debug, Clone)]
pub struct ProbePanel<'a> {
    probes: &'a [&'a SparseVector],
    width: usize,
    total_nnz: usize,
    blocks: Vec<Block>,
}

impl<'a> ProbePanel<'a> {
    /// Packs `probes` into column-major blocks. The panel width is the
    /// maximum column index any probe touches plus one; columns a probe
    /// does not store are `+0.0`, which the kernels treat exactly like the
    /// sparse merges treat absent entries.
    pub fn pack(probes: &'a [&'a SparseVector]) -> Self {
        let width = probes.iter().map(|p| p.dimension_lower_bound()).max().unwrap_or(0);
        let total_nnz = probes.iter().map(|p| p.nnz()).sum();
        let mut blocks = Vec::with_capacity(probes.len().div_ceil(PANEL_BLOCK));
        for chunk in probes.chunks(PANEL_BLOCK) {
            let bw = chunk.len();
            let mut data = vec![0.0; width * bw];
            for (j, probe) in chunk.iter().enumerate() {
                for (column, value) in probe.iter() {
                    data[column as usize * bw + j] = value;
                }
            }
            blocks.push(Block { data, bw });
        }
        Self { probes, width, total_nnz, blocks }
    }

    /// The probes the panel was packed from, in packing order.
    pub fn probes(&self) -> &'a [&'a SparseVector] {
        self.probes
    }

    /// Number of packed probes (= output length of every kernel).
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }

    /// Columns covered by the panel (max probe dimension).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mean stored entries per packed probe.
    pub fn mean_probe_nnz(&self) -> usize {
        self.total_nnz.checked_div(self.probes.len()).unwrap_or(0)
    }

    /// `out[j] = x · probeⱼ` for every probe.
    ///
    /// Bit-identical to [`SparseVector::dot`] per probe:
    /// common-column products are added in ascending column order, and the
    /// extra `x[c]·0.0` terms for columns the probe lacks are `±0.0`
    /// no-ops (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.probe_count()`.
    pub fn dot_into(&self, x: &SparseVector, out: &mut [f64]) {
        assert_eq!(out.len(), self.probes.len(), "output width must match probe count");
        out.fill(0.0);
        let mut base = 0;
        for block in &self.blocks {
            let bw = block.bw;
            let acc = &mut out[base..base + bw];
            for (column, value) in x.iter() {
                let c = column as usize;
                if c >= self.width {
                    break;
                }
                let row = &block.data[c * bw..(c + 1) * bw];
                for (a, &p) in acc.iter_mut().zip(row) {
                    *a += value * p;
                }
            }
            base += bw;
        }
    }

    /// `out[j] = ‖x − probeⱼ‖²` for every probe.
    ///
    /// Bit-identical to [`SparseVector::squared_distance`] per probe: the
    /// dense column walk adds one term per column in ascending order —
    /// `(x[c]−p[c])²` where the merge adds `(va−vb)²`,
    /// `x[c]²` where it adds `va²` (since `va−0.0 = va`), `(0−p[c])² = p[c]²`
    /// where it adds `vb²`, and a `+0.0` no-op where both are absent —
    /// then appends `x`'s beyond-width entries in ascending order, exactly
    /// where the merge places them.
    ///
    /// `scratch` is a reusable dense buffer for `x` (any initial
    /// contents; it is cleared and resized to the panel width).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.probe_count()`.
    pub fn sq_dist_into(&self, x: &SparseVector, scratch: &mut Vec<f64>, out: &mut [f64]) {
        assert_eq!(out.len(), self.probes.len(), "output width must match probe count");
        scratch.clear();
        scratch.resize(self.width, 0.0);
        for (column, value) in x.iter() {
            let c = column as usize;
            if c < self.width {
                scratch[c] = value;
            }
        }
        out.fill(0.0);
        let mut base = 0;
        for block in &self.blocks {
            let bw = block.bw;
            let acc = &mut out[base..base + bw];
            for (c, &xc) in scratch.iter().enumerate() {
                let row = &block.data[c * bw..(c + 1) * bw];
                for (a, &p) in acc.iter_mut().zip(row) {
                    let d = xc - p;
                    *a += d * d;
                }
            }
            base += bw;
        }
        // x's entries beyond every probe's width come last in the merge's
        // ascending union walk; add them per-entry to preserve the exact
        // association (a precomputed partial sum would re-associate).
        for (column, value) in x.iter() {
            if column as usize >= self.width {
                let vv = value * value;
                for a in out.iter_mut() {
                    *a += vv;
                }
            }
        }
    }

    /// `out[j] = Σ_c w[c] · probeⱼ[c]` for every probe (dense GEMV).
    ///
    /// Bit-identical to
    /// [`LinearBatchScorer::weighted_sum`](crate::LinearBatchScorer::weighted_sum)
    /// per probe: non-zero weight columns are visited in ascending order
    /// (matching the probe-entry walk over the same common columns), and
    /// columns the probe lacks contribute `w·0.0 = ±0.0` no-ops.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.probe_count()`.
    pub fn gemv_into(&self, weights: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.probes.len(), "output width must match probe count");
        out.fill(0.0);
        let cols = self.width.min(weights.len());
        let mut base = 0;
        for block in &self.blocks {
            let bw = block.bw;
            let acc = &mut out[base..base + bw];
            for (c, &w) in weights.iter().take(cols).enumerate() {
                if w == 0.0 {
                    continue;
                }
                let row = &block.data[c * bw..(c + 1) * bw];
                for (a, &p) in acc.iter_mut().zip(row) {
                    *a += w * p;
                }
            }
            base += bw;
        }
    }
}

/// One kernel row `k(x, pⱼ)` for every packed probe, **bit-identical** to
/// `kernel.compute(x, pⱼ)` per probe.
///
/// Allocating wrapper around [`kernel_cross_row_into`].
pub fn kernel_cross_row(kernel: Kernel, x: &SparseVector, panel: &ProbePanel) -> Vec<f64> {
    let mut out = vec![0.0f64; panel.probe_count()];
    kernel_cross_row_into(kernel, x, panel, &mut Vec::new(), &mut out);
    out
}

/// Writes one kernel row `k(x, pⱼ)` for every packed probe into `out`,
/// **bit-identical** to `kernel.compute(x, pⱼ)` per probe.
///
/// Dot-product kernels (linear, polynomial, sigmoid) always use the panel
/// — the packed walk does strictly less work than the per-probe merges.
/// The RBF kernel's dense squared-distance walk covers all `width`
/// columns, so it falls back to the per-probe merge over
/// [`ProbePanel::probes`] when both operands are too sparse for the
/// unit-stride walk to pay ([`SQ_DIST_DENSE_FACTOR`]).
///
/// `scratch` is the reusable dense buffer of [`ProbePanel::sq_dist_into`];
/// `out`'s previous contents are ignored. Reusing both across rows keeps a
/// support-vector loop free of per-row allocations.
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
    scratch: &mut Vec<f64>,
    out: &mut [f64],
) {
    assert_eq!(out.len(), panel.probe_count(), "output width must match probe count");
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
            if sq_dist_panel_pays_off(panel, x.nnz()) {
                panel.sq_dist_into(x, scratch, out);
                for v in out.iter_mut() {
                    *v = (-gamma * *v).exp();
                }
            } else {
                for (v, p) in out.iter_mut().zip(panel.probes()) {
                    *v = (-gamma * x.squared_distance(p)).exp();
                }
            }
        }
    }
}

/// Whether the dense panel squared-distance walk is expected to beat the
/// sparse merge for an operand with `x_nnz` stored entries.
pub fn sq_dist_panel_pays_off(panel: &ProbePanel, x_nnz: usize) -> bool {
    panel.width() <= SQ_DIST_DENSE_FACTOR * (x_nnz + panel.mean_probe_nnz())
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
            let mut scratch = Vec::new();
            for _ in 0..8 {
                // Entries beyond the panel width exercise the tail path.
                let x = random_vector(&mut rng, width + 60, nnz + 4);
                panel.sq_dist_into(&x, &mut scratch, &mut out);
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
            // Weight vectors narrower and wider than the panel.
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
        // Dense-ish (panel chosen for RBF) and sparse (merge fallback).
        for (width, nnz) in [(60u32, 20usize), (500, 10)] {
            let probes = random_batch(&mut rng, 70, width, nnz);
            let refs: Vec<&SparseVector> = probes.iter().collect();
            let panel = ProbePanel::pack(&refs);
            for kernel in [
                Kernel::Linear,
                Kernel::Polynomial { gamma: 0.3, coef0: 1.0, degree: 3 },
                Kernel::Rbf { gamma: 0.7 },
                Kernel::Sigmoid { gamma: 0.1, coef0: -0.2 },
            ] {
                let x = random_vector(&mut rng, width, nnz + 2);
                let row = kernel_cross_row(kernel, &x, &panel);
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
    fn stored_zeros_and_negated_entries_stay_bit_identical() {
        // from_pairs permits stored ±0.0 entries; the dense walk must
        // treat them exactly like the merge does.
        let probes = [
            SparseVector::from_pairs(vec![(0, 0.0), (2, -0.0), (5, 1.5)]).unwrap(),
            SparseVector::from_pairs(vec![(1, -2.0), (2, 2.0)]).unwrap(),
        ];
        let refs: Vec<&SparseVector> = probes.iter().collect();
        let panel = ProbePanel::pack(&refs);
        let x = SparseVector::from_pairs(vec![(1, 2.0), (2, -0.0), (5, -1.5)]).unwrap();
        let mut out = vec![0.0; refs.len()];
        panel.dot_into(&x, &mut out);
        for (j, p) in refs.iter().enumerate() {
            assert_eq!(out[j].to_bits(), x.dot(p).to_bits(), "dot probe {j}");
        }
        let mut scratch = Vec::new();
        panel.sq_dist_into(&x, &mut scratch, &mut out);
        for (j, p) in refs.iter().enumerate() {
            assert_eq!(out[j].to_bits(), x.squared_distance(p).to_bits(), "sq_dist probe {j}");
        }
    }

    #[test]
    fn empty_inputs() {
        let panel = ProbePanel::pack(&[]);
        assert_eq!(panel.probe_count(), 0);
        let mut out = vec![];
        panel.dot_into(&SparseVector::new(), &mut out);
        let empty = SparseVector::new();
        let probes = [&empty];
        let panel = ProbePanel::pack(&probes);
        assert_eq!(panel.width(), 0);
        let mut out = vec![1.0];
        let mut scratch = Vec::new();
        panel.sq_dist_into(&SparseVector::from_dense(&[3.0]), &mut scratch, &mut out);
        assert_eq!(out[0], 9.0);
    }
}
