//! Scoring-kernel microbenchmark: the cache-blocked panel kernels
//! (`ocsvm::panel`) against the per-probe sparse merge walks they
//! replaced, at two batch shapes: a dense one (`--dim`, `--nnz`) and the
//! production one of the grid search's feature windows (843 columns,
//! about 14 stored entries per window, runs of 32 windows drawn from one
//! user's 44-column vocabulary, so a 64-probe block stores about 85
//! columns).
//!
//! ```text
//! cargo run -p bench --bin kernels --release -- [--json BENCH_kernels.json] \
//!     [--probes N] [--dim N] [--nnz N] [--seed N]
//! ```
//!
//! Emits the flat `BENCH_kernels.json` the perf gate compares. The gated
//! metrics are **lower-is-better** per-operation costs
//! (`perf_gate --metrics-lower`):
//!
//! * `ns_per_gemv_row` — one dense-weight GEMV row (`Σ_c w[c]·pⱼ[c]`)
//!   through [`ProbePanel::gemv_into`], the
//!   linear-profile batch-scoring kernel.
//! * `ns_per_sq_dist` — one probe's squared distance through
//!   [`ProbePanel::sq_dist_into`], the RBF
//!   row-fill kernel, at the dense shape.
//! * `ns_per_sq_dist_sparse` — the same at the production shape, where
//!   the walk covers only the columns each compact block stores.
//!
//! Everything else (merge-walk comparison points, speedups) is
//! informational. Before timing anything the run re-proves
//! the panel/merge bit-identity inline on the benchmark vectors and
//! aborts on any mismatch — a gate run can never time a wrong kernel.

use bench::{json, timed_trial, ExperimentConfig};
use ocsvm::{ProbePanel, SparseVector, SparseVectorBuilder};
use std::hint::black_box;

/// Timing trials per kernel; the best (minimum) trial is reported, the
/// standard defense against scheduler noise on shared runners. Each trial
/// repeats the kernel for at least [`bench::MIN_TRIAL`] and reports the
/// mean pass.
const TRIALS: usize = 5;

/// xorshift64*: deterministic inputs without pulling `rand` into the bin.
struct Xs(u64);

impl Xs {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn random_vector(rng: &mut Xs, dim: usize, nnz: usize) -> SparseVector {
    let mut builder = SparseVectorBuilder::new();
    for _ in 0..nnz {
        let column = (rng.next() % dim as u64) as u32;
        builder.add(column, rng.unit() * 2.0 - 0.5);
    }
    builder.build()
}

/// Columns of the production feature space (the vocabulary width).
const PRODUCTION_DIM: u64 = 843;

/// Production-shaped windows: runs of 32 drawn from one 44-column
/// vocabulary, 18 skewed draws each (about 14 distinct columns).
fn production_batch(rng: &mut Xs, n: usize) -> Vec<SparseVector> {
    let mut vocab: Vec<u32> = Vec::new();
    (0..n)
        .map(|i| {
            if i % 32 == 0 {
                vocab = (0..44).map(|_| (rng.next() % PRODUCTION_DIM) as u32).collect();
            }
            let mut builder = SparseVectorBuilder::new();
            for _ in 0..18 {
                let u = rng.unit();
                builder.set(vocab[(u * u * vocab.len() as f64) as usize], rng.unit() * 2.0 - 0.5);
            }
            builder.build()
        })
        .collect()
}

fn average_nnz(vectors: &[&SparseVector]) -> f64 {
    vectors.iter().map(|v| v.nnz()).sum::<usize>() as f64 / vectors.len().max(1) as f64
}

fn main() {
    let probes: usize = flag_or("--probes", 512);
    let dim: usize = flag_or("--dim", 256);
    let nnz: usize = flag_or("--nnz", 96);
    let seed: u64 = flag_or("--seed", 2015);
    let mut rng = Xs(seed | 1);

    let batch: Vec<SparseVector> = (0..probes).map(|_| random_vector(&mut rng, dim, nnz)).collect();
    let refs: Vec<&SparseVector> = batch.iter().collect();
    let xs: Vec<SparseVector> = (0..64).map(|_| random_vector(&mut rng, dim, nnz)).collect();
    let weights: Vec<f64> = (0..dim).map(|_| rng.unit() * 2.0 - 1.0).collect();
    let weights_sv = SparseVector::from_dense(&weights);

    let panel = ProbePanel::pack(&refs);
    let mean_nnz = average_nnz(&refs);
    verify_bit_identity(&panel, &refs, &xs, &weights, &weights_sv);
    eprintln!("# kernels: {probes} probes, dim {dim}, mean nnz {mean_nnz:.1}");

    let sparse_batch = production_batch(&mut rng, probes);
    let sparse_refs: Vec<&SparseVector> = sparse_batch.iter().collect();
    let sparse_xs = production_batch(&mut rng, 64);
    let sparse_panel = ProbePanel::pack(&sparse_refs);
    let sparse_mean_nnz = average_nnz(&sparse_refs);
    let sparse_block_columns = sparse_refs
        .chunks(ocsvm::panel::PANEL_BLOCK)
        .map(|block| {
            let mut columns: Vec<u32> =
                block.iter().flat_map(|p| p.iter().map(|(c, _)| c)).collect();
            columns.sort_unstable();
            columns.dedup();
            columns.len()
        })
        .sum::<usize>() as f64
        / sparse_refs.len().div_ceil(ocsvm::panel::PANEL_BLOCK).max(1) as f64;
    verify_bit_identity(&sparse_panel, &sparse_refs, &sparse_xs, &weights, &weights_sv);
    eprintln!(
        "# kernels: production shape, dim {PRODUCTION_DIM}, mean nnz {sparse_mean_nnz:.1}, \
         {sparse_block_columns:.1} columns per block"
    );

    // --- GEMV: one dense-weight row per probe. -------------------------
    let mut out = vec![0.0f64; probes];
    let gemv_reps = 200;
    let ns_per_gemv_row = best_ns(gemv_reps * probes, || {
        for _ in 0..gemv_reps {
            panel.gemv_into(black_box(&weights), &mut out);
        }
        black_box(&out);
    });
    let ns_per_gemv_row_merge = best_ns(gemv_reps * probes, || {
        for _ in 0..gemv_reps {
            for (j, p) in refs.iter().enumerate() {
                out[j] = weights_sv.dot(black_box(p));
            }
        }
        black_box(&out);
    });

    // --- Squared distance: one probe column per (x, probe) pair. -------
    let sq_reps = 8;
    let pairs = sq_reps * xs.len() * probes;
    let ns_per_sq_dist = best_ns(pairs, || sq_dist_panel(sq_reps, &panel, &xs, &mut out));
    let ns_per_sq_dist_merge = best_ns(pairs, || sq_dist_merge(sq_reps, &refs, &xs, &mut out));
    let ns_per_sq_dist_sparse =
        best_ns(pairs, || sq_dist_panel(sq_reps, &sparse_panel, &sparse_xs, &mut out));
    let ns_per_sq_dist_sparse_merge =
        best_ns(pairs, || sq_dist_merge(sq_reps, &sparse_refs, &sparse_xs, &mut out));

    let metrics: Vec<(&str, f64)> = vec![
        ("ns_per_gemv_row", ns_per_gemv_row),
        ("ns_per_sq_dist", ns_per_sq_dist),
        ("ns_per_gemv_row_merge", ns_per_gemv_row_merge),
        ("ns_per_sq_dist_merge", ns_per_sq_dist_merge),
        ("gemv_speedup_vs_merge", ns_per_gemv_row_merge / ns_per_gemv_row),
        ("sq_dist_speedup_vs_merge", ns_per_sq_dist_merge / ns_per_sq_dist),
        ("ns_per_sq_dist_sparse", ns_per_sq_dist_sparse),
        ("ns_per_sq_dist_sparse_merge", ns_per_sq_dist_sparse_merge),
        ("sq_dist_sparse_speedup_vs_merge", ns_per_sq_dist_sparse_merge / ns_per_sq_dist_sparse),
        ("probes", probes as f64),
        ("dim", dim as f64),
        ("mean_nnz", mean_nnz),
        ("sparse_dim", PRODUCTION_DIM as f64),
        ("sparse_mean_nnz", sparse_mean_nnz),
        ("sparse_block_columns", sparse_block_columns),
    ];
    let text = json::emit(&metrics);
    print!("{text}");
    if let Some(path) = ExperimentConfig::arg_value("--json") {
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("# wrote {path}");
    }
}

/// Re-proves, on the benchmark inputs, that the timed panel kernels are
/// bit-identical to the sparse merge walks (the property `ocsvm::panel`'s
/// test suite pins corpus-independently).
fn verify_bit_identity(
    panel: &ProbePanel,
    refs: &[&SparseVector],
    xs: &[SparseVector],
    weights: &[f64],
    weights_sv: &SparseVector,
) {
    let mut out = vec![0.0f64; refs.len()];
    panel.gemv_into(weights, &mut out);
    for (j, p) in refs.iter().enumerate() {
        assert_eq!(
            out[j].to_bits(),
            weights_sv.dot(p).to_bits(),
            "panel GEMV diverged from the merge walk at probe {j}"
        );
    }
    for x in xs {
        panel.sq_dist_into(x, &mut out);
        for (j, p) in refs.iter().enumerate() {
            assert_eq!(
                out[j].to_bits(),
                x.squared_distance(p).to_bits(),
                "panel sq_dist diverged from the merge walk at probe {j}"
            );
        }
    }
}

/// `reps` squared-distance rows per `x` through the panel.
fn sq_dist_panel(reps: usize, panel: &ProbePanel, xs: &[SparseVector], out: &mut [f64]) {
    for _ in 0..reps {
        for x in xs {
            panel.sq_dist_into(black_box(x), out);
        }
    }
    black_box(out);
}

/// `reps` squared-distance rows per `x` through the per-probe merges.
fn sq_dist_merge(reps: usize, refs: &[&SparseVector], xs: &[SparseVector], out: &mut [f64]) {
    for _ in 0..reps {
        for x in xs {
            for (o, p) in out.iter_mut().zip(refs) {
                *o = black_box(x).squared_distance(p);
            }
        }
    }
    black_box(out);
}

/// Runs [`TRIALS`] timed trials of `work` and returns the best trial's
/// mean cost in nanoseconds per operation.
fn best_ns(ops: usize, mut work: impl FnMut()) -> f64 {
    let best = (0..TRIALS).map(|_| timed_trial(&mut work).1).min().expect("at least one trial");
    best.as_secs_f64() * 1e9 / ops as f64
}

fn flag_or<T: std::str::FromStr>(name: &str, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    ExperimentConfig::arg_value(name)
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{name} takes a number: {e:?}")))
        .unwrap_or(default)
}
