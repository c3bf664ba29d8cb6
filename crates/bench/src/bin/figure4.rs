//! Figure 4 — box-and-whiskers of the per-window prediction time for
//! OC-SVM and SVDD.
//!
//! Trains one model of each family on a real user's windows, then times
//! `decision_value` over the testing windows. The paper measures both
//! under 100 µs per decision, with SVDD faster than OC-SVM (simpler
//! surface; and because it needs fewer support vectors here).
//!
//! ```text
//! cargo run -p bench --bin figure4 --release [--weeks N]
//! ```
//!
//! This binary is the Fig. 4 timing harness; it reports the per-decision
//! timing distribution (box-and-whiskers), not a single mean.

use bench::{Experiment, ExperimentConfig};
use std::time::Instant;
use webprofiler::{compute_window_sets, ModelKind, ProfileTrainer, WindowConfig};

fn main() {
    let config = ExperimentConfig::parse(4);
    let max_windows = config.max_windows;
    let experiment = Experiment::build(config);
    let train_windows = compute_window_sets(
        &experiment.vocab,
        &experiment.train,
        WindowConfig::PAPER_DEFAULT,
        Some(max_windows),
    );
    let test_windows = compute_window_sets(
        &experiment.vocab,
        &experiment.test,
        WindowConfig::PAPER_DEFAULT,
        Some(max_windows),
    );
    let user = *train_windows
        .iter()
        .max_by_key(|&(_, w)| w.len())
        .map(|(u, _)| u)
        .expect("at least one user");
    let probes: Vec<_> = test_windows.values().flatten().cloned().collect();

    println!("FIGURE 4: PREDICTION TIME PER 60s WINDOW (microseconds)");
    println!("(RBF kernel: decision cost scales with the support-vector count, as in");
    println!(" the paper's LIBSVM models; linear models here collapse to one dot");
    println!(" product and decide in ~0.2us regardless of family)");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}",
        "model", "min", "q1", "median", "q3", "max", "SVs"
    );
    for kind in ModelKind::ALL {
        let profile = ProfileTrainer::new(&experiment.vocab)
            .kind(kind)
            .kernel(ocsvm::Kernel::Rbf { gamma: 0.05 })
            .regularization(0.5)
            .train_from_vectors(user, &train_windows[&user])
            .expect("training succeeds");
        // Warm up, then time each decision individually.
        for probe in probes.iter().take(100) {
            std::hint::black_box(profile.decision_value(probe));
        }
        let mut timings_us: Vec<f64> = probes
            .iter()
            .map(|probe| {
                let start = Instant::now();
                std::hint::black_box(profile.decision_value(probe));
                start.elapsed().as_nanos() as f64 / 1_000.0
            })
            .collect();
        timings_us.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let q = |f: f64| timings_us[((timings_us.len() - 1) as f64 * f) as usize];
        println!(
            "{:>8} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>6}",
            kind.to_string(),
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0),
            profile.support_vector_count()
        );
    }
    println!();
    println!("# paper shape: both < 100us per decision; SVDD faster than OC-SVM");
}
