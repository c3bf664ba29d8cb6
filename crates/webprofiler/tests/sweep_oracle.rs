//! The grid search against an independent oracle: every (kernel,
//! regularization) cell trained on its own through plain
//! `train_from_vectors` and scored per window through
//! `batch_decision_values`, using only the public API. A cold sweep — no
//! warm start, exact SMO — must reproduce every cell bit for bit, whatever
//! shared arena caches its kernel rows.

use ocsvm::{Kernel, KernelKind, KernelRowArena, SparseVector};
use proxylog::UserId;
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{
    compute_window_sets, AcceptanceSummary, ModelGridCell, ModelGridSearch, ModelKind,
    ProfileTrainer, Vocabulary, WindowConfig, WindowSets,
};

/// At most `max` of `items`, evenly spaced: stride `len / max`, first kept.
fn evenly_spaced(items: &[SparseVector], max: usize) -> Vec<&SparseVector> {
    if items.len() <= max || max == 0 {
        return items.iter().collect();
    }
    let stride = items.len() as f64 / max as f64;
    let mut picked = Vec::with_capacity(max);
    let mut next = 0.0f64;
    for (i, item) in items.iter().enumerate() {
        if i as f64 >= next && picked.len() < max {
            picked.push(item);
            next += stride;
        }
    }
    picked
}

/// One user's cells, trained and scored cell by cell: `ACCself` over the
/// user's own windows, `ACCother` as the mean acceptance over each other
/// user's windows, evenly subsampled to at most `max_other`.
fn oracle_cells(
    vocab: &Vocabulary,
    kind: ModelKind,
    regularizations: &[f64],
    max_other: usize,
    sets: &WindowSets,
    user: UserId,
) -> Vec<ModelGridCell> {
    let own = &sets[&user];
    let own_refs: Vec<&SparseVector> = own.iter().collect();
    let others: Vec<Vec<&SparseVector>> = sets
        .iter()
        .filter(|&(&u, _)| u != user)
        .map(|(_, windows)| evenly_spaced(windows, max_other))
        .collect();
    let acceptance =
        |values: &[f64]| values.iter().filter(|&&v| v >= 0.0).count() as f64 / values.len() as f64;
    let mut cells = Vec::new();
    for kernel_kind in KernelKind::ALL {
        for &regularization in regularizations {
            let trainer = ProfileTrainer::new(vocab)
                .window(WindowConfig::PAPER_DEFAULT)
                .kind(kind)
                .kernel(Kernel::default_for(kernel_kind, vocab.n_features()))
                .regularization(regularization);
            let Ok(profile) = trainer.train_from_vectors(user, own) else {
                continue;
            };
            let acc_other: Vec<f64> = others
                .iter()
                .map(|windows| {
                    if windows.is_empty() {
                        0.0
                    } else {
                        acceptance(&profile.batch_decision_values(windows))
                    }
                })
                .collect();
            let summary = AcceptanceSummary {
                acc_self: acceptance(&profile.batch_decision_values(&own_refs)),
                acc_other: if acc_other.is_empty() {
                    0.0
                } else {
                    acc_other.iter().sum::<f64>() / acc_other.len() as f64
                },
            };
            cells.push(ModelGridCell { kernel: kernel_kind, regularization, summary });
        }
    }
    cells
}

#[test]
fn sweep_cells_without_warm_start_is_bit_identical_to_legacy_path() {
    let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let sets = compute_window_sets(&vocab, &dataset, WindowConfig::PAPER_DEFAULT, Some(40));
    let regularizations = vec![0.9, 0.5, 0.1];
    // `usize::MAX` keeps every other user's windows as `ACCother` probes;
    // 7 subsamples them, skipping each user's own range of the sweep's
    // shared probe set. The oracle samples the same windows.
    for (kind, max_other) in
        ModelKind::ALL.into_iter().flat_map(|kind| [(kind, usize::MAX), (kind, 7)])
    {
        let search = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, kind)
            .regularizations(regularizations.clone())
            .max_other_windows(max_other)
            .warm_start(false)
            .arena(KernelRowArena::with_budget(64 << 20));
        let (swept, stats) = search.sweep_cells(&sets);
        assert_eq!(swept.len(), sets.len());
        assert!(stats.cells > 0);
        assert_eq!(stats.warm_cells, 0, "warm start was disabled");
        for (&user, cells) in &swept {
            if sets[&user].is_empty() {
                assert!(cells.is_empty(), "{kind} {user}");
                continue;
            }
            let legacy = oracle_cells(&vocab, kind, &regularizations, max_other, &sets, user);
            assert_eq!(cells.len(), legacy.len(), "{kind} {user}");
            for (cell, expected) in cells.iter().zip(&legacy) {
                assert_eq!(cell.kernel, expected.kernel, "{kind} {user}");
                assert_eq!(cell.regularization, expected.regularization);
                // Bit-exact: identical rows, identical solver path.
                assert_eq!(cell.summary.acc_self, expected.summary.acc_self, "{kind} {user}");
                assert_eq!(cell.summary.acc_other, expected.summary.acc_other, "{kind} {user}");
            }
        }
    }
}

#[test]
fn run_user_is_the_users_share_of_the_full_sweep() {
    let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let sets = compute_window_sets(&vocab, &dataset, WindowConfig::PAPER_DEFAULT, Some(30));
    let search = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::OcSvm)
        .regularizations(vec![0.7, 0.2])
        .arena(KernelRowArena::with_budget(64 << 20));
    let (swept, _) = search.sweep_cells(&sets);
    for (&user, cells) in &swept {
        assert_eq!(&search.run_user(&sets, user), cells, "{user}");
    }
}
