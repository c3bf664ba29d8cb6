//! Drift-triggered partial retraining.
//!
//! Profiles go stale: users unlock new repertoire over weeks (Figs. 1–2)
//! and the taxonomy itself evolves (new media subtypes, new apps).
//! Retraining *everyone* on every refresh is O(users) quadratic solver
//! work; this module fingerprints each user's training-window
//! distribution, compares it against the same fingerprint over recent
//! evaluation windows, and retrains **only** the users whose behaviour
//! actually moved — through the existing warm-start
//! [`ProfileTrainer::train_from_vectors_seeded`] path, on the `parcore`
//! pool, bit-deterministic at any worker count.
//!
//! The fingerprint is intentionally cheap and model-free: the fraction of
//! windows activating each feature column. Its L1 distance (normalized by
//! the union support) is 0 for identical distributions and 1 for disjoint
//! ones, so a single threshold works across users of very different
//! activity levels.

use crate::gridsearch::WindowSets;
use crate::trainer::{ProfileError, ProfileTrainer};
use crate::UserProfile;
use ocsvm::SparseVector;
use proxylog::UserId;
use std::collections::BTreeMap;

/// Column-activation fingerprint of a set of window feature vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileFingerprint {
    /// `(column, fraction of windows with a nonzero in that column)`,
    /// ascending by column.
    cols: Vec<(u32, f64)>,
    windows: usize,
}

impl ProfileFingerprint {
    /// Fingerprints a set of window vectors.
    pub fn from_windows(windows: &[SparseVector]) -> Self {
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for window in windows {
            for (col, value) in window.iter() {
                if value != 0.0 {
                    *counts.entry(col).or_insert(0) += 1;
                }
            }
        }
        let n = windows.len().max(1) as f64;
        Self {
            cols: counts.into_iter().map(|(col, c)| (col, c as f64 / n)).collect(),
            windows: windows.len(),
        }
    }

    /// Number of windows folded into the fingerprint.
    pub fn window_count(&self) -> usize {
        self.windows
    }

    /// Normalized L1 distance in `[0, 1]`: mean absolute activation
    /// difference over the union of both supports. 0 ⇔ identical
    /// activation profiles, 1 ⇔ fully disjoint.
    pub fn distance(&self, other: &Self) -> f64 {
        let mut sum = 0.0;
        let mut union = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.cols.len() || j < other.cols.len() {
            union += 1;
            match (self.cols.get(i), other.cols.get(j)) {
                (Some(&(ca, va)), Some(&(cb, vb))) => {
                    if ca == cb {
                        sum += (va - vb).abs();
                        i += 1;
                        j += 1;
                    } else if ca < cb {
                        sum += va;
                        i += 1;
                    } else {
                        sum += vb;
                        j += 1;
                    }
                }
                (Some(&(_, va)), None) => {
                    sum += va;
                    i += 1;
                }
                (None, Some(&(_, vb))) => {
                    sum += vb;
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        if union == 0 {
            0.0
        } else {
            sum / union as f64
        }
    }
}

/// Knobs of [`drift_partial_retrain`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftRetrainConfig {
    /// Fingerprint distance above which a profile is stale.
    pub threshold: f64,
    /// Worker threads for the retrain fan-out (1 = sequential). The
    /// result is bit-identical at any width.
    pub workers: usize,
    /// Users need at least this many windows on *both* sides to be
    /// evaluated (tiny samples make the distance meaningless).
    pub min_windows: usize,
}

impl Default for DriftRetrainConfig {
    fn default() -> Self {
        Self { threshold: 0.15, workers: parcore::default_workers(), min_windows: 8 }
    }
}

/// What [`drift_partial_retrain`] measured and did.
#[derive(Debug)]
pub struct RetrainReport {
    /// Fingerprint distance per evaluated user.
    pub distances: BTreeMap<UserId, f64>,
    /// Users whose distance exceeded the threshold, ascending.
    pub stale: Vec<UserId>,
    /// Stale users successfully retrained (their entry in `profiles` was
    /// replaced).
    pub retrained: usize,
    /// Evaluated users left untouched (distance within the threshold).
    pub skipped_fresh: usize,
    /// Stale users whose retrain failed (profile left as it was).
    pub errors: BTreeMap<UserId, ProfileError>,
}

/// Detects stale profiles by fingerprint drift and retrains only those,
/// in place, from the union of their original training windows and the
/// recent windows that exposed the drift (so the refreshed profile covers
/// both the old and the new behaviour).
///
/// `training` holds the windows the current profiles were built from;
/// `recent` the evaluation-period windows. Users missing from either set,
/// or with fewer than [`DriftRetrainConfig::min_windows`] on either side,
/// are not evaluated. Only users present in `profiles` are considered —
/// this refreshes a trained population, it never grows it.
pub fn drift_partial_retrain(
    trainer: &ProfileTrainer<'_>,
    profiles: &mut BTreeMap<UserId, UserProfile>,
    training: &WindowSets,
    recent: &WindowSets,
    config: &DriftRetrainConfig,
) -> RetrainReport {
    let mut distances = BTreeMap::new();
    let mut stale = Vec::new();
    let mut skipped_fresh = 0usize;
    for user in profiles.keys().copied() {
        let (Some(train), Some(eval)) = (training.get(&user), recent.get(&user)) else {
            continue;
        };
        if train.len() < config.min_windows || eval.len() < config.min_windows {
            continue;
        }
        let distance = ProfileFingerprint::from_windows(train)
            .distance(&ProfileFingerprint::from_windows(eval));
        distances.insert(user, distance);
        if distance > config.threshold {
            stale.push(user);
        } else {
            skipped_fresh += 1;
        }
    }

    let results = parcore::parallel_map_workers(&stale, config.workers.max(1), |&user| {
        let mut merged = training[&user].clone();
        merged.extend_from_slice(&recent[&user]);
        trainer.train_from_vectors(user, &merged)
    });

    let mut retrained = 0usize;
    let mut errors = BTreeMap::new();
    for (&user, result) in stale.iter().zip(results) {
        match result {
            Ok(profile) => {
                profiles.insert(user, profile);
                retrained += 1;
            }
            Err(e) => {
                errors.insert(user, e);
            }
        }
    }
    RetrainReport { distances, stale, retrained, skipped_fresh, errors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vocabulary;
    use proxylog::Taxonomy;

    fn vector(cols: &[u32]) -> SparseVector {
        SparseVector::from_pairs(cols.iter().map(|&c| (c, 1.0)).collect::<Vec<_>>()).unwrap()
    }

    fn windows(cols: &[u32], n: usize) -> Vec<SparseVector> {
        (0..n).map(|_| vector(cols)).collect()
    }

    #[test]
    fn identical_windows_have_zero_distance() {
        let a = ProfileFingerprint::from_windows(&windows(&[1, 5, 9], 10));
        assert_eq!(a.distance(&a), 0.0);
        assert_eq!(a.window_count(), 10);
    }

    #[test]
    fn disjoint_windows_have_distance_one() {
        let a = ProfileFingerprint::from_windows(&windows(&[1, 2, 3], 10));
        let b = ProfileFingerprint::from_windows(&windows(&[7, 8, 9], 10));
        assert_eq!(a.distance(&b), 1.0);
        assert_eq!(b.distance(&a), 1.0);
    }

    #[test]
    fn partial_overlap_is_strictly_between() {
        let a = ProfileFingerprint::from_windows(&windows(&[1, 2, 3, 4], 10));
        let b = ProfileFingerprint::from_windows(&windows(&[3, 4, 5, 6], 10));
        let d = a.distance(&b);
        assert!(d > 0.0 && d < 1.0, "got {d}");
        // 4 shifted columns over a 6-column union.
        assert!((d - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_fingerprints_are_identical() {
        let a = ProfileFingerprint::from_windows(&[]);
        assert_eq!(a.distance(&a), 0.0);
        assert_eq!(a.window_count(), 0);
    }

    /// Builds a small trained population plus window sets where exactly
    /// the users in `drifted` shifted to disjoint columns.
    fn population(users: &[u32], drifted: &[u32]) -> (WindowSets, WindowSets, Vec<u32>) {
        let mut training = WindowSets::new();
        let mut recent = WindowSets::new();
        for &u in users {
            let base = vec![u * 3, u * 3 + 1, u * 3 + 2];
            training.insert(UserId(u), windows(&base, 12));
            let eval_cols: Vec<u32> =
                if drifted.contains(&u) { base.iter().map(|c| c + 500).collect() } else { base };
            recent.insert(UserId(u), windows(&eval_cols, 12));
        }
        (training, recent, drifted.to_vec())
    }

    #[test]
    fn retrains_only_stale_users() {
        let vocab = Vocabulary::new(Taxonomy::paper_scale());
        let trainer = ProfileTrainer::new(&vocab);
        let (training, recent, drifted) = population(&[1, 2, 3, 4], &[2, 4]);
        let mut profiles: BTreeMap<UserId, UserProfile> = training
            .iter()
            .map(|(&u, vectors)| (u, trainer.train_from_vectors(u, vectors).unwrap()))
            .collect();
        let before: BTreeMap<UserId, usize> =
            profiles.iter().map(|(&u, p)| (u, p.training_windows())).collect();

        let config = DriftRetrainConfig { workers: 1, ..DriftRetrainConfig::default() };
        let report = drift_partial_retrain(&trainer, &mut profiles, &training, &recent, &config);

        let expected: Vec<UserId> = drifted.iter().map(|&u| UserId(u)).collect();
        assert_eq!(report.stale, expected);
        assert_eq!(report.retrained, 2, "exactly the stale users retrain");
        assert_eq!(report.skipped_fresh, 2);
        assert!(report.errors.is_empty());
        for (&user, profile) in &profiles {
            if expected.contains(&user) {
                // Retrained on training ∪ recent: twice the windows.
                assert_eq!(profile.training_windows(), 24, "stale user {user:?}");
            } else {
                assert_eq!(
                    profile.training_windows(),
                    before[&user],
                    "fresh user {user:?} must be untouched"
                );
            }
        }
    }

    #[test]
    fn below_min_windows_is_not_evaluated() {
        let vocab = Vocabulary::new(Taxonomy::paper_scale());
        let trainer = ProfileTrainer::new(&vocab);
        let mut training = WindowSets::new();
        let mut recent = WindowSets::new();
        training.insert(UserId(1), windows(&[1, 2, 3], 3));
        recent.insert(UserId(1), windows(&[800, 801, 802], 3));
        let mut profiles: BTreeMap<UserId, UserProfile> = training
            .iter()
            .map(|(&u, vectors)| (u, trainer.train_from_vectors(u, vectors).unwrap()))
            .collect();
        let report = drift_partial_retrain(
            &trainer,
            &mut profiles,
            &training,
            &recent,
            &DriftRetrainConfig::default(),
        );
        assert!(report.distances.is_empty());
        assert!(report.stale.is_empty());
        assert_eq!(report.retrained, 0);
    }

    #[test]
    fn retrain_is_worker_count_invariant() {
        let vocab = Vocabulary::new(Taxonomy::paper_scale());
        let trainer = ProfileTrainer::new(&vocab);
        let (training, recent, _) = population(&[1, 2, 3, 4, 5, 6], &[1, 3, 5]);
        let mut fingerprints = Vec::new();
        for workers in [1usize, 2, 8] {
            let mut profiles: BTreeMap<UserId, UserProfile> = training
                .iter()
                .map(|(&u, vectors)| (u, trainer.train_from_vectors(u, vectors).unwrap()))
                .collect();
            let config = DriftRetrainConfig { workers, ..DriftRetrainConfig::default() };
            let report =
                drift_partial_retrain(&trainer, &mut profiles, &training, &recent, &config);
            assert_eq!(report.retrained, 3);
            fingerprints.push(profiles.values().map(|p| format!("{p:?}")).collect::<Vec<String>>());
        }
        assert_eq!(fingerprints[0], fingerprints[1], "1 vs 2 workers");
        assert_eq!(fingerprints[0], fingerprints[2], "1 vs 8 workers");
    }
}
