//! Decision-threshold analysis.
//!
//! The paper reports single operating points (accept iff the decision
//! value is ≥ 0). Shifting the acceptance threshold trades the true
//! positive rate (`ACCself`) against the false positive rate (`ACCother`);
//! this module sweeps that trade-off into an ROC curve and its AUC, used
//! by the threshold ablation in `bench`.

use crate::profile::UserProfile;
use ocsvm::SparseVector;

/// One point of an ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Acceptance threshold on the decision value (accept iff `dv >=
    /// threshold`).
    pub threshold: f64,
    /// True positive rate at this threshold (fraction of the profiled
    /// user's windows accepted).
    pub tpr: f64,
    /// False positive rate (fraction of other users' windows accepted).
    pub fpr: f64,
}

/// Sweeps the acceptance threshold over every distinct decision value,
/// returning points ordered by increasing FPR (ties broken by TPR). The
/// first point is `(−∞ threshold ⇒ 1, 1)`-free: only finite observed
/// thresholds are returned, plus the two trivial endpoints.
///
/// Returns an empty vector if either sample set is empty.
pub fn roc_curve(
    profile: &UserProfile,
    own_windows: &[SparseVector],
    other_windows: &[SparseVector],
) -> Vec<RocPoint> {
    if own_windows.is_empty() || other_windows.is_empty() {
        return Vec::new();
    }
    let mut own: Vec<f64> = own_windows.iter().map(|w| profile.decision_value(w)).collect();
    let mut other: Vec<f64> = other_windows.iter().map(|w| profile.decision_value(w)).collect();
    own.sort_by(|a, b| a.partial_cmp(b).expect("finite decision values"));
    other.sort_by(|a, b| a.partial_cmp(b).expect("finite decision values"));

    // Candidate thresholds: every distinct decision value.
    let mut thresholds: Vec<f64> = own.iter().chain(other.iter()).copied().collect();
    thresholds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    thresholds.dedup();

    let mut points = Vec::with_capacity(thresholds.len() + 2);
    // Accept-everything endpoint.
    points.push(RocPoint { threshold: f64::NEG_INFINITY, tpr: 1.0, fpr: 1.0 });
    for &threshold in &thresholds {
        // Fraction of values >= threshold, via partition_point on the
        // ascending-sorted arrays.
        let tpr = 1.0 - own.partition_point(|&v| v < threshold) as f64 / own.len() as f64;
        let fpr = 1.0 - other.partition_point(|&v| v < threshold) as f64 / other.len() as f64;
        points.push(RocPoint { threshold, tpr, fpr });
    }
    // Reject-everything endpoint.
    points.push(RocPoint { threshold: f64::INFINITY, tpr: 0.0, fpr: 0.0 });
    points.sort_by(|a, b| (a.fpr, a.tpr).partial_cmp(&(b.fpr, b.tpr)).expect("finite rates"));
    points
}

/// Area under an ROC curve via the trapezoid rule. Points must come from
/// [`roc_curve`] (sorted by FPR).
pub fn auc(points: &[RocPoint]) -> f64 {
    points
        .windows(2)
        .map(|pair| {
            let dx = pair[1].fpr - pair[0].fpr;
            let avg_y = 0.5 * (pair[0].tpr + pair[1].tpr);
            dx * avg_y
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ModelKind;
    use crate::trainer::ProfileTrainer;
    use crate::vocab::Vocabulary;
    use ocsvm::Kernel;
    use proxylog::{Taxonomy, UserId};

    fn fixture() -> (UserProfile, Vec<SparseVector>, Vec<SparseVector>) {
        let vocab = Vocabulary::new(Taxonomy::paper_scale());
        let make = |base: u32, n: usize| -> Vec<SparseVector> {
            (0..n)
                .map(|i| {
                    SparseVector::from_pairs(vec![
                        (0, 1.0),
                        (7, 0.3 + 0.04 * (i % 6) as f64),
                        (base + (i % 3) as u32, 1.0),
                    ])
                    .unwrap()
                })
                .collect()
        };
        let own = make(40, 50);
        let other = make(600, 50);
        let profile = ProfileTrainer::new(&vocab)
            .kind(ModelKind::Svdd)
            .kernel(Kernel::Rbf { gamma: 0.8 })
            .regularization(0.3)
            .train_from_vectors(UserId(2), &own)
            .unwrap();
        (profile, own, other)
    }

    #[test]
    fn curve_spans_unit_square() {
        let (profile, own, other) = fixture();
        let points = roc_curve(&profile, &own, &other);
        assert!(points.len() >= 3);
        let first = points.first().unwrap();
        let last = points.last().unwrap();
        assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
        for p in &points {
            assert!((0.0..=1.0).contains(&p.tpr) && (0.0..=1.0).contains(&p.fpr));
        }
    }

    #[test]
    fn curve_is_monotone_in_fpr_and_tpr() {
        let (profile, own, other) = fixture();
        let points = roc_curve(&profile, &own, &other);
        for pair in points.windows(2) {
            assert!(pair[0].fpr <= pair[1].fpr);
            assert!(pair[0].tpr <= pair[1].tpr + 1e-12);
        }
    }

    #[test]
    fn separable_data_has_high_auc() {
        let (profile, own, other) = fixture();
        let points = roc_curve(&profile, &own, &other);
        let area = auc(&points);
        assert!(area > 0.9, "AUC = {area}");
        assert!(area <= 1.0 + 1e-12);
    }

    #[test]
    fn random_data_has_mid_auc() {
        // Identical distributions ⇒ AUC ≈ diagonal.
        let (profile, own, _) = fixture();
        let points = roc_curve(&profile, &own, &own);
        let area = auc(&points);
        assert!((area - 0.5).abs() < 0.15, "AUC = {area}");
    }

    #[test]
    fn empty_inputs_yield_empty_curve() {
        let (profile, own, _) = fixture();
        assert!(roc_curve(&profile, &[], &own).is_empty());
        assert!(roc_curve(&profile, &own, &[]).is_empty());
    }
}
