//! First-order Markov-chain baseline over transaction sequences.
//!
//! The closest prior work the paper compares against (Verde et al.,
//! ICDCS 2014 [11]) fingerprints users with hidden Markov models over
//! their flow sequences. This module provides the analogous sequence
//! baseline on web-transaction logs: a per-user first-order Markov chain
//! over website-category symbols, scored by mean log-likelihood per
//! transition and thresholded on a training quantile. Unlike the window
//! vectors of the main pipeline it consumes the *raw transaction slices*
//! of each window ([`WindowAggregator::user_window_slices`]).
//!
//! [`WindowAggregator::user_window_slices`]: crate::WindowAggregator::user_window_slices

use crate::trainer::ProfileError;
use proxylog::{Transaction, UserId};
use std::fmt;

/// Per-user first-order Markov chain over category symbols.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MarkovProfile {
    user: UserId,
    n_states: usize,
    /// Row-major `n_states × n_states` transition log-probabilities
    /// (Laplace-smoothed).
    log_transitions: Vec<f64>,
    /// Initial-symbol log-probabilities (Laplace-smoothed).
    log_initial: Vec<f64>,
    /// Acceptance threshold on the mean log-likelihood per symbol.
    threshold: f64,
    training_windows: usize,
}

impl MarkovProfile {
    /// Trains the chain on a user's training windows (each a time-ordered
    /// transaction slice) with Laplace smoothing, then calibrates the
    /// acceptance threshold at the `quantile` of training-window scores.
    ///
    /// # Errors
    ///
    /// [`ProfileError::NoWindows`] when `windows` is empty or holds no
    /// transactions.
    ///
    /// # Panics
    ///
    /// Panics if `n_states` is zero or any transaction's category id is
    /// `>= n_states`.
    pub fn train(
        user: UserId,
        windows: &[Vec<Transaction>],
        n_states: usize,
        quantile: f64,
    ) -> Result<Self, ProfileError> {
        assert!(n_states > 0, "need at least one state");
        let total: usize = windows.iter().map(Vec::len).sum();
        if total == 0 {
            return Err(ProfileError::NoWindows { user });
        }
        let mut transition_counts = vec![1.0f64; n_states * n_states]; // Laplace
        let mut initial_counts = vec![1.0f64; n_states];
        for window in windows {
            let mut previous: Option<usize> = None;
            for tx in window {
                let state = tx.category.0 as usize;
                assert!(state < n_states, "category {state} out of {n_states} states");
                match previous {
                    None => initial_counts[state] += 1.0,
                    Some(p) => transition_counts[p * n_states + state] += 1.0,
                }
                previous = Some(state);
            }
        }
        let log_transitions = normalize_rows(&transition_counts, n_states);
        let initial_total: f64 = initial_counts.iter().sum();
        let log_initial: Vec<f64> =
            initial_counts.iter().map(|&c| (c / initial_total).ln()).collect();

        let mut profile = Self {
            user,
            n_states,
            log_transitions,
            log_initial,
            threshold: f64::NEG_INFINITY,
            training_windows: windows.len(),
        };
        let mut scores: Vec<f64> = windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| profile.mean_log_likelihood(w))
            .collect();
        scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
        let quantile = quantile.clamp(0.0, 1.0);
        let index = ((scores.len() as f64 * quantile) as usize).min(scores.len() - 1);
        profile.threshold = scores[index];
        Ok(profile)
    }

    /// The profiled user.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Training windows used.
    pub fn training_windows(&self) -> usize {
        self.training_windows
    }

    /// Mean log-likelihood per symbol of a window's category sequence.
    ///
    /// # Panics
    ///
    /// Panics if `window` is empty or contains out-of-range categories.
    pub fn mean_log_likelihood(&self, window: &[Transaction]) -> f64 {
        assert!(!window.is_empty(), "cannot score an empty window");
        let mut total = 0.0;
        let mut previous: Option<usize> = None;
        for tx in window {
            let state = tx.category.0 as usize;
            assert!(state < self.n_states, "category out of range");
            total += match previous {
                None => self.log_initial[state],
                Some(p) => self.log_transitions[p * self.n_states + state],
            };
            previous = Some(state);
        }
        total / window.len() as f64
    }

    /// Signed decision value (`>= 0` accepts): mean log-likelihood minus
    /// the calibrated threshold.
    pub fn decision_value(&self, window: &[Transaction]) -> f64 {
        self.mean_log_likelihood(window) - self.threshold
    }

    /// Whether the window's sequence is accepted as this user's behavior.
    pub fn accepts(&self, window: &[Transaction]) -> bool {
        self.decision_value(window) >= 0.0
    }
}

impl fmt::Display for MarkovProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "markov-baseline({}, {} states, threshold {:.3}, {} windows)",
            self.user, self.n_states, self.threshold, self.training_windows
        )
    }
}

/// Row-normalizes counts into log-probabilities.
fn normalize_rows(counts: &[f64], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; counts.len()];
    for row in 0..n {
        let total: f64 = counts[row * n..(row + 1) * n].iter().sum();
        for col in 0..n {
            out[row * n + col] = (counts[row * n + col] / total).ln();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxylog::{
        AppTypeId, CategoryId, DeviceId, HttpAction, Reputation, SiteId, SubtypeId, Timestamp,
        UriScheme,
    };

    fn tx(category: u16) -> Transaction {
        Transaction {
            timestamp: Timestamp(0),
            user: UserId(0),
            device: DeviceId(0),
            site: SiteId(0),
            action: HttpAction::Get,
            scheme: UriScheme::Http,
            category: CategoryId(category),
            subtype: SubtypeId(0),
            app_type: AppTypeId(0),
            reputation: Reputation::Minimal,
            private_destination: false,
        }
    }

    fn windows_of(pattern: &[u16], n: usize) -> Vec<Vec<Transaction>> {
        (0..n).map(|_| pattern.iter().map(|&c| tx(c)).collect()).collect()
    }

    #[test]
    fn rejects_empty_training() {
        let err = MarkovProfile::train(UserId(0), &[], 4, 0.1).unwrap_err();
        assert!(matches!(err, ProfileError::NoWindows { .. }));
    }

    #[test]
    fn accepts_training_pattern_rejects_alien_pattern() {
        // User habitually alternates 0 -> 1 -> 0 -> 1.
        let own = windows_of(&[0, 1, 0, 1, 0], 20);
        let profile = MarkovProfile::train(UserId(1), &own, 4, 0.05).unwrap();
        let accepted = own.iter().filter(|w| profile.accepts(w)).count();
        assert!(accepted >= 19, "accepted {accepted}");
        // A user living in states 2 -> 3 looks nothing like it.
        let alien = windows_of(&[2, 3, 2, 3, 2], 20);
        let false_accepts = alien.iter().filter(|w| profile.accepts(w)).count();
        assert_eq!(false_accepts, 0);
    }

    #[test]
    fn likely_transitions_score_higher() {
        let own = windows_of(&[0, 1, 0, 1], 10);
        let profile = MarkovProfile::train(UserId(1), &own, 3, 0.1).unwrap();
        let likely = profile.mean_log_likelihood(&windows_of(&[0, 1], 1)[0]);
        let unlikely = profile.mean_log_likelihood(&windows_of(&[0, 2], 1)[0]);
        assert!(likely > unlikely, "{likely} <= {unlikely}");
    }

    #[test]
    fn smoothing_keeps_unseen_transitions_finite() {
        let own = windows_of(&[0, 0, 0], 5);
        let profile = MarkovProfile::train(UserId(1), &own, 3, 0.1).unwrap();
        let score = profile.mean_log_likelihood(&windows_of(&[2, 1, 2], 1)[0]);
        assert!(score.is_finite());
    }

    #[test]
    fn quantile_controls_threshold() {
        let own = windows_of(&[0, 1, 0], 20);
        let loose = MarkovProfile::train(UserId(1), &own, 3, 0.0).unwrap();
        let strict = MarkovProfile::train(UserId(1), &own, 3, 0.9).unwrap();
        // Identical windows ⇒ identical scores ⇒ equal thresholds are
        // possible; perturb with one noisy window to create spread.
        let mut varied = own;
        varied.push(windows_of(&[2, 2, 2], 1).pop().unwrap());
        let loose = MarkovProfile::train(UserId(1), &varied, 3, 0.0).unwrap_or(loose);
        let strict = MarkovProfile::train(UserId(1), &varied, 3, 0.9).unwrap_or(strict);
        let probe = windows_of(&[2, 2, 2], 1);
        assert!(loose.decision_value(&probe[0]) >= strict.decision_value(&probe[0]));
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn scoring_empty_window_panics() {
        let profile = MarkovProfile::train(UserId(0), &windows_of(&[0], 3), 2, 0.1).unwrap();
        let _ = profile.mean_log_likelihood(&[]);
    }

    #[test]
    fn display_names_user_and_states() {
        let profile = MarkovProfile::train(UserId(7), &windows_of(&[0, 1], 3), 5, 0.1).unwrap();
        let text = profile.to_string();
        assert!(text.contains("user_7") && text.contains("5 states"));
    }
}
