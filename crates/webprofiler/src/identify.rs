//! Online user identification on a monitored device (Sect. V-B, Fig. 3).
//!
//! For real applications the windowing is *host-specific*: every
//! transaction seen on a device — whoever performed it — is aggregated
//! into sliding windows, and each window is subjected to every user model.
//! The models that accept a window are that window's candidate users; the
//! paper's Fig. 3 plots those acceptances against the actual usage of a
//! shared device over 100 minutes, and suggests voting over consecutive
//! windows to disambiguate multi-accepted windows.

use crate::profile::UserProfile;
use crate::vocab::Vocabulary;
use crate::window::{WindowAggregator, WindowConfig};
use parcore::parallel_map;
use proxylog::{Dataset, DeviceId, Timestamp, UserId};
use std::collections::BTreeMap;

/// One host-specific window with the models that accepted it and the
/// ground-truth users actually active in it.
#[derive(Debug, Clone)]
pub struct IdentifiedWindow {
    /// Window start.
    pub start: Timestamp,
    /// Transactions aggregated into the window.
    pub transaction_count: usize,
    /// User models that accepted the window, ascending.
    pub accepted_by: Vec<UserId>,
    /// Users whose transactions are actually in the window, ascending
    /// (ground truth; normally a single user, since a device is used by
    /// one person at a time).
    pub actual_users: Vec<UserId>,
}

impl IdentifiedWindow {
    /// Whether exactly the actual users (and nobody else) accepted.
    pub fn is_exact(&self) -> bool {
        self.accepted_by == self.actual_users
    }

    /// Whether every actual user's model accepted the window.
    pub fn covers_actual(&self) -> bool {
        self.actual_users.iter().all(|u| self.accepted_by.contains(u))
    }
}

/// Identifies users on a device by applying every profile to every
/// host-specific window.
pub fn identify_on_device(
    profiles: &BTreeMap<UserId, UserProfile>,
    vocab: &Vocabulary,
    dataset: &Dataset,
    device: DeviceId,
    config: WindowConfig,
) -> Vec<IdentifiedWindow> {
    let aggregator = WindowAggregator::new(vocab, config);
    let windows = aggregator.device_windows(dataset, device);
    let results = parallel_map(&windows, |window| {
        let accepted_by: Vec<UserId> = profiles
            .iter()
            .filter(|(_, profile)| profile.accepts(&window.features))
            .map(|(&user, _)| user)
            .collect();
        IdentifiedWindow {
            start: window.start,
            transaction_count: window.transaction_count,
            accepted_by,
            actual_users: window.users.clone(),
        }
    });
    results
}

/// Summary quality of an identification run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdentificationQuality {
    /// Fraction of windows where the actual user's model accepted.
    pub recall: f64,
    /// Fraction of (window, accepting model) pairs that were correct.
    pub precision: f64,
    /// Fraction of windows accepted by exactly the right model set.
    pub exact: f64,
    /// Windows evaluated.
    pub windows: usize,
}

impl IdentificationQuality {
    /// Measures an identification run (zeroes for an empty run).
    pub fn measure(windows: &[IdentifiedWindow]) -> Self {
        if windows.is_empty() {
            return Self { recall: 0.0, precision: 0.0, exact: 0.0, windows: 0 };
        }
        let n = windows.len() as f64;
        let recall = windows.iter().filter(|w| w.covers_actual()).count() as f64 / n;
        let exact = windows.iter().filter(|w| w.is_exact()).count() as f64 / n;
        let mut accepted_pairs = 0usize;
        let mut correct_pairs = 0usize;
        for w in windows {
            accepted_pairs += w.accepted_by.len();
            correct_pairs += w.accepted_by.iter().filter(|u| w.actual_users.contains(u)).count();
        }
        let precision =
            if accepted_pairs == 0 { 0.0 } else { correct_pairs as f64 / accepted_pairs as f64 };
        Self { recall, precision, exact, windows: windows.len() }
    }
}

/// Votes over the trailing `k` windows: a user is the identification of a
/// window if their model accepted strictly more than half of the last `k`
/// windows (including the current one) — the paper's suggested mitigation
/// for windows accepted by several models, at the cost of multiplying the
/// identification delay by `k`.
///
/// Returns one `(window_start, identified_user)` per input window; `None`
/// before a majority emerges or on ties.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn consecutive_window_vote(
    windows: &[IdentifiedWindow],
    k: usize,
) -> Vec<(Timestamp, Option<UserId>)> {
    assert!(k > 0, "vote length must be positive");
    let mut result = Vec::with_capacity(windows.len());
    for (i, window) in windows.iter().enumerate() {
        let lo = (i + 1).saturating_sub(k);
        let vote = majority_vote(windows[lo..=i].iter().map(|w| w.accepted_by.as_slice()));
        result.push((window.start, vote));
    }
    result
}

/// Strict-majority vote over a group of windows' acceptance sets: the
/// winner's model must have accepted strictly more than half of the
/// windows; ties and the absence of a majority yield `None`.
///
/// This is the single vote rule behind [`consecutive_window_vote`] and the
/// streaming engine's per-device decisions, so batch and online runs can
/// never disagree on it.
pub fn majority_vote<'a, I>(accept_sets: I) -> Option<UserId>
where
    I: IntoIterator<Item = &'a [UserId]>,
{
    let mut counts: BTreeMap<UserId, usize> = BTreeMap::new();
    let mut total = 0usize;
    for set in accept_sets {
        total += 1;
        for &user in set {
            *counts.entry(user).or_insert(0) += 1;
        }
    }
    let need = total / 2; // strictly more than half
    let mut winner: Option<UserId> = None;
    let mut best = need;
    let mut tie = false;
    for (&user, &count) in &counts {
        if count > best {
            winner = Some(user);
            best = count;
            tie = false;
        } else if count == best && winner.is_some() {
            tie = true;
        }
    }
    if tie {
        None
    } else {
        winner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(start: i64, accepted: &[u32], actual: &[u32]) -> IdentifiedWindow {
        IdentifiedWindow {
            start: Timestamp(start),
            transaction_count: 1,
            accepted_by: accepted.iter().map(|&u| UserId(u)).collect(),
            actual_users: actual.iter().map(|&u| UserId(u)).collect(),
        }
    }

    #[test]
    fn exactness_and_coverage() {
        let w = window(0, &[1], &[1]);
        assert!(w.is_exact());
        assert!(w.covers_actual());
        let w = window(0, &[1, 2], &[1]);
        assert!(!w.is_exact());
        assert!(w.covers_actual());
        let w = window(0, &[2], &[1]);
        assert!(!w.covers_actual());
    }

    #[test]
    fn quality_measures() {
        let windows = vec![
            window(0, &[1], &[1]),     // exact
            window(30, &[1, 2], &[1]), // covered, one spurious
            window(60, &[], &[1]),     // missed
        ];
        let q = IdentificationQuality::measure(&windows);
        assert_eq!(q.windows, 3);
        assert!((q.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.exact - 1.0 / 3.0).abs() < 1e-12);
        assert!((q.precision - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quality_of_empty_run() {
        let q = IdentificationQuality::measure(&[]);
        assert_eq!(q.windows, 0);
        assert_eq!(q.recall, 0.0);
    }

    #[test]
    fn vote_identifies_majority_user() {
        let windows =
            vec![window(0, &[1], &[1]), window(30, &[1, 2], &[1]), window(60, &[1], &[1])];
        let votes = consecutive_window_vote(&windows, 3);
        assert_eq!(votes[2].1, Some(UserId(1)));
    }

    #[test]
    fn vote_none_on_tie() {
        let windows = vec![window(0, &[1, 2], &[1]), window(30, &[1, 2], &[1])];
        let votes = consecutive_window_vote(&windows, 2);
        assert_eq!(votes[1].1, None);
    }

    #[test]
    fn vote_with_k_one_follows_single_acceptance() {
        let windows = vec![window(0, &[3], &[3]), window(30, &[], &[3])];
        let votes = consecutive_window_vote(&windows, 1);
        assert_eq!(votes[0].1, Some(UserId(3)));
        assert_eq!(votes[1].1, None);
    }

    #[test]
    fn vote_switches_user_after_handover() {
        // User 1 active for 4 windows, then user 2.
        let mut windows = Vec::new();
        for i in 0..4 {
            windows.push(window(i * 30, &[1], &[1]));
        }
        for i in 4..8 {
            windows.push(window(i * 30, &[2], &[2]));
        }
        let votes = consecutive_window_vote(&windows, 3);
        assert_eq!(votes[3].1, Some(UserId(1)));
        assert_eq!(votes[7].1, Some(UserId(2)));
    }

    #[test]
    #[should_panic(expected = "vote length")]
    fn vote_rejects_zero_k() {
        let _ = consecutive_window_vote(&[], 0);
    }

    #[test]
    fn majority_vote_requires_strict_majority() {
        let one = vec![UserId(1)];
        let two = vec![UserId(2)];
        let both = vec![UserId(1), UserId(2)];
        // 2 of 4 windows is not strictly more than half.
        assert_eq!(
            majority_vote([one.as_slice(), one.as_slice(), two.as_slice(), two.as_slice()]),
            None
        );
        // 3 of 4 is.
        assert_eq!(
            majority_vote([one.as_slice(), one.as_slice(), one.as_slice(), two.as_slice()]),
            Some(UserId(1))
        );
        // Ties at the top yield None.
        assert_eq!(majority_vote([both.as_slice(), both.as_slice(), both.as_slice()]), None);
        // No acceptances at all: no winner.
        assert_eq!(majority_vote([[].as_slice()]), None);
    }

    #[test]
    fn vote_exact_half_ties_at_even_window_counts_yield_none() {
        // 2 of 4 acceptances is exactly half — not a strict majority —
        // at every even trailing-window count.
        for k in [2usize, 4, 6] {
            let mut windows = Vec::new();
            for i in 0..k as i64 {
                // User 1 accepts the first half, user 2 the second half.
                let user = if i < k as i64 / 2 { 1 } else { 2 };
                windows.push(window(i * 30, &[user], &[user]));
            }
            let votes = consecutive_window_vote(&windows, k);
            assert_eq!(votes[k - 1].1, None, "k = {k}: exact half must not elect");
        }
        // One extra acceptance breaks the tie.
        let windows = vec![
            window(0, &[1], &[1]),
            window(30, &[1], &[1]),
            window(60, &[1, 2], &[2]),
            window(90, &[2], &[2]),
        ];
        assert_eq!(consecutive_window_vote(&windows, 4)[3].1, Some(UserId(1)));
    }

    #[test]
    fn vote_single_window_k_one_boundaries() {
        // k = 1 over one window: sole acceptor wins, multi-acceptance
        // ties, and an empty set abstains.
        assert_eq!(consecutive_window_vote(&[window(0, &[7], &[7])], 1)[0].1, Some(UserId(7)));
        assert_eq!(consecutive_window_vote(&[window(0, &[1, 2], &[1])], 1)[0].1, None);
        assert_eq!(consecutive_window_vote(&[window(0, &[], &[1])], 1)[0].1, None);
    }

    #[test]
    fn vote_empty_acceptance_sets_never_elect() {
        let windows: Vec<IdentifiedWindow> = (0..5).map(|i| window(i * 30, &[], &[1])).collect();
        for k in 1..=5 {
            for (start, vote) in consecutive_window_vote(&windows, k) {
                assert_eq!(vote, None, "empty sets elected someone at {start:?} with k = {k}");
            }
        }
        // Empty windows interleaved with acceptances still count towards
        // the total the majority is measured against.
        let windows = vec![window(0, &[1], &[1]), window(30, &[], &[1]), window(60, &[], &[1])];
        assert_eq!(consecutive_window_vote(&windows, 3)[2].1, None, "1 of 3 is no majority");
    }

    #[test]
    fn batch_and_streaming_vote_folds_are_pinned_identical() {
        // The engine folds acceptance sets through a bounded deque and
        // calls majority_vote per window; the batch path slices. Both
        // must agree on every prefix, including ties, empties and
        // handovers.
        use std::collections::VecDeque;
        let acceptance_sets: Vec<Vec<u32>> = vec![
            vec![1],
            vec![1, 2],
            vec![],
            vec![2],
            vec![2],
            vec![1, 2],
            vec![],
            vec![3],
            vec![3],
            vec![3, 1],
        ];
        let windows: Vec<IdentifiedWindow> = acceptance_sets
            .iter()
            .enumerate()
            .map(|(i, set)| window(i as i64 * 30, set, &[1]))
            .collect();
        for k in 1..=4 {
            let batch = consecutive_window_vote(&windows, k);
            let mut history: VecDeque<Vec<UserId>> = VecDeque::with_capacity(k);
            for (i, w) in windows.iter().enumerate() {
                history.push_back(w.accepted_by.clone());
                if history.len() > k {
                    history.pop_front();
                }
                let streamed = majority_vote(history.iter().map(|set| set.as_slice()));
                assert_eq!(streamed, batch[i].1, "window {i}, k = {k}");
            }
        }
    }

    #[test]
    fn identify_on_device_end_to_end() {
        use crate::profile::ModelKind;
        use crate::trainer::ProfileTrainer;
        use ocsvm::Kernel;
        use tracegen::{Scenario, TraceGenerator};

        let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let trainer = ProfileTrainer::new(&vocab)
            .kind(ModelKind::OcSvm)
            .kernel(Kernel::Linear)
            .regularization(0.1)
            .max_training_windows(200);
        let (profiles, _) = trainer.train_all(&dataset);
        let device = dataset.devices()[0];
        let identified =
            identify_on_device(&profiles, &vocab, &dataset, device, WindowConfig::PAPER_DEFAULT);
        assert!(!identified.is_empty());
        let quality = IdentificationQuality::measure(&identified);
        // Models were trained on this same data; their own windows should
        // be mostly recognized.
        assert!(quality.recall > 0.5, "recall = {}", quality.recall);
    }
}
