//! Acceptance metrics (Sect. IV-C, Sect. V-A).
//!
//! A model's quality is evaluated along two axes: the *self-acceptance
//! ratio* `ACCself` (fraction of the profiled user's windows the model
//! accepts — the true positive rate) and the *other-acceptance ratio*
//! `ACCother` (fraction of other users' windows it accepts — the false
//! positive rate). Grid searches maximize the *global acceptance*
//! `ACC = ACCself − ACCother`. The full cross-product of models × test
//! sets is the acceptance confusion matrix of Tab. V.

use crate::profile::UserProfile;
use ocsvm::SparseVector;
use parcore::parallel_map;
use proxylog::UserId;
use std::collections::BTreeMap;
use std::fmt;

/// Fraction of `windows` accepted by `profile` (0.0 for an empty slice).
pub fn acceptance_ratio(profile: &UserProfile, windows: &[SparseVector]) -> f64 {
    if windows.is_empty() {
        return 0.0;
    }
    let accepted = windows.iter().filter(|w| profile.accepts(w)).count();
    accepted as f64 / windows.len() as f64
}

/// [`acceptance_ratio`] over borrowed windows. Grid searches subsample
/// other users' windows by reference, so the shared sample sets never clone
/// feature vectors.
pub fn acceptance_ratio_refs(profile: &UserProfile, windows: &[&SparseVector]) -> f64 {
    if windows.is_empty() {
        return 0.0;
    }
    let accepted = windows.iter().filter(|w| profile.accepts(w)).count();
    accepted as f64 / windows.len() as f64
}

/// Summary acceptance figures averaged over users.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptanceSummary {
    /// Mean self-acceptance ratio (true positive rate), in `[0, 1]`.
    pub acc_self: f64,
    /// Mean other-acceptance ratio (false positive rate), in `[0, 1]`.
    pub acc_other: f64,
}

impl AcceptanceSummary {
    /// Global acceptance `ACC = ACCself − ACCother`.
    pub fn acc(&self) -> f64 {
        self.acc_self - self.acc_other
    }
}

impl fmt::Display for AcceptanceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ACCself={:.1}% ACCother={:.1}% ACC={:.1}%",
            self.acc_self * 100.0,
            self.acc_other * 100.0,
            self.acc() * 100.0
        )
    }
}

/// The acceptance confusion matrix: rows are user models `m_j`, columns are
/// per-user window sets `t_i`; a cell is the fraction of `t_i`'s windows
/// accepted by `m_j` (Tab. V).
///
/// # Examples
///
/// ```no_run
/// use webprofiler::ConfusionMatrix;
/// # fn get() -> (std::collections::BTreeMap<proxylog::UserId, webprofiler::UserProfile>,
/// #     std::collections::BTreeMap<proxylog::UserId, Vec<ocsvm::SparseVector>>) { unimplemented!() }
/// let (profiles, test_windows) = get();
/// let matrix = ConfusionMatrix::compute(&profiles, &test_windows);
/// println!("{matrix}");
/// println!("{}", matrix.summary());
/// ```
#[derive(Debug, Clone)]
pub struct ConfusionMatrix {
    users: Vec<UserId>,
    /// `cells[j][i]` = acceptance of user `i`'s windows by user `j`'s model.
    cells: Vec<Vec<f64>>,
}

impl ConfusionMatrix {
    /// Evaluates every profile against every user's window set. Only users
    /// present in *both* maps are included (rows and columns use the same
    /// user ordering).
    pub fn compute(
        profiles: &BTreeMap<UserId, UserProfile>,
        windows: &BTreeMap<UserId, Vec<SparseVector>>,
    ) -> Self {
        let users: Vec<UserId> =
            profiles.keys().filter(|user| windows.contains_key(user)).copied().collect();
        let cells = parallel_map(&users, |model_user| {
            let profile = &profiles[model_user];
            users
                .iter()
                .map(|test_user| acceptance_ratio(profile, &windows[test_user]))
                .collect::<Vec<f64>>()
        });
        Self { users, cells }
    }

    /// The users covered, in row/column order.
    pub fn users(&self) -> &[UserId] {
        &self.users
    }

    /// Acceptance of user `test`'s windows by user `model`'s profile, or
    /// `None` if either is not covered.
    pub fn cell(&self, model: UserId, test: UserId) -> Option<f64> {
        let j = self.users.iter().position(|&u| u == model)?;
        let i = self.users.iter().position(|&u| u == test)?;
        Some(self.cells[j][i])
    }

    /// Diagonal cell for one user.
    pub fn self_acceptance(&self, user: UserId) -> Option<f64> {
        self.cell(user, user)
    }

    /// Mean of the diagonal (the paper's averaged `ACCself`).
    pub fn mean_self_acceptance(&self) -> f64 {
        if self.users.is_empty() {
            return 0.0;
        }
        let total: f64 = (0..self.users.len()).map(|i| self.cells[i][i]).sum();
        total / self.users.len() as f64
    }

    /// Mean of the off-diagonal cells (the paper's averaged `ACCother`).
    pub fn mean_other_acceptance(&self) -> f64 {
        let n = self.users.len();
        if n <= 1 {
            return 0.0;
        }
        let total: f64 = (0..n)
            .flat_map(|j| (0..n).filter(move |&i| i != j).map(move |i| (j, i)))
            .map(|(j, i)| self.cells[j][i])
            .sum();
        total / (n * (n - 1)) as f64
    }

    /// Both means as a summary.
    pub fn summary(&self) -> AcceptanceSummary {
        AcceptanceSummary {
            acc_self: self.mean_self_acceptance(),
            acc_other: self.mean_other_acceptance(),
        }
    }

    /// For a model row, the test users whose windows it accepts at or above
    /// `threshold` (excluding the model's own user) — the "confusions" the
    /// paper discusses for `m13`.
    pub fn confusions(&self, model: UserId, threshold: f64) -> Vec<(UserId, f64)> {
        let Some(j) = self.users.iter().position(|&u| u == model) else {
            return Vec::new();
        };
        self.users
            .iter()
            .enumerate()
            .filter(|&(i, &u)| i != j && self.cells[j][i] >= threshold && u != model)
            .map(|(i, &u)| (u, self.cells[j][i]))
            .collect()
    }
}

impl fmt::Display for ConfusionMatrix {
    /// Renders in the paper's Tab. V layout (percentages, models as rows).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>6}", "")?;
        for user in &self.users {
            write!(f, " {:>5}", format!("t{}", user.0))?;
        }
        writeln!(f)?;
        for (j, user) in self.users.iter().enumerate() {
            write!(f, "{:>6}", format!("m{}", user.0))?;
            for i in 0..self.users.len() {
                write!(f, " {:>5.1}", self.cells[j][i] * 100.0)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ModelKind;
    use crate::trainer::ProfileTrainer;
    use crate::vocab::Vocabulary;
    use crate::window::WindowConfig;
    use ocsvm::Kernel;
    use proxylog::Taxonomy;

    /// Builds two synthetic users with clearly distinct windows and their
    /// trained profiles.
    fn two_user_fixture() -> (BTreeMap<UserId, UserProfile>, BTreeMap<UserId, Vec<SparseVector>>) {
        let vocab = Vocabulary::new(Taxonomy::paper_scale());
        let make = |base: u32, n: usize| -> Vec<SparseVector> {
            (0..n)
                .map(|i| {
                    SparseVector::from_pairs(vec![
                        (0, 1.0),
                        (7, 0.3 + 0.05 * (i % 7) as f64), // smooth numeric spread
                        (base + (i % 3) as u32, 1.0),
                    ])
                    .unwrap()
                })
                .collect()
        };
        let windows_a = make(20, 30);
        let windows_b = make(400, 30);
        let trainer = ProfileTrainer::new(&vocab)
            .kind(ModelKind::OcSvm)
            .kernel(Kernel::Rbf { gamma: 1.0 })
            .regularization(0.1)
            .window(WindowConfig::PAPER_DEFAULT);
        let mut profiles = BTreeMap::new();
        profiles.insert(UserId(0), trainer.train_from_vectors(UserId(0), &windows_a).unwrap());
        profiles.insert(UserId(1), trainer.train_from_vectors(UserId(1), &windows_b).unwrap());
        let mut windows = BTreeMap::new();
        windows.insert(UserId(0), windows_a);
        windows.insert(UserId(1), windows_b);
        (profiles, windows)
    }

    #[test]
    fn acceptance_ratio_bounds() {
        let (profiles, windows) = two_user_fixture();
        let ratio = acceptance_ratio(&profiles[&UserId(0)], &windows[&UserId(0)]);
        assert!(ratio > 0.8, "self acceptance {ratio}");
        let cross = acceptance_ratio(&profiles[&UserId(0)], &windows[&UserId(1)]);
        assert!(cross < 0.2, "cross acceptance {cross}");
        assert_eq!(acceptance_ratio(&profiles[&UserId(0)], &[]), 0.0);
    }

    #[test]
    fn confusion_matrix_diagonal_dominates() {
        let (profiles, windows) = two_user_fixture();
        let matrix = ConfusionMatrix::compute(&profiles, &windows);
        assert_eq!(matrix.users(), &[UserId(0), UserId(1)]);
        assert!(matrix.self_acceptance(UserId(0)).unwrap() > 0.8);
        assert!(matrix.self_acceptance(UserId(1)).unwrap() > 0.8);
        assert!(matrix.cell(UserId(0), UserId(1)).unwrap() < 0.2);
        let summary = matrix.summary();
        assert!(summary.acc_self > 0.8);
        assert!(summary.acc_other < 0.2);
        assert!(summary.acc() > 0.6);
    }

    #[test]
    fn confusions_lists_high_cells() {
        let (profiles, windows) = two_user_fixture();
        let matrix = ConfusionMatrix::compute(&profiles, &windows);
        assert!(matrix.confusions(UserId(0), 0.5).is_empty());
        let all = matrix.confusions(UserId(0), 0.0);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, UserId(1));
    }

    #[test]
    fn missing_users_return_none() {
        let (profiles, windows) = two_user_fixture();
        let matrix = ConfusionMatrix::compute(&profiles, &windows);
        assert_eq!(matrix.cell(UserId(9), UserId(0)), None);
        assert_eq!(matrix.self_acceptance(UserId(9)), None);
    }

    #[test]
    fn display_renders_percent_table() {
        let (profiles, windows) = two_user_fixture();
        let matrix = ConfusionMatrix::compute(&profiles, &windows);
        let rendered = matrix.to_string();
        assert!(rendered.contains("m0"));
        assert!(rendered.contains("t1"));
    }

    #[test]
    fn summary_display_uses_percent() {
        let s = AcceptanceSummary { acc_self: 0.917, acc_other: 0.073 };
        let text = s.to_string();
        assert!(text.contains("91.7"));
        assert!(text.contains("7.3"));
        assert!((s.acc() - 0.844).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_zeroed() {
        let matrix = ConfusionMatrix::compute(&BTreeMap::new(), &BTreeMap::new());
        assert_eq!(matrix.mean_self_acceptance(), 0.0);
        assert_eq!(matrix.mean_other_acceptance(), 0.0);
    }
}
