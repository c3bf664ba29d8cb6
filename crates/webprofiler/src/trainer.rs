//! Training user profiles from datasets.

use crate::gridsearch::compute_window_sets;
use crate::profile::{ModelKind, ProfileParams, UserProfile};
use crate::vocab::Vocabulary;
use crate::window::{WindowAggregator, WindowConfig};
use ocsvm::{GramMatrix, Kernel, NuOcSvm, SparseVector, Svdd, TrainError};
use parcore::parallel_map;
use proxylog::{Dataset, UserId};
use std::collections::BTreeMap;
use std::fmt;

/// Error training a user profile.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// The user has no transactions (and therefore no windows) in the
    /// dataset.
    NoWindows {
        /// The affected user.
        user: UserId,
    },
    /// The underlying solver rejected the training set or parameters.
    Train(TrainError),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::NoWindows { user } => {
                write!(f, "no transaction windows for {user}")
            }
            ProfileError::Train(e) => write!(f, "training failed: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileError::Train(e) => Some(e),
            ProfileError::NoWindows { .. } => None,
        }
    }
}

impl From<TrainError> for ProfileError {
    fn from(e: TrainError) -> Self {
        ProfileError::Train(e)
    }
}

/// Builder-style trainer producing [`UserProfile`]s.
///
/// Defaults follow the paper's retained window configuration (60 s / 30 s)
/// with the stage-1 model of its grid search: SVDD, linear kernel,
/// `C = 0.5` — a strong out-of-the-box choice on window features. The
/// paper ultimately optimizes the family, kernel and `ν`/`C` per user
/// through [`ModelGridSearch`](crate::ModelGridSearch).
///
/// # Examples
///
/// ```
/// use proxylog::UserId;
/// use tracegen::{Scenario, TraceGenerator};
/// use webprofiler::{ProfileTrainer, Vocabulary};
///
/// let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
/// let vocab = Vocabulary::new(dataset.taxonomy().clone());
/// let user = dataset.users()[0];
/// let profile = ProfileTrainer::new(&vocab).train(&dataset, user)?;
/// assert_eq!(profile.user(), user);
/// # Ok::<(), webprofiler::ProfileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProfileTrainer<'a> {
    vocab: &'a Vocabulary,
    window: WindowConfig,
    params: ProfileParams,
    max_training_windows: Option<usize>,
}

impl<'a> ProfileTrainer<'a> {
    /// Creates a trainer with paper-default windowing and an SVDD /
    /// linear / `C = 0.5` model.
    pub fn new(vocab: &'a Vocabulary) -> Self {
        Self {
            vocab,
            window: WindowConfig::PAPER_DEFAULT,
            params: ProfileParams {
                kind: ModelKind::Svdd,
                kernel: Kernel::Linear,
                regularization: 0.5,
            },
            max_training_windows: None,
        }
    }

    /// Sets the window configuration.
    pub fn window(mut self, window: WindowConfig) -> Self {
        self.window = window;
        self
    }

    /// Sets all hyper-parameters at once.
    pub fn params(mut self, params: ProfileParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the classifier family.
    pub fn kind(mut self, kind: ModelKind) -> Self {
        self.params.kind = kind;
        self
    }

    /// Sets the kernel.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.params.kernel = kernel;
        self
    }

    /// Sets `ν` (OC-SVM) or `C` (SVDD).
    pub fn regularization(mut self, value: f64) -> Self {
        self.params.regularization = value;
        self
    }

    /// Caps the number of training windows; when a user has more, an
    /// evenly spaced subsample is used. Training cost grows quadratically
    /// with window count, so large datasets benefit from a cap in the low
    /// thousands (accuracy saturates well before that).
    pub fn max_training_windows(mut self, max: usize) -> Self {
        self.max_training_windows = Some(max);
        self
    }

    /// The configured window configuration.
    pub fn window_config(&self) -> WindowConfig {
        self.window
    }

    /// Computes the user-specific training windows this trainer would use
    /// (after subsampling), exposing the intermediate result so grid
    /// searches can reuse it across parameter combinations.
    pub fn training_vectors(&self, dataset: &Dataset, user: UserId) -> Vec<SparseVector> {
        let aggregator = WindowAggregator::new(self.vocab, self.window);
        let windows = aggregator.user_windows(dataset, user);
        let mut vectors: Vec<SparseVector> = windows.into_iter().map(|w| w.features).collect();
        if let Some(max) = self.max_training_windows {
            vectors = subsample_evenly(vectors, max);
        }
        vectors
    }

    /// Trains a profile for `user` from `dataset`.
    ///
    /// # Errors
    ///
    /// * [`ProfileError::NoWindows`] when the user has no transactions.
    /// * [`ProfileError::Train`] when the solver rejects the parameters.
    pub fn train(&self, dataset: &Dataset, user: UserId) -> Result<UserProfile, ProfileError> {
        let vectors = self.training_vectors(dataset, user);
        self.train_from_vectors(user, &vectors)
    }

    /// Trains a profile from precomputed window feature vectors.
    ///
    /// # Errors
    ///
    /// Same as [`ProfileTrainer::train`]; `NoWindows` when `vectors` is
    /// empty.
    pub fn train_from_vectors(
        &self,
        user: UserId,
        vectors: &[SparseVector],
    ) -> Result<UserProfile, ProfileError> {
        if vectors.is_empty() {
            return Err(ProfileError::NoWindows { user });
        }
        let model = match self.params.kind {
            ModelKind::OcSvm => {
                NuOcSvm::new(self.params.regularization, self.params.kernel).train(vectors)?
            }
            ModelKind::Svdd => {
                Svdd::new(self.params.regularization, self.params.kernel).train(vectors)?
            }
        };
        Ok(UserProfile {
            user,
            params: self.params,
            window: self.window,
            model,
            training_windows: vectors.len(),
        })
    }

    /// Trains a profile from precomputed window vectors and a precomputed
    /// Gram matrix over exactly those vectors, optionally warm-starting the
    /// solver from the `α` vector of an adjacent regularization's solution;
    /// returns the profile and this solution's full `α`, so the caller can
    /// seed the next value of its ladder.
    ///
    /// Without a seed the profile is numerically identical to
    /// [`train_from_vectors`](Self::train_from_vectors), but the kernel
    /// matrix is not recomputed: the [`ModelGridSearch`](crate::ModelGridSearch)
    /// shares one `GramMatrix` per (user, kernel) across its whole sweep.
    /// Seeding changes the iteration count, not the optimum (the problem is
    /// convex). The trainer's configured kernel must match `gram`'s.
    ///
    /// # Errors
    ///
    /// Same as [`train_from_vectors`](Self::train_from_vectors), plus the
    /// solver's Gram-compatibility errors
    /// ([`TrainError::GramSizeMismatch`], [`TrainError::GramKernelMismatch`])
    /// wrapped in [`ProfileError::Train`].
    pub fn train_from_vectors_seeded(
        &self,
        user: UserId,
        vectors: &[SparseVector],
        gram: &GramMatrix<'_>,
        seed: Option<&[f64]>,
    ) -> Result<(UserProfile, Vec<f64>), ProfileError> {
        if vectors.is_empty() {
            return Err(ProfileError::NoWindows { user });
        }
        let (model, alpha) = match self.params.kind {
            ModelKind::OcSvm => NuOcSvm::new(self.params.regularization, self.params.kernel)
                .train_with_gram_seeded(vectors, gram, seed)?,
            ModelKind::Svdd => Svdd::new(self.params.regularization, self.params.kernel)
                .train_with_gram_seeded(vectors, gram, seed)?,
        };
        let profile = UserProfile {
            user,
            params: self.params,
            window: self.window,
            model,
            training_windows: vectors.len(),
        };
        Ok((profile, alpha))
    }

    /// Trains profiles for every user in the dataset, in parallel.
    ///
    /// Feature extraction fans out per user first, through
    /// [`compute_window_sets`] (so the window aggregation of heavy users
    /// overlaps), then the per-user solvers run in parallel. Users whose training fails are reported in the error
    /// map alongside the successful profiles, so one pathological user
    /// cannot sink a 25-user experiment.
    pub fn train_all(
        &self,
        dataset: &Dataset,
    ) -> (BTreeMap<UserId, UserProfile>, BTreeMap<UserId, ProfileError>) {
        let jobs: Vec<(UserId, Vec<SparseVector>)> =
            compute_window_sets(self.vocab, dataset, self.window, self.max_training_windows)
                .into_iter()
                .collect();
        let results = parallel_map(&jobs, |(user, vectors)| {
            if vectors.is_empty() {
                // `training_vectors` is empty only for users absent from the
                // dataset; `dataset.users()` never yields those, but keep the
                // serial path's error shape for robustness.
                Err(ProfileError::NoWindows { user: *user })
            } else {
                self.train_from_vectors(*user, vectors)
            }
        });
        let mut profiles = BTreeMap::new();
        let mut errors = BTreeMap::new();
        for ((user, _), result) in jobs.iter().zip(results) {
            match result {
                Ok(profile) => {
                    profiles.insert(*user, profile);
                }
                Err(e) => {
                    errors.insert(*user, e);
                }
            }
        }
        (profiles, errors)
    }
}

/// Keeps at most `max` elements, evenly spaced over the input order (which
/// is chronological for windows), always retaining the first element.
pub(crate) fn subsample_evenly<T>(items: Vec<T>, max: usize) -> Vec<T> {
    if items.len() <= max || max == 0 {
        return items;
    }
    let stride = items.len() as f64 / max as f64;
    let mut picked = Vec::with_capacity(max);
    let mut next = 0.0f64;
    for (i, item) in items.into_iter().enumerate() {
        if i as f64 >= next && picked.len() < max {
            picked.push(item);
            next += stride;
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    use tracegen::{Scenario, TraceGenerator};

    fn setup() -> (Dataset, Vocabulary) {
        let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        (dataset, vocab)
    }

    #[test]
    fn trains_a_profile_for_an_active_user() {
        let (dataset, vocab) = setup();
        let user =
            *dataset.user_counts().iter().max_by_key(|&(_, &count)| count).map(|(u, _)| u).unwrap();
        let profile =
            ProfileTrainer::new(&vocab).max_training_windows(400).train(&dataset, user).unwrap();
        assert_eq!(profile.user(), user);
        assert!(profile.training_windows() > 0);
        assert!(profile.support_vector_count() > 0);
    }

    #[test]
    fn unknown_user_yields_no_windows() {
        let (dataset, vocab) = setup();
        let err = ProfileTrainer::new(&vocab).train(&dataset, UserId(999)).unwrap_err();
        assert_eq!(err, ProfileError::NoWindows { user: UserId(999) });
    }

    #[test]
    fn invalid_regularization_propagates_solver_error() {
        let (dataset, vocab) = setup();
        let user = dataset.users()[0];
        let err = ProfileTrainer::new(&vocab)
            .kind(ModelKind::OcSvm)
            .regularization(2.0) // nu > 1 is invalid for OC-SVM
            .max_training_windows(50)
            .train(&dataset, user)
            .unwrap_err();
        assert!(matches!(err, ProfileError::Train(TrainError::InvalidNu { .. })));
    }

    #[test]
    fn svdd_and_ocsvm_both_train() {
        let (dataset, vocab) = setup();
        let user =
            *dataset.user_counts().iter().max_by_key(|&(_, &count)| count).map(|(u, _)| u).unwrap();
        for kind in ModelKind::ALL {
            let profile = ProfileTrainer::new(&vocab)
                .kind(kind)
                .regularization(0.5)
                .max_training_windows(200)
                .train(&dataset, user)
                .unwrap();
            assert_eq!(profile.params().kind, kind);
        }
    }

    #[test]
    fn profile_accepts_own_training_windows_mostly() {
        let (dataset, vocab) = setup();
        let user =
            *dataset.user_counts().iter().max_by_key(|&(_, &count)| count).map(|(u, _)| u).unwrap();
        let trainer = ProfileTrainer::new(&vocab).regularization(0.1).max_training_windows(300);
        let vectors = trainer.training_vectors(&dataset, user);
        let profile = trainer.train_from_vectors(user, &vectors).unwrap();
        let accepted = vectors.iter().filter(|v| profile.accepts(v)).count();
        assert!(
            accepted as f64 >= 0.8 * vectors.len() as f64,
            "accepted {accepted}/{}",
            vectors.len()
        );
    }

    #[test]
    fn train_all_covers_all_users() {
        let (dataset, vocab) = setup();
        let (profiles, errors) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        assert_eq!(profiles.len() + errors.len(), dataset.users().len());
        assert!(!profiles.is_empty());
        for (user, profile) in &profiles {
            assert_eq!(profile.user(), *user);
        }
    }

    #[test]
    fn subsample_keeps_order_and_bounds() {
        let items: Vec<u32> = (0..100).collect();
        let sampled = subsample_evenly(items.clone(), 10);
        assert_eq!(sampled.len(), 10);
        assert_eq!(sampled[0], 0);
        assert!(sampled.windows(2).all(|w| w[0] < w[1]));
        // No-op when under the cap.
        assert_eq!(subsample_evenly(items.clone(), 1000), items);
    }

    #[test]
    fn training_vectors_respect_cap() {
        let (dataset, vocab) = setup();
        let user =
            *dataset.user_counts().iter().max_by_key(|&(_, &count)| count).map(|(u, _)| u).unwrap();
        let trainer = ProfileTrainer::new(&vocab).max_training_windows(37);
        assert!(trainer.training_vectors(&dataset, user).len() <= 37);
    }
}
