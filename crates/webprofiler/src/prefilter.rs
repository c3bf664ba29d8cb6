//! Candidate prefiltering for two-stage identification.
//!
//! Exhaustive identification scores every closed window against every
//! enrolled profile — O(users) exact decisions per window. This module
//! provides the cheap first stage of a two-stage path that decides every
//! window exactly as exhaustive scoring does, for every kernel:
//!
//! 1. **Bound** — every profile exports, once at index build time, an
//!    [`ocsvm::DecisionBound`]: a sound upper bound on its decision value
//!    that reads a window `x` only through `⟨x, p⟩` and `T = ⟨x, m⟩` for
//!    two per-profile vectors. Features, support vectors and multipliers
//!    are non-negative and `Σα = 1`, so each `tᵢ = ⟨x, svᵢ⟩` lies in
//!    `[0, T]`, `m` being the column-wise maximum of the support vectors.
//!    Linear profiles carry their exact affine terms; RBF profiles the
//!    chord bound of the convex `e^{2γt}`,
//!    `s ≤ e^{−γ‖x‖²}·(A + (e^{2γT} − 1)/T·⟨x, u⟩)` with `A = Σαᵢwᵢ`,
//!    `u = Σαᵢwᵢsvᵢ`, `wᵢ = e^{−γ‖svᵢ‖²}`; polynomial profiles (γ, coef0
//!    ≥ 0) the same chord over `c = Σαᵢsvᵢ`; sigmoid profiles (γ, coef0 ≥
//!    0) Jensen's `s ≤ Σα·tanh(γ⟨x, c⟩/Σα + coef0)`. Both the OC-SVM and
//!    the SVDD decision rise with the kernel sum `s`, so one bound serves
//!    both families.
//! 2. **Index** — the [`CandidateIndex`] inverts those per-profile vectors
//!    into per-column postings.
//! 3. **Shortlist** — per window, walking only the window's non-zero
//!    columns accumulates every profile's inner products in
//!    O(Σ postings + users), and a slot goes on the shortlist exactly when
//!    its bound clears a tiny negative margin sized for floating-point
//!    association ([`ocsvm::DecisionBound::admits`]). An accepted user
//!    (exact decision `≥ 0`) is never pruned, so rerunning the exact
//!    scorer on the shortlist is bit-identical to exhaustive scoring.
//!
//! A profile outside the proven domain (a negative support-vector entry
//! or multiplier, `γ < 0`, `coef0 < 0`, an exponent past about ±700) is
//! always shortlisted, and so is every profile for a window with a
//! negative entry: profiles can come from files, so the domain is checked
//! rather than assumed.
//!
//! Measured on a 48-user corpus (`Scenario::scaled(48, 24, 16)`, ν-OC-SVM
//! profiles, 27,401 replayed windows), the bound keeps 3.16 slots per
//! window against 3.08 accepted for all-RBF profiles, 6.30 against 5.76
//! for a grid-search-selected mixed population, 9.59 against 9.59 for
//! all-sigmoid and 16.24 against 2.26 for all-polynomial, with no accepted
//! pair missed. A single ball around each profile's support vectors
//! (`k ≤ e^{−γ·max(0, ‖x − c‖ − r)²}`) pruned nothing there: it kept 48 of
//! 48 slots, because `γ = 1/843` puts every RBF value near 1.

use crate::profile::UserProfile;
use crate::vocab::Vocabulary;
use ocsvm::{DecisionBound, SparseVector};
use proxylog::UserId;
use std::collections::BTreeMap;

/// One profile's entry in a column's postings: its [`DecisionBound`]
/// weight and extent in that column.
#[derive(Debug, Clone, Copy)]
struct Posting {
    slot: u32,
    weight: f64,
    extent: f64,
}

/// Inverted candidate index over an enrolled profile population: per-user
/// [`DecisionBound`]s whose weight and extent vectors are inverted into
/// column-major postings, supporting exact shortlisting of candidate users
/// per window (see the module docs for the two-stage pipeline).
///
/// Users occupy *slots* `0..len()` in ascending [`UserId`] order (the
/// iteration order of the profile map), so a shortlist sorted by slot is
/// sorted by user.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    users: Vec<UserId>,
    /// Each slot's bound, its weight and extent vectors moved into the
    /// postings.
    bounds: Vec<DecisionBound>,
    /// Per-column postings, slot-ascending.
    postings: Vec<Vec<Posting>>,
}

/// Reusable per-user scratch of [`CandidateIndex::shortlist`]; allocate
/// once per scoring loop, not per window.
#[derive(Debug, Default)]
pub struct ShortlistScratch {
    /// Per slot: `⟨x, weights⟩`, `Σ|weights_c·x_c|` and `⟨x, extent⟩`.
    sums: Vec<[f64; 3]>,
}

impl CandidateIndex {
    /// Builds the index from an enrolled population (one pass over the
    /// profiles; call once, reuse for every window).
    pub fn build(profiles: &BTreeMap<UserId, UserProfile>, vocab: &Vocabulary) -> Self {
        let n_features = vocab.n_features();
        let mut users = Vec::with_capacity(profiles.len());
        let mut bounds = Vec::with_capacity(profiles.len());
        let mut postings: Vec<Vec<Posting>> = vec![Vec::new(); n_features];
        for (slot, (&user, profile)) in profiles.iter().enumerate() {
            let slot = slot as u32;
            let mut bound = profile.decision_bound();
            let weights = std::mem::take(&mut bound.weights);
            let extent = std::mem::take(&mut bound.extent);
            // Profiles can come from files trained over another
            // vocabulary: a column past this one still bounds the profile.
            let widest = weights.dimension_lower_bound().max(extent.dimension_lower_bound());
            if widest > postings.len() {
                postings.resize(widest, Vec::new());
            }
            for (column, weight) in weights.iter() {
                postings[column as usize].push(Posting { slot, weight, extent: 0.0 });
            }
            for (column, extent) in extent.iter() {
                let list = &mut postings[column as usize];
                match list.last_mut() {
                    Some(last) if last.slot == slot => last.extent = extent,
                    _ => list.push(Posting { slot, weight: 0.0, extent }),
                }
            }
            users.push(user);
            bounds.push(bound);
        }
        Self { users, bounds, postings }
    }

    /// Enrolled users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The user in `slot` (ascending by slot).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()`.
    pub fn user_at(&self, slot: u32) -> UserId {
        self.users[slot as usize]
    }

    /// Candidate slots for one window, ascending by slot: exactly the
    /// slots whose [`DecisionBound`] admits the window, so every user whose
    /// exact decision is `≥ 0` is on the list (see the module docs). A
    /// window with a negative (or NaN) entry is outside every bound's
    /// domain and shortlists every slot.
    ///
    /// `_top_k` is a compatibility shim: the shortlist used to be a top-k
    /// heuristic, and the argument is still accepted so existing callers
    /// build, but nothing reads it. `scratch` is caller-provided per-user
    /// scratch so a scoring loop allocates once, not per window.
    pub fn shortlist(
        &self,
        features: &SparseVector,
        _top_k: usize,
        scratch: &mut ShortlistScratch,
    ) -> Vec<u32> {
        let n = self.users.len();
        if features.iter().any(|(_, value)| value.is_nan() || value < 0.0) {
            return (0..n as u32).collect();
        }
        let sums = &mut scratch.sums;
        sums.clear();
        sums.resize(n, [0.0; 3]);
        for (column, value) in features.iter() {
            for posting in self.postings.get(column as usize).into_iter().flatten() {
                let [dot, magnitude, extent] = &mut sums[posting.slot as usize];
                let term = posting.weight * value;
                *dot += term;
                *magnitude += term.abs();
                *extent += posting.extent * value;
            }
        }
        let norm = features.squared_norm();
        let admitted =
            self.bounds.iter().zip(sums.iter()).map(|(bound, &[dot, magnitude, extent])| {
                bound.admits(dot, magnitude, extent, norm)
            });
        (0..n as u32).zip(admitted).filter(|&(_, admits)| admits).map(|(slot, _)| slot).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ModelKind;
    use crate::trainer::ProfileTrainer;
    use ocsvm::Kernel;
    use proxylog::Taxonomy;

    fn vectors(seed: u64, n: usize) -> Vec<SparseVector> {
        (0..n)
            .map(|i| {
                let base = (seed * 7 + 1) as u32 % 800;
                SparseVector::from_pairs(vec![
                    (base, 0.8 + 0.01 * (i % 5) as f64),
                    (base + 3, 1.0),
                    (base + 9, 0.4 + 0.02 * (i % 3) as f64),
                ])
                .unwrap()
            })
            .collect()
    }

    fn population(
        kind: ModelKind,
        kernel: Kernel,
        n_users: usize,
    ) -> (BTreeMap<UserId, UserProfile>, Vocabulary) {
        let vocab = Vocabulary::new(Taxonomy::paper_scale());
        let trainer = ProfileTrainer::new(&vocab).kind(kind).kernel(kernel).regularization(0.5);
        let profiles = (0..n_users)
            .map(|u| {
                let user = UserId(u as u32);
                (user, trainer.train_from_vectors(user, &vectors(u as u64, 12)).unwrap())
            })
            .collect();
        (profiles, vocab)
    }

    /// Every probe of every user, plus the empty probe and one straddling
    /// two users' columns.
    fn probes(n_users: u64) -> Vec<SparseVector> {
        let mut probes: Vec<SparseVector> = (0..n_users).flat_map(|u| vectors(u, 4)).collect();
        probes.push(SparseVector::new());
        let (a, b) = (&vectors(1, 1)[0], &vectors(2, 1)[0]);
        let mut straddle: Vec<(u32, f64)> = a.iter().chain(b.iter()).collect();
        straddle.sort_by_key(|&(column, _)| column);
        probes.push(SparseVector::from_pairs(straddle).unwrap());
        probes
    }

    fn assert_keeps_accepted(profiles: &BTreeMap<UserId, UserProfile>, index: &CandidateIndex) {
        let mut scratch = ShortlistScratch::default();
        for probe in probes(profiles.len() as u64) {
            let shortlist = index.shortlist(&probe, 1, &mut scratch);
            for (&user, profile) in profiles {
                if profile.accepts(&probe) {
                    assert!(
                        shortlist.iter().any(|&slot| index.user_at(slot) == user),
                        "accepted {user:?} pruned ({shortlist:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn shortlist_ignores_the_top_k_shim() {
        let (profiles, vocab) = population(ModelKind::Svdd, Kernel::Linear, 5);
        let index = CandidateIndex::build(&profiles, &vocab);
        assert_eq!(index.len(), 5);
        let mut scores = ShortlistScratch::default();
        let window = &vectors(2, 1)[0];
        let shortlist = index.shortlist(window, 16, &mut scores);
        assert!(shortlist.contains(&2));
        for top_k in [0, 1, 5, 100] {
            assert_eq!(index.shortlist(window, top_k, &mut scores), shortlist);
        }
    }

    #[test]
    fn linear_shortlist_contains_every_accepted_user() {
        // The exactness guarantee behind the two-stage equivalence: the
        // affine terms are each linear user's exact decision up to
        // floating-point association, which the margin guard absorbs.
        let (profiles, vocab) = population(ModelKind::Svdd, Kernel::Linear, 12);
        let index = CandidateIndex::build(&profiles, &vocab);
        assert_keeps_accepted(&profiles, &index);
    }

    #[test]
    fn margin_guard_keeps_accepted_users_even_at_k_one() {
        for kind in ModelKind::ALL {
            let (profiles, vocab) = population(kind, Kernel::Linear, 12);
            assert_keeps_accepted(&profiles, &CandidateIndex::build(&profiles, &vocab));
        }
    }

    #[test]
    fn nonlinear_shortlists_keep_every_accepted_user_and_prune_the_rest() {
        for kind in ModelKind::ALL {
            for kernel in [
                Kernel::Rbf { gamma: 0.5 },
                Kernel::Polynomial { gamma: 0.3, coef0: 1.0, degree: 3 },
                Kernel::Sigmoid { gamma: 0.2, coef0: 0.1 },
            ] {
                let (profiles, vocab) = population(kind, kernel, 12);
                let index = CandidateIndex::build(&profiles, &vocab);
                assert_keeps_accepted(&profiles, &index);
                // A probe from one user's columns clears no other bound.
                let mut scratch = ShortlistScratch::default();
                let shortlist = index.shortlist(&vectors(3, 1)[0], 1, &mut scratch);
                assert!(shortlist.iter().all(|&slot| slot == 3), "{kind} {kernel}: {shortlist:?}");
            }
        }
    }

    #[test]
    fn out_of_domain_profiles_and_windows_shortlist_everyone() {
        let mut scratch = ShortlistScratch::default();
        // A negative coef0 leaves the sigmoid concave nowhere provable.
        let (profiles, vocab) =
            population(ModelKind::OcSvm, Kernel::Sigmoid { gamma: 0.2, coef0: -0.5 }, 6);
        let index = CandidateIndex::build(&profiles, &vocab);
        assert_eq!(index.shortlist(&vectors(3, 1)[0], 1, &mut scratch), (0..6).collect::<Vec<_>>());
        // A window with a negative entry is outside every bound's domain.
        let (profiles, vocab) = population(ModelKind::Svdd, Kernel::Rbf { gamma: 0.5 }, 6);
        let index = CandidateIndex::build(&profiles, &vocab);
        let negative = SparseVector::from_pairs(vec![(22, 1.0), (700, -0.5)]).unwrap();
        assert_eq!(index.shortlist(&negative, 1, &mut scratch), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn columns_past_the_vocabulary_still_bound_their_profiles() {
        let vocab = Vocabulary::new(Taxonomy::paper_scale());
        let shifted = |u: u64| -> Vec<SparseVector> {
            let offset = vocab.n_features() as u32;
            vectors(u, 6)
                .iter()
                .map(|v| {
                    SparseVector::from_pairs(v.iter().map(|(c, x)| (c + offset, x)).collect())
                        .unwrap()
                })
                .collect()
        };
        let trainer = ProfileTrainer::new(&vocab).kernel(Kernel::Rbf { gamma: 0.5 });
        let profiles: BTreeMap<UserId, UserProfile> = (0..4u64)
            .map(|u| {
                (
                    UserId(u as u32),
                    trainer.train_from_vectors(UserId(u as u32), &shifted(u)).unwrap(),
                )
            })
            .collect();
        let index = CandidateIndex::build(&profiles, &vocab);
        let mut scratch = ShortlistScratch::default();
        for u in 0..4u64 {
            for probe in shifted(u) {
                let shortlist = index.shortlist(&probe, 1, &mut scratch);
                for (&user, profile) in &profiles {
                    assert!(!profile.accepts(&probe) || shortlist.contains(&user.0), "{user:?}");
                }
            }
        }
    }

    #[test]
    fn shortlist_is_deterministic_and_slot_sorted() {
        let (profiles, vocab) = population(ModelKind::Svdd, Kernel::Linear, 9);
        let index = CandidateIndex::build(&profiles, &vocab);
        let probe = &vectors(4, 1)[0];
        let mut scores = ShortlistScratch::default();
        let a = index.shortlist(probe, 4, &mut scores);
        let b = index.shortlist(probe, 4, &mut scores);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "slots not ascending: {a:?}");
    }
}
