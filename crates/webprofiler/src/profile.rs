//! User profiles: one trained one-class model per user.

use ocsvm::{Boundary, Kernel, OneClassModel, ProbePanel, SparseVector, TrainDiagnostics};
use proxylog::UserId;
use std::fmt;

use crate::window::WindowConfig;

/// Which one-class classifier family a profile uses (the paper evaluates
/// both throughout Sect. V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ModelKind {
    /// ν-One-Class SVM (Sect. II-A).
    OcSvm,
    /// Support Vector Data Description (Sect. II-B).
    Svdd,
}

impl ModelKind {
    /// Both families.
    pub const ALL: [ModelKind; 2] = [ModelKind::OcSvm, ModelKind::Svdd];
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelKind::OcSvm => write!(f, "OC-SVM"),
            ModelKind::Svdd => write!(f, "SVDD"),
        }
    }
}

/// Hyper-parameters of one profile: the classifier family, its kernel, and
/// the regularization value (`ν` for OC-SVM, `C` for SVDD; the two are
/// related by `C = 1/(νl)`).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ProfileParams {
    /// Classifier family.
    pub kind: ModelKind,
    /// Kernel function.
    pub kernel: Kernel,
    /// `ν` (OC-SVM) or `C` (SVDD).
    pub regularization: f64,
}

impl fmt::Display for ProfileParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let param = match self.kind {
            ModelKind::OcSvm => "nu",
            ModelKind::Svdd => "C",
        };
        write!(f, "{} {} {param}={}", self.kind, self.kernel, self.regularization)
    }
}

/// A trained profile of one user: apply it to transaction-window feature
/// vectors with [`UserProfile::accepts`].
///
/// Built by [`ProfileTrainer`](crate::ProfileTrainer).
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct UserProfile {
    pub(crate) user: UserId,
    pub(crate) params: ProfileParams,
    pub(crate) window: WindowConfig,
    pub(crate) model: OneClassModel,
    pub(crate) training_windows: usize,
}

impl UserProfile {
    /// The user this profile models.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The hyper-parameters the profile was trained with.
    pub fn params(&self) -> ProfileParams {
        self.params
    }

    /// The window configuration the profile expects its inputs to use.
    pub fn window_config(&self) -> WindowConfig {
        self.window
    }

    /// Number of window feature vectors used for training.
    pub fn training_windows(&self) -> usize {
        self.training_windows
    }

    /// Signed decision value for a window feature vector (`>= 0` accepts).
    pub fn decision_value(&self, features: &SparseVector) -> f64 {
        self.model.decision_value(features)
    }

    /// Whether the profile accepts the window as behavior of its user.
    pub fn accepts(&self, features: &SparseVector) -> bool {
        self.model.accepts(features)
    }

    /// Decision values for a whole window micro-batch, amortizing kernel
    /// work across the batch (see [`OneClassModel::batch_decision_values`]):
    /// non-linear kernels evaluate one kernel row per support vector
    /// against the packed windows, the linear kernel runs one dense-weight
    /// pass. Every value is bit-identical to
    /// [`decision_value`](Self::decision_value) on the same window, and the
    /// path works for deserialized profiles too.
    pub fn batch_decision_values(&self, features: &[&SparseVector]) -> Vec<f64> {
        self.model.batch_decision_values(features)
    }

    /// Decision values for every window of an already-packed panel (see
    /// [`OneClassModel::panel_decision_values`]), bit-identical to
    /// [`decision_value`](Self::decision_value) per window. Scoring one
    /// batch against many profiles packs the batch once and calls this per
    /// profile.
    pub fn panel_decision_values(&self, panel: &ProbePanel) -> Vec<f64> {
        self.model.panel_decision_values(panel)
    }

    /// Support-vector count of the underlying model.
    pub fn support_vector_count(&self) -> usize {
        self.model.support_vector_count()
    }

    /// A sound upper bound on the profile's decision value — the export
    /// the candidate prefilter indexes (see
    /// [`CandidateIndex`](crate::CandidateIndex) and
    /// [`ocsvm::DecisionBound`]).
    pub fn decision_bound(&self) -> ocsvm::DecisionBound {
        self.model.decision_bound()
    }

    /// Solver diagnostics recorded at training time.
    pub fn diagnostics(&self) -> TrainDiagnostics {
        self.model.diagnostics()
    }

    /// Decision values over the profile's training set, read from the
    /// shared [`ocsvm::GramMatrix`] the profile was trained with (see
    /// [`OneClassModel::training_decision_values`]). `None` when the rows
    /// do not match or the model was deserialized.
    pub(crate) fn training_decision_values(&self, gram: &ocsvm::GramMatrix) -> Option<Vec<f64>> {
        self.model.training_decision_values(gram)
    }

    /// Acceptance of every window of the panel outside `skip`, with the
    /// windows the decision bound left to exact scoring (see
    /// [`OneClassModel::panel_acceptance_counted`]).
    pub(crate) fn panel_acceptance_counted(
        &self,
        panel: &ProbePanel,
        skip: std::ops::Range<usize>,
    ) -> (Vec<bool>, Option<usize>) {
        self.model.panel_acceptance_counted(panel, skip)
    }

    /// Forwards to [`batch_decision_values`](Self::batch_decision_values)
    /// and never touches `arena` or `owner`.
    ///
    /// Kept only so existing callers still build: scoring used to charge
    /// non-linear kernel rows to the arena, but a fresh probe batch never
    /// reuses a row, so the cache only cost memory; the arena itself is now
    /// an inert placeholder ([`ocsvm::KernelRowArena`]). Call
    /// [`batch_decision_values`](Self::batch_decision_values) instead.
    pub fn batch_decision_values_in(
        &self,
        features: &[&SparseVector],
        _arena: &std::sync::Arc<ocsvm::KernelRowArena>,
        _owner: u64,
    ) -> Vec<f64> {
        self.batch_decision_values(features)
    }
}

impl UserProfile {
    /// Serializes the profile (metadata + underlying model) in a
    /// self-contained binary format, so profiles can be trained offline
    /// and loaded by a monitoring deployment.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: std::io::Write>(&self, writer: &mut W) -> std::io::Result<()> {
        writer.write_all(b"WPRF\x01")?;
        let kind_tag: u8 = match self.params.kind {
            ModelKind::OcSvm => 0,
            ModelKind::Svdd => 1,
        };
        writer.write_all(&[kind_tag])?;
        write_varint(writer, u64::from(self.user.0))?;
        write_varint(writer, u64::from(self.window.duration_secs()))?;
        write_varint(writer, u64::from(self.window.shift_secs()))?;
        write_varint(writer, self.training_windows as u64)?;
        writer.write_all(&self.params.regularization.to_le_bytes())?;
        self.model.write_to(writer)
    }

    /// Deserializes a profile written by [`UserProfile::write_to`].
    ///
    /// # Errors
    ///
    /// `InvalidData` for a bad header, a corrupt stream, or a header whose
    /// model kind disagrees with the stored model's boundary; other I/O
    /// errors from the reader.
    pub fn read_from<R: std::io::Read>(reader: &mut R) -> std::io::Result<UserProfile> {
        use std::io::{Error, ErrorKind};
        let mut header = [0u8; 6];
        reader.read_exact(&mut header)?;
        if &header[0..4] != b"WPRF" {
            return Err(Error::new(ErrorKind::InvalidData, "bad magic, not a WPRF profile"));
        }
        if header[4] != 1 {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!("unsupported profile version {}", header[4]),
            ));
        }
        let kind = match header[5] {
            0 => ModelKind::OcSvm,
            1 => ModelKind::Svdd,
            other => {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("unknown model kind {other}"),
                ))
            }
        };
        let user = UserId(read_varint(reader)? as u32);
        let duration = read_varint(reader)? as u32;
        let shift = read_varint(reader)? as u32;
        let training_windows = read_varint(reader)? as usize;
        let mut reg = [0u8; 8];
        reader.read_exact(&mut reg)?;
        let regularization = f64::from_le_bytes(reg);
        let window = WindowConfig::new(duration, shift)
            .map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()))?;
        let model = OneClassModel::read_from(reader)?;
        let stored = match model.boundary() {
            Boundary::Hyperplane { .. } => ModelKind::OcSvm,
            Boundary::Sphere { .. } => ModelKind::Svdd,
        };
        if stored != kind {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!(
                    "model kind mismatch: profile header says {kind}, stored model is {stored}"
                ),
            ));
        }
        Ok(UserProfile {
            user,
            params: ProfileParams { kind, kernel: model.kernel(), regularization },
            window,
            model,
            training_windows,
        })
    }
}

fn write_varint<W: std::io::Write>(writer: &mut W, mut value: u64) -> std::io::Result<()> {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            return writer.write_all(&[byte]);
        }
        writer.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: std::io::Read>(reader: &mut R) -> std::io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "varint overflow"));
        }
        value |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

impl fmt::Display for UserProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "profile({}, {}, {}, {} windows, {} SVs)",
            self.user,
            self.params,
            self.window,
            self.training_windows,
            self.support_vector_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::ProfileTrainer;
    use crate::vocab::Vocabulary;
    use proxylog::Taxonomy;

    fn trained(kind: ModelKind, kernel: Kernel) -> (UserProfile, Vec<SparseVector>) {
        let vocab = Vocabulary::new(Taxonomy::paper_scale());
        let windows: Vec<SparseVector> = (0..30)
            .map(|i| {
                SparseVector::from_pairs(vec![
                    (0, 1.0),
                    (7, 0.2 + 0.05 * (i % 4) as f64),
                    (20 + (i % 3), 1.0),
                ])
                .unwrap()
            })
            .collect();
        let profile = ProfileTrainer::new(&vocab)
            .kind(kind)
            .kernel(kernel)
            .regularization(0.3)
            .train_from_vectors(UserId(9), &windows)
            .unwrap();
        (profile, windows)
    }

    #[test]
    fn profile_round_trips_through_binary_format() {
        for kind in ModelKind::ALL {
            let (profile, windows) = trained(kind, Kernel::Linear);
            let mut bytes = Vec::new();
            profile.write_to(&mut bytes).unwrap();
            let loaded = UserProfile::read_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(loaded.user(), profile.user());
            assert_eq!(loaded.params(), profile.params());
            assert_eq!(loaded.window_config(), profile.window_config());
            assert_eq!(loaded.training_windows(), profile.training_windows());
            for w in &windows {
                assert_eq!(loaded.decision_value(w), profile.decision_value(w), "{kind}");
            }
        }
    }

    #[test]
    fn arena_shim_scores_like_the_plain_batch_path_and_leaves_the_arena_untouched() {
        let arena = ocsvm::KernelRowArena::with_budget(1 << 20);
        for kind in ModelKind::ALL {
            // RBF, so the scored models have support-vector rows to cache.
            let (profile, windows) = trained(kind, Kernel::Rbf { gamma: 0.5 });
            let probes: Vec<&SparseVector> = windows.iter().collect();
            let plain = profile.batch_decision_values(&probes);
            let shim = profile.batch_decision_values_in(&probes, &arena, 9);
            let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&shim), bits(&plain), "{kind}");
        }
    }

    #[test]
    fn profile_rejects_garbage() {
        assert!(UserProfile::read_from(&mut &b"NOPE\x01\x00rest"[..]).is_err());
        let (profile, _) = trained(ModelKind::Svdd, Kernel::Linear);
        let mut bytes = Vec::new();
        profile.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() - 5);
        assert!(UserProfile::read_from(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        // A WPRF header saying OC-SVM around the OCSV bytes of an SVDD model.
        let (svdd, _) = trained(ModelKind::Svdd, Kernel::Linear);
        let mut bytes = Vec::new();
        svdd.write_to(&mut bytes).unwrap();
        assert_eq!(bytes[5], 1, "WPRF kind byte");
        bytes[5] = 0;
        let err = UserProfile::read_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("model kind mismatch"), "{err}");
    }

    #[test]
    fn model_kind_displays() {
        assert_eq!(ModelKind::OcSvm.to_string(), "OC-SVM");
        assert_eq!(ModelKind::Svdd.to_string(), "SVDD");
    }

    #[test]
    fn params_display_names_parameter() {
        let p =
            ProfileParams { kind: ModelKind::Svdd, kernel: Kernel::Linear, regularization: 0.4 };
        assert!(p.to_string().contains("C=0.4"));
        let p = ProfileParams { kind: ModelKind::OcSvm, ..p };
        assert!(p.to_string().contains("nu=0.4"));
    }
}
