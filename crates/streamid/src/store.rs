//! Persisted profile directories.
//!
//! A monitoring deployment trains profiles offline and ships them to the
//! streaming engine as a directory of `user_<id>.profile` files (the
//! [`webprofiler::UserProfile`] binary format). Since ocsvm persist v2
//! keeps each model's support-vector training indices, reloaded profiles
//! score through the same shared-row fast paths as freshly trained ones.

use proxylog::UserId;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Error, ErrorKind};
use std::path::{Path, PathBuf};
use webprofiler::UserProfile;

/// One profile file a [`ModelStore`] load could not use, and why.
#[derive(Debug)]
pub struct LoadIssue {
    /// The offending `*.profile` file.
    pub path: PathBuf,
    /// What went wrong opening or decoding it.
    pub error: Error,
}

impl fmt::Display for LoadIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.error)
    }
}

/// Structured load failure: *every* unreadable, corrupt, or duplicate
/// profile file in the store, not just the first one encountered.
///
/// [`ModelStore::load`] wraps this in the [`io::Error`] it returns (as the
/// error's source), so callers that only print get the full list, while a
/// daemon that wants to start degraded uses
/// [`ModelStore::load_lossy`] to obtain the loadable subset alongside the
/// same issue list.
#[derive(Debug)]
pub struct StoreLoadError {
    /// Every file that failed, in path order.
    pub issues: Vec<LoadIssue>,
}

impl fmt::Display for StoreLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} profile file(s) failed to load", self.issues.len())?;
        for issue in &self.issues {
            write!(f, "\n  {issue}")?;
        }
        Ok(())
    }
}

impl std::error::Error for StoreLoadError {}

/// A directory of persisted user profiles, one `user_<id>.profile` file
/// per user.
#[derive(Debug, Clone)]
pub struct ModelStore {
    dir: PathBuf,
}

impl ModelStore {
    /// Points the store at a directory (created lazily on
    /// [`save`](Self::save)).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The directory backing the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes every profile into the store, returning how many were
    /// written. Existing files for the same users are replaced.
    ///
    /// Each profile is written to `user_<id>.profile.tmp`, flushed and
    /// synced, then renamed over `user_<id>.profile`, and the directory is
    /// synced once at the end: a crash leaves every profile file either
    /// old or new, never half-written. A leftover `.tmp` file is not a
    /// `.profile` file, so loads ignore it.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file I/O errors, including the
    /// final flush of each file; the failed profile's `.tmp` file is
    /// removed.
    pub fn save(&self, profiles: &BTreeMap<UserId, UserProfile>) -> io::Result<usize> {
        fs::create_dir_all(&self.dir)?;
        for (user, profile) in profiles {
            let path = self.profile_path(*user);
            let tmp = path.with_extension("profile.tmp");
            let written = write_synced(&tmp, profile).and_then(|()| fs::rename(&tmp, &path));
            if let Err(error) = written {
                let _ = fs::remove_file(&tmp);
                return Err(error);
            }
        }
        // Make the renames durable. Only Unix can open a directory as a
        // file to sync it.
        #[cfg(unix)]
        File::open(&self.dir)?.sync_all()?;
        Ok(profiles.len())
    }

    /// Loads every `*.profile` file in the store, keyed by the profiled
    /// user recorded *inside* each file (file names are a convention, not
    /// trusted).
    ///
    /// # Errors
    ///
    /// `InvalidData` wrapping a [`StoreLoadError`] that lists **all**
    /// unreadable/corrupt/duplicate files (not just the first), so an
    /// operator sees the complete damage in one pass; other I/O errors
    /// from scanning the directory itself.
    pub fn load(&self) -> io::Result<BTreeMap<UserId, UserProfile>> {
        let (profiles, issues) = self.load_lossy()?;
        if issues.is_empty() {
            Ok(profiles)
        } else {
            Err(Error::new(ErrorKind::InvalidData, StoreLoadError { issues }))
        }
    }

    /// Degraded-start variant of [`load`](Self::load): returns every
    /// profile that *could* be loaded together with a [`LoadIssue`] per
    /// file that could not — a daemon can come up serving the loadable
    /// subset and report the rest instead of refusing to start.
    ///
    /// Files are visited in path order, so which duplicate wins is
    /// deterministic (the first file, ascending by name; later files for
    /// the same user become issues).
    ///
    /// # Errors
    ///
    /// Only directory-scan failures (e.g. the store directory does not
    /// exist); per-file problems are returned as issues, never errors.
    pub fn load_lossy(&self) -> io::Result<(BTreeMap<UserId, UserProfile>, Vec<LoadIssue>)> {
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .map(|entry| entry.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        paths.sort();
        let mut profiles = BTreeMap::new();
        let mut issues = Vec::new();
        for path in paths {
            if path.extension().and_then(|e| e.to_str()) != Some("profile") {
                continue;
            }
            let profile = File::open(&path)
                .and_then(|file| UserProfile::read_from(&mut BufReader::new(file)));
            match profile {
                Ok(profile) => match profiles.entry(profile.user()) {
                    Entry::Occupied(existing) => issues.push(LoadIssue {
                        path,
                        error: Error::new(
                            ErrorKind::InvalidData,
                            format!("duplicate profile for user {:?}", existing.key()),
                        ),
                    }),
                    Entry::Vacant(slot) => {
                        slot.insert(profile);
                    }
                },
                Err(error) => issues.push(LoadIssue { path, error }),
            }
        }
        Ok((profiles, issues))
    }

    fn profile_path(&self, user: UserId) -> PathBuf {
        self.dir.join(format!("user_{}.profile", user.0))
    }
}

/// Writes `profile` to a fresh file at `path`, surfacing the final flush's
/// error, and syncs the file's data to disk.
fn write_synced(path: &Path, profile: &UserProfile) -> io::Result<()> {
    let mut writer = BufWriter::new(File::create(path)?);
    profile.write_to(&mut writer)?;
    writer.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::{Scenario, TraceGenerator};
    use webprofiler::{ProfileTrainer, Vocabulary, WindowAggregator, WindowConfig};

    fn temp_store(tag: &str) -> ModelStore {
        let dir = std::env::temp_dir().join(format!("streamid-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ModelStore::new(dir)
    }

    #[test]
    fn round_trip_preserves_every_decision() {
        let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        let store = temp_store("roundtrip");
        assert_eq!(store.save(&profiles).unwrap(), profiles.len());
        let loaded = store.load().unwrap();
        assert_eq!(loaded.len(), profiles.len());

        // Reloaded profiles make bit-identical decisions on real windows.
        let device = dataset.devices()[0];
        let aggregator = WindowAggregator::new(&vocab, WindowConfig::PAPER_DEFAULT);
        let windows = aggregator.device_windows(&dataset, device);
        assert!(!windows.is_empty());
        for (user, original) in &profiles {
            let restored = &loaded[user];
            for window in &windows {
                assert_eq!(
                    original.decision_value(&window.features),
                    restored.decision_value(&window.features),
                    "user {user:?} window {:?}",
                    window.start
                );
            }
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn load_rejects_corrupt_files_with_the_path_in_the_error() {
        let store = temp_store("corrupt");
        fs::create_dir_all(store.dir()).unwrap();
        fs::write(store.dir().join("user_0.profile"), b"not a profile").unwrap();
        let err = store.load().unwrap_err();
        assert!(err.to_string().contains("user_0.profile"), "error was: {err}");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn load_reports_every_bad_file_not_just_the_first() {
        let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        let store = temp_store("multi-issue");
        store.save(&profiles).unwrap();
        // Two distinct corrupt files plus a duplicate of a good user
        // (sorted after the original, so the original wins).
        fs::write(store.dir().join("aa_bad.profile"), b"garbage one").unwrap();
        fs::write(store.dir().join("zz_bad.profile"), b"garbage two").unwrap();
        let good = fs::read(store.dir().join(format!("user_{}.profile", {
            let first = *profiles.keys().next().unwrap();
            first.0
        })))
        .unwrap();
        fs::write(store.dir().join("zz_dup.profile"), &good).unwrap();
        let err = store.load().unwrap_err();
        let msg = err.to_string();
        for needle in ["aa_bad.profile", "zz_bad.profile", "zz_dup.profile", "duplicate"] {
            assert!(msg.contains(needle), "missing {needle:?} in: {msg}");
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn load_lossy_starts_degraded_with_the_loadable_subset() {
        let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        let store = temp_store("lossy");
        store.save(&profiles).unwrap();
        fs::write(store.dir().join("broken.profile"), b"not a profile").unwrap();
        let (loaded, issues) = store.load_lossy().unwrap();
        assert_eq!(loaded.len(), profiles.len(), "every intact profile loads");
        assert_eq!(issues.len(), 1);
        assert!(issues[0].path.ends_with("broken.profile"));
        // The loaded subset still decides identically to the originals.
        let device = dataset.devices()[0];
        let aggregator = WindowAggregator::new(&vocab, WindowConfig::PAPER_DEFAULT);
        let windows = aggregator.device_windows(&dataset, device);
        for (user, original) in &profiles {
            for window in &windows {
                assert_eq!(
                    original.decision_value(&window.features),
                    loaded[user].decision_value(&window.features),
                );
            }
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn load_lossy_on_a_missing_directory_is_a_hard_error() {
        let store = ModelStore::new("/nonexistent/streamid-store-missing");
        assert!(store.load_lossy().is_err());
        assert!(store.load().is_err());
    }

    #[test]
    fn restored_approximate_models_score_identically_and_keep_their_backend() {
        use ocsvm::{SolverBackend, SolverOptions};
        let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let aggregator = WindowAggregator::new(&vocab, WindowConfig::PAPER_DEFAULT);
        let device = dataset.devices()[0];
        let windows = aggregator.device_windows(&dataset, device);
        assert!(!windows.is_empty());
        let features: Vec<&_> = windows.iter().map(|w| &w.features).collect();
        let backend = SolverBackend::SampledFw;
        let (profiles, _) = ProfileTrainer::new(&vocab)
            .max_training_windows(150)
            .solver_options(SolverOptions { backend, ..SolverOptions::default() })
            .train_all(&dataset);
        let store = temp_store("approx-sampled");
        store.save(&profiles).unwrap();
        let loaded = store.load().unwrap();
        assert_eq!(loaded.len(), profiles.len());
        for (user, original) in &profiles {
            let restored = &loaded[user];
            // The backend survives the round trip and the restored model
            // batch-scores bit-identically to the in-memory one (the
            // linear default kernel routes both through the
            // collapsed-weight batch scorer).
            assert_eq!(original.solver_backend(), backend, "{user:?}");
            assert_eq!(restored.solver_backend(), backend, "{user:?}");
            assert_eq!(
                original.batch_decision_values(&features),
                restored.batch_decision_values(&features),
                "{user:?}"
            );
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_backend_tag_surfaces_as_a_load_issue() {
        let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        let store = temp_store("bad-backend");
        // The solver-backend tag is the final byte of the embedded model
        // stream, which is the final byte of the profile file. Tag 1 is
        // the removed one-data ensemble backend; the error names it.
        let first = *profiles.keys().next().unwrap();
        let path = store.dir().join(format!("user_{}.profile", first.0));
        for (tag, needle) in [(0xEE, "unknown solver-backend tag"), (1, "one-data ensemble")] {
            store.save(&profiles).unwrap();
            let mut bytes = fs::read(&path).unwrap();
            *bytes.last_mut().unwrap() = tag;
            fs::write(&path, &bytes).unwrap();
            let (loaded, issues) = store.load_lossy().unwrap();
            assert_eq!(loaded.len(), profiles.len() - 1, "only the tampered file fails");
            assert!(!loaded.contains_key(&first));
            assert_eq!(issues.len(), 1);
            let error = &issues[0].error;
            assert_eq!(error.kind(), ErrorKind::InvalidData, "tag {tag}");
            assert!(error.to_string().contains("solver-backend"), "{error}");
            assert!(error.to_string().contains(needle), "{error}");
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn non_profile_files_are_ignored() {
        let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        let store = temp_store("ignore");
        store.save(&profiles).unwrap();
        fs::write(store.dir().join("README.txt"), b"not a model").unwrap();
        // What an interrupted save leaves behind: a half-written .tmp file
        // next to the intact previous profile.
        let first = *profiles.keys().next().unwrap();
        fs::write(store.dir().join(format!("user_{}.profile.tmp", first.0)), b"half").unwrap();
        let loaded = store.load().unwrap();
        assert_eq!(loaded.len(), profiles.len());
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Names of the `.tmp` files in the store directory.
    fn tmp_files(store: &ModelStore) -> Vec<PathBuf> {
        fs::read_dir(store.dir())
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("tmp"))
            .collect()
    }

    #[test]
    fn truncated_profile_is_one_issue_and_the_others_still_load() {
        let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        assert!(profiles.len() > 1);
        let store = temp_store("truncated");
        store.save(&profiles).unwrap();
        // A profile cut off mid-stream, as an in-place write interrupted
        // by a crash would leave it.
        let first = *profiles.keys().next().unwrap();
        let path = store.dir().join(format!("user_{}.profile", first.0));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let (loaded, issues) = store.load_lossy().unwrap();
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].path, path);
        assert_eq!(loaded.len(), profiles.len() - 1);
        assert!(!loaded.contains_key(&first));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn resaving_over_a_store_leaves_no_tmp_files() {
        let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        let store = temp_store("resave");
        store.save(&profiles).unwrap();
        assert!(tmp_files(&store).is_empty());
        // A stale .tmp file of a saved user is replaced and renamed away.
        let first = *profiles.keys().next().unwrap();
        fs::write(store.dir().join(format!("user_{}.profile.tmp", first.0)), b"half").unwrap();
        assert_eq!(store.save(&profiles).unwrap(), profiles.len());
        assert!(tmp_files(&store).is_empty(), "{:?}", tmp_files(&store));
        assert_eq!(store.load().unwrap().len(), profiles.len());
        let _ = fs::remove_dir_all(store.dir());
    }
}
