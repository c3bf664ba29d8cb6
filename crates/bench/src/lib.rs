//! Shared plumbing for the experiment binaries.
//!
//! Each binary regenerates one table or figure of the paper (see
//! `DESIGN.md` for the index). They share a synthetic corpus built here:
//! generate → filter under-represented users → chronological 75/25 split,
//! mirroring Sect. IV.
//!
//! The binaries accept a common set of flags:
//!
//! ```text
//! --weeks N        simulated duration (default varies per experiment)
//! --rate F         traffic-rate multiplier (default 0.3)
//! --seed N         generator seed (default 2015)
//! --max-windows N  per-user training-window cap (default 400)
//! --full           paper-scale run (26 weeks, rate 1.0; slow)
//! ```

use proxylog::Dataset;
use tracegen::{GeneratedTrace, Scenario, TraceGenerator};
use webprofiler::Vocabulary;

/// Transactions-per-user filter threshold of the paper, and the duration
/// it was calibrated against.
const PAPER_MIN_TX: f64 = 1_500.0;
const PAPER_WEEKS: f64 = 26.0;

/// Common experiment configuration parsed from CLI flags.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Simulated weeks.
    pub weeks: u32,
    /// Traffic-rate multiplier.
    pub rate: f64,
    /// Generator seed.
    pub seed: u64,
    /// Per-user training-window cap.
    pub max_windows: usize,
}

impl ExperimentConfig {
    /// Defaults tuned so every experiment finishes in minutes.
    pub fn with_defaults(weeks: u32) -> Self {
        Self { weeks, rate: 0.3, seed: 2015, max_windows: 400 }
    }

    /// Parses the common flags, starting from per-experiment defaults.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn parse(default_weeks: u32) -> Self {
        let mut config = Self::with_defaults(default_weeks);
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let value = |i: usize| -> &str {
                args.get(i + 1).unwrap_or_else(|| panic!("flag {} needs a value", args[i]))
            };
            match args[i].as_str() {
                "--weeks" => {
                    config.weeks = value(i).parse().expect("--weeks takes an integer");
                    i += 2;
                }
                "--rate" => {
                    config.rate = value(i).parse().expect("--rate takes a float");
                    i += 2;
                }
                "--seed" => {
                    config.seed = value(i).parse().expect("--seed takes an integer");
                    i += 2;
                }
                "--max-windows" => {
                    config.max_windows = value(i).parse().expect("--max-windows takes an integer");
                    i += 2;
                }
                "--full" => {
                    config.weeks = 26;
                    config.rate = 1.0;
                    config.max_windows = 2_000;
                    i += 1;
                }
                other => {
                    // Leave experiment-specific flags for the caller.
                    let _ = other;
                    i += 1;
                }
            }
        }
        config
    }

    /// Returns an experiment-specific flag's value, if present.
    pub fn arg_value(name: &str) -> Option<String> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
    }

    /// Whether a bare flag is present.
    pub fn has_flag(name: &str) -> bool {
        std::env::args().skip(1).any(|a| a == name)
    }

    /// The scenario this configuration describes.
    pub fn scenario(&self) -> Scenario {
        Scenario::evaluation(self.weeks, self.rate).with_seed(self.seed)
    }
}

/// A generated, filtered and split corpus plus its vocabulary.
#[derive(Debug)]
pub struct Experiment {
    /// The experiment configuration.
    pub config: ExperimentConfig,
    /// Generation ground truth (dataset + profiles + sessions).
    pub trace: GeneratedTrace,
    /// Filtered dataset (users below the scaled minimum removed).
    pub filtered: Dataset,
    /// Oldest 75 % per user.
    pub train: Dataset,
    /// Newest 25 % per user.
    pub test: Dataset,
    /// Feature vocabulary.
    pub vocab: Vocabulary,
}

/// The paper's 1,500-transaction filter, rescaled to the simulated
/// duration (1,500 transactions over 26 weeks), with a floor so tiny test
/// corpora still filter meaningfully. The rate multiplier is deliberately
/// *not* factored in: the filter's purpose is to drop users too quiet to
/// profile, and reduced-rate runs should drop the same population.
pub fn scaled_min_transactions(weeks: u32) -> usize {
    ((PAPER_MIN_TX * f64::from(weeks) / PAPER_WEEKS).round() as usize).max(60)
}

impl Experiment {
    /// Generates, filters and splits the corpus.
    pub fn build(config: ExperimentConfig) -> Self {
        let trace = TraceGenerator::new(config.scenario()).generate_with_ground_truth();
        let min_tx = scaled_min_transactions(config.weeks);
        let filtered = trace.dataset.filter_min_transactions(min_tx);
        let (train, test) = filtered.split_chronological_per_user(0.75);
        let vocab = Vocabulary::new(trace.dataset.taxonomy().clone());
        eprintln!(
            "# corpus: {} transactions, {} users ({} after >= {min_tx} tx filter), {} weeks, rate {}",
            trace.dataset.len(),
            trace.dataset.users().len(),
            filtered.users().len(),
            config.weeks,
            config.rate,
        );
        Self { config, trace, filtered, train, test, vocab }
    }
}

/// Minimal flat-JSON support for the `BENCH_*.json` artifacts the perf
/// gate compares.
///
/// The benchmarks emit one flat object of numeric metrics, ending with the
/// core count they ran on; the checked-in baselines are the same shape. A full JSON implementation would pull in
/// a dependency for what is ultimately `{"metric": number, ...}`, so this
/// module hand-rolls exactly that subset: string keys, finite `f64`
/// values, no nesting.
pub mod json {
    /// Key of the core count [`emit`] appends to every object.
    pub const CORES_KEY: &str = "available_parallelism";

    /// Serializes metric pairs as a flat JSON object, preserving order,
    /// and appends [`CORES_KEY`]: the cores `std::thread` reports for this
    /// process, so a file records the machine it was measured on.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values: NaN/inf have no JSON representation
    /// and a gate comparing them is meaningless.
    pub fn emit(pairs: &[(&str, f64)]) -> String {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let entries: Vec<String> = pairs
            .iter()
            .copied()
            .chain([(CORES_KEY, cores as f64)])
            .map(|(key, value)| {
                assert!(value.is_finite(), "metric {key} is not finite: {value}");
                format!("  \"{key}\": {value}")
            })
            .collect();
        format!("{{\n{}\n}}\n", entries.join(",\n"))
    }

    /// Parses a flat JSON object of numeric values (the shape [`emit`]
    /// writes). Returns key/value pairs in file order.
    pub fn parse(text: &str) -> Result<Vec<(String, f64)>, String> {
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or("expected a top-level JSON object")?;
        let mut pairs = Vec::new();
        for entry in body.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) =
                entry.split_once(':').ok_or_else(|| format!("missing ':' in entry {entry:?}"))?;
            let key = key
                .trim()
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| format!("key is not a JSON string: {key:?}"))?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|e| format!("bad number for {key:?}: {e} ({value:?})"))?;
            pairs.push((key.to_string(), value));
        }
        Ok(pairs)
    }
}

/// The perf gate: compares a benchmark's current metrics against a
/// committed baseline and fails when a watched metric regresses by more
/// than the tolerance.
pub mod gate {
    /// One metric's comparison result.
    #[derive(Debug, Clone)]
    pub struct GateCheck {
        /// Metric name.
        pub metric: String,
        /// Committed baseline value.
        pub baseline: f64,
        /// Freshly measured value.
        pub current: f64,
        /// `current / baseline` (∞-safe: baseline 0 passes anything ≥ 0).
        pub ratio: f64,
        /// Whether the metric is within tolerance.
        pub pass: bool,
    }

    fn lookup(pairs: &[(String, f64)], metric: &str) -> Option<f64> {
        pairs.iter().find(|(k, _)| k == metric).map(|&(_, v)| v)
    }

    /// Checks each watched higher-is-better metric: pass iff
    /// `current >= baseline * (1 - tolerance)`. Errors if a watched
    /// metric is missing from either side.
    pub fn check(
        baseline: &[(String, f64)],
        current: &[(String, f64)],
        metrics: &[&str],
        tolerance: f64,
    ) -> Result<Vec<GateCheck>, String> {
        metrics
            .iter()
            .map(|&metric| {
                let base = lookup(baseline, metric)
                    .ok_or_else(|| format!("baseline is missing metric {metric:?}"))?;
                let cur = lookup(current, metric)
                    .ok_or_else(|| format!("current run is missing metric {metric:?}"))?;
                let ratio = if base == 0.0 { f64::INFINITY } else { cur / base };
                Ok(GateCheck {
                    metric: metric.to_string(),
                    baseline: base,
                    current: cur,
                    ratio,
                    pass: cur >= base * (1.0 - tolerance),
                })
            })
            .collect()
    }

    /// Checks each watched **lower**-is-better metric (latencies,
    /// ns-per-op costs): pass iff `current <= baseline * (1 + tolerance)`
    /// plus an epsilon absorbing float formatting, mirroring the SLO
    /// comparator in `validate_slo`. Errors if a watched metric is
    /// missing from either side.
    pub fn check_lower(
        baseline: &[(String, f64)],
        current: &[(String, f64)],
        metrics: &[&str],
        tolerance: f64,
    ) -> Result<Vec<GateCheck>, String> {
        metrics
            .iter()
            .map(|&metric| {
                let base = lookup(baseline, metric)
                    .ok_or_else(|| format!("baseline is missing metric {metric:?}"))?;
                let cur = lookup(current, metric)
                    .ok_or_else(|| format!("current run is missing metric {metric:?}"))?;
                let ratio = if base == 0.0 { f64::INFINITY } else { cur / base };
                Ok(GateCheck {
                    metric: metric.to_string(),
                    baseline: base,
                    current: cur,
                    ratio,
                    pass: cur <= base * (1.0 + tolerance) + 1e-9,
                })
            })
            .collect()
    }
}

/// Renders one table row of fixed-width cells.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(cell, width)| format!("{cell:>width$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Formats a ratio as the paper's percentage cells (one decimal).
pub fn pct(ratio: f64) -> String {
    format!("{:.1}", ratio * 100.0)
}

/// Formats a duration in the paper's `60s` / `5m` / `60m` style.
pub fn dur(seconds: u32) -> String {
    if seconds.is_multiple_of(3600) {
        format!("{}h", seconds / 3600)
    } else if seconds.is_multiple_of(60) {
        format!("{}m", seconds / 60)
    } else {
        format!("{seconds}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_filter_matches_paper_at_paper_scale() {
        assert_eq!(scaled_min_transactions(26), 1_500);
        // Short runs floor at 60.
        assert_eq!(scaled_min_transactions(1), 60);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(dur(6), "6s");
        assert_eq!(dur(30), "30s");
        assert_eq!(dur(60), "1m");
        assert_eq!(dur(300), "5m");
        assert_eq!(dur(3600), "1h");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.933), "93.3");
        assert_eq!(pct(0.0), "0.0");
    }

    #[test]
    fn flat_json_round_trips() {
        let text = json::emit(&[
            ("cells_per_sec", 1234.5),
            ("arena_hit_rate", 0.875),
            ("steals", 0.0),
            ("tiny", 1e-9),
        ]);
        let parsed = json::parse(&text).unwrap();
        assert_eq!(parsed.len(), 5, "four metrics and the core count");
        assert_eq!(parsed[0], ("cells_per_sec".to_string(), 1234.5));
        assert_eq!(parsed[1], ("arena_hit_rate".to_string(), 0.875));
        assert_eq!(parsed[2], ("steals".to_string(), 0.0));
        assert_eq!(parsed[3], ("tiny".to_string(), 1e-9));
    }

    #[test]
    fn emit_appends_the_core_count() {
        let expected = std::thread::available_parallelism().unwrap().get() as f64;
        for pairs in [&[][..], &[("tx_per_sec", 5.0)][..]] {
            let text = json::emit(pairs);
            let parsed = json::parse(&text).unwrap();
            assert_eq!(parsed.len(), pairs.len() + 1, "{text}");
            let (key, cores) = parsed.last().unwrap();
            assert_eq!(key, json::CORES_KEY);
            assert_eq!(*cores, expected);
            assert!(*cores >= 1.0);
        }
    }

    #[test]
    fn flat_json_rejects_garbage() {
        assert!(json::parse("[]").is_err());
        assert!(json::parse("{\"a\" 1}").is_err());
        assert!(json::parse("{\"a\": \"text\"}").is_err());
        assert!(json::parse("{a: 1}").is_err());
        // Empty object is fine.
        assert_eq!(json::parse("{}").unwrap(), vec![]);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond_it() {
        let baseline = vec![("tput".to_string(), 100.0), ("rate".to_string(), 0.9)];
        let current = vec![("tput".to_string(), 80.0), ("rate".to_string(), 0.5)];
        let checks = gate::check(&baseline, &current, &["tput", "rate"], 0.25).unwrap();
        assert!(checks[0].pass, "80 is within 25% of 100");
        assert!(!checks[1].pass, "0.5 regressed more than 25% from 0.9");
        assert!((checks[0].ratio - 0.8).abs() < 1e-12);

        // Improvements always pass; missing metrics are hard errors.
        let better = vec![("tput".to_string(), 250.0), ("rate".to_string(), 0.95)];
        assert!(gate::check(&baseline, &better, &["tput"], 0.25).unwrap()[0].pass);
        assert!(gate::check(&baseline, &current, &["absent"], 0.25).is_err());
    }

    #[test]
    fn lower_gate_passes_below_tolerance_and_fails_above_it() {
        let baseline = vec![("ns_per_row".to_string(), 100.0), ("ns_per_dist".to_string(), 40.0)];
        let current = vec![("ns_per_row".to_string(), 120.0), ("ns_per_dist".to_string(), 55.0)];
        let checks =
            gate::check_lower(&baseline, &current, &["ns_per_row", "ns_per_dist"], 0.25).unwrap();
        assert!(checks[0].pass, "120 is within +25% of 100");
        assert!(!checks[1].pass, "55 grew more than 25% over 40");
        assert!((checks[0].ratio - 1.2).abs() < 1e-12);

        // Getting faster always passes; exact-at-tolerance passes via the
        // epsilon; missing metrics are hard errors.
        let faster = vec![("ns_per_row".to_string(), 10.0), ("ns_per_dist".to_string(), 50.0)];
        let checks =
            gate::check_lower(&baseline, &faster, &["ns_per_row", "ns_per_dist"], 0.25).unwrap();
        assert!(checks[0].pass);
        assert!(checks[1].pass, "50 == 40 * 1.25 sits exactly at tolerance");
        assert!(gate::check_lower(&baseline, &current, &["absent"], 0.25).is_err());
    }

    #[test]
    fn one_baseline_gates_mixed_metric_directions() {
        // The `train_frontier` gate watches a higher-is-better speedup and
        // a lower-is-better accuracy delta out of the *same* baseline file
        // (`perf_gate --metrics ... --metrics-lower ...` in one
        // invocation); both directions must read the same parsed pairs.
        let text = json::emit(&[("train_speedup_vs_exact", 3.0), ("acc_delta_auto", 0.04)]);
        let baseline = json::parse(&text).unwrap();

        let good = vec![
            ("train_speedup_vs_exact".to_string(), 2.6),
            ("acc_delta_auto".to_string(), 0.045),
        ];
        let up = gate::check(&baseline, &good, &["train_speedup_vs_exact"], 0.25).unwrap();
        let down = gate::check_lower(&baseline, &good, &["acc_delta_auto"], 0.25).unwrap();
        assert!(up[0].pass, "2.6 is within -25% of 3.0");
        assert!(down[0].pass, "0.045 is within +25% of 0.04");

        // Each direction fails independently on its own regression.
        let slow = vec![
            ("train_speedup_vs_exact".to_string(), 1.9),
            ("acc_delta_auto".to_string(), 0.045),
        ];
        assert!(!gate::check(&baseline, &slow, &["train_speedup_vs_exact"], 0.25).unwrap()[0].pass);
        assert!(gate::check_lower(&baseline, &slow, &["acc_delta_auto"], 0.25).unwrap()[0].pass);
        let inaccurate =
            vec![("train_speedup_vs_exact".to_string(), 3.2), ("acc_delta_auto".to_string(), 0.09)];
        assert!(
            gate::check(&baseline, &inaccurate, &["train_speedup_vs_exact"], 0.25).unwrap()[0].pass
        );
        assert!(
            !gate::check_lower(&baseline, &inaccurate, &["acc_delta_auto"], 0.25).unwrap()[0].pass
        );
    }

    #[test]
    fn experiment_builds_at_tiny_scale() {
        let config = ExperimentConfig { weeks: 1, rate: 0.1, seed: 3, max_windows: 50 };
        let experiment = Experiment::build(config);
        assert!(!experiment.train.is_empty());
        assert!(!experiment.test.is_empty());
        assert_eq!(experiment.vocab.n_features(), 843);
    }
}
