//! CI perf gate: compares a benchmark's `BENCH_*.json` against the
//! committed baseline and fails (exit 1) when a watched metric regresses
//! by more than the tolerance: a higher-is-better metric drops, or a
//! lower-is-better one grows.
//!
//! ```text
//! cargo run -p bench --bin perf_gate -- \
//!     --baseline crates/bench/baselines/BENCH_sweep.json \
//!     --current BENCH_sweep.json \
//!     --metrics cells_per_sec [--tolerance 0.25]
//! ```
//!
//! Only the metrics named by `--metrics` (comma-separated,
//! higher-is-better: pass iff `current >= baseline × (1 − tolerance)`) and
//! `--metrics-lower` (comma-separated, lower-is-better: latencies and
//! ns-per-op costs, pass iff `current <= baseline × (1 + tolerance)`) gate
//! the build; everything else in the files is informational. At least one
//! of the two must be given. A metric that needs its own tolerance gets
//! its own invocation (identd's SLO gate runs one for `tx_per_sec` and one
//! for `latency_p99_ms`). The default tolerance allows a 25 % regression
//! before failing, absorbing runner noise while still catching real
//! slowdowns.

use bench::{gate, json, ExperimentConfig};

fn main() {
    let baseline_path = required("--baseline");
    let current_path = required("--current");
    let metrics_arg = ExperimentConfig::arg_value("--metrics");
    let metrics_lower_arg = ExperimentConfig::arg_value("--metrics-lower");
    if metrics_arg.is_none() && metrics_lower_arg.is_none() {
        die("usage: perf_gate --baseline FILE --current FILE [--metrics a,b] [--metrics-lower c,d] [--tolerance F] (need --metrics and/or --metrics-lower)");
    }
    let split = |arg: &Option<String>| -> Vec<String> {
        arg.as_deref()
            .map(|s| s.split(',').map(|m| m.trim().to_string()).collect())
            .unwrap_or_default()
    };
    let metrics = split(&metrics_arg);
    let metrics_lower = split(&metrics_lower_arg);
    let tolerance: f64 = ExperimentConfig::arg_value("--tolerance")
        .map(|v| v.parse().expect("--tolerance takes a float"))
        .unwrap_or(0.25);

    let baseline = load(&baseline_path);
    let current = load(&current_path);
    let higher: Vec<&str> = metrics.iter().map(String::as_str).collect();
    let lower: Vec<&str> = metrics_lower.iter().map(String::as_str).collect();
    let mut checks = gate::check(&baseline, &current, &higher, tolerance)
        .unwrap_or_else(|e| die(&format!("gate error: {e}")));
    checks.extend(
        gate::check_lower(&baseline, &current, &lower, tolerance)
            .unwrap_or_else(|e| die(&format!("gate error: {e}"))),
    );

    println!(
        "PERF GATE  {} vs baseline {} (tolerance {:.0} %)",
        current_path,
        baseline_path,
        tolerance * 100.0,
    );
    let mut failed = false;
    for check in &checks {
        println!(
            "  {:<26} baseline {:>12.3}  current {:>12.3}  ratio {:>6.2}x  {}",
            check.metric,
            check.baseline,
            check.current,
            check.ratio,
            if check.pass { "ok" } else { "REGRESSION" },
        );
        failed |= !check.pass;
    }
    if failed {
        die("perf gate failed: a watched metric regressed beyond tolerance");
    }
}

fn load(path: &str) -> Vec<(String, f64)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    json::parse(&text).unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")))
}

fn required(name: &str) -> String {
    ExperimentConfig::arg_value(name).unwrap_or_else(|| {
        die(&format!(
            "usage: perf_gate --baseline FILE --current FILE [--metrics a,b] \
             [--metrics-lower c,d] [--tolerance F] (missing {name})"
        ))
    })
}

fn die(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}
