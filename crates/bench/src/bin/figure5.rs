//! Figure 5 — feature-vector composition time as a function of the number
//! of transactions in a 1-minute window.
//!
//! The paper sweeps from the observed median window population (54) to the
//! maximum (6,048) and finds the cost linear and below one second, i.e.
//! composition every 30 s shift is real-time feasible.
//!
//! ```text
//! cargo run -p bench --bin figure5 --release
//! ```
//!
//! This binary is the Fig. 5 timing harness.

use proxylog::{Taxonomy, Timestamp, UserId};
use std::time::Instant;
use tracegen::{ActivityClass, RoleTemplate, Scenario, Session, UserBehaviorProfile};
use webprofiler::{aggregate_window, Vocabulary};

/// Builds a 60-second window holding exactly `n` realistic transactions.
fn window_of(n: usize) -> Vec<proxylog::Transaction> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let taxonomy = Taxonomy::paper_scale();
    let mut rng = StdRng::seed_from_u64(42);
    let role = RoleTemplate::generate(&mut rng, 0, 9, &taxonomy);
    let profile = UserBehaviorProfile::generate(
        &mut rng,
        UserId(0),
        &role,
        ActivityClass::Heavy,
        &taxonomy,
        Timestamp(0),
    );
    let session = Session {
        user: UserId(0),
        device: proxylog::DeviceId(0),
        start: Timestamp(0),
        end: Timestamp(3_600),
    };
    // Generate plenty of traffic, then keep n transactions and squeeze
    // them into one minute.
    let mut txs = Vec::new();
    while txs.len() < n {
        txs.extend(tracegen::session_transactions(&mut rng, &profile, &session, 10.0));
    }
    txs.truncate(n);
    for (i, tx) in txs.iter_mut().enumerate() {
        tx.timestamp = Timestamp((i as i64 * 60) / n as i64);
    }
    txs
}

fn main() {
    let scenario = Scenario::paper_benchmark();
    let vocab = Vocabulary::new(scenario.taxonomy);
    println!("FIGURE 5: FEATURE-VECTOR COMPOSITION TIME vs WINDOW POPULATION");
    println!("{:>8} {:>12} {:>14}", "txs", "time", "us per tx");
    let mut points = Vec::new();
    for n in [54usize, 128, 256, 512, 1024, 2048, 4096, 6048] {
        let window = window_of(n);
        // Median of repeated composition timings.
        let mut timings: Vec<f64> = (0..21)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(aggregate_window(&vocab, &window));
                start.elapsed().as_secs_f64()
            })
            .collect();
        timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median = timings[timings.len() / 2];
        points.push((n as f64, median));
        println!("{:>8} {:>10.3}ms {:>14.2}", n, median * 1_000.0, median * 1e6 / n as f64);
    }
    // Least-squares slope through the origin-ish: report linearity.
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.0 - mean_x)).sum();
    let syy: f64 = points.iter().map(|p| (p.1 - mean_y) * (p.1 - mean_y)).sum();
    let r = sxy / (sxx * syy).sqrt();
    println!();
    println!("# linear fit: {:.2} us/transaction, correlation r = {:.4}", sxy / sxx * 1e6, r);
    println!("# paper shape: linear growth, < 1 s even at the 6,048-transaction maximum");
    let max = points.last().expect("points nonempty");
    assert!(max.1 < 1.0, "composition exceeded 1s at {} txs: {:.3}s", max.0, max.1);
}
