//! Open-loop load generator: ingest lines sent on a fixed schedule over
//! one connection by one thread, replies read by a second thread.
//!
//! Every batch has a due time (`index × interval` after the start) and is
//! sent at that time whether or not earlier batches were answered, so a
//! slow daemon faces a growing queue instead of a slower client. Each
//! latency is timed from the due time, which charges a stall to every
//! batch queued behind it; how late the sender itself ran is recorded as
//! the lag.

use identd::json::{self, Json};
use identd::proto::DecisionRecord;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// When each batch was due, sent and answered, relative to the start.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    pub due: Vec<Duration>,
    /// `None` for a batch that was never written.
    pub sent: Vec<Option<Duration>>,
    /// `None` for a batch that got no successful reply.
    pub done: Vec<Option<Duration>>,
}

impl Timeline {
    /// Milliseconds from each batch's due time to its reply; a batch
    /// without a successful reply counts as infinitely late.
    pub fn due_latencies_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.done)
            .map(|(due, done)| match done {
                Some(done) => ms(done.saturating_sub(*due)),
                None => f64::INFINITY,
            })
            .collect()
    }

    /// Milliseconds each written batch went out after its due time, with
    /// the batch's index.
    pub fn lags_ms(&self) -> Vec<(usize, f64)> {
        self.due
            .iter()
            .zip(&self.sent)
            .enumerate()
            .filter_map(|(i, (due, sent))| sent.map(|sent| (i, ms(sent.saturating_sub(*due)))))
            .collect()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything one open-loop run observed.
#[derive(Debug, Default)]
pub struct DriveOutcome {
    pub timeline: Timeline,
    /// Error codes of refused ingest batches (`overloaded` among them).
    pub ingest_errors: Vec<String>,
    /// Decisions with the time their `decide` reply arrived.
    pub decisions: Vec<(Duration, DecisionRecord)>,
    pub decide_attempted: u64,
    pub decide_failed: u64,
}

/// What the reply reader should expect next on the connection.
enum Expect {
    Ingest(usize),
    Decide,
}

/// Sends `lines` (each a complete ingest request ending in `\n`) one every
/// `interval`, starting `lead` from now, on one connection. When an ingest
/// reply reports new decisions, the sender pipelines a `decide` request
/// before its next batch; a last `decide` follows the final batch.
pub fn drive(
    addr: SocketAddr,
    tenant: &str,
    lines: &[String],
    interval: Duration,
    lead: Duration,
) -> io::Result<DriveOutcome> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut decide =
        Json::Obj(vec![("verb".into(), Json::str("decide")), ("tenant".into(), Json::str(tenant))])
            .to_line();
    decide.push('\n');
    let start = Instant::now() + lead;
    let due: Vec<Duration> = (0..lines.len()).map(|i| interval * i as u32).collect();
    let decisions_waiting = AtomicBool::new(false);
    let (expect_tx, expect_rx) = mpsc::channel::<Expect>();

    std::thread::scope(|scope| {
        let replies = scope
            .spawn(|| read_replies(&mut reader, expect_rx, lines.len(), start, &decisions_waiting));
        let mut sent = vec![None; lines.len()];
        let mut send = |expect: Expect, line: &str| {
            // The reader only outlives the sender, so the send succeeds.
            let _ = expect_tx.send(expect);
            writer.write_all(line.as_bytes()).is_ok()
        };
        for (i, line) in lines.iter().enumerate() {
            let wait = (start + due[i]).saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            if decisions_waiting.swap(false, Ordering::Relaxed) && !send(Expect::Decide, &decide) {
                break;
            }
            if !send(Expect::Ingest(i), line) {
                break;
            }
            sent[i] = Some(start.elapsed());
        }
        send(Expect::Decide, &decide);
        drop(expect_tx);
        let mut outcome = replies.join().expect("reply reader panicked");
        outcome.timeline.due = due;
        outcome.timeline.sent = sent;
        Ok(outcome)
    })
}

fn read_replies(
    reader: &mut BufReader<TcpStream>,
    expect: mpsc::Receiver<Expect>,
    batches: usize,
    start: Instant,
    decisions_waiting: &AtomicBool,
) -> DriveOutcome {
    let mut outcome = DriveOutcome::default();
    outcome.timeline.done = vec![None; batches];
    let mut line = String::new();
    for next in expect {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let at = start.elapsed();
        let reply = json::parse(line.trim_end()).unwrap_or(Json::Null);
        let ok = reply.get("ok") == Some(&Json::Bool(true));
        match next {
            Expect::Ingest(i) if ok => {
                outcome.timeline.done[i] = Some(at);
                if reply.get("decided").and_then(Json::as_num).unwrap_or(0.0) > 0.0 {
                    decisions_waiting.store(true, Ordering::Relaxed);
                }
            }
            Expect::Ingest(_) => {
                let code = reply.get("error").and_then(Json::as_str).unwrap_or("unparseable reply");
                outcome.ingest_errors.push(code.to_string());
            }
            Expect::Decide => {
                outcome.decide_attempted += 1;
                let records: Option<Vec<DecisionRecord>> =
                    ok.then(|| reply.get("decisions").and_then(Json::as_arr)).flatten().and_then(
                        |list| list.iter().map(|d| DecisionRecord::from_json(d).ok()).collect(),
                    );
                match records {
                    Some(records) => outcome.decisions.extend(records.into_iter().map(|r| (at, r))),
                    None => outcome.decide_failed += 1,
                }
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentiles;

    /// A one-connection server that answers in order, each batch taking
    /// `service`, with one batch stalled for `stall`.
    fn simulate(n: usize, interval: u64, service: u64, stalled: usize, stall: u64) -> Timeline {
        let due: Vec<Duration> =
            (0..n as u64).map(|i| Duration::from_millis(i * interval)).collect();
        let mut free_at = Duration::ZERO;
        let mut done = Vec::new();
        for (i, &d) in due.iter().enumerate() {
            let begin = d.max(free_at);
            let cost = service + if i == stalled { stall } else { 0 };
            free_at = begin + Duration::from_millis(cost);
            done.push(Some(free_at));
        }
        let sent = due.iter().map(|&d| Some(d)).collect();
        Timeline { due, sent, done }
    }

    #[test]
    fn a_stall_is_charged_to_every_batch_queued_behind_it() {
        // 2000 batches every 2 ms, 1 ms of work each; batch 1000 stalls
        // for 100 ms, so the ~100 batches due during the stall queue up.
        let timeline = simulate(2000, 2, 1, 1000, 100);
        let latencies = timeline.due_latencies_ms();
        assert_eq!(latencies[999], 1.0);
        assert_eq!(latencies[1000], 101.0);
        // Batch 1001 was due 2 ms into the stall and waited for the rest.
        assert_eq!(latencies[1001], 100.0);
        let late = latencies.iter().filter(|&&l| l > 1.0).count();
        assert!(late > 90, "only {late} batches charged for the stall");
        let summary = percentiles(&latencies).unwrap();
        assert_eq!(summary.p50, 1.0);
        assert!(summary.p99.unwrap() > 70.0, "p99 {:?} hides the stall", summary.p99);
        // Timing from a blocked client's send time would see 1 ms for each
        // queued batch; the due-time clock does not.
        assert!(timeline.lags_ms().iter().all(|&(_, lag)| lag == 0.0));
    }

    #[test]
    fn unanswered_batches_count_as_missing_any_limit() {
        let mut timeline = simulate(10, 2, 1, usize::MAX, 0);
        timeline.done[3] = None;
        let latencies = timeline.due_latencies_ms();
        assert_eq!(latencies[3], f64::INFINITY);
        assert_eq!(latencies.iter().filter(|l| l.is_finite()).count(), 9);
    }
}
