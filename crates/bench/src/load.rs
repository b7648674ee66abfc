//! Open-loop load generation against a serving deployment.
//!
//! An *open-loop* generator fires requests on a fixed wall-clock schedule
//! derived from a target request rate, whether or not earlier requests have
//! completed — unlike a closed loop (issue, wait, issue), whose measured
//! latency silently flattens under overload because a slow server throttles
//! its own load. Open-loop tail latencies (p99, p999) are the numbers a
//! capacity plan actually needs, which is why this harness backs the
//! `load_gen` binary.
//!
//! The arrival schedule is deterministic — request `k` of a run at `q` QPS
//! is due exactly `k / q` seconds after the start, no Poisson jitter — so
//! two runs of the same scenario issue identical request sequences and the
//! only nondeterminism left in a report is the machine's own timing.
//!
//! Every request outcome is classified with the protocol's typed errors:
//! completions, typed `Overloaded` rejections (the admission budgets doing
//! their job — counted separately, never conflated with failures), and
//! failures of any other kind, a request whose thread panicked included.

use ensembler_serve::{ErrorCode, ServeError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One request against the deployment under load: the closure runs on its
/// own thread at its scheduled arrival time, and its typed result is
/// classified into the [`LoadReport`].
pub type LoadRequest = Arc<dyn Fn() -> Result<(), ServeError> + Send + Sync>;

/// The three outcome classes a load run tallies: completed, shed by
/// admission control with a typed `Overloaded` frame, or failed any other
/// way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The request completed successfully.
    Ok,
    /// The server refused it with a typed `Overloaded` frame — load
    /// shedding, not a failure.
    Rejected,
    /// Anything else: transport, protocol or inference errors.
    Failed,
}

/// Classifies one request result into its [`Outcome`] class.
pub fn classify_outcome(result: &Result<(), ServeError>) -> Outcome {
    match result {
        Ok(()) => Outcome::Ok,
        Err(ServeError::Remote(wire)) if wire.code == ErrorCode::Overloaded => Outcome::Rejected,
        Err(_) => Outcome::Failed,
    }
}

/// Shape of one open-loop load scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadConfig {
    /// Arrival rate the generator holds, in requests per second. Request
    /// `k` is issued exactly `k / target_qps` seconds after the run starts.
    pub target_qps: f64,
    /// Total requests in the run.
    pub requests: usize,
}

/// What one open-loop run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// The arrival rate the schedule aimed for.
    pub target_qps: f64,
    /// Requests issued.
    pub requests: usize,
    /// Requests that completed successfully.
    pub ok: usize,
    /// Requests the server refused with a typed `Overloaded` frame — the
    /// admission budgets shedding load, not a failure.
    pub rejected: usize,
    /// Requests that failed any other way (transport, protocol, inference).
    pub failed: usize,
    /// Completions per second actually achieved over the whole run
    /// (successful requests / wall-clock duration).
    pub achieved_qps: f64,
    /// Median latency of successful requests, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency of successful requests, in milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile latency of successful requests, in milliseconds.
    pub p999_ms: f64,
    /// Slowest successful request, in milliseconds.
    pub max_ms: f64,
}

impl LoadReport {
    /// One-line human summary, as printed by `load_gen`.
    pub fn summary(&self) -> String {
        format!(
            "qps {:7.1} -> {:7.1} | {} ok, {} rejected, {} failed | p50 {:8.3} ms | p99 {:8.3} ms | p999 {:8.3} ms",
            self.target_qps,
            self.achieved_qps,
            self.ok,
            self.rejected,
            self.failed,
            self.p50_ms,
            self.p99_ms,
            self.p999_ms,
        )
    }

    /// Per-outcome-class breakdown with percentages — the line the overload
    /// scenario prints so CI logs show the shed fraction at a glance, e.g.
    /// `outcomes: 37/200 ok (18.5%), 163/200 rejected (81.5%), 0/200 failed
    /// (0.0%) -> 81.5% shed`.
    pub fn outcome_line(&self) -> String {
        let pct = |n: usize| {
            if self.requests == 0 {
                0.0
            } else {
                100.0 * n as f64 / self.requests as f64
            }
        };
        format!(
            "outcomes: {}/{} ok ({:.1}%), {}/{} rejected ({:.1}%), {}/{} failed ({:.1}%) -> {:.1}% shed",
            self.ok,
            self.requests,
            pct(self.ok),
            self.rejected,
            self.requests,
            pct(self.rejected),
            self.failed,
            self.requests,
            pct(self.failed),
            pct(self.rejected),
        )
    }
}

/// Nearest-rank percentile of an ascending-sorted latency list (`q` in
/// `0.0..=1.0`); `0.0` for an empty list.
pub fn percentile_ms(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len());
    sorted_ms[rank - 1]
}

/// Runs one open-loop scenario: issues `config.requests` requests on the
/// fixed `config.target_qps` arrival schedule, each on its own thread (so a
/// slow response never delays a later arrival), waits for every response and
/// classifies the outcomes. A request whose thread panics counts as
/// [`Outcome::Failed`].
///
/// The request closure is shared by every in-flight call — against a
/// protocol-v5 [`ensembler_serve::RemoteDefense`] all of them pipeline onto
/// the one multiplexed connection, which is exactly the deployment shape
/// this harness exists to measure.
pub fn run_open_loop(request: &LoadRequest, config: &LoadConfig) -> LoadReport {
    assert!(
        config.target_qps > 0.0 && config.requests > 0,
        "a load scenario needs a positive rate and at least one request"
    );
    let interval = Duration::from_secs_f64(1.0 / config.target_qps);
    let start = Instant::now();
    let mut handles = Vec::with_capacity(config.requests);
    for k in 0..config.requests {
        let due = start + interval * k as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let request = Arc::clone(request);
        handles.push(std::thread::spawn(move || {
            let issued = Instant::now();
            let result = request();
            (issued.elapsed(), classify_outcome(&result))
        }));
    }
    let (mut ok, mut rejected, mut failed) = (0, 0, 0);
    let mut latencies_ms = Vec::with_capacity(config.requests);
    for handle in handles {
        let (latency, outcome) = handle.join().unwrap_or((Duration::ZERO, Outcome::Failed));
        match outcome {
            Outcome::Ok => {
                ok += 1;
                latencies_ms.push(latency.as_secs_f64() * 1e3);
            }
            Outcome::Rejected => rejected += 1,
            Outcome::Failed => failed += 1,
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    latencies_ms.sort_by(f64::total_cmp);
    LoadReport {
        target_qps: config.target_qps,
        requests: config.requests,
        ok,
        rejected,
        failed,
        achieved_qps: if wall_s > 0.0 {
            ok as f64 / wall_s
        } else {
            0.0
        },
        p50_ms: percentile_ms(&latencies_ms, 0.50),
        p99_ms: percentile_ms(&latencies_ms, 0.99),
        p999_ms: percentile_ms(&latencies_ms, 0.999),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensembler_serve::WireError;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile_ms(&sorted, 0.50), 50.0);
        assert_eq!(percentile_ms(&sorted, 0.99), 99.0);
        assert_eq!(percentile_ms(&sorted, 0.999), 100.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
        assert_eq!(percentile_ms(&[7.0], 0.999), 7.0);
    }

    #[test]
    fn open_loop_classifies_typed_outcomes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let request: LoadRequest = Arc::new(move || {
            // Deterministic outcome mix over every ten calls: six complete,
            // two are rejected, one fails with a typed error and one panics
            // its thread — counted as a failure, and the run still finishes.
            match seen.fetch_add(1, Ordering::SeqCst) % 10 {
                0 | 1 | 3 | 5 | 6 | 8 => Ok(()),
                2 | 7 => Err(ServeError::Remote(WireError {
                    code: ErrorCode::Overloaded,
                    message: "budget".to_string(),
                })),
                4 => Err(ServeError::Protocol("boom".to_string())),
                _ => panic!("the request thread dies"),
            }
        });
        let report = run_open_loop(
            &request,
            &LoadConfig {
                target_qps: 2000.0,
                requests: 50,
            },
        );
        assert_eq!(report.requests, 50);
        assert_eq!(report.ok, 30);
        assert_eq!(report.rejected, 10);
        assert_eq!(report.failed, 10, "5 typed failures + 5 panicked threads");
        assert_eq!(report.ok + report.rejected + report.failed, 50);
        assert!(report.p50_ms <= report.p99_ms && report.p99_ms <= report.p999_ms);
        assert!(report.p999_ms <= report.max_ms);
    }

    #[test]
    fn outcome_line_shows_per_class_percentages() {
        let report = LoadReport {
            target_qps: 1000.0,
            requests: 200,
            ok: 37,
            rejected: 163,
            failed: 0,
            achieved_qps: 0.0,
            p50_ms: 0.0,
            p99_ms: 0.0,
            p999_ms: 0.0,
            max_ms: 0.0,
        };
        let line = report.outcome_line();
        assert!(line.contains("37/200 ok (18.5%)"), "{line}");
        assert!(line.contains("163/200 rejected (81.5%)"), "{line}");
        assert!(line.contains("0/200 failed (0.0%)"), "{line}");
        assert!(line.ends_with("81.5% shed"), "{line}");
    }

    #[test]
    fn classification_is_shared_and_typed() {
        assert_eq!(classify_outcome(&Ok(())), Outcome::Ok);
        assert_eq!(
            classify_outcome(&Err(ServeError::Remote(WireError {
                code: ErrorCode::Overloaded,
                message: "budget".to_string(),
            }))),
            Outcome::Rejected
        );
        assert_eq!(
            classify_outcome(&Err(ServeError::Remote(WireError {
                code: ErrorCode::Internal,
                message: "boom".to_string(),
            }))),
            Outcome::Failed
        );
        assert_eq!(
            classify_outcome(&Err(ServeError::Protocol("garbage".to_string()))),
            Outcome::Failed
        );
    }

    #[test]
    fn arrival_schedule_is_open_loop() {
        // 20 requests at 1 kHz: the schedule spans ~19 ms even though each
        // request returns instantly; a closed loop would finish far sooner
        // than the schedule, an open loop cannot.
        let request: LoadRequest = Arc::new(|| Ok(()));
        let start = Instant::now();
        let report = run_open_loop(
            &request,
            &LoadConfig {
                target_qps: 1000.0,
                requests: 20,
            },
        );
        assert!(start.elapsed() >= Duration::from_millis(19));
        assert_eq!(report.ok, 20);
        assert!(report.achieved_qps <= 1100.0);
    }
}
