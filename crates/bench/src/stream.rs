//! Streaming sessions: N stateful clients each pushing frames at a fixed
//! per-session rate over the shared multiplexed connection, with per-session
//! jitter and stall accounting.
//!
//! The open-loop harness ([`crate::load`]) models many independent one-shot
//! clients; the acquisition front-ends this deployment actually serves look
//! different — a handful of *sessions*, each emitting a steady frame stream
//! (a detector readout, a camera feed), all multiplexed over one protocol v5
//! connection. What matters to such a client is not only tail latency but
//! *cadence*: a frame that completes after the next frame was due is a
//! **stall** (the consumer skipped a beat), and the spread of
//! inter-completion gaps around the ideal period is **jitter**. This module
//! measures both, per session and in aggregate.
//!
//! Within a session the harness stays open-loop: frame `k` is issued at its
//! due time `k / frame_hz` regardless of whether frame `k-1` has completed,
//! exactly like a real sensor that does not pause for a slow server.

use crate::load::{
    count_outcome, fire, percentile_ms, sorted_ok_latencies_ms, LoadRequest, Outcome,
};
use std::sync::Arc;
use std::time::Duration;

/// Shape of a streaming run: how many sessions, how fast each one pushes,
/// and for how many frames.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Concurrent sessions, each with its own frame clock.
    pub sessions: usize,
    /// Frames per second *per session*.
    pub frame_hz: f64,
    /// Frames each session pushes before closing.
    pub frames_per_session: usize,
}

/// What one session measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Session index (stable across runs: sessions are numbered, not raced).
    pub session: usize,
    /// Frames issued.
    pub frames: usize,
    /// Frames that completed.
    pub ok: usize,
    /// Frames shed with a typed `Overloaded` rejection.
    pub rejected: usize,
    /// Frames that failed any other way.
    pub failed: usize,
    /// Median frame latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile frame latency, milliseconds.
    pub p99_ms: f64,
    /// Slowest frame, milliseconds.
    pub max_ms: f64,
    /// Frames that completed after the *next* frame was already due.
    pub stalls: usize,
    /// Mean |inter-completion gap − ideal period|, milliseconds.
    pub jitter_mean_ms: f64,
    /// Worst |inter-completion gap − ideal period|, milliseconds.
    pub jitter_max_ms: f64,
}

/// Aggregate of a full streaming run across all sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Sessions run.
    pub sessions: usize,
    /// Per-session frame rate the run targeted.
    pub frame_hz: f64,
    /// Frames per session.
    pub frames_per_session: usize,
    /// Completed frames across all sessions.
    pub ok: usize,
    /// Typed `Overloaded` rejections across all sessions.
    pub rejected: usize,
    /// Other failures across all sessions.
    pub failed: usize,
    /// Stalls across all sessions.
    pub stalls: usize,
    /// Median frame latency across all sessions, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile frame latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile frame latency, milliseconds.
    pub p999_ms: f64,
    /// Slowest frame anywhere, milliseconds.
    pub max_ms: f64,
    /// Mean of the per-session mean jitters, milliseconds.
    pub jitter_mean_ms: f64,
    /// Worst jitter seen by any session, milliseconds.
    pub jitter_max_ms: f64,
    /// The individual sessions, in session-index order.
    pub per_session: Vec<SessionReport>,
}

impl StreamReport {
    /// One-line human summary, as printed by `load_gen --stream`.
    pub fn summary(&self) -> String {
        format!(
            "stream {:2} sessions x {:5.1} Hz x {:4} frames | {} ok, {} rejected, {} failed | {} stalls | p50 {:8.3} ms | p99 {:8.3} ms | jitter mean {:6.3} ms max {:6.3} ms",
            self.sessions,
            self.frame_hz,
            self.frames_per_session,
            self.ok,
            self.rejected,
            self.failed,
            self.stalls,
            self.p50_ms,
            self.p99_ms,
            self.jitter_mean_ms,
            self.jitter_max_ms,
        )
    }
}

/// Runs `config.sessions` concurrent streaming sessions. Each session gets
/// its request closure from `request_for_session(session_index)` once and
/// then pushes `frames_per_session` frames at `frame_hz`, each frame on its
/// own thread so a slow response never delays the session's clock. Outcomes
/// are classified with the same typed rules as every other harness in this
/// crate.
///
/// # Panics
///
/// Panics if the config has zero sessions, zero frames or a non-positive
/// rate — a misconfigured harness is a bug, not a load result.
pub fn run_streaming(
    request_for_session: &(dyn Fn(usize) -> LoadRequest + Sync),
    config: &StreamConfig,
) -> StreamReport {
    assert!(
        config.sessions > 0 && config.frames_per_session > 0 && config.frame_hz > 0.0,
        "a streaming scenario needs at least one session, one frame and a positive rate"
    );
    let period = Duration::from_secs_f64(1.0 / config.frame_hz);

    let per_session: Vec<(SessionReport, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.sessions)
            .map(|session| {
                let request = request_for_session(session);
                scope
                    .spawn(move || run_session(session, request, config.frames_per_session, period))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("session thread panicked"))
            .collect()
    });

    // Aggregate percentiles need the raw samples, which the per-session
    // reports deliberately do not carry — run_session returns them alongside.
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut reports = Vec::with_capacity(per_session.len());
    for (report, mut samples) in per_session {
        latencies_ms.append(&mut samples);
        reports.push(report);
    }
    latencies_ms.sort_by(f64::total_cmp);

    let jitter_mean_ms = if reports.is_empty() {
        0.0
    } else {
        reports.iter().map(|r| r.jitter_mean_ms).sum::<f64>() / reports.len() as f64
    };
    StreamReport {
        sessions: config.sessions,
        frame_hz: config.frame_hz,
        frames_per_session: config.frames_per_session,
        ok: reports.iter().map(|r| r.ok).sum(),
        rejected: reports.iter().map(|r| r.rejected).sum(),
        failed: reports.iter().map(|r| r.failed).sum(),
        stalls: reports.iter().map(|r| r.stalls).sum(),
        p50_ms: percentile_ms(&latencies_ms, 0.50),
        p99_ms: percentile_ms(&latencies_ms, 0.99),
        p999_ms: percentile_ms(&latencies_ms, 0.999),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
        jitter_mean_ms,
        jitter_max_ms: reports.iter().map(|r| r.jitter_max_ms).fold(0.0, f64::max),
        per_session: reports,
    }
}

/// One session: issue frames at their due times, join all frame threads,
/// reduce to a report plus the raw latency samples (for aggregate
/// percentiles).
fn run_session(
    session: usize,
    request: LoadRequest,
    frames: usize,
    period: Duration,
) -> (SessionReport, Vec<f64>) {
    let fired = fire(
        (0..frames).map(|frame| period.mul_f64(frame as f64)),
        |_| Arc::clone(&request),
    );
    let completed = fired.iter().filter(|f| f.outcome == Outcome::Ok);
    // A frame stalls the stream if it outlived the due time of the next one.
    let stalls = completed
        .clone()
        .filter(|f| f.completed_at > period.mul_f64((f.index + 1) as f64))
        .count();
    let mut completion_offsets: Vec<Duration> = completed.map(|f| f.completed_at).collect();
    completion_offsets.sort();
    let latencies_ms = sorted_ok_latencies_ms(&fired);
    let period_ms = period.as_secs_f64() * 1e3;
    let mut jitter_sum = 0.0f64;
    let mut jitter_max = 0.0f64;
    let mut gaps = 0usize;
    for pair in completion_offsets.windows(2) {
        let gap_ms = (pair[1] - pair[0]).as_secs_f64() * 1e3;
        let jitter = (gap_ms - period_ms).abs();
        jitter_sum += jitter;
        jitter_max = jitter_max.max(jitter);
        gaps += 1;
    }

    let report = SessionReport {
        session,
        frames,
        ok: count_outcome(&fired, Outcome::Ok),
        rejected: count_outcome(&fired, Outcome::Rejected),
        failed: count_outcome(&fired, Outcome::Failed),
        p50_ms: percentile_ms(&latencies_ms, 0.50),
        p99_ms: percentile_ms(&latencies_ms, 0.99),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
        stalls,
        jitter_mean_ms: if gaps > 0 {
            jitter_sum / gaps as f64
        } else {
            0.0
        },
        jitter_max_ms: jitter_max,
    };
    (report, latencies_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensembler_serve::{ErrorCode, ServeError, WireError};
    use std::time::Instant;

    #[test]
    fn sessions_stay_open_loop_and_tally_outcomes() {
        let config = StreamConfig {
            sessions: 3,
            frame_hz: 200.0,
            frames_per_session: 20,
        };
        let started = Instant::now();
        let report = run_streaming(
            &|session| -> LoadRequest {
                if session == 2 {
                    Arc::new(|| {
                        Err(ServeError::Remote(WireError {
                            code: ErrorCode::Overloaded,
                            message: "budget".to_string(),
                        }))
                    })
                } else {
                    Arc::new(|| Ok(()))
                }
            },
            &config,
        );
        let wall = started.elapsed();
        assert_eq!(report.ok, 40);
        assert_eq!(report.rejected, 20);
        assert_eq!(report.failed, 0);
        assert_eq!(report.per_session.len(), 3);
        assert_eq!(report.per_session[2].rejected, 20);
        // 20 frames at 200 Hz is a 95 ms schedule; instant responses must
        // not stretch it past ~3x (generous for a loaded CI machine).
        assert!(
            wall < Duration::from_millis(400),
            "streaming run took {wall:?}, schedule is ~95 ms"
        );
        assert!(report.summary().contains("3 sessions"));
    }

    #[test]
    fn slow_frames_are_counted_as_stalls() {
        let config = StreamConfig {
            sessions: 1,
            frame_hz: 100.0, // 10 ms period
            frames_per_session: 8,
        };
        let report = run_streaming(
            &|_| -> LoadRequest {
                Arc::new(|| {
                    std::thread::sleep(Duration::from_millis(25));
                    Ok(())
                })
            },
            &config,
        );
        assert_eq!(report.ok, 8);
        // Every frame takes 2.5 periods, so every frame outlives the next
        // frame's due time.
        assert_eq!(
            report.stalls, 8,
            "25 ms responses at a 10 ms period must all stall"
        );
    }

    #[test]
    #[should_panic(expected = "streaming scenario")]
    fn zero_sessions_is_a_configuration_bug() {
        let _ = run_streaming(
            &|_| -> LoadRequest { Arc::new(|| Ok(())) },
            &StreamConfig {
                sessions: 0,
                frame_hz: 10.0,
                frames_per_session: 1,
            },
        );
    }
}
