//! Trace-replay workloads: a small committed text format for request
//! arrival traces, a deterministic synthesizer for bursty/diurnal shapes,
//! and an open-loop replayer that drives a serving deployment through the
//! recorded schedule.
//!
//! Steady open-loop QPS (the [`crate::load`] harness) answers "what does the
//! tail look like at rate X" — but real front-ends are not steady. The
//! continuous-acquisition pipelines this deployment models push bursts and
//! diurnal swings, and admission-control tuning validated only against
//! steady state is guesswork. A trace pins a realistic arrival shape down to
//! the microsecond so the same load is replayable on every checkout.
//!
//! # The trace format (`ensembler-trace v1`)
//!
//! Plain text, one request per line; blank lines and `#` comments are
//! ignored:
//!
//! ```text
//! # ensembler-trace v1
//! 0.000 outputs
//! 12.500 outputs
//! 13.250 predict
//! ```
//!
//! Each line is `<offset_ms> <kind>`: a non-negative, non-decreasing arrival
//! offset in milliseconds from the start of the run (microsecond precision;
//! equal offsets are a legal burst), then a request kind — `outputs` (one
//! `server_outputs` exchange) or `predict` (a full predict round trip).
//! Parsing is total: malformed lines, non-monotonic offsets, absurd rates,
//! oversized traces and empty traces are all typed [`TraceError`]s, never
//! panics, in the same spirit as the artifact codec's fuzz contract.
//!
//! [`Trace::render`] is canonical — `Trace::parse(&t.render()) == t` — so a
//! synthesized trace can be committed, diffed and replayed byte-for-byte.

use crate::load::{fire, percentile_ms, sorted_ok_latencies_ms, LoadRequest, Outcome};
use ensembler_tensor::Rng;
use std::time::{Duration, Instant};

/// Hard cap on entries per trace: far above any committed workload, low
/// enough that a hostile file cannot balloon memory or thread counts.
pub const MAX_TRACE_ENTRIES: usize = 200_000;

/// Hard cap on the span of a trace (24 hours, in milliseconds).
pub const MAX_TRACE_SPAN_MS: f64 = 86_400_000.0;

/// Rate guard: every window of [`RATE_WINDOW`] consecutive arrivals must
/// span at least `RATE_WINDOW / MAX_WINDOW_QPS` seconds. Short bursts (up
/// to `RATE_WINDOW` back-to-back arrivals) stay legal; a *sustained*
/// schedule past 100k QPS is rejected as absurd before the replayer would
/// try to spawn threads at that rate.
pub const RATE_WINDOW: usize = 1_000;

/// See [`RATE_WINDOW`].
pub const MAX_WINDOW_QPS: f64 = 100_000.0;

/// What one trace line asks the replayer to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A full predict round trip (client features, server outputs,
    /// classification).
    Predict,
    /// One `server_outputs` exchange — the steady-state serving request.
    Outputs,
}

impl RequestKind {
    /// Every kind, in canonical report order.
    pub const ALL: [RequestKind; 2] = [RequestKind::Predict, RequestKind::Outputs];

    /// The token this kind uses in a trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Predict => "predict",
            RequestKind::Outputs => "outputs",
        }
    }

    fn parse(token: &str) -> Result<Self, String> {
        match token {
            "predict" => Ok(RequestKind::Predict),
            "outputs" => Ok(RequestKind::Outputs),
            other => Err(format!(
                "unknown request kind {other:?} (expected `predict` or `outputs`)"
            )),
        }
    }
}

impl std::fmt::Display for RequestKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One arrival in a trace: when (offset from run start, microsecond
/// precision) and what to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Arrival offset from the start of the run, in microseconds.
    pub offset_us: u64,
    /// The request this arrival issues.
    pub kind: RequestKind,
}

impl TraceEntry {
    /// The arrival offset as a [`Duration`].
    pub fn offset(&self) -> Duration {
        Duration::from_micros(self.offset_us)
    }
}

/// Why a trace failed to parse or validate. Every malformed input maps to
/// one of these — the parser never panics, mirroring the artifact codec's
/// fault-injection contract.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The file contained no entries (only comments and blank lines count
    /// as empty too): there is nothing to replay.
    Empty,
    /// A line did not parse as `<offset_ms> <kind>`.
    Malformed {
        /// 1-based line number in the input.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// An arrival offset went backwards.
    NonMonotonic {
        /// 1-based line number of the offending entry.
        line: usize,
        /// The previous entry's offset, in milliseconds.
        previous_ms: f64,
        /// The offending offset, in milliseconds.
        offset_ms: f64,
    },
    /// A window of [`RATE_WINDOW`] consecutive arrivals was faster than
    /// [`MAX_WINDOW_QPS`] sustained.
    AbsurdRate {
        /// 1-based line number where the window ends.
        line: usize,
        /// The span the window covered, in milliseconds.
        window_span_ms: f64,
        /// The minimum legal span for that window, in milliseconds.
        min_span_ms: f64,
    },
    /// More than [`MAX_TRACE_ENTRIES`] entries.
    TooLong {
        /// How many entries the input holds (counting stops at the cap).
        entries: usize,
        /// The cap that was exceeded.
        max: usize,
    },
    /// The final offset exceeded [`MAX_TRACE_SPAN_MS`].
    SpanTooLong {
        /// The offending offset, in milliseconds.
        offset_ms: f64,
        /// The cap it exceeded, in milliseconds.
        max_ms: f64,
    },
    /// The trace file could not be read.
    Io(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace holds no entries"),
            TraceError::Malformed { line, reason } => {
                write!(f, "trace line {line}: {reason}")
            }
            TraceError::NonMonotonic {
                line,
                previous_ms,
                offset_ms,
            } => write!(
                f,
                "trace line {line}: offset {offset_ms} ms goes backwards (previous {previous_ms} ms)"
            ),
            TraceError::AbsurdRate {
                line,
                window_span_ms,
                min_span_ms,
            } => write!(
                f,
                "trace line {line}: {RATE_WINDOW} arrivals in {window_span_ms:.3} ms (sustained rate above {MAX_WINDOW_QPS} QPS; window must span at least {min_span_ms:.3} ms)"
            ),
            TraceError::TooLong { entries, max } => {
                write!(f, "trace holds {entries}+ entries (cap {max})")
            }
            TraceError::SpanTooLong { offset_ms, max_ms } => {
                write!(f, "trace offset {offset_ms} ms exceeds the {max_ms} ms span cap")
            }
            TraceError::Io(reason) => write!(f, "trace io: {reason}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A validated arrival trace: non-empty, non-decreasing offsets, bounded
/// length, span and sustained rate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Builds a trace from raw entries, running the full validation the
    /// parser applies (entry indices stand in for line numbers in errors).
    pub fn from_entries(entries: Vec<TraceEntry>) -> Result<Self, TraceError> {
        validate_entries(&entries, |index| index + 1)?;
        Ok(Self { entries })
    }

    /// Parses the text trace format. See the [module docs](self) for the
    /// grammar and every typed failure mode.
    pub fn parse(text: &str) -> Result<Self, TraceError> {
        let mut entries: Vec<TraceEntry> = Vec::new();
        let mut lines: Vec<usize> = Vec::new();
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let content = raw.trim();
            if content.is_empty() || content.starts_with('#') {
                continue;
            }
            let mut tokens = content.split_whitespace();
            let offset_token = tokens.next().expect("non-empty trimmed line");
            let kind_token = tokens.next().ok_or_else(|| TraceError::Malformed {
                line,
                reason: "expected `<offset_ms> <kind>`, found one token".to_string(),
            })?;
            if let Some(extra) = tokens.next() {
                return Err(TraceError::Malformed {
                    line,
                    reason: format!("unexpected trailing token {extra:?}"),
                });
            }
            let offset_ms: f64 = offset_token.parse().map_err(|_| TraceError::Malformed {
                line,
                reason: format!("offset {offset_token:?} is not a number"),
            })?;
            if !offset_ms.is_finite() || offset_ms < 0.0 {
                return Err(TraceError::Malformed {
                    line,
                    reason: format!("offset {offset_token:?} must be finite and non-negative"),
                });
            }
            if offset_ms > MAX_TRACE_SPAN_MS {
                return Err(TraceError::SpanTooLong {
                    offset_ms,
                    max_ms: MAX_TRACE_SPAN_MS,
                });
            }
            let kind = RequestKind::parse(kind_token)
                .map_err(|reason| TraceError::Malformed { line, reason })?;
            if entries.len() >= MAX_TRACE_ENTRIES {
                return Err(TraceError::TooLong {
                    entries: entries.len() + 1,
                    max: MAX_TRACE_ENTRIES,
                });
            }
            entries.push(TraceEntry {
                offset_us: (offset_ms * 1_000.0).round() as u64,
                kind,
            });
            lines.push(line);
        }
        validate_entries(&entries, |index| lines[index])?;
        Ok(Self { entries })
    }

    /// Reads and parses a trace file.
    pub fn load(path: &std::path::Path) -> Result<Self, TraceError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// Renders the canonical text form: `Trace::parse(&t.render()) == t`.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 16 + 64);
        out.push_str("# ensembler-trace v1\n");
        out.push_str(&format!(
            "# {} entries over {:.3} ms\n",
            self.entries.len(),
            self.duration().as_secs_f64() * 1e3
        ));
        for entry in &self.entries {
            out.push_str(&format!(
                "{}.{:03} {}\n",
                entry.offset_us / 1_000,
                entry.offset_us % 1_000,
                entry.kind
            ));
        }
        out
    }

    /// The validated arrivals, ascending by offset.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always `false` — an empty trace cannot be constructed (it is a typed
    /// [`TraceError::Empty`]). Present for clippy's `len`-without-`is_empty`
    /// convention.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The arrival schedule alone — what the determinism property test
    /// compares across runs.
    pub fn schedule(&self) -> Vec<Duration> {
        self.entries.iter().map(TraceEntry::offset).collect()
    }

    /// Offset of the last arrival.
    pub fn duration(&self) -> Duration {
        self.entries
            .last()
            .map(TraceEntry::offset)
            .unwrap_or(Duration::ZERO)
    }

    /// Mean arrival rate over the whole trace, in requests per second.
    pub fn mean_qps(&self) -> f64 {
        let span_s = self.duration().as_secs_f64();
        if span_s <= 0.0 {
            return self.entries.len() as f64; // a pure burst at t=0
        }
        self.entries.len() as f64 / span_s
    }

    /// The busiest sliding window of `window` duration, in requests per
    /// second — the number an admission budget has to survive.
    pub fn peak_qps(&self, window: Duration) -> f64 {
        let window_us = window.as_micros().max(1) as u64;
        let mut best = 0usize;
        let mut lo = 0usize;
        for hi in 0..self.entries.len() {
            while self.entries[hi].offset_us - self.entries[lo].offset_us >= window_us {
                lo += 1;
            }
            best = best.max(hi - lo + 1);
        }
        best as f64 / window.as_secs_f64()
    }
}

fn validate_entries(
    entries: &[TraceEntry],
    line_of: impl Fn(usize) -> usize,
) -> Result<(), TraceError> {
    if entries.is_empty() {
        return Err(TraceError::Empty);
    }
    if entries.len() > MAX_TRACE_ENTRIES {
        return Err(TraceError::TooLong {
            entries: entries.len(),
            max: MAX_TRACE_ENTRIES,
        });
    }
    let min_window_us = (RATE_WINDOW as f64 / MAX_WINDOW_QPS * 1e6) as u64;
    for (index, entry) in entries.iter().enumerate() {
        if entry.offset_us as f64 / 1_000.0 > MAX_TRACE_SPAN_MS {
            return Err(TraceError::SpanTooLong {
                offset_ms: entry.offset_us as f64 / 1_000.0,
                max_ms: MAX_TRACE_SPAN_MS,
            });
        }
        if index > 0 {
            let previous = entries[index - 1].offset_us;
            if entry.offset_us < previous {
                return Err(TraceError::NonMonotonic {
                    line: line_of(index),
                    previous_ms: previous as f64 / 1_000.0,
                    offset_ms: entry.offset_us as f64 / 1_000.0,
                });
            }
        }
        if index >= RATE_WINDOW {
            let span_us = entry.offset_us - entries[index - RATE_WINDOW].offset_us;
            if span_us < min_window_us {
                return Err(TraceError::AbsurdRate {
                    line: line_of(index),
                    window_span_ms: span_us as f64 / 1_000.0,
                    min_span_ms: min_window_us as f64 / 1_000.0,
                });
            }
        }
    }
    Ok(())
}

/// The arrival-rate shapes [`synthesize`] can generate. All rates are in
/// requests per second; all durations in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceShape {
    /// Constant rate — the trace-format twin of the open-loop harness,
    /// useful for differential runs.
    Steady {
        /// Arrival rate.
        qps: f64,
        /// Trace length.
        duration_s: f64,
    },
    /// A square wave: `burst_qps` for the first `burst_fraction` of every
    /// period, `base_qps` for the rest — the on/off shape of frame-dump
    /// acquisition windows.
    Bursty {
        /// Rate outside bursts.
        base_qps: f64,
        /// Rate inside bursts.
        burst_qps: f64,
        /// Length of one burst/quiet cycle.
        period_s: f64,
        /// Fraction of each period spent bursting, in `(0, 1)`.
        burst_fraction: f64,
        /// Trace length.
        duration_s: f64,
    },
    /// A smooth sinusoidal swing between `low_qps` and `peak_qps` over each
    /// period — a compressed day of diurnal traffic.
    Diurnal {
        /// Trough rate.
        low_qps: f64,
        /// Crest rate.
        peak_qps: f64,
        /// Length of one low→peak→low cycle.
        period_s: f64,
        /// Trace length.
        duration_s: f64,
    },
}

impl TraceShape {
    /// The instantaneous arrival rate at `t` seconds.
    pub fn rate_at(&self, t_s: f64) -> f64 {
        match *self {
            TraceShape::Steady { qps, .. } => qps,
            TraceShape::Bursty {
                base_qps,
                burst_qps,
                period_s,
                burst_fraction,
                ..
            } => {
                if (t_s % period_s) < period_s * burst_fraction {
                    burst_qps
                } else {
                    base_qps
                }
            }
            TraceShape::Diurnal {
                low_qps,
                peak_qps,
                period_s,
                ..
            } => {
                let phase = (t_s / period_s) * std::f64::consts::TAU;
                low_qps + (peak_qps - low_qps) * (0.5 - 0.5 * phase.cos())
            }
        }
    }

    fn duration_s(&self) -> f64 {
        match *self {
            TraceShape::Steady { duration_s, .. }
            | TraceShape::Bursty { duration_s, .. }
            | TraceShape::Diurnal { duration_s, .. } => duration_s,
        }
    }

    fn validate(&self) -> Result<(), TraceError> {
        let bad = |reason: &str| TraceError::Malformed {
            line: 0,
            reason: format!("invalid shape: {reason}"),
        };
        let positive = |v: f64, name: &str| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(bad(&format!("{name} must be positive and finite, got {v}")))
            }
        };
        match *self {
            TraceShape::Steady { qps, duration_s } => {
                positive(qps, "qps")?;
                positive(duration_s, "duration_s")
            }
            TraceShape::Bursty {
                base_qps,
                burst_qps,
                period_s,
                burst_fraction,
                duration_s,
            } => {
                positive(base_qps, "base_qps")?;
                positive(burst_qps, "burst_qps")?;
                positive(period_s, "period_s")?;
                positive(duration_s, "duration_s")?;
                if !(burst_fraction > 0.0 && burst_fraction < 1.0) {
                    return Err(bad(&format!(
                        "burst_fraction must be in (0, 1), got {burst_fraction}"
                    )));
                }
                Ok(())
            }
            TraceShape::Diurnal {
                low_qps,
                peak_qps,
                period_s,
                duration_s,
            } => {
                positive(low_qps, "low_qps")?;
                positive(peak_qps, "peak_qps")?;
                positive(period_s, "period_s")?;
                positive(duration_s, "duration_s")
            }
        }
    }
}

/// Synthesizes a trace from a rate shape, deterministically in `seed`: the
/// same `(shape, seed)` always produces the byte-identical trace (the
/// property suite pins it, and the committed example trace is reproduced by
/// its generator spec in CI). Inter-arrival gaps are `1/rate` with ±50%
/// uniform jitter; roughly one arrival in eight is a full `predict`, the
/// rest are `outputs` exchanges.
///
/// # Errors
///
/// Returns a typed [`TraceError`] for non-positive or non-finite shape
/// parameters, or when the shape produces a trace past the length cap.
pub fn synthesize(shape: &TraceShape, seed: u64) -> Result<Trace, TraceError> {
    shape.validate()?;
    let duration_s = shape.duration_s();
    let mut rng = Rng::seed_from(seed ^ 0x7472_6163); // "trac"
    let mut entries = Vec::new();
    let mut t_s = 0.0f64;
    loop {
        let rate = shape.rate_at(t_s).max(1e-9);
        let jitter = rng.uniform(0.5, 1.5) as f64;
        t_s += jitter / rate;
        if t_s >= duration_s {
            break;
        }
        if entries.len() >= MAX_TRACE_ENTRIES {
            return Err(TraceError::TooLong {
                entries: entries.len() + 1,
                max: MAX_TRACE_ENTRIES,
            });
        }
        let kind = if rng.below(8) == 0 {
            RequestKind::Predict
        } else {
            RequestKind::Outputs
        };
        entries.push(TraceEntry {
            offset_us: (t_s * 1e6).round() as u64,
            kind,
        });
    }
    Trace::from_entries(entries)
}

/// The generator spec of the committed example trace
/// (`crates/bench/traces/bursty_demo.trace`): four seconds of 20 QPS base
/// load with 120 QPS bursts for the first quarter of every second, seed 7.
/// `trace_gen` writes it with its defaults and the determinism suite pins
/// the committed file byte-for-byte against this function.
pub fn demo_bursty_trace() -> Trace {
    synthesize(
        &TraceShape::Bursty {
            base_qps: 20.0,
            burst_qps: 120.0,
            period_s: 1.0,
            burst_fraction: 0.25,
            duration_s: 4.0,
        },
        7,
    )
    .expect("the demo shape is valid and bounded")
}

/// Outcome tally for one request kind in a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindTally {
    /// The kind this row counts.
    pub kind: RequestKind,
    /// Arrivals of this kind the trace scheduled.
    pub issued: usize,
    /// Completed.
    pub ok: usize,
    /// Typed `Overloaded` rejections.
    pub rejected: usize,
    /// Everything else.
    pub failed: usize,
}

/// What one trace replay measured: the trace's own shape numbers, per-kind
/// outcome tallies (deterministic given a deterministic deployment) and the
/// timing the machine produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Arrivals replayed.
    pub entries: usize,
    /// Trace span in seconds.
    pub duration_s: f64,
    /// Mean scheduled rate.
    pub mean_qps: f64,
    /// Busiest 1-second window of the schedule.
    pub peak_qps_1s: f64,
    /// Completed requests.
    pub ok: usize,
    /// Typed `Overloaded` rejections.
    pub rejected: usize,
    /// Transport/protocol/inference failures.
    pub failed: usize,
    /// Completions per second actually achieved.
    pub achieved_qps: f64,
    /// Median latency of completed requests, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, in milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, in milliseconds.
    pub p999_ms: f64,
    /// Slowest completed request, in milliseconds.
    pub max_ms: f64,
    /// Per-kind outcome rows in [`RequestKind::ALL`] order.
    pub per_kind: Vec<KindTally>,
}

impl TraceReport {
    /// The outcome classification alone — the part of a replay that must be
    /// identical across two runs of the same trace against the same
    /// deployment (the timing fields are the machine's, not the trace's).
    pub fn outcome_signature(&self) -> (usize, usize, usize, Vec<KindTally>) {
        (self.ok, self.rejected, self.failed, self.per_kind.clone())
    }

    /// One-line human summary, as printed by `load_gen --replay`.
    pub fn summary(&self) -> String {
        format!(
            "replay {:5} reqs over {:6.2} s (mean {:6.1} qps, peak-1s {:6.1}) | {} ok, {} rejected, {} failed | p50 {:8.3} ms | p99 {:8.3} ms | p999 {:8.3} ms",
            self.entries,
            self.duration_s,
            self.mean_qps,
            self.peak_qps_1s,
            self.ok,
            self.rejected,
            self.failed,
            self.p50_ms,
            self.p99_ms,
            self.p999_ms,
        )
    }
}

/// Replays `trace` open-loop against a deployment: each arrival fires at its
/// recorded offset on its own thread (a slow response never delays a later
/// arrival), using the request closure `request_for` built per kind, and
/// every outcome is classified with the same typed rules as
/// [`crate::load::run_open_loop`].
pub fn run_trace_replay(
    trace: &Trace,
    request_for: impl Fn(RequestKind) -> LoadRequest,
) -> TraceReport {
    let requests: Vec<(RequestKind, LoadRequest)> = RequestKind::ALL
        .iter()
        .map(|&kind| (kind, request_for(kind)))
        .collect();
    let request_of = |kind: RequestKind| -> LoadRequest {
        let (_, request) = requests
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("ALL covers every kind");
        std::sync::Arc::clone(request)
    };

    let start = Instant::now();
    let fired = fire(trace.entries().iter().map(TraceEntry::offset), |index| {
        request_of(trace.entries()[index].kind)
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut tallies: Vec<KindTally> = RequestKind::ALL
        .iter()
        .map(|&kind| KindTally {
            kind,
            issued: 0,
            ok: 0,
            rejected: 0,
            failed: 0,
        })
        .collect();
    for request in &fired {
        // The kind comes from the schedule, not from the request thread, so
        // a request that panicked is still tallied where it belongs.
        let kind = trace.entries()[request.index].kind;
        let tally = tallies
            .iter_mut()
            .find(|t| t.kind == kind)
            .expect("ALL covers every kind");
        tally.issued += 1;
        match request.outcome {
            Outcome::Ok => tally.ok += 1,
            Outcome::Rejected => tally.rejected += 1,
            Outcome::Failed => tally.failed += 1,
        }
    }
    let latencies_ms = sorted_ok_latencies_ms(&fired);
    let ok: usize = tallies.iter().map(|t| t.ok).sum();
    TraceReport {
        entries: trace.len(),
        duration_s: trace.duration().as_secs_f64(),
        mean_qps: trace.mean_qps(),
        peak_qps_1s: trace.peak_qps(Duration::from_secs(1)),
        ok,
        rejected: tallies.iter().map(|t| t.rejected).sum(),
        failed: tallies.iter().map(|t| t.failed).sum(),
        achieved_qps: if wall_s > 0.0 {
            ok as f64 / wall_s
        } else {
            0.0
        },
        p50_ms: percentile_ms(&latencies_ms, 0.50),
        p99_ms: percentile_ms(&latencies_ms, 0.99),
        p999_ms: percentile_ms(&latencies_ms, 0.999),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
        per_kind: tallies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensembler_serve::{ErrorCode, ServeError, WireError};
    use std::sync::Arc;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let trace = Trace::parse(
            "# ensembler-trace v1\n\n0.000 outputs\n12.500 outputs\n  13.250   predict  \n",
        )
        .expect("valid trace");
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.entries()[1].offset_us, 12_500);
        assert_eq!(trace.entries()[2].kind, RequestKind::Predict);
        assert_eq!(trace.duration(), Duration::from_micros(13_250));
    }

    #[test]
    fn render_parse_roundtrip_is_identity() {
        let trace = demo_bursty_trace();
        let reparsed = Trace::parse(&trace.render()).expect("canonical form parses");
        assert_eq!(trace, reparsed);
    }

    #[test]
    fn synthesis_is_deterministic_in_the_seed() {
        let shape = TraceShape::Diurnal {
            low_qps: 5.0,
            peak_qps: 50.0,
            period_s: 2.0,
            duration_s: 3.0,
        };
        assert_eq!(
            synthesize(&shape, 9).unwrap(),
            synthesize(&shape, 9).unwrap()
        );
        assert_ne!(
            synthesize(&shape, 9).unwrap(),
            synthesize(&shape, 10).unwrap()
        );
    }

    #[test]
    fn peak_qps_sees_the_bursts() {
        let trace = demo_bursty_trace();
        let mean = trace.mean_qps();
        let peak = trace.peak_qps(Duration::from_millis(250));
        assert!(
            peak > mean * 1.5,
            "bursty trace must have a peak well above its mean (mean {mean:.1}, peak {peak:.1})"
        );
    }

    #[test]
    fn replay_classifies_and_tallies_per_kind() {
        let trace = Trace::from_entries(
            (0..30)
                .map(|i| TraceEntry {
                    offset_us: i * 500,
                    kind: if i % 3 == 0 {
                        RequestKind::Predict
                    } else {
                        RequestKind::Outputs
                    },
                })
                .collect(),
        )
        .expect("valid entries");
        let report = run_trace_replay(&trace, |kind| match kind {
            RequestKind::Predict => Arc::new(|| Ok(())),
            RequestKind::Outputs => Arc::new(|| {
                Err(ServeError::Remote(WireError {
                    code: ErrorCode::Overloaded,
                    message: "budget".to_string(),
                }))
            }),
        });
        assert_eq!(report.entries, 30);
        assert_eq!(report.ok, 10);
        assert_eq!(report.rejected, 20);
        assert_eq!(report.failed, 0);
        let predict = report
            .per_kind
            .iter()
            .find(|t| t.kind == RequestKind::Predict);
        assert_eq!(predict.unwrap().ok, 10);
        let outputs = report
            .per_kind
            .iter()
            .find(|t| t.kind == RequestKind::Outputs);
        assert_eq!(outputs.unwrap().rejected, 20);
    }

    #[test]
    fn a_panicked_request_is_tallied_under_its_own_kind() {
        let entry = |offset_us, kind| TraceEntry { offset_us, kind };
        let trace = Trace::from_entries(vec![
            entry(0, RequestKind::Predict),
            entry(200, RequestKind::Outputs),
        ])
        .expect("valid entries");
        let report = run_trace_replay(&trace, |kind| match kind {
            RequestKind::Predict => Arc::new(|| panic!("the request thread dies")),
            RequestKind::Outputs => Arc::new(|| Ok(())),
        });
        let tally = |kind| *report.per_kind.iter().find(|t| t.kind == kind).unwrap();
        let predict = tally(RequestKind::Predict);
        assert_eq!((predict.issued, predict.failed), (1, 1));
        let outputs = tally(RequestKind::Outputs);
        assert_eq!((outputs.issued, outputs.ok, outputs.failed), (1, 1, 0));
    }
}
