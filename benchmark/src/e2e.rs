//! The untraced run: what a user of the system sees. Tracing is off
//! throughout; the per-layer numbers come from a separate run (`layers.rs`).

use crate::host::HostMeter;
use crate::inputs::image_pool;
use crate::load::{closed_loop, Op};
use crate::report::{Measured, Metric};
use crate::stats::{median, percentile, sorted, supports_percentile};
use crate::system::{bit_identical, reference_logits, Rig, Workload};
use ensembler::Defense;
use ensembler_serve::ServerStats;
use ensembler_tensor::{JsonValue, Tensor};
use std::error::Error;
use std::time::{Duration, Instant};

/// A run is this many quarters, each a complete small run of its own: timed
/// set-ups, a warm-up, and a closed-loop window on a freshly built system.
pub const QUARTERS: usize = 4;
/// Timed set-ups per quarter; the quarter's set-up time is their median.
pub const SETUPS_PER_QUARTER: usize = 5;
/// Warm-up as a share of the measured window (2 s for the nominal 20 s).
pub const WARMUP_SHARE: f64 = 0.1;

/// Pool index of operation `id`: consecutive operations walk the pool, so
/// concurrent callers never hold the same batch.
pub fn pool_index(id: u64, pool_len: usize) -> usize {
    (id % pool_len as u64) as usize
}

/// Runs `callers` closed-loop callers of `entry.predict` for `window`.
pub fn predict_window(
    entry: &dyn Defense,
    callers: usize,
    window: Duration,
    epoch: Instant,
    pool: &[Tensor],
    refs: &[Tensor],
) -> Vec<Op> {
    closed_loop(
        callers,
        window,
        epoch,
        |_| (),
        |(), id| entry.predict(&pool[pool_index(id, pool.len())]),
        |id, answer| {
            answer.is_ok_and(|logits| bit_identical(&logits, &refs[pool_index(id, refs.len())]))
        },
    )
    .into_iter()
    .flat_map(|((), ops)| ops)
    .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, Box<dyn Error>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .ok_or("malformed VmHWM line")?
        .parse()?;
    Ok(kb / 1024.0)
}

/// What one quarter of a run measured, as the clock read it.
struct Quarter {
    /// How slow the host was over the quarter (see `host.rs`); 1 is the
    /// reference host.
    host_factor: f64,
    p50_ms: f64,
    p95_ms: f64,
    /// Verified images per second, from the window's start to its last
    /// completion.
    images_per_s: f64,
    /// Median of the quarter's timed set-ups.
    setup_s: f64,
    attempted: usize,
    failed: usize,
    /// Latencies of the verified operations, ascending.
    latencies_ms: Vec<f64>,
    busy_s: f64,
    servers: Vec<ServerStats>,
}

/// One quarter: `SETUPS_PER_QUARTER` timed set-ups, a warm-up, then `window`
/// of closed-loop load on the last system built.
fn quarter(
    workload: &Workload,
    window: Duration,
    pool: &[Tensor],
    refs: &[Tensor],
) -> Result<Quarter, Box<dyn Error>> {
    let meter = HostMeter::start();
    // Set-up is timed to the first verified answer: build the pipeline, bind
    // and handshake, and one `predict`, which is what compiles the lazily
    // built body plans.
    let mut setups_s = Vec::with_capacity(SETUPS_PER_QUARTER);
    let mut rig = None;
    for _ in 0..SETUPS_PER_QUARTER {
        if let Some(previous) = rig.take() {
            Rig::shutdown(previous);
        }
        let start = Instant::now();
        let built = Rig::build(workload.deployment)?;
        let first = built.entry.predict(&pool[0])?;
        setups_s.push(start.elapsed().as_secs_f64());
        if !bit_identical(&first, &refs[0]) {
            return Err("first answer after set-up differs from the reference".into());
        }
        rig = Some(built);
    }
    let rig = rig.expect("SETUPS_PER_QUARTER is positive");

    let epoch = Instant::now();
    predict_window(
        &*rig.entry,
        workload.callers,
        window.mul_f64(WARMUP_SHARE),
        epoch,
        pool,
        refs,
    );
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let ops = predict_window(&*rig.entry, workload.callers, window, epoch, pool, refs);
    let servers = rig.shutdown();
    let host_factor = meter.finish();

    let latencies_ms = sorted(&ops.iter().filter(|o| o.ok).map(Op::ms).collect::<Vec<_>>());
    let last_end_ns = ops.iter().map(|o| o.end_ns).max().unwrap_or(start_ns);
    if latencies_ms.is_empty() || last_end_ns <= start_ns {
        return Err("no operation succeeded in a measured window".into());
    }
    let busy_s = (last_end_ns - start_ns) as f64 / 1e9;
    Ok(Quarter {
        host_factor,
        p50_ms: percentile(&latencies_ms, 50.0),
        p95_ms: percentile(&latencies_ms, 95.0),
        images_per_s: (latencies_ms.len() * workload.batch) as f64 / busy_s,
        setup_s: median(&setups_s),
        attempted: ops.len(),
        failed: ops.iter().filter(|o| !o.ok).count(),
        latencies_ms,
        busy_s,
        servers,
    })
}

/// One complete untraced run of `workload`.
///
/// # Errors
///
/// Returns an error when the system cannot be set up or no operation
/// succeeded (there is then no latency to report).
pub fn run(workload: &Workload, seed: u64, seconds: f64) -> Result<Measured, Box<dyn Error>> {
    let pool = image_pool(seed, workload.batch);
    let reference_start = Instant::now();
    let refs = reference_logits(workload.deployment, &pool)?;
    let reference_s = reference_start.elapsed().as_secs_f64();

    let window = Duration::from_secs_f64(seconds / QUARTERS as f64);
    let quarters = (0..QUARTERS)
        .map(|_| quarter(workload, window, &pool, &refs))
        .collect::<Result<Vec<_>, _>>()?;
    let rss = peak_rss_mb()?;

    // Each timing metric is the best of its four quarter readings, each
    // reading first divided by the quarter's host factor. The host's speed
    // comes in regimes that last a minute or two and move one batch-32
    // `predict` between 13 and 20 ms with no change to the program:
    // interference only ever adds time, so the best quarter is the best
    // estimate of what the code itself costs, and where a regime covers the
    // whole run the host factor takes out about half of it. At the nominal
    // 20 s every quarter holds >= 200 operations on every workload, so its
    // p95 has ten samples beyond it. The readings as the clock gave them,
    // and the whole run's, are in the JSON file.
    let time = |f: fn(&Quarter) -> f64| move |q: &Quarter| f(q) / q.host_factor;
    let p50 = time(|q| q.p50_ms);
    let p95 = time(|q| q.p95_ms);
    let setup = time(|q| q.setup_s);
    let rate = |q: &Quarter| q.images_per_s * q.host_factor;
    let least = |f: &dyn Fn(&Quarter) -> f64| quarters.iter().map(f).fold(f64::INFINITY, f64::min);
    let fewest = quarters
        .iter()
        .map(|q| q.latencies_ms.len())
        .min()
        .unwrap_or(0);
    let metrics = vec![
        Metric::of_samples("predict_p50_ms", least(&p50), "ms", fewest),
        Metric::of_samples("predict_p95_ms", least(&p95), "ms", fewest),
        Metric::of_samples(
            "images_per_s",
            quarters.iter().map(rate).fold(f64::NEG_INFINITY, f64::max),
            "img/s",
            fewest,
        ),
        Metric::of_samples("setup_s", least(&setup), "s", SETUPS_PER_QUARTER),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];

    let attempted: usize = quarters.iter().map(|q| q.attempted).sum();
    let failed: usize = quarters.iter().map(|q| q.failed).sum();
    let all_ms = sorted(
        &quarters
            .iter()
            .flat_map(|q| q.latencies_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    let busy_s: f64 = quarters.iter().map(|q| q.busy_s).sum();
    let per_quarter = |f: &dyn Fn(&Quarter) -> f64| -> JsonValue {
        JsonValue::Array(quarters.iter().map(|q| JsonValue::Number(f(q))).collect())
    };
    let n = |v: usize| JsonValue::Number(v as f64);
    let detail = JsonValue::Object(vec![
        ("samples".to_string(), n(all_ms.len())),
        ("attempted".to_string(), n(attempted)),
        ("failed".to_string(), n(failed)),
        (
            "failed_share".to_string(),
            JsonValue::Number(failed as f64 / attempted.max(1) as f64),
        ),
        (
            "p95_has_ten_samples_beyond".to_string(),
            JsonValue::Bool(supports_percentile(fewest, 95.0)),
        ),
        (
            "whole_run_as_clocked".to_string(),
            JsonValue::Object(vec![
                (
                    "predict_p50_ms".to_string(),
                    JsonValue::Number(percentile(&all_ms, 50.0)),
                ),
                (
                    "predict_p95_ms".to_string(),
                    JsonValue::Number(percentile(&all_ms, 95.0)),
                ),
                (
                    "images_per_s".to_string(),
                    JsonValue::Number((all_ms.len() * workload.batch) as f64 / busy_s),
                ),
            ]),
        ),
        ("reference_s".to_string(), JsonValue::Number(reference_s)),
        (
            "quarters".to_string(),
            JsonValue::Object(vec![
                ("predict_p50_ms".to_string(), per_quarter(&p50)),
                ("predict_p95_ms".to_string(), per_quarter(&p95)),
                ("images_per_s".to_string(), per_quarter(&rate)),
                ("setup_s".to_string(), per_quarter(&setup)),
            ]),
        ),
        (
            "quarters_as_clocked".to_string(),
            JsonValue::Object(vec![
                ("host_factor".to_string(), per_quarter(&|q| q.host_factor)),
                ("predict_p50_ms".to_string(), per_quarter(&|q| q.p50_ms)),
                ("predict_p95_ms".to_string(), per_quarter(&|q| q.p95_ms)),
                ("images_per_s".to_string(), per_quarter(&|q| q.images_per_s)),
                ("setup_s".to_string(), per_quarter(&|q| q.setup_s)),
                (
                    "samples".to_string(),
                    per_quarter(&|q| q.latencies_ms.len() as f64),
                ),
            ]),
        ),
        (
            "servers".to_string(),
            JsonValue::Array(
                quarters
                    .iter()
                    .flat_map(|q| &q.servers)
                    .map(|s| {
                        JsonValue::Object(vec![
                            ("requests_served".to_string(), n(s.requests_served as usize)),
                            (
                                "requests_rejected".to_string(),
                                n(s.requests_rejected as usize),
                            ),
                            ("errors_sent".to_string(), n(s.errors_sent as usize)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    // The metrics above are in milliseconds of the reference host; these are
    // the same quarters as this host's clock read them.
    let listed = |f: &dyn Fn(&Quarter) -> f64| -> String {
        let readings: Vec<String> = quarters.iter().map(|q| format!("{:.3}", f(q))).collect();
        readings.join(" ")
    };
    println!(
        "{:<20} as clocked, per quarter: predict_p50_ms [{}]  predict_p95_ms [{}]  host factor [{}]",
        workload.name,
        listed(&|q| q.p50_ms),
        listed(&|q| q.p95_ms),
        listed(&|q| q.host_factor),
    );
    Ok(Measured {
        metrics,
        attempted,
        failed,
        correct: failed == 0,
        detail,
    })
}
