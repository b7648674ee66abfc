//! The repository's benchmark. See `benchmark/README.md` for what each
//! workload and metric means and `BENCHMARK.json` for the contract.
//!
//! ```text
//! ensembler-benchmark run [--seed N] [--seconds S | --smoke] [--out DIR]
//!     every workload, untraced then traced, each in a process of its own;
//!     prints every metric and writes DIR/result.json + DIR/trace-<w>.json
//! ensembler-benchmark run --workload NAME --trace 0|1 [--seed N] [--seconds S]
//!     one workload in this process; the last line of standard output is
//!     {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
//! ensembler-benchmark compare BASE.json NEW.json [--spec BENCHMARK.json]
//!     one row per (workload, end-to-end metric); exits 1 on any `worse`
//! ```

mod compare;
mod e2e;
mod host;
mod inputs;
mod layers;
mod load;
mod report;
mod stats;
mod system;
mod trace;

use ensembler_tensor::JsonValue;
use report::{metrics_json, obj, print_metrics, read_json, result_line, write_json, Measured};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use system::{Workload, WORKLOADS};

/// The measured window every bound in `BENCHMARK.json` was set at. Other
/// windows (warm-up, staged, probe slices) are fixed shares of it, so
/// `--seconds` scales all of them by one factor, recorded as `window_scale`.
const NOMINAL_SECONDS: f64 = 20.0;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, Box<dyn Error>> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: NOMINAL_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse()?,
            "--seconds" => parsed.seconds = value()?.parse()?,
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
                }
            }
            "--smoke" => parsed.seconds = 1.0,
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}").into()),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

/// One workload in this process. Returns whether every output was correct.
fn run_one(workload: &Workload, args: &RunArgs) -> Result<bool, Box<dyn Error>> {
    let (kind, file, run) = if args.trace {
        (
            "per_layer",
            "trace",
            layers::run(workload, args.seed, args.seconds)?,
        )
    } else {
        (
            "end_to_end",
            "e2e",
            e2e::run(workload, args.seed, args.seconds)?,
        )
    };
    let Measured {
        metrics,
        attempted,
        failed,
        correct,
        detail,
    } = run;
    write_json(
        &args.out,
        &format!("{file}-{}.json", workload.name),
        &obj(vec![
            ("workload", JsonValue::String(workload.name.to_string())),
            ("kind", JsonValue::String(kind.to_string())),
            ("seed", JsonValue::Number(args.seed as f64)),
            ("seconds", JsonValue::Number(args.seconds)),
            ("correct", JsonValue::Bool(correct)),
            ("attempted", JsonValue::Number(attempted as f64)),
            ("failed", JsonValue::Number(failed as f64)),
            ("metrics", metrics_json(&metrics)),
            ("detail", detail),
        ]),
    )?;
    print_metrics(workload.name, &metrics);
    println!(
        "{:<20} {:<40} {failed} of {attempted} operations failed (failed_share {:.6})",
        workload.name,
        kind,
        failed as f64 / attempted.max(1) as f64,
    );
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn first_line_of(command: &mut Command) -> Option<String> {
    let output = command.stderr(Stdio::null()).output().ok()?;
    output.status.success().then(|| {
        String::from_utf8_lossy(&output.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

/// Where and on what the numbers were taken, so none is ever read without
/// knowing how many cores it came from.
fn header(args: &RunArgs) -> JsonValue {
    let git_sha = first_line_of(Command::new("git").args(["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".to_string());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // The kernels in `ensembler-tensor` dispatch on exactly these runtime
    // checks; the dispatch itself cannot be observed from outside the crate.
    #[cfg(target_arch = "x86_64")]
    let avx2 =
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    obj(vec![
        ("git_sha", JsonValue::String(git_sha)),
        (
            "nproc",
            JsonValue::Number(std::thread::available_parallelism().map_or(1, |c| c.get()) as f64),
        ),
        ("cpu_model", JsonValue::String(cpu_model)),
        ("avx2_fma_kernels", JsonValue::Bool(avx2)),
        ("seed", JsonValue::Number(args.seed as f64)),
        ("seconds", JsonValue::Number(args.seconds)),
        (
            "window_scale",
            JsonValue::Number(args.seconds / NOMINAL_SECONDS),
        ),
    ])
}

/// Every workload, each run in a fresh process so set-up time and peak
/// memory are per workload. Returns whether every run was correct.
fn run_all(args: &RunArgs) -> Result<bool, Box<dyn Error>> {
    let exe = std::env::current_exe()?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in &WORKLOADS {
        let mut child = |trace: &str, file: &str| -> Result<JsonValue, Box<dyn Error>> {
            let path = args.out.join(format!("{file}-{}.json", workload.name));
            let _ = std::fs::remove_file(&path); // never report a stale run
            let status = Command::new(&exe)
                .args(["run", "--workload", workload.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&args.out)
                .status()?;
            all_correct &= status.success();
            // A run that found a wrong answer still wrote its file; one
            // that could not run at all did not.
            Ok(read_json(&path).unwrap_or(JsonValue::Null))
        };
        let end_to_end = child("0", "e2e")?;
        // The spans stay in trace-<workload>.json; result.json keeps the
        // readings.
        let per_layer = match child("1", "trace")? {
            JsonValue::Object(fields) => {
                JsonValue::Object(fields.into_iter().filter(|(k, _)| k != "detail").collect())
            }
            other => other,
        };
        workloads.push((
            workload.name.to_string(),
            obj(vec![("end_to_end", end_to_end), ("per_layer", per_layer)]),
        ));
    }
    let result = obj(vec![
        (
            "benchmark",
            JsonValue::String("ensembler-benchmark".to_string()),
        ),
        ("header", header(args)),
        ("workloads", JsonValue::Object(workloads)),
    ]);
    write_json(&args.out, "result.json", &result)?;
    println!("wrote {}", args.out.join("result.json").display());
    Ok(all_correct)
}

fn dispatch(args: &[String]) -> Result<bool, Box<dyn Error>> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let run = parse_run(&args[1..])?;
            match &run.workload {
                None => run_all(&run),
                Some(name) => {
                    let workload = WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload {name:?}"))?;
                    run_one(workload, &run)
                }
            }
        }
        Some("compare") => {
            let mut spec = PathBuf::from("BENCHMARK.json");
            let mut files = Vec::new();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                if arg == "--spec" {
                    spec = PathBuf::from(it.next().ok_or("--spec needs a value")?);
                } else {
                    files.push(Path::new(arg));
                }
            }
            let [base, new] = files[..] else {
                return Err("compare takes exactly two result files".into());
            };
            compare::run(&read_json(&spec)?, &read_json(base)?, &read_json(new)?)
        }
        _ => Err("usage: ensembler-benchmark run [--workload NAME --trace 0|1] [--seed N] [--seconds S | --smoke] [--out DIR]\n       ensembler-benchmark compare BASE.json NEW.json [--spec BENCHMARK.json]".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::from(2)
        }
    }
}
