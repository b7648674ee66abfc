//! Deterministic trace synthesizer for the `ensembler-trace v1` format.
//!
//! Generates bursty, diurnal or steady arrival traces from a seed — the same
//! `(shape, seed)` always renders the byte-identical file, so a synthesized
//! trace can be committed and regenerated at will. With no flags it writes
//! exactly the committed example, `crates/bench/traces/bursty_demo.trace`
//! (the determinism suite pins that file against this generator).
//!
//! Usage:
//!   cargo run -p ensembler-bench --bin trace_gen [-- OPTIONS]
//!
//! Options:
//!   --shape NAME      `bursty` (default), `diurnal` or `steady`
//!   --seed N          synthesis seed (default `7`)
//!   --duration-s F    trace length in seconds (default `4`)
//!   --out PATH        write the trace to PATH (default: stdout)
//!
//! The per-shape rate parameters are fixed (bursty: 20 QPS base with 120 QPS
//! bursts for the first quarter of every second; diurnal: 5–60 QPS over a
//! 2 s period; steady: 45 QPS) so a trace is fully described by
//! `(shape, seed, duration)`.

use ensembler_bench::trace::{synthesize, TraceShape};

/// The fixed shape catalogue: rates are part of the trace spec, only the
/// duration is a knob.
fn shape_named(name: &str, duration_s: f64) -> TraceShape {
    match name {
        "bursty" => TraceShape::Bursty {
            base_qps: 20.0,
            burst_qps: 120.0,
            period_s: 1.0,
            burst_fraction: 0.25,
            duration_s,
        },
        "diurnal" => TraceShape::Diurnal {
            low_qps: 5.0,
            peak_qps: 60.0,
            period_s: 2.0,
            duration_s,
        },
        "steady" => TraceShape::Steady {
            qps: 45.0,
            duration_s,
        },
        other => panic!("unknown shape {other} (expected bursty, diurnal or steady)"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut shape_name = "bursty".to_string();
    let mut seed = 7u64;
    let mut duration_s = 4.0f64;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shape" => {
                i += 1;
                shape_name = args.get(i).expect("--shape needs a name").clone();
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .expect("--seed needs a number")
                    .parse()
                    .expect("--seed must be an unsigned integer");
            }
            "--duration-s" => {
                i += 1;
                duration_s = args
                    .get(i)
                    .expect("--duration-s needs a number")
                    .parse()
                    .expect("--duration-s must be a number");
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).expect("--out needs a path").clone());
            }
            other => panic!("unknown option {other} (see --shape, --seed, --duration-s, --out)"),
        }
        i += 1;
    }

    let shape = shape_named(&shape_name, duration_s);
    let trace = match synthesize(&shape, seed) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("trace_gen: {e}");
            std::process::exit(1);
        }
    };
    let text = trace.render();
    match out {
        Some(path) => {
            std::fs::write(&path, &text).expect("write trace file");
            eprintln!(
                "trace_gen: wrote {} entries ({} shape, seed {seed}, {duration_s} s, mean {:.1} qps) to {path}",
                trace.len(),
                shape_name,
                trace.mean_qps()
            );
        }
        None => print!("{text}"),
    }
}
