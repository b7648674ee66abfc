//! Stand-alone edge client: connects to a running `serve_defense` process,
//! runs split inference with the `server_outputs` stage on the remote side,
//! and cross-checks the result against a fully local prediction.
//!
//! Usage: `cargo run -p ensembler-serve --bin remote_client --release \
//!     [-- ADDR [SOURCE] [BATCH] [--model NAME] [--retries K] [--backoff-ms MS]]`
//! Defaults: `127.0.0.1:7878 4,2,17 8`. `SOURCE` is the served model's
//! source — a demo spec `N,P,SEED[,int8]` or the artifact file the server
//! loaded — so both processes hold bit-identical weights. `--model NAME`
//! asks a multi-model server for one of its named models in the handshake;
//! without it the server serves its default model. The images come from a
//! fixed seed, whatever the source.
//!
//! Transient `Overloaded` rejections (admission budgets, the connection
//! limit, a draining replica) are retried with capped exponential backoff:
//! up to `--retries` extra attempts (default 3), starting at `--backoff-ms`
//! (default 50) and doubling per attempt, capped at five seconds. The
//! retry-on-Overloaded loop is the client half of the server's admission
//! contract; `--retries 0` restores fail-on-first-rejection.

use ensembler::Defense;
use ensembler_serve::cli::positional;
use ensembler_serve::{ModelSource, RemoteDefense};
use ensembler_tensor::{Rng, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: remote_client ADDR [SOURCE] [BATCH] [--model NAME] \
                     [--retries K] [--backoff-ms MS]";

/// Parsed command line: positional arguments, `--model NAME` and the
/// Overloaded-retry policy.
struct Args {
    positional: Vec<String>,
    model: Option<String>,
    retries: u32,
    backoff_ms: u64,
}

/// Splits the command line into positional arguments and the flags.
fn parse_args() -> Result<Args, Box<dyn std::error::Error>> {
    let mut positional = Vec::new();
    let mut model = None;
    let mut retries = 3;
    let mut backoff_ms = 50;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--model" {
            model = Some(args.next().ok_or("--model needs a NAME argument")?);
        } else if let Some(name) = arg.strip_prefix("--model=") {
            model = Some(name.to_string());
        } else if arg == "--retries" {
            retries = args.next().ok_or("--retries needs a count")?.parse()?;
        } else if let Some(count) = arg.strip_prefix("--retries=") {
            retries = count.parse()?;
        } else if arg == "--backoff-ms" {
            backoff_ms = args
                .next()
                .ok_or("--backoff-ms needs milliseconds")?
                .parse()?;
        } else if let Some(ms) = arg.strip_prefix("--backoff-ms=") {
            backoff_ms = ms.parse()?;
        } else {
            positional.push(arg);
        }
    }
    if positional.len() > 3 {
        return Err(USAGE.into());
    }
    Ok(Args {
        positional,
        model,
        retries,
        backoff_ms,
    })
}

/// The longest a single backoff sleep may grow, whatever `--backoff-ms` and
/// the doubling say.
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Runs `op`, retrying typed `Overloaded` rejections (and only those) with
/// capped exponential backoff. Any other failure propagates immediately —
/// a checksum mismatch or replica mismatch never gets better by waiting.
fn retry_overloaded<T, E: std::fmt::Display>(
    what: &str,
    retries: u32,
    backoff_ms: u64,
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let mut delay = Duration::from_millis(backoff_ms);
    for attempt in 0..retries {
        match op() {
            Err(error) if error.to_string().contains("Overloaded") => {
                eprintln!(
                    "{what} rejected ({error}); retry {}/{retries} in {delay:?}",
                    attempt + 1
                );
                std::thread::sleep(delay);
                delay = (delay * 2).min(BACKOFF_CAP);
            }
            outcome => return outcome,
        }
    }
    op()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let Args {
        positional: args,
        model,
        retries,
        backoff_ms,
    } = parse_args()?;
    let addr: String = positional(&args, 0, "127.0.0.1:7878".to_string());
    let source = ModelSource::parse(&positional(&args, 1, "4,2,17".to_string()))?;
    let batch: usize = positional(&args, 2, 8);

    let local = source.build()?;
    let remote = retry_overloaded("handshake", retries, backoff_ms, || match &model {
        Some(name) => RemoteDefense::connect_model(Arc::clone(&local), addr.as_str(), name),
        None => RemoteDefense::connect(Arc::clone(&local), addr.as_str()),
    })?;
    println!(
        "connected to {} at {addr} ({}), replica from {source}",
        remote.peer_label(),
        match remote.model() {
            Some(name) => format!("model {name}"),
            None => "default model".to_string(),
        },
    );

    let config = local.config().clone();
    let mut rng = Rng::seed_from(0x5EED ^ 17);
    let images = Tensor::from_fn(
        &[
            batch,
            config.input_channels,
            config.image_size,
            config.image_size,
        ],
        |_| rng.uniform(-1.0, 1.0),
    );

    let start = Instant::now();
    let remote_logits =
        retry_overloaded("request", retries, backoff_ms, || remote.predict(&images))?;
    let remote_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let local_logits = local.predict(&images)?;
    let local_ms = start.elapsed().as_secs_f64() * 1e3;

    let max_diff = remote_logits
        .data()
        .iter()
        .zip(local_logits.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);

    println!("batch of {batch}: remote {remote_ms:.2} ms, in-process {local_ms:.2} ms");
    println!(
        "max |remote - local| over {} logits: {max_diff} ({})",
        remote_logits.len(),
        if max_diff == 0.0 {
            "bit-identical"
        } else {
            "MISMATCH — does SOURCE match the served model?"
        }
    );
    if max_diff != 0.0 {
        std::process::exit(1);
    }
    Ok(())
}
