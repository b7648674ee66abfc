//! Stand-alone multi-model defense server: the untrusted-cloud process of
//! the paper's deployment.
//!
//! Builds its models from model sources (so a `remote_client` given the same
//! source holds a bit-identical replica) and serves their `server_outputs`
//! stages over TCP until killed, logging a stats line whenever the counters
//! move.
//!
//! Usage: `cargo run -p ensembler-serve --bin serve_defense --release \
//!     [-- ADDR [SOURCE] [--model NAME=SOURCE]... [--canary NAME=SOURCE@PCT%]... \
//!        [--manifest FILE]]`
//! Defaults: `127.0.0.1:7878 4,2,17`.
//!
//! A `SOURCE` is either a demo spec `N,P,SEED[,int8]` or the path of a
//! model artifact exported by `export_model` (see
//! `docs/MODEL_ARTIFACTS.md`). The positional `SOURCE` is the **default**
//! model (the one nameless hellos get); `4,2,17,int8` quantizes it, which is
//! how a `shard_router` int8 worker is launched — the router's nameless
//! handshake reaches the default model. Each repeatable `--model` flag
//! serves one more model under its own name; clients pick it with
//! `remote_client --model NAME`. Each `--canary` flag serves a second
//! version under a name at the given traffic share. The flags are one
//! manifest, applied with `ModelRegistry::reconcile` at startup.
//!
//! `--manifest FILE` turns the model set *live* instead: the file (one
//! `NAME=SOURCE[@PCT%]` per line) is watched for changes, and every edit is
//! reconciled onto the running server — models are added, hot-swapped,
//! canaried, promoted and removed with zero dropped requests. It owns the
//! model set, so it is refused together with `--model` or `--canary`. The
//! operator guide, including admission-control tuning, lives in
//! `docs/SERVING.md`.

use ensembler_serve::cli::positional;
use ensembler_serve::{
    CanarySpec, DefenseServer, Manifest, ModelRegistry, ModelSource, ModelSpec, ServerConfig,
};
use std::path::PathBuf;
use std::sync::Arc;

const USAGE: &str = "usage: serve_defense ADDR [SOURCE] [--model NAME=SOURCE]... \
                     [--canary NAME=SOURCE@PCT%]... [--manifest FILE]";

/// The flag-parsed command line: positionals, the `--model` / `--canary`
/// flags as one manifest, and the `--manifest` file.
struct Args {
    positional: Vec<String>,
    flags: Manifest,
    manifest: Option<PathBuf>,
}

/// Splits the command line into positional arguments and the `--model` /
/// `--canary` / `--manifest` flags.
fn parse_args() -> Result<Args, Box<dyn std::error::Error>> {
    let mut parsed = Args {
        positional: Vec::new(),
        flags: Manifest::default(),
        manifest: None,
    };
    let mut args = std::env::args().skip(1);
    let value =
        |args: &mut dyn Iterator<Item = String>, flag: &str, inline: Option<&str>| match inline {
            Some(v) => Ok(v.to_string()),
            None => args
                .next()
                .ok_or_else(|| format!("{flag} needs an argument")),
        };
    while let Some(arg) = args.next() {
        if arg == "--model" || arg.starts_with("--model=") {
            let raw = value(&mut args, "--model", arg.strip_prefix("--model="))?;
            parsed.flags.models.push(ModelSpec::parse(&raw)?);
        } else if arg == "--canary" || arg.starts_with("--canary=") {
            let raw = value(&mut args, "--canary", arg.strip_prefix("--canary="))?;
            parsed.flags.canaries.push(CanarySpec::parse(&raw)?);
        } else if arg == "--manifest" || arg.starts_with("--manifest=") {
            let raw = value(&mut args, "--manifest", arg.strip_prefix("--manifest="))?;
            parsed.manifest = Some(PathBuf::from(raw));
        } else {
            parsed.positional.push(arg);
        }
    }
    if parsed.positional.len() > 2 {
        return Err(USAGE.into());
    }
    if parsed.manifest.is_some() && parsed.flags != Manifest::default() {
        return Err("use either --model/--canary flags or --manifest, not both".into());
    }
    Ok(parsed)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let Args {
        positional: args,
        flags,
        manifest,
    } = parse_args()?;
    let addr: String = positional(&args, 0, "127.0.0.1:7878".to_string());
    let source = ModelSource::parse(&positional(&args, 1, "4,2,17".to_string()))?;

    let config = ServerConfig::default();
    let default_model = source.build()?;
    let label = default_model.label().to_string();
    let registry = ModelRegistry::new("default", default_model)?;
    let actions = registry.reconcile(&flags)?;
    let server = DefenseServer::bind_registry(registry, addr.as_str(), config)?;

    println!(
        "serving {} model(s) on {} — default: {label} from {source}",
        server.registry().len(),
        server.local_addr(),
    );
    for action in actions {
        println!("  {action}");
    }
    println!(
        "admission: {} connections; {} reqs / {} MiB per server, {} reqs / {} MiB per connection",
        config.admission.max_connections,
        config.admission.max_inflight_requests,
        config.admission.max_inflight_bytes >> 20,
        config.admission.max_connection_inflight_requests,
        config.admission.max_connection_inflight_bytes >> 20,
    );
    if let Some(path) = &manifest {
        println!("watching manifest {} for model changes", path.display());
        watch_manifest(path.clone(), &server);
    }
    println!("stop with Ctrl-C; connect with:");
    println!(
        "  cargo run -p ensembler-serve --bin remote_client --release -- {} {source}",
        server.local_addr(),
    );
    for spec in &flags.models {
        println!(
            "  cargo run -p ensembler-serve --bin remote_client --release -- {} {} --model {}",
            server.local_addr(),
            spec.source,
            spec.name,
        );
    }

    let mut last = server.stats();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(5));
        let stats = server.stats();
        if stats != last {
            println!(
                "{} connections | {} served, {} rejected, {} errors | {} in flight ({} B)",
                stats.connections_accepted,
                stats.requests_served,
                stats.requests_rejected,
                stats.errors_sent,
                stats.inflight_requests,
                stats.inflight_bytes,
            );
            for model in &stats.per_model {
                if model.engine.requests_served > 0 || model.engine.queue_depth > 0 {
                    println!(
                        "  {} ({} {}): {} coalesced requests in {} batches (mean occupancy {:.2}, queue depth {})",
                        model.model,
                        model.role,
                        model.version,
                        model.engine.requests_served,
                        model.engine.batches_executed,
                        model.engine.mean_batch_occupancy(),
                        model.engine.queue_depth,
                    );
                }
            }
            last = stats;
        }
    }
}

/// Spawns the manifest watcher: polls the file's modification time twice a
/// second and reconciles the server's registry whenever it moves. Reconcile
/// errors are logged and retried on the next change — a bad manifest edit
/// must never take the serving process down.
fn watch_manifest(path: PathBuf, server: &DefenseServer) {
    let registry = Arc::clone(server.registry());
    std::thread::spawn(move || {
        let mtime = |path: &PathBuf| std::fs::metadata(path).and_then(|m| m.modified()).ok();
        let mut last_seen = mtime(&path);
        // Apply the manifest once at startup, so a server launched after a
        // crash converges to the manifest without waiting for an edit.
        let apply = |what: &str| match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Manifest::parse(&text).map_err(|e| e.to_string()))
            .and_then(|m| registry.reconcile(&m).map_err(|e| e.to_string()))
        {
            Ok(actions) => {
                for action in actions {
                    println!("manifest {what}: {action}");
                }
            }
            Err(error) => println!("manifest {what} failed (will retry on next change): {error}"),
        };
        apply("startup");
        loop {
            std::thread::sleep(std::time::Duration::from_millis(500));
            let current = mtime(&path);
            if current != last_seen {
                last_seen = current;
                apply("reload");
            }
        }
    });
}
