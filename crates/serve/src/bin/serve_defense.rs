//! Stand-alone multi-model defense server: the untrusted-cloud process of
//! the paper's deployment.
//!
//! Builds deterministic demo Ensemblers (so a `remote_client` given the same
//! `N P SEED` holds a bit-identical replica) and/or loads exported model
//! artifacts, and serves their `server_outputs` stages over TCP until
//! killed, logging a stats line whenever the counters move.
//!
//! Usage: `cargo run -p ensembler-serve --bin serve_defense --release \
//!     [-- ADDR [N] [P] [SEED[,int8]] [--model NAME=SOURCE]... \
//!        [--canary NAME=SOURCE@PCT%]... [--manifest FILE]]`
//! Defaults: `127.0.0.1:7878 4 2 17`.
//!
//! A `SOURCE` is either a demo spec `N,P,SEED[,int8]` or the path of a
//! model artifact exported by `export_model` (see
//! `docs/MODEL_ARTIFACTS.md`). The positional `N P SEED` triple defines the
//! **default** model (the one nameless hellos get); an
//! `,int8` suffix on the seed quantizes it, which is how a `shard_router`
//! int8 worker is launched — the router's nameless handshake reaches the
//! default model. Each repeatable `--model` flag registers one more
//! pipeline under its own name; clients pick it with
//! `remote_client --model NAME`. Each `--canary` flag serves a second
//! version under an existing name at the given traffic share.
//!
//! `--manifest FILE` turns the model set *live*: the file (one
//! `NAME=SOURCE[@PCT%]` per line) is watched for changes, and every edit is
//! reconciled onto the running server — models are added, hot-swapped,
//! canaried, promoted and removed with zero dropped requests. The operator
//! guide, including admission-control tuning, lives in `docs/SERVING.md`.

use ensembler::{Defense, QuantizedDefense};
use ensembler_serve::cli::positional;
use ensembler_serve::{
    demo_pipeline, CanarySpec, DefenseServer, Manifest, ModelRegistry, ModelSpec, ServerConfig,
};
use std::path::PathBuf;
use std::sync::Arc;

/// The flag-parsed command line: positionals plus the lifecycle flags.
struct Args {
    positional: Vec<String>,
    models: Vec<ModelSpec>,
    canaries: Vec<CanarySpec>,
    manifest: Option<PathBuf>,
}

/// Splits the command line into positional arguments and the `--model` /
/// `--canary` / `--manifest` flags.
fn parse_args() -> Result<Args, Box<dyn std::error::Error>> {
    let mut parsed = Args {
        positional: Vec::new(),
        models: Vec::new(),
        canaries: Vec::new(),
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
            parsed.models.push(ModelSpec::parse(&raw)?);
        } else if arg == "--canary" || arg.starts_with("--canary=") {
            let raw = value(&mut args, "--canary", arg.strip_prefix("--canary="))?;
            parsed.canaries.push(CanarySpec::parse(&raw)?);
        } else if arg == "--manifest" || arg.starts_with("--manifest=") {
            let raw = value(&mut args, "--manifest", arg.strip_prefix("--manifest="))?;
            parsed.manifest = Some(PathBuf::from(raw));
        } else {
            parsed.positional.push(arg);
        }
    }
    Ok(parsed)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let Args {
        positional: args,
        models: extra_models,
        canaries,
        manifest,
    } = parse_args()?;
    let addr = args
        .first()
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let n: usize = positional(&args, 1, 4);
    let p: usize = positional(&args, 2, 2);
    // `SEED,int8` quantizes the default model — the launch syntax for a
    // shard_router int8 worker (see docs/SERVING.md).
    let (seed_arg, int8) = match args.get(3).map(String::as_str) {
        Some(raw) => match raw.strip_suffix(",int8") {
            Some(seed) => (seed, true),
            None => (raw, false),
        },
        None => ("", false),
    };
    let seed: u64 = seed_arg.parse().unwrap_or(17);

    let mut default_model: Arc<dyn Defense> = Arc::new(demo_pipeline(n, p, seed)?);
    if int8 {
        default_model = Arc::new(QuantizedDefense::quantize(default_model));
    }
    let config = ServerConfig::default();
    let registry = ModelRegistry::new("default", default_model)?;
    for spec in &extra_models {
        registry.register_version(spec.name.clone(), spec.version(), spec.build()?)?;
    }
    for canary in &canaries {
        registry.set_canary(
            &canary.spec.name,
            canary.spec.version(),
            canary.percent,
            canary.spec.build()?,
        )?;
    }
    let server = DefenseServer::bind_registry(registry, addr.as_str(), config)?;

    println!(
        "serving {} model(s) on {} — default: Ensembler{} (N={n} P={p} seed={seed})",
        server.registry().len(),
        server.local_addr(),
        if int8 { "+int8" } else { "" },
    );
    for spec in &extra_models {
        println!("  model {}: {}", spec.name, spec.version());
    }
    for canary in &canaries {
        println!(
            "  canary {}: {} at {}%",
            canary.spec.name,
            canary.spec.version(),
            canary.percent
        );
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
        "  cargo run -p ensembler-serve --bin remote_client --release -- {} {} {} {}{}",
        server.local_addr(),
        n,
        p,
        seed,
        if int8 { " --int8" } else { "" },
    );

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
