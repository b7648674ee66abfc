//! Stand-alone scatter-gather router: serves a sharded Ensembler behind a
//! normal `DefenseServer`, so clients connect to the router exactly as they
//! would to a single worker.
//!
//! Builds its replica from a model source (so workers and clients given the
//! same source hold bit-identical replicas), connects to every worker named
//! by the placement, and serves the merged `server_outputs` over TCP until
//! killed, logging a stats line (including per-shard counters) whenever they
//! move.
//!
//! Usage: `cargo run -p ensembler-shard --bin shard_router --release -- \
//!     [ADDR [SOURCE]] --shard HOST:PORT=lo..hi[,int8]... | --placement FILE`
//! Defaults: `127.0.0.1:7900 4,2,17`.
//!
//! `SOURCE` is any model source the serving tier accepts — `N,P,SEED` or a
//! versioned artifact file exported by `export_model` (see
//! `docs/MODEL_ARTIFACTS.md`) — so a sharded deployment rolls a new version
//! by pointing the router and its workers at the same artifact. The
//! ensemble size comes from the model.
//!
//! Each worker is an ordinary `serve_defense` process started with the same
//! source (`N,P,SEED,int8` for `int8` shards). The placement must tile `0..N`
//! exactly; `--placement FILE` reads the same one-shard-per-line syntax
//! `Placement::to_config_string` writes. The operator guide, including
//! hedging tuning and how the router reconnects to a restarted worker, lives
//! in `docs/SERVING.md`.

use ensembler::Defense;
use ensembler_serve::cli::positional;
use ensembler_serve::{DefenseServer, ModelSource, ServerConfig};
use ensembler_shard::{Placement, RouterConfig, ShardRouter};
use std::sync::Arc;

const USAGE: &str = "usage: shard_router ADDR [SOURCE] \
                     --shard HOST:PORT=lo..hi[,int8]...|--placement FILE";

/// The command line split three ways: positional arguments, `--shard` specs
/// and an optional `--placement` file.
type ParsedArgs = (Vec<String>, Vec<String>, Option<String>);

/// Splits the command line into positional arguments, `--shard` specs and
/// an optional `--placement` file.
fn parse_args() -> Result<ParsedArgs, Box<dyn std::error::Error>> {
    let mut positional = Vec::new();
    let mut shards = Vec::new();
    let mut placement_file = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--shard" {
            shards.push(args.next().ok_or("--shard needs HOST:PORT=lo..hi[,int8]")?);
        } else if let Some(spec) = arg.strip_prefix("--shard=") {
            shards.push(spec.to_string());
        } else if arg == "--placement" {
            placement_file = Some(args.next().ok_or("--placement needs a file path")?);
        } else if let Some(path) = arg.strip_prefix("--placement=") {
            placement_file = Some(path.to_string());
        } else {
            positional.push(arg);
        }
    }
    if positional.len() > 2 {
        return Err(USAGE.into());
    }
    Ok((positional, shards, placement_file))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (args, shard_flags, placement_file) = parse_args()?;
    let addr: String = positional(&args, 0, "127.0.0.1:7900".to_string());
    let source = ModelSource::parse(&positional(&args, 1, "4,2,17".to_string()))?;
    // The replica the router scatters for, with the ensemble size coming
    // from the model itself.
    let client = source.build()?;
    let label = format!("{} from {source}", client.label());
    let n = client.ensemble_size();

    let placement = match (&placement_file, shard_flags.is_empty()) {
        (Some(path), true) => Placement::from_config_str(&std::fs::read_to_string(path)?, n)?,
        (None, false) => Placement::parse(&shard_flags, n)?,
        (Some(_), false) => return Err("use either --shard flags or --placement, not both".into()),
        (None, true) => {
            return Err(
                "a router needs a placement: repeat --shard HOST:PORT=lo..hi[,int8] \
                 or point --placement at a file"
                    .into(),
            )
        }
    };

    let router_config = RouterConfig::default();
    let router = Arc::new(ShardRouter::new(
        Arc::clone(&client),
        placement.clone(),
        router_config,
    )?);

    let server = DefenseServer::bind(
        Arc::clone(&router) as Arc<dyn Defense>,
        addr.as_str(),
        ServerConfig::default(),
    )?;
    println!(
        "routing {label} on {} over {} worker(s):",
        server.local_addr(),
        placement.shards().len()
    );
    for shard in placement.shards() {
        println!("  {shard}");
    }
    println!(
        "hedge after {:?}; stop with Ctrl-C",
        router_config.hedge_after
    );

    // The frontend server knows nothing of the fan-out behind its pipeline;
    // the router's per-shard counters are read beside its snapshot.
    let mut last = (server.stats(), router.shard_stats());
    loop {
        std::thread::sleep(std::time::Duration::from_secs(5));
        let current = (server.stats(), router.shard_stats());
        if current != last {
            let (stats, shards) = &current;
            println!(
                "{} connections | {} served, {} rejected, {} errors | {} in flight ({} B)",
                stats.connections_accepted,
                stats.requests_served,
                stats.requests_rejected,
                stats.errors_sent,
                stats.inflight_requests,
                stats.inflight_bytes,
            );
            for shard in shards {
                println!(
                    "  shard {} [{}..{}{}]: {} requests, {} hedges, {} flaps, {}",
                    shard.addr,
                    shard.lo,
                    shard.hi,
                    if shard.quantized { ", int8" } else { "" },
                    shard.requests,
                    shard.hedges_fired,
                    shard.health_flaps,
                    if shard.healthy {
                        "healthy"
                    } else {
                        "UNHEALTHY"
                    },
                );
            }
            last = current;
        }
    }
}
