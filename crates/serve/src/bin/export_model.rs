//! Exports a deterministic demo Ensembler as a versioned, checksummed model
//! artifact file — the training-side half of the serving tier's model
//! lifecycle.
//!
//! The artifact captures everything `demo_pipeline` builds (config, head,
//! noise pattern, bodies, selector, tail), so a server loading the file
//! serves a pipeline bit-identical to one built in process from the same
//! `N,P,SEED` source. The byte-level format is specified in
//! `docs/MODEL_ARTIFACTS.md`.
//!
//! Usage: `cargo run -p ensembler-serve --bin export_model --release \
//!     -- OUT.bin [N,P,SEED[,int8]] [--name NAME]`
//! Defaults: source `4,2,17`, name `default`.
//!
//! The source is the demo spec every binary takes. An `,int8` suffix stamps
//! the artifact for int8 serving: the weights are stored in f32 either way
//! (quantization is deterministic, so the loader re-derives the int8 tables
//! bit-exactly), but a server loading the file serves the quantized
//! pipeline. An artifact path is refused as a source — that model is already
//! exported. Artifacts are *versioned by file name* — export a new file per
//! model version rather than editing one in place, so a manifest line naming
//! the file pins exactly one set of weights.

use ensembler::save_pipeline;
use ensembler_nn::ArtifactPrecision;
use ensembler_serve::cli::positional;
use ensembler_serve::{demo_pipeline, ModelSource, ServeError};

const USAGE: &str = "usage: export_model OUT.bin [N,P,SEED[,int8]] [--name NAME]";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut positionals = Vec::new();
    let mut name = "default".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--name" {
            name = args.next().ok_or("--name needs an argument")?;
        } else if let Some(value) = arg.strip_prefix("--name=") {
            name = value.to_string();
        } else {
            positionals.push(arg);
        }
    }
    let Some(out) = positionals.first().filter(|_| positionals.len() <= 2) else {
        return Err(USAGE.into());
    };
    let source = ModelSource::parse(&positional(&positionals, 1, "4,2,17".to_string()))?;
    let ModelSource::Demo { n, p, seed, int8 } = source else {
        return Err(ServeError::Registry(format!(
            "{source} is a model artifact, which is already exported; \
             export_model takes N,P,SEED[,int8] ({USAGE})"
        ))
        .into());
    };

    let pipeline = demo_pipeline(n, p, seed)?;
    let precision = if int8 {
        ArtifactPrecision::Int8
    } else {
        ArtifactPrecision::F32
    };
    let artifact = save_pipeline(&pipeline, &name, precision);
    artifact.write_to_file(out)?;
    let bytes = std::fs::metadata(out)?.len();
    println!(
        "exported {} ({:?}, {source}, {} parameters) to {out} ({bytes} B)",
        artifact.label,
        precision,
        artifact.scalar_count(),
    );
    println!("serve it with:  serve_defense ADDR {out}");
    Ok(())
}
