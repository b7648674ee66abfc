//! Property coverage for the model-artifact lifecycle: save → encode →
//! decode → load must be bit-exact for f32 and int8 pipelines across random
//! `(n, p, seed)` builds, and an artifact loaded from disk must predict
//! bit-identically to the exported pipeline *through the full remote path* —
//! a registry-backed server loading the file, a client connecting over a
//! real socket.

use ensembler::artifact::{load_defense, save_pipeline};
use ensembler::{Defense, QuantizedDefense};
use ensembler_nn::{ArtifactPrecision, ModelArtifact};
use ensembler_serve::{
    demo_pipeline, DefenseServer, ModelRegistry, ModelSource, ModelSpec, RemoteDefense,
    ServerConfig,
};
use ensembler_tensor::{Rng, Tensor};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn random_images(batch: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    Tensor::from_fn(&[batch, 3, 16, 16], |_| rng.uniform(-1.0, 1.0))
}

/// A scratch file under the system temp dir, removed on drop.
struct TempArtifact(PathBuf);

impl TempArtifact {
    fn write(artifact: &ModelArtifact, tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "ensembler-roundtrip-{}-{tag}.bin",
            std::process::id()
        ));
        artifact.write_to_file(&path).unwrap();
        TempArtifact(path)
    }
}

impl Drop for TempArtifact {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Export → encode → decode → load is bit-exact for both precisions of
    /// the same random pipeline: the f32 load reproduces the pipeline's
    /// predictions exactly, and the int8 load reproduces the deterministic
    /// requantization of those same weights.
    #[test]
    fn save_load_roundtrip_is_bit_exact_for_both_precisions(
        n_extra in 0usize..3,
        p_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let n = 2 + n_extra;
        let p = 1 + (p_pick % n as u64) as usize;
        let pipeline = Arc::new(demo_pipeline(n, p, seed).unwrap());
        let images = random_images(2, seed ^ 0xA11CE);

        let artifact = save_pipeline(&pipeline, "prop", ArtifactPrecision::F32);
        let decoded = ModelArtifact::decode(&artifact.encode()).unwrap();
        prop_assert_eq!(decoded.encode(), artifact.encode());
        let loaded = load_defense(&decoded).unwrap();
        prop_assert_eq!(loaded.label(), pipeline.label());
        prop_assert_eq!(
            loaded.predict(&images).unwrap(),
            pipeline.predict(&images).unwrap()
        );

        let artifact = save_pipeline(&pipeline, "prop", ArtifactPrecision::Int8);
        let loaded = load_defense(&ModelArtifact::decode(&artifact.encode()).unwrap()).unwrap();
        let int8 = QuantizedDefense::quantize(Arc::clone(&pipeline) as Arc<dyn Defense>);
        prop_assert_eq!(loaded.label(), int8.label());
        prop_assert_eq!(
            loaded.predict(&images).unwrap(),
            int8.predict(&images).unwrap()
        );
    }
}

#[test]
fn artifacts_loaded_from_disk_serve_bit_identically_over_the_wire() {
    // The full lifecycle at both precisions: export the pipeline to a file,
    // stand up a server whose registry loads that file (exactly what
    // `serve_defense --model name=file.bin` does), and check the remote
    // predictions against the in-process pipeline the file came from — and
    // against replicas loaded from the same files, which is what
    // `remote_client ADDR file.bin` and `shard_router ADDR file.bin` hold.
    let pipeline = Arc::new(demo_pipeline(3, 2, 417).unwrap());
    let int8: Arc<dyn Defense> = Arc::new(QuantizedDefense::quantize(
        Arc::clone(&pipeline) as Arc<dyn Defense>
    ));

    let f32_file = TempArtifact::write(
        &save_pipeline(&pipeline, "full", ArtifactPrecision::F32),
        "f32",
    );
    let int8_file = TempArtifact::write(
        &save_pipeline(&pipeline, "quant", ArtifactPrecision::Int8),
        "int8",
    );

    let config = ServerConfig::default();
    let full = ModelSpec::parse(&format!("full={}", f32_file.0.display())).unwrap();
    let quant = ModelSpec::parse(&format!("quant={}", int8_file.0.display())).unwrap();
    let registry = ModelRegistry::new("full", full.source.build().unwrap()).unwrap();
    registry
        .register(
            "quant",
            quant.source.to_string(),
            quant.source.build().unwrap(),
        )
        .unwrap();
    let server = DefenseServer::bind_registry(registry, "127.0.0.1:0", config).unwrap();

    let remote_f32 = RemoteDefense::connect_model(
        Arc::clone(&pipeline) as Arc<dyn Defense>,
        server.local_addr(),
        "full",
    )
    .unwrap();
    let remote_int8 =
        RemoteDefense::connect_model(Arc::clone(&int8), server.local_addr(), "quant").unwrap();
    assert_eq!(remote_int8.peer_label(), "Ensembler+int8");

    let file_replica = |file: &TempArtifact| {
        ModelSource::parse(&file.0.display().to_string())
            .unwrap()
            .build()
            .unwrap()
    };
    let replica_f32 = file_replica(&f32_file);
    let replica_int8 = file_replica(&int8_file);
    let remote_f32_file =
        RemoteDefense::connect_model(Arc::clone(&replica_f32), server.local_addr(), "full")
            .unwrap();
    let remote_int8_file =
        RemoteDefense::connect_model(Arc::clone(&replica_int8), server.local_addr(), "quant")
            .unwrap();

    for seed in [418u64, 419] {
        let images = random_images(2, seed);
        assert_eq!(
            remote_f32.predict(&images).unwrap(),
            pipeline.predict(&images).unwrap(),
            "f32 remote path, seed {seed}"
        );
        assert_eq!(
            remote_int8.predict(&images).unwrap(),
            int8.predict(&images).unwrap(),
            "int8 remote path, seed {seed}"
        );
        assert_eq!(
            remote_f32_file.predict(&images).unwrap(),
            pipeline.predict(&images).unwrap(),
            "f32 remote path from a file replica, seed {seed}"
        );
        assert_eq!(
            remote_int8_file.predict(&images).unwrap(),
            int8.predict(&images).unwrap(),
            "int8 remote path from a file replica, seed {seed}"
        );
    }
    assert_eq!(server.stats().errors_sent, 0);
}

#[test]
fn file_roundtrip_preserves_every_byte() {
    // write_to_file → read_from_file is the identity on the encoded bytes.
    let pipeline = demo_pipeline(2, 1, 23).unwrap();
    let artifact = save_pipeline(&pipeline, "bytes", ArtifactPrecision::Int8);
    let file = TempArtifact::write(&artifact, "bytes");
    let reread = ModelArtifact::read_from_file(&file.0).unwrap();
    assert_eq!(reread.encode(), artifact.encode());
}
