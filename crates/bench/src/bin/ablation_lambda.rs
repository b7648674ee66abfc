//! Ablation: sensitivity of Ensembler's defence quality to the cosine
//! regularization strength λ (Eq. 3).
//!
//! For each λ the harness trains an Ensembler on the CIFAR-10 stand-in,
//! mounts the strongest single-network attack and the adaptive attack, and
//! reports accuracy and reconstruction quality.
//!
//! Usage: `cargo run -p ensembler-bench --bin ablation_lambda --release`

use ensembler::{Defense, EnsemblerTrainer, EvalConfig};
use ensembler_attack::{attack_adaptive, attack_all_single_nets};
use ensembler_bench::{best_outcome, DatasetCase, ExperimentScale};

fn main() {
    let scale = ExperimentScale::from_env();
    let case = DatasetCase::cifar10(scale);
    let data = case.generate(17);
    let attack_cfg = scale.attack_config();
    let n = scale.ensemble_size();
    let (private_images, _) = data
        .test
        .batch(0, scale.attack_targets().min(data.test.len()));

    println!("== Ablation: regularization strength lambda ({scale:?} scale) ==\n");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>14}",
        "lambda", "accuracy", "best SSIM", "best PSNR", "adaptive SSIM"
    );
    for lambda in [0.0f32, 0.1, 1.0, 10.0] {
        let train_cfg = scale.train_config().with_lambda(lambda);
        let trainer = EnsemblerTrainer::new(case.config.clone(), train_cfg);
        let trained = trainer
            .train(n, case.selected, &data.train)
            .expect("training succeeds");
        let pipeline = trained.into_pipeline();
        let acc = pipeline
            .evaluate(&data.test, &EvalConfig::default())
            .expect("evaluation succeeds");
        let per_net = attack_all_single_nets(&pipeline, &data.train, &private_images, &attack_cfg)
            .expect("attack succeeds");
        let best_ssim = best_outcome(&per_net, |o| o.ssim).ssim;
        let best_psnr = best_outcome(&per_net, |o| o.psnr).psnr;
        let adaptive = attack_adaptive(&pipeline, &data.train, &private_images, &attack_cfg)
            .expect("attack succeeds");
        println!(
            "{:<8.1} {:>10.3} {:>12.3} {:>12.2} {:>14.3}",
            lambda, acc, best_ssim, best_psnr, adaptive.ssim
        );
    }
}
