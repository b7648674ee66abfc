//! Shared experiment harness used by the table-reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table of the Ensembler paper:
//!
//! * `table1` — defence quality of Single vs Ensembler across the three
//!   datasets (Table I).
//! * `table2` — all defence mechanisms on the CIFAR-10 stand-in (Table II).
//! * `table3` — latency of Standard CI vs Ensembler vs STAMP (Table III).
//! * `ablation_lambda` — sensitivity to the regularization strength λ.
//! * `ablation_ensemble` — sensitivity to the ensemble size N and selection
//!   size P.
//!
//! These binaries read the `ENSEMBLER_SCALE` environment variable (see
//! [`ExperimentScale::from_env`]): `quick` (the default when it is unset)
//! runs a scaled-down configuration that finishes in a few minutes on a
//! laptop CPU; `full` runs the larger, paper-like configuration
//! ([`ExperimentScale::train_config`] and its siblings spell out both).
//!
//! The [`load`] module is the open-loop load-generation harness behind the
//! `load_gen` binary. It is a workload with correctness checks, not a
//! stopwatch: performance claims come from the `benchmark/` package.

pub mod load;

use ensembler::{
    Defense, DefenseKind, EnsemblerError, EnsemblerTrainer, EvalConfig, SinglePipeline, TrainConfig,
};
use ensembler_attack::{
    attack_adaptive, attack_all_single_nets, attack_single_pipeline, AttackConfig, AttackOutcome,
};
use ensembler_data::{SyntheticDataset, SyntheticSpec};
use ensembler_nn::models::ResNetConfig;
use ensembler_tensor::{JsonValue, Tensor};

/// How much compute an experiment run is allowed to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Scaled-down run (small ensembles, few epochs) for CI and smoke runs.
    Quick,
    /// The paper-like configuration (N = 10, `TrainConfig::paper_like`).
    Full,
}

impl std::str::FromStr for ExperimentScale {
    type Err = String;

    /// Parses an `ENSEMBLER_SCALE` value: `quick` or `full`, in any case.
    /// Anything else — a typo, stray whitespace, the empty string — is an
    /// error naming the accepted values.
    fn from_str(value: &str) -> Result<Self, Self::Err> {
        if value.eq_ignore_ascii_case("quick") {
            Ok(ExperimentScale::Quick)
        } else if value.eq_ignore_ascii_case("full") {
            Ok(ExperimentScale::Full)
        } else {
            Err(format!(
                "ENSEMBLER_SCALE={value:?} is not a scale: accepted values are `quick` and \
                 `full` (any case); leave it unset for `quick`"
            ))
        }
    }
}

impl ExperimentScale {
    /// Reads the scale from the `ENSEMBLER_SCALE` environment variable:
    /// unset means [`ExperimentScale::Quick`], otherwise the value must
    /// parse (see the [`FromStr`](std::str::FromStr) impl).
    ///
    /// This is the binaries' entry point: on an unrecognised value it prints
    /// the accepted values and exits with status 2, so a mistyped `full` can
    /// never pass for a paper-scale run.
    pub fn from_env() -> Self {
        let value = match std::env::var("ENSEMBLER_SCALE") {
            Err(std::env::VarError::NotPresent) => return ExperimentScale::Quick,
            Ok(value) => value,
            Err(std::env::VarError::NotUnicode(raw)) => raw.to_string_lossy().into_owned(),
        };
        value.parse().unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2)
        })
    }

    /// Ensemble size N used for the defence-quality tables.
    pub fn ensemble_size(self) -> usize {
        match self {
            ExperimentScale::Quick => 4,
            ExperimentScale::Full => 10,
        }
    }

    /// Training hyper-parameters for this scale.
    pub fn train_config(self) -> TrainConfig {
        match self {
            ExperimentScale::Quick => TrainConfig {
                epochs_stage1: 4,
                epochs_stage3: 5,
                batch_size: 16,
                learning_rate: 0.05,
                lambda: 1.0,
                sigma: 0.1,
                seed: 2024,
            },
            ExperimentScale::Full => TrainConfig::paper_like(),
        }
    }

    /// Attack hyper-parameters for this scale.
    pub fn attack_config(self) -> AttackConfig {
        match self {
            ExperimentScale::Quick => AttackConfig {
                shadow_epochs: 4,
                decoder_epochs: 5,
                batch_size: 16,
                learning_rate: 0.05,
                seed: 7,
            },
            ExperimentScale::Full => AttackConfig::paper_like(),
        }
    }

    /// Per-class sample counts for the synthetic datasets.
    pub fn samples_per_class(self) -> (usize, usize) {
        match self {
            ExperimentScale::Quick => (16, 6),
            ExperimentScale::Full => (40, 10),
        }
    }

    /// Number of private test images each attack tries to reconstruct.
    pub fn attack_targets(self) -> usize {
        match self {
            ExperimentScale::Quick => 8,
            ExperimentScale::Full => 32,
        }
    }
}

/// One of the paper's three evaluation datasets together with its backbone
/// configuration and selection size P.
#[derive(Debug, Clone)]
pub struct DatasetCase {
    /// Dataset name used in the printed tables.
    pub name: &'static str,
    /// Synthetic stand-in specification.
    pub spec: SyntheticSpec,
    /// Backbone configuration (split location, pooling, classes).
    pub config: ResNetConfig,
    /// Number of server networks the selector activates (P).
    pub selected: usize,
}

impl DatasetCase {
    /// The three dataset cases of Table I with the paper's P = {4, 3, 5}
    /// (clamped to the ensemble size at quick scale).
    pub fn paper_cases(scale: ExperimentScale) -> Vec<DatasetCase> {
        let (train_pc, test_pc) = scale.samples_per_class();
        let clamp = |p: usize| p.min(scale.ensemble_size());
        vec![
            DatasetCase {
                name: "CIFAR-10 (synthetic)",
                spec: SyntheticSpec::cifar10_like().with_samples(train_pc, test_pc),
                config: ResNetConfig::cifar10_like(),
                selected: clamp(4),
            },
            DatasetCase {
                name: "CIFAR-100 (synthetic)",
                spec: SyntheticSpec::cifar100_like().with_samples(train_pc, test_pc),
                config: ResNetConfig::cifar100_like(),
                selected: clamp(3),
            },
            DatasetCase {
                name: "CelebA-HQ (synthetic)",
                spec: SyntheticSpec::celeba_hq_like().with_samples(train_pc, test_pc),
                config: ResNetConfig::celeba_like(),
                selected: clamp(5),
            },
        ]
    }

    /// Only the CIFAR-10 case (used by Table II and the ablations).
    pub fn cifar10(scale: ExperimentScale) -> DatasetCase {
        DatasetCase::paper_cases(scale).remove(0)
    }

    /// Generates the synthetic dataset for this case.
    pub fn generate(&self, seed: u64) -> SyntheticDataset {
        self.spec.generate(seed)
    }
}

/// One row of a defence-quality table (Tables I and II).
#[derive(Debug, Clone)]
pub struct DefenseRow {
    /// Defence name as printed in the paper.
    pub name: String,
    /// Change in accuracy relative to the unprotected model, in percent
    /// (positive = the defence costs accuracy).
    pub delta_accuracy_pct: f32,
    /// Mean SSIM of the attacker's reconstructions (lower = better defence).
    pub ssim: f32,
    /// Mean PSNR of the attacker's reconstructions (lower = better defence).
    pub psnr: f32,
}

impl DefenseRow {
    fn new(name: impl Into<String>, delta_accuracy_pct: f32, outcome: &AttackOutcome) -> Self {
        Self {
            name: name.into(),
            delta_accuracy_pct,
            ssim: outcome.ssim,
            psnr: outcome.psnr,
        }
    }

    /// JSON representation of the row.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("name".to_string(), JsonValue::String(self.name.clone())),
            (
                "delta_accuracy_pct".to_string(),
                JsonValue::Number(self.delta_accuracy_pct as f64),
            ),
            ("ssim".to_string(), JsonValue::Number(self.ssim as f64)),
            ("psnr".to_string(), JsonValue::Number(self.psnr as f64)),
        ])
    }
}

/// Result of evaluating the Single baseline and Ensembler on one dataset.
#[derive(Debug, Clone)]
pub struct DefenseQualityResult {
    /// Dataset name.
    pub dataset: String,
    /// Accuracy of the unprotected reference model.
    pub baseline_accuracy: f32,
    /// Table rows in the paper's order.
    pub rows: Vec<DefenseRow>,
}

impl DefenseQualityResult {
    /// JSON representation of the whole table.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "dataset".to_string(),
                JsonValue::String(self.dataset.clone()),
            ),
            (
                "baseline_accuracy".to_string(),
                JsonValue::Number(self.baseline_accuracy as f64),
            ),
            (
                "rows".to_string(),
                JsonValue::Array(self.rows.iter().map(DefenseRow::to_json).collect()),
            ),
        ])
    }
}

/// The attacker's best per-body outcome by `score`. A non-finite score is a
/// diverged attack, never the best one: it loses to every finite score, and
/// only when no score is finite is the first outcome returned, so that the
/// row reports the failure.
///
/// # Panics
///
/// Panics if `outcomes` is empty.
pub fn best_outcome(outcomes: &[AttackOutcome], score: fn(&AttackOutcome) -> f32) -> AttackOutcome {
    outcomes
        .iter()
        .filter(|o| score(o).is_finite())
        .max_by(|a, b| score(a).total_cmp(&score(b)))
        .or(outcomes.first())
        .cloned()
        .expect("at least one network")
}

/// Runs the Table-I protocol for one dataset case: trains the unprotected
/// reference, the Single baseline and Ensembler, attacks each of them and
/// reports ΔAcc / SSIM / PSNR rows.
///
/// # Errors
///
/// Propagates training, evaluation and attack failures.
pub fn run_defense_quality(
    case: &DatasetCase,
    scale: ExperimentScale,
) -> Result<DefenseQualityResult, EnsemblerError> {
    let data = case.generate(11);
    let train_cfg = scale.train_config();
    let attack_cfg = scale.attack_config();
    let eval_cfg = EvalConfig::default();
    let n = scale.ensemble_size();
    let (private_images, _) = data
        .test
        .batch(0, scale.attack_targets().min(data.test.len()));

    // Unprotected reference for ΔAcc.
    let mut reference = SinglePipeline::new(case.config.clone(), DefenseKind::NoDefense, 100)?;
    reference.train_supervised(&data.train, &train_cfg)?;
    let baseline_accuracy = reference.evaluate(&data.test, &eval_cfg)?;

    // Single baseline: fixed additive noise.
    let mut single = SinglePipeline::new(
        case.config.clone(),
        DefenseKind::AdditiveNoise {
            sigma: train_cfg.sigma,
        },
        101,
    )?;
    single.train_supervised(&data.train, &train_cfg)?;
    let single_acc = single.evaluate(&data.test, &eval_cfg)?;
    let single_attack = attack_single_pipeline(&single, &data.train, &private_images, &attack_cfg)?;

    // Ensembler.
    let trainer = EnsemblerTrainer::new(case.config.clone(), train_cfg.clone());
    let trained = trainer.train(n, case.selected, &data.train)?;
    let pipeline = trained.into_pipeline();
    let ensembler_acc = pipeline.evaluate(&data.test, &eval_cfg)?;

    let per_net = attack_all_single_nets(&pipeline, &data.train, &private_images, &attack_cfg)?;
    let best_ssim = best_outcome(&per_net, |o| o.ssim);
    let best_psnr = best_outcome(&per_net, |o| o.psnr);
    let adaptive = attack_adaptive(&pipeline, &data.train, &private_images, &attack_cfg)?;

    let delta = |acc: f32| (baseline_accuracy - acc) * 100.0;
    Ok(DefenseQualityResult {
        dataset: case.name.to_string(),
        baseline_accuracy,
        rows: vec![
            DefenseRow::new("Single", delta(single_acc), &single_attack),
            DefenseRow::new("Ours - Adaptive", delta(ensembler_acc), &adaptive),
            DefenseRow::new("Ours - SSIM", delta(ensembler_acc), &best_ssim),
            DefenseRow::new("Ours - PSNR", delta(ensembler_acc), &best_psnr),
        ],
    })
}

/// Runs the Table-II protocol on the CIFAR-10 stand-in: every baseline
/// defence plus the three Ensembler attack readings.
///
/// Every victim is driven through `&dyn Defense` — the harness contains no
/// per-pipeline dispatch.
///
/// # Errors
///
/// Propagates training, evaluation and attack failures.
pub fn run_defense_mechanisms(
    scale: ExperimentScale,
) -> Result<DefenseQualityResult, EnsemblerError> {
    let case = DatasetCase::cifar10(scale);
    let data = case.generate(13);
    let train_cfg = scale.train_config();
    let attack_cfg = scale.attack_config();
    let eval_cfg = EvalConfig::default();
    let n = scale.ensemble_size();
    let (private_images, _) = data
        .test
        .batch(0, scale.attack_targets().min(data.test.len()));

    let mut rows = Vec::new();

    // Unprotected reference (also the "None" row).
    let mut reference = SinglePipeline::new(case.config.clone(), DefenseKind::NoDefense, 200)?;
    reference.train_supervised(&data.train, &train_cfg)?;
    let baseline_accuracy = reference.evaluate(&data.test, &eval_cfg)?;
    let none_attack =
        attack_single_pipeline(&reference, &data.train, &private_images, &attack_cfg)?;
    rows.push(DefenseRow::new("None", 0.0, &none_attack));

    let delta = |acc: f32| (baseline_accuracy - acc) * 100.0;

    // Single-network baselines.
    let single_defenses = [
        (
            "Shredder",
            DefenseKind::Shredder {
                sigma: train_cfg.sigma,
                expansion: 1.0,
            },
        ),
        (
            "Single",
            DefenseKind::AdditiveNoise {
                sigma: train_cfg.sigma,
            },
        ),
        ("DR-single", DefenseKind::Dropout { probability: 0.3 }),
    ];
    for (i, (name, kind)) in single_defenses.into_iter().enumerate() {
        let mut victim = SinglePipeline::new(case.config.clone(), kind, 201 + i as u64)?;
        victim.train_supervised(&data.train, &train_cfg)?;
        let acc = victim.evaluate(&data.test, &eval_cfg)?;
        let outcome = attack_single_pipeline(&victim, &data.train, &private_images, &attack_cfg)?;
        rows.push(DefenseRow::new(name, delta(acc), &outcome));
    }

    // DR-N: dropout on the jointly trained ensemble (no stage-1 training).
    let trainer = EnsemblerTrainer::new(case.config.clone(), train_cfg.clone());
    let dr_ensemble = trainer.train_joint(n, case.selected, 0.3, &data.train)?;
    let dr_acc = dr_ensemble.evaluate(&data.test, &eval_cfg)?;
    let dr_attacks =
        attack_all_single_nets(&dr_ensemble, &data.train, &private_images, &attack_cfg)?;
    let dr_best_ssim = best_outcome(&dr_attacks, |o| o.ssim);
    let dr_best_psnr = best_outcome(&dr_attacks, |o| o.psnr);
    rows.push(DefenseRow::new(
        format!("DR-{n} - SSIM"),
        delta(dr_acc),
        &dr_best_ssim,
    ));
    rows.push(DefenseRow::new(
        format!("DR-{n} - PSNR"),
        delta(dr_acc),
        &dr_best_psnr,
    ));

    // Ensembler (full three-stage training).
    let trained = trainer.train(n, case.selected, &data.train)?;
    let pipeline = trained.into_pipeline();
    let acc = pipeline.evaluate(&data.test, &eval_cfg)?;
    let per_net = attack_all_single_nets(&pipeline, &data.train, &private_images, &attack_cfg)?;
    let best_ssim = best_outcome(&per_net, |o| o.ssim);
    let best_psnr = best_outcome(&per_net, |o| o.psnr);
    let adaptive = attack_adaptive(&pipeline, &data.train, &private_images, &attack_cfg)?;
    rows.push(DefenseRow::new("Ours - Adaptive", delta(acc), &adaptive));
    rows.push(DefenseRow::new("Ours - SSIM", delta(acc), &best_ssim));
    rows.push(DefenseRow::new("Ours - PSNR", delta(acc), &best_psnr));

    Ok(DefenseQualityResult {
        dataset: case.name.to_string(),
        baseline_accuracy,
        rows,
    })
}

/// Pretty-prints a defence-quality table in the paper's column order.
pub fn format_defense_table(result: &DefenseQualityResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} (unprotected accuracy {:.1}%)\n",
        result.dataset,
        result.baseline_accuracy * 100.0
    ));
    out.push_str(&format!(
        "{:<18} {:>8} {:>8} {:>8}\n",
        "Name", "dAcc(%)", "SSIM", "PSNR"
    ));
    for row in &result.rows {
        out.push_str(&format!(
            "{:<18} {:>8.2} {:>8.3} {:>8.2}\n",
            row.name, row.delta_accuracy_pct, row.ssim, row.psnr
        ));
    }
    out
}

/// A small helper shared by the examples and ablations: mean image distance
/// between two tensors, used as a quick sanity metric alongside SSIM/PSNR.
pub fn mean_absolute_error(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "shapes must match");
    a.sub(b).map(f32::abs).mean()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_to_quick() {
        // The variable is not set in the test environment.
        assert_eq!(ExperimentScale::from_env(), ExperimentScale::Quick);
        assert_eq!(ExperimentScale::Quick.ensemble_size(), 4);
        assert_eq!(ExperimentScale::Full.ensemble_size(), 10);
    }

    #[test]
    fn scale_parser_accepts_quick_and_full_in_any_case_and_nothing_else() {
        for (value, scale) in [
            ("quick", ExperimentScale::Quick),
            ("QUICK", ExperimentScale::Quick),
            ("full", ExperimentScale::Full),
            ("Full", ExperimentScale::Full),
            ("FULL", ExperimentScale::Full),
        ] {
            assert_eq!(value.parse(), Ok(scale), "{value:?}");
        }
        for value in ["", "ful", "FULL ", " full", "fulll", "paper", "1"] {
            let message = value.parse::<ExperimentScale>().unwrap_err();
            assert!(
                message.contains(&format!("{value:?}"))
                    && message.contains("`quick`")
                    && message.contains("`full`"),
                "{value:?} -> {message}"
            );
        }
    }

    #[test]
    fn paper_cases_cover_the_three_datasets() {
        let cases = DatasetCase::paper_cases(ExperimentScale::Quick);
        assert_eq!(cases.len(), 3);
        assert!(cases[0].name.contains("CIFAR-10"));
        assert!(cases[1].name.contains("CIFAR-100"));
        assert!(cases[2].name.contains("CelebA"));
        for case in &cases {
            assert!(case.selected <= ExperimentScale::Quick.ensemble_size());
            assert!(case.config.validate().is_ok());
        }
    }

    #[test]
    fn defense_table_formatting_contains_all_rows() {
        let result = DefenseQualityResult {
            dataset: "demo".to_string(),
            baseline_accuracy: 0.5,
            rows: vec![DefenseRow {
                name: "Single".to_string(),
                delta_accuracy_pct: 1.0,
                ssim: 0.4,
                psnr: 8.0,
            }],
        };
        let text = format_defense_table(&result);
        assert!(text.contains("Single"));
        assert!(text.contains("SSIM"));
        assert!(text.contains("50.0%"));
    }

    #[test]
    fn the_best_attack_never_has_a_non_finite_score() {
        let outcome = |ssim: f32, psnr: f32| AttackOutcome {
            ssim,
            psnr,
            reconstructions: Tensor::zeros(&[1]),
        };
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let outcomes = [
            outcome(nan, nan),
            outcome(0.2, 11.0),
            outcome(inf, inf),
            outcome(0.3, 9.0),
            outcome(-inf, -nan),
        ];
        assert_eq!(best_outcome(&outcomes, |o| o.ssim).ssim, 0.3);
        assert_eq!(best_outcome(&outcomes, |o| o.psnr).psnr, 11.0);
        // No attack succeeded: the row reports the failure, not a score.
        let failed = [outcome(nan, nan), outcome(inf, -inf)];
        assert!(best_outcome(&failed, |o| o.psnr).psnr.is_nan());
    }

    #[test]
    fn mean_absolute_error_basics() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::full(&[2, 2], 0.5);
        assert!((mean_absolute_error(&a, &b) - 0.5).abs() < 1e-6);
        assert_eq!(mean_absolute_error(&a, &a), 0.0);
    }
}
