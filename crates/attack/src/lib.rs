//! Query-free model inversion attacks against collaborative inference, as
//! used by the Ensembler paper's adversarial server (Sec. II-B and III-B).
//!
//! The attacker is the semi-honest cloud provider. It owns the server-side
//! weights `M_s` (one network in the baselines, `N` networks under
//! Ensembler), knows the architecture of the whole model and has access to a
//! public dataset drawn from the same distribution as the client's training
//! data. It cannot query the client. The attack proceeds in three steps:
//!
//! 1. **Shadow training** ([`ShadowNetwork`]): build a surrogate client head
//!    `~M_c,h` (three convolutions, the first simulating the unknown head and
//!    the next two absorbing the unknown additive noise) and a surrogate tail
//!    `~M_c,t`, then train them on the public data against the *frozen*
//!    server weights so the surrogate pipeline mimics the victim pipeline.
//!    A [`ServerView`] is the attacker's frozen copies of the bodies behind
//!    a selector that activates all of them, run like stage 3 runs the
//!    client's selection (`Selector::forward_bodies` and its adjoint).
//! 2. **Decoder training** ([`Decoder`]): train a transposed-convolution
//!    decoder that inverts `~M_c,h`, i.e. maps shadow features back to
//!    images.
//! 3. **Reconstruction** ([`run_attack`] and the convenience wrappers): apply
//!    the decoder to the intermediate features the client actually
//!    transmitted and measure SSIM / PSNR against the private inputs.
//!
//! Attacks take their victim as `&dyn Defense` — any pipeline behind the
//! unified inference trait can be attacked without per-pipeline dispatch,
//! and mounting an attack never mutates the victim (the attacker clones the
//! server weights it owns under the threat model).
//!
//! # Examples
//!
//! ```
//! use ensembler::{DefenseKind, SinglePipeline, TrainConfig};
//! use ensembler_attack::{attack_single_pipeline, AttackConfig};
//! use ensembler_data::SyntheticSpec;
//! use ensembler_nn::models::ResNetConfig;
//!
//! let data = SyntheticSpec::tiny_for_tests().generate(0);
//! let mut victim = SinglePipeline::new(
//!     ResNetConfig::tiny_for_tests(),
//!     DefenseKind::NoDefense,
//!     1,
//! )?;
//! victim.train_supervised(&data.train, &TrainConfig::fast_for_tests())?;
//! let (private_images, _) = data.test.batch(0, 4);
//! let outcome = attack_single_pipeline(
//!     &victim,
//!     &data.train,
//!     &private_images,
//!     &AttackConfig::fast_for_tests(),
//! )?;
//! assert!(outcome.ssim <= 1.0 && outcome.psnr <= 60.0);
//! # Ok::<(), ensembler::EnsemblerError>(())
//! ```

mod brute_force;
mod decoder;
mod mia;
mod shadow;

pub use brute_force::{
    brute_force_selector, enumerate_selections, BruteForceReport, CandidateScore,
};
pub use decoder::Decoder;
pub use mia::{
    attack_adaptive, attack_all_single_nets, attack_single_pipeline, run_attack, AttackConfig,
    AttackOutcome, ServerView,
};
pub use shadow::ShadowNetwork;
