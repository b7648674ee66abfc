//! Orchestration of the query-free model inversion attack.

use crate::{Decoder, ShadowNetwork};
use ensembler::{Defense, EnsemblerError, Selector};
use ensembler_data::Dataset;
use ensembler_metrics::{psnr_batch, ssim};
use ensembler_nn::models::ResNetConfig;
use ensembler_nn::{CrossEntropyLoss, Layer, Mode, MseLoss, Optimizer, Sequential, Sgd};
use ensembler_tensor::{Rng, Tensor};

/// Hyper-parameters of the model inversion attack.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackConfig {
    /// Epochs used to fit the shadow head/tail against the frozen server.
    pub shadow_epochs: usize,
    /// Epochs used to fit the decoder that inverts the shadow head.
    pub decoder_epochs: usize,
    /// Mini-batch size for both phases.
    pub batch_size: usize,
    /// SGD learning rate for both phases.
    pub learning_rate: f32,
    /// Seed controlling the attacker's initialisation and batching.
    pub seed: u64,
}

impl AttackConfig {
    /// Attack budget used by the benchmark harness.
    pub fn paper_like() -> Self {
        Self {
            shadow_epochs: 8,
            decoder_epochs: 10,
            batch_size: 32,
            learning_rate: 0.05,
            seed: 7,
        }
    }

    /// A deliberately tiny budget for unit tests.
    pub fn fast_for_tests() -> Self {
        Self {
            shadow_epochs: 2,
            decoder_epochs: 2,
            batch_size: 8,
            learning_rate: 0.05,
            seed: 7,
        }
    }
}

/// The result of one reconstruction attack.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Mean structural similarity between private inputs and reconstructions
    /// (higher means the attack recovered more).
    pub ssim: f32,
    /// Mean peak signal-to-noise ratio in dB (higher means the attack
    /// recovered more).
    pub psnr: f32,
    /// The reconstructed images, shaped like the private inputs.
    pub reconstructions: Tensor,
}

/// The attacker's working copy of the server-side weights.
///
/// Under the paper's threat model the adversarial server *owns* the body
/// networks, so a view **clones** them out of the victim
/// ([`Defense::server_bodies`]), leaving the victim untouched, and freezes
/// them: it cannot change the victim's weights, so a backward computes only
/// the input gradient. The shadow step runs them behind [`Selector::all`],
/// through [`Selector::forward_bodies`] and its adjoint, as stage 3 runs the
/// client's selection.
///
/// * [`ServerView::single`] — one server network, at scale `1`
///   (Proposition 1).
/// * [`ServerView::all`] — the *adaptive* attacker's view of all `N` at the
///   uniform `1/N` it guesses for the unknown selector (Proposition 2).
#[derive(Debug, Clone)]
pub struct ServerView {
    bodies: Vec<Sequential>,
    selector: Selector,
}

impl ServerView {
    /// Freezes `bodies` behind the selector that activates all of them.
    fn new(mut bodies: Vec<Sequential>) -> Self {
        for body in &mut bodies {
            body.freeze();
        }
        let selector = Selector::all(bodies.len());
        Self { bodies, selector }
    }

    /// Clones server body `index` out of the victim.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn single(victim: &dyn Defense, index: usize) -> Self {
        Self::new(vec![victim.server_bodies()[index].clone()])
    }

    /// Clones every server body out of the victim.
    pub fn all(victim: &dyn Defense) -> Self {
        Self::new(victim.server_bodies().to_vec())
    }

    /// Width of the feature vector this view feeds into the shadow tail.
    pub fn feature_width(&self, per_network: usize) -> usize {
        per_network * self.selector.active_count()
    }
}

/// Runs the full three-step attack against an arbitrary server view.
///
/// * `public_data` — the attacker's dataset from the training distribution.
/// * `private_images` — the client inputs the attacker wants to reconstruct.
/// * `transmitted_features` — what the client actually sent for those inputs
///   (`M_c,h(x) + noise`, possibly dropout-ed), which is all the attacker
///   observes about them.
///
/// # Panics
///
/// Panics if `public_data` is empty (the threat model always grants the
/// attacker a public dataset).
pub fn run_attack(
    server: &mut ServerView,
    config: &ResNetConfig,
    public_data: &Dataset,
    private_images: &Tensor,
    transmitted_features: &Tensor,
    attack: &AttackConfig,
) -> AttackOutcome {
    assert!(
        !public_data.is_empty(),
        "the attacker's public dataset must not be empty"
    );
    let width = server.feature_width(config.body_output_features());
    let mut rng = Rng::seed_from(attack.seed);
    let mut shadow = ShadowNetwork::new(config, width, &mut rng);
    let ServerView { bodies, selector } = server;

    // Step 1: fit the shadow client against the frozen server weights.
    let ce = CrossEntropyLoss::new();
    let mut shadow_opt = Sgd::new(attack.learning_rate).with_momentum(0.9);
    for _ in 0..attack.shadow_epochs {
        for (images, labels) in public_data.batches(attack.batch_size, &mut rng) {
            let features = shadow.head_forward(&images, Mode::Train);
            let server_out = selector
                .forward_bodies(bodies, &features, Mode::Eval)
                .expect("the server bodies take the shadow head's features");
            let logits = shadow.tail_forward(&server_out, Mode::Train);
            let out = ce.compute(&logits, &labels);
            let grad_server_out = shadow.tail_backward(&out.grad);
            let grad_features = selector
                .backward_bodies(bodies, &grad_server_out)
                .expect("the shadow tail's gradient matches the server output");
            let _ = shadow.head_backward(&grad_features);
            shadow_opt.step(&mut shadow.params_mut());
        }
    }

    // Step 2: fit a decoder that inverts the shadow head.
    let mse = MseLoss::new();
    let mut decoder = Decoder::new(config, &mut rng);
    let mut decoder_opt = Sgd::new(attack.learning_rate).with_momentum(0.9);
    for _ in 0..attack.decoder_epochs {
        for (images, _labels) in public_data.batches(attack.batch_size, &mut rng) {
            let features = shadow.head_forward(&images, Mode::Eval);
            let reconstruction = decoder.forward(&features, Mode::Train);
            let out = mse.compute(&reconstruction, &images);
            let _ = decoder.backward(&out.grad);
            decoder_opt.step(&mut decoder.params_mut());
        }
    }

    // Step 3: invert the features the client actually transmitted.
    let reconstructions = decoder.forward(transmitted_features, Mode::Eval);
    AttackOutcome {
        ssim: ssim(private_images, &reconstructions, 1.0),
        psnr: psnr_batch(private_images, &reconstructions, 1.0),
        reconstructions,
    }
}

/// [`run_attack`] against each of `views` in turn, the `i`-th seeded
/// `attack.seed + i`, on what the victim transmits for `private_images`.
fn attack_views(
    victim: &dyn Defense,
    views: impl IntoIterator<Item = ServerView>,
    public_data: &Dataset,
    private_images: &Tensor,
    attack: &AttackConfig,
) -> Result<Vec<AttackOutcome>, EnsemblerError> {
    let transmitted = victim.client_features(private_images)?;
    let attack_view = |(i, mut view): (usize, ServerView)| {
        let mut attack = attack.clone();
        attack.seed = attack.seed.wrapping_add(i as u64);
        run_attack(
            &mut view,
            victim.config(),
            public_data,
            private_images,
            &transmitted,
            &attack,
        )
    };
    Ok(views.into_iter().enumerate().map(attack_view).collect())
}

/// Attacks a pipeline through the strongest single-network view: server
/// network 0. For the single-network baselines (None / Single / Shredder /
/// DR-single defences) this is the paper's baseline attack.
///
/// # Errors
///
/// Propagates failures of the victim's [`Defense::client_features`].
pub fn attack_single_pipeline(
    victim: &dyn Defense,
    public_data: &Dataset,
    private_images: &Tensor,
    attack: &AttackConfig,
) -> Result<AttackOutcome, EnsemblerError> {
    let view = ServerView::single(victim, 0);
    Ok(attack_views(victim, [view], public_data, private_images, attack)?.remove(0))
}

/// Attacks an Ensembler pipeline once per server network, returning one
/// outcome per network (Proposition 1's reconstruction strategy). Table I
/// reports the strongest of these per metric.
///
/// # Errors
///
/// Propagates failures of the victim's [`Defense::client_features`].
pub fn attack_all_single_nets(
    victim: &dyn Defense,
    public_data: &Dataset,
    private_images: &Tensor,
    attack: &AttackConfig,
) -> Result<Vec<AttackOutcome>, EnsemblerError> {
    let views = (0..victim.ensemble_size()).map(|i| ServerView::single(victim, i));
    attack_views(victim, views, public_data, private_images, attack)
}

/// Attacks an Ensembler pipeline with the adaptive strategy that trains the
/// shadow network against all `N` server networks at once (Proposition 2).
///
/// # Errors
///
/// Propagates failures of the victim's [`Defense::client_features`].
pub fn attack_adaptive(
    victim: &dyn Defense,
    public_data: &Dataset,
    private_images: &Tensor,
    attack: &AttackConfig,
) -> Result<AttackOutcome, EnsemblerError> {
    let view = ServerView::all(victim);
    Ok(attack_views(victim, [view], public_data, private_images, attack)?.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensembler::{DefenseKind, EnsemblerTrainer, SinglePipeline, TrainConfig};
    use ensembler_data::SyntheticSpec;

    fn tiny_victim_single() -> (SinglePipeline, ensembler_data::SyntheticDataset) {
        let data = SyntheticSpec::tiny_for_tests().generate(9);
        let mut victim =
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 5).unwrap();
        victim
            .train_supervised(&data.train, &TrainConfig::fast_for_tests())
            .unwrap();
        (victim, data)
    }

    #[test]
    fn attack_on_single_pipeline_produces_valid_metrics() {
        let (victim, data) = tiny_victim_single();
        let (private_images, _) = data.test.batch(0, 4);
        let outcome = attack_single_pipeline(
            &victim,
            &data.train,
            &private_images,
            &AttackConfig::fast_for_tests(),
        )
        .unwrap();
        assert_eq!(outcome.reconstructions.shape(), private_images.shape());
        assert!(outcome.ssim >= -1.0 && outcome.ssim <= 1.0);
        assert!(outcome.psnr >= 0.0 && outcome.psnr <= 60.0);
        assert!(outcome.reconstructions.min() >= 0.0);
        assert!(outcome.reconstructions.max() <= 1.0);
    }

    #[test]
    fn attack_strategies_on_ensembler_produce_consistent_shapes() {
        let data = SyntheticSpec::tiny_for_tests().generate(10);
        let trainer = EnsemblerTrainer::new(
            ResNetConfig::tiny_for_tests(),
            TrainConfig::fast_for_tests(),
        );
        let pipeline = trainer.train(2, 1, &data.train).unwrap().into_pipeline();
        let (private_images, _) = data.test.batch(0, 3);
        let cfg = AttackConfig::fast_for_tests();

        let per_net =
            attack_all_single_nets(&pipeline, &data.train, &private_images, &cfg).unwrap();
        assert_eq!(per_net.len(), 2);
        for outcome in &per_net {
            assert_eq!(outcome.reconstructions.shape(), private_images.shape());
        }

        let adaptive = attack_adaptive(&pipeline, &data.train, &private_images, &cfg).unwrap();
        assert_eq!(adaptive.reconstructions.shape(), private_images.shape());
    }

    #[test]
    fn attacks_leave_the_victim_untouched() {
        // The redesigned API takes &dyn Defense: mounting an attack must not
        // perturb the victim's behaviour in any way.
        let (victim, data) = tiny_victim_single();
        let (private_images, _) = data.test.batch(0, 2);
        let before = victim.predict(&private_images).unwrap();
        let _ = attack_single_pipeline(
            &victim,
            &data.train,
            &private_images,
            &AttackConfig::fast_for_tests(),
        )
        .unwrap();
        assert_eq!(victim.predict(&private_images).unwrap(), before);
    }

    #[test]
    fn server_view_feature_widths() {
        let config = ResNetConfig::tiny_for_tests();
        let mut rng = Rng::seed_from(0);
        let bodies: Vec<Sequential> = (0..3)
            .map(|_| ensembler_nn::models::build_body(&config, &mut rng))
            .collect();
        let per = config.body_output_features();
        let single = ServerView::new(vec![bodies[0].clone()]);
        assert_eq!(single.feature_width(per), per);
        let all = ServerView::new(bodies);
        assert_eq!(all.feature_width(per), 3 * per);
    }

    #[test]
    fn all_view_forward_concatenates_with_uniform_scaling() {
        let config = ResNetConfig::tiny_for_tests();
        let mut rng = Rng::seed_from(1);
        let bodies: Vec<Sequential> = (0..2)
            .map(|_| ensembler_nn::models::build_body(&config, &mut rng))
            .collect();
        let per = config.body_output_features();
        let shape = config.head_output_shape();
        let features = Tensor::ones(&[2, shape[0], shape[1], shape[2]]);

        let single_outputs: Vec<Tensor> = bodies
            .iter()
            .map(|b| b.forward(&features, Mode::Eval))
            .collect();
        let mut view = ServerView::new(bodies);
        let combined = view
            .selector
            .forward_bodies(&mut view.bodies, &features, Mode::Eval)
            .unwrap();
        assert_eq!(combined.shape(), &[2, 2 * per]);
        // First per-network block equals the single output scaled by 1/N.
        for f in 0..per {
            let expected = single_outputs[0].at2(0, f) * 0.5;
            assert!((combined.at2(0, f) - expected).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "public dataset must not be empty")]
    fn attack_requires_public_data() {
        let (victim, data) = tiny_victim_single();
        let (private_images, _) = data.test.batch(0, 2);
        let transmitted = victim.client_features(&private_images).unwrap();
        let empty = Dataset::new(Tensor::zeros(&[0, 3, 8, 8]), vec![], 3);
        let mut view = ServerView::single(&victim, 0);
        let _ = run_attack(
            &mut view,
            victim.config(),
            &empty,
            &private_images,
            &transmitted,
            &AttackConfig::fast_for_tests(),
        );
    }
}
