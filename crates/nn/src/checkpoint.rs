//! Saving and restoring layer parameters (a minimal `state_dict` equivalent).
//!
//! The Ensembler workflow needs this in two places: the stage-1 server bodies
//! are trained once and then reused (frozen) by stage 3 and by every attack
//! experiment, and a deployment wants to ship trained weights from the
//! training machine to the client and the server. The checkpoint format is a
//! plain ordered list of tensors, matched positionally against
//! [`Layer::params`] — the same convention optimizers use. Persisting one is
//! the model artifact's job ([`crate::artifact`]).

use crate::Layer;
use ensembler_tensor::{ShapeError, Tensor};

/// A snapshot of a layer's (or whole network's) parameters.
///
/// # Examples
///
/// ```
/// use ensembler_nn::{Checkpoint, Layer, Linear};
/// use ensembler_tensor::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let a = Linear::new(4, 2, &mut rng);
/// let mut b = Linear::new(4, 2, &mut rng);
/// let snapshot = Checkpoint::capture(&a);
/// snapshot.restore(&mut b)?;
/// assert_eq!(a.weight().value, b.weight().value);
/// # Ok::<(), ensembler_nn::RestoreCheckpointError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    tensors: Vec<Tensor>,
}

/// Error returned when a checkpoint does not fit the target layer.
#[derive(Debug, Clone, PartialEq)]
pub struct RestoreCheckpointError {
    message: String,
}

impl std::fmt::Display for RestoreCheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for RestoreCheckpointError {}

impl From<ShapeError> for RestoreCheckpointError {
    fn from(err: ShapeError) -> Self {
        Self {
            message: err.to_string(),
        }
    }
}

impl Checkpoint {
    /// Captures the current parameter values of a layer.
    pub fn capture(layer: &dyn Layer) -> Self {
        Self {
            tensors: layer.params().iter().map(|p| p.value.clone()).collect(),
        }
    }

    /// Builds a snapshot directly from an ordered tensor list (the model
    /// artifact loader's path: tensors decoded from disk, matched
    /// positionally against a freshly built architecture).
    pub fn from_tensors(tensors: Vec<Tensor>) -> Self {
        Self { tensors }
    }

    /// The captured parameter tensors, in [`Layer::params`] order.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Number of parameter tensors in the snapshot.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Returns `true` if the snapshot holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total number of scalar values stored.
    pub fn scalar_count(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    /// Writes the snapshot's values into `layer`, matching parameters by
    /// position.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameter count or any tensor shape differs
    /// from the target layer; in that case the layer is left unchanged.
    pub fn restore(&self, layer: &mut dyn Layer) -> Result<(), RestoreCheckpointError> {
        {
            let params = layer.params();
            if params.len() != self.tensors.len() {
                return Err(RestoreCheckpointError {
                    message: format!(
                        "checkpoint has {} tensors but the layer has {} parameters",
                        self.tensors.len(),
                        params.len()
                    ),
                });
            }
            for (i, (param, tensor)) in params.iter().zip(&self.tensors).enumerate() {
                if param.value.shape() != tensor.shape() {
                    return Err(RestoreCheckpointError {
                        message: format!(
                            "parameter {i} has shape {:?} but the checkpoint stores {:?}",
                            param.value.shape(),
                            tensor.shape()
                        ),
                    });
                }
            }
        }
        for (param, tensor) in layer.params_mut().into_iter().zip(&self.tensors) {
            param.value = tensor.clone();
            param.zero_grad();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{build_body, ResNetConfig};
    use crate::{Linear, Mode, Relu, Sequential};
    use ensembler_tensor::Rng;

    #[test]
    fn capture_and_restore_round_trips_a_network() {
        let config = ResNetConfig::tiny_for_tests();
        let mut rng = Rng::seed_from(0);
        let source = build_body(&config, &mut rng);
        let mut target = build_body(&config, &mut rng);

        let snapshot = Checkpoint::capture(&source);
        assert!(!snapshot.is_empty());
        assert_eq!(snapshot.scalar_count(), source.parameter_count());
        snapshot.restore(&mut target).unwrap();

        let shape = config.head_output_shape();
        let x = Tensor::from_fn(&[2, shape[0], shape[1], shape[2]], |i| {
            (i as f32 * 0.01).sin()
        });
        let ya = source.forward(&x, Mode::Eval);
        let yb = target.forward(&x, Mode::Eval);
        assert_eq!(ya, yb, "restored network must compute identical outputs");
    }

    #[test]
    fn restore_rejects_mismatched_architectures() {
        let mut rng = Rng::seed_from(1);
        let small = Linear::new(4, 2, &mut rng);
        let mut large = Linear::new(8, 2, &mut rng);
        let snapshot = Checkpoint::capture(&small);
        let err = snapshot.restore(&mut large).unwrap_err();
        assert!(err.to_string().contains("shape"));

        let mut different_count = Sequential::new(vec![
            Box::new(Linear::new(4, 2, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(2, 2, &mut rng)),
        ]);
        let err = snapshot.restore(&mut different_count).unwrap_err();
        assert!(err.to_string().contains("parameters"));
    }

    #[test]
    fn restore_failure_leaves_the_target_unchanged() {
        let mut rng = Rng::seed_from(2);
        let small = Linear::new(4, 2, &mut rng);
        let mut target = Linear::new(8, 2, &mut rng);
        let before = target.weight().value.clone();
        let _ = Checkpoint::capture(&small).restore(&mut target);
        assert_eq!(target.weight().value, before);
    }
}
