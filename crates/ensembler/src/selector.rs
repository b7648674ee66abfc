//! The client's private selector (Eq. 1 of the paper).

use crate::EnsemblerError;
use ensembler_nn::{Layer, Mode, Sequential};
use ensembler_tensor::{Rng, Tensor};

/// The secret activation the client applies to the `N` feature maps returned
/// by the server.
///
/// The selector activates `P` of the `N` maps, scales each by `S_i = 1/P` and
/// concatenates them along the feature axis before the client tail `M_c,t`
/// consumes them. Which indices are active is the client's secret; the server
/// only ever sees that all `N` outputs are requested.
///
/// # Examples
///
/// ```
/// use ensembler::Selector;
/// use ensembler_tensor::Tensor;
///
/// let selector = Selector::from_indices(4, vec![1, 3])?;
/// let maps = vec![
///     Tensor::full(&[2, 3], 0.0),
///     Tensor::full(&[2, 3], 1.0),
///     Tensor::full(&[2, 3], 2.0),
///     Tensor::full(&[2, 3], 3.0),
/// ];
/// let combined = selector.combine(&maps)?;
/// assert_eq!(combined.shape(), &[2, 6]);
/// assert_eq!(combined.at2(0, 0), 0.5);  // map 1 scaled by 1/P = 1/2
/// assert_eq!(combined.at2(0, 3), 1.5);  // map 3 scaled by 1/2
/// # Ok::<(), ensembler::EnsemblerError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selector {
    ensemble_size: usize,
    active: Vec<usize>,
}

impl Selector {
    /// Creates a selector that activates the given `active` indices out of
    /// `ensemble_size` server networks.
    ///
    /// # Errors
    ///
    /// Returns [`EnsemblerError::InvalidSelection`] if `active` is empty,
    /// contains duplicates, or references an index `>= ensemble_size`.
    pub fn from_indices(
        ensemble_size: usize,
        mut active: Vec<usize>,
    ) -> Result<Self, EnsemblerError> {
        active.sort_unstable();
        let mut deduped = active.clone();
        deduped.dedup();
        if active.is_empty()
            || deduped.len() != active.len()
            || active.iter().any(|&i| i >= ensemble_size)
        {
            return Err(EnsemblerError::InvalidSelection {
                selected: active.len(),
                available: ensemble_size,
            });
        }
        Ok(Self {
            ensemble_size,
            active,
        })
    }

    /// Draws a uniformly random secret selection of `p` networks out of
    /// `ensemble_size`.
    ///
    /// # Errors
    ///
    /// Returns [`EnsemblerError::InvalidSelection`] if `p` is zero or larger
    /// than `ensemble_size`.
    pub fn random(ensemble_size: usize, p: usize, rng: &mut Rng) -> Result<Self, EnsemblerError> {
        if p == 0 || p > ensemble_size {
            return Err(EnsemblerError::InvalidSelection {
                selected: p,
                available: ensemble_size,
            });
        }
        let active = rng.choose_indices(ensemble_size, p);
        Ok(Self {
            ensemble_size,
            active,
        })
    }

    /// Selector that activates every network with scale `1/N` — the shape of
    /// the *adaptive* attacker's guess (`N = 1`: an attack on one body). The
    /// DR-N baseline draws a [`Selector::random`] like Ensembler.
    pub fn all(ensemble_size: usize) -> Self {
        Self {
            ensemble_size,
            active: (0..ensemble_size).collect(),
        }
    }

    /// Number of server networks in the ensemble (N).
    pub fn ensemble_size(&self) -> usize {
        self.ensemble_size
    }

    /// The activated indices, sorted ascending.
    pub fn active_indices(&self) -> &[usize] {
        &self.active
    }

    /// Number of activated networks (P).
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The per-map scale `S_i = 1/P`.
    pub fn scale(&self) -> f32 {
        1.0 / self.active.len() as f32
    }

    /// Returns `true` if network `index` is activated.
    pub fn is_active(&self, index: usize) -> bool {
        self.active.binary_search(&index).is_ok()
    }

    /// Applies Eq. 1: scales each activated `[batch, features]` map by `1/P`
    /// and concatenates them along the feature axis.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer maps than `ensemble_size` are supplied or
    /// the activated maps disagree in shape.
    pub fn combine(&self, feature_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
        if feature_maps.len() != self.ensemble_size {
            return Err(EnsemblerError::ShapeMismatch(format!(
                "expected {} feature maps, got {}",
                self.ensemble_size,
                feature_maps.len()
            )));
        }
        let first = &feature_maps[self.active[0]];
        if first.rank() != 2 {
            return Err(EnsemblerError::ShapeMismatch(
                "selector expects [batch, features] maps".to_string(),
            ));
        }
        let (batch, features) = (first.shape()[0], first.shape()[1]);
        let mut data = Vec::with_capacity(batch * features * self.active.len());
        let scale = self.scale();
        for n in 0..batch {
            for &idx in &self.active {
                let map = &feature_maps[idx];
                if map.shape() != first.shape() {
                    return Err(EnsemblerError::ShapeMismatch(format!(
                        "feature map {idx} has shape {:?}, expected {:?}",
                        map.shape(),
                        first.shape()
                    )));
                }
                let row = &map.data()[n * features..(n + 1) * features];
                data.extend(row.iter().map(|v| v * scale));
            }
        }
        Tensor::from_vec(data, &[batch, features * self.active.len()])
            .map_err(|e| EnsemblerError::ShapeMismatch(e.to_string()))
    }

    /// Splits the gradient of the combined features back into per-network
    /// gradients (the adjoint of [`Selector::combine`]). Inactive networks
    /// receive a zero gradient.
    ///
    /// # Errors
    ///
    /// Returns an error if `grad_combined` does not have the
    /// `[batch, P * features]` shape produced by `combine`.
    pub fn split_gradient(
        &self,
        grad_combined: &Tensor,
        features_per_map: usize,
    ) -> Result<Vec<Tensor>, EnsemblerError> {
        if grad_combined.rank() != 2
            || grad_combined.shape()[1] != features_per_map * self.active.len()
        {
            return Err(EnsemblerError::ShapeMismatch(format!(
                "expected [batch, {}] combined gradient, got {:?}",
                features_per_map * self.active.len(),
                grad_combined.shape()
            )));
        }
        let batch = grad_combined.shape()[0];
        let scale = self.scale();
        let mut grads = vec![Tensor::zeros(&[batch, features_per_map]); self.ensemble_size];
        for n in 0..batch {
            for (slot, &idx) in self.active.iter().enumerate() {
                let src_base = n * features_per_map * self.active.len() + slot * features_per_map;
                let dst_base = n * features_per_map;
                let grad = &mut grads[idx];
                for f in 0..features_per_map {
                    grad.data_mut()[dst_base + f] = grad_combined.data()[src_base + f] * scale;
                }
            }
        }
        Ok(grads)
    }

    /// Eq. 1 over the bodies themselves: a cached forward of each active
    /// body, then [`Selector::combine`]. Stage 3, the DR-N baseline and the
    /// attacks run server bodies only through this and its adjoint,
    /// [`Selector::backward_bodies`].
    ///
    /// # Errors
    ///
    /// As [`Selector::combine`].
    pub fn forward_bodies(
        &self,
        bodies: &mut [Sequential],
        features: &Tensor,
        mode: Mode,
    ) -> Result<Tensor, EnsemblerError> {
        let mut maps = vec![Tensor::default(); bodies.len()];
        for (i, body) in bodies.iter_mut().enumerate() {
            if self.is_active(i) {
                maps[i] = body.forward_cached(features, mode);
            }
        }
        self.combine(&maps)
    }

    /// [`Selector::split_gradient`], each active body's backward, and their
    /// input gradients summed in ascending index. A frozen body
    /// ([`Layer::freeze`]) computes no parameter gradient.
    ///
    /// # Errors
    ///
    /// Returns an error if `bodies` does not hold `ensemble_size` networks or
    /// `grad_combined` is not shaped like the output of `forward_bodies`.
    pub fn backward_bodies(
        &self,
        bodies: &mut [Sequential],
        grad_combined: &Tensor,
    ) -> Result<Tensor, EnsemblerError> {
        let (n, got) = (self.ensemble_size, bodies.len());
        if got != n {
            let message = format!("expected {n} server bodies, got {got}");
            return Err(EnsemblerError::ShapeMismatch(message));
        }
        let width = grad_combined.shape().get(1).copied().unwrap_or(0);
        let grads = self.split_gradient(grad_combined, width / self.active.len())?;
        let mut inputs = self.active.iter().map(|&i| bodies[i].backward(&grads[i]));
        let mut sum = inputs.next().expect("one active body");
        inputs.for_each(|grad| sum.add_assign(&grad));
        Ok(sum)
    }

    /// Number of possible secret selections of this size, `C(N, P)` — the
    /// brute-force space an attacker faces (Sec. III-D puts the expected MIA
    /// cost at `O(2^N)` over all subset sizes).
    pub fn search_space(&self) -> u128 {
        binomial(self.ensemble_size as u128, self.active.len() as u128)
    }
}

fn binomial(n: u128, k: u128) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        result = result * (n - i) / (i + 1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_indices() {
        assert!(Selector::from_indices(4, vec![0, 2]).is_ok());
        assert!(Selector::from_indices(4, vec![]).is_err());
        assert!(Selector::from_indices(4, vec![4]).is_err());
        assert!(Selector::from_indices(4, vec![1, 1]).is_err());
    }

    #[test]
    fn random_selection_has_requested_size_and_valid_indices() {
        let mut rng = Rng::seed_from(3);
        let sel = Selector::random(10, 4, &mut rng).unwrap();
        assert_eq!(sel.active_count(), 4);
        assert_eq!(sel.ensemble_size(), 10);
        assert!(sel.active_indices().iter().all(|&i| i < 10));
        assert!((sel.scale() - 0.25).abs() < f32::EPSILON);
        assert!(Selector::random(10, 0, &mut rng).is_err());
        assert!(Selector::random(10, 11, &mut rng).is_err());
    }

    #[test]
    fn all_selector_activates_every_network() {
        let sel = Selector::all(5);
        assert_eq!(sel.active_count(), 5);
        assert!((0..5).all(|i| sel.is_active(i)));
        assert!((sel.scale() - 0.2).abs() < f32::EPSILON);
    }

    #[test]
    fn combine_scales_and_concatenates_in_index_order() {
        let sel = Selector::from_indices(3, vec![2, 0]).unwrap();
        // Indices are stored sorted, so map 0 comes before map 2.
        let maps = vec![
            Tensor::full(&[1, 2], 2.0),
            Tensor::full(&[1, 2], 5.0),
            Tensor::full(&[1, 2], 4.0),
        ];
        let combined = sel.combine(&maps).unwrap();
        assert_eq!(combined.shape(), &[1, 4]);
        assert_eq!(combined.data(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn combine_validates_map_count_and_shapes() {
        let sel = Selector::from_indices(2, vec![0, 1]).unwrap();
        let short = vec![Tensor::zeros(&[1, 2])];
        assert!(sel.combine(&short).is_err());
        let mismatched = vec![Tensor::zeros(&[1, 2]), Tensor::zeros(&[1, 3])];
        assert!(sel.combine(&mismatched).is_err());
        let not_flat = vec![Tensor::zeros(&[1, 2, 1, 1]), Tensor::zeros(&[1, 2, 1, 1])];
        assert!(sel.combine(&not_flat).is_err());
    }

    #[test]
    fn split_gradient_is_the_adjoint_of_combine() {
        let mut rng = Rng::seed_from(7);
        let sel = Selector::from_indices(4, vec![1, 3]).unwrap();
        let maps: Vec<Tensor> = (0..4)
            .map(|_| Tensor::from_fn(&[2, 3], |_| rng.uniform(-1.0, 1.0)))
            .collect();
        let combined = sel.combine(&maps).unwrap();
        let grad_combined = Tensor::from_fn(combined.shape(), |_| rng.uniform(-1.0, 1.0));
        let grads = sel.split_gradient(&grad_combined, 3).unwrap();

        // <combine(maps), g> == sum_i <maps[i], split(g)[i]>
        let lhs = combined.dot(&grad_combined);
        let rhs: f32 = maps.iter().zip(&grads).map(|(m, g)| m.dot(g)).sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");

        // Inactive networks receive exactly zero gradient.
        assert_eq!(grads[0].norm(), 0.0);
        assert_eq!(grads[2].norm(), 0.0);
        assert!(grads[1].norm() > 0.0);
    }

    #[test]
    fn split_gradient_validates_shape() {
        let sel = Selector::from_indices(2, vec![0]).unwrap();
        let bad = Tensor::zeros(&[1, 5]);
        assert!(sel.split_gradient(&bad, 3).is_err());
    }

    #[test]
    fn search_space_matches_binomial_coefficients() {
        let sel = Selector::from_indices(10, vec![0, 1, 2, 3]).unwrap();
        assert_eq!(sel.search_space(), 210);
        let sel = Selector::from_indices(10, vec![0, 1, 2]).unwrap();
        assert_eq!(sel.search_space(), 120);
        let all = Selector::all(6);
        assert_eq!(all.search_space(), 1);
    }
}
