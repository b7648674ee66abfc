//! Lazily compiled, invalidation-aware caches of fused execution plans.
//!
//! Pipelines own their layers mutably (training, weight surgery through
//! `bodies_mut`) while serving inference from `&self` across threads. The
//! [`PlanCell`] reconciles the two: compiled plans are built lazily on the
//! first inference after a mutation and shared via an [`Arc`] until the next
//! mutable access invalidates them.

use ensembler_nn::CompiledPlan;
use std::sync::{Arc, RwLock};

/// A thread-safe cache of compiled plans for a set of networks.
#[derive(Debug, Default)]
pub(crate) struct PlanCell {
    cell: RwLock<Option<Arc<Vec<CompiledPlan>>>>,
}

impl PlanCell {
    /// Creates an empty cell; the first [`PlanCell::get_or_compile`] fills it.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Drops any cached plans. Called from `&mut self` accessors that hand
    /// out mutable layer references, so the next inference recompiles
    /// against the current weights.
    pub(crate) fn invalidate(&mut self) {
        // `&mut self` proves no reader holds the lock; a poisoned lock only
        // means a previous compile panicked, which invalidation cures.
        let slot = self.cell.get_mut().unwrap_or_else(|e| e.into_inner());
        *slot = None;
    }

    /// Returns the cached plans, compiling them with `build` if the cell is
    /// empty. Concurrent first calls may both compile; one result wins.
    pub(crate) fn get_or_compile(
        &self,
        build: impl FnOnce() -> Vec<CompiledPlan>,
    ) -> Arc<Vec<CompiledPlan>> {
        if let Some(plans) = self.cell.read().unwrap_or_else(|e| e.into_inner()).as_ref() {
            return Arc::clone(plans);
        }
        let fresh = Arc::new(build());
        let mut slot = self.cell.write().unwrap_or_else(|e| e.into_inner());
        match slot.as_ref() {
            // Another thread won the race; use its plans so every caller
            // shares one allocation.
            Some(existing) => Arc::clone(existing),
            None => {
                *slot = Some(Arc::clone(&fresh));
                fresh
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensembler_nn::{FusionConfig, Linear, Sequential};
    use ensembler_tensor::{Rng, Tensor};

    fn plans() -> Vec<CompiledPlan> {
        let mut rng = Rng::seed_from(0);
        let net = Sequential::new(vec![Box::new(Linear::new(3, 2, &mut rng))]);
        vec![CompiledPlan::compile(&net, FusionConfig)]
    }

    #[test]
    fn compiles_once_and_caches() {
        let cell = PlanCell::new();
        let a = cell.get_or_compile(plans);
        let b = cell.get_or_compile(|| unreachable!("second call must hit the cache"));
        assert!(Arc::ptr_eq(&a, &b));
        let x = Tensor::ones(&[1, 3]);
        assert_eq!(a[0].run(&x).unwrap(), b[0].run(&x).unwrap());
    }

    #[test]
    fn invalidation_forces_a_recompile() {
        let mut cell = PlanCell::new();
        let a = cell.get_or_compile(plans);
        cell.invalidate();
        let b = cell.get_or_compile(plans);
        assert!(!Arc::ptr_eq(&a, &b));
    }
}
