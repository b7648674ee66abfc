//! Peak signal-to-noise ratio and structural similarity for NCHW image batches.

use ensembler_tensor::Tensor;

/// Ceiling applied to PSNR when two images are numerically identical, so the
/// metric stays finite and comparable across runs.
const PSNR_CAP_DB: f32 = 60.0;

/// Configuration of the SSIM computation.
///
/// The defaults follow the common convention: an 8x8 uniform window moved
/// with stride 1 and the standard stabilising constants `C1 = (0.01 L)^2`,
/// `C2 = (0.03 L)^2` where `L` is the dynamic range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsimConfig {
    /// Square window extent in pixels.
    pub window: usize,
    /// Dynamic range `L` of the images (1.0 for `[0, 1]` images).
    pub dynamic_range: f32,
}

impl Default for SsimConfig {
    fn default() -> Self {
        Self {
            window: 8,
            dynamic_range: 1.0,
        }
    }
}

/// Peak signal-to-noise ratio (dB) between two single images or batches of
/// identical shape. Identical inputs are capped at 60 dB; a non-finite value
/// in either input makes the score NaN (a failed reconstruction, never a
/// perfect one).
///
/// # Panics
///
/// Panics if the shapes differ or `max_value` is not positive.
///
/// # Examples
///
/// ```
/// use ensembler_metrics::psnr;
/// use ensembler_tensor::Tensor;
///
/// let a = Tensor::zeros(&[1, 1, 4, 4]);
/// let b = Tensor::full(&[1, 1, 4, 4], 0.5);
/// let value = psnr(&a, &b, 1.0);
/// assert!((value - 6.02).abs() < 0.1); // 10 log10(1 / 0.25)
/// ```
pub fn psnr(original: &Tensor, reconstruction: &Tensor, max_value: f32) -> f32 {
    assert_eq!(
        original.shape(),
        reconstruction.shape(),
        "psnr requires identical shapes"
    );
    assert!(max_value > 0.0, "dynamic range must be positive");
    if !all_finite(original, reconstruction) {
        return f32::NAN;
    }
    let n = original.len().max(1) as f32;
    let mse: f32 = original
        .data()
        .iter()
        .zip(reconstruction.data())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f32>()
        / n;
    if mse <= f32::EPSILON {
        return PSNR_CAP_DB;
    }
    (10.0 * ((max_value * max_value) / mse).log10()).min(PSNR_CAP_DB)
}

/// Mean PSNR over the batch axis of two `[B, C, H, W]` tensors: NaN if any
/// image of either batch holds a non-finite value.
///
/// # Panics
///
/// Panics if the shapes differ, the tensors are not rank-4, or the batch is
/// empty.
pub fn psnr_batch(original: &Tensor, reconstruction: &Tensor, max_value: f32) -> f32 {
    assert_eq!(original.rank(), 4, "psnr_batch expects NCHW tensors");
    assert_eq!(
        original.shape(),
        reconstruction.shape(),
        "psnr_batch requires identical shapes"
    );
    let batch = original.shape()[0];
    assert!(batch > 0, "batch must be non-empty");
    (0..batch)
        .map(|n| {
            psnr(
                &original.batch_item(n),
                &reconstruction.batch_item(n),
                max_value,
            )
        })
        .sum::<f32>()
        / batch as f32
}

/// Structural similarity between two single NCHW images (batch size 1) or two
/// equal-size batches reduced to their mean.
///
/// The score is computed per channel with a sliding uniform window and then
/// averaged over windows, channels and batch entries. Values lie in
/// `[-1, 1]`, where 1 means structurally identical; a non-finite value in
/// either input makes the score NaN.
///
/// # Panics
///
/// Panics if the shapes differ or are not rank-4.
pub fn ssim(original: &Tensor, reconstruction: &Tensor, dynamic_range: f32) -> f32 {
    ssim_with_config(
        original,
        reconstruction,
        SsimConfig {
            dynamic_range,
            ..SsimConfig::default()
        },
    )
}

/// Mean SSIM over the batch axis, identical to [`ssim`] (which already
/// averages over the batch) but provided for symmetry with [`psnr_batch`].
pub fn ssim_batch(original: &Tensor, reconstruction: &Tensor, dynamic_range: f32) -> f32 {
    ssim(original, reconstruction, dynamic_range)
}

/// SSIM with an explicit [`SsimConfig`].
///
/// # Panics
///
/// Panics if the shapes differ, are not rank-4, or the window is larger than
/// the image.
pub fn ssim_with_config(original: &Tensor, reconstruction: &Tensor, config: SsimConfig) -> f32 {
    assert_eq!(original.rank(), 4, "ssim expects NCHW tensors");
    assert_eq!(
        original.shape(),
        reconstruction.shape(),
        "ssim requires identical shapes"
    );
    if !all_finite(original, reconstruction) {
        return f32::NAN;
    }
    let [b, c, h, w] = [
        original.shape()[0],
        original.shape()[1],
        original.shape()[2],
        original.shape()[3],
    ];
    let win = config.window.min(h).min(w);
    assert!(win > 0, "ssim window must be positive");
    let c1 = (0.01 * config.dynamic_range).powi(2);
    let c2 = (0.03 * config.dynamic_range).powi(2);

    let plane = h * w;
    let mut total = 0.0f64;
    let mut count = 0usize;

    for n in 0..b {
        for ch in 0..c {
            let base = n * c * plane + ch * plane;
            let x = &original.data()[base..base + plane];
            let y = &reconstruction.data()[base..base + plane];
            for wy in 0..=(h - win) {
                for wx in 0..=(w - win) {
                    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
                    let cnt = (win * win) as f64;
                    for dy in 0..win {
                        for dx in 0..win {
                            let xi = f64::from(x[(wy + dy) * w + wx + dx]);
                            let yi = f64::from(y[(wy + dy) * w + wx + dx]);
                            sx += xi;
                            sy += yi;
                            sxx += xi * xi;
                            syy += yi * yi;
                            sxy += xi * yi;
                        }
                    }
                    let mx = sx / cnt;
                    let my = sy / cnt;
                    let vx = (sxx / cnt - mx * mx).max(0.0);
                    let vy = (syy / cnt - my * my).max(0.0);
                    let cov = sxy / cnt - mx * my;
                    let c1 = f64::from(c1);
                    let c2 = f64::from(c2);
                    let score = ((2.0 * mx * my + c1) * (2.0 * cov + c2))
                        / ((mx * mx + my * my + c1) * (vx + vy + c2));
                    total += score;
                    count += 1;
                }
            }
        }
    }
    (total / count.max(1) as f64) as f32
}

/// Whether every value of both images is finite. A metric of a NaN or
/// infinite image is NaN: `f32::min` would otherwise cap a NaN PSNR to the
/// 60 dB of a perfect reconstruction.
fn all_finite(a: &Tensor, b: &Tensor) -> bool {
    a.data().iter().chain(b.data()).all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensembler_tensor::Rng;

    fn random_image(seed: u64, shape: &[usize]) -> Tensor {
        let mut rng = Rng::seed_from(seed);
        Tensor::from_fn(shape, |_| rng.next_f32())
    }

    #[test]
    fn psnr_of_identical_images_is_capped() {
        let img = random_image(0, &[1, 3, 8, 8]);
        assert_eq!(psnr(&img, &img, 1.0), 60.0);
    }

    #[test]
    fn psnr_decreases_with_noise_level() {
        let img = random_image(1, &[1, 3, 8, 8]);
        let slightly = img.add_scalar(0.05);
        let heavily = img.add_scalar(0.5);
        let p_slight = psnr(&img, &slightly, 1.0);
        let p_heavy = psnr(&img, &heavily, 1.0);
        assert!(p_slight > p_heavy);
        assert!((p_slight - 26.02).abs() < 0.2); // 10 log10(1/0.0025)
    }

    #[test]
    fn psnr_batch_averages_per_sample_values() {
        let a = random_image(2, &[2, 1, 4, 4]);
        let mut b = a.clone();
        // Corrupt only the second sample.
        for v in &mut b.data_mut()[16..] {
            *v += 0.25;
        }
        let per_batch = psnr_batch(&a, &b, 1.0);
        let first = psnr(&a.batch_item(0), &b.batch_item(0), 1.0);
        let second = psnr(&a.batch_item(1), &b.batch_item(1), 1.0);
        assert!((per_batch - (first + second) / 2.0).abs() < 1e-4);
        assert_eq!(first, 60.0);
        assert!(second < 14.0);
    }

    #[test]
    fn a_non_finite_image_scores_nan_never_a_perfect_reconstruction() {
        let img = random_image(5, &[2, 3, 8, 8]);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut broken = img.clone();
            broken.data_mut()[70] = bad;
            for (a, b) in [(&img, &broken), (&broken, &img)] {
                assert!(psnr(a, b, 1.0).is_nan(), "psnr with {bad}");
                assert!(psnr_batch(a, b, 1.0).is_nan(), "psnr_batch with {bad}");
                assert!(ssim(a, b, 1.0).is_nan(), "ssim with {bad}");
            }
        }
    }

    #[test]
    fn ssim_is_one_for_identical_images() {
        let img = random_image(3, &[2, 3, 12, 12]);
        assert!(ssim(&img, &img, 1.0) > 0.999);
    }

    #[test]
    fn ssim_is_low_for_unrelated_images() {
        let a = random_image(4, &[1, 1, 16, 16]);
        let b = random_image(5, &[1, 1, 16, 16]);
        assert!(ssim(&a, &b, 1.0) < 0.3);
    }

    #[test]
    fn ssim_is_bounded() {
        let a = random_image(6, &[1, 2, 10, 10]);
        let b = a.map(|x| 1.0 - x);
        let s = ssim(&a, &b, 1.0);
        assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn ssim_penalizes_structure_loss_more_than_brightness_shift() {
        let a = random_image(7, &[1, 1, 16, 16]);
        let shifted = a.add_scalar(0.1).clamp(0.0, 1.0);
        let shuffled = {
            let mut v = a.data().to_vec();
            v.reverse();
            Tensor::from_vec(v, a.shape()).unwrap()
        };
        assert!(ssim(&a, &shifted, 1.0) > ssim(&a, &shuffled, 1.0));
    }

    #[test]
    fn small_images_use_a_clamped_window() {
        let a = random_image(8, &[1, 1, 4, 4]);
        let s = ssim(&a, &a, 1.0);
        assert!(s > 0.999, "window larger than image must be clamped");
    }

    #[test]
    #[should_panic(expected = "identical shapes")]
    fn mismatched_shapes_panic() {
        let a = Tensor::zeros(&[1, 1, 4, 4]);
        let b = Tensor::zeros(&[1, 1, 5, 5]);
        let _ = psnr(&a, &b, 1.0);
    }

    #[test]
    fn ssim_config_default_values() {
        let cfg = SsimConfig::default();
        assert_eq!(cfg.window, 8);
        assert!((cfg.dynamic_range - 1.0).abs() < f32::EPSILON);
    }
}
