//! Low-dimensional toy tasks for fast tests and the convergence-rate
//! experiment (Theorem 2).

use crate::dataset::Dataset;
use cdsgd_tensor::{SmallRng64, Tensor};

/// Gaussian blobs: `num_classes` isotropic clusters in `dim` dimensions,
/// cluster centers on a scaled simplex-ish random layout.
pub fn gaussian_blobs(n: usize, dim: usize, num_classes: usize, spread: f32, seed: u64) -> Dataset {
    assert!(dim > 0 && num_classes > 0);
    let mut rng = SmallRng64::new(seed);
    // Well-separated random centers.
    let centers: Vec<Vec<f32>> = (0..num_classes)
        .map(|_| {
            (0..dim)
                .map(|_| 4.0 * (rng.unit_f32() - 0.5) * 2.0)
                .collect()
        })
        .collect();
    let mut data = Vec::with_capacity(n * dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % num_classes;
        for &cd in &centers[c] {
            data.push(cd + spread * rng.gauss());
        }
        labels.push(c);
    }
    let mut ds = Dataset::new(Tensor::from_vec(vec![n, dim], data), labels, num_classes);
    ds.shuffle(&mut rng);
    ds
}

/// The classic two-moons binary task in 2-D.
pub fn two_moons(n: usize, noise: f32, seed: u64) -> Dataset {
    let mut rng = SmallRng64::new(seed);
    let mut data = Vec::with_capacity(n * 2);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let t = rng.unit_f32() * std::f32::consts::PI;
        let (x, y, c) = if i % 2 == 0 {
            (t.cos(), t.sin(), 0usize)
        } else {
            (1.0 - t.cos(), 0.5 - t.sin(), 1usize)
        };
        data.push(x + noise * rng.gauss());
        data.push(y + noise * rng.gauss());
        labels.push(c);
    }
    let mut ds = Dataset::new(Tensor::from_vec(vec![n, 2], data), labels, 2);
    ds.shuffle(&mut rng);
    ds
}

/// A synthetic linear-classification task: labels from a random ground
/// truth linear map plus label noise. Good for convergence-rate plots
/// because the optimum is well-conditioned.
pub fn linear_task(n: usize, dim: usize, num_classes: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng64::new(seed);
    let w = Tensor::randn(&[dim, num_classes], 1.0, &mut rng);
    let x = Tensor::randn(&[n, dim], 1.0, &mut rng);
    let scores = x.matmul(&w);
    let labels = scores.argmax_rows();
    Dataset::new(x, labels, num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_are_separable_by_centroid_distance() {
        let d = gaussian_blobs(300, 4, 3, 0.3, 0);
        // Nearest-centroid classification should be near-perfect at low
        // spread: compute class centroids then re-classify.
        let dim = 4;
        let mut centroids = vec![vec![0.0f32; dim]; 3];
        let mut counts = vec![0usize; 3];
        for i in 0..d.len() {
            let c = d.y[i];
            counts[c] += 1;
            for (acc, &v) in centroids[c].iter_mut().zip(&d.x.data()[i * dim..]) {
                *acc += v;
            }
        }
        for (c, cnt) in centroids.iter_mut().zip(&counts) {
            for v in c.iter_mut() {
                *v /= *cnt as f32;
            }
        }
        let mut correct = 0usize;
        for i in 0..d.len() {
            let xi = &d.x.data()[i * dim..(i + 1) * dim];
            let best = (0..3)
                .min_by(|&a, &b| {
                    let da: f32 = xi
                        .iter()
                        .zip(&centroids[a])
                        .map(|(x, c)| (x - c).powi(2))
                        .sum();
                    let db: f32 = xi
                        .iter()
                        .zip(&centroids[b])
                        .map(|(x, c)| (x - c).powi(2))
                        .sum();
                    da.total_cmp(&db)
                })
                .unwrap();
            if best == d.y[i] {
                correct += 1;
            }
        }
        assert!(correct as f32 / d.len() as f32 > 0.95);
    }

    #[test]
    fn two_moons_is_binary_and_bounded() {
        let d = two_moons(100, 0.05, 1);
        assert_eq!(d.num_classes, 2);
        assert!(d.x.data().iter().all(|&v| v.abs() < 3.0));
        let h = d.class_histogram();
        assert_eq!(h[0] + h[1], 100);
        assert!((h[0] as i64 - h[1] as i64).abs() <= 2);
    }

    #[test]
    fn linear_task_labels_match_ground_truth_map() {
        let d = linear_task(50, 6, 4, 2);
        assert_eq!(d.len(), 50);
        assert!(d.y.iter().all(|&l| l < 4));
        // Deterministic given seed.
        let d2 = linear_task(50, 6, 4, 2);
        assert_eq!(d.y, d2.y);
    }
}
