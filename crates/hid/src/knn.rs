//! k-nearest-neighbours classifier — an instance-based [`Detector`]
//! family used by several counter-based anomaly detectors in the
//! literature the paper cites.
//!
//! The training set is stored as one contiguous [`Mat`], and prediction
//! selects the k smallest distances with [`slice::select_nth_unstable_by`]
//! (O(n) expected) instead of a full sort. Ties on distance break on the
//! original training index, so the selected neighbour set is exactly the
//! first k rows of a stable sort by distance — deterministic, and
//! unit-tested against that full-sort oracle below.

use crate::detector::Detector;
use crate::linalg::Mat;

/// k-NN over Euclidean distance. Stores the training set verbatim.
#[derive(Debug, Clone)]
pub struct Knn {
    /// Number of neighbours consulted (odd avoids ties).
    pub k: usize,
    x: Mat,
    y: Vec<u8>,
}

impl Knn {
    /// Creates an untrained k-NN with `k = 5`.
    pub fn new() -> Knn {
        Knn { k: 5, x: Mat::zeros(0, 0), y: Vec::new() }
    }

    /// Creates an untrained k-NN with a custom `k`.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn with_k(k: usize) -> Knn {
        assert!(k > 0, "k must be nonzero");
        Knn { k, x: Mat::zeros(0, 0), y: Vec::new() }
    }

    fn distance2(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// Majority vote over the k nearest training rows, reusing `dists`
    /// as the selection buffer. Ties on distance break on the training
    /// index, matching a stable sort by distance.
    fn vote(&self, row: &[f64], dists: &mut Vec<(f64, u32)>) -> u8 {
        assert!(self.x.rows() > 0, "knn must be fitted before predict");
        let k = self.k.min(self.x.rows());
        dists.clear();
        dists.extend(
            self.x
                .iter_rows()
                .enumerate()
                .map(|(i, xi)| (Knn::distance2(row, xi), i as u32)),
        );
        // Partial selection of the k smallest (distance, index) pairs.
        dists.select_nth_unstable_by(k - 1, |a, b| {
            a.0.partial_cmp(&b.0).expect("finite distances").then(a.1.cmp(&b.1))
        });
        let attacks = dists[..k]
            .iter()
            .filter(|&&(_, i)| self.y[i as usize] == 1)
            .count();
        u8::from(attacks * 2 > k)
    }
}

impl Default for Knn {
    fn default() -> Knn {
        Knn::new()
    }
}

impl Detector for Knn {
    fn name(&self) -> &'static str {
        "kNN"
    }

    fn fit(&mut self, x: &Mat, y: &[u8]) {
        assert_eq!(x.rows(), y.len(), "features/labels mismatch");
        assert!(x.rows() > 0, "cannot fit on no data");
        self.x = x.clone();
        self.y = y.to_vec();
    }

    fn predict(&self, row: &[f64]) -> u8 {
        let mut dists = Vec::with_capacity(self.x.rows());
        self.vote(row, &mut dists)
    }

    /// Batch scoring that reuses one distance buffer across all query
    /// rows instead of allocating per prediction.
    fn predict_batch(&self, x: &Mat) -> Vec<u8> {
        let mut dists = Vec::with_capacity(self.x.rows());
        x.iter_rows().map(|row| self.vote(row, &mut dists)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::testdata::{blob_rows, blobs, xor_data};

    #[test]
    fn fits_blobs_and_xor() {
        let (x, y) = blobs(200, 3, 2.5, 41);
        let mut knn = Knn::new();
        knn.fit(&x, &y);
        assert!(knn.accuracy(&x, &y) > 0.95);

        let (x, y) = xor_data(300, 43);
        let mut knn = Knn::new();
        knn.fit(&x, &y);
        assert!(knn.accuracy(&x, &y) > 0.9, "kNN handles XOR locally");
    }

    #[test]
    fn k_one_memorizes_training_data() {
        let (x, y) = blobs(100, 2, 1.0, 47);
        let mut knn = Knn::with_k(1);
        knn.fit(&x, &y);
        assert!((knn.accuracy(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let mut knn = Knn::with_k(99);
        knn.fit(&Mat::from_vec(vec![0.0, 10.0], 2, 1), &[0, 1]);
        // With both neighbours voting, attacks*2 > k requires strict
        // majority — a tie votes benign.
        assert_eq!(knn.predict(&[5.0]), 0);
    }

    /// The old implementation: full stable sort by distance, vote over
    /// the first k. The selection path must agree with it on every
    /// query, including exact distance ties from duplicated points.
    fn full_sort_oracle(x: &[Vec<f64>], y: &[u8], k: usize, row: &[f64]) -> u8 {
        let k = k.min(x.len());
        let mut dists: Vec<(f64, u8)> = x
            .iter()
            .zip(y)
            .map(|(xi, &yi)| (Knn::distance2(row, xi), yi))
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        let attacks = dists[..k].iter().filter(|(_, label)| *label == 1).count();
        u8::from(attacks * 2 > k)
    }

    #[test]
    fn selection_matches_full_sort_oracle() {
        let (mut x, mut y) = blob_rows(120, 2, 1.5, 53);
        // Inject exact duplicates with conflicting labels so distance
        // ties at the k boundary actually exercise the tie-break.
        for i in 0..20 {
            x.push(x[i].clone());
            y.push(1 - y[i]);
        }
        for k in [1, 3, 5, 7] {
            let mut knn = Knn::with_k(k);
            knn.fit(&Mat::from_rows(&x), &y);
            for row in &x {
                assert_eq!(
                    knn.predict(row),
                    full_sort_oracle(&x, &y, k, row),
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn batch_prediction_matches_per_row() {
        let (x, y) = blobs(90, 3, 1.0, 59);
        let mut knn = Knn::new();
        knn.fit(&x, &y);
        let batch = knn.predict_batch(&x);
        let per_row: Vec<u8> = x.iter_rows().map(|r| knn.predict(r)).collect();
        assert_eq!(batch, per_row);
    }

    #[test]
    #[should_panic(expected = "k must be nonzero")]
    fn zero_k_panics() {
        let _ = Knn::with_k(0);
    }

    #[test]
    #[should_panic(expected = "fitted before predict")]
    fn predict_before_fit_panics() {
        let _ = Knn::new().predict(&[0.0]);
    }
}
