//! Logistic regression (the paper's "LR" detector), trained with SGD and
//! L2 regularization.
//!
//! Runs on the flat math core: [`LogisticRegression::fit`] walks
//! contiguous [`Mat`] rows (no per-row pointer chase, nothing allocated
//! per epoch) and [`LogisticRegression::predict_batch`] scores a whole
//! matrix through one [`matvec_into`]. Both keep the seed's dot-product
//! fold, so results are bit-identical to
//! [`crate::reference::RefLogisticRegression`].

use cr_spectre_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::detector::Detector;
use crate::linalg::{dot, matvec_into, sigmoid, Mat};

/// Logistic-regression binary classifier.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    /// Learning rate.
    pub learning_rate: f64,
    /// Full passes over the training data.
    pub epochs: usize,
    /// L2 regularization strength.
    pub l2: f64,
    /// Shuffling seed.
    pub seed: u64,
}

impl LogisticRegression {
    /// Creates an untrained model with the defaults used by the HID.
    pub fn new() -> LogisticRegression {
        LogisticRegression {
            weights: Vec::new(),
            bias: 0.0,
            learning_rate: 0.05,
            epochs: 60,
            l2: 1e-4,
            seed: 17,
        }
    }

    /// Probability that `row` is an attack sample.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        sigmoid(dot(&self.weights, row) + self.bias)
    }

    /// The trained weight vector (the equivalence suite compares it
    /// bit for bit against the seed implementation).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The trained bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

impl Default for LogisticRegression {
    fn default() -> LogisticRegression {
        LogisticRegression::new()
    }
}

impl Detector for LogisticRegression {
    fn name(&self) -> &'static str {
        "LR"
    }

    fn fit(&mut self, x: &Mat, y: &[u8]) {
        assert_eq!(x.rows(), y.len(), "features/labels mismatch");
        assert!(x.rows() > 0, "cannot fit on no data");
        self.weights = vec![0.0; x.cols()];
        self.bias = 0.0;
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let timing = telemetry::enabled();
        for _ in 0..self.epochs {
            let t0 = timing.then(std::time::Instant::now);
            order.shuffle(&mut rng);
            for &i in &order {
                let row = x.row(i);
                let p = self.predict_proba(row);
                let err = p - f64::from(y[i]);
                for (w, &xi) in self.weights.iter_mut().zip(row) {
                    *w -= self.learning_rate * (err * xi + self.l2 * *w);
                }
                self.bias -= self.learning_rate * err;
            }
            if let Some(t0) = t0 {
                telemetry::histogram(
                    "hid.train.epoch_us",
                    t0.elapsed().as_secs_f64() * 1_000_000.0,
                );
            }
        }
    }

    fn predict(&self, row: &[f64]) -> u8 {
        u8::from(self.predict_proba(row) >= 0.5)
    }

    /// Whole-batch scoring: one matrix–vector product over the flat
    /// batch. `dot(row, w)` and `dot(w, row)` multiply the same pairs in
    /// the same order, so this is bit-identical to the per-row path.
    fn predict_batch(&self, x: &Mat) -> Vec<u8> {
        let mut z = vec![0.0; x.rows()];
        matvec_into(x, &self.weights, &mut z);
        z.into_iter().map(|v| u8::from(sigmoid(v + self.bias) >= 0.5)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::testdata::{blobs, xor_data};

    #[test]
    fn learns_linearly_separable_blobs() {
        let (x, y) = blobs(200, 3, 2.5, 11);
        let mut lr = LogisticRegression::new();
        lr.fit(&x, &y);
        assert!(lr.accuracy(&x, &y) > 0.95, "got {}", lr.accuracy(&x, &y));
    }

    #[test]
    fn cannot_learn_xor() {
        // A linear model must fail on XOR — sanity check that the test
        // harness is not trivially passable.
        let (x, y) = xor_data(200, 5);
        let mut lr = LogisticRegression::new();
        lr.fit(&x, &y);
        assert!(lr.accuracy(&x, &y) < 0.8);
    }

    #[test]
    fn proba_is_a_probability() {
        let (x, y) = blobs(50, 2, 2.0, 3);
        let mut lr = LogisticRegression::new();
        lr.fit(&x, &y);
        for row in x.iter_rows() {
            let p = lr.predict_proba(row);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn refit_resets_state() {
        let (x1, y1) = blobs(100, 2, 3.0, 1);
        let mut lr = LogisticRegression::new();
        lr.fit(&x1, &y1);
        let w1 = lr.weights.clone();
        lr.fit(&x1, &y1);
        assert_eq!(w1, lr.weights, "deterministic refit");
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_fit_panics() {
        LogisticRegression::new().fit(&Mat::zeros(0, 0), &[]);
    }

    #[test]
    fn batch_prediction_matches_per_row() {
        let (x, y) = blobs(150, 3, 1.2, 19);
        let mut lr = LogisticRegression::new();
        lr.fit(&x, &y);
        let batch = lr.predict_batch(&x);
        let per_row: Vec<u8> = x.iter_rows().map(|r| lr.predict(r)).collect();
        assert_eq!(batch, per_row);
    }
}
