//! Linear support-vector machine (the paper's "SVM" detector, linear
//! kernel), trained with hinge-loss SGD (Pegasos-style).
//!
//! Runs on the flat math core: [`LinearSvm::fit`] walks contiguous
//! [`Mat`] rows and [`LinearSvm::predict_batch`] scores a whole matrix
//! through one [`matvec_into`], both bit-identical to the seed
//! implementation ([`crate::reference::RefLinearSvm`]).

use cr_spectre_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::detector::Detector;
use crate::linalg::{dot, matvec_into, Mat};

/// Linear SVM binary classifier.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
    /// Learning rate.
    pub learning_rate: f64,
    /// Full passes over the training data.
    pub epochs: usize,
    /// Regularization strength (λ).
    pub lambda: f64,
    /// Shuffling seed.
    pub seed: u64,
}

impl LinearSvm {
    /// Creates an untrained model with the defaults used by the HID.
    pub fn new() -> LinearSvm {
        LinearSvm {
            weights: Vec::new(),
            bias: 0.0,
            learning_rate: 0.02,
            epochs: 60,
            lambda: 1e-4,
            seed: 23,
        }
    }

    /// Signed decision value (positive = attack).
    pub fn decision(&self, row: &[f64]) -> f64 {
        dot(&self.weights, row) + self.bias
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

impl Default for LinearSvm {
    fn default() -> LinearSvm {
        LinearSvm::new()
    }
}

impl Detector for LinearSvm {
    fn name(&self) -> &'static str {
        "SVM"
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
                let t = if y[i] == 1 { 1.0 } else { -1.0 };
                let margin = t * self.decision(row);
                for (w, &xi) in self.weights.iter_mut().zip(row) {
                    let grad = if margin < 1.0 { -t * xi } else { 0.0 };
                    *w -= self.learning_rate * (grad + self.lambda * *w);
                }
                if margin < 1.0 {
                    self.bias += self.learning_rate * t;
                }
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
        u8::from(self.decision(row) >= 0.0)
    }

    /// Whole-batch scoring: one matrix–vector product over the flat
    /// batch, bit-identical to the per-row path (f64 multiplication is
    /// commutative at the bit level).
    fn predict_batch(&self, x: &Mat) -> Vec<u8> {
        let mut z = vec![0.0; x.rows()];
        matvec_into(x, &self.weights, &mut z);
        z.into_iter().map(|v| u8::from(v + self.bias >= 0.0)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::testdata::{blobs, xor_data};

    #[test]
    fn learns_linearly_separable_blobs() {
        let (x, y) = blobs(200, 4, 2.5, 7);
        let mut svm = LinearSvm::new();
        svm.fit(&x, &y);
        assert!(svm.accuracy(&x, &y) > 0.95, "got {}", svm.accuracy(&x, &y));
    }

    #[test]
    fn cannot_learn_xor() {
        let (x, y) = xor_data(200, 9);
        let mut svm = LinearSvm::new();
        svm.fit(&x, &y);
        assert!(svm.accuracy(&x, &y) < 0.8);
    }

    #[test]
    fn decision_sign_matches_prediction() {
        let (x, y) = blobs(80, 2, 3.0, 2);
        let mut svm = LinearSvm::new();
        svm.fit(&x, &y);
        for row in x.iter_rows() {
            assert_eq!(svm.predict(row), u8::from(svm.decision(row) >= 0.0));
        }
    }

    #[test]
    fn deterministic_refit() {
        let (x, y) = blobs(60, 2, 2.0, 4);
        let mut a = LinearSvm::new();
        a.fit(&x, &y);
        let mut b = LinearSvm::new();
        b.fit(&x, &y);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn batch_prediction_matches_per_row() {
        let (x, y) = blobs(150, 3, 1.1, 6);
        let mut svm = LinearSvm::new();
        svm.fit(&x, &y);
        let batch = svm.predict_batch(&x);
        let per_row: Vec<u8> = x.iter_rows().map(|r| svm.predict(r)).collect();
        assert_eq!(batch, per_row);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn batch_prediction_rejects_a_wider_input() {
        let (x, y) = blobs(40, 3, 2.0, 6);
        let mut svm = LinearSvm::new();
        svm.fit(&x, &y);
        let _ = svm.predict_batch(&Mat::zeros(8, 4));
    }
}
