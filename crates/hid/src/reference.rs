//! Reference (seed) implementations of the detector families, kept
//! verbatim from before the flat math core landed.
//!
//! These are the **equivalence oracles**: the fast flat-matrix paths in
//! [`crate::net`], [`crate::logreg`], [`crate::svm`] and [`crate::knn`]
//! must produce bit-identical trained weights and predictions, locked by
//! `tests/fastmath_equivalence.rs` — the same role the simulator's
//! `Machine<Reference>` interpreter plays for its fast path.
//!
//! They implement the one [`Detector`] API like every other family, but
//! each `fit` first unboxes the [`Mat`] into jagged `Vec<Vec<f64>>` rows
//! and then runs the seed body unchanged, so no flat-matrix code sits
//! between an oracle and the arithmetic it checks.
//!
//! Nothing here is used by the campaign drivers; production code always
//! runs the fast path.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::detector::Detector;
use crate::linalg::{dot, relu, relu_grad, sigmoid, Mat};

/// Copies a flat matrix back into the jagged rows the seed bodies index.
fn jagged(x: &Mat) -> Vec<Vec<f64>> {
    x.iter_rows().map(<[f64]>::to_vec).collect()
}

/// Seed logistic regression: per-sample SGD over jagged `Vec<Vec<f64>>`
/// rows. Same hyper-parameter defaults as
/// [`crate::logreg::LogisticRegression`].
#[derive(Debug, Clone)]
pub struct RefLogisticRegression {
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

impl RefLogisticRegression {
    /// Creates an untrained model with the defaults used by the HID.
    pub fn new() -> RefLogisticRegression {
        RefLogisticRegression {
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

    /// The trained weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The trained bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

impl Default for RefLogisticRegression {
    fn default() -> RefLogisticRegression {
        RefLogisticRegression::new()
    }
}

impl Detector for RefLogisticRegression {
    fn name(&self) -> &'static str {
        "LR(ref)"
    }

    fn fit(&mut self, x: &Mat, y: &[u8]) {
        let x = &jagged(x);
        assert_eq!(x.len(), y.len(), "features/labels mismatch");
        assert!(!x.is_empty(), "cannot fit on no data");
        let dim = x[0].len();
        self.weights = vec![0.0; dim];
        self.bias = 0.0;
        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let p = self.predict_proba(&x[i]);
                let err = p - f64::from(y[i]);
                for (w, &xi) in self.weights.iter_mut().zip(&x[i]) {
                    *w -= self.learning_rate * (err * xi + self.l2 * *w);
                }
                self.bias -= self.learning_rate * err;
            }
        }
    }

    fn predict(&self, row: &[f64]) -> u8 {
        u8::from(self.predict_proba(row) >= 0.5)
    }
}

/// Seed linear SVM: per-sample Pegasos-style SGD over jagged rows. Same
/// hyper-parameter defaults as [`crate::svm::LinearSvm`].
#[derive(Debug, Clone)]
pub struct RefLinearSvm {
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

impl RefLinearSvm {
    /// Creates an untrained model with the defaults used by the HID.
    pub fn new() -> RefLinearSvm {
        RefLinearSvm {
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

    /// The trained weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The trained bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

impl Default for RefLinearSvm {
    fn default() -> RefLinearSvm {
        RefLinearSvm::new()
    }
}

impl Detector for RefLinearSvm {
    fn name(&self) -> &'static str {
        "SVM(ref)"
    }

    fn fit(&mut self, x: &Mat, y: &[u8]) {
        let x = &jagged(x);
        assert_eq!(x.len(), y.len(), "features/labels mismatch");
        assert!(!x.is_empty(), "cannot fit on no data");
        let dim = x[0].len();
        self.weights = vec![0.0; dim];
        self.bias = 0.0;
        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let t = if y[i] == 1 { 1.0 } else { -1.0 };
                let margin = t * self.decision(&x[i]);
                for (w, &xi) in self.weights.iter_mut().zip(&x[i]) {
                    let grad = if margin < 1.0 { -t * xi } else { 0.0 };
                    *w -= self.learning_rate * (grad + self.lambda * *w);
                }
                if margin < 1.0 {
                    self.bias += self.learning_rate * t;
                }
            }
        }
    }

    fn predict(&self, row: &[f64]) -> u8 {
        u8::from(self.decision(row) >= 0.0)
    }
}

/// Seed dense network: jagged `weights[l][j][i]` storage, per-sample
/// forward/backprop allocating activation vectors on every pass. Same
/// architecture constructors and hyper-parameter defaults as
/// [`crate::net::DenseNet`].
#[derive(Debug, Clone)]
pub struct RefDenseNet {
    name: &'static str,
    hidden: Vec<usize>,
    /// `weights[l][j][i]`: layer `l`, output unit `j`, input unit `i`.
    weights: Vec<Vec<Vec<f64>>>,
    biases: Vec<Vec<f64>>,
    /// Learning rate.
    pub learning_rate: f64,
    /// Full passes over the training data.
    pub epochs: usize,
    /// Initialization/shuffling seed.
    pub seed: u64,
}

impl RefDenseNet {
    /// A network with the given hidden-layer widths.
    pub fn new(name: &'static str, hidden: Vec<usize>) -> RefDenseNet {
        assert!(!hidden.is_empty(), "need at least one hidden layer");
        RefDenseNet {
            name,
            hidden,
            weights: Vec::new(),
            biases: Vec::new(),
            learning_rate: 0.02,
            epochs: 80,
            seed: 31,
        }
    }

    /// The paper's 3-layer MLP (input → two hidden ReLU layers → output).
    pub fn mlp() -> RefDenseNet {
        RefDenseNet::new("MLP(ref)", vec![24, 12])
    }

    /// The paper's 6-layer ReLU network (five hidden layers → output).
    pub fn nn6() -> RefDenseNet {
        RefDenseNet::new("NN(ref)", vec![32, 24, 16, 12, 8])
    }

    /// The trained jagged weight tensor (`[layer][unit][input]`).
    pub fn weights(&self) -> &[Vec<Vec<f64>>] {
        &self.weights
    }

    /// The trained per-layer bias vectors.
    pub fn biases(&self) -> &[Vec<f64>] {
        &self.biases
    }

    fn init(&mut self, input_dim: usize) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut sizes = vec![input_dim];
        sizes.extend_from_slice(&self.hidden);
        sizes.push(1);
        self.weights.clear();
        self.biases.clear();
        for l in 0..sizes.len() - 1 {
            let fan_in = sizes[l] as f64;
            let bound = (2.0 / fan_in).sqrt();
            let layer: Vec<Vec<f64>> = (0..sizes[l + 1])
                .map(|_| (0..sizes[l]).map(|_| rng.random_range(-bound..bound)).collect())
                .collect();
            self.weights.push(layer);
            self.biases.push(vec![0.0; sizes[l + 1]]);
        }
    }

    /// Forward pass returning pre-activations and activations per layer.
    fn forward(&self, row: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let layers = self.weights.len();
        let mut zs = Vec::with_capacity(layers);
        let mut acts = Vec::with_capacity(layers + 1);
        acts.push(row.to_vec());
        for l in 0..layers {
            let input = &acts[l];
            let z: Vec<f64> = self.weights[l]
                .iter()
                .zip(&self.biases[l])
                .map(|(w, b)| w.iter().zip(input).map(|(wi, xi)| wi * xi).sum::<f64>() + b)
                .collect();
            let a: Vec<f64> = if l == layers - 1 {
                z.iter().map(|&v| sigmoid(v)).collect()
            } else {
                z.iter().map(|&v| relu(v)).collect()
            };
            zs.push(z);
            acts.push(a);
        }
        (zs, acts)
    }

    /// Probability that `row` is an attack sample.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        let (_, acts) = self.forward(row);
        acts.last().expect("output layer")[0]
    }

    fn backprop(&mut self, row: &[f64], target: f64) {
        let layers = self.weights.len();
        let (zs, acts) = self.forward(row);
        // Output delta for sigmoid + BCE: (p - t).
        let mut delta = vec![acts[layers][0] - target];
        for l in (0..layers).rev() {
            // Gradient step for this layer, then propagate.
            let prev_delta: Vec<f64> = if l > 0 {
                (0..self.weights[l][0].len())
                    .map(|i| {
                        let upstream: f64 = delta
                            .iter()
                            .enumerate()
                            .map(|(j, d)| d * self.weights[l][j][i])
                            .sum();
                        upstream * relu_grad(zs[l - 1][i])
                    })
                    .collect()
            } else {
                Vec::new()
            };
            for (j, d) in delta.iter().enumerate() {
                for (w, &a) in self.weights[l][j].iter_mut().zip(&acts[l]) {
                    *w -= self.learning_rate * d * a;
                }
                self.biases[l][j] -= self.learning_rate * d;
            }
            delta = prev_delta;
        }
    }
}

impl Detector for RefDenseNet {
    fn name(&self) -> &'static str {
        self.name
    }

    fn fit(&mut self, x: &Mat, y: &[u8]) {
        let x = &jagged(x);
        assert_eq!(x.len(), y.len(), "features/labels mismatch");
        assert!(!x.is_empty(), "cannot fit on no data");
        self.init(x[0].len());
        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9);
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                self.backprop(&x[i], f64::from(y[i]));
            }
        }
    }

    fn predict(&self, row: &[f64]) -> u8 {
        u8::from(self.predict_proba(row) >= 0.5)
    }
}

/// Seed k-NN: full stable sort of all distances per query (O(n log n))
/// instead of the fast path's linear-time selection. Ties on distance
/// keep training order, which is exactly what the fast path's
/// `(distance, index)` tie-break reproduces.
#[derive(Debug, Clone)]
pub struct RefKnn {
    /// Number of neighbours consulted (odd avoids ties).
    pub k: usize,
    x: Vec<Vec<f64>>,
    y: Vec<u8>,
}

impl RefKnn {
    /// Creates an untrained k-NN with `k = 5`.
    pub fn new() -> RefKnn {
        RefKnn { k: 5, x: Vec::new(), y: Vec::new() }
    }

    fn distance2(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
}

impl Default for RefKnn {
    fn default() -> RefKnn {
        RefKnn::new()
    }
}

impl Detector for RefKnn {
    fn name(&self) -> &'static str {
        "kNN(ref)"
    }

    fn fit(&mut self, x: &Mat, y: &[u8]) {
        let x = jagged(x);
        assert_eq!(x.len(), y.len(), "features/labels mismatch");
        assert!(!x.is_empty(), "cannot fit on no data");
        self.x = x;
        self.y = y.to_vec();
    }

    fn predict(&self, row: &[f64]) -> u8 {
        assert!(!self.x.is_empty(), "knn must be fitted before predict");
        let k = self.k.min(self.x.len());
        let mut dists: Vec<(f64, u8)> = self
            .x
            .iter()
            .zip(&self.y)
            .map(|(xi, &yi)| (RefKnn::distance2(row, xi), yi))
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        let attacks = dists[..k].iter().filter(|(_, label)| *label == 1).count();
        u8::from(attacks * 2 > k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::testdata::blobs;

    #[test]
    fn reference_models_still_learn() {
        let (x, y) = blobs(120, 3, 2.5, 61);
        let mut lr = RefLogisticRegression::new();
        lr.fit(&x, &y);
        assert!(lr.accuracy(&x, &y) > 0.95);
        let mut svm = RefLinearSvm::new();
        svm.fit(&x, &y);
        assert!(svm.accuracy(&x, &y) > 0.95);
        let mut knn = RefKnn::new();
        knn.fit(&x, &y);
        assert!(knn.accuracy(&x, &y) > 0.95);
        let mut mlp = RefDenseNet::mlp();
        mlp.fit(&x, &y);
        assert!(mlp.accuracy(&x, &y) > 0.95);
    }
}
