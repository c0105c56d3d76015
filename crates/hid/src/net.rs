//! Dense feed-forward networks: the paper's "MLP (Sklearn)" 3-layer
//! classifier and the "NN (TensorFlow)" 6-layer ReLU network, both
//! implemented from scratch with backpropagation.
//!
//! The implementation runs on the flat math core of [`crate::linalg`]:
//! each layer's weights are one row-major [`Mat`] (`weights[l]` row `j`
//! is output unit `j`'s fan-in). A fit allocates its activation and
//! gradient buffers once, so no epoch allocates. The per-sample forward
//! pass computes four output units at a time through [`matvec_into`]'s
//! lane kernel, backprop makes one pass over each layer's rows, and
//! [`DenseNet::predict_batch`] forwards the whole batch through
//! [`gemm_nt`]. Every dot product keeps the seed implementation's fold
//! (−0.0 start, k in order), so weights and predictions are
//! bit-identical to the jagged `Vec<Vec<Vec<f64>>>` original (kept as
//! [`crate::reference::RefDenseNet`] and locked by
//! `tests/fastmath_equivalence.rs`).

use cr_spectre_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::detector::Detector;
use crate::linalg::{gemm_nt, matvec_into, relu, relu_grad, sigmoid, Mat};

/// A dense network with ReLU hidden layers and a single sigmoid output,
/// trained with per-sample SGD on binary cross-entropy.
#[derive(Debug, Clone)]
pub struct DenseNet {
    name: &'static str,
    hidden: Vec<usize>,
    /// `weights[l]` is the `sizes[l+1] × sizes[l]` matrix of layer `l`:
    /// row `j` holds output unit `j`'s incoming weights.
    weights: Vec<Mat>,
    biases: Vec<Vec<f64>>,
    /// Learning rate.
    pub learning_rate: f64,
    /// Full passes over the training data.
    pub epochs: usize,
    /// Initialization/shuffling seed.
    pub seed: u64,
}

/// Preallocated per-fit working set: activations, pre-activations and
/// the two delta buffers, allocated once up front so the per-sample
/// loop never allocates.
struct NetScratch {
    /// `acts[0]` is the input copy; `acts[l + 1]` layer `l`'s output.
    acts: Vec<Vec<f64>>,
    /// `zs[l]` is layer `l`'s pre-activation.
    zs: Vec<Vec<f64>>,
    delta: Vec<f64>,
    prev_delta: Vec<f64>,
}

impl NetScratch {
    fn for_sizes(sizes: &[usize]) -> NetScratch {
        let widest = sizes.iter().copied().max().unwrap_or(0);
        NetScratch {
            acts: sizes.iter().map(|&n| vec![0.0; n]).collect(),
            zs: sizes[1..].iter().map(|&n| vec![0.0; n]).collect(),
            delta: vec![0.0; widest],
            prev_delta: vec![0.0; widest],
        }
    }
}

impl DenseNet {
    /// A network with the given hidden-layer widths.
    pub fn new(name: &'static str, hidden: Vec<usize>) -> DenseNet {
        assert!(!hidden.is_empty(), "need at least one hidden layer");
        DenseNet {
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
    pub fn mlp() -> DenseNet {
        DenseNet::new("MLP", vec![24, 12])
    }

    /// The paper's 6-layer ReLU network (five hidden layers → output).
    pub fn nn6() -> DenseNet {
        DenseNet::new("NN", vec![32, 24, 16, 12, 8])
    }

    /// Layer sizes including input and output: `[input, hidden..., 1]`.
    fn sizes(&self, input_dim: usize) -> Vec<usize> {
        let mut sizes = vec![input_dim];
        sizes.extend_from_slice(&self.hidden);
        sizes.push(1);
        sizes
    }

    /// The trained weight matrices, one per layer (diagnostics and the
    /// equivalence suite).
    pub fn layers(&self) -> &[Mat] {
        &self.weights
    }

    /// The trained bias vectors, one per layer.
    pub fn layer_biases(&self) -> &[Vec<f64>] {
        &self.biases
    }

    fn init(&mut self, input_dim: usize) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let sizes = self.sizes(input_dim);
        self.weights.clear();
        self.biases.clear();
        for l in 0..sizes.len() - 1 {
            let fan_in = sizes[l] as f64;
            let bound = (2.0 / fan_in).sqrt();
            // Draw in the seed's (j-major, i-minor) order — exactly the
            // row-major fill of the flat layer matrix.
            let mut layer = Mat::zeros(sizes[l + 1], sizes[l]);
            for v in layer.as_mut_slice() {
                *v = rng.random_range(-bound..bound);
            }
            self.weights.push(layer);
            self.biases.push(vec![0.0; sizes[l + 1]]);
        }
    }

    /// Forward pass for one row into the scratch buffers.
    fn forward_scratch(&self, row: &[f64], s: &mut NetScratch) {
        let layers = self.weights.len();
        s.acts[0].copy_from_slice(row);
        for l in 0..layers {
            let (w, b) = (&self.weights[l], &self.biases[l]);
            let (input, output) = {
                let (lo, hi) = s.acts.split_at_mut(l + 1);
                (&lo[l], &mut hi[0])
            };
            let z = &mut s.zs[l];
            matvec_into(w, input, z);
            for (zj, bj) in z.iter_mut().zip(b) {
                *zj += bj;
            }
            if l == layers - 1 {
                for (a, &v) in output.iter_mut().zip(z.iter()) {
                    *a = sigmoid(v);
                }
            } else {
                for (a, &v) in output.iter_mut().zip(z.iter()) {
                    *a = relu(v);
                }
            }
        }
    }

    /// One SGD step over the scratch buffers. Returns whether the
    /// *pre-update* prediction already matched the target — free to
    /// compute (the forward pass is needed anyway) and lets `fit` track
    /// convergence without a second pass.
    fn backprop_scratch(&mut self, row: &[f64], target: f64, s: &mut NetScratch) -> bool {
        let layers = self.weights.len();
        self.forward_scratch(row, s);
        let p = s.acts[layers][0];
        let correct = (p >= 0.5) == (target >= 0.5);
        // Output delta for sigmoid + BCE: (p - t).
        s.delta.clear();
        s.delta.push(p - target);
        for l in (0..layers).rev() {
            // One pass over the layer's rows, j outer. Row j first adds
            // its share of the upstream delta (reading the pre-update
            // weights), then takes its own gradient step — which reads
            // no other row, so every read sees the same weights as the
            // seed's propagate-then-update order. `prev_delta[i]` folds
            // `d_j * w[j][i]` over j from −0.0, exactly `dot`'s fold.
            let lr = self.learning_rate;
            let w = &mut self.weights[l];
            let inputs = &s.acts[l];
            s.prev_delta.clear();
            s.prev_delta.resize(if l > 0 { w.cols() } else { 0 }, -0.0);
            for (j, &d) in s.delta.iter().enumerate() {
                // `lr * d * a` evaluates `lr * d` first; hoisting it
                // keeps every bit.
                let step = lr * d;
                let row = w.row_mut(j);
                if l > 0 {
                    for ((up, wv), &a) in s.prev_delta.iter_mut().zip(row).zip(inputs) {
                        *up += d * *wv;
                        *wv -= step * a;
                    }
                } else {
                    for (wv, &a) in row.iter_mut().zip(inputs) {
                        *wv -= step * a;
                    }
                }
                self.biases[l][j] -= step;
            }
            if l > 0 {
                for (up, &z) in s.prev_delta.iter_mut().zip(&s.zs[l - 1]) {
                    *up *= relu_grad(z);
                }
            }
            std::mem::swap(&mut s.delta, &mut s.prev_delta);
        }
        correct
    }

    /// Probability that `row` is an attack sample.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        let mut s = NetScratch::for_sizes(&self.sizes(row.len()));
        self.forward_scratch(row, &mut s);
        *s.acts.last().expect("output layer").first().expect("output unit")
    }
}

impl Detector for DenseNet {
    fn name(&self) -> &'static str {
        self.name
    }

    fn fit(&mut self, x: &Mat, y: &[u8]) {
        assert_eq!(x.rows(), y.len(), "features/labels mismatch");
        assert!(x.rows() > 0, "cannot fit on no data");
        self.init(x.cols());
        let mut scratch = NetScratch::for_sizes(&self.sizes(x.cols()));
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9);
        let timing = telemetry::enabled();
        // First epoch at which ≥ 99.5 % of samples were already classified
        // correctly before their update — a pure observation; training
        // always runs the full epoch budget so results are unchanged.
        let mut converged_at: Option<usize> = None;
        for epoch in 0..self.epochs {
            let t0 = timing.then(std::time::Instant::now);
            order.shuffle(&mut rng);
            let mut correct = 0usize;
            for &i in &order {
                if self.backprop_scratch(x.row(i), f64::from(y[i]), &mut scratch) {
                    correct += 1;
                }
            }
            if converged_at.is_none() && correct as f64 >= 0.995 * x.rows() as f64 {
                converged_at = Some(epoch + 1);
            }
            if let Some(t0) = t0 {
                telemetry::histogram(
                    "hid.train.epoch_us",
                    t0.elapsed().as_secs_f64() * 1_000_000.0,
                );
            }
        }
        if timing {
            telemetry::counter("hid.fits", 1);
            telemetry::histogram(
                "hid.epochs_to_converge",
                converged_at.unwrap_or(self.epochs) as f64,
            );
        }
    }

    fn predict(&self, row: &[f64]) -> u8 {
        u8::from(self.predict_proba(row) >= 0.5)
    }

    /// Whole-batch forward pass: one [`gemm_nt`] per layer over two
    /// ping-pong activation matrices. Each output element is the same
    /// full-k dot product the per-row path computes, so the batch is
    /// bit-identical to mapping [`DenseNet::predict`] over the rows.
    fn predict_batch(&self, x: &Mat) -> Vec<u8> {
        assert!(!self.weights.is_empty(), "net must be fitted before predict");
        let layers = self.weights.len();
        let n = x.rows();
        let mut cur = Mat::zeros(0, 0);
        let mut next = Mat::zeros(0, 0);
        for l in 0..layers {
            let (w, b) = (&self.weights[l], &self.biases[l]);
            let input = if l == 0 { x } else { &cur };
            next.reset(n, w.rows());
            gemm_nt(input, w, &mut next);
            let last = l == layers - 1;
            for i in 0..n {
                for (v, bj) in next.row_mut(i).iter_mut().zip(b) {
                    let z = *v + bj;
                    *v = if last { sigmoid(z) } else { relu(z) };
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        (0..n).map(|i| u8::from(cur.row(i)[0] >= 0.5)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::testdata::{blobs, xor_data};

    #[test]
    fn mlp_learns_blobs() {
        let (x, y) = blobs(200, 3, 2.5, 21);
        let mut net = DenseNet::mlp();
        net.fit(&x, &y);
        assert!(net.accuracy(&x, &y) > 0.95, "got {}", net.accuracy(&x, &y));
    }

    #[test]
    fn mlp_learns_xor_unlike_linear_models() {
        let (x, y) = xor_data(300, 13);
        let mut net = DenseNet::mlp();
        net.epochs = 200;
        net.fit(&x, &y);
        assert!(net.accuracy(&x, &y) > 0.9, "got {}", net.accuracy(&x, &y));
    }

    #[test]
    fn nn6_has_six_weight_layers() {
        let mut net = DenseNet::nn6();
        let (x, y) = blobs(50, 2, 3.0, 5);
        net.fit(&x, &y);
        assert_eq!(net.layers().len(), 6, "5 hidden + output");
        assert!(net.accuracy(&x, &y) > 0.9);
    }

    #[test]
    fn proba_bounded() {
        let (x, y) = blobs(60, 2, 2.0, 8);
        let mut net = DenseNet::mlp();
        net.fit(&x, &y);
        for row in x.iter_rows() {
            let p = net.predict_proba(row);
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn deterministic_training() {
        let (x, y) = blobs(80, 2, 2.0, 30);
        let mut a = DenseNet::mlp();
        a.fit(&x, &y);
        let mut b = DenseNet::mlp();
        b.fit(&x, &y);
        for row in x.iter_rows() {
            assert_eq!(a.predict_proba(row), b.predict_proba(row));
        }
    }

    #[test]
    fn batch_prediction_matches_per_row() {
        let (x, y) = blobs(120, 3, 2.0, 44);
        let mut net = DenseNet::mlp();
        net.fit(&x, &y);
        let batch = net.predict_batch(&x);
        let per_row: Vec<u8> = x.iter_rows().map(|r| net.predict(r)).collect();
        assert_eq!(batch, per_row);
    }

    #[test]
    #[should_panic(expected = "hidden layer")]
    fn empty_hidden_panics() {
        let _ = DenseNet::new("bad", vec![]);
    }

    #[test]
    #[should_panic(expected = "fitted before predict")]
    fn batch_predict_before_fit_panics() {
        let _ = DenseNet::mlp().predict_batch(&Mat::zeros(1, 2));
    }
}
