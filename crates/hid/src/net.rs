//! Dense feed-forward networks: the paper's "MLP (Sklearn)" 3-layer
//! classifier and the "NN (TensorFlow)" 6-layer ReLU network, both
//! implemented from scratch with backpropagation.
//!
//! The implementation runs on the flat math core of [`crate::linalg`]:
//! each layer's weights are one row-major [`Mat`] (`weights[l]` row `j`
//! is output unit `j`'s fan-in). A fit allocates its working buffers
//! once, so no epoch allocates.
//!
//! **The per-sample SGD step runs over nonzero entries only.** Most
//! hidden activations are exactly 0 after ReLU, and so are the deltas of
//! those dead units. The forward pass compacts each layer's input into
//! the ascending list of its nonzero positions (branchless: every entry
//! is written, the list length grows by `v != 0`) and folds each unit
//! over that list through [`matvec_gather_into`], from −0.0 and in k
//! order. Backprop visits only the rows of active units (plus the output
//! row), and within a row only the active input columns, for both the
//! upstream-delta fold and the weight update. Every weight, bias and
//! probability stays bit-identical to the dense seed step, because a
//! skipped term is a signed zero:
//!
//! * adding a signed zero to a fold can change only the sign of a zero
//!   result, and a zero pre-activation of either sign gives the same
//!   `relu`, `relu_grad` and `sigmoid`;
//! * a dead unit's delta is ±0, so its update is `w − ±0`, which leaves
//!   `w` unchanged because no weight or bias is ever −0.0 (initial
//!   weights are `start + u·(end − start)` with `start < 0`, biases start
//!   at +0.0, and `x − y` is −0.0 only when `x` already is).
//!
//! That holds while every weight, activation and delta is finite and no
//! skipped sum can overflow. [`DenseNet`]'s `fit` enforces it with a
//! magnitude bound of 2²⁵⁶ checked on values each step computes anyway;
//! on a violation it restores the epoch-start snapshot and finishes the
//! fit on *full* index lists, which are the dense fold order: the same
//! loops, not a second implementation.
//!
//! [`DenseNet::predict_proba_batch`] runs the whole batch feature-major:
//! it transposes the input once and passes `units × batch` activations
//! through one [`gemm_wxt`] per layer, lanes across the batch. Every dot
//! product keeps the seed implementation's fold (−0.0 start, k in
//! order), so weights and predictions are bit-identical to the jagged
//! `Vec<Vec<Vec<f64>>>` original (kept as
//! [`crate::reference::RefDenseNet`] and locked by
//! `tests/fastmath_equivalence.rs` and `tests/props.rs`).

use cr_spectre_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::detector::Detector;
use crate::linalg::{gemm_wxt, matvec_gather_into, relu, relu_grad, sigmoid, Mat};

/// The sparse step's magnitude bound, 2²⁵⁶. A step is exact while, in
/// every layer, max |a| over the inputs, max |d| over the visited rows'
/// deltas and a running bound on max |w| (biases included) all stay at
/// or below it; NaN fails every comparison. Then every weight,
/// activation and delta is finite, so each skipped product is a signed
/// zero, and every sum the step leaves out (a dead column's upstream
/// delta, at most rows · max |d| · max |w| ≤ rows · 2⁵¹²) is finite, so
/// `relu_grad`'s 0 turns it into ±0 as the dense step does. The running
/// weight bound starts at Σ|w| of the initial layer and grows each step
/// by |lr| · max |d| · (max |a| + 1), which covers the update of every
/// weight and bias. The gap between 2⁵¹² and `f64::MAX` absorbs any
/// layer width and the rounding of these bounds.
const SPARSE_BOUND: f64 = f64::from_bits((1023 + 256) << 52);

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
    /// Whether the last fit left the sparse step for full index lists.
    /// Prediction then folds over full lists too, since the weights may
    /// no longer be finite.
    full_lists: bool,
    /// Learning rate.
    pub learning_rate: f64,
    /// Full passes over the training data.
    pub epochs: usize,
    /// Initialization/shuffling seed.
    pub seed: u64,
}

/// Preallocated per-fit working set, allocated once up front so the
/// per-sample loop never allocates.
struct NetScratch {
    /// `idx[l][..nnz[l]]` are the ascending positions of layer `l`'s
    /// inputs the step visits and `val[l][..nnz[l]]` their values: the
    /// nonzero inputs on sparse lists, every input on full lists.
    idx: Vec<Vec<usize>>,
    val: Vec<Vec<f64>>,
    nnz: Vec<usize>,
    /// `amax[l]` is max |a| over layer `l`'s inputs, as [`magnitude`]
    /// bits.
    amax: Vec<u64>,
    /// The current layer's pre-activations.
    z: Vec<f64>,
    /// Deltas of the rows being visited, in row-list order.
    delta: Vec<f64>,
    /// Upstream deltas being folded, in column-list order.
    up: Vec<f64>,
    full: bool,
}

impl NetScratch {
    fn for_sizes(sizes: &[usize], full: bool) -> NetScratch {
        let widest = sizes.iter().copied().max().unwrap_or(0);
        let inputs = &sizes[..sizes.len() - 1];
        NetScratch {
            idx: inputs.iter().map(|&n| vec![0; n]).collect(),
            val: inputs.iter().map(|&n| vec![0.0; n]).collect(),
            nnz: vec![0; inputs.len()],
            amax: vec![0; inputs.len()],
            z: vec![0.0; widest],
            delta: vec![0.0; widest],
            up: vec![0.0; widest],
            full,
        }
    }
}

/// `|v|` as integer bits. They order like the magnitudes, and ∞ and NaN
/// sort above every finite value, so an integer max over them is a
/// one-cycle, NaN-aware max |v|.
fn magnitude(v: f64) -> u64 {
    v.to_bits() & !(1 << 63)
}

/// Writes the ascending positions of `a`'s nonzero entries (all of them
/// when `full`) and their values to the front of `idx` and `val`;
/// returns their count and max |a| as [`magnitude`] bits. Branchless:
/// every entry is written at the list's end and the length grows by
/// `full || v != 0`, so a zero's slot is overwritten by the next entry.
/// A branch per entry costs more in mispredicts than the skipped terms
/// save.
fn compact(a: &[f64], idx: &mut [usize], val: &mut [f64], full: bool) -> (usize, u64) {
    let (idx, val) = (&mut idx[..a.len()], &mut val[..a.len()]);
    let mut n = 0;
    let mut amax = 0;
    for (k, &v) in a.iter().enumerate() {
        idx[n] = k;
        val[n] = v;
        // `v != 0.0` on the bits: ±0 has magnitude 0, NaN does not.
        let mag = magnitude(v);
        n += usize::from(full | (mag != 0));
        amax = amax.max(mag);
    }
    (n, amax)
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
            full_lists: false,
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

    /// Whether the last fit broke the sparse step's magnitude bound and
    /// finished on full index lists (diagnostics and the equivalence
    /// suite).
    pub fn fell_back_to_full_lists(&self) -> bool {
        self.full_lists
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

    /// Forward pass for one row over the scratch's index lists; returns
    /// the output probability. Each hidden layer's ReLU output is
    /// compacted into the next layer's list.
    fn forward(&self, row: &[f64], s: &mut NetScratch) -> f64 {
        let layers = self.weights.len();
        (s.nnz[0], s.amax[0]) = compact(row, &mut s.idx[0], &mut s.val[0], s.full);
        for l in 0..layers {
            let (w, b) = (&self.weights[l], &self.biases[l]);
            let n = s.nnz[l];
            let z = &mut s.z[..w.rows()];
            matvec_gather_into(w, &s.idx[l][..n], &s.val[l][..n], z);
            if l + 1 == layers {
                return sigmoid(z[0] + b[0]);
            }
            for (zj, bj) in z.iter_mut().zip(b) {
                *zj = relu(*zj + bj);
            }
            (s.nnz[l + 1], s.amax[l + 1]) =
                compact(z, &mut s.idx[l + 1], &mut s.val[l + 1], s.full);
        }
        unreachable!("a network has an output layer")
    }

    /// One SGD step. Returns whether the *pre-update* prediction already
    /// matched the target (free to compute, and lets `fit` track
    /// convergence without a second pass) and whether the step stayed
    /// within [`SPARSE_BOUND`], which `wbound`, the running per-layer
    /// weight bound, is advanced for.
    fn sgd_step(
        &mut self,
        row: &[f64],
        target: f64,
        s: &mut NetScratch,
        wbound: &mut [f64],
    ) -> (bool, bool) {
        let layers = self.weights.len();
        let p = self.forward(row, s);
        let correct = (p >= 0.5) == (target >= 0.5);
        let lr = self.learning_rate;
        let mut in_bound = true;
        // Output delta for sigmoid + BCE: (p - t), on the one output row.
        s.delta[0] = p - target;
        let mut rows_len = 1;
        for l in (0..layers).rev() {
            // One pass over the visited rows, j outer. Row j first adds
            // its share of the upstream delta (reading the pre-update
            // weights), then takes its own gradient step — which reads
            // no other row, so every read sees the same weights as the
            // seed's propagate-then-update order. `up[n]` folds
            // `d_j * w[j][cols[n]]` over the rows from −0.0, `dot`'s fold
            // with the dead rows' ±0 terms left out.
            let rows: &[usize] = if l + 1 == layers { &[0] } else { &s.idx[l + 1][..rows_len] };
            let n = s.nnz[l];
            let (cols, vals) = (&s.idx[l][..n], &s.val[l][..n]);
            let (w, b) = (&mut self.weights[l], &mut self.biases[l]);
            let up = &mut s.up[..n];
            up.fill(-0.0);
            let mut dmax = 0;
            for (&j, &d) in rows.iter().zip(&s.delta[..rows_len]) {
                // `lr * d * a` evaluates `lr * d` first; hoisting it
                // keeps every bit.
                let step = lr * d;
                let wrow = w.row_mut(j);
                if l > 0 {
                    for ((u, &i), &a) in up.iter_mut().zip(cols).zip(vals) {
                        let wv = &mut wrow[i];
                        *u += d * *wv;
                        *wv -= step * a;
                    }
                } else {
                    for (&i, &a) in cols.iter().zip(vals) {
                        wrow[i] -= step * a;
                    }
                }
                b[j] -= step;
                dmax = dmax.max(magnitude(d));
            }
            if l > 0 {
                // On sparse lists every visited column is active and this
                // multiplies by 1; on full lists it zeroes the dead
                // units. `relu_grad(relu(z)) == relu_grad(z)`, so the
                // activation stands in for the pre-activation.
                for (u, &a) in up.iter_mut().zip(vals) {
                    *u *= relu_grad(a);
                }
            }
            let bound = SPARSE_BOUND.to_bits();
            in_bound &= s.amax[l] <= bound && dmax <= bound;
            let (amax, dmax) = (f64::from_bits(s.amax[l]), f64::from_bits(dmax));
            wbound[l] += lr.abs() * dmax * (amax + 1.0);
            in_bound &= wbound[l] <= SPARSE_BOUND;
            std::mem::swap(&mut s.delta, &mut s.up);
            rows_len = n;
        }
        (correct, in_bound)
    }

    /// Probability that `row` is an attack sample.
    ///
    /// # Panics
    ///
    /// Panics before a fit, or when `row`'s width differs from the
    /// fitted input width.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        assert!(!self.weights.is_empty(), "net must be fitted before predict");
        assert_eq!(row.len(), self.weights[0].cols(), "row width differs from the fitted input");
        let mut s = NetScratch::for_sizes(&self.sizes(row.len()), self.full_lists);
        self.forward(row, &mut s)
    }

    /// Attack probability of every row of `x`, bit-identical to
    /// [`DenseNet::predict_proba`] per row.
    ///
    /// The batch runs feature-major: `x` is transposed once, then each
    /// layer maps its `fan_in × batch` activations to `units × batch`
    /// through one [`gemm_wxt`] into two ping-pong matrices, and the
    /// bias and activation apply per unit row. Each element is the same
    /// full-k dot product the dense fold computes. The last layer's
    /// single row is the result.
    ///
    /// # Panics
    ///
    /// Panics before a fit, or when `x`'s width differs from the
    /// fitted input width.
    pub fn predict_proba_batch(&self, x: &Mat) -> Vec<f64> {
        assert!(!self.weights.is_empty(), "net must be fitted before predict");
        let layers = self.weights.len();
        let mut cur = x.transpose();
        let mut next = Mat::zeros(0, 0);
        for (l, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            next.reset(w.rows(), x.rows());
            gemm_wxt(w, &cur, &mut next);
            let last = l == layers - 1;
            for (j, &bj) in b.iter().enumerate() {
                for v in next.row_mut(j) {
                    let z = *v + bj;
                    *v = if last { sigmoid(z) } else { relu(z) };
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur.row(0).to_vec()
    }
}

impl Detector for DenseNet {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Per-sample SGD over `self.epochs` shuffled passes, on sparse
    /// index lists while every step stays within the sparse step's
    /// magnitude bound (2²⁵⁶ on activations, deltas and weights). The
    /// first step that does not rolls the fit back to its epoch's start
    /// (weights, biases, sample order and RNG) and runs the rest on full
    /// lists, the dense fold order. Either way the result is the seed
    /// step's, bit for bit.
    fn fit(&mut self, x: &Mat, y: &[u8]) {
        assert_eq!(x.rows(), y.len(), "features/labels mismatch");
        assert!(x.rows() > 0, "cannot fit on no data");
        self.init(x.cols());
        let mut scratch = NetScratch::for_sizes(&self.sizes(x.cols()), false);
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9);
        // Σ|w| of each initial layer bounds its max |w|; NaN propagates.
        let mut wbound: Vec<f64> =
            self.weights.iter().map(|w| w.as_slice().iter().map(|v| v.abs()).sum()).collect();
        // What a re-run of the epoch on full index lists starts from.
        let mut snapshot = (self.weights.clone(), self.biases.clone(), order.clone(), rng.clone());
        let timing = telemetry::enabled();
        // Hidden units on the visited lists, summed over steps, for the
        // active-fraction histogram.
        let hidden_width: usize = self.hidden.iter().sum();
        let (mut visited, mut steps) = (0usize, 0usize);
        // First epoch at which ≥ 99.5 % of samples were already classified
        // correctly before their update — a pure observation; training
        // always runs the full epoch budget so results are unchanged.
        let mut converged_at: Option<usize> = None;
        self.full_lists = false;
        let mut epoch = 0;
        while epoch < self.epochs {
            let t0 = timing.then(std::time::Instant::now);
            if !self.full_lists {
                snapshot = (self.weights.clone(), self.biases.clone(), order.clone(), rng.clone());
            }
            order.shuffle(&mut rng);
            let mut correct = 0usize;
            let mut in_bound = true;
            for &i in &order {
                let (hit, ok) = self.sgd_step(x.row(i), f64::from(y[i]), &mut scratch, &mut wbound);
                correct += usize::from(hit);
                visited += scratch.nnz[1..].iter().sum::<usize>();
                steps += 1;
                if !ok && !self.full_lists {
                    in_bound = false;
                    break;
                }
            }
            if !in_bound {
                (self.weights, self.biases, order, rng) = snapshot.clone();
                self.full_lists = true;
                scratch.full = true;
                continue;
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
            epoch += 1;
        }
        if timing {
            telemetry::counter("hid.fits", 1);
            telemetry::counter("hid.train.dense_fallbacks", u64::from(self.full_lists));
            telemetry::histogram(
                "hid.epochs_to_converge",
                converged_at.unwrap_or(self.epochs) as f64,
            );
            if steps > 0 && hidden_width > 0 {
                telemetry::histogram(
                    "hid.train.active_fraction",
                    visited as f64 / (steps * hidden_width) as f64,
                );
            }
        }
    }

    fn predict(&self, row: &[f64]) -> u8 {
        u8::from(self.predict_proba(row) >= 0.5)
    }

    /// [`DenseNet::predict_proba_batch`] thresholded at 0.5, so the
    /// batch is bit-identical to mapping [`DenseNet::predict`] over the
    /// rows.
    fn predict_batch(&self, x: &Mat) -> Vec<u8> {
        self.predict_proba_batch(x).into_iter().map(|p| u8::from(p >= 0.5)).collect()
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

    #[test]
    #[should_panic(expected = "fitted before predict")]
    fn predict_before_fit_panics() {
        let _ = DenseNet::mlp().predict(&[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn batch_predict_rejects_a_wider_input() {
        let (x, y) = blobs(40, 3, 2.0, 9);
        let mut net = DenseNet::mlp();
        net.epochs = 1;
        net.fit(&x, &y);
        let _ = net.predict_batch(&Mat::zeros(8, 4));
    }

    #[test]
    #[should_panic(expected = "fitted input")]
    fn predict_rejects_a_wider_row() {
        let (x, y) = blobs(40, 3, 2.0, 9);
        let mut net = DenseNet::mlp();
        net.epochs = 1;
        net.fit(&x, &y);
        let _ = net.predict(&[0.0; 4]);
    }
}
