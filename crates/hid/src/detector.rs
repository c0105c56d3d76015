//! The HID: a trained detector with offline or online learning, plus the
//! paper's evasion/detection thresholds.

use cr_spectre_hpc::dataset::Dataset;
use cr_spectre_hpc::features::Normalizer;
use cr_spectre_telemetry as telemetry;

use crate::linalg::Mat;
use crate::logreg::LogisticRegression;
use crate::net::DenseNet;
use crate::svm::LinearSvm;

/// Accuracy below which the paper considers the attack to have evaded
/// detection ("we consider accuracy of 55% or less").
pub const EVADED_THRESHOLD: f64 = 0.55;
/// Accuracy above which the paper considers the attack detected
/// ("detects the attack with high accuracy (>80%)").
pub const DETECTED_THRESHOLD: f64 = 0.80;

/// A binary attack/benign classifier.
///
/// `Send + Sync` so trained detectors (and the [`Hid`] wrapping them)
/// can be scored from the campaign engine's worker threads.
pub trait Detector: std::fmt::Debug + Send + Sync {
    /// Model display name (paper legend).
    fn name(&self) -> &'static str;

    /// (Re)trains from scratch on the given matrix and labels
    /// (0 = benign, 1 = attack).
    ///
    /// # Panics
    ///
    /// Implementations panic on empty or inconsistent inputs.
    fn fit(&mut self, x: &Mat, y: &[u8]);

    /// Classifies one feature row (0 = benign, 1 = attack).
    fn predict(&self, row: &[f64]) -> u8;

    /// Classifies every row of a flat matrix.
    ///
    /// The default is the per-row loop, correct for any custom
    /// detector; the built-in families override it with whole-batch
    /// (GEMM / buffer-reusing) implementations that are bit-identical
    /// to the per-row path.
    fn predict_batch(&self, x: &Mat) -> Vec<u8> {
        x.iter_rows().map(|row| self.predict(row)).collect()
    }

    /// Fraction of rows classified correctly (routed through
    /// [`Detector::predict_batch`]).
    fn accuracy(&self, x: &Mat, y: &[u8]) -> f64 {
        assert_eq!(x.rows(), y.len(), "features/labels mismatch");
        if x.rows() == 0 {
            return 0.0;
        }
        let correct = self
            .predict_batch(x)
            .iter()
            .zip(y)
            .filter(|(p, l)| p == l)
            .count();
        correct as f64 / x.rows() as f64
    }
}

/// The classifier families evaluated in the paper (Figures 5 and 6
/// legends: MLP \[2\], NN \[4\], LR and SVM \[3\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HidKind {
    /// 3-layer MLP (the Sklearn classifier of \[4\]).
    Mlp,
    /// 6-layer ReLU network (the TensorFlow classifier of \[5\], \[6\]).
    Nn,
    /// Logistic regression.
    Lr,
    /// Linear-kernel SVM.
    Svm,
}

impl HidKind {
    /// All four families, in paper-legend order.
    pub const ALL: [HidKind; 4] = [HidKind::Mlp, HidKind::Nn, HidKind::Lr, HidKind::Svm];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            HidKind::Mlp => "MLP",
            HidKind::Nn => "NN",
            HidKind::Lr => "LR",
            HidKind::Svm => "SVM",
        }
    }

    /// Instantiates an untrained detector of this family.
    pub fn build(self) -> Box<dyn Detector> {
        match self {
            HidKind::Mlp => Box::new(DenseNet::mlp()),
            HidKind::Nn => Box::new(DenseNet::nn6()),
            HidKind::Lr => Box::new(LogisticRegression::new()),
            HidKind::Svm => Box::new(LinearSvm::new()),
        }
    }
}

impl std::fmt::Display for HidKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Learning mode of the deployed HID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HidMode {
    /// Static: trained once, never retrained (Figure 5).
    Offline,
    /// Retrained on the augmented dataset after each observed attack
    /// attempt (Figure 6).
    Online,
}

/// A deployed hardware-assisted intrusion detector: model + normalizer +
/// (for online mode) the growing training corpus.
#[derive(Debug)]
pub struct Hid {
    kind: HidKind,
    mode: HidMode,
    model: Box<dyn Detector>,
    normalizer: Normalizer,
    corpus: Dataset,
    initial_len: usize,
    observed_cap: usize,
}

impl Hid {
    /// Trains a fresh HID of `kind` on `training` data (raw counter rows;
    /// normalization is fit here).
    ///
    /// # Panics
    ///
    /// Panics when `training` is empty.
    pub fn train(kind: HidKind, mode: HidMode, training: Dataset) -> Hid {
        assert!(!training.is_empty(), "cannot train an HID on no data");
        let mut span = telemetry::span("hid.train");
        span.field("kind", kind.name())
            .field("mode", if mode == HidMode::Online { "online" } else { "offline" })
            .field("rows", training.len());
        let normalizer = Normalizer::fit(&training.x);
        let mut model = kind.build();
        let x = normalized(&normalizer, &training.x);
        fit_timed(model.as_mut(), &x, &training.y);
        let initial_len = training.len();
        Hid {
            kind,
            mode,
            model,
            normalizer,
            corpus: training,
            initial_len,
            observed_cap: 2_400,
        }
    }

    /// Bounds how many *observed* (post-deployment) windows the online
    /// corpus retains; the initial training set is always kept. Online
    /// retraining over an unbounded history is neither realistic nor
    /// affordable for a real-time detector.
    pub fn set_observed_cap(&mut self, cap: usize) {
        self.observed_cap = cap;
    }

    /// The model family.
    pub fn kind(&self) -> HidKind {
        self.kind
    }

    /// The learning mode.
    pub fn mode(&self) -> HidMode {
        self.mode
    }

    /// Classifies one raw counter row.
    pub fn classify(&self, row: &[f64]) -> u8 {
        let mut r = row.to_vec();
        self.normalizer.apply(&mut r);
        self.model.predict(&r)
    }

    /// Classifies a batch of raw counter rows through the flat fast
    /// path: one contiguous copy normalized in place, then the model's
    /// whole-batch predictor. Bit-identical to calling
    /// [`Hid::classify`] per row.
    pub fn classify_batch(&self, rows: &[Vec<f64>]) -> Vec<u8> {
        if rows.is_empty() {
            return Vec::new();
        }
        self.model.predict_batch(&normalized(&self.normalizer, rows))
    }

    /// Overall accuracy on a labelled raw dataset (Figure 4's metric).
    pub fn test_accuracy(&self, test: &Dataset) -> f64 {
        if test.is_empty() {
            return 0.0;
        }
        let correct = self
            .classify_batch(&test.x)
            .iter()
            .zip(&test.y)
            .filter(|(p, l)| p == l)
            .count();
        correct as f64 / test.len() as f64
    }

    /// Fraction of the given attack windows flagged as attack — the
    /// accuracy metric plotted per attempt in Figures 5 and 6.
    pub fn detection_rate(&self, attack_rows: &[Vec<f64>]) -> f64 {
        if attack_rows.is_empty() {
            return 0.0;
        }
        let hits =
            self.classify_batch(attack_rows).iter().filter(|&&p| p == 1).count();
        hits as f64 / attack_rows.len() as f64
    }

    /// Whether `rate` means the attack evaded (paper: ≤ 55 %).
    pub fn evaded(rate: f64) -> bool {
        rate <= EVADED_THRESHOLD
    }

    /// Whether `rate` means the attack was detected (paper: > 80 %).
    pub fn detected(rate: f64) -> bool {
        rate > DETECTED_THRESHOLD
    }

    /// Feeds newly observed, defender-labelled windows back to the HID
    /// and retrains. An [`HidMode::Online`] detector augments its corpus
    /// and refits (normalizer included); an offline detector ignores the
    /// data.
    pub fn observe(&mut self, rows: &[Vec<f64>], label: cr_spectre_hpc::dataset::Label) {
        self.ingest(rows, label);
        self.retrain();
    }

    /// Appends labelled windows to the corpus **without** retraining
    /// (online mode only); call [`Hid::retrain`] afterwards.
    pub fn ingest(&mut self, rows: &[Vec<f64>], label: cr_spectre_hpc::dataset::Label) {
        if self.mode == HidMode::Offline {
            return;
        }
        for row in rows {
            self.corpus.push_row(row.clone(), label);
        }
    }

    /// Appends windows labelled by the detector's **own current
    /// classification** — the semi-supervised self-training a deployed
    /// online HID performs on traffic it has no ground truth for. Call
    /// [`Hid::retrain`] afterwards.
    pub fn ingest_self_labeled(&mut self, rows: &[Vec<f64>]) {
        if self.mode == HidMode::Offline {
            return;
        }
        let labels = self.classify_batch(rows);
        for (row, label) in rows.iter().zip(labels) {
            let label = if label == 1 {
                cr_spectre_hpc::dataset::Label::Attack
            } else {
                cr_spectre_hpc::dataset::Label::Benign
            };
            self.corpus.push_row(row.clone(), label);
        }
    }

    /// Refits the normalizer and model on the current corpus (online mode
    /// only), first trimming observed windows beyond the retention cap
    /// (oldest observations age out; the initial training set is kept).
    pub fn retrain(&mut self) {
        if self.mode == HidMode::Offline {
            return;
        }
        let mut span = telemetry::span("hid.retrain");
        span.field("kind", self.kind.name()).field("corpus", self.corpus.len());
        let observed = self.corpus.len() - self.initial_len;
        if observed > self.observed_cap {
            let drop = observed - self.observed_cap;
            self.corpus.x.drain(self.initial_len..self.initial_len + drop);
            self.corpus.y.drain(self.initial_len..self.initial_len + drop);
        }
        self.normalizer = Normalizer::fit(&self.corpus.x);
        let x = normalized(&self.normalizer, &self.corpus.x);
        fit_timed(self.model.as_mut(), &x, &self.corpus.y);
    }

    /// Current training-corpus size (grows only in online mode).
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }
}

/// Copies raw counter rows into one flat [`Mat`] and normalizes each
/// row in place — the matrix every trainer and batch predictor consumes.
///
/// # Panics
///
/// Panics on ragged rows or rows whose width differs from the
/// normalizer's.
fn normalized(normalizer: &Normalizer, rows: &[Vec<f64>]) -> Mat {
    let mut x = Mat::from_rows(rows);
    for i in 0..x.rows() {
        normalizer.apply(x.row_mut(i));
    }
    x
}

/// Runs `model.fit` under the training-throughput telemetry: a
/// `hid.train.rows_per_sec` counter (corpus rows per wall-clock second
/// of the full fit) inside whichever `hid.train` / `hid.retrain` span
/// is active. Observation only — the fit itself is identical with
/// telemetry on or off.
fn fit_timed(model: &mut dyn Detector, x: &Mat, y: &[u8]) {
    if !telemetry::enabled() {
        model.fit(x, y);
        return;
    }
    let t0 = std::time::Instant::now();
    model.fit(x, y);
    let wall = t0.elapsed().as_secs_f64();
    if wall > 0.0 {
        telemetry::counter("hid.train.rows_per_sec", (x.rows() as f64 / wall) as u64);
    }
}

/// Synthetic data generators shared by the model unit tests.
#[cfg(test)]
pub mod testdata {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::linalg::Mat;

    /// Two Gaussian-ish blobs separated by `sep` in every dimension, as
    /// jagged rows (for tests that edit or compare individual rows).
    pub fn blob_rows(n: usize, dim: usize, sep: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let label = (i % 2) as u8;
            let center = if label == 1 { sep } else { -sep };
            x.push((0..dim).map(|_| center + rng.random_range(-1.0..1.0)).collect());
            y.push(label);
        }
        (x, y)
    }

    /// [`blob_rows`] as one flat matrix.
    pub fn blobs(n: usize, dim: usize, sep: f64, seed: u64) -> (Mat, Vec<u8>) {
        let (x, y) = blob_rows(n, dim, sep, seed);
        (Mat::from_rows(&x), y)
    }

    /// The XOR problem in 2D (not linearly separable).
    pub fn xor_data(n: usize, seed: u64) -> (Mat, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::with_capacity(n * 2);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.random_range(-1.0..1.0f64);
            let b = rng.random_range(-1.0..1.0f64);
            x.extend_from_slice(&[a, b]);
            y.push(u8::from((a > 0.0) != (b > 0.0)));
        }
        (Mat::from_vec(x, n, 2), y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_spectre_hpc::dataset::Label;

    fn blob_dataset(n: usize, sep: f64, seed: u64) -> Dataset {
        let (x, y) = testdata::blob_rows(n, 4, sep, seed);
        let mut d = Dataset::new();
        for (row, label) in x.into_iter().zip(y) {
            d.push_row(row, if label == 1 { Label::Attack } else { Label::Benign });
        }
        d
    }

    #[test]
    fn every_kind_trains_and_detects_separable_data() {
        let train = blob_dataset(200, 2.5, 1);
        let test = blob_dataset(100, 2.5, 2);
        for kind in HidKind::ALL {
            let hid = Hid::train(kind, HidMode::Offline, train.clone());
            let acc = hid.test_accuracy(&test);
            assert!(acc > 0.9, "{kind}: accuracy {acc}");
            assert_eq!(hid.kind(), kind);
        }
    }

    #[test]
    fn detection_rate_is_recall_on_attack_rows() {
        let train = blob_dataset(200, 3.0, 3);
        let hid = Hid::train(HidKind::Lr, HidMode::Offline, train);
        let (x, y) = testdata::blob_rows(100, 4, 3.0, 4);
        let attacks: Vec<Vec<f64>> =
            x.into_iter().zip(&y).filter(|(_, &l)| l == 1).map(|(r, _)| r).collect();
        let rate = hid.detection_rate(&attacks);
        assert!(rate > 0.9, "rate {rate}");
        assert!(Hid::detected(rate));
        assert!(!Hid::evaded(rate));
    }

    #[test]
    fn thresholds_match_the_paper() {
        assert!(Hid::evaded(0.55));
        assert!(!Hid::evaded(0.56));
        assert!(Hid::detected(0.81));
        assert!(!Hid::detected(0.80));
    }

    #[test]
    fn offline_hid_ignores_observations() {
        let train = blob_dataset(100, 2.5, 5);
        let mut hid = Hid::train(HidKind::Svm, HidMode::Offline, train);
        let before = hid.corpus_len();
        hid.observe(&[vec![9.0, 9.0, 9.0, 9.0]], Label::Attack);
        assert_eq!(hid.corpus_len(), before);
    }

    #[test]
    fn online_hid_retrains_on_observations() {
        // Train on blobs where the attack class sits at +2.5; then show
        // the online HID a "shifted" attack cluster at -6 (previously
        // classified benign) and verify retraining captures it. Needs a
        // nonlinear model — two attack clusters straddling benign.
        let train = blob_dataset(200, 2.5, 6);
        let mut hid = Hid::train(HidKind::Mlp, HidMode::Online, train);
        let shifted: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![-6.0 + (i % 3) as f64 * 0.1; 4])
            .collect();
        let before = hid.detection_rate(&shifted);
        assert!(before < 0.5, "shifted cluster initially evades: {before}");
        hid.observe(&shifted, Label::Attack);
        let after = hid.detection_rate(&shifted);
        assert!(after > 0.9, "online retraining catches the variant: {after}");
    }

    #[test]
    fn empty_detection_rate_is_zero() {
        let hid = Hid::train(HidKind::Lr, HidMode::Offline, blob_dataset(50, 2.0, 7));
        assert_eq!(hid.detection_rate(&[]), 0.0);
        assert_eq!(hid.test_accuracy(&Dataset::new()), 0.0);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn classify_rejects_a_narrower_row() {
        let hid = Hid::train(HidKind::Lr, HidMode::Offline, blob_dataset(50, 2.0, 8));
        let _ = hid.classify(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn classify_rejects_a_wider_row() {
        let hid = Hid::train(HidKind::Lr, HidMode::Offline, blob_dataset(50, 2.0, 8));
        let _ = hid.classify(&[1.0; 5]);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn classify_batch_rejects_narrower_rows() {
        let hid = Hid::train(HidKind::Nn, HidMode::Offline, blob_dataset(50, 2.0, 9));
        let _ = hid.classify_batch(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn classify_batch_rejects_wider_rows() {
        let hid = Hid::train(HidKind::Svm, HidMode::Offline, blob_dataset(50, 2.0, 9));
        let _ = hid.classify_batch(&[vec![1.0; 5]]);
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn training_on_empty_dataset_panics() {
        let _ = Hid::train(HidKind::Lr, HidMode::Offline, Dataset::new());
    }
}
