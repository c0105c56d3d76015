//! Fast-path ↔ seed equivalence: the flat math core must be
//! **bit-identical** to the reference (seed) implementations it
//! replaced, for every detector family, at the paper's dataset scales.
//!
//! * fig5/fig6 scale: 800 windows × 4 features (the paper's default
//!   working set);
//! * table1/fig4 scale: 240 windows × 16 features (the full counter
//!   budget).
//!
//! "Bit-identical" means trained weights compared via `f64::to_bits`,
//! per-row predictions compared exactly, and accuracies compared with
//! `==` — no tolerances anywhere. A separate case re-runs the fits with
//! telemetry enabled, locking in that instrumentation is observation
//! only.

use cr_spectre_hid::detector::{Detector, Hid, HidKind, HidMode};
use cr_spectre_hid::linalg::Mat;
use cr_spectre_hid::reference::{RefDenseNet, RefKnn, RefLinearSvm, RefLogisticRegression};
use cr_spectre_hid::{DenseNet, Knn, LinearSvm, LogisticRegression};
use cr_spectre_hpc::dataset::{Dataset, Label};
use cr_spectre_hpc::features::Normalizer;
use cr_spectre_telemetry as telemetry;

/// Deterministic two-cluster dataset with per-dimension jitter, roughly
/// the shape of normalized counter windows.
fn clusters(n: usize, dim: usize, sep: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 2000) as f64 / 1000.0 - 1.0
    };
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let label = (i % 2) as u8;
        let center = if label == 1 { sep } else { -sep };
        x.push((0..dim).map(|_| center + next()).collect());
        y.push(label);
    }
    (x, y)
}

/// fig5/fig6 scale: 800 × 4.
fn fig5_shape() -> (Vec<Vec<f64>>, Vec<u8>) {
    clusters(800, 4, 1.5, 0xf165)
}

/// table1/fig4 scale: 240 × 16, as one flat matrix.
fn table1_shape() -> (Mat, Vec<u8>) {
    let (x, y) = clusters(240, 16, 1.2, 0x7ab1);
    (Mat::from_rows(&x), y)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

fn check_logreg(x: &Mat, y: &[u8], what: &str) {
    let mut fast = LogisticRegression::new();
    fast.fit(x, y);
    let mut seed = RefLogisticRegression::new();
    seed.fit(x, y);
    assert_bits_eq(fast.weights(), seed.weights(), &format!("{what}: LR weights"));
    assert_eq!(fast.bias().to_bits(), seed.bias().to_bits(), "{what}: LR bias");
    let batch = fast.predict_batch(x);
    for (i, row) in x.iter_rows().enumerate() {
        assert_eq!(fast.predict(row), seed.predict(row), "{what}: LR row {i}");
        assert_eq!(batch[i], seed.predict(row), "{what}: LR batch row {i}");
    }
    assert!(fast.accuracy(x, y) == seed.accuracy(x, y), "{what}: LR accuracy");
}

fn check_svm(x: &Mat, y: &[u8], what: &str) {
    let mut fast = LinearSvm::new();
    fast.fit(x, y);
    let mut seed = RefLinearSvm::new();
    seed.fit(x, y);
    assert_bits_eq(fast.weights(), seed.weights(), &format!("{what}: SVM weights"));
    assert_eq!(fast.bias().to_bits(), seed.bias().to_bits(), "{what}: SVM bias");
    let batch = fast.predict_batch(x);
    for (i, row) in x.iter_rows().enumerate() {
        assert_eq!(fast.predict(row), seed.predict(row), "{what}: SVM row {i}");
        assert_eq!(batch[i], seed.predict(row), "{what}: SVM batch row {i}");
    }
    assert!(fast.accuracy(x, y) == seed.accuracy(x, y), "{what}: SVM accuracy");
}

fn check_net(
    mut fast: DenseNet,
    mut seed: RefDenseNet,
    x: &Mat,
    y: &[u8],
    what: &str,
) {
    fast.fit(x, y);
    seed.fit(x, y);
    assert_eq!(fast.layers().len(), seed.weights().len(), "{what}: layer count");
    for (l, (flat, jagged)) in fast.layers().iter().zip(seed.weights()).enumerate() {
        assert_eq!(flat.rows(), jagged.len(), "{what}: layer {l} units");
        for (j, unit) in jagged.iter().enumerate() {
            assert_bits_eq(flat.row(j), unit, &format!("{what}: layer {l} unit {j}"));
        }
    }
    for (l, (fb, sb)) in fast.layer_biases().iter().zip(seed.biases()).enumerate() {
        assert_bits_eq(fb, sb, &format!("{what}: layer {l} biases"));
    }
    let proba = fast.predict_proba_batch(x);
    let batch = fast.predict_batch(x);
    for (i, row) in x.iter_rows().enumerate() {
        let expect = seed.predict_proba(row).to_bits();
        assert_eq!(fast.predict_proba(row).to_bits(), expect, "{what}: proba row {i}");
        assert_eq!(proba[i].to_bits(), expect, "{what}: batch proba row {i}");
        assert_eq!(batch[i], seed.predict(row), "{what}: batch row {i}");
    }
    // Both datasets' row counts are multiples of the batch kernel's
    // 8-wide lane tile; these cuts run its per-sample tail too.
    for (first, len) in [(0, 1), (3, 7), (100, 61)] {
        let cut = Mat::from_vec(
            x.as_slice()[first * x.cols()..(first + len) * x.cols()].to_vec(),
            len,
            x.cols(),
        );
        let proba = fast.predict_proba_batch(&cut);
        for (i, row) in cut.iter_rows().enumerate() {
            assert_eq!(
                proba[i].to_bits(),
                seed.predict_proba(row).to_bits(),
                "{what}: {len}-row batch proba row {i}"
            );
        }
    }
    assert!(fast.accuracy(x, y) == seed.accuracy(x, y), "{what}: accuracy");
}

fn check_knn(x: &Mat, y: &[u8], what: &str) {
    let mut fast = Knn::new();
    fast.fit(x, y);
    let mut seed = RefKnn::new();
    seed.fit(x, y);
    let batch = fast.predict_batch(x);
    for (i, row) in x.iter_rows().enumerate() {
        assert_eq!(fast.predict(row), seed.predict(row), "{what}: kNN row {i}");
        assert_eq!(batch[i], seed.predict(row), "{what}: kNN batch row {i}");
    }
}

fn check_all(x: &Mat, y: &[u8], what: &str) {
    check_logreg(x, y, what);
    check_svm(x, y, what);
    check_net(DenseNet::mlp(), RefDenseNet::mlp(), x, y, &format!("{what} MLP"));
    check_net(DenseNet::nn6(), RefDenseNet::nn6(), x, y, &format!("{what} NN"));
    // Hidden widths that are not multiples of 4, so training and
    // prediction reach the scalar tail after the 4-wide lanes in every
    // layer (the MLP and NN widths are all multiples of 4).
    check_net(
        DenseNet::new("odd", vec![7, 5, 3]),
        RefDenseNet::new("odd", vec![7, 5, 3]),
        x,
        y,
        &format!("{what} odd widths"),
    );
    check_knn(x, y, what);
}

#[test]
fn fig5_scale_bit_identical() {
    let (x, y) = fig5_shape();
    check_all(&Mat::from_rows(&x), &y, "fig5 800x4");
}

#[test]
fn table1_scale_bit_identical() {
    let (x, y) = table1_shape();
    check_all(&x, &y, "table1 240x16");
}

/// Telemetry is observation only: with a recorder installed, every
/// family still trains to bit-identical weights and predictions. Also
/// proves the new `hid.train.*` instruments fire.
#[test]
fn bit_identical_with_telemetry_enabled() {
    let sink = telemetry::sink::MemorySink::shared();
    assert!(
        telemetry::install(vec![Box::new(sink.clone())]),
        "another test installed telemetry concurrently"
    );
    let (x, y) = table1_shape();
    check_logreg(&x, &y, "telemetry 240x16");
    check_net(
        DenseNet::mlp(),
        RefDenseNet::mlp(),
        &x,
        &y,
        "telemetry 240x16 MLP",
    );
    // The per-epoch timing histogram must have fired from the fast fits.
    let summary = telemetry::shutdown().expect("telemetry was installed");
    let epochs = summary
        .histograms
        .get("hid.train.epoch_us")
        .expect("per-epoch timing histogram recorded");
    assert!(epochs.count > 0, "epoch histogram has samples");
}

/// End-to-end: a trained [`Hid`] (normalizer + fast model) classifies
/// exactly like the hand-built reference pipeline (per-row normalize +
/// seed model), batch and per-row.
#[test]
fn hid_pipeline_matches_reference_pipeline() {
    let (x, y) = fig5_shape();
    let mut train = Dataset::new();
    for (row, &label) in x.iter().zip(&y) {
        train.push_row(
            row.clone(),
            if label == 1 { Label::Attack } else { Label::Benign },
        );
    }
    let (probe, _) = clusters(160, 4, 1.5, 0x9e37);

    let normalizer = Normalizer::fit(&x);
    let mut normalized = Mat::from_rows(&x);
    for i in 0..normalized.rows() {
        normalizer.apply(normalized.row_mut(i));
    }

    for kind in HidKind::ALL {
        let hid = Hid::train(kind, HidMode::Offline, train.clone());
        let mut reference: Box<dyn Detector> = match kind {
            HidKind::Mlp => Box::new(RefDenseNet::mlp()),
            HidKind::Nn => Box::new(RefDenseNet::nn6()),
            HidKind::Lr => Box::new(RefLogisticRegression::new()),
            HidKind::Svm => Box::new(RefLinearSvm::new()),
        };
        reference.fit(&normalized, &y);
        let batch = hid.classify_batch(&probe);
        for (i, row) in probe.iter().enumerate() {
            let mut r = row.clone();
            normalizer.apply(&mut r);
            let expect = reference.predict(&r);
            assert_eq!(hid.classify(row), expect, "{kind}: per-row {i}");
            assert_eq!(batch[i], expect, "{kind}: batch {i}");
        }
    }
}
