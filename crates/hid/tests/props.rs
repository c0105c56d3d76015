//! Property-based tests of the detector stack.

use proptest::prelude::*;

use cr_spectre_hid::detector::{Detector, Hid, HidKind, HidMode};
use cr_spectre_hid::linalg::{dot, dot4, gemm_wxt, matvec_gather_into, matvec_into, sigmoid, Mat};
use cr_spectre_hid::reference::RefDenseNet;
use cr_spectre_hid::{DenseNet, LinearSvm, LogisticRegression};
use cr_spectre_hpc::dataset::{Dataset, Label};

fn separable(n: usize, sep: f64, seed: u64) -> Dataset {
    let mut d = Dataset::new();
    let mut state = seed | 1;
    for i in 0..n {
        let label = if i % 2 == 0 { Label::Benign } else { Label::Attack };
        let center = if i % 2 == 0 { -sep } else { sep };
        let row = (0..3)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                center + (state % 1000) as f64 / 1000.0 - 0.5
            })
            .collect();
        d.push_row(row, label);
    }
    d
}

proptest! {
    // Model fitting is expensive (especially unoptimized); a handful of
    // seeds per property keeps the suite fast while still fuzzing.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sigmoid is bounded, monotone and symmetric for all inputs.
    #[test]
    fn sigmoid_properties(z in -1e6f64..1e6) {
        let s = sigmoid(z);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!(sigmoid(z + 1.0) >= s);
        prop_assert!((s + sigmoid(-z) - 1.0).abs() < 1e-9);
    }

    /// Dot product is symmetric and linear for all vectors.
    #[test]
    fn dot_is_symmetric_bilinear(
        a in proptest::collection::vec(-1e3f64..1e3, 4),
        b in proptest::collection::vec(-1e3f64..1e3, 4),
        k in -10.0f64..10.0,
    ) {
        prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-6);
        let ka: Vec<f64> = a.iter().map(|x| x * k).collect();
        prop_assert!((dot(&ka, &b) - k * dot(&a, &b)).abs() < 1e-3);
    }

    /// Every classifier family fits cleanly separable data to high
    /// accuracy regardless of the sampling seed.
    #[test]
    fn all_models_fit_separable_data(seed in any::<u64>()) {
        let data = separable(120, 4.0, seed);
        let x = Mat::from_rows(&data.x);
        for kind in HidKind::ALL {
            let mut model = kind.build();
            model.fit(&x, &data.y);
            let acc = model.accuracy(&x, &data.y);
            prop_assert!(acc > 0.9, "{}: {}", kind.name(), acc);
        }
    }

    /// Predictions are deterministic: the same trained model classifies
    /// the same row identically forever.
    #[test]
    fn prediction_is_pure(seed in any::<u64>(), probe in proptest::collection::vec(-5.0f64..5.0, 3)) {
        let data = separable(60, 3.0, seed);
        let x = Mat::from_rows(&data.x);
        let mut lr = LogisticRegression::new();
        lr.fit(&x, &data.y);
        prop_assert_eq!(lr.predict(&probe), lr.predict(&probe));
        let mut svm = LinearSvm::new();
        svm.fit(&x, &data.y);
        prop_assert_eq!(svm.predict(&probe), svm.predict(&probe));
        let mut net = DenseNet::mlp();
        net.fit(&x, &data.y);
        prop_assert_eq!(net.predict(&probe), net.predict(&probe));
    }

    /// detection_rate is always a probability, and equals 1 − rate of
    /// the complement set.
    #[test]
    fn detection_rate_is_a_probability(seed in any::<u64>()) {
        let data = separable(100, 3.0, seed);
        let hid = Hid::train(HidKind::Svm, HidMode::Offline, data.clone());
        let rate = hid.detection_rate(&data.x);
        prop_assert!((0.0..=1.0).contains(&rate));
        let flagged = data.x.iter().filter(|r| hid.classify(r) == 1).count();
        prop_assert!((rate - flagged as f64 / data.len() as f64).abs() < 1e-12);
    }

    /// The online corpus cap is respected after any number of observes.
    #[test]
    fn observed_cap_bounds_corpus(batches in proptest::collection::vec(10usize..80, 1..6)) {
        let initial = separable(60, 3.0, 5);
        let mut hid = Hid::train(HidKind::Lr, HidMode::Online, initial);
        hid.set_observed_cap(100);
        for (i, n) in batches.iter().enumerate() {
            let rows: Vec<Vec<f64>> = (0..*n).map(|k| vec![k as f64, i as f64, 0.0]).collect();
            hid.observe(&rows, Label::Attack);
            prop_assert!(hid.corpus_len() <= 60 + 100);
        }
    }

    /// Every lane of the 4-wide kernel is `dot` of its row **bit for
    /// bit**, at every length from 0 to 40.
    #[test]
    fn dot4_lanes_are_bitwise_dot(seed in any::<u64>()) {
        for len in 0..=40 {
            let (rows, x) = random_pair(4, 1, len, seed);
            let r: Vec<&[f64]> = rows.iter_rows().collect();
            let x = x.row(0);
            let lanes = dot4(x, r[0], r[1], r[2], r[3]);
            for (l, v) in lanes.iter().enumerate() {
                prop_assert_eq!(v.to_bits(), dot(r[l], x).to_bits(), "lane {} len {}", l, len);
            }
        }
    }

    /// The batch kernel equals the naive per-element `dot` **bit for
    /// bit** across random shapes, including degenerate ones (no units,
    /// an empty batch, k = 0, single rows and columns). This is the
    /// contract the network's batch prediction rests on.
    #[test]
    fn gemm_wxt_is_bitwise_naive_dot(
        units in 0usize..70,
        n in 0usize..70,
        k in 0usize..40,
        seed in any::<u64>(),
    ) {
        let (w, x) = random_pair(units, n, k, seed);
        assert_wxt_is_naive_dot(&w, &x)?;
    }

    /// Every unit count and batch width ≡ 1…7 (mod 8), below and past
    /// one lane tile, so the one-unit tail and the per-sample batch
    /// tail both run beside full tiles.
    #[test]
    fn gemm_wxt_tails_are_bitwise_naive_dot(k in 0usize..12, seed in any::<u64>()) {
        for units in 1..=9 {
            for n in (1..24).filter(|n| n % 8 != 0) {
                let (w, x) = random_pair(units, n, k, seed);
                assert_wxt_is_naive_dot(&w, &x)?;
            }
        }
    }

    /// `matvec_into` is exactly a stack of naive dots, single rows and
    /// row counts off the 4-wide lanes included.
    #[test]
    fn matvec_is_bitwise_naive_dot(
        rows in 0usize..70,
        k in 1usize..40,
        seed in any::<u64>(),
    ) {
        let (m, xmat) = random_pair(rows, 1, k, seed);
        let x = xmat.row(0);
        let mut out = vec![0.0; rows];
        matvec_into(&m, x, &mut out);
        for (i, v) in out.iter().enumerate() {
            prop_assert_eq!(v.to_bits(), dot(m.row(i), x).to_bits(), "row {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sparse SGD step is the dense seed step, bit for bit: a few
    /// epochs of `DenseNet::fit` against `RefDenseNet` on random hidden
    /// widths (1 and non-multiples of 4 included), with planted `0.0`
    /// and `−0.0` features. Some nets get shifted inputs or a large
    /// learning rate, so whole units die for every row or during
    /// training, and the rows and columns the step skips are many.
    #[test]
    fn sparse_sgd_step_is_bitwise_the_dense_step(
        hidden in proptest::collection::vec(1usize..14, 1..4),
        dim in 1usize..7,
        rows in 4usize..40,
        zero_share in 0u64..3,
        shift in prop_oneof![Just(0.0), Just(3.0), Just(-3.0)],
        learning_rate in prop_oneof![Just(0.02), Just(0.4)],
        seed in any::<u64>(),
    ) {
        let (x, y) = planted_rows(rows, dim, zero_share, shift, seed);
        let mut fast = DenseNet::new("sparse", hidden.clone());
        let mut dense = RefDenseNet::new("dense", hidden);
        (fast.epochs, fast.learning_rate, fast.seed) = (3, learning_rate, seed);
        (dense.epochs, dense.learning_rate, dense.seed) = (3, learning_rate, seed);
        fast.fit(&x, &y);
        dense.fit(&x, &y);
        prop_assert!(!fast.fell_back_to_full_lists());
        for (l, (flat, jagged)) in fast.layers().iter().zip(dense.weights()).enumerate() {
            for (j, unit) in jagged.iter().enumerate() {
                for (i, (a, b)) in flat.row(j).iter().zip(unit).enumerate() {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "layer {} w[{}][{}]", l, j, i);
                }
            }
        }
        for (l, (fb, db)) in fast.layer_biases().iter().zip(dense.biases()).enumerate() {
            for (j, (a, b)) in fb.iter().zip(db).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "layer {} b[{}]", l, j);
            }
        }
        for (i, row) in x.iter_rows().enumerate() {
            let p = dense.predict_proba(row).to_bits();
            prop_assert_eq!(fast.predict_proba(row).to_bits(), p, "proba row {}", i);
        }
    }

    /// The gather fold is `dot` against the vector with the listed
    /// entries and zeros elsewhere, up to the sign of a zero result;
    /// over the full list it is `dot` bit for bit.
    #[test]
    fn matvec_gather_is_dot_over_the_listed_entries(
        rows in 0usize..11,
        k in 0usize..20,
        keep in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let (m, xmat) = random_pair(rows, 1, k, seed);
        let mut x = xmat.row(0).to_vec();
        let idx: Vec<usize> = (0..k).filter(|i| keep >> (i % 32) & 1 == 1).collect();
        for (i, v) in x.iter_mut().enumerate() {
            if !idx.contains(&i) {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let val: Vec<f64> = idx.iter().map(|&i| x[i]).collect();
        let mut sparse = vec![f64::NAN; rows];
        matvec_gather_into(&m, &idx, &val, &mut sparse);
        let all: Vec<usize> = (0..k).collect();
        let mut full = vec![f64::NAN; rows];
        matvec_gather_into(&m, &all, &x, &mut full);
        for j in 0..rows {
            let want = dot(m.row(j), &x);
            prop_assert_eq!(full[j].to_bits(), want.to_bits(), "row {} full list", j);
            prop_assert!(sparse[j] == want, "row {}: {} vs {}", j, sparse[j], want);
        }
    }
}

/// `rows × dim` features around ±1 plus `shift`, with about a third of
/// the entries per `zero_share` step planted as `0.0` or `−0.0`, and
/// alternating labels.
fn planted_rows(rows: usize, dim: usize, zero_share: u64, shift: f64, seed: u64) -> (Mat, Vec<u8>) {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut x = Vec::with_capacity(rows * dim);
    let y: Vec<u8> = (0..rows).map(|i| (i % 2) as u8).collect();
    for &label in &y {
        for _ in 0..dim {
            let r = next();
            let v = if r % 3 < zero_share {
                if r & 8 == 0 { 0.0 } else { -0.0 }
            } else {
                let center = if label == 1 { 1.0 } else { -1.0 };
                center + shift + (r >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            x.push(v);
        }
    }
    (Mat::from_vec(x, rows, dim), y)
}

/// `gemm_wxt(w, xᵀ)` element (j, i) is `dot(w.row(j), x.row(i))`, bit
/// for bit.
fn assert_wxt_is_naive_dot(w: &Mat, x: &Mat) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut out = Mat::zeros(w.rows(), x.rows());
    gemm_wxt(w, &x.transpose(), &mut out);
    for j in 0..w.rows() {
        for i in 0..x.rows() {
            prop_assert_eq!(
                out.row(j)[i].to_bits(),
                dot(w.row(j), x.row(i)).to_bits(),
                "{}x{} by {}x{}: element ({}, {})",
                w.rows(), w.cols(), x.rows(), x.cols(), j, i
            );
        }
    }
    Ok(())
}

/// Each batch-kernel fold seeds at −0.0, as `dot` does: with k = 0
/// every element is −0.0, and −0.0 activations times positive weights
/// sum to −0.0, which a +0.0 seed would turn into +0.0. Tile and tail
/// columns alike.
#[test]
fn gemm_wxt_keeps_negative_zero() {
    for (units, n, k) in [(3, 11, 0), (3, 11, 5), (2, 8, 1), (1, 1, 0)] {
        let w = Mat::from_vec(vec![0.5; units * k], units, k);
        let xt = Mat::from_vec(vec![-0.0; k * n], k, n);
        let mut out = Mat::from_vec(vec![1.0; units * n], units, n);
        gemm_wxt(&w, &xt, &mut out);
        for (e, v) in out.as_slice().iter().enumerate() {
            assert!(*v == 0.0 && v.is_sign_negative(), "({units},{n},{k}) element {e}: {v}");
        }
    }
}

/// Each lane seeds its fold at −0.0, as `dot` does: a row of −0.0 times
/// positive weights sums to −0.0 (−0.0 + −0.0), which a +0.0 seed
/// would turn into +0.0.
#[test]
fn dot4_keeps_negative_zero() {
    for len in 0..=9 {
        let zeros = vec![-0.0; len];
        let ones = vec![1.0; len];
        let halves = vec![0.5; len];
        let lanes = dot4(&ones, &zeros, &halves, &zeros, &ones);
        assert!(dot(&zeros, &ones).is_sign_negative(), "len {len}");
        for (l, r) in [&zeros, &halves, &zeros, &ones].iter().enumerate() {
            assert_eq!(lanes[l].to_bits(), dot(r, &ones).to_bits(), "lane {l} len {len}");
        }
        assert!(lanes[0].is_sign_negative() && lanes[0] == 0.0, "len {len}");
    }
}

/// Deterministic pseudo-random `m×k` / `n×k` pair sharing the inner
/// dimension, from a simple xorshift stream (proptest drives the seed).
fn random_pair(m: usize, n: usize, k: usize, seed: u64) -> (Mat, Mat) {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 2000) as f64 / 100.0 - 10.0
    };
    let a = Mat::from_vec((0..m * k).map(|_| next()).collect(), m, k);
    let b = Mat::from_vec((0..n * k).map(|_| next()).collect(), n, k);
    (a, b)
}
