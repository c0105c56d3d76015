//! Property-based tests of the detector stack.

use proptest::prelude::*;

use cr_spectre_hid::detector::{Detector, Hid, HidKind, HidMode};
use cr_spectre_hid::linalg::{dot, dot4, gemm_nt, matvec_into, sigmoid, Mat};
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

    /// Blocked GEMM equals the naive per-element `dot` **bit for bit**
    /// across random shapes, including degenerate ones (empty matrices,
    /// single rows, widths straddling the block size). This is the
    /// contract every fast prediction path rests on.
    #[test]
    fn gemm_nt_is_bitwise_naive_dot(
        m in 0usize..70,
        n in 0usize..70,
        k in 0usize..40,
        seed in any::<u64>(),
    ) {
        let (a, b) = random_pair(m, n, k, seed);
        let mut out = Mat::zeros(m, n);
        gemm_nt(&a, &b, &mut out);
        for i in 0..m {
            for j in 0..n {
                let expect = dot(a.row(i), b.row(j));
                prop_assert_eq!(
                    out.row(i)[j].to_bits(),
                    expect.to_bits(),
                    "element ({}, {})", i, j
                );
            }
        }
    }

    /// 1×N edge case: a single-row GEMM is exactly a matvec, and
    /// `matvec_into` is exactly a stack of naive dots.
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
        let mut gemm_out = Mat::zeros(rows, 1);
        gemm_nt(&m, &xmat, &mut gemm_out);
        for (i, v) in out.iter().enumerate() {
            let expect = dot(m.row(i), x);
            prop_assert_eq!(v.to_bits(), expect.to_bits(), "row {}", i);
            prop_assert_eq!(gemm_out.row(i)[0].to_bits(), expect.to_bits(), "row {}", i);
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
