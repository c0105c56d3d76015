//! # cr-spectre-hid
//!
//! The paper's hardware-assisted intrusion detection system (HID): from-
//! scratch machine-learning classifiers over hardware-performance-counter
//! features, deployable in offline (train-once) or online (retrain-on-new-
//! traces) mode.
//!
//! Model families, matching the paper's evaluation:
//!
//! * [`net::DenseNet::mlp`] — the 3-layer "MLP (Sklearn)" classifier;
//! * [`net::DenseNet::nn6`] — the 6-layer ReLU "NN (TensorFlow)" network;
//! * [`logreg::LogisticRegression`] — "LR";
//! * [`svm::LinearSvm`] — linear-kernel "SVM".
//!
//! The deployed wrapper [`detector::Hid`] owns the normalizer and (for
//! online mode) the growing training corpus, and exposes the paper's
//! metrics: test accuracy (Figure 4) and per-attempt detection rate
//! (Figures 5–6), with the 55 % evasion / 80 % detection thresholds.
//!
//! Every family implements one [`Detector`] API over one matrix type,
//! [`linalg::Mat`]: `fit(&Mat, &[u8])`, `predict(&[f64])`,
//! `predict_batch(&Mat)` and `accuracy(&Mat, &[u8])`. The `Hid` takes
//! raw counter rows, copies them into a `Mat` and normalizes each row in
//! place before any model sees them. [`mod@reference`] keeps the seed
//! implementations as bit-exactness oracles.
//!
//! # Example
//!
//! ```
//! use cr_spectre_hid::detector::{Hid, HidKind, HidMode};
//! use cr_spectre_hpc::dataset::{Dataset, Label};
//!
//! let mut train = Dataset::new();
//! for i in 0..100 {
//!     let attack = i % 2 == 1;
//!     let base = if attack { 10.0 } else { 1.0 };
//!     let label = if attack { Label::Attack } else { Label::Benign };
//!     train.push_row(vec![base + (i % 5) as f64 * 0.1, base], label);
//! }
//! let hid = Hid::train(HidKind::Lr, HidMode::Offline, train.clone());
//! assert!(hid.test_accuracy(&train) > 0.95);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod detector;
pub mod knn;
pub mod linalg;
pub mod logreg;
pub mod metrics;
pub mod net;
pub mod reference;
pub mod svm;
pub mod tree;

pub use detector::{Detector, Hid, HidKind, HidMode, DETECTED_THRESHOLD, EVADED_THRESHOLD};
pub use knn::Knn;
pub use linalg::Mat;
pub use logreg::LogisticRegression;
pub use net::DenseNet;
pub use svm::LinearSvm;
pub use tree::DecisionTree;
