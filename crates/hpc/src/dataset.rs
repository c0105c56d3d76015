//! Labelled datasets for HID training: assembly from traces, shuffling,
//! and the paper's 70/30 train/test split.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::features::FeatureSet;
use crate::profiler::Trace;

/// Class label of a sampling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Benign application activity.
    Benign,
    /// Attack (Spectre / CR-Spectre) activity.
    Attack,
}

impl Label {
    /// Numeric encoding used by the classifiers (benign 0, attack 1).
    pub fn as_u8(self) -> u8 {
        match self {
            Label::Benign => 0,
            Label::Attack => 1,
        }
    }
}

/// A labelled feature matrix.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Feature rows.
    pub x: Vec<Vec<f64>>,
    /// Labels (0 benign / 1 attack), parallel to `x`.
    pub y: Vec<u8>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Dataset {
        Dataset::default()
    }

    /// Appends every window of `trace` with the given label, using
    /// `features` for extraction.
    pub fn push_trace(&mut self, trace: &Trace, label: Label, features: &FeatureSet) {
        for row in trace.feature_rows(features.events()) {
            self.x.push(row);
            self.y.push(label.as_u8());
        }
    }

    /// Appends a single pre-extracted row.
    pub fn push_row(&mut self, row: Vec<f64>, label: Label) {
        self.x.push(row);
        self.y.push(label.as_u8());
    }

    /// Merges another dataset into this one.
    pub fn extend(&mut self, other: &Dataset) {
        self.x.extend(other.x.iter().cloned());
        self.y.extend(other.y.iter().copied());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Count of attack-labelled samples.
    pub fn attack_count(&self) -> usize {
        self.y.iter().filter(|&&l| l == 1).count()
    }

    /// Shuffles samples (seeded, reproducible).
    pub fn shuffle(&mut self, seed: u64) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        self.x = order.iter().map(|&i| self.x[i].clone()).collect();
        self.y = order.iter().map(|&i| self.y[i]).collect();
    }

    /// Splits into `(train, test)` with `train_fraction` of the samples in
    /// the training set, after a seeded shuffle — the paper's 70/30 split
    /// is `split(0.7, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is outside `(0, 1)`.
    pub fn split(mut self, train_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction must be in (0, 1)"
        );
        self.shuffle(seed);
        let cut = ((self.len() as f64) * train_fraction).round() as usize;
        let test_x = self.x.split_off(cut);
        let test_y = self.y.split_off(cut);
        (self, Dataset { x: test_x, y: test_y })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let mut d = Dataset::new();
        for i in 0..n {
            let label = if i % 2 == 0 { Label::Benign } else { Label::Attack };
            d.push_row(vec![i as f64], label);
        }
        d
    }

    #[test]
    fn split_70_30() {
        let d = toy(100);
        let (train, test) = d.split(0.7, 42);
        assert_eq!(train.len(), 70);
        assert_eq!(test.len(), 30);
    }

    #[test]
    fn split_is_a_partition() {
        let d = toy(50);
        let (train, test) = d.split(0.7, 1);
        let mut all: Vec<i64> = train
            .x
            .iter()
            .chain(test.x.iter())
            .map(|r| r[0] as i64)
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a = toy(20);
        let mut b = toy(20);
        a.shuffle(7);
        b.shuffle(7);
        assert_eq!(a.x, b.x);
        let mut c = toy(20);
        c.shuffle(8);
        assert_ne!(a.x, c.x, "different seed, different order");
    }

    #[test]
    fn shuffle_keeps_labels_aligned() {
        let mut d = toy(40);
        d.shuffle(3);
        for (row, &label) in d.x.iter().zip(&d.y) {
            let i = row[0] as usize;
            assert_eq!(label, (i % 2) as u8);
        }
    }

    #[test]
    fn attack_count() {
        let d = toy(10);
        assert_eq!(d.attack_count(), 5);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic(expected = "in (0, 1)")]
    fn bad_fraction_panics() {
        let _ = toy(10).split(1.0, 0);
    }
}
