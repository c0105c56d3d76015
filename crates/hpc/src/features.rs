//! Feature selection and normalization.
//!
//! The paper monitors a subset of the 56 offline-collected events in real
//! time ("a limit is imposed on the number of events counted
//! simultaneously") and evaluates HID accuracy at feature sizes 16, 8, 4,
//! 2 and 1 (Figure 4). [`FeatureSet::paper`] reproduces that ranking: the
//! first events are the ones the cited detectors found most Spectre-
//! discriminative (cache misses, branch mispredictions, ...).

use cr_spectre_sim::pmu::HpcEvent;

/// An ordered selection of PMU events used as classifier features.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureSet {
    events: Vec<HpcEvent>,
}

/// The paper-ranked event order used to build fixed-size feature sets.
/// The first six are the paper's named features; the rest extend to the
/// 16-counter budget of Figure 4 with standard PMU events.
const RANKED: [HpcEvent; 16] = [
    HpcEvent::TotalCacheMiss,
    HpcEvent::BranchMispredicts,
    HpcEvent::TotalCacheAccess,
    HpcEvent::BranchInstrs,
    HpcEvent::Instructions,
    HpcEvent::Cycles,
    HpcEvent::L1dMiss,
    HpcEvent::L2Miss,
    HpcEvent::L1dAccess,
    HpcEvent::L1iMiss,
    HpcEvent::Loads,
    HpcEvent::Stores,
    HpcEvent::BranchTaken,
    HpcEvent::Returns,
    HpcEvent::MemReads,
    HpcEvent::StallCyclesMem,
];

impl FeatureSet {
    /// The paper's feature set of `size` events (1, 2, 4, 8 or 16 in
    /// Figure 4; any size up to 16 is accepted).
    ///
    /// # Panics
    ///
    /// Panics when `size` is 0 or exceeds 16.
    pub fn paper(size: usize) -> FeatureSet {
        assert!((1..=RANKED.len()).contains(&size), "size must be 1..=16");
        FeatureSet { events: RANKED[..size].to_vec() }
    }

    /// The paper's default working set: 4 features ("we consider utilizing
    /// 4 features in this work").
    pub fn paper_default() -> FeatureSet {
        FeatureSet::paper(4)
    }

    /// A custom selection.
    pub fn custom(events: Vec<HpcEvent>) -> FeatureSet {
        assert!(!events.is_empty(), "feature set must be non-empty");
        FeatureSet { events }
    }

    /// All 56 events (offline analysis).
    pub fn all() -> FeatureSet {
        FeatureSet { events: HpcEvent::all().collect() }
    }

    /// The selected events in order.
    pub fn events(&self) -> &[HpcEvent] {
        &self.events
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the set is empty (never true for constructed sets).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Ranks events by their Fisher score on a labelled corpus —
/// `(µ₁ − µ₀)² / (σ₁² + σ₀²)` per column — the standard filter-style
/// feature selection the offline 56-event analysis would perform.
/// Returns `(event, score)` pairs sorted best-first.
///
/// `rows` must be extracted with `events` in the same order.
///
/// # Panics
///
/// Panics when shapes disagree or a class is empty.
pub fn rank_by_fisher(
    events: &[HpcEvent],
    rows: &[Vec<f64>],
    labels: &[u8],
) -> Vec<(HpcEvent, f64)> {
    assert_eq!(rows.len(), labels.len(), "rows/labels mismatch");
    let n1 = labels.iter().filter(|&&l| l == 1).count();
    let n0 = labels.len() - n1;
    assert!(n0 > 0 && n1 > 0, "both classes must be present");
    let dim = events.len();
    let mut scores = Vec::with_capacity(dim);
    for (col, &event) in events.iter().enumerate() {
        let (mut m0, mut m1) = (0.0f64, 0.0f64);
        for (row, &label) in rows.iter().zip(labels) {
            assert_eq!(row.len(), dim, "row width mismatch");
            if label == 1 {
                m1 += row[col];
            } else {
                m0 += row[col];
            }
        }
        m0 /= n0 as f64;
        m1 /= n1 as f64;
        let (mut v0, mut v1) = (0.0f64, 0.0f64);
        for (row, &label) in rows.iter().zip(labels) {
            if label == 1 {
                v1 += (row[col] - m1).powi(2);
            } else {
                v0 += (row[col] - m0).powi(2);
            }
        }
        v0 /= n0 as f64;
        v1 /= n1 as f64;
        let denom = (v0 + v1).max(1e-12);
        scores.push((event, (m1 - m0).powi(2) / denom));
    }
    scores.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
    scores
}

/// Per-column z-score normalizer, fit on training data only.
#[derive(Debug, Clone)]
pub struct Normalizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Normalizer {
    /// Fits column means and standard deviations on `rows`.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is empty or rows have inconsistent widths.
    pub fn fit(rows: &[Vec<f64>]) -> Normalizer {
        assert!(!rows.is_empty(), "cannot fit a normalizer on no data");
        let dim = rows[0].len();
        let n = rows.len() as f64;
        let mut mean = vec![0.0; dim];
        for row in rows {
            assert_eq!(row.len(), dim, "inconsistent feature width");
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; dim];
        for row in rows {
            for ((s, v), m) in var.iter_mut().zip(row).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        let std = var
            .into_iter()
            .map(|s| {
                let sd = (s / n).sqrt();
                if sd < 1e-12 {
                    1.0
                } else {
                    sd
                }
            })
            .collect();
        Normalizer { mean, std }
    }

    /// Normalizes one row in place.
    ///
    /// # Panics
    ///
    /// Panics when the row width differs from the fitted dimension.
    pub fn apply(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.dim(), "feature width mismatch");
        for ((v, m), s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
            *v = (*v - m) / s;
        }
    }

    /// The feature dimension.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_nest() {
        let f16 = FeatureSet::paper(16);
        for size in [1, 2, 4, 8] {
            let f = FeatureSet::paper(size);
            assert_eq!(f.len(), size);
            assert_eq!(f.events(), &f16.events()[..size], "prefix property");
        }
    }

    #[test]
    fn paper_default_is_four() {
        assert_eq!(FeatureSet::paper_default().len(), 4);
    }

    #[test]
    fn paper_one_is_cache_misses() {
        assert_eq!(FeatureSet::paper(1).events(), &[HpcEvent::TotalCacheMiss]);
    }

    #[test]
    fn all_has_56() {
        assert_eq!(FeatureSet::all().len(), 56);
        assert!(!FeatureSet::all().is_empty());
    }

    #[test]
    #[should_panic(expected = "1..=16")]
    fn oversized_paper_set_panics() {
        let _ = FeatureSet::paper(17);
    }

    #[test]
    fn fisher_ranks_the_separating_feature_first() {
        let events = [HpcEvent::TotalCacheMiss, HpcEvent::Cycles];
        // Column 0 separates the classes; column 1 is identical noise.
        let rows = vec![
            vec![0.0, 5.0],
            vec![0.5, 5.1],
            vec![10.0, 5.0],
            vec![10.5, 5.1],
        ];
        let labels = vec![0, 0, 1, 1];
        let ranked = rank_by_fisher(&events, &rows, &labels);
        assert_eq!(ranked[0].0, HpcEvent::TotalCacheMiss);
        assert!(ranked[0].1 > ranked[1].1 * 100.0);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn fisher_requires_both_classes() {
        let _ = rank_by_fisher(
            &[HpcEvent::Cycles],
            &[vec![1.0], vec![2.0]],
            &[0, 0],
        );
    }

    #[test]
    fn normalizer_zero_means_unit_std() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]];
        let norm = Normalizer::fit(&rows);
        let mut m = rows.clone();
        for row in &mut m {
            norm.apply(row);
        }
        for col in 0..2 {
            let mean: f64 = m.iter().map(|r| r[col]).sum::<f64>() / 3.0;
            let var: f64 = m.iter().map(|r| (r[col] - mean).powi(2)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
        assert_eq!(norm.dim(), 2);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn apply_rejects_wrong_width() {
        let norm = Normalizer::fit(&[vec![1.0, 2.0]]);
        norm.apply(&mut [1.0]);
    }

    #[test]
    fn constant_column_does_not_divide_by_zero() {
        let rows = vec![vec![7.0], vec![7.0]];
        let norm = Normalizer::fit(&rows);
        let mut row = vec![7.0];
        norm.apply(&mut row);
        assert!(row[0].is_finite());
        assert_eq!(row[0], 0.0);
    }
}
