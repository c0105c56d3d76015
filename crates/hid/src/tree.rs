//! CART-style decision tree — several of the HID works the paper builds
//! on (e.g. the performance-counter malware detectors) evaluate decision
//! trees; provided here as an additional [`Detector`] family.
//!
//! Training runs natively over the flat [`Mat`] layout
//! ([`DecisionTree::fit`]); the split search is identical arithmetic
//! to the seed's jagged-row version, just over contiguous rows.

use crate::detector::Detector;
use crate::linalg::Mat;

/// A binary decision tree trained by recursive Gini-impurity splitting.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node further.
    pub min_samples_split: usize,
    root: Option<Node>,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        label: u8,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl DecisionTree {
    /// Creates an untrained tree with the defaults used by the HID.
    pub fn new() -> DecisionTree {
        DecisionTree { max_depth: 8, min_samples_split: 6, root: None }
    }

    /// Number of decision nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + count(left) + count(right),
            }
        }
        self.root.as_ref().map_or(0, count)
    }

    fn build(&self, idx: &[usize], x: &Mat, y: &[u8], depth: usize) -> Node {
        let attacks = idx.iter().filter(|&&i| y[i] == 1).count();
        let majority = u8::from(attacks * 2 >= idx.len());
        if depth >= self.max_depth
            || idx.len() < self.min_samples_split
            || attacks == 0
            || attacks == idx.len()
        {
            return Node::Leaf { label: majority };
        }
        let Some((feature, threshold)) = best_split(idx, x, y) else {
            return Node::Leaf { label: majority };
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| x.row(i)[feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return Node::Leaf { label: majority };
        }
        Node::Split {
            feature,
            threshold,
            left: Box::new(self.build(&left_idx, x, y, depth + 1)),
            right: Box::new(self.build(&right_idx, x, y, depth + 1)),
        }
    }
}

/// Finds the `(feature, threshold)` minimizing weighted Gini impurity.
fn best_split(idx: &[usize], x: &Mat, y: &[u8]) -> Option<(usize, f64)> {
    let dim = x.cols();
    let mut best: Option<(f64, usize, f64)> = None;
    let mut values = Vec::with_capacity(idx.len());
    for feature in 0..dim {
        // Candidate thresholds: midpoints between sorted distinct values.
        values.clear();
        values.extend(idx.iter().map(|&i| x.row(i)[feature]));
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        values.dedup();
        for pair in values.windows(2) {
            let threshold = (pair[0] + pair[1]) / 2.0;
            let (mut ln, mut la, mut rn, mut ra) = (0usize, 0usize, 0usize, 0usize);
            for &i in idx {
                if x.row(i)[feature] <= threshold {
                    ln += 1;
                    la += usize::from(y[i] == 1);
                } else {
                    rn += 1;
                    ra += usize::from(y[i] == 1);
                }
            }
            let gini = |n: usize, a: usize| -> f64 {
                if n == 0 {
                    return 0.0;
                }
                let p = a as f64 / n as f64;
                2.0 * p * (1.0 - p)
            };
            let score = (ln as f64 * gini(ln, la) + rn as f64 * gini(rn, ra)) / idx.len() as f64;
            if best.is_none_or(|(s, _, _)| score < s) {
                best = Some((score, feature, threshold));
            }
        }
    }
    best.map(|(_, f, t)| (f, t))
}

impl Default for DecisionTree {
    fn default() -> DecisionTree {
        DecisionTree::new()
    }
}

impl Detector for DecisionTree {
    fn name(&self) -> &'static str {
        "DT"
    }

    fn fit(&mut self, x: &Mat, y: &[u8]) {
        assert_eq!(x.rows(), y.len(), "features/labels mismatch");
        assert!(x.rows() > 0, "cannot fit on no data");
        let idx: Vec<usize> = (0..x.rows()).collect();
        self.root = Some(self.build(&idx, x, y, 0));
    }

    fn predict(&self, row: &[f64]) -> u8 {
        let mut node = self.root.as_ref().expect("tree must be fitted before predict");
        loop {
            match node {
                Node::Leaf { label } => return *label,
                Node::Split { feature, threshold, left, right } => {
                    node = if row[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::testdata::{blobs, xor_data};

    #[test]
    fn fits_separable_blobs() {
        let (x, y) = blobs(200, 3, 2.5, 31);
        let mut tree = DecisionTree::new();
        tree.fit(&x, &y);
        assert!(tree.accuracy(&x, &y) > 0.95, "got {}", tree.accuracy(&x, &y));
        assert!(tree.node_count() >= 3);
    }

    #[test]
    fn fits_xor_unlike_linear_models() {
        let (x, y) = xor_data(300, 17);
        let mut tree = DecisionTree::new();
        tree.fit(&x, &y);
        assert!(tree.accuracy(&x, &y) > 0.9, "got {}", tree.accuracy(&x, &y));
    }

    #[test]
    fn depth_cap_bounds_the_tree() {
        let (x, y) = xor_data(300, 19);
        let mut stump = DecisionTree { max_depth: 1, ..DecisionTree::new() };
        stump.fit(&x, &y);
        assert!(stump.node_count() <= 3, "a depth-1 tree has ≤ 3 nodes");
        assert!(stump.accuracy(&x, &y) < 0.8, "a stump cannot learn XOR");
    }

    #[test]
    fn pure_nodes_become_leaves() {
        let x = Mat::from_vec(vec![0.0, 1.0, 2.0], 3, 1);
        let y = vec![0, 0, 0];
        let mut tree = DecisionTree::new();
        tree.fit(&x, &y);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "fitted before predict")]
    fn predict_before_fit_panics() {
        let _ = DecisionTree::new().predict(&[0.0]);
    }
}
