//! Minimal dense linear algebra for the from-scratch classifiers.
//!
//! Two tiers live here:
//!
//! * the scalar seed primitives ([`dot`], [`axpy`], [`matvec`]) the
//!   original jagged `Vec<Vec<f64>>` implementations were written
//!   against — kept verbatim, because they define the reference
//!   floating-point evaluation order;
//! * the flat math core ([`Mat`], [`dot4`], [`gemm_nt`],
//!   [`matvec_into`]) the detectors run on: one contiguous row-major
//!   allocation per matrix, cache-blocked GEMM, and a lane kernel that
//!   runs four dot products side by side. [`Mat`] is the crate's only
//!   matrix type: normalized corpora, query batches, weight layers and
//!   activations, and the argument of every [`crate::Detector`] method
//!   that takes more than one row.
//!
//! **Bit-exactness contract:** [`dot`]'s fold order is the only
//! reduction order; lanes run independent folds. Every element any flat
//! routine produces is one fold that starts at −0.0 (as Rust's f64 `sum`
//! does) and adds its products left to right over k. [`dot4`] only
//! interleaves four such folds so their add chains overlap in the
//! pipeline, and blocking only reorders which (row, column) pairs are
//! visited — never the additions inside one pair.
//! `crates/hid/tests/fastmath_equivalence.rs` and the proptests in
//! `crates/hid/tests/props.rs` lock this in against the seed
//! implementations.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics when the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot of mismatched lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `out += alpha * x` (axpy).
///
/// # Panics
///
/// Panics when the lengths differ.
pub fn axpy(alpha: f64, x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), out.len(), "axpy of mismatched lengths");
    for (o, v) in out.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

/// Scales a vector in place.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// Numerically stable logistic sigmoid.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Rectified linear unit.
pub fn relu(z: f64) -> f64 {
    z.max(0.0)
}

/// Derivative of ReLU (0 at the kink, as is conventional).
pub fn relu_grad(z: f64) -> f64 {
    if z > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Matrix–vector product: `m` is row-major `[rows][cols]`.
///
/// # Panics
///
/// Panics when a row's width differs from `x`.
pub fn matvec(m: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
    m.iter().map(|row| dot(row, x)).collect()
}

/// A dense row-major matrix backed by one contiguous allocation.
///
/// `Mat` is the one matrix type of the detector stack: feature corpora,
/// network weight layers and whole-batch activations all live in one
/// `Vec<f64>` each, so iterating rows is a pointer bump instead of a
/// pointer chase through per-row boxes.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Mat {
    /// An all-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Wraps an existing flat buffer (row-major) without copying.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(data: Vec<f64>, rows: usize, cols: usize) -> Mat {
        assert_eq!(data.len(), rows * cols, "flat buffer does not match shape");
        Mat { data, rows, cols }
    }

    /// Copies a jagged row set into one flat allocation.
    ///
    /// # Panics
    ///
    /// Panics when rows have inconsistent widths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Mat {
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "inconsistent row width");
            data.extend_from_slice(row);
        }
        Mat { data, rows: rows.len(), cols }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// One row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole backing buffer, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The whole backing buffer, row-major, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterates rows in order (zero-width rows included).
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(move |i| &self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Reshapes in place to `rows × cols`, zero-filling; keeps the
    /// allocation when capacity suffices.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }
}

/// Four independent [`dot`] folds side by side: lane `l` is exactly
/// `dot(r_l, x)`, bit for bit.
///
/// Each lane starts at −0.0 and adds its products left to right over k,
/// the same fold as [`dot`]; only the four dependent add chains are
/// interleaved, so they overlap in the FP pipeline instead of waiting on
/// each other.
///
/// # Panics
///
/// Panics when any row's length differs from `x`.
pub fn dot4(x: &[f64], r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64]) -> [f64; 4] {
    let n = x.len();
    assert!(
        r0.len() == n && r1.len() == n && r2.len() == n && r3.len() == n,
        "dot4 of mismatched lengths"
    );
    let (r0, r1, r2, r3) = (&r0[..n], &r1[..n], &r2[..n], &r3[..n]);
    let mut acc = [-0.0f64; 4];
    for k in 0..n {
        acc[0] += r0[k] * x[k];
        acc[1] += r1[k] * x[k];
        acc[2] += r2[k] * x[k];
        acc[3] += r3[k] * x[k];
    }
    acc
}

/// `out[t] = dot(m.row(first + t), x)`: four rows per [`dot4`], with a
/// scalar [`dot`] tail for the last `out.len() % 4` rows.
fn dot_rows(m: &Mat, first: usize, x: &[f64], out: &mut [f64]) {
    let mut j = first;
    let mut quads = out.chunks_exact_mut(4);
    for q in &mut quads {
        q.copy_from_slice(&dot4(x, m.row(j), m.row(j + 1), m.row(j + 2), m.row(j + 3)));
        j += 4;
    }
    for o in quads.into_remainder() {
        *o = dot(m.row(j), x);
        j += 1;
    }
}

/// Cache-block edge for [`gemm_nt`]: 32×32 output tiles keep one tile
/// of each operand (~8 KiB at 4-wide features, still fine at 32-wide
/// hidden layers) resident in L1 while the full-k inner loop runs.
const GEMM_BLOCK: usize = 32;

/// `out = a · bᵀ` — the whole-batch product of two row-major matrices
/// sharing their inner (k) dimension, i/j-blocked for cache reuse and
/// register-blocked four j-columns at a time through [`dot4`].
///
/// Every output element is exactly `dot(a.row(i), b.row(j))`: the k
/// loop is never split, so each element's floating-point fold matches
/// the scalar seed path bit for bit.
///
/// # Panics
///
/// Panics when the shapes disagree.
pub fn gemm_nt(a: &Mat, b: &Mat, out: &mut Mat) {
    assert_eq!(a.cols(), b.cols(), "gemm_nt inner dimensions differ");
    assert_eq!(out.rows(), a.rows(), "gemm_nt output rows mismatch");
    assert_eq!(out.cols(), b.rows(), "gemm_nt output cols mismatch");
    let (m, n) = (a.rows(), b.rows());
    for ib in (0..m).step_by(GEMM_BLOCK) {
        let ie = (ib + GEMM_BLOCK).min(m);
        for jb in (0..n).step_by(GEMM_BLOCK) {
            let je = (jb + GEMM_BLOCK).min(n);
            for i in ib..ie {
                dot_rows(b, jb, a.row(i), &mut out.row_mut(i)[jb..je]);
            }
        }
    }
}

/// `out[j] = dot(m.row(j), x)` without allocating — the flat
/// counterpart of [`matvec`], four rows at a time through [`dot4`].
///
/// # Panics
///
/// Panics when the shapes disagree.
pub fn matvec_into(m: &Mat, x: &[f64], out: &mut [f64]) {
    assert_eq!(m.cols(), x.len(), "matvec_into width mismatch");
    assert_eq!(m.rows(), out.len(), "matvec_into output length mismatch");
    dot_rows(m, 0, x, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
        // The fold starts at −0.0, as Rust's f64 `sum` does; `dot4`
        // seeds its lanes the same way.
        assert!(dot(&[], &[]).is_sign_negative());
        assert_eq!(dot4(&[], &[], &[], &[], &[]).map(f64::to_bits), [(-0.0f64).to_bits(); 4]);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn dot4_mismatch_panics() {
        let _ = dot4(&[1.0], &[1.0], &[1.0], &[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut out = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut out);
        assert_eq!(out, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![2.0, -4.0];
        scale(0.5, &mut x);
        assert_eq!(x, vec![1.0, -2.0]);
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        // Stability at extremes.
        assert!(sigmoid(-1000.0).is_finite());
        assert!(sigmoid(1000.0).is_finite());
        // Symmetry.
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relu_and_grad() {
        assert_eq!(relu(-3.0), 0.0);
        assert_eq!(relu(3.0), 3.0);
        assert_eq!(relu_grad(-1.0), 0.0);
        assert_eq!(relu_grad(1.0), 1.0);
        assert_eq!(relu_grad(0.0), 0.0);
    }

    #[test]
    fn matvec_shape() {
        let m = vec![vec![1.0, 0.0], vec![0.0, 2.0], vec![1.0, 1.0]];
        assert_eq!(matvec(&m, &[3.0, 4.0]), vec![3.0, 8.0, 7.0]);
    }

    #[test]
    fn mat_from_rows_round_trips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = Mat::from_rows(&rows);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(m.row(i), row.as_slice());
        }
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.iter_rows().count(), 3);
    }

    #[test]
    fn mat_from_no_rows_is_empty() {
        let m = Mat::from_rows(&[]);
        assert_eq!((m.rows(), m.cols()), (0, 0));
        assert!(m.as_slice().is_empty());
        assert_eq!(m.iter_rows().count(), 0);
    }

    #[test]
    #[should_panic(expected = "inconsistent row width")]
    fn mat_from_ragged_rows_panics() {
        let _ = Mat::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn mat_from_vec_shape_mismatch_panics() {
        let _ = Mat::from_vec(vec![1.0, 2.0, 3.0], 2, 2);
    }

    #[test]
    fn mat_zero_width_rows_iterate() {
        let m = Mat::zeros(3, 0);
        assert_eq!(m.iter_rows().count(), 3);
        assert!(m.iter_rows().all(|r| r.is_empty()));
    }

    #[test]
    fn mat_reset_keeps_allocation() {
        let mut m = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let cap = m.as_slice().len();
        m.reset(1, 2);
        assert_eq!((m.rows(), m.cols()), (1, 2));
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert!(cap >= 2);
    }

    #[test]
    fn gemm_nt_matches_per_element_dot() {
        // Shapes straddling the 32-wide block edge, and n ≡ 1, 2, 3
        // (mod 4) below it so the scalar tail after the 4-wide lanes runs.
        for (m, n, k) in
            [(1, 1, 1), (3, 5, 4), (4, 6, 3), (5, 7, 9), (33, 34, 7), (64, 32, 33), (2, 2, 0)]
        {
            let a = Mat::from_vec(
                (0..m * k).map(|v| (v as f64).sin()).collect(),
                m,
                k,
            );
            let b = Mat::from_vec(
                (0..n * k).map(|v| (v as f64 * 0.7).cos()).collect(),
                n,
                k,
            );
            let mut c = Mat::zeros(m, n);
            gemm_nt(&a, &b, &mut c);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        c.row(i)[j].to_bits(),
                        dot(a.row(i), b.row(j)).to_bits(),
                        "({m},{n},{k}) element ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let jagged = vec![vec![1.0, 0.5], vec![0.25, 2.0], vec![1.0, 1.0]];
        let m = Mat::from_rows(&jagged);
        let x = [3.0, 4.0];
        let mut out = vec![0.0; 3];
        matvec_into(&m, &x, &mut out);
        assert_eq!(out, matvec(&jagged, &x));
    }
}
