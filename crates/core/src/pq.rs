//! Product quantization: seeded k-means codebooks + per-query asymmetric
//! distance tables (ADC).
//!
//! PQ splits each `dim`-d row into `m` contiguous subspaces and replaces
//! each sub-vector with the index of its nearest codebook centroid — one
//! byte per subspace at `k ≤ 256` centroids. A query is *not* quantized
//! (that is the "asymmetric" in ADC): per query we precompute an `m × k`
//! table of partial dots (or partial squared distances) between the query's
//! sub-vectors and every centroid, after which scoring a row is `m` table
//! lookups — independent of `dim`.
//!
//! Because the subspaces partition the coordinates, the table sums are
//! mathematically exact for the *reconstructed* row: `Σⱼ ‖qⱼ − c_{j,code}‖²
//! = ‖q − x̂‖²` and `Σⱼ ⟨qⱼ, c_{j,code}⟩ = ⟨q, x̂⟩`. The only approximation
//! is the reconstruction itself, so recall is bounded by codebook quality —
//! which is why training is seeded and deterministic (Lloyd iterations with
//! fixed init and deterministic empty-cluster reseeding).

use crate::kernels;
use crate::matrix::EmbeddingMatrix;
use crate::{ErError, Result};
use rand::Rng;

/// Training hyper-parameters. `centroids` is clamped to the row count (and
/// to 256, the capacity of a `u8` code) at train time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PqConfig {
    /// Number of subspaces `m`; must divide the matrix dimension.
    pub subspaces: usize,
    /// Centroids per subspace `k` (≤ 256).
    pub centroids: usize,
    /// Lloyd iterations per subspace.
    pub iters: usize,
    /// Seed for centroid initialisation; each subspace derives its own
    /// independent stream.
    pub seed: u64,
}

impl Default for PqConfig {
    fn default() -> PqConfig {
        PqConfig {
            subspaces: 8,
            centroids: 16,
            iters: 10,
            seed: 0x9e37_79b9,
        }
    }
}

/// Trained centroids: `subspaces × k × sub_dim` floats, row-major by
/// subspace then centroid.
#[derive(Debug, Clone, PartialEq)]
pub struct PqCodebook {
    dim: usize,
    subspaces: usize,
    centroids: usize,
    data: Vec<f32>,
}

/// Encoded rows: one `u8` per subspace per row, plus the norms of the
/// reconstructed rows (the cosine denominators, without touching the
/// original floats).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PqCodes {
    subspaces: usize,
    codes: Vec<u8>,
    norms: Vec<f32>,
}

impl PqCodebook {
    /// Train one k-means codebook per subspace on the rows of `matrix`.
    ///
    /// Errors (typed `ErError::Model`) when the matrix is empty, when
    /// `subspaces` is 0 or does not divide `dim`.
    pub fn train(matrix: &EmbeddingMatrix, config: &PqConfig) -> Result<PqCodebook> {
        let (rows, dim) = (matrix.len(), matrix.dim());
        if rows == 0 {
            return Err(ErError::Model(
                "PqCodebook: cannot train on an empty matrix".into(),
            ));
        }
        if config.subspaces == 0 || !dim.is_multiple_of(config.subspaces) {
            return Err(ErError::Model(format!(
                "PqCodebook: {} subspaces does not divide dim {dim}",
                config.subspaces
            )));
        }
        let m = config.subspaces;
        let sub_dim = dim / m;
        let k = config.centroids.clamp(1, 256).min(rows);
        let mut data = Vec::with_capacity(m * k * sub_dim);
        for j in 0..m {
            let col = j * sub_dim;
            let subs: Vec<&[f32]> = (0..rows)
                .map(|i| &matrix.row(i)[col..col + sub_dim])
                .collect();
            let centroids = kmeans(&subs, sub_dim, k, config.iters, config.seed, j);
            data.extend_from_slice(&centroids);
        }
        Ok(PqCodebook {
            dim,
            subspaces: m,
            centroids: k,
            data,
        })
    }

    /// Centroid `c` of subspace `j`.
    #[inline]
    pub(crate) fn centroid(&self, j: usize, c: usize) -> &[f32] {
        let sub_dim = self.sub_dim();
        let at = (j * self.centroids + c) * sub_dim;
        &self.data[at..at + sub_dim]
    }

    pub(crate) fn dim(&self) -> usize {
        self.dim
    }
    pub(crate) fn subspaces(&self) -> usize {
        self.subspaces
    }
    /// Centroids per subspace (`k`, after clamping at train time).
    pub fn centroids(&self) -> usize {
        self.centroids
    }
    pub(crate) fn sub_dim(&self) -> usize {
        self.dim / self.subspaces
    }
    /// Flat centroid storage, for persistence.
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }

    /// Reassemble from persisted fields (the ERBF load path).
    pub(crate) fn from_parts(
        dim: usize,
        subspaces: usize,
        centroids: usize,
        data: Vec<f32>,
    ) -> Result<PqCodebook> {
        if subspaces == 0 || !dim.is_multiple_of(subspaces) {
            return Err(ErError::corrupt(format!(
                "PqCodebook: {subspaces} subspaces does not divide dim {dim}"
            )));
        }
        if centroids == 0 || centroids > 256 {
            return Err(ErError::corrupt(format!(
                "PqCodebook: centroid count {centroids} out of range 1..=256"
            )));
        }
        if data.len() != subspaces * centroids * (dim / subspaces) {
            return Err(ErError::corrupt(format!(
                "PqCodebook: {} floats does not match {subspaces}×{centroids}×{}",
                data.len(),
                dim / subspaces
            )));
        }
        Ok(PqCodebook {
            dim,
            subspaces,
            centroids,
            data,
        })
    }

    /// Nearest centroid (Reference-fold squared distance, ties to the
    /// lowest index) for each subspace of `row`.
    fn encode_into(&self, row: &[f32], codes: &mut Vec<u8>) {
        let sub_dim = self.sub_dim();
        for j in 0..self.subspaces {
            let sub = &row[j * sub_dim..(j + 1) * sub_dim];
            let mut best = (f32::INFINITY, 0usize);
            for c in 0..self.centroids {
                let d = kernels::squared_euclidean(sub, self.centroid(j, c));
                if d < best.0 {
                    best = (d, c);
                }
            }
            codes.push(best.1 as u8);
        }
    }

    /// Encode every row of `matrix`. Panics on a dimension mismatch (a
    /// construction bug upstream).
    pub fn encode(&self, matrix: &EmbeddingMatrix) -> PqCodes {
        assert_eq!(matrix.dim(), self.dim, "PqCodebook: dimension mismatch");
        let mut out = PqCodes::new(self.subspaces);
        for row in matrix.rows_iter() {
            self.encode_row(row, &mut out);
        }
        out
    }

    /// Encode and append one row (the incremental path).
    pub fn encode_row(&self, row: &[f32], codes: &mut PqCodes) {
        assert_eq!(row.len(), self.dim, "PqCodebook: dimension mismatch");
        assert_eq!(
            codes.subspaces, self.subspaces,
            "PqCodes: subspace mismatch"
        );
        self.encode_into(row, &mut codes.codes);
        let rec = self.reconstruct_codes(&codes.codes[codes.codes.len() - self.subspaces..]);
        codes.norms.push(kernels::norm(&rec));
    }

    /// Concatenate the centroids a code row points at.
    fn reconstruct_codes(&self, row_codes: &[u8]) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dim);
        for (j, &c) in row_codes.iter().enumerate() {
            out.extend_from_slice(self.centroid(j, c as usize));
        }
        out
    }

    /// ADC table of partial dots: `table[j*k + c] = ⟨q_j, centroid_{j,c}⟩`.
    pub fn dot_tables(&self, query: &[f32]) -> Vec<f32> {
        assert_eq!(query.len(), self.dim, "PqCodebook: dimension mismatch");
        let sub_dim = self.sub_dim();
        let mut table = Vec::with_capacity(self.subspaces * self.centroids);
        for j in 0..self.subspaces {
            let sub = &query[j * sub_dim..(j + 1) * sub_dim];
            for c in 0..self.centroids {
                table.push(kernels::dot(sub, self.centroid(j, c)));
            }
        }
        table
    }

    /// ADC table of partial squared distances:
    /// `table[j*k + c] = ‖q_j − centroid_{j,c}‖²`.
    pub fn l2_tables(&self, query: &[f32]) -> Vec<f32> {
        assert_eq!(query.len(), self.dim, "PqCodebook: dimension mismatch");
        let sub_dim = self.sub_dim();
        let mut table = Vec::with_capacity(self.subspaces * self.centroids);
        for j in 0..self.subspaces {
            let sub = &query[j * sub_dim..(j + 1) * sub_dim];
            for c in 0..self.centroids {
                table.push(kernels::squared_euclidean(sub, self.centroid(j, c)));
            }
        }
        table
    }
}

impl PqCodes {
    /// Empty code storage for `subspaces`-byte rows.
    pub(crate) fn new(subspaces: usize) -> PqCodes {
        PqCodes {
            subspaces,
            ..PqCodes::default()
        }
    }

    /// Code row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[u8] {
        &self.codes[i * self.subspaces..(i + 1) * self.subspaces]
    }

    /// Sum the ADC table entries for row `i` — `⟨q, x̂ᵢ⟩` with a dot table,
    /// `‖q − x̂ᵢ‖²` with an L2 table.
    #[inline]
    pub fn adc_sum(&self, table: &[f32], k: usize, i: usize) -> f32 {
        let mut acc = 0.0f32;
        for (j, &c) in self.row(i).iter().enumerate() {
            acc += table[j * k + c as usize];
        }
        acc
    }

    /// Approximate cosine similarity from a dot table and the exact query
    /// norm; zero vectors keep the all-OOV 0.0 convention.
    #[inline]
    pub fn cosine(&self, table: &[f32], k: usize, i: usize, query_norm: f32) -> f32 {
        let denom = query_norm * self.norms[i];
        if denom == 0.0 {
            0.0
        } else {
            self.adc_sum(table, k, i) / denom
        }
    }

    /// Flat code storage, for persistence.
    pub(crate) fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// The code rows `rows`, in order, with their reconstructed-row norms
    /// copied verbatim — compaction's float-free copy, like
    /// [`crate::EmbeddingMatrix::select_rows`].
    pub fn select_rows(&self, rows: impl IntoIterator<Item = usize>) -> PqCodes {
        let mut out = PqCodes::new(self.subspaces);
        for i in rows {
            out.codes.extend_from_slice(self.row(i));
            out.norms.push(self.norms[i]);
        }
        out
    }

    /// Reassemble from persisted codes; the reconstructed-row norms are
    /// recomputed deterministically from the codebook.
    pub(crate) fn from_parts(codebook: &PqCodebook, codes: Vec<u8>) -> Result<PqCodes> {
        let m = codebook.subspaces();
        if !codes.len().is_multiple_of(m) {
            return Err(ErError::corrupt(format!(
                "PqCodes: {} codes is not a multiple of {m} subspaces",
                codes.len()
            )));
        }
        if let Some(&c) = codes
            .iter()
            .find(|&&c| (c as usize) >= codebook.centroids())
        {
            return Err(ErError::corrupt(format!(
                "PqCodes: code {c} out of range for {} centroids",
                codebook.centroids()
            )));
        }
        let mut out = PqCodes {
            subspaces: m,
            codes,
            norms: Vec::new(),
        };
        for i in 0..out.codes.len() / m {
            let rec = codebook.reconstruct_codes(out.row(i));
            out.norms.push(kernels::norm(&rec));
        }
        Ok(out)
    }
}

/// Seeded Lloyd k-means over `points` (all of length `dim`). Init samples
/// `k` distinct points; empty clusters reseed to the point farthest from
/// its assigned centroid (deterministic: max distance, ties to the lowest
/// index).
fn kmeans(
    points: &[&[f32]],
    dim: usize,
    k: usize,
    iters: usize,
    seed: u64,
    subspace: usize,
) -> Vec<f32> {
    let n = points.len();
    debug_assert!(k >= 1 && k <= n);
    let mut r = crate::rng::derive(seed, &format!("pq-subspace-{subspace}"));
    // Seeded init: a k-sized sample without replacement (partial
    // Fisher-Yates over the index set).
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = r.gen_range(i..n);
        order.swap(i, j);
    }
    let mut centroids: Vec<f32> = Vec::with_capacity(k * dim);
    for &i in order.iter().take(k) {
        centroids.extend_from_slice(points[i]);
    }
    let mut assign = vec![0usize; n];
    for _ in 0..iters.max(1) {
        // Assignment step (ties to the lowest centroid index).
        for (i, p) in points.iter().enumerate() {
            let mut best = (f32::INFINITY, 0usize);
            for c in 0..k {
                let d = kernels::squared_euclidean(p, &centroids[c * dim..(c + 1) * dim]);
                if d < best.0 {
                    best = (d, c);
                }
            }
            assign[i] = best.1;
        }
        // Update step.
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            let c = assign[i];
            counts[c] += 1;
            for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(*p) {
                *s += x as f64;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Reseed to the point farthest from its centroid.
                let mut far = (-1.0f32, 0usize);
                for (i, p) in points.iter().enumerate() {
                    let a = assign[i];
                    let d = kernels::squared_euclidean(p, &centroids[a * dim..(a + 1) * dim]);
                    if d > far.0 {
                        far = (d, i);
                    }
                }
                centroids[c * dim..(c + 1) * dim].copy_from_slice(points[far.1]);
                assign[far.1] = c;
            } else {
                let inv = 1.0 / counts[c] as f64;
                for (dst, &s) in centroids[c * dim..(c + 1) * dim]
                    .iter_mut()
                    .zip(&sums[c * dim..(c + 1) * dim])
                {
                    *dst = (s * inv) as f32;
                }
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_matrix(rows: usize, dim: usize, seed: u64) -> EmbeddingMatrix {
        // Rows drawn near 4 well-separated anchors, so small codebooks
        // reconstruct well.
        let mut r = crate::rng::rng(seed);
        let mut m = EmbeddingMatrix::new(dim);
        for _ in 0..rows {
            let anchor = r.gen_range(0..4u32) as f32;
            let row: Vec<f32> = (0..dim)
                .map(|j| anchor * 2.0 + (j as f32 * 0.3).sin() * 0.5 + r.gen_range(-0.05f32..0.05))
                .collect();
            m.push(&row);
        }
        m
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let m = clustered_matrix(60, 16, 3);
        let config = PqConfig {
            subspaces: 4,
            centroids: 8,
            iters: 6,
            seed: 42,
        };
        let a = PqCodebook::train(&m, &config).unwrap();
        let b = PqCodebook::train(&m, &config).unwrap();
        assert_eq!(a, b);
        let c = PqCodebook::train(&m, &PqConfig { seed: 43, ..config }).unwrap();
        assert_ne!(a, c, "a different seed should move the centroids");
    }

    #[test]
    fn adc_tables_are_exact_for_the_reconstruction() {
        let m = clustered_matrix(50, 12, 5);
        let config = PqConfig {
            subspaces: 3,
            centroids: 8,
            iters: 8,
            seed: 7,
        };
        let book = PqCodebook::train(&m, &config).unwrap();
        let codes = book.encode(&m);
        let query: Vec<f32> = (0..12).map(|i| (i as f32 * 0.7).cos()).collect();
        let dots = book.dot_tables(&query);
        let l2s = book.l2_tables(&query);
        let k = book.centroids();
        for i in 0..m.len() {
            let rec = book.reconstruct_codes(codes.row(i));
            let want_dot = kernels::dot(&query, &rec);
            let want_l2 = kernels::squared_euclidean(&query, &rec);
            assert!((codes.adc_sum(&dots, k, i) - want_dot).abs() < 1e-4);
            assert!((codes.adc_sum(&l2s, k, i) - want_l2).abs() < 1e-4);
        }
    }

    #[test]
    fn centroids_clamp_to_row_count_and_reconstruct_exactly() {
        // k > rows: each row becomes its own centroid, reconstruction is
        // exact up to the f64 mean round-trip.
        let m = clustered_matrix(5, 8, 9);
        let config = PqConfig {
            subspaces: 2,
            centroids: 64,
            iters: 4,
            seed: 1,
        };
        let book = PqCodebook::train(&m, &config).unwrap();
        assert_eq!(book.centroids(), 5);
        let codes = book.encode(&m);
        for i in 0..m.len() {
            let rec = book.reconstruct_codes(codes.row(i));
            let err = kernels::squared_euclidean(&rec, m.row(i));
            assert!(err < 1e-8, "row {i} reconstruction error {err}");
        }
    }

    #[test]
    fn train_rejects_bad_shapes_with_typed_errors() {
        let m = clustered_matrix(10, 10, 2);
        let bad = PqCodebook::train(
            &m,
            &PqConfig {
                subspaces: 3,
                ..PqConfig::default()
            },
        );
        assert!(matches!(bad, Err(ErError::Model(_))));
        let empty = EmbeddingMatrix::new(8);
        assert!(matches!(
            PqCodebook::train(&empty, &PqConfig::default()),
            Err(ErError::Model(_))
        ));
        assert!(matches!(
            PqCodebook::train(
                &m,
                &PqConfig {
                    subspaces: 0,
                    ..PqConfig::default()
                }
            ),
            Err(ErError::Model(_))
        ));
    }

    #[test]
    fn codes_round_trip_from_parts_and_reject_out_of_range() {
        let m = clustered_matrix(20, 8, 21);
        let config = PqConfig {
            subspaces: 4,
            centroids: 4,
            iters: 5,
            seed: 3,
        };
        let book = PqCodebook::train(&m, &config).unwrap();
        let codes = book.encode(&m);
        let back = PqCodes::from_parts(&book, codes.codes().to_vec()).unwrap();
        assert_eq!(codes, back);
        for (what, codes) in [
            ("ragged", vec![0, 1, 2]),
            ("out of range", vec![0, 1, 2, 200]),
        ] {
            assert!(
                matches!(PqCodes::from_parts(&book, codes), Err(ErError::Corrupt(_))),
                "{what}"
            );
        }
    }
}
