//! Columnar embedding storage: one contiguous `Vec<f32>` for a whole
//! collection instead of one heap allocation per 48-d vector.
//!
//! [`EmbeddingMatrix`] is the storage format of the vectorize → index →
//! block pipeline: the facade's matrix vectorizer fills it once per
//! collection, every `er-index` structure owns one (a caller that keeps its
//! matrix hands over a copy — see the `From<&EmbeddingMatrix>` impl), and
//! the blocker queries it row by row. Row norms are precomputed at
//! insertion, so cosine distances against stored rows touch each row
//! exactly once.
//!
//! Conversion from and to `Vec<Embedding>` is bit-exact in both directions:
//! the matrix is the same floats laid out contiguously, and its cached
//! norms are computed with the same kernel `Embedding::norm` uses.

use crate::kernels;
use crate::{Embedding, ErError, Result};

/// A dense row-major `rows × dim` matrix of embeddings with precomputed
/// per-row Euclidean norms.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EmbeddingMatrix {
    dim: usize,
    data: Vec<f32>,
    norms: Vec<f32>,
}

impl EmbeddingMatrix {
    /// An empty matrix whose future rows have `dim` components.
    pub fn new(dim: usize) -> EmbeddingMatrix {
        EmbeddingMatrix {
            dim,
            data: Vec::new(),
            norms: Vec::new(),
        }
    }

    /// An empty matrix with capacity for `rows` rows of `dim` components.
    pub fn with_capacity(dim: usize, rows: usize) -> EmbeddingMatrix {
        EmbeddingMatrix {
            dim,
            data: Vec::with_capacity(dim * rows),
            norms: Vec::with_capacity(rows),
        }
    }

    /// Wrap a flat row-major buffer. Fails if `data` is not a whole number
    /// of `dim`-sized rows (a `dim` of 0 only admits the empty buffer).
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Result<EmbeddingMatrix> {
        if dim == 0 && !data.is_empty() {
            return Err(ErError::Model(
                "EmbeddingMatrix: non-empty data with dim 0".into(),
            ));
        }
        if dim != 0 && !data.len().is_multiple_of(dim) {
            return Err(ErError::Model(format!(
                "EmbeddingMatrix: {} floats is not a multiple of dim {dim}",
                data.len()
            )));
        }
        let norms = data.chunks_exact(dim.max(1)).map(kernels::norm).collect();
        Ok(EmbeddingMatrix { dim, data, norms })
    }

    /// Reassemble a matrix from a flat buffer **and its already-computed
    /// norms** — the binary-persistence load path (`er_core::binary`),
    /// which must reconstitute the exact bits the build cached instead of
    /// re-deriving them. Validates shape only; the norms are trusted.
    pub(crate) fn from_parts(
        dim: usize,
        data: Vec<f32>,
        norms: Vec<f32>,
    ) -> Result<EmbeddingMatrix> {
        if dim == 0 && !data.is_empty() {
            return Err(ErError::corrupt(
                "EmbeddingMatrix: non-empty data with dim 0",
            ));
        }
        if data.len() != dim * norms.len() {
            return Err(ErError::corrupt(format!(
                "EmbeddingMatrix: {} floats with dim {dim} needs {} norms, got {}",
                data.len(),
                data.len().checked_div(dim).unwrap_or(0),
                norms.len()
            )));
        }
        Ok(EmbeddingMatrix { dim, data, norms })
    }

    /// Copy a `Vec<Embedding>` into contiguous storage, bit-exactly.
    ///
    /// The dimension is taken from the first embedding (0 when empty).
    /// Panics on ragged input — mixed dimensions in one collection are a
    /// construction bug upstream, not a runtime condition.
    pub fn from_embeddings(embeddings: &[Embedding]) -> EmbeddingMatrix {
        let dim = embeddings.first().map(Embedding::dim).unwrap_or(0);
        let mut matrix = EmbeddingMatrix::with_capacity(dim, embeddings.len());
        for e in embeddings {
            matrix.push(e.as_slice());
        }
        matrix
    }

    /// Append one row. Panics if `row.len() != dim`.
    pub fn push(&mut self, row: &[f32]) {
        assert_eq!(
            row.len(),
            self.dim,
            "EmbeddingMatrix: pushed a {}-d row into a {}-d matrix",
            row.len(),
            self.dim
        );
        self.data.extend_from_slice(row);
        self.norms.push(kernels::norm(row));
    }

    /// Expand back into one `Embedding` per row — the bit-exact inverse of
    /// [`EmbeddingMatrix::from_embeddings`].
    pub fn to_embeddings(&self) -> Vec<Embedding> {
        self.rows_iter().map(|r| Embedding(r.to_vec())).collect()
    }

    /// Components per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `i` as a slice view into the contiguous buffer.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Precomputed Euclidean norm of row `i` (bit-identical to
    /// `kernels::norm(self.row(i))`).
    #[inline]
    pub fn norm(&self, i: usize) -> f32 {
        self.norms[i]
    }

    /// The full flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// All precomputed row norms, in row order.
    pub(crate) fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// Iterate over the rows as slices.
    pub fn rows_iter(&self) -> impl ExactSizeIterator<Item = &[f32]> {
        // `chunks_exact(0)` panics, so pin the empty case explicitly.
        self.data.chunks_exact(self.dim.max(1)).take(self.len())
    }

    /// Copy the given rows, in the given order, into a fresh matrix — row
    /// floats **and their cached norms** verbatim, so every distance over a
    /// selected row is bit-identical to the same distance over the source
    /// row (the compaction and sampling contract).
    pub fn select_rows(&self, rows: impl IntoIterator<Item = usize>) -> EmbeddingMatrix {
        let rows = rows.into_iter();
        let mut out = EmbeddingMatrix::with_capacity(self.dim, rows.size_hint().0);
        for i in rows {
            out.data.extend_from_slice(self.row(i));
            out.norms.push(self.norms[i]);
        }
        out
    }

    /// Int8-quantize every row (see [`crate::quant::QuantizedMatrix`]) —
    /// the entry point of the memory-bound scan tier. Deterministic and
    /// row-local, so quantizing shards equals quantizing the whole matrix.
    pub fn quantize(&self) -> crate::quant::QuantizedMatrix {
        crate::quant::QuantizedMatrix::quantize(self)
    }
}

/// The copy an index makes of a matrix its caller keeps: an index owns its
/// rows, so `from_source(&m, ..)` clones `m` (rows and cached norms
/// verbatim) while `from_source(m, ..)` moves it in without a copy.
impl From<&EmbeddingMatrix> for EmbeddingMatrix {
    fn from(matrix: &EmbeddingMatrix) -> EmbeddingMatrix {
        matrix.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embeddings() -> Vec<Embedding> {
        vec![
            Embedding(vec![1.0, 0.0, 2.5]),
            Embedding(vec![-3.0, 4.0, 0.0]),
            Embedding(vec![0.0, 0.0, 0.0]),
        ]
    }

    #[test]
    fn round_trips_embeddings_bit_exactly() {
        let original = embeddings();
        let matrix = EmbeddingMatrix::from_embeddings(&original);
        assert_eq!((matrix.len(), matrix.dim()), (3, 3));
        assert_eq!(matrix.to_embeddings(), original);
        for (i, e) in original.iter().enumerate() {
            assert_eq!(matrix.row(i), e.as_slice());
            assert_eq!(matrix.norm(i).to_bits(), e.norm().to_bits());
        }
    }

    #[test]
    fn norms_are_cached_at_push_time() {
        let mut matrix = EmbeddingMatrix::new(2);
        matrix.push(&[3.0, 4.0]);
        matrix.push(&[0.0, 0.0]);
        assert_eq!(matrix.norms(), &[5.0, 0.0]);
        assert_eq!(matrix.norm(0), 5.0);
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let empty = EmbeddingMatrix::from_embeddings(&[]);
        assert!(empty.is_empty());
        assert_eq!((empty.len(), empty.dim()), (0, 0));
        assert!(empty.to_embeddings().is_empty());
        assert_eq!(empty.rows_iter().count(), 0);

        let zero_rows = EmbeddingMatrix::new(4);
        assert_eq!(zero_rows.len(), 0);
        assert!(zero_rows.is_empty());
    }

    #[test]
    fn from_flat_validates_shape() {
        let ok = EmbeddingMatrix::from_flat(2, vec![1.0, 0.0, 3.0, 4.0]).unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.norms(), &[1.0, 5.0]);
        for bad in [
            EmbeddingMatrix::from_flat(3, vec![1.0; 4]),
            EmbeddingMatrix::from_flat(0, vec![1.0]),
        ] {
            assert!(matches!(bad, Err(ErError::Model(_))), "{bad:?}");
        }
        assert!(EmbeddingMatrix::from_flat(0, vec![]).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "pushed a 2-d row into a 3-d matrix")]
    fn push_rejects_ragged_rows() {
        let mut matrix = EmbeddingMatrix::new(3);
        matrix.push(&[1.0, 2.0]);
    }

    #[test]
    fn a_borrowed_matrix_converts_into_an_equal_copy() {
        let matrix = EmbeddingMatrix::from_embeddings(&embeddings());
        let copy = EmbeddingMatrix::from(&matrix);
        assert_eq!(copy, matrix);
        assert_eq!(copy.norm(1).to_bits(), matrix.norm(1).to_bits());
    }
}
