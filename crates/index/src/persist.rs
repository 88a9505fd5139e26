//! Binary persistence for the three index backends — the `er-serve`
//! save/load path, built on the `er_core::binary` ERBF container.
//!
//! Each index serializes into one container of its own `kind` (so an LSH
//! file can never be loaded as an HNSW graph) holding length-prefixed
//! sections:
//!
//! | section       | exact | HNSW | LSH | contents                          |
//! |---------------|-------|------|-----|-----------------------------------|
//! | `MATRIX`      | ✓     | ✓    | ✓   | dim, flat f32 rows, cached norms  |
//! | `META`        | ✓     | ✓    | ✓   | config fields, metric code        |
//! | `TOMBSTONES`  | ✓     | ✓    | ✓   | packed deletion bitmap            |
//! | `GRAPH`       |       | ✓    |     | per-node per-layer adjacency      |
//! | `HYPERPLANES` |       |      | ✓   | per-table per-plane f32 rows      |
//! | `SIGNATURES`  |       |      | ✓   | per-table per-vector u64 sketches |
//!
//! Loads are **reconstruction-free** in the float sense: row norms, graph
//! adjacency, hyperplanes and signatures come back verbatim with
//! `from_le_bytes`, so a loaded index answers every query bit-identically
//! to the index that was saved (pinned by round-trip tests). The only
//! recomputation on load is cheap and float-free: LSH bucket maps are
//! rebuilt from the stored signatures in id order, and the HNSW level
//! stream is repositioned by replaying one draw per stored row (the draw
//! count always equals the row count, so no generator internals are
//! persisted).
//!
//! Every malformed input — bad magic, wrong kind, flipped bit, truncation,
//! out-of-range ids, mismatched section shapes — surfaces as a typed
//! [`ErError::Corrupt`], never a panic.

use crate::exact::{QuantState, Quantization, ScanConfig};
use crate::lsh::Table;
use crate::store::Tombstones;
use crate::{BlockerBackend, ExactIndex, HnswConfig, HnswIndex, HyperplaneLsh, LshConfig, Metric};
use er_core::binary::{self, kind, BinReader, BinWriter};
use er_core::pq::PqConfig;
use er_core::{ErError, KernelTier, Result, VectorStore};
use std::collections::HashMap;
use std::path::Path;

/// Section tags shared by the three index containers (disjoint use is
/// keyed by the container `kind`).
mod tag {
    pub const MATRIX: u32 = 1;
    pub const META: u32 = 2;
    pub const TOMBSTONES: u32 = 3;
    pub const GRAPH: u32 = 4;
    pub const HYPERPLANES: u32 = 5;
    pub const SIGNATURES: u32 = 6;
    /// Int8 quantized companion matrix (exact index only).
    pub const QUANT: u32 = 7;
    /// PQ codebook centroids (exact index only).
    pub const CODEBOOK: u32 = 8;
    /// PQ codes, one byte per subspace per row (exact index only).
    pub const PQ_CODES: u32 = 9;
}

fn corrupt(what: impl std::fmt::Display) -> ErError {
    ErError::Corrupt(what.to_string())
}

fn metric_code(metric: Metric) -> u8 {
    match metric {
        Metric::Euclidean => 0,
        Metric::Cosine => 1,
    }
}

fn metric_from_code(code: u8) -> Result<Metric> {
    match code {
        0 => Ok(Metric::Euclidean),
        1 => Ok(Metric::Cosine),
        other => Err(corrupt(format!("unknown metric code {other}"))),
    }
}

fn tier_from_code(code: u8) -> Result<KernelTier> {
    KernelTier::from_code(code).ok_or_else(|| corrupt(format!("unknown kernel tier code {code}")))
}

/// A stored config that breaks the backend rules every build enforces
/// ([`BlockerBackend::validate`]) can only come from a damaged file.
fn config_in_range(backend: BlockerBackend) -> Result<()> {
    backend.validate(&ScanConfig::default()).map_err(corrupt)
}

fn tombstones_to_bytes(tombstones: &Tombstones) -> Vec<u8> {
    let mut w = BinWriter::new();
    w.put_bitmap(tombstones.flags());
    w.into_bytes()
}

/// Read the tombstone bitmap and require it to cover exactly `rows` rows.
fn tombstones_from(sections: &[(u32, &[u8])], rows: usize) -> Result<Tombstones> {
    let body = binary::section(sections, tag::TOMBSTONES, "tombstones")?;
    let deleted = BinReader::new(body).get_bitmap()?;
    if deleted.len() != rows {
        return Err(corrupt(format!(
            "tombstone map covers {} rows, matrix has {rows}",
            deleted.len()
        )));
    }
    Ok(Tombstones::from_flags(deleted))
}

fn matrix_section(sections: &[(u32, &[u8])]) -> Result<er_core::EmbeddingMatrix> {
    let body = binary::section(sections, tag::MATRIX, "matrix")?;
    binary::matrix_from_reader(&mut BinReader::new(body))
}

impl ExactIndex<'_> {
    /// Serialize into one `kind::EXACT_INDEX` container (works for owned
    /// *and* borrowed stores — the bytes capture the matrix contents).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut matrix = BinWriter::new();
        binary::matrix_to_writer(&mut matrix, self.store.matrix());
        let mut meta = BinWriter::new();
        meta.put_u8(metric_code(self.metric));
        meta.put_u8(self.scan.tier.code());
        match self.scan.quant {
            Quantization::None => meta.put_u8(0),
            Quantization::Int8 { rerank } => {
                meta.put_u8(1);
                meta.put_usize(rerank);
            }
            Quantization::Pq { config, rerank } => {
                meta.put_u8(2);
                meta.put_usize(rerank);
                meta.put_usize(config.subspaces);
                meta.put_usize(config.centroids);
                meta.put_usize(config.iters);
                meta.put_u64(config.seed);
            }
        }
        let mut sections = vec![
            (tag::MATRIX, matrix.into_bytes()),
            (tag::META, meta.into_bytes()),
            (tag::TOMBSTONES, tombstones_to_bytes(&self.tombstones)),
        ];
        // The quantized companion storage serializes verbatim — a load
        // must see the codes the build produced, not re-quantize (the
        // codebook in particular is a trained artifact).
        match &self.quant {
            QuantState::None => {}
            QuantState::Int8(qm) => {
                let mut w = BinWriter::new();
                binary::quantized_to_writer(&mut w, qm);
                sections.push((tag::QUANT, w.into_bytes()));
            }
            QuantState::Pq { book, codes } => {
                let mut w = BinWriter::new();
                binary::codebook_to_writer(&mut w, book);
                sections.push((tag::CODEBOOK, w.into_bytes()));
                let mut w = BinWriter::new();
                binary::pq_codes_to_writer(&mut w, codes);
                sections.push((tag::PQ_CODES, w.into_bytes()));
            }
        }
        binary::write_container(kind::EXACT_INDEX, &sections)
    }

    /// Write [`ExactIndex::to_bytes`] to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        Ok(std::fs::write(path, self.to_bytes())?)
    }
}

impl ExactIndex<'static> {
    /// Inverse of [`ExactIndex::to_bytes`]: an owned index whose searches
    /// are bit-identical to the saved one's.
    pub fn from_bytes(bytes: &[u8]) -> Result<ExactIndex<'static>> {
        let sections = binary::read_container(bytes, kind::EXACT_INDEX)?;
        let matrix = matrix_section(&sections)?;
        let mut meta = BinReader::new(binary::section(&sections, tag::META, "meta")?);
        let metric = metric_from_code(meta.get_u8()?)?;
        let tier = tier_from_code(meta.get_u8()?)?;
        let quant_cfg = match meta.get_u8()? {
            0 => Quantization::None,
            1 => Quantization::Int8 {
                rerank: meta.get_usize()?,
            },
            2 => Quantization::Pq {
                rerank: meta.get_usize()?,
                config: PqConfig {
                    subspaces: meta.get_usize()?,
                    centroids: meta.get_usize()?,
                    iters: meta.get_usize()?,
                    seed: meta.get_u64()?,
                },
            },
            other => return Err(corrupt(format!("unknown quantization code {other}"))),
        };
        let quant = match quant_cfg {
            Quantization::None => QuantState::None,
            Quantization::Int8 { .. } => {
                let body = binary::section(&sections, tag::QUANT, "quantized matrix")?;
                let qm =
                    binary::quantized_from_reader(&mut BinReader::new(body)).map_err(corrupt)?;
                if qm.dim() != matrix.dim() || qm.len() != matrix.len() {
                    return Err(corrupt(format!(
                        "quantized matrix is {}×{}, f32 matrix is {}×{}",
                        qm.len(),
                        qm.dim(),
                        matrix.len(),
                        matrix.dim()
                    )));
                }
                QuantState::Int8(qm)
            }
            Quantization::Pq { .. } => {
                let body = binary::section(&sections, tag::CODEBOOK, "PQ codebook")?;
                let book =
                    binary::codebook_from_reader(&mut BinReader::new(body)).map_err(corrupt)?;
                if book.dim() != matrix.dim() {
                    return Err(corrupt(format!(
                        "PQ codebook dim {} does not match matrix dim {}",
                        book.dim(),
                        matrix.dim()
                    )));
                }
                let body = binary::section(&sections, tag::PQ_CODES, "PQ codes")?;
                let codes = binary::pq_codes_from_reader(&mut BinReader::new(body), &book)
                    .map_err(corrupt)?;
                if codes.len() != matrix.len() {
                    return Err(corrupt(format!(
                        "PQ codes cover {} rows, matrix has {}",
                        codes.len(),
                        matrix.len()
                    )));
                }
                QuantState::Pq { book, codes }
            }
        };
        Ok(ExactIndex {
            tombstones: tombstones_from(&sections, matrix.len())?,
            store: VectorStore::Owned(matrix),
            metric,
            scan: ScanConfig {
                tier,
                quant: quant_cfg,
            },
            quant,
        })
    }

    /// Load from a file written by [`ExactIndex::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<ExactIndex<'static>> {
        ExactIndex::from_bytes(&std::fs::read(path)?)
    }
}

impl HnswIndex<'_> {
    /// Serialize into one `kind::HNSW_INDEX` container: matrix, config,
    /// entry point, and the full per-node per-layer adjacency — a load
    /// never re-runs construction.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut matrix = BinWriter::new();
        binary::matrix_to_writer(&mut matrix, self.store.matrix());
        let mut meta = BinWriter::new();
        meta.put_usize(self.config.m);
        meta.put_usize(self.config.ef_construction);
        meta.put_usize(self.config.ef_search);
        meta.put_u64(self.config.seed);
        meta.put_u8(metric_code(self.config.metric));
        meta.put_u8(self.config.tier.code());
        meta.put_u32(self.entry);
        meta.put_usize(self.max_level);
        let mut graph = BinWriter::new();
        graph.put_usize(self.neighbors.len());
        for layers in &self.neighbors {
            graph.put_usize(layers.len());
            for links in layers {
                graph.put_u32_slice(links);
            }
        }
        binary::write_container(
            kind::HNSW_INDEX,
            &[
                (tag::MATRIX, matrix.into_bytes()),
                (tag::META, meta.into_bytes()),
                (tag::TOMBSTONES, tombstones_to_bytes(&self.tombstones)),
                (tag::GRAPH, graph.into_bytes()),
            ],
        )
    }

    /// Write [`HnswIndex::to_bytes`] to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        Ok(std::fs::write(path, self.to_bytes())?)
    }
}

impl HnswIndex<'static> {
    /// Inverse of [`HnswIndex::to_bytes`]: an owned index with the
    /// bit-identical graph, whose level stream resumes exactly where the
    /// saved index's left off (so `insert_row` after a reload draws the
    /// same levels the original would have).
    pub fn from_bytes(bytes: &[u8]) -> Result<HnswIndex<'static>> {
        let sections = binary::read_container(bytes, kind::HNSW_INDEX)?;
        let matrix = matrix_section(&sections)?;
        let n = matrix.len();
        let mut meta = BinReader::new(binary::section(&sections, tag::META, "meta")?);
        let config = HnswConfig {
            m: meta.get_usize()?,
            ef_construction: meta.get_usize()?,
            ef_search: meta.get_usize()?,
            seed: meta.get_u64()?,
            metric: metric_from_code(meta.get_u8()?)?,
            tier: tier_from_code(meta.get_u8()?)?,
        };
        config_in_range(BlockerBackend::Hnsw(config.clone()))?;
        let entry = meta.get_u32()?;
        let max_level = meta.get_usize()?;
        if n > 0 && (entry as usize >= n || max_level > crate::hnsw::MAX_LEVEL) {
            return Err(corrupt(format!(
                "HNSW entry {entry} / max level {max_level} out of range for {n} nodes"
            )));
        }
        let mut graph = BinReader::new(binary::section(&sections, tag::GRAPH, "graph")?);
        let nodes = graph.get_usize()?;
        if nodes != n {
            return Err(corrupt(format!(
                "HNSW graph has {nodes} nodes, matrix has {n} rows"
            )));
        }
        let mut neighbors = Vec::with_capacity(nodes);
        for node in 0..nodes {
            let layer_count = graph.get_usize()?;
            if layer_count == 0 || layer_count > crate::hnsw::MAX_LEVEL + 1 {
                return Err(corrupt(format!(
                    "HNSW node {node} claims {layer_count} layers"
                )));
            }
            let mut layers = Vec::with_capacity(layer_count);
            for _ in 0..layer_count {
                let links = graph.get_u32_vec()?;
                if let Some(&bad) = links.iter().find(|&&id| id as usize >= n) {
                    return Err(corrupt(format!(
                        "HNSW node {node} links to out-of-range node {bad}"
                    )));
                }
                layers.push(links);
            }
            neighbors.push(layers);
        }
        let level_rng = HnswIndex::level_rng_after(config.seed, n);
        Ok(HnswIndex {
            tombstones: tombstones_from(&sections, n)?,
            store: VectorStore::Owned(matrix),
            neighbors,
            entry,
            max_level,
            config,
            level_rng,
        })
    }

    /// Load from a file written by [`HnswIndex::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<HnswIndex<'static>> {
        HnswIndex::from_bytes(&std::fs::read(path)?)
    }
}

impl HyperplaneLsh<'_> {
    /// Serialize into one `kind::LSH_INDEX` container: matrix, config,
    /// hyperplanes and signatures verbatim — a load redoes none of the dot
    /// products that produced them.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut matrix = BinWriter::new();
        binary::matrix_to_writer(&mut matrix, self.store.matrix());
        let mut meta = BinWriter::new();
        meta.put_usize(self.config.planes);
        meta.put_usize(self.config.tables);
        meta.put_usize(self.config.probes);
        meta.put_u64(self.config.seed);
        meta.put_u8(metric_code(self.config.metric));
        meta.put_u8(self.config.tier.code());
        let mut planes = BinWriter::new();
        for table in &self.tables {
            for plane in &table.hyperplanes {
                planes.put_f32_slice(plane);
            }
        }
        let mut sigs = BinWriter::new();
        for table in &self.tables {
            sigs.put_u64_slice(&table.signatures);
        }
        binary::write_container(
            kind::LSH_INDEX,
            &[
                (tag::MATRIX, matrix.into_bytes()),
                (tag::META, meta.into_bytes()),
                (tag::TOMBSTONES, tombstones_to_bytes(&self.tombstones)),
                (tag::HYPERPLANES, planes.into_bytes()),
                (tag::SIGNATURES, sigs.into_bytes()),
            ],
        )
    }

    /// Write [`HyperplaneLsh::to_bytes`] to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        Ok(std::fs::write(path, self.to_bytes())?)
    }
}

impl HyperplaneLsh<'static> {
    /// Inverse of [`HyperplaneLsh::to_bytes`]: bucket maps are rebuilt
    /// from the stored signatures in id order (float-free), everything
    /// else is read back verbatim.
    pub fn from_bytes(bytes: &[u8]) -> Result<HyperplaneLsh<'static>> {
        let sections = binary::read_container(bytes, kind::LSH_INDEX)?;
        let matrix = matrix_section(&sections)?;
        let n = matrix.len();
        let dim = matrix.dim();
        let mut meta = BinReader::new(binary::section(&sections, tag::META, "meta")?);
        let config = LshConfig {
            planes: meta.get_usize()?,
            tables: meta.get_usize()?,
            probes: meta.get_usize()?,
            seed: meta.get_u64()?,
            metric: metric_from_code(meta.get_u8()?)?,
            tier: tier_from_code(meta.get_u8()?)?,
        };
        config_in_range(BlockerBackend::Lsh(config.clone()))?;
        let mut planes =
            BinReader::new(binary::section(&sections, tag::HYPERPLANES, "hyperplanes")?);
        let mut sigs = BinReader::new(binary::section(&sections, tag::SIGNATURES, "signatures")?);
        let mut tables = Vec::with_capacity(config.tables);
        for t in 0..config.tables {
            let mut hyperplanes = Vec::with_capacity(config.planes);
            for p in 0..config.planes {
                let plane = planes.get_f32_vec()?;
                if plane.len() != dim {
                    return Err(corrupt(format!(
                        "LSH table {t} plane {p} has {} components, dim is {dim}",
                        plane.len()
                    )));
                }
                hyperplanes.push(plane);
            }
            let signatures = sigs.get_u64_vec()?;
            if signatures.len() != n {
                return Err(corrupt(format!(
                    "LSH table {t} has {} signatures, matrix has {n} rows",
                    signatures.len()
                )));
            }
            let mut table = Table {
                hyperplanes,
                buckets: HashMap::new(),
                signatures,
            };
            table.rebuild_buckets();
            tables.push(table);
        }
        Ok(HyperplaneLsh {
            tombstones: tombstones_from(&sections, n)?,
            store: VectorStore::Owned(matrix),
            tables,
            config,
        })
    }

    /// Load from a file written by [`HyperplaneLsh::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<HyperplaneLsh<'static>> {
        HyperplaneLsh::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        ExactIndex, HnswConfig, HnswIndex, HyperplaneLsh, IndexReader, LshConfig, Metric,
        MutableIndex, NnIndex,
    };
    use er_core::binary::{self, kind};
    use er_core::{EmbeddingMatrix, ErError};
    use rand::Rng;

    fn vectors(n: usize, dim: usize, seed: u64) -> EmbeddingMatrix {
        let mut r = er_core::rng::rng(seed);
        let flat = (0..n * dim).map(|_| r.gen_range(-1.0..1.0)).collect();
        EmbeddingMatrix::from_flat(dim, flat).unwrap()
    }

    #[test]
    fn exact_round_trip_preserves_hits_and_tombstones() {
        let vs = vectors(30, 6, 9);
        for metric in [Metric::Euclidean, Metric::Cosine] {
            let mut index = ExactIndex::from_source(vs.clone(), metric);
            assert!(index.delete_row(4) && index.delete_row(17));
            let back = ExactIndex::from_bytes(&index.to_bytes()).unwrap();
            assert_eq!(back.live_count(), 28);
            assert!(back.is_deleted(4) && back.is_deleted(17));
            for q in vs.rows_iter() {
                assert_eq!(index.search_slice(q, 7), back.search_slice(q, 7));
            }
        }
    }

    #[test]
    fn hnsw_round_trip_is_bit_identical_and_resumes_the_level_stream() {
        let vs = vectors(40, 6, 10);
        let mut index = HnswIndex::from_source(vs.clone(), HnswConfig::default());
        index.delete_row(3);
        let bytes = index.to_bytes();
        let mut back = HnswIndex::from_bytes(&bytes).unwrap();
        assert_eq!(index.adjacency(), back.adjacency());
        assert_eq!(index.max_level(), back.max_level());
        for q in vs.rows_iter() {
            assert_eq!(index.search_slice(q, 5), back.search_slice(q, 5));
        }
        // The reloaded index continues the level stream exactly where the
        // original would: the next insert yields identical graphs.
        index.insert_row(&[0.5; 6]).unwrap();
        back.insert_row(&[0.5; 6]).unwrap();
        assert_eq!(index.adjacency(), back.adjacency());
    }

    #[test]
    fn lsh_round_trip_rebuilds_buckets_without_rehashing() {
        let vs = vectors(50, 8, 11);
        let mut index = HyperplaneLsh::from_source(vs.clone(), LshConfig::default());
        index.delete_row(25);
        let back = HyperplaneLsh::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(index.signatures(), back.signatures());
        for q in vs.rows_iter() {
            assert_eq!(index.search_slice(q, 5), back.search_slice(q, 5));
            assert_eq!(
                index.candidates_slice_with(q, 2, 8),
                back.candidates_slice_with(q, 2, 8)
            );
        }
    }

    #[test]
    fn wrong_kind_and_corruption_are_typed_errors() {
        let vs = vectors(10, 4, 12);
        let exact = ExactIndex::from_matrix(&vs, Metric::Euclidean).to_bytes();
        // An exact file is not an HNSW file.
        assert!(matches!(
            HnswIndex::from_bytes(&exact),
            Err(ErError::Corrupt(_))
        ));
        // A graph whose adjacency points past the matrix is rejected.
        let hnsw = HnswIndex::from_matrix(&vs, HnswConfig::default());
        let bytes = hnsw.to_bytes();
        assert_eq!(binary::peek_kind(&bytes).unwrap(), kind::HNSW_INDEX);
        for cut in [0, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                HnswIndex::from_bytes(&bytes[..cut]),
                Err(ErError::Corrupt(_))
            ));
        }
    }
}
