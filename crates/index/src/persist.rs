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
//! trailing bytes, a missing or extra section, out-of-range ids, mismatched
//! section shapes — surfaces as a typed [`ErError::Corrupt`], never a
//! panic: the length, shape and section-end rules are
//! [`er_core::binary::BinReader`]'s, and this module keeps only the
//! semantic ones (link ids below the row count, the entry point and layer
//! counts in range, a config [`BlockerBackend::validate`] accepts).

use crate::exact::{Quant, Quantization, ScanConfig};
use crate::lsh::Table;
use crate::store::Rows;
use crate::{BlockerBackend, ExactIndex, HnswConfig, HnswIndex, HyperplaneLsh, LshConfig, Metric};
use er_core::binary::{self, kind, BinReader, BinWriter, Container};
use er_core::pq::PqConfig;
use er_core::{ErError, KernelTier, Result};

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
        other => Err(ErError::corrupt(format!("unknown metric code {other}"))),
    }
}

fn tier_from_code(code: u8) -> Result<KernelTier> {
    KernelTier::from_code(code)
        .ok_or_else(|| ErError::corrupt(format!("unknown kernel tier code {code}")))
}

/// A stored config that breaks the backend rules every build enforces
/// ([`BlockerBackend::validate`]) can only come from a damaged file.
fn config_in_range(backend: BlockerBackend) -> Result<()> {
    backend
        .validate(&ScanConfig::default())
        .map_err(ErError::corrupt)
}

/// The next section, which must carry `tag`, decoded by `f` to its last
/// byte.
fn decode<'a, T>(
    c: &mut Container<'a>,
    tag: u32,
    name: &str,
    f: impl FnOnce(&mut BinReader<'a>) -> Result<T>,
) -> Result<T> {
    let mut r = c.section(tag, name)?;
    let out = f(&mut r)?;
    r.finish()?;
    Ok(out)
}

impl Rows {
    /// One index container of `kind`: the rows' MATRIX, the backend's
    /// META, the rows' TOMBSTONES, then the backend's own sections.
    fn to_container(&self, kind: u16, meta: BinWriter, rest: Vec<(u32, Vec<u8>)>) -> Vec<u8> {
        let mut matrix = BinWriter::new();
        binary::matrix_to_writer(&mut matrix, self.matrix());
        let mut tombstones = BinWriter::new();
        tombstones.put_bitmap(self.deleted());
        let mut sections = vec![
            (tag::MATRIX, matrix.into_bytes()),
            (tag::META, meta.into_bytes()),
            (tag::TOMBSTONES, tombstones.into_bytes()),
        ];
        sections.extend(rest);
        binary::write_container(kind, 0, &sections)
    }

    /// Inverse of [`Rows::to_container`] up to the backend's own
    /// sections: the rows (MATRIX, then a TOMBSTONES bitmap over exactly
    /// its rows) and the META section decoded to its last byte by `meta`,
    /// which sees the row count. The container is left at the backend's
    /// first own section.
    fn from_container<'a, M>(
        bytes: &'a [u8],
        kind: u16,
        meta: impl FnOnce(&mut BinReader<'a>, usize) -> Result<M>,
    ) -> Result<(Container<'a>, Rows, M)> {
        let mut c = binary::read_container(bytes, kind)?;
        let matrix = decode(&mut c, tag::MATRIX, "matrix", binary::matrix_from_reader)?;
        let n = matrix.len();
        let meta = decode(&mut c, tag::META, "meta", |r| meta(r, n))?;
        let deleted = decode(&mut c, tag::TOMBSTONES, "tombstones", |r| r.get_bitmap(n))?;
        Ok((c, Rows::with_deleted(matrix, deleted), meta))
    }
}

impl ExactIndex {
    /// Serialize into one `kind::EXACT_INDEX` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut meta = BinWriter::new();
        meta.put_u8(metric_code(self.metric));
        meta.put_u8(self.tier.code());
        match self.scan_config().quant {
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
        // The quantized companion storage serializes verbatim — a load
        // must see the codes the build produced, not re-quantize (the
        // codebook in particular is a trained artifact).
        let mut sections = Vec::new();
        match &self.quant {
            Quant::None => {}
            Quant::Int8 { codes, .. } => {
                let mut w = BinWriter::new();
                binary::quantized_to_writer(&mut w, codes);
                sections.push((tag::QUANT, w.into_bytes()));
            }
            Quant::Pq { book, codes, .. } => {
                let mut w = BinWriter::new();
                binary::codebook_to_writer(&mut w, book);
                sections.push((tag::CODEBOOK, w.into_bytes()));
                let mut w = BinWriter::new();
                binary::pq_codes_to_writer(&mut w, codes);
                sections.push((tag::PQ_CODES, w.into_bytes()));
            }
        }
        self.rows.to_container(kind::EXACT_INDEX, meta, sections)
    }

    /// Inverse of [`ExactIndex::to_bytes`]: an index whose searches are
    /// bit-identical to the saved one's.
    pub fn from_bytes(bytes: &[u8]) -> Result<ExactIndex> {
        // META ends with the quantization; its companion sections follow
        // TOMBSTONES.
        let (mut c, rows, (metric, tier, quant)) =
            Rows::from_container(bytes, kind::EXACT_INDEX, |meta, _| {
                let metric = metric_from_code(meta.get_u8()?)?;
                let tier = tier_from_code(meta.get_u8()?)?;
                let quant = match meta.get_u8()? {
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
                    other => {
                        return Err(ErError::corrupt(format!(
                            "unknown quantization code {other}"
                        )))
                    }
                };
                Ok((metric, tier, quant))
            })?;
        let (n, dim) = (rows.len(), rows.matrix().dim());
        let quant = match quant {
            Quantization::None => Quant::None,
            Quantization::Int8 { rerank } => Quant::Int8 {
                rerank,
                codes: decode(&mut c, tag::QUANT, "quantized matrix", |r| {
                    binary::quantized_from_reader(r, n, dim)
                })?,
            },
            Quantization::Pq { config, rerank } => {
                let book = decode(&mut c, tag::CODEBOOK, "PQ codebook", |r| {
                    binary::codebook_from_reader(r, dim)
                })?;
                let codes = decode(&mut c, tag::PQ_CODES, "PQ codes", |r| {
                    binary::pq_codes_from_reader(r, &book, n)
                })?;
                Quant::Pq {
                    rerank,
                    config,
                    book,
                    codes,
                }
            }
        };
        c.finish()?;
        Ok(ExactIndex {
            rows,
            metric,
            tier,
            quant,
        })
    }
}

impl HnswIndex {
    /// Serialize into one `kind::HNSW_INDEX` container: matrix, config,
    /// entry point, and the full per-node per-layer adjacency — a load
    /// never re-runs construction.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut meta = BinWriter::new();
        meta.put_usize(self.config.m);
        meta.put_usize(self.config.ef_construction);
        meta.put_usize(self.config.ef_search);
        meta.put_u64(self.config.seed);
        meta.put_u8(metric_code(self.config.metric));
        meta.put_u8(self.tier.code());
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
        let graph = vec![(tag::GRAPH, graph.into_bytes())];
        self.rows.to_container(kind::HNSW_INDEX, meta, graph)
    }

    /// Inverse of [`HnswIndex::to_bytes`]: an index with the
    /// bit-identical graph, whose level stream resumes exactly where the
    /// saved index's left off (so `insert_row` after a reload draws the
    /// same levels the original would have).
    pub fn from_bytes(bytes: &[u8]) -> Result<HnswIndex> {
        let (mut c, rows, (config, tier, entry, max_level)) =
            Rows::from_container(bytes, kind::HNSW_INDEX, |meta, n| {
                let config = HnswConfig {
                    m: meta.get_usize()?,
                    ef_construction: meta.get_usize()?,
                    ef_search: meta.get_usize()?,
                    seed: meta.get_u64()?,
                    metric: metric_from_code(meta.get_u8()?)?,
                };
                let tier = tier_from_code(meta.get_u8()?)?;
                let entry = meta.get_u32()?;
                let max_level = meta.get_usize()?;
                config_in_range(BlockerBackend::Hnsw(config.clone()))?;
                if n > 0 && (entry as usize >= n || max_level > crate::hnsw::MAX_LEVEL) {
                    return Err(ErError::corrupt(format!(
                        "HNSW entry {entry} / max level {max_level} out of range for {n} nodes"
                    )));
                }
                Ok((config, tier, entry, max_level))
            })?;
        let n = rows.len();
        let mut graph = c.section(tag::GRAPH, "graph")?;
        graph.expect_len(n)?;
        let mut neighbors = Vec::with_capacity(n);
        for node in 0..n {
            let layer_count = graph.get_len(8)?;
            if layer_count == 0 || layer_count > crate::hnsw::MAX_LEVEL + 1 {
                return Err(ErError::corrupt(format!(
                    "HNSW node {node} claims {layer_count} layers"
                )));
            }
            let mut layers = Vec::with_capacity(layer_count);
            for _ in 0..layer_count {
                let links = graph.get_u32_vec()?;
                if let Some(&bad) = links.iter().find(|&&id| id as usize >= n) {
                    return Err(ErError::corrupt(format!(
                        "HNSW node {node} links to out-of-range node {bad}"
                    )));
                }
                layers.push(links);
            }
            neighbors.push(layers);
        }
        graph.finish()?;
        c.finish()?;
        Ok(HnswIndex {
            rows,
            neighbors,
            entry,
            max_level,
            level_rng: HnswIndex::level_rng_after(config.seed, n),
            config,
            tier,
        })
    }
}

impl HyperplaneLsh {
    /// Serialize into one `kind::LSH_INDEX` container: matrix, config,
    /// hyperplanes and signatures verbatim — a load redoes none of the dot
    /// products that produced them.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut meta = BinWriter::new();
        meta.put_usize(self.config.planes);
        meta.put_usize(self.config.tables);
        meta.put_usize(self.config.probes);
        meta.put_u64(self.config.seed);
        meta.put_u8(metric_code(self.config.metric));
        meta.put_u8(self.tier.code());
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
        let sections = vec![
            (tag::HYPERPLANES, planes.into_bytes()),
            (tag::SIGNATURES, sigs.into_bytes()),
        ];
        self.rows.to_container(kind::LSH_INDEX, meta, sections)
    }

    /// Inverse of [`HyperplaneLsh::to_bytes`]: bucket maps are rebuilt
    /// from the stored signatures in id order (float-free), everything
    /// else is read back verbatim.
    pub fn from_bytes(bytes: &[u8]) -> Result<HyperplaneLsh> {
        let (mut c, rows, (config, tier)) =
            Rows::from_container(bytes, kind::LSH_INDEX, |meta, _| {
                let config = LshConfig {
                    planes: meta.get_usize()?,
                    tables: meta.get_usize()?,
                    probes: meta.get_usize()?,
                    seed: meta.get_u64()?,
                    metric: metric_from_code(meta.get_u8()?)?,
                };
                let tier = tier_from_code(meta.get_u8()?)?;
                config_in_range(BlockerBackend::Lsh(config.clone()))?;
                Ok((config, tier))
            })?;
        let (n, dim) = (rows.len(), rows.matrix().dim());
        // Each table holds `planes` length-prefixed hyperplanes.
        let mut planes = c.section(tag::HYPERPLANES, "hyperplanes")?;
        let tables = planes.bound(config.tables, 8 * config.planes)?;
        let hyperplanes = (0..tables)
            .map(|_| {
                (0..config.planes)
                    .map(|_| planes.get_matrix(1, dim))
                    .collect::<Result<Vec<_>>>()
            })
            .collect::<Result<Vec<_>>>()?;
        planes.finish()?;
        let mut sigs = c.section(tag::SIGNATURES, "signatures")?;
        let tables = hyperplanes
            .into_iter()
            .map(|hyperplanes| Ok(Table::new(hyperplanes, sigs.get_u64s(n)?)))
            .collect::<Result<Vec<_>>>()?;
        sigs.finish()?;
        c.finish()?;
        Ok(HyperplaneLsh {
            rows,
            tables,
            config,
            tier,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        ExactIndex, HnswConfig, HnswIndex, HyperplaneLsh, IndexReader, LshConfig, Metric,
        MutableIndex, NnIndex,
    };
    use er_core::binary::{self, kind};
    use er_core::{EmbeddingMatrix, ErError, ScanConfig};
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
        let mut index =
            HyperplaneLsh::from_source(vs.clone(), LshConfig::default(), ScanConfig::default())
                .unwrap();
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
        let hnsw = HnswIndex::from_source(&vs, HnswConfig::default());
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
