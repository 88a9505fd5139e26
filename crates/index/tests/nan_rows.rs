//! A stored `+NaN` row never hides the true neighbours. Every exact pass
//! (the f32 scan on both kernel tiers, the int8 first pass and the exact
//! re-rank LSH shares) selects its top k in one total order, where a NaN
//! distance ranks after every finite one. So an index with a NaN row at
//! row 0 answers every query exactly like the same index built without
//! that row, shifted by one id.

use er_core::rng::rng;
use er_core::{EmbeddingMatrix, KernelTier};
use er_index::{
    ExactIndex, HyperplaneLsh, LshConfig, Metric, Neighbor, NnIndex, Quantization, ScanConfig,
};
use rand::Rng;

const ROWS: usize = 40;
const DIM: usize = 8;

fn finite_rows(seed: u64) -> Vec<Vec<f32>> {
    let mut r = rng(seed);
    (0..ROWS)
        .map(|_| (0..DIM).map(|_| r.gen_range(-1.0..1.0)).collect())
        .collect()
}

fn matrix(rows: &[Vec<f32>]) -> EmbeddingMatrix {
    EmbeddingMatrix::from_flat(DIM, rows.concat()).unwrap()
}

/// `rows` with a row of `+NaN` in front of them.
fn with_nan_row(rows: &[Vec<f32>]) -> EmbeddingMatrix {
    let mut all = vec![vec![f32::NAN; DIM]];
    all.extend_from_slice(rows);
    matrix(&all)
}

/// Hits of the NaN-prefixed index, mapped back to positions in the finite
/// rows. A NaN hit maps to `usize::MAX`, so it can never equal a real hit.
fn shifted(hits: Vec<Neighbor>) -> Vec<(usize, u32)> {
    hits.into_iter()
        .map(|h| (h.index.wrapping_sub(1), h.distance.to_bits()))
        .collect()
}

fn bits(hits: Vec<Neighbor>) -> Vec<(usize, u32)> {
    hits.into_iter()
        .map(|h| (h.index, h.distance.to_bits()))
        .collect()
}

fn assert_nan_row_is_invisible(
    label: &str,
    build: impl Fn(EmbeddingMatrix) -> Box<dyn NnIndex + 'static>,
) {
    let rows = finite_rows(7);
    let plain = build(matrix(&rows));
    let poisoned = build(with_nan_row(&rows));
    for (q, query) in finite_rows(8).iter().enumerate() {
        for k in [1, 2, 5, 10] {
            let want = bits(plain.search_slice(query, k));
            assert_eq!(want.len(), k, "{label}: the plain index must fill k = {k}");
            let got = shifted(poisoned.search_slice(query, k));
            assert_eq!(got, want, "{label}: query {q}, k = {k}");
        }
    }
}

/// The exact index under `scan`, on both metrics.
fn assert_exact(label: &str, scan: ScanConfig) {
    for metric in [Metric::Euclidean, Metric::Cosine] {
        assert_nan_row_is_invisible(&format!("{label} {metric:?}"), |m| {
            Box::new(ExactIndex::from_source_scan(m, metric, scan).unwrap())
        });
    }
}

#[test]
fn a_nan_row_hides_no_neighbour_of_the_exact_scan_on_either_tier() {
    for tier in [KernelTier::Reference, KernelTier::Lanes] {
        assert_exact(&format!("exact {tier:?}"), ScanConfig::with_tier(tier));
    }
}

#[test]
fn a_nan_row_hides_no_neighbour_of_the_int8_scan() {
    // A re-rank budget above the row count makes the int8 pass exact, so
    // its answer must equal the plain index's bit for bit.
    let scan = ScanConfig {
        tier: KernelTier::Lanes,
        quant: Quantization::Int8 { rerank: 2 * ROWS },
    };
    assert_exact("exact Lanes + int8", scan);
}

#[test]
fn a_nan_row_hides_no_neighbour_of_the_lsh_rerank() {
    // Two planes per table make four buckets, so four probed tables gather
    // well over ten candidates per query: the plain index fills every k.
    let config = LshConfig {
        planes: 2,
        tables: 4,
        probes: 2,
        ..LshConfig::default()
    };
    assert_nan_row_is_invisible("LSH", |m| {
        Box::new(HyperplaneLsh::from_source(m, config.clone(), ScanConfig::default()).unwrap())
    });
}

#[test]
fn the_nearest_row_beats_a_nan_row_admitted_first() {
    // Rows (NaN,0) (1,0) (2,0) (3,0), query (1.9,0), k = 2: row 2 at
    // 0.01 and row 1 at 0.81, never the NaN row.
    let m =
        EmbeddingMatrix::from_flat(2, vec![f32::NAN, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0]).unwrap();
    for tier in [KernelTier::Reference, KernelTier::Lanes] {
        let index =
            ExactIndex::from_source_scan(&m, Metric::Euclidean, ScanConfig::with_tier(tier))
                .unwrap();
        let ids: Vec<usize> = index
            .search_slice(&[1.9, 0.0], 2)
            .iter()
            .map(|h| h.index)
            .collect();
        assert_eq!(ids, [2, 1], "{tier:?}");
        // Asked for every row, the NaN row comes last.
        let all = index.search_slice(&[1.9, 0.0], 4);
        assert_eq!(all[3].index, 0, "{tier:?}");
        assert!(all[3].distance.is_nan());
    }
}
