//! Quickstart: pre-train the model zoo (three statics + the BT
//! transformer), embed a pair of dirty duplicates with each model and
//! print the cosine similarities — the FastText-vs-GloVe typo contrast
//! of the paper's Fig. 3 in miniature —
//! then run the blocking stage: generate the D1 Clean-Clean analogue and
//! block it with each ANN backend, reporting pairs-completeness.
//!
//! Run with: `cargo run --release --example quickstart`

use embeddings4er::prelude::*;

fn main() {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::fast(), 42);
    println!(
        "pre-trained {:?} at scale {:?} (seed {})",
        ModelCode::ALL,
        zoo.scale(),
        zoo.seed()
    );

    let sentence = "golden palace grill 123 main street springfield";
    let sentence_typod = "goldn palace gril 123 main street springfeild";
    let word = "restaurant";
    let word_typod = "restaurnat";

    println!("\n  model        dim   init      cos(sentence, typo'd)  cos(word, typo'd)");
    for model in zoo.models() {
        let sent_cos = model.embed(sentence).cosine(&model.embed(sentence_typod));
        let word_cos = model.embed(word).cosine(&model.embed(word_typod));
        println!(
            "  {} {:<11} {:>3}  {:>8.1?}   {:.4}                 {:.4}",
            model.code(),
            format!("({})", model.code().full_name()),
            model.dim(),
            model.init_time(),
            sent_cos,
            word_cos
        );
    }
    println!("\nFastText embeds the typo'd word via its char-n-gram buckets;");
    println!("Word2Vec, GloVe and BERT (BT) — whose closed vocabulary has no");
    println!("subword fallback — drop every OOV token on the floor (cosine 0).");

    // Stage 2 — blocking. Generate the D1 restaurant analogue (known
    // ground truth), vectorize with FastText, and compare the exact scan
    // against both approximate indices at k = 10.
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let ft = zoo.get(ModelCode::FT);
    let cross = ds.id.profile().cross_product();
    println!(
        "\nblocking {} ({}x{} records, {} true matches, {} cross-product pairs):",
        ds.id,
        ds.left.len(),
        ds.right.len(),
        ds.ground_truth.len(),
        cross
    );
    println!("\n  backend           pairs-completeness   candidates  % of cross-product");
    let backends: [(&str, BlockerBackend); 3] = [
        ("exact (cosine)", BlockerBackend::Exact(Metric::Cosine)),
        (
            "hnsw (cosine)",
            BlockerBackend::Hnsw(HnswConfig {
                metric: Metric::Cosine,
                ..HnswConfig::default()
            }),
        ),
        (
            "hyperplane lsh",
            BlockerBackend::Lsh(LshConfig {
                tables: 16,
                probes: 4,
                ..LshConfig::default()
            }),
        ),
    ];
    let pipeline = Pipeline::new(ft.as_ref(), SerializationMode::SchemaAgnostic);
    for (name, backend) in backends {
        let config = OperatingPoint::new(10).backend(backend);
        let outcome = pipeline.block(&ds.left, &ds.right, &config);
        let metrics = Metrics::of_candidates(&outcome.candidates(), &ds.ground_truth);
        println!(
            "  {name:<17} {:.3}                {:>6}      {:>5.1}%",
            metrics.recall,
            outcome.scored.len(),
            100.0 * outcome.scored.len() as f64 / cross as f64
        );
    }
    println!("\nTop-10 blocking keeps pairs-completeness near 1 while pruning");
    println!("~90% of the cross-product — the paper's Fig. 3/12 trade-off.");

    // Stage 3 — unsupervised matching. Resolve end to end: exact-cosine
    // top-10 blocking, then Unique Mapping Clustering threshold-swept
    // over the paper's δ grid (Fig. 15) against the ground truth.
    let config = ResolveConfig {
        blocking: OperatingPoint::new(10).backend(BlockerBackend::Exact(Metric::Cosine)),
        ..ResolveConfig::default()
    };
    let outcome = pipeline.resolve(&ds.left, &ds.right, &ds.ground_truth, &config);
    let best = outcome.sweep.best().expect("paper grid is non-empty");
    println!(
        "\nmatching with UMC: best δ = {:.2} → {} matches, P {:.3} R {:.3} F1 {:.3}",
        outcome.best_delta,
        outcome.matches.len(),
        best.metrics.precision,
        best.metrics.recall,
        best.metrics.f1
    );
    println!("\nper-stage wall-clock (Pipeline::resolve):");
    println!("{}", outcome.report);
}
