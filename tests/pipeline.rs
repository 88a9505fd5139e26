//! Cross-crate integration: the Figure-1 pipeline front half — serialize
//! entities, embed them with a pre-trained zoo model, index the right side
//! and retrieve the matching record for a noisy query.

use embeddings4er::prelude::*;

fn restaurant(id: u32, name: &str, street: &str) -> Entity {
    Entity::new(
        EntityId(id),
        vec![
            ("name".into(), name.into()),
            ("street".into(), street.into()),
        ],
    )
}

#[test]
fn noisy_duplicate_retrieves_its_clean_record() {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);

    let right = vec![
        restaurant(0, "golden palace grill", "123 main street"),
        restaurant(1, "ocean breeze sushi", "77 harbor road"),
        restaurant(2, "casa verde tacos", "9 elm avenue"),
    ];
    let vectors = vectorize_matrix(model.as_ref(), &right, &SerializationMode::SchemaAgnostic);
    let index = ExactIndex::from_matrix(&vectors, Metric::Euclidean);

    // The left record is a typo'd duplicate of right#0; FastText's subword
    // buckets must still place it nearest its clean counterpart.
    let query = restaurant(100, "goldn palace gril", "123 main street");
    let q = model.embed(&query.serialize(&SerializationMode::SchemaAgnostic));
    let hits = index.search_slice(q.as_slice(), 1);
    assert_eq!(hits.len(), 1);
    assert_eq!(
        hits[0].index, 0,
        "nearest neighbour should be the clean duplicate"
    );
}

#[test]
fn schema_based_serialization_narrows_the_text() {
    let e = restaurant(0, "golden palace grill", "123 main street");
    let agnostic = e.serialize(&SerializationMode::SchemaAgnostic);
    let based = e.serialize(&SerializationMode::SchemaBased("name".into()));
    assert!(agnostic.contains("main street"));
    assert_eq!(based, "golden palace grill");

    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    for m in zoo.models() {
        assert_eq!(m.embed(&agnostic).dim(), m.dim());
        assert_eq!(m.embed(&based).dim(), m.dim());
    }
}
