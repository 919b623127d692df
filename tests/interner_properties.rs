//! Property tests for the name interner (`slimfast::data::Interner`) against a
//! reference model: a `HashMap<String, usize>` that hands out handles in first-seen
//! order. Name streams mix the empty name, multi-byte UTF-8, names that are prefixes of
//! each other and names longer than 8 bytes, and grow to ~1,500 distinct names, so the
//! interner's table resizes many times. A clone must answer like its original and stay
//! independent of it, and a snapshot round trip must keep every handle.

use std::collections::HashMap;

use proptest::prelude::*;

use slimfast::data::{
    dataset_from_bytes, dataset_to_bytes, features_from_bytes, features_to_bytes, Interner,
};
use slimfast::prelude::*;

/// Distinct names in the pool a stream draws from.
const POOL: usize = 1_500;

/// The name pool: the tricky shapes first, then long generated names.
fn pool() -> Vec<String> {
    let mut names: Vec<String> = ["", "ü", "日本語", "🦀", "naïve-søurce", "a\u{0}b"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    // A prefix chain: each name is a prefix of the next, across the 8-byte mark.
    names.extend((1..=20).map(|n| "abcdefghijklmnopqrstuvwxyz"[..n].to_string()));
    let mut i = 0;
    while names.len() < POOL {
        names.push(format!("object-name-{i}"));
        i += 1;
    }
    names
}

/// Streams of pool indices, drawn from a pool prefix of random size so that short
/// prefixes repeat the tricky names often.
fn stream_strategy() -> impl Strategy<Value = Vec<usize>> {
    (1usize..=POOL).prop_flat_map(|prefix| proptest::collection::vec(0..prefix, 0..3_000))
}

/// The reference: first-seen handles and the names in handle order.
#[derive(Default, Clone)]
struct Model {
    handles: HashMap<String, usize>,
    names: Vec<String>,
}

impl Model {
    fn intern(&mut self, name: &str) -> usize {
        if let Some(&handle) = self.handles.get(name) {
            return handle;
        }
        self.handles.insert(name.to_string(), self.names.len());
        self.names.push(name.to_string());
        self.names.len() - 1
    }
}

/// Checks that `interner` answers every query like `model`, for every pool name.
fn assert_agrees(interner: &Interner<ObjectId>, model: &Model, pool: &[String]) {
    assert_eq!(interner.len(), model.names.len());
    assert_eq!(interner.is_empty(), model.names.is_empty());
    for name in pool {
        assert_eq!(
            interner.get(name).map(ObjectId::index),
            model.handles.get(name).copied(),
            "get({name:?})"
        );
    }
    for (handle, name) in model.names.iter().enumerate() {
        assert_eq!(interner.name(ObjectId::new(handle)), Some(name.as_str()));
    }
    assert_eq!(interner.name(ObjectId::new(model.names.len())), None);
    let iterated: Vec<(usize, &str)> = interner.iter().map(|(id, n)| (id.index(), n)).collect();
    let expected: Vec<(usize, &str)> = model.names.iter().map(String::as_str).enumerate().collect();
    assert_eq!(iterated, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interner_matches_a_first_seen_reference(stream in stream_strategy()) {
        let pool = pool();
        let mut interner: Interner<ObjectId> = Interner::new();
        let mut model = Model::default();
        for &i in &stream {
            prop_assert_eq!(interner.intern(&pool[i]).index(), model.intern(&pool[i]));
        }
        assert_agrees(&interner, &model, &pool);

        // A clone answers identically; interning into it leaves the original alone.
        let mut copy = interner.clone();
        assert_agrees(&copy, &model, &pool);
        let mut grown = model.clone();
        for name in pool.iter().rev().take(700) {
            prop_assert_eq!(copy.intern(name).index(), grown.intern(name));
        }
        let fresh = "a name only the clone has";
        prop_assert_eq!(copy.intern(fresh).index(), grown.intern(fresh));
        assert_agrees(&copy, &grown, &pool);
        assert_agrees(&interner, &model, &pool);
        prop_assert_eq!(interner.get(fresh), None);
    }

    #[test]
    fn snapshot_round_trips_keep_every_handle(stream in stream_strategy()) {
        let pool = pool();
        // Each name names a source, an object and a value, so all three dictionaries of
        // the dataset container and the feature dictionary carry the stream.
        let mut builder = DatasetBuilder::new();
        let mut features = FeatureMatrixBuilder::new();
        for &i in &stream {
            let name = &pool[i];
            builder.observe(name, name, name).unwrap();
            features.set_flag(SourceId::new(0), name);
        }
        let dataset = builder.build();
        let back = dataset_from_bytes(&dataset_to_bytes(&dataset).unwrap()).unwrap();
        for name in &pool {
            prop_assert_eq!(back.source_id(name), dataset.source_id(name));
            prop_assert_eq!(back.object_id(name), dataset.object_id(name));
            prop_assert_eq!(back.value_id(name), dataset.value_id(name));
        }
        prop_assert!(back.same_content(&dataset));

        let features = features.build(1);
        let back = features_from_bytes(&features_to_bytes(&features)).unwrap();
        prop_assert!(back.feature_names().eq(features.feature_names()));
        for name in &pool {
            prop_assert_eq!(back.feature_id(name), features.feature_id(name));
        }
    }
}
