//! A single source observation: one claim by one source about the value of one object.

use crate::ids::{ObjectId, SourceId, ValueId};

/// A claim `v_{o,s}`: source `s` asserts that object `o` has value `v` (Section 2 of the
/// paper). The set of all observations is the core input `Ω` of data fusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Observation {
    /// The claiming source.
    pub source: SourceId,
    /// The object the claim is about.
    pub object: ObjectId,
    /// The asserted value.
    pub value: ValueId,
}

impl Observation {
    /// Creates an observation from its three components.
    pub fn new(source: SourceId, object: ObjectId, value: ValueId) -> Self {
        Self {
            source,
            object,
            value,
        }
    }
}

/// A claim expressed with user-facing names rather than interned handles: the wire form
/// in which new observations arrive at a serving engine before interning.
///
/// Streaming scenarios deliver claims about sources and objects that may not exist yet
/// in the fitted dataset, so the delta-ingestion APIs accept names and intern them on
/// arrival (see `DatasetBuilder::observe`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NamedObservation {
    /// Name of the claiming source.
    pub source: String,
    /// Name of the object the claim is about.
    pub object: String,
    /// Name of the asserted value.
    pub value: String,
}

impl NamedObservation {
    /// Creates a named observation from its three components.
    pub fn new(
        source: impl Into<String>,
        object: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        Self {
            source: source.into(),
            object: object.into(),
            value: value.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_preserves_fields() {
        let obs = Observation::new(SourceId::new(1), ObjectId::new(2), ValueId::new(3));
        assert_eq!(obs.source.index(), 1);
        assert_eq!(obs.object.index(), 2);
        assert_eq!(obs.value.index(), 3);
    }

    #[test]
    fn observations_are_hashable_and_comparable() {
        use std::collections::HashSet;
        let a = Observation::new(SourceId::new(0), ObjectId::new(0), ValueId::new(0));
        let b = Observation::new(SourceId::new(0), ObjectId::new(0), ValueId::new(1));
        let set: HashSet<_> = [a, b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
