//! Dense integer identifiers for the entities of a fusion instance and a string interner
//! that maps user-facing names to those identifiers.
//!
//! Every index-like type is a newtype over `u32` so that the compiler prevents mixing, e.g.,
//! a source handle with an object handle. All downstream crates store per-entity state in
//! flat `Vec`s indexed by these handles, which keeps the hot loops (Gibbs sweeps, SGD
//! epochs, EM iterations) allocation-free and cache friendly.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::marker::PhantomData;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// Creates a handle from a dense index.
            #[inline]
            pub fn new(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize, "index overflows u32");
                Self(index as u32)
            }

            /// Returns the handle as a `usize` suitable for indexing flat vectors.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(index: usize) -> Self {
                Self::new(index)
            }
        }
    };
}

define_id!(
    /// Handle of a data source (an article, web domain, crowd worker, ...).
    SourceId,
    "s"
);
define_id!(
    /// Handle of an object (a gene–disease pair, a stock-day, a tweet, ...).
    ObjectId,
    "o"
);
define_id!(
    /// Handle of a categorical value that a source may assign to an object.
    ValueId,
    "v"
);
define_id!(
    /// Handle of a domain-specific feature describing a source (Section 3.1).
    FeatureId,
    "f"
);

/// A string interner mapping entity names to dense handles.
///
/// The interner is generic over the handle type so the same implementation backs source,
/// object, value, and feature vocabularies. Handles are assigned in first-seen order.
///
/// # Layout
///
/// Each vocabulary is one flat arena of three buffers:
///
/// * `bytes`: every name's UTF-8, concatenated in handle order;
/// * `offsets`: `offsets[h]..offsets[h + 1]` delimits name `h` in `bytes`;
/// * `table`: an open-addressing (linear probing) hash table of `u32` handles, at most
///   half full. A probe compares the candidate handle's name in place in `bytes`.
///
/// Each name lives in memory once, and a clone copies the three buffers with no
/// allocation per name. That clone is part of every serving publish, refit capture,
/// checkpoint and cold start, because each of them copies a whole dataset.
///
/// Names are hashed with std's keyed `RandomState` (SipHash under per-process random
/// keys). Claim feeds are third-party input, and an unkeyed hash would let a feed pick
/// names that pile onto one probe chain. Handles never depend on the hash, so every
/// output stays deterministic.
///
/// Offsets and handles are `u32`: [`Interner::intern`] panics rather than wrap once a
/// vocabulary passes 4 GiB of name bytes or `u32::MAX` names.
///
/// ```
/// use slimfast_data::{Interner, SourceId};
///
/// let mut sources: Interner<SourceId> = Interner::new();
/// let a = sources.intern("pubmed-18358451");
/// let b = sources.intern("pubmed-19279319");
/// assert_ne!(a, b);
/// assert_eq!(sources.intern("pubmed-18358451"), a);
/// assert_eq!(sources.name(a), Some("pubmed-18358451"));
/// assert_eq!(sources.len(), 2);
/// ```
#[derive(Clone)]
pub struct Interner<Id> {
    bytes: String,
    offsets: Vec<u32>,
    table: Vec<u32>,
    hasher: RandomState,
    _marker: PhantomData<Id>,
}

/// Marks an empty slot of an [`Interner`] table; never a handle.
const EMPTY: u32 = u32::MAX;
/// Table size of an interner's first allocation.
const MIN_SLOTS: usize = 8;

/// First empty slot on `hash`'s probe sequence. `table` is a power of two in length and
/// never full.
fn vacant_slot(table: &[u32], hash: u64) -> usize {
    let mask = table.len() - 1;
    let mut slot = hash as usize & mask;
    while table[slot] != EMPTY {
        slot = (slot + 1) & mask;
    }
    slot
}

impl<Id> Default for Interner<Id> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Id> fmt::Debug for Interner<Id> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|h| self.name_at(h)))
            .finish()
    }
}

impl<Id> Interner<Id> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self {
            bytes: String::new(),
            offsets: vec![0],
            table: Vec::new(),
            hasher: RandomState::new(),
            _marker: PhantomData,
        }
    }

    /// Creates an empty interner with room for `n` names before its table grows.
    pub fn with_capacity(n: usize) -> Self {
        let mut interner = Self::new();
        interner.offsets.reserve(n);
        if n > 0 {
            interner.rehash((2 * n).next_power_of_two().max(MIN_SLOTS));
        }
        interner
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes of the arena, the offsets and the table.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.bytes.len() + (self.offsets.len() + self.table.len()) * std::mem::size_of::<u32>()
    }

    fn name_at(&self, handle: usize) -> &str {
        &self.bytes[self.offsets[handle] as usize..self.offsets[handle + 1] as usize]
    }

    /// Handle of `name`, if interned.
    fn find(&self, name: &str, hash: u64) -> Option<u32> {
        let mask = self.table.len().checked_sub(1)?;
        let mut slot = hash as usize & mask;
        loop {
            match self.table[slot] {
                EMPTY => return None,
                handle if self.name_at(handle as usize) == name => return Some(handle),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Rebuilds the table with `slots` slots (a power of two above twice the length).
    fn rehash(&mut self, slots: usize) {
        let mut table = vec![EMPTY; slots];
        for handle in 0..self.len() {
            let slot = vacant_slot(&table, self.hasher.hash_one(self.name_at(handle)));
            table[slot] = handle as u32;
        }
        self.table = table;
    }
}

impl<Id> Interner<Id>
where
    Id: From<usize> + Copy,
    Id: IdLike,
{
    /// Interns `name`, returning the existing handle if it was seen before.
    ///
    /// # Panics
    ///
    /// When a new name would take the vocabulary past 4 GiB of name bytes or
    /// `u32::MAX` names.
    pub fn intern(&mut self, name: &str) -> Id {
        self.try_intern(name)
            .expect("interner overflow: over 4 GiB of names or u32::MAX handles")
    }

    /// [`Interner::intern`], returning `None` instead of panicking on overflow.
    pub(crate) fn try_intern(&mut self, name: &str) -> Option<Id> {
        let hash = self.hasher.hash_one(name);
        if let Some(handle) = self.find(name, hash) {
            return Some(Id::from(handle as usize));
        }
        let handle = u32::try_from(self.len()).ok().filter(|&h| h != EMPTY)?;
        let end = u32::try_from(self.bytes.len() + name.len()).ok()?;
        if 2 * self.offsets.len() > self.table.len() {
            self.rehash((2 * self.table.len()).max(MIN_SLOTS));
        }
        let slot = vacant_slot(&self.table, hash);
        self.table[slot] = handle;
        self.bytes.push_str(name);
        self.offsets.push(end);
        Some(Id::from(handle as usize))
    }

    /// Returns the handle for `name` if it has been interned.
    pub fn get(&self, name: &str) -> Option<Id> {
        self.find(name, self.hasher.hash_one(name))
            .map(|handle| Id::from(handle as usize))
    }

    /// Returns the name behind `id`, if the handle is in range.
    pub fn name(&self, id: Id) -> Option<&str> {
        let handle = id.raw_index();
        (handle < self.len()).then(|| self.name_at(handle))
    }

    /// Iterates over `(handle, name)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, &str)> + '_ {
        (0..self.len()).map(|h| (Id::from(h), self.name_at(h)))
    }
}

/// Helper trait giving [`Interner`] access to the underlying index of a handle.
pub trait IdLike {
    /// Dense index wrapped by the handle.
    fn raw_index(&self) -> usize;
}

macro_rules! impl_idlike {
    ($($name:ident),*) => {
        $(impl IdLike for $name {
            #[inline]
            fn raw_index(&self) -> usize {
                self.0 as usize
            }
        })*
    };
}

impl_idlike!(SourceId, ObjectId, ValueId, FeatureId);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_usize() {
        let s = SourceId::new(42);
        assert_eq!(s.index(), 42);
        assert_eq!(SourceId::from(42usize), s);
        assert_eq!(format!("{s}"), "s42");
    }

    #[test]
    fn distinct_id_types_do_not_compare() {
        // Compile-time property: SourceId and ObjectId are distinct types. We only check
        // their formatting prefixes differ at runtime.
        assert_ne!(
            format!("{}", SourceId::new(1)),
            format!("{}", ObjectId::new(1))
        );
    }

    #[test]
    fn interner_deduplicates() {
        let mut values: Interner<ValueId> = Interner::new();
        let t = values.intern("true");
        let f = values.intern("false");
        assert_eq!(values.intern("true"), t);
        assert_eq!(values.intern("false"), f);
        assert_eq!(values.len(), 2);
        assert_eq!(values.name(t), Some("true"));
        assert_eq!(values.get("false"), Some(f));
        assert_eq!(values.get("maybe"), None);
    }

    #[test]
    fn interner_iterates_in_insertion_order() {
        let mut objects: Interner<ObjectId> = Interner::new();
        for name in ["a", "b", "c"] {
            objects.intern(name);
        }
        let collected: Vec<_> = objects
            .iter()
            .map(|(id, n)| (id.index(), n.to_owned()))
            .collect();
        assert_eq!(
            collected,
            vec![
                (0, "a".to_owned()),
                (1, "b".to_owned()),
                (2, "c".to_owned())
            ]
        );
    }

    #[test]
    fn empty_interner_reports_empty() {
        let interner: Interner<FeatureId> = Interner::new();
        assert!(interner.is_empty());
        assert_eq!(interner.len(), 0);
        assert_eq!(interner.name(FeatureId::new(0)), None);
    }
}
