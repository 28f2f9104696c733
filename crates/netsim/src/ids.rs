//! Strongly typed identifiers for simulation entities, and the hash maps keyed by them.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a node (host or switch) in the simulated network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a unidirectional link. Links are always created in duplex pairs;
/// [`crate::network::Network::reverse`] maps a link to its opposite direction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// Identifier of a flow (or of an M-PDQ subflow, which is scheduled as its own flow).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Identifier of a coflow: a group of flows with collective completion semantics (the
/// coflow finishes when its *last* member does).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoflowId(pub u64);

/// Hasher for maps keyed by a [`FlowId`]: one multiply-xorshift round over the `u64`
/// instead of SipHash.
///
/// Flow ids are assigned inside the process — by workload generators and by
/// [`Action::SpawnFlow`](crate::Action::SpawnFlow) — and never parsed from input, so
/// there is no adversary to defend the table against. The round still mixes fully:
/// the table takes its bucket from the low bits and its control byte from the top
/// seven, and both must spread for dense ids (`0..n`), strided ones and ids that
/// differ only in their high bits (M-PDQ subflows start at `1 << 48`).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn round(x: u64) -> u64 {
        // Fold the high half down before the multiply (which only carries upwards) and
        // the well-mixed high half down after it.
        let x = (x ^ (x >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^ (x >> 32)
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = Self::round(self.0 ^ v);
    }

    /// Keys that are not a single `u64` (nothing in this workspace) still hash
    /// correctly, a byte at a time.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by [`FlowId`] using the cheap [`IdHasher`]; build one with
/// `FlowMap::default()`.
pub type FlowMap<V> = HashMap<FlowId, V, BuildHasherDefault<IdHasher>>;

/// A hash set of [`FlowId`]s using the cheap [`IdHasher`]; build one with
/// `FlowSet::default()`.
pub type FlowSet = HashSet<FlowId, BuildHasherDefault<IdHasher>>;

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl LinkId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl FlowId {
    /// The raw value.
    pub fn value(self) -> u64 {
        self.0
    }
}
impl CoflowId {
    /// The raw value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}
impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}
impl fmt::Debug for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}
impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}
impl fmt::Debug for CoflowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}
impl fmt::Display for CoflowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
        assert_eq!(format!("{:?}", LinkId(7)), "l7");
        assert_eq!(format!("{:?}", FlowId(42)), "f42");
        assert_eq!(format!("{:?}", CoflowId(5)), "c5");
    }

    /// The two slices of a hash a `hashbrown` table uses: the low bits pick the bucket,
    /// the top seven are the control byte compared within a probe group.
    fn spread(ids: impl Iterator<Item = u64>) -> (usize, usize) {
        use std::hash::{BuildHasher, Hash};
        let build = BuildHasherDefault::<IdHasher>::default();
        let (mut low, mut top) = (HashSet::new(), HashSet::new());
        for id in ids {
            let mut h = build.build_hasher();
            FlowId(id).hash(&mut h);
            low.insert(h.finish() & 127);
            top.insert(h.finish() >> 57);
        }
        (low.len(), top.len())
    }

    /// No id shape this workspace produces degenerates a `FlowMap`'s bucket chains:
    /// 1 000 keys land in at least 100 of the 128 low-7-bit groups and of the 128
    /// control bytes. (An identity hash fails the last two shapes outright.)
    #[test]
    fn id_hasher_spreads_dense_strided_and_high_bit_ids() {
        let check = |name: &str, id: fn(u64) -> u64| {
            let (low, top) = spread((0..1000).map(id));
            assert!(low >= 100, "{name}: {low} of 128 bucket groups used");
            assert!(top >= 100, "{name}: {top} of 128 control bytes used");
        };
        check("dense", |i| i);
        // The sparse id map of `tests/properties.rs`.
        check("sparse", |i| 1 + i * 9_973 + (i % 3) * 17);
        // The M-PDQ subflow base: only bits 48 and up differ.
        check("high bits", |i| i << 48);
        check("strided", |i| i * 4096);
    }

    /// A key that is not one `u64` takes the byte loop instead of panicking, and
    /// distinct keys still hash apart.
    #[test]
    fn id_hasher_falls_back_to_bytes_for_other_keys() {
        use std::hash::Hash;
        let hash = |key: &str| {
            let mut h = IdHasher::default();
            key.hash(&mut h);
            h.finish()
        };
        assert_ne!(hash("flow-1"), hash("flow-2"));
        let mut set: HashSet<(u32, u8), BuildHasherDefault<IdHasher>> = HashSet::default();
        assert!(set.insert((7, 1)) && set.insert((7, 2)) && !set.insert((7, 1)));
    }

    #[test]
    fn ordering() {
        assert!(FlowId(1) < FlowId(2));
        assert!(NodeId(0) < NodeId(1));
    }
}
