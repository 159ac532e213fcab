//! Hierarchical instance paths and their interner.
//!
//! Every cell in a [`FlatNetlist`](crate::FlatNetlist) carries the path of
//! module instances from the top module down to the module containing the
//! cell. The SSRESF clustering distance (paper Eq. 1) compares these paths
//! layer by layer, so paths are stored as interned segment sequences that
//! are cheap to compare.

use std::collections::HashMap;

/// Interned identifier of a hierarchical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(pub(crate) u32);

impl PathId {
    /// Raw index into the owning [`PathInterner`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A hierarchical instance path: the sequence of instance names from the top
/// module (exclusive) down to the containing module.
///
/// The top-level module itself is represented by the empty path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct HierPath {
    segments: Vec<String>,
}

impl HierPath {
    /// The empty path (a cell directly inside the top module).
    pub fn root() -> Self {
        HierPath::default()
    }

    /// Builds a path from instance-name segments.
    pub fn from_segments<I, S>(segments: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        HierPath {
            segments: segments.into_iter().map(Into::into).collect(),
        }
    }

    /// Segments of the path, outermost first.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// Hierarchy depth (number of instance levels below the top module).
    pub fn depth(&self) -> usize {
        self.segments.len()
    }

    /// Returns a new path with `segment` appended.
    pub fn child(&self, segment: &str) -> Self {
        let mut segments = self.segments.clone();
        segments.push(segment.to_owned());
        HierPath { segments }
    }

    /// The segment at 1-based layer `layer`, or `None` past the path's depth.
    ///
    /// Layer 1 is the instance directly inside the top module. This is the
    /// `Module(A, Li)` accessor used by the Eq.-1 clustering distance.
    pub fn layer(&self, layer: usize) -> Option<&str> {
        if layer == 0 {
            return None;
        }
        self.segments.get(layer - 1).map(String::as_str)
    }

    /// Joins the segments with `.`, the conventional hierarchical separator.
    pub fn dotted(&self) -> String {
        self.segments.join(".")
    }

    /// Joins the path and a leaf name with `.`; just the leaf for root paths.
    pub fn join(&self, leaf: &str) -> String {
        if self.segments.is_empty() {
            leaf.to_owned()
        } else {
            format!("{}.{leaf}", self.dotted())
        }
    }
}

impl std::fmt::Display for HierPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.dotted())
    }
}

/// Deduplicating store of [`HierPath`]s.
///
/// Flattening a netlist produces one path per module instance but thousands
/// of cells per instance; interning lets every cell store a 4-byte [`PathId`].
#[derive(Debug, Clone, Default)]
pub struct PathInterner {
    paths: Vec<HierPath>,
    lookup: HashMap<HierPath, PathId>,
}

impl PathInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        PathInterner::default()
    }

    /// Interns `path`, returning its stable identifier.
    pub fn intern(&mut self, path: HierPath) -> PathId {
        if let Some(&id) = self.lookup.get(&path) {
            return id;
        }
        let id = PathId(u32::try_from(self.paths.len()).expect("more than u32::MAX paths"));
        self.lookup.insert(path.clone(), id);
        self.paths.push(path);
        id
    }

    /// Looks up an already-interned path without interning it.
    pub fn find(&self, path: &HierPath) -> Option<PathId> {
        self.lookup.get(path).copied()
    }

    /// Resolves an identifier back to its path.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this interner.
    pub fn resolve(&self, id: PathId) -> &HierPath {
        &self.paths[id.index()]
    }

    /// Number of distinct paths interned.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether no path has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Iterates over `(id, path)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, &HierPath)> {
        self.paths
            .iter()
            .enumerate()
            .map(|(i, p)| (PathId(i as u32), p))
    }

    /// Encodes every interned path as a fixed-width layer signature of
    /// interned segment ids (see [`LayerSignatures`]).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn layer_signatures(&self, depth: usize) -> LayerSignatures {
        assert!(depth > 0, "signature depth must be at least 1");
        let mut segment_ids: HashMap<&str, u32> = HashMap::new();
        let mut sigs = Vec::with_capacity(self.paths.len() * depth);
        for path in &self.paths {
            for layer in 1..=depth {
                let id = match path.layer(layer) {
                    Some(segment) => {
                        let next = segment_ids.len() as u32;
                        assert!(next < ABSENT_LAYER, "more than u32::MAX - 1 segment names");
                        *segment_ids.entry(segment).or_insert(next)
                    }
                    None => ABSENT_LAYER,
                };
                sigs.push(id);
            }
        }
        LayerSignatures { depth, sigs }
    }
}

/// Signature id marking a layer past the end of a path.
///
/// Real segment ids are interned densely from 0, so `u32::MAX` can never
/// collide with one.
pub const ABSENT_LAYER: u32 = u32::MAX;

/// Fixed-width integer encodings of every path in a [`PathInterner`].
///
/// Path `p`'s signature is `depth` interned segment ids: slot `l` (0-based)
/// holds a global id for `p.layer(l + 1)`, or [`ABSENT_LAYER`] when the path
/// is shallower. Segment ids are interned across the whole interner, so for
/// any two paths `a`, `b` and any slot `l < depth`:
///
/// `sig(a)[l] == sig(b)[l]  ⟺  a.layer(l + 1) == b.layer(l + 1)`
///
/// This turns the paper's Eq.-1 layer-by-layer string comparison into a few
/// integer compares, and makes the signature itself a dedup key: two paths
/// share a signature exactly when they agree on the first `depth` layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSignatures {
    depth: usize,
    sigs: Vec<u32>,
}

impl LayerSignatures {
    /// Signature width (the clustering `LN`).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of encoded paths.
    pub fn len(&self) -> usize {
        self.sigs.len() / self.depth
    }

    /// Whether no path was encoded.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// The signature slice for one path.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from the interner this was built from.
    pub fn of(&self, id: PathId) -> &[u32] {
        let start = id.index() * self.depth;
        &self.sigs[start..start + self.depth]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_path_is_empty_and_displays_empty() {
        let root = HierPath::root();
        assert_eq!(root.depth(), 0);
        assert_eq!(root.to_string(), "");
        assert_eq!(root.join("u1"), "u1");
    }

    #[test]
    fn child_appends_segment() {
        let p = HierPath::root().child("cpu").child("alu");
        assert_eq!(p.depth(), 2);
        assert_eq!(p.dotted(), "cpu.alu");
        assert_eq!(p.join("u_nand"), "cpu.alu.u_nand");
    }

    #[test]
    fn layer_is_one_based() {
        let p = HierPath::from_segments(["cpu", "alu", "adder"]);
        assert_eq!(p.layer(0), None);
        assert_eq!(p.layer(1), Some("cpu"));
        assert_eq!(p.layer(3), Some("adder"));
        assert_eq!(p.layer(4), None);
    }

    #[test]
    fn interner_deduplicates() {
        let mut interner = PathInterner::new();
        let a = interner.intern(HierPath::from_segments(["cpu"]));
        let b = interner.intern(HierPath::from_segments(["bus"]));
        let a2 = interner.intern(HierPath::from_segments(["cpu"]));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.resolve(a).dotted(), "cpu");
    }

    #[test]
    fn signature_equality_matches_layer_comparison() {
        let mut interner = PathInterner::new();
        let paths = [
            HierPath::root(),
            HierPath::from_segments(["cpu"]),
            HierPath::from_segments(["cpu", "alu"]),
            HierPath::from_segments(["cpu", "alu", "adder"]),
            HierPath::from_segments(["cpu", "lsu"]),
            HierPath::from_segments(["bus", "alu"]),
        ];
        let ids: Vec<PathId> = paths.iter().map(|p| interner.intern(p.clone())).collect();
        for depth in [1usize, 2, 3, 5] {
            let sigs = interner.layer_signatures(depth);
            assert_eq!(sigs.depth(), depth);
            assert_eq!(sigs.len(), paths.len());
            for (a, &ia) in paths.iter().zip(&ids) {
                for (b, &ib) in paths.iter().zip(&ids) {
                    for slot in 0..depth {
                        assert_eq!(
                            sigs.of(ia)[slot] == sigs.of(ib)[slot],
                            a.layer(slot + 1) == b.layer(slot + 1),
                            "depth {depth}, slot {slot}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn signatures_mark_absent_layers() {
        let mut interner = PathInterner::new();
        let shallow = interner.intern(HierPath::from_segments(["cpu"]));
        let deep = interner.intern(HierPath::from_segments(["cpu", "alu"]));
        let sigs = interner.layer_signatures(3);
        assert_eq!(sigs.of(shallow)[0], sigs.of(deep)[0]);
        assert_eq!(sigs.of(shallow)[1], ABSENT_LAYER);
        assert_ne!(sigs.of(deep)[1], ABSENT_LAYER);
        assert_eq!(sigs.of(shallow)[2], ABSENT_LAYER);
        assert_eq!(sigs.of(deep)[2], ABSENT_LAYER);
    }

    #[test]
    #[should_panic(expected = "signature depth")]
    fn zero_depth_signatures_panic() {
        PathInterner::new().layer_signatures(0);
    }
}
