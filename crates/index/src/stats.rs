//! Tree shape statistics — reported by the index-build experiments (E4/E9
//! in DESIGN.md) and useful when eyeballing fill factors.

use crate::cow::ApproxBytes;
use crate::rtree::{NodeKind, RTree};

/// Aggregate shape statistics of one R-tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeStats {
    /// Total reachable nodes.
    pub nodes: usize,
    /// Leaf nodes.
    pub leaves: usize,
    /// Tree height in levels.
    pub height: usize,
    /// Indexed objects.
    pub objects: usize,
    /// Mean leaf fill ratio (entries / max_entries).
    pub avg_leaf_fill: f64,
    /// Mean internal fill ratio.
    pub avg_internal_fill: f64,
    /// Estimated resident bytes of the reachable tree structure: node
    /// frames, entry vectors, and keyword-count heap payloads
    /// ([`crate::KcAug::heap_bytes`]). Excludes the shared corpus — this
    /// is the *index* overhead the per-shard `/stats` counters report, the
    /// number that halves when a redundant global tree is dropped.
    pub bytes: usize,
    /// Chunks in the node arena's spine (see
    /// [`crate::rtree::NODE_CHUNK_SIZE`]). Chunks may be physically
    /// shared with other epochs' trees — this counts spine positions, not
    /// exclusive ownership.
    pub chunks: usize,
    /// Approximate resident bytes of the whole node slab, freed slots
    /// included (their payload is retained until reuse). `arena_bytes ≥
    /// bytes`; the gap is slack from freed slots awaiting reuse. Shared
    /// chunks are counted in full here — divide by the number of epochs
    /// holding them for amortized cost.
    pub arena_bytes: usize,
}

impl RTree {
    /// Computes shape statistics by walking the tree.
    pub fn stats(&self) -> TreeStats {
        let _guard = self.read_guard();
        let mut nodes = 0usize;
        let mut leaves = 0usize;
        let mut leaf_entries = 0usize;
        let mut internal_entries = 0usize;
        let mut bytes = 0usize;
        for (id, _) in self.walk() {
            nodes += 1;
            let node = self.node(id);
            match &node.kind {
                NodeKind::Leaf(e) => {
                    leaves += 1;
                    leaf_entries += e.len();
                }
                NodeKind::Internal(c) => internal_entries += c.len(),
            }
            bytes += node.approx_bytes();
        }
        let max = self.params().max_entries as f64;
        let internals = nodes - leaves;
        TreeStats {
            nodes,
            leaves,
            height: self.height(),
            objects: self.len(),
            avg_leaf_fill: if leaves > 0 {
                leaf_entries as f64 / (leaves as f64 * max)
            } else {
                0.0
            },
            avg_internal_fill: if internals > 0 {
                internal_entries as f64 / (internals as f64 * max)
            } else {
                0.0
            },
            bytes,
            chunks: self.arena_chunk_count(),
            arena_bytes: self.arena_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;
    use crate::rtree::RTreeParams;
    use yask_geo::Point;
    use yask_text::KeywordSet;

    fn corpus(n: usize) -> crate::corpus::Corpus {
        corpus_with_docs(n, |i| KeywordSet::from_raw([i as u32 % 5]))
    }

    fn corpus_with_docs(n: usize, doc: impl Fn(usize) -> KeywordSet) -> crate::corpus::Corpus {
        let mut b = CorpusBuilder::new();
        for i in 0..n {
            b.push(
                Point::new((i % 17) as f64, (i / 17) as f64),
                doc(i),
                format!("o{i}"),
            );
        }
        b.build()
    }

    #[test]
    fn empty_tree_stats() {
        let t = RTree::new(corpus(0), RTreeParams::default());
        let s = t.stats();
        assert_eq!(s.nodes, 0);
        assert_eq!(s.objects, 0);
        assert_eq!(s.avg_leaf_fill, 0.0);
    }

    #[test]
    fn bulk_loaded_tree_is_well_filled() {
        let t = RTree::bulk_load(corpus(500), RTreeParams::new(16, 6));
        let s = t.stats();
        assert_eq!(s.objects, 500);
        assert!(s.leaves >= 500 / 16);
        assert!(s.avg_leaf_fill > 0.8, "fill = {}", s.avg_leaf_fill);
        assert_eq!(s.height, t.height());
        assert!(s.nodes > s.leaves);
        // At minimum every entry and node frame is accounted for.
        assert!(s.bytes >= s.nodes * std::mem::size_of::<crate::rtree::Node>() + 4 * 500);
        // The arena holds every reachable node (and possibly freed slack).
        assert!(s.chunks >= 1);
        assert!(s.arena_bytes >= s.bytes, "{} < {}", s.arena_bytes, s.bytes);
    }

    #[test]
    fn keyword_counts_report_more_bytes_than_empty_docs() {
        let plain = RTree::bulk_load(
            corpus_with_docs(400, |_| KeywordSet::empty()),
            RTreeParams::new(16, 6),
        );
        let kc = RTree::bulk_load(corpus(400), RTreeParams::new(16, 6));
        // Same topology, but only the second tree's nodes carry counts.
        assert_eq!(plain.stats().nodes, kc.stats().nodes);
        assert!(
            kc.stats().bytes > plain.stats().bytes,
            "kc {} !> plain {}",
            kc.stats().bytes,
            plain.stats().bytes
        );
    }
}
