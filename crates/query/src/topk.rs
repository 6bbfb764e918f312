//! The spatial keyword top-k of paper §3.3, served as an exact hybrid of
//! a posting-list pass and a keyword-free k-NN, and the workspace's only
//! best-first search loop.
//!
//! The paper descends the KcR-tree under a node bound that adds a
//! keyword bound to a distance bound. Measured on 50 000 objects, that
//! bound hardly prunes: a query scored about 13 600 objects, and at
//! least 74 % of them shared no query keyword. The served search splits
//! the query instead — the keyword-first end of QDR-Tree's keyword-first
//! vs space-first trade-off (PAPERS.md) — into two exact candidate sets:
//!
//! * (i) [`topk_postings`]: every live object on a posting list of
//!   `q.doc` ([`yask_index::Corpus::posting`]), scored by
//!   [`ScoreParams::score`], the best `k` kept;
//! * (ii) [`knn_bounded`]: the `k` spatially nearest objects, found by
//!   [`topk_tree_bounded`] run with no keywords under the distance-only
//!   node bound [`ScoreParams::spatial_upper`]. Its object score
//!   `ws·a + wt·0` is bit-equal to the true score of an object that
//!   shares no query keyword.
//!
//! [`merge_hybrid`] merges them by id (an object in both keeps (i)'s
//! score) under the workspace order and keeps `k`. **Why exact:** take
//! an object outside both sets. It shares no query keyword, so its score
//! is its `ws·a`. Every one of the `k` objects of (ii) scores at least
//! its own `ws·a`, which is no lower, and an equal score goes to the
//! smaller id exactly as in the k-NN order — so `k` objects rank before
//! it. In the sharded executor (i) runs first and seeds the
//! [`SharedBound`] with its k-th score ([`postings_bound`]): every
//! shard's (ii) then prunes on distance alone, often at its root, and
//! what it prunes scores strictly below `k` known objects.
//!
//! [`topk_tree_bounded`] is the loop, and its node bound is an argument:
//! the k-NN passes the distance bound, and experiment E5's bound views
//! ([`crate::view`]) pass the KcR-tree's keyword bounds, read off an
//! on-demand side table, to the same loop. Its [`SharedBound`] and
//! `expired` check let the sharded executor run one k-NN per shard under
//! one bound (late shards prune against early shards' results) and stop
//! on a request deadline.

use std::collections::BinaryHeap;

use yask_index::{Corpus, Node, NodeId, NodeKind, ObjectId, RTree};
use yask_text::KeywordSet;
use yask_util::{OrderedF64, Scored, TopK};

use crate::bound::SharedBound;
use crate::query::Query;
use crate::score::{RankedObject, ScoreParams};

/// How often the search consults `expired`, in node expansions. Checking
/// a clock per expansion would double the cost of cheap expansions; every
/// 32nd keeps the overshoot below a few microseconds of tree work.
pub const DEADLINE_STRIDE: usize = 32;

/// Work counters of one top-k.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Internal/leaf nodes popped and expanded (the k-NN half's, in the
    /// hybrid).
    pub nodes_expanded: usize,
    /// Objects whose exact score was computed: posting-list objects plus
    /// the objects of expanded leaves.
    pub objects_scored: usize,
    /// Total heap pushes (nodes + objects).
    pub heap_pushes: usize,
    /// Of `objects_scored`, the objects scored off the posting lists.
    pub postings_scored: usize,
}

/// Heap entry: node (by bound) or object (by exact score).
///
/// Derive order puts `Node < Object`; combined with [`Scored`]'s
/// smaller-item-wins tie-break, a node popping at the same key as an
/// object pops *first* — required for correctness, because the node may
/// still contain an equal-scored object with a smaller id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Entry {
    Node(NodeId),
    Object(ObjectId),
}

/// The exact top-k of `q` over the objects `tree` indexes.
pub fn topk_tree(tree: &RTree, params: &ScoreParams, q: &Query) -> Vec<RankedObject> {
    topk_tree_with_stats(tree, params, q).0
}

/// [`topk_tree`] with its work counters: the hybrid of the module docs,
/// (i) over the tree's corpus, then (ii) on the tree. One tree runs (ii)
/// unseeded, to its k-th nearest object: the seed pays off when it lets
/// whole shards drop out at their roots (the executor seeds), while here
/// it would save a handful of node expansions and leave most queries
/// reading nothing below the root — so the single-tree reference, paged
/// or resident, exercises the k-NN descent on every query.
///
/// A whole tree ([`RTree::is_whole`]: it indexes exactly its corpus's
/// live objects, as the engine's tree does) takes (i) straight off the
/// posting lists. Any other tree (a shard, a subset load, a tree changed
/// apart from its corpus) first collects the ids it indexes, and (i)
/// keeps only those.
pub fn topk_tree_with_stats(
    tree: &RTree,
    params: &ScoreParams,
    q: &Query,
) -> (Vec<RankedObject>, TraversalStats) {
    let corpus = tree.corpus();
    let (found, scored) = if tree.is_whole() {
        topk_postings(corpus, params, q)
    } else {
        let mut indexed = vec![false; corpus.slot_count()];
        for id in tree.object_ids() {
            indexed[id.index()] = true;
        }
        postings_where(corpus, params, q, |id| indexed[id.index()])
    };
    let (knn, mut stats, _) = knn_bounded(tree, params, q, &SharedBound::new(), || false);
    stats.postings_scored = scored;
    stats.objects_scored += scored;
    (merge_hybrid(found, knn, q.k), stats)
}

/// The hybrid's keyword half: the best `q.k` of the live objects on a
/// posting list of `q.doc`, best first, and how many were scored. An
/// object on several of the lists is scored once, on the first; a
/// keyword no object carries has an empty list.
pub fn topk_postings(corpus: &Corpus, params: &ScoreParams, q: &Query) -> (Vec<RankedObject>, usize) {
    postings_where(corpus, params, q, |_| true)
}

/// [`topk_postings`] over the posting objects `keep` admits.
fn postings_where(
    corpus: &Corpus,
    params: &ScoreParams,
    q: &Query,
    keep: impl Fn(ObjectId) -> bool,
) -> (Vec<RankedObject>, usize) {
    let kws = q.doc.raw();
    let mut best: TopK<ObjectId> = TopK::new(q.k);
    let mut scored = 0;
    for (i, &kw) in kws.iter().enumerate() {
        for id in corpus.posting(kw).iter() {
            if !corpus.contains(id) || !keep(id) {
                continue;
            }
            let o = corpus.get(id);
            if kws[..i].iter().any(|k| o.doc.raw().binary_search(k).is_ok()) {
                continue;
            }
            scored += 1;
            best.push(params.score(o, q), id);
        }
    }
    (crate::score::ranked(best), scored)
}

/// The bound (i) hands (ii): its k-th score once it holds `k` objects
/// (`k` real objects score at least that much), else one that prunes
/// nothing yet.
pub fn postings_bound(found: &[RankedObject], k: usize) -> SharedBound {
    let bound = SharedBound::new();
    if k > 0 && found.len() == k {
        bound.raise(found[k - 1].score);
    }
    bound
}

/// The hybrid's k-NN half on one tree: [`topk_tree_bounded`] with the
/// keywords dropped, under the distance-only node bound. Returns up to
/// `q.k` objects with their keyword-free scores.
pub fn knn_bounded(
    tree: &RTree,
    params: &ScoreParams,
    q: &Query,
    shared: &SharedBound,
    expired: impl Fn() -> bool,
) -> (Vec<RankedObject>, TraversalStats, bool) {
    let knn = q.with_doc(KeywordSet::empty());
    topk_tree_bounded(tree, params, &knn, |_, node| params.spatial_upper(&node.mbr, &knn), shared, expired)
}

/// Merges the hybrid's halves into the exact top-k: (i)'s list `found`
/// and the k-NN lists `knn` (disjoint across shards), merged by id — an
/// object in both keeps (i)'s score, the true one — ranked under the
/// workspace order and cut to `k`. An object of (ii) that shares a
/// query keyword but is not in `found` cannot rank: when (i) holds fewer
/// than `k` objects it holds every such object, and otherwise `k`
/// objects of (i) outscore its true score, which its k-NN score does not
/// exceed.
pub fn merge_hybrid(found: Vec<RankedObject>, knn: Vec<RankedObject>, k: usize) -> Vec<RankedObject> {
    let mut ids: Vec<ObjectId> = found.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    let mut all = found;
    all.extend(knn.into_iter().filter(|r| ids.binary_search(&r.id).is_err()));
    merge_topk(all, k)
}

/// The workspace order (score descending, id ascending) over
/// `candidates`, truncated to `k`.
pub fn merge_topk(mut candidates: Vec<RankedObject>, k: usize) -> Vec<RankedObject> {
    candidates.sort_unstable_by(|a, b| {
        OrderedF64(b.score).cmp(&OrderedF64(a.score)).then_with(|| a.id.cmp(&b.id))
    });
    candidates.truncate(k);
    candidates
}

/// The best-first search of paper §3.3: pop the highest entry, report it
/// if it is an object, otherwise unfold it; stop after `q.k` objects.
/// `upper` bounds the score of every object below a node; objects are
/// scored by [`ScoreParams::score`] under `q`. The search prunes against
/// `shared` and publishes its own best-k certificates into it.
///
/// On top of the paper's pop-and-unfold loop, the search keeps the best
/// `k` object scores seen so far ([`TopK`]); once it holds `k`, their
/// k-th score is raised into `shared`. Any node or object scoring
/// *strictly* below `shared` is skipped: `k` real objects — this
/// search's, another shard's, or (i)'s in the hybrid — already score at
/// least that much, so the skipped entry cannot enter the top-k under
/// the workspace order (score descending, id ascending). Ties survive,
/// and so does the answer; only the heap traffic shrinks.
///
/// `expired` is consulted before the root and then every
/// [`DEADLINE_STRIDE`] node expansions. Once it returns `true` the search
/// *saturates* `shared` (raises it to `+inf`), so every sibling search
/// under the same bound drains through the prunes above, and returns
/// `false` as its third value: the list is a best-effort prefix of the
/// top-k and the caller must flag it partial.
pub fn topk_tree_bounded(
    tree: &RTree,
    params: &ScoreParams,
    q: &Query,
    upper: impl Fn(NodeId, &Node) -> f64,
    shared: &SharedBound,
    expired: impl Fn() -> bool,
) -> (Vec<RankedObject>, TraversalStats, bool) {
    let mut stats = TraversalStats::default();
    let mut out = Vec::with_capacity(q.k.min(tree.len()));
    if expired() {
        shared.raise(f64::INFINITY);
        return (out, stats, false);
    }
    let Some(root) = tree.root() else {
        return (out, stats, true);
    };
    let root_ub = upper(root, &tree.node(root));
    if root_ub < shared.get() {
        return (out, stats, true);
    }
    let mut heap: BinaryHeap<Scored<Entry>> = BinaryHeap::new();
    let mut seen: TopK<ObjectId> = TopK::new(q.k);
    heap.push(Scored::new(root_ub, Entry::Node(root)));
    stats.heap_pushes += 1;

    while let Some(top) = heap.pop() {
        if stats.nodes_expanded % DEADLINE_STRIDE == 0 && expired() {
            shared.raise(f64::INFINITY);
            return (out, stats, false);
        }
        match top.item {
            Entry::Object(id) => {
                out.push(RankedObject {
                    id,
                    score: top.score.get(),
                });
                if out.len() == q.k {
                    break;
                }
            }
            Entry::Node(n) => {
                // The bound may have risen while the entry was queued;
                // re-check before paying for the expansion.
                if top.score.get() < shared.get() {
                    continue;
                }
                stats.nodes_expanded += 1;
                match &tree.node(n).kind {
                    NodeKind::Leaf(entries) => {
                        for &id in entries {
                            let s = params.score(tree.corpus().get(id), q);
                            stats.objects_scored += 1;
                            // Below the bound, or not retained ⇒ k better
                            // objects already seen (here or in a sibling
                            // search) ⇒ cannot be in the answer.
                            if s < shared.get() || !seen.push(s, id) {
                                continue;
                            }
                            stats.heap_pushes += 1;
                            heap.push(Scored::new(s, Entry::Object(id)));
                            if seen.is_full() {
                                shared.raise(seen.threshold());
                            }
                        }
                    }
                    NodeKind::Internal(children) => {
                        let bound = shared.get();
                        for &c in children {
                            let ub = upper(c, &tree.node(c));
                            if ub < bound {
                                continue;
                            }
                            stats.heap_pushes += 1;
                            heap.push(Scored::new(ub, Entry::Node(c)));
                        }
                    }
                }
            }
        }
    }
    (out, stats, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Weights;
    use crate::scan::topk_scan;
    use yask_geo::{Point, Space};
    use yask_index::{CorpusBuilder, RTreeParams};
    use yask_util::Xoshiro256;

    fn random_corpus(n: usize, vocab: u32, seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut b = CorpusBuilder::with_capacity(n).with_space(Space::unit());
        for i in 0..n {
            let loc = Point::new(rng.next_f64(), rng.next_f64());
            let nk = rng.below(6);
            let doc = KeywordSet::from_raw((0..nk).map(|_| rng.below(vocab as usize) as u32));
            b.push(loc, doc, format!("o{i}"));
        }
        b.build()
    }

    fn random_query(rng: &mut Xoshiro256, vocab: u32) -> Query {
        let loc = Point::new(rng.next_f64(), rng.next_f64());
        let nk = rng.below(5);
        let doc = KeywordSet::from_raw((0..nk).map(|_| rng.below(vocab as usize) as u32));
        let k = 1 + rng.below(20);
        let ws = [0.0, 1.0, rng.range_f64(0.05, 0.95)][rng.below(3)];
        Query::with_weights(loc, doc, k, Weights::from_ws(ws))
    }

    /// The hybrid equals the scan in ids and score bits.
    #[test]
    fn hybrid_matches_scan() {
        let corpus = random_corpus(400, 25, 11);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let mut rng = Xoshiro256::seed_from_u64(5);
        for case in 0..200 {
            let q = random_query(&mut rng, 25);
            assert_eq!(topk_tree(&tree, &params, &q), topk_scan(&corpus, &params, &q), "case {case}: {q:?}");
        }
    }

    #[test]
    fn the_knn_half_expands_few_nodes() {
        let corpus = random_corpus(5000, 40, 21);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus.clone(), RTreeParams::default());
        let mut rng = Xoshiro256::seed_from_u64(3);
        let (mut nodes, mut postings) = (0, 0);
        for _ in 0..20 {
            // Away from ws = 0, where every keyword-free score ties at 0
            // and the k smallest ids can sit anywhere in the tree.
            let q = random_query(&mut rng, 40).with_k(10).reweighted(Weights::from_ws(0.5));
            let s = topk_tree_with_stats(&tree, &params, &q).1;
            nodes += s.nodes_expanded;
            postings += s.postings_scored;
            assert!(s.objects_scored >= s.postings_scored);
        }
        assert!(nodes < 20 * 20, "k-NN expanded {nodes} nodes over 20 queries");
        assert!(postings > 0);
    }

    #[test]
    fn postings_skip_dead_ids_and_count_each_object_once() {
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        b.push(Point::new(0.1, 0.1), KeywordSet::from_raw([1, 2]), "both");
        b.push(Point::new(0.2, 0.2), KeywordSet::from_raw([2]), "two");
        b.push(Point::new(0.3, 0.3), KeywordSet::from_raw([3]), "other");
        let (corpus, _) = b.build().with_updates(std::iter::empty(), &[yask_index::ObjectId(1)]);
        let params = ScoreParams::new(corpus.space());
        let q = Query::new(Point::new(0.0, 0.0), KeywordSet::from_raw([1, 2, u32::MAX]), 5);
        let (found, scored) = topk_postings(&corpus, &params, &q);
        assert_eq!(scored, 1);
        assert_eq!(found.iter().map(|r| r.id.0).collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn empty_tree_returns_empty() {
        let corpus = random_corpus(0, 5, 1);
        let params = ScoreParams::new(corpus.space());
        let t = RTree::bulk_load(corpus, RTreeParams::default());
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1]), 5);
        let (res, stats) = topk_tree_with_stats(&t, &params, &q);
        assert!(res.is_empty());
        assert_eq!(stats, TraversalStats::default());
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let corpus = random_corpus(10, 5, 2);
        let params = ScoreParams::new(corpus.space());
        let t = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1]), 50);
        let res = topk_tree(&t, &params, &q);
        assert_eq!(res.len(), 10);
        assert_eq!(res, topk_scan(&corpus, &params, &q));
    }

    #[test]
    fn empty_query_doc_ranks_by_distance_only() {
        let corpus = random_corpus(100, 10, 4);
        let params = ScoreParams::new(corpus.space());
        let t = RTree::bulk_load(corpus.clone(), RTreeParams::new(8, 3));
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::empty(), 5);
        let (res, stats) = topk_tree_with_stats(&t, &params, &q);
        assert_eq!(res, topk_scan(&corpus, &params, &q));
        assert_eq!(stats.postings_scored, 0);
        // Nearest by distance must come first (ties to the smaller id).
        let nearest = corpus
            .iter()
            .min_by(|a, b| {
                a.loc
                    .dist2(&q.loc)
                    .total_cmp(&b.loc.dist2(&q.loc))
                    .then(a.id.cmp(&b.id))
            })
            .unwrap()
            .id;
        assert_eq!(res[0].id, nearest);
    }

    #[test]
    fn saturated_bound_skips_everything() {
        let corpus = random_corpus(100, 10, 34);
        let params = ScoreParams::new(corpus.space());
        let tree = RTree::bulk_load(corpus, RTreeParams::default());
        let q = Query::new(Point::new(0.5, 0.5), KeywordSet::from_raw([1]), 5);
        let bound = SharedBound::new();
        bound.raise(2.0); // above any reachable ST score
        let (res, stats, complete) = knn_bounded(&tree, &params, &q, &bound, || false);
        assert!(res.is_empty());
        assert!(complete);
        assert_eq!(stats.nodes_expanded, 0);
    }

    #[test]
    fn works_on_insertion_built_tree() {
        let corpus = random_corpus(150, 15, 6);
        let params = ScoreParams::new(corpus.space());
        let t = RTree::build_by_insertion(corpus.clone(), RTreeParams::new(6, 2));
        t.validate().unwrap();
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..10 {
            let q = random_query(&mut rng, 15);
            assert_eq!(topk_tree(&t, &params, &q), topk_scan(&corpus, &params, &q));
        }
    }

    #[test]
    fn a_tree_changed_apart_from_its_corpus_scores_only_what_it_holds() {
        // Slot 1 is dead; the tree drops live object 0 and takes slot 1,
        // so its count still equals the corpus's live count.
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        for i in 0..6 {
            b.push(Point::new(0.1 * i as f64, 0.5), KeywordSet::from_raw([7]), format!("o{i}"));
        }
        let (corpus, _) = b.build().with_updates(std::iter::empty(), &[ObjectId(1)]);
        let mut t = RTree::bulk_load(corpus.clone(), RTreeParams::new(4, 2));
        assert!(t.is_whole());
        assert!(t.delete(ObjectId(0)));
        t.insert(ObjectId(1));
        assert_eq!((t.len(), t.is_whole()), (corpus.len(), false));
        let params = ScoreParams::new(corpus.space());
        let q = Query::new(Point::new(0.0, 0.5), KeywordSet::from_raw([7]), 3);
        let (res, stats) = topk_tree_with_stats(&t, &params, &q);
        assert!(res.iter().all(|r| r.id != ObjectId(0)), "{res:?}");
        assert_eq!(stats.postings_scored, 4);
    }

    #[test]
    fn merge_breaks_ties_by_id_and_keeps_the_postings_score() {
        let r = |id, score| RankedObject { id: ObjectId(id), score };
        let m = merge_topk(vec![r(7, 0.5), r(3, 0.5), r(1, 0.2)], 2);
        assert_eq!(m, [r(3, 0.5), r(7, 0.5)]);
        // Object 4 is in both halves: its k-NN score is dropped.
        let m = merge_hybrid(vec![r(4, 0.9)], vec![r(4, 0.4), r(2, 0.6)], 3);
        assert_eq!(m, [r(4, 0.9), r(2, 0.6)]);
    }
}
