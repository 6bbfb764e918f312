//! Property tests for the substrate crates: pager streams and checkpoints,
//! R-tree mutation invariants, tokenizer, and the session cache.

use proptest::prelude::*;

use yask::index::{KcRTree, RTreeParams};
use yask::pager::{load_checkpoint, save_checkpoint, BufferPool, Checkpoint, PageFile};
use yask::prelude::*;

fn tmp(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("yask-props-{}-{}", std::process::id(), tag));
    p
}

// ---------------------------------------------------------------------------
// Pager
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary record sequences survive the paged stream, across page
    /// boundaries and pool capacities.
    #[test]
    fn paged_streams_round_trip(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..700), 1..40
        ),
        capacity in 1usize..8
    ) {
        let path = tmp(&format!("stream-{capacity}-{}", records.len()));
        {
            let pool = BufferPool::new(PageFile::create(&path).unwrap(), capacity);
            let mut w = yask::pager::codec::StreamWriter::new(&pool).unwrap();
            for r in &records {
                w.write_u32(r.len() as u32).unwrap();
                w.write_bytes(r).unwrap();
            }
            let (first, len) = w.finish().unwrap();

            let mut rd = yask::pager::codec::StreamReader::new(&pool, first, len).unwrap();
            for r in &records {
                let n = rd.read_u32().unwrap() as usize;
                prop_assert_eq!(n, r.len());
                let mut buf = vec![0u8; n];
                rd.read_bytes(&mut buf).unwrap();
                prop_assert_eq!(&buf, r);
            }
            prop_assert_eq!(rd.remaining(), 0);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Any corpus — tombstones included — survives a checkpoint round
    /// trip slot for slot, with its ids, liveness and space intact.
    #[test]
    fn checkpoint_round_trip_preserves_slots(
        objs in proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, proptest::collection::vec(0u32..25, 0..5)),
            0..60
        ),
        dead in proptest::collection::vec(any::<u32>(), 0..8),
        epoch in any::<u64>()
    ) {
        let path = tmp(&format!("ckpt-{}-{epoch}", objs.len()));
        let mut b = CorpusBuilder::new();
        for (i, (x, y, kws)) in objs.iter().enumerate() {
            b.push(Point::new(*x, *y), KeywordSet::from_raw(kws.clone()), format!("n{i}"));
        }
        let mut deletes: Vec<ObjectId> =
            dead.iter().filter_map(|d| d.checked_rem(objs.len() as u32)).map(ObjectId).collect();
        deletes.sort_unstable();
        deletes.dedup();
        let (corpus, _) = b.build().with_updates(std::iter::empty(), &deletes);
        let vocab: Vec<String> = (0..25).map(|i| format!("w{i}")).collect();
        let ck = Checkpoint { corpus, epoch, vocab };
        save_checkpoint(&path, &ck).unwrap();
        let loaded = load_checkpoint(&path).unwrap().expect("checkpoint exists");
        std::fs::remove_file(&path).ok();

        let (a, b) = (&ck.corpus, &loaded.corpus);
        prop_assert_eq!(loaded.epoch, epoch);
        prop_assert_eq!(&loaded.vocab, &ck.vocab);
        prop_assert_eq!(b.slot_count(), a.slot_count());
        prop_assert_eq!(b.len(), a.len());
        prop_assert_eq!(b.space(), a.space());
        for i in 0..a.slot_count() {
            let id = ObjectId(i as u32);
            prop_assert_eq!(b.contains(id), a.contains(id));
            let (x, y) = (a.get(id), b.get(id));
            prop_assert_eq!(y.loc, x.loc);
            prop_assert_eq!(&y.doc, &x.doc);
            prop_assert_eq!(&y.name, &x.name);
        }
    }
}

// ---------------------------------------------------------------------------
// R-tree mutation invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings of inserts and deletes preserve every tree
    /// invariant and index exactly the live set.
    #[test]
    fn rtree_churn_preserves_invariants(
        objs in proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, proptest::collection::vec(0u32..15, 1..4)),
            4..50
        ),
        ops in proptest::collection::vec(any::<bool>(), 10..80)
    ) {
        let mut b = CorpusBuilder::new();
        for (i, (x, y, kws)) in objs.iter().enumerate() {
            b.push(Point::new(*x, *y), KeywordSet::from_raw(kws.clone()), format!("c{i}"));
        }
        let corpus = b.build();
        let mut tree = KcRTree::new(corpus.clone(), RTreeParams::new(4, 2));
        let mut live: Vec<ObjectId> = Vec::new();
        let mut next = 0usize;
        for &insert in &ops {
            if insert && next < corpus.len() {
                let id = ObjectId(next as u32);
                tree.insert(id);
                live.push(id);
                next += 1;
            } else if let Some(id) = live.pop() {
                prop_assert!(tree.delete(id));
            }
        }
        prop_assert!(tree.validate().is_ok(), "{:?}", tree.validate());
        let mut got = tree.object_ids();
        got.sort();
        live.sort();
        prop_assert_eq!(got, live);
    }
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tokenization is idempotent, lower-case, deduplicated, and free of
    /// stopwords/single characters.
    #[test]
    fn tokenizer_output_is_canonical(text in ".{0,200}") {
        let tokens = yask::text::tokenize(&text);
        let set: std::collections::HashSet<&String> = tokens.iter().collect();
        prop_assert_eq!(set.len(), tokens.len(), "duplicates");
        for t in &tokens {
            prop_assert_eq!(t.to_lowercase(), t.clone(), "not lower-cased");
            prop_assert!(t.chars().count() >= 2, "single char token {t:?}");
            prop_assert!(t.chars().all(|c| c.is_alphanumeric()), "separator kept in {t:?}");
        }
        // Re-tokenizing the joined output is a fixed point.
        let rejoined = tokens.join(" ");
        prop_assert_eq!(yask::text::tokenize(&rejoined), tokens);
    }
}

// ---------------------------------------------------------------------------
// Session cache
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Create/remove sequences keep the live-count bookkeeping exact.
    #[test]
    fn session_store_counts_are_exact(ops in proptest::collection::vec(any::<bool>(), 1..60)) {
        let store = SessionStore::new(std::time::Duration::from_secs(300));
        let q = Query::new(Point::new(0.0, 0.0), KeywordSet::from_raw([1]), 1);
        let mut ids = Vec::new();
        for &create in &ops {
            if create || ids.is_empty() {
                ids.push(store.create(q.clone()));
            } else {
                let id = ids.pop().unwrap();
                prop_assert!(store.remove(id));
                prop_assert!(!store.remove(id), "double remove succeeded");
            }
            prop_assert_eq!(store.len(), ids.len());
        }
        for id in &ids {
            prop_assert!(store.get(*id).is_some());
        }
    }
}
