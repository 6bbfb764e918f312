//! The seeded workload generator.
//!
//! Everything the server sees is produced here: the corpus, and from
//! `--seed` the stream of operations, rendered to the exact HTTP bytes
//! the client writes. The same seed yields a byte-identical request
//! stream on every run and every commit, so two commits are compared on
//! identical inputs.
//!
//! The corpus is one fixed data set, like the data set of any index
//! benchmark; the seed varies what is asked of it. (A corpus per seed
//! was tried: where its twelve cluster centres happen to fall moves
//! cold-query latency by ±10 % and peak memory by ±15 %, which is
//! variance between inputs, not between runs, and would drown the
//! regression bounds.)

use yask_data::{pick_missing, SpatialDistribution, SynthConfig};
use yask_geo::Point;
use yask_index::{Corpus, ObjectId};
use yask_ingest::{NewObject, Update};
use yask_query::{Query, ScoreParams};
use yask_text::{KeywordSet, Vocabulary};
use yask_util::{Xoshiro256, Zipf};

/// The seed of the one corpus every run serves.
const CORPUS_SEED: u64 = 1;
/// Vocabulary size; word `i` is spelled `w{i}` and interned as id `i`.
pub const VOCAB: usize = 5_000;
/// Result size of every query.
pub const K: usize = 10;
/// Distinct queries behind `read_cached` (fits the 1024-entry cache).
const CACHED_POOL: usize = 256;
/// Distinct queries behind the read side of `write_mix`.
const WRITE_MIX_POOL: usize = 2_048;
/// Share of `write_mix` operations that are writes.
const WRITE_SHARE: f64 = 0.2;
/// The missing object of a why-not session is ranked `k+1 ..= k+40`.
const MISSING_SPAN: usize = 40;

/// The five workloads (see `spec::WORKLOADS` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadCached,
    ReadCold,
    ReadOocore,
    WhynotSession,
    WriteMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ReadCached,
        Workload::ReadCold,
        Workload::ReadOocore,
        Workload::WhynotSession,
        Workload::WriteMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadCached => "read_cached",
            Workload::ReadCold => "read_cold",
            Workload::ReadOocore => "read_oocore",
            Workload::WhynotSession => "whynot_session",
            Workload::WriteMix => "write_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The synthetic corpus of the benchmark: `n` objects, vocabulary 5 000,
/// Zipf 0.8, 12 Gaussian clusters, 3–10 keywords per object.
pub fn corpus(n: usize) -> Corpus {
    SynthConfig {
        n,
        vocab: VOCAB,
        min_doc: 3,
        max_doc: 10,
        zipf_s: 0.8,
        spatial: SpatialDistribution::Clustered {
            clusters: 12,
            sigma: 0.03,
        },
        seed: CORPUS_SEED,
    }
    .build()
}

/// The vocabulary matching [`corpus`]: keyword id `i` ↔ word `w{i}`.
pub fn vocabulary() -> Vocabulary {
    Vocabulary::from_words((0..VOCAB).map(|i| format!("w{i}")))
}

/// A top-k query as the client states it.
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySpec {
    pub x: f64,
    pub y: f64,
    pub kws: Vec<u32>,
}

impl QuerySpec {
    /// The engine-side query the server builds from this request.
    pub fn to_query(&self) -> Query {
        Query::new(
            Point::new(self.x, self.y),
            KeywordSet::from_raw(self.kws.iter().copied()),
            K,
        )
    }
}

/// The four why-not questions of a session, in the order they are asked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WhyNot {
    Explain,
    Preference,
    Keywords,
    Combined,
}

impl WhyNot {
    pub const ALL: [WhyNot; 4] = [
        WhyNot::Explain,
        WhyNot::Preference,
        WhyNot::Keywords,
        WhyNot::Combined,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WhyNot::Explain => "explain",
            WhyNot::Preference => "preference",
            WhyNot::Keywords => "keywords",
            WhyNot::Combined => "combined",
        }
    }
}

/// A new object as the client posts it.
#[derive(Clone, Debug, PartialEq)]
pub struct NewObjectSpec {
    pub x: f64,
    pub y: f64,
    pub kws: Vec<u32>,
    pub name: String,
}

/// One client operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Query(QuerySpec),
    /// A follow-up question about `missing` on the session the preceding
    /// [`Op::Query`] opened.
    WhyNot {
        kind: WhyNot,
        missing: u32,
    },
    Insert(NewObjectSpec),
    Delete(u32),
}

fn write_words(out: &mut String, kws: &[u32]) {
    out.push('[');
    for (i, kw) in kws.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"w{kw}\""));
    }
    out.push(']');
}

impl Op {
    /// Short label of the operation type (`query`, `explain`, …, `write`).
    pub fn label(&self) -> &'static str {
        match self {
            Op::Query(_) => "query",
            Op::WhyNot { kind, .. } => kind.name(),
            Op::Insert(_) | Op::Delete(_) => "write",
        }
    }

    /// The JSON body (empty for `DELETE`). `session` is the id the
    /// server returned for this session's query. `f64`'s `Display` is
    /// the shortest text that parses back to the same value, so the
    /// server rebuilds exactly the coordinates generated here.
    pub fn body(&self, session: u64) -> String {
        match self {
            Op::Query(q) => {
                let mut s = format!("{{\"x\":{},\"y\":{},\"keywords\":", q.x, q.y);
                write_words(&mut s, &q.kws);
                s.push_str(&format!(",\"k\":{K}}}"));
                s
            }
            Op::WhyNot { missing, .. } => {
                format!("{{\"session\":{session},\"missing\":[{missing}]}}")
            }
            Op::Insert(o) => {
                let mut s = format!(
                    "{{\"x\":{},\"y\":{},\"name\":\"{}\",\"keywords\":",
                    o.x, o.y, o.name
                );
                write_words(&mut s, &o.kws);
                s.push('}');
                s
            }
            Op::Delete(_) => String::new(),
        }
    }

    /// The engine-side update a write asks for (`None` for reads).
    pub fn to_update(&self) -> Option<Update> {
        match self {
            Op::Insert(o) => Some(Update::Insert(NewObject::new(
                Point::new(o.x, o.y),
                KeywordSet::from_raw(o.kws.iter().copied()),
                o.name.clone(),
            ))),
            Op::Delete(id) => Some(Update::Delete(ObjectId(*id))),
            Op::Query(_) | Op::WhyNot { .. } => None,
        }
    }

    /// Appends the full HTTP/1.1 request to `out`.
    pub fn render(&self, session: u64, out: &mut Vec<u8>) {
        let (method, path) = match self {
            Op::Query(_) => ("POST", "/query".to_owned()),
            Op::WhyNot { kind, .. } => ("POST", format!("/whynot/{}", kind.name())),
            Op::Insert(_) => ("POST", "/objects".to_owned()),
            Op::Delete(id) => ("DELETE", format!("/objects/{id}")),
        };
        let body = self.body(session);
        out.extend_from_slice(
            format!(
                "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\ncontent-type: application/json\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        out.extend_from_slice(body.as_bytes());
    }
}

/// The operation stream of one workload.
pub struct Generator {
    workload: Workload,
    rng: Xoshiro256,
    corpus: Corpus,
    params: ScoreParams,
    pool: Vec<QuerySpec>,
    pool_zipf: Zipf,
    kw_zipf: Zipf,
    /// Follow-up questions of the session in progress.
    pending: Vec<Op>,
    /// `write_mix`: ids the generator believes are live, and the slot the
    /// next insert will get (slots are handed out in commit order, and
    /// one closed-loop client commits in request order).
    live: Vec<u32>,
    next_slot: u32,
    inserts: usize,
    next_write_is_insert: bool,
}

impl Generator {
    /// A generator over the base `corpus` (as built by [`corpus`]).
    pub fn new(workload: Workload, corpus: &Corpus, seed: u64) -> Generator {
        // One stream per (seed, workload): workloads never share draws.
        let mut rng = Xoshiro256::seed_from_u64(seed ^ (0x5945_534b_u64 << 8) ^ workload as u64);
        let pool_size = match workload {
            Workload::ReadCached => CACHED_POOL,
            Workload::WriteMix => WRITE_MIX_POOL,
            _ => 0,
        };
        let pool: Vec<QuerySpec> = (0..pool_size)
            .map(|_| fresh_query(&mut rng, corpus))
            .collect();
        Generator {
            workload,
            corpus: corpus.clone(),
            params: ScoreParams::new(corpus.space()),
            pool_zipf: Zipf::new(pool_size.max(1), 1.0),
            pool,
            kw_zipf: Zipf::new(VOCAB, 0.8),
            pending: Vec::new(),
            live: if workload == Workload::WriteMix {
                (0..corpus.slot_count() as u32).collect()
            } else {
                Vec::new()
            },
            next_slot: corpus.slot_count() as u32,
            inserts: 0,
            next_write_is_insert: true,
            rng,
        }
    }

    /// The next operation of the stream.
    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::ReadCached => {
                Op::Query(self.pool[self.pool_zipf.sample(&mut self.rng)].clone())
            }
            Workload::ReadCold | Workload::ReadOocore => {
                Op::Query(fresh_query(&mut self.rng, &self.corpus))
            }
            Workload::WhynotSession => {
                if let Some(op) = self.pending.pop() {
                    return op;
                }
                let spec = fresh_query(&mut self.rng, &self.corpus);
                let offset = self.rng.below(MISSING_SPAN);
                let missing =
                    pick_missing(&self.corpus, &self.params, &spec.to_query(), 1, offset)[0].0;
                // Popped back to front: explain is asked first.
                self.pending = WhyNot::ALL
                    .iter()
                    .rev()
                    .map(|&kind| Op::WhyNot { kind, missing })
                    .collect();
                Op::Query(spec)
            }
            Workload::WriteMix => {
                if !self.rng.chance(WRITE_SHARE) {
                    // Uniform, not Zipf: between two epoch bumps almost
                    // every query misses the cache, and under Zipf a
                    // handful of hot queries — whichever the seed picked
                    // — would set the whole run's latency.
                    return Op::Query(self.pool[self.rng.below(self.pool.len())].clone());
                }
                let insert = self.next_write_is_insert;
                self.next_write_is_insert = !insert;
                if insert {
                    Op::Insert(self.new_object())
                } else {
                    let at = self.rng.below(self.live.len());
                    Op::Delete(self.live.swap_remove(at))
                }
            }
        }
    }

    /// A new object near an existing one, so inserts follow the corpus'
    /// cluster shape and the STR shards stay balanced.
    fn new_object(&mut self) -> NewObjectSpec {
        let near = self
            .corpus
            .get(ObjectId(self.rng.below(self.corpus.slot_count()) as u32))
            .loc;
        let x = self.rng.normal(near.x, 0.01).clamp(0.0, 1.0);
        let y = self.rng.normal(near.y, 0.01).clamp(0.0, 1.0);
        let len = self.rng.range_usize(3, 11);
        let mut kws: Vec<u32> = Vec::with_capacity(len);
        while kws.len() < len {
            let kw = self.kw_zipf.sample(&mut self.rng) as u32;
            if !kws.contains(&kw) {
                kws.push(kw);
            }
        }
        let name = format!("new-{}", self.inserts);
        self.inserts += 1;
        self.live.push(self.next_slot);
        self.next_slot += 1;
        NewObjectSpec { x, y, kws, name }
    }
}

/// A query at a uniform location with 2–4 distinct keywords drawn from
/// the documents of random objects (selective but never empty-handed).
fn fresh_query(rng: &mut Xoshiro256, corpus: &Corpus) -> QuerySpec {
    let x = rng.next_f64();
    let y = rng.next_f64();
    let len = rng.range_usize(2, 5);
    let mut kws: Vec<u32> = Vec::with_capacity(len);
    while kws.len() < len {
        let doc = &corpus
            .get(ObjectId(rng.below(corpus.slot_count()) as u32))
            .doc;
        let kw = doc.raw()[rng.below(doc.len())];
        if !kws.contains(&kw) {
            kws.push(kw);
        }
    }
    QuerySpec { x, y, kws }
}

/// FNV-1a over the rendered stream: the fingerprint of "what the server
/// was sent". Session ids are taken as the server hands them out (1, 2,
/// … per query).
#[cfg(test)]
pub fn stream_hash(workload: Workload, corpus: &Corpus, seed: u64, ops: usize) -> u64 {
    let mut gen = Generator::new(workload, corpus, seed);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut buf = Vec::new();
    let mut session = 0u64;
    for _ in 0..ops {
        let op = gen.next_op();
        if matches!(op, Op::Query(_)) {
            session += 1;
        }
        buf.clear();
        op.render(session, &mut buf);
        for &b in &buf {
            hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_stream_another_seed_another_stream() {
        let c = corpus(2_000);
        for w in Workload::ALL {
            let a = stream_hash(w, &c, 1, 400);
            let b = stream_hash(w, &corpus(2_000), 1, 400);
            assert_eq!(a, b, "{}: same seed, different bytes", w.name());
            assert_ne!(
                a,
                stream_hash(w, &c, 2, 400),
                "{}: seeds 1 and 2 collide",
                w.name()
            );
        }
        // Workloads draw from separate streams even under one seed.
        assert_ne!(
            stream_hash(Workload::ReadCold, &c, 1, 50),
            stream_hash(Workload::ReadOocore, &c, 1, 50)
        );
    }

    #[test]
    fn bodies_round_trip_through_the_server_json_parser() {
        let c = corpus(1_000);
        let mut gen = Generator::new(Workload::WriteMix, &c, 3);
        let mut seen = [false; 3];
        for _ in 0..400 {
            let op = gen.next_op();
            let body = op.body(7);
            match &op {
                Op::Query(q) => {
                    let j = yask_server::Json::parse(&body).expect("query body parses");
                    assert_eq!(j.get("x").and_then(yask_server::Json::as_f64), Some(q.x));
                    assert_eq!(
                        j.get("keywords")
                            .and_then(yask_server::Json::as_array)
                            .unwrap()
                            .len(),
                        q.kws.len()
                    );
                    seen[0] = true;
                }
                Op::Insert(o) => {
                    let j = yask_server::Json::parse(&body).expect("insert body parses");
                    assert_eq!(j.get("y").and_then(yask_server::Json::as_f64), Some(o.y));
                    seen[1] = true;
                }
                Op::Delete(id) => {
                    assert!(body.is_empty() && (*id as usize) < c.slot_count() + 400);
                    seen[2] = true;
                }
                Op::WhyNot { .. } => unreachable!("write_mix asks no why-not questions"),
            }
        }
        assert_eq!(
            seen, [true; 3],
            "write_mix mixes queries, inserts and deletes"
        );
    }

    #[test]
    fn a_session_is_a_query_then_four_questions_about_a_missing_object() {
        let c = corpus(1_500);
        let params = ScoreParams::new(c.space());
        let mut gen = Generator::new(Workload::WhynotSession, &c, 4);
        for _ in 0..3 {
            let Op::Query(spec) = gen.next_op() else {
                panic!("a session starts with its query")
            };
            let top: Vec<u32> = yask_query::topk_scan(&c, &params, &spec.to_query())
                .iter()
                .map(|r| r.id.0)
                .collect();
            for kind in WhyNot::ALL {
                match gen.next_op() {
                    Op::WhyNot { kind: k, missing } => {
                        assert_eq!(k, kind);
                        assert!(
                            !top.contains(&missing),
                            "the missing object is in the top-k"
                        );
                    }
                    other => panic!("expected a why-not question, got {other:?}"),
                }
            }
        }
    }
}
