//! Golden why-not answers: for one fixed clustered, Zipf-skewed corpus
//! of 3 000 objects and 24 fixed questions × λ ∈ {0.2, 0.5, 0.9} — over
//! the bulk-loaded epoch and over a second epoch with tombstones — every
//! module's answers (explain, preference, keywords, combined, full) fold
//! into one digest per module, pinned below and shared by `Yask` and the
//! sharded `Executor` at K ∈ {1, 2}.
//!
//! A digest covers the f64 bits of every penalty, `Δ~w` and `ws′`; `k′`,
//! the ranks, `Δk`, `Δdoc`, the refined keyword ids and the combine
//! order; the preference candidate count and the keyword search's
//! enumerated / bound-pruned / exact-evaluated counts; and the rendered
//! explanation text. A refactor of how the modules rank objects must
//! leave every digest alone; a change to the algorithm moves them and
//! says why. The first three cases are also pinned in full, so a moved
//! digest comes with a readable first difference.

use yask_core::{
    CombinedRefinement, Explanation, KeywordRefinement, PreferenceRefinement, WhyNotAnswer,
    WhyNotError, Yask, YaskConfig,
};
use yask_data::{SpatialDistribution, SynthConfig};
use yask_exec::{ExecConfig, Executor};
use yask_geo::Point;
use yask_index::{Corpus, ObjectId};
use yask_query::{topk_scan, Query, ScoreParams, Weights};
use yask_text::KeywordSet;
use yask_util::Xoshiro256;

const QUESTIONS: usize = 24;
const LAMBDAS: [f64; 3] = [0.2, 0.5, 0.9];
/// A missing object is ranked `k+1 ..= k+MISSING_SPAN`.
const MISSING_SPAN: usize = 40;
const TOMBSTONES: usize = 300;

fn corpus() -> Corpus {
    SynthConfig {
        n: 3_000,
        vocab: 300,
        min_doc: 2,
        max_doc: 5,
        zipf_s: 0.9,
        spatial: SpatialDistribution::Clustered {
            clusters: 8,
            sigma: 0.05,
        },
        seed: 33,
    }
    .build()
}

struct Case {
    query: Query,
    missing: Vec<ObjectId>,
    lambda: f64,
}

/// 24 questions over the live objects of `corpus`, each asked at every λ:
/// keywords drawn from live documents, `|M|` alternating 1 and 2.
fn cases(corpus: &Corpus, seed: u64) -> Vec<Case> {
    let params = ScoreParams::new(corpus.space());
    let live = corpus.live_ids();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut out = Vec::new();
    for i in 0..QUESTIONS {
        let kws: Vec<u32> = (0..1 + rng.below(3))
            .map(|_| {
                let doc = corpus.get(live[rng.below(live.len())]).doc.raw();
                doc[rng.below(doc.len())]
            })
            .collect();
        let query = Query::with_weights(
            Point::new(rng.next_f64(), rng.next_f64()),
            KeywordSet::from_raw(kws),
            5 + rng.below(11),
            Weights::from_ws(rng.range_f64(0.2, 0.8)),
        );
        let ranked = topk_scan(corpus, &params, &query.with_k(query.k + MISSING_SPAN));
        let mut offsets = vec![rng.below(MISSING_SPAN)];
        if i % 2 == 1 {
            offsets.push((offsets[0] + 1 + rng.below(MISSING_SPAN - 1)) % MISSING_SPAN);
        }
        let missing: Vec<ObjectId> = offsets.iter().map(|&o| ranked[query.k + o].id).collect();
        for lambda in LAMBDAS {
            out.push(Case {
                query: query.clone(),
                missing: missing.clone(),
                lambda,
            });
        }
    }
    out
}

/// The five why-not entry points, on either engine.
trait Engine {
    fn explain(&self, c: &Case) -> Result<Vec<Explanation>, WhyNotError>;
    fn preference(&self, c: &Case) -> Result<PreferenceRefinement, WhyNotError>;
    fn keywords(&self, c: &Case) -> Result<KeywordRefinement, WhyNotError>;
    fn combined(&self, c: &Case) -> Result<CombinedRefinement, WhyNotError>;
    fn full(&self, c: &Case) -> Result<WhyNotAnswer, WhyNotError>;
}

impl Engine for Yask {
    fn explain(&self, c: &Case) -> Result<Vec<Explanation>, WhyNotError> {
        Yask::explain(self, &c.query, &c.missing)
    }
    fn preference(&self, c: &Case) -> Result<PreferenceRefinement, WhyNotError> {
        self.refine_preference(&c.query, &c.missing, c.lambda)
    }
    fn keywords(&self, c: &Case) -> Result<KeywordRefinement, WhyNotError> {
        self.refine_keywords(&c.query, &c.missing, c.lambda)
    }
    fn combined(&self, c: &Case) -> Result<CombinedRefinement, WhyNotError> {
        self.refine_combined(&c.query, &c.missing, c.lambda)
    }
    fn full(&self, c: &Case) -> Result<WhyNotAnswer, WhyNotError> {
        self.answer_with_lambda(&c.query, &c.missing, c.lambda)
    }
}

impl Engine for Executor {
    fn explain(&self, c: &Case) -> Result<Vec<Explanation>, WhyNotError> {
        Executor::explain(self, &c.query, &c.missing)
    }
    fn preference(&self, c: &Case) -> Result<PreferenceRefinement, WhyNotError> {
        self.refine_preference(&c.query, &c.missing, c.lambda)
    }
    fn keywords(&self, c: &Case) -> Result<KeywordRefinement, WhyNotError> {
        self.refine_keywords(&c.query, &c.missing, c.lambda)
    }
    fn combined(&self, c: &Case) -> Result<CombinedRefinement, WhyNotError> {
        self.refine_combined(&c.query, &c.missing, c.lambda)
    }
    fn full(&self, c: &Case) -> Result<WhyNotAnswer, WhyNotError> {
        self.answer_with_lambda(&c.query, &c.missing, c.lambda)
    }
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn pref_line(r: &PreferenceRefinement) -> String {
    format!(
        "p={} dw={} ws={} k={} rank={} r0={} dk={} cand={}",
        bits(r.penalty),
        bits(r.delta_w),
        bits(r.query.weights.ws()),
        r.query.k,
        r.rank,
        r.initial_rank,
        r.delta_k,
        r.candidates
    )
}

fn kw_line(r: &KeywordRefinement) -> String {
    format!(
        "p={} k={} rank={} r0={} dk={} ddoc={} doc={:?} enum={} pruned={} exact={} trunc={}",
        bits(r.penalty),
        r.query.k,
        r.rank,
        r.initial_rank,
        r.delta_k,
        r.delta_doc,
        r.query.doc.raw(),
        r.stats.enumerated,
        r.stats.bound_pruned,
        r.stats.exact_evaluated,
        r.stats.truncated
    )
}

fn line<T>(r: Result<T, WhyNotError>, render: impl Fn(&T) -> String) -> String {
    match r {
        Ok(v) => render(&v),
        Err(e) => format!("err {e:?}"),
    }
}

/// One case's five answer lines, in module order.
fn answer_lines(engine: &dyn Engine, c: &Case) -> [String; 5] {
    [
        line(engine.explain(c), |e| format!("{e:?}")),
        line(engine.preference(c), pref_line),
        line(engine.keywords(c), kw_line),
        line(engine.combined(c), |r| {
            format!(
                "p={} dw={} ws={} k={} rank={} r0={} dk={} ddoc={} doc={:?} order={:?}",
                bits(r.penalty),
                bits(r.delta_w),
                bits(r.query.weights.ws()),
                r.query.k,
                r.rank,
                r.initial_rank,
                r.delta_k,
                r.delta_doc,
                r.query.doc.raw(),
                r.order
            )
        }),
        line(engine.full(c), |a| {
            format!(
                "{:?} | {} | {} | {:?}",
                a.explanations,
                pref_line(&a.preference),
                kw_line(&a.keyword),
                a.recommended
            )
        }),
    ]
}

/// FNV-1a over the lines, each terminated by a newline.
fn fnv(lines: impl IntoIterator<Item = String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in lines {
        for b in l.bytes().chain([b'\n']) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Per-module digests over both epochs, plus the first three cases'
/// lines of the first epoch.
fn run(engines: [&dyn Engine; 2], epochs: [&[Case]; 2]) -> ([u64; 5], Vec<String>) {
    let mut per_module: [Vec<String>; 5] = Default::default();
    let mut first = Vec::new();
    for (engine, cases) in engines.into_iter().zip(epochs) {
        for c in cases {
            let lines = answer_lines(engine, c);
            if first.len() < 15 {
                first.extend(lines.iter().cloned());
            }
            for (all, l) in per_module.iter_mut().zip(lines) {
                all.push(l);
            }
        }
    }
    (per_module.map(fnv), first)
}

/// The bulk-loaded corpus and its successor with [`TOMBSTONES`] deletes.
fn epochs() -> (Corpus, Corpus, Vec<ObjectId>) {
    let base = corpus();
    let mut rng = Xoshiro256::seed_from_u64(34);
    let mut live = base.live_ids();
    let deleted: Vec<ObjectId> = (0..TOMBSTONES)
        .map(|_| live.swap_remove(rng.below(live.len())))
        .collect();
    let (next, _) = base.with_updates(std::iter::empty(), &deleted);
    (base, next, deleted)
}

fn check(label: &str, got: ([u64; 5], Vec<String>), digests: [u64; 5]) {
    let (got_digests, first) = got;
    let modules = ["explain", "preference", "keywords", "combined", "full"];
    for ((m, g), w) in modules.iter().zip(got_digests).zip(digests) {
        assert_eq!(g, w, "{label}: {m} digest moved to {g:#018x}");
    }
    let want: Vec<&str> = FIRST_CASES.lines().collect();
    assert_eq!(first.len(), want.len(), "{label}: first-case line count");
    for (i, (g, w)) in first.iter().zip(want).enumerate() {
        assert_eq!(g.as_str(), w, "{label}: case {} {}", i / 5, modules[i % 5]);
    }
}

#[test]
fn yask_answers_match_the_golden_digests() {
    let (base, next, _) = epochs();
    let (c0, c1) = (cases(&base, 35), cases(&next, 36));
    let e0 = Yask::new(base, YaskConfig::default());
    let e1 = Yask::new(next, YaskConfig::default());
    check("Yask", run([&e0, &e1], [&c0, &c1]), DIGESTS);
}

#[test]
fn sharded_answers_match_the_golden_digests() {
    let (base, next, deleted) = epochs();
    let (c0, c1) = (cases(&base, 35), cases(&next, 36));
    for shards in [1, 2] {
        let config = ExecConfig {
            shards,
            workers: 2,
            ..ExecConfig::default()
        };
        let e0 = Executor::new(base.clone(), config);
        let e1 = Executor::new(base.clone(), config);
        e1.apply_batch(next.clone(), &[], &deleted);
        check(&format!("K={shards}"), run([&e0, &e1], [&c0, &c1]), DIGESTS);
    }
}

/// One digest per module, the same for every engine.
const DIGESTS: [u64; 5] = [
    0x83d971ccc2cd39d7,
    0x6effbe2c738c8cde,
    0x50411cdf30e44496,
    0x6701a6601a44918e,
    0xcdfc2292869c5f95,
];

/// The first three cases (one question at λ = 0.2, 0.5, 0.9), five lines
/// each in module order — the same for every engine.
const FIRST_CASES: &str = r#"[Explanation { object: ObjectId(409), name: "obj-409", rank: 14, k: 5, score: 0.5702178174267861, spatial_part: 0.6204610971188641, textual_part: 0.5, kth_score: 0.5918797294260842, avg_top_spatial: 0.672564202895585, avg_top_textual: 0.5, matched_keywords: KeywordSet[7], unmatched_keywords: KeywordSet[], reason: TooFar, message: "\"obj-409\" ranks 14 (k = 5) mainly because it is too far from the query location. Its score is 0.5702 vs 0.5919 for the k-th result; spatial proximity 0.6205 (result average 0.6726), textual relevance 0.5000 (result average 0.5000)." }]
p=3fc999999999999a dw=0000000000000000 ws=3fe2a73013212dd7 k=14 rank=14 r0=14 dk=9 cand=1411
p=3fc999999999999a k=14 rank=14 r0=14 dk=9 ddoc=0 doc=[7] enum=1 pruned=0 exact=1 trunc=false
p=3fc999999999999a dw=0000000000000000 ws=3fe2a73013212dd7 k=14 rank=14 r0=14 dk=9 ddoc=0 doc=[7] order=KeywordsThenWeights
[Explanation { object: ObjectId(409), name: "obj-409", rank: 14, k: 5, score: 0.5702178174267861, spatial_part: 0.6204610971188641, textual_part: 0.5, kth_score: 0.5918797294260842, avg_top_spatial: 0.672564202895585, avg_top_textual: 0.5, matched_keywords: KeywordSet[7], unmatched_keywords: KeywordSet[], reason: TooFar, message: "\"obj-409\" ranks 14 (k = 5) mainly because it is too far from the query location. Its score is 0.5702 vs 0.5919 for the k-th result; spatial proximity 0.6205 (result average 0.6726), textual relevance 0.5000 (result average 0.5000)." }] | p=3fc999999999999a dw=0000000000000000 ws=3fe2a73013212dd7 k=14 rank=14 r0=14 dk=9 cand=1411 | p=3fc999999999999a k=14 rank=14 r0=14 dk=9 ddoc=0 doc=[7] enum=1 pruned=0 exact=1 trunc=false | Preference
[Explanation { object: ObjectId(409), name: "obj-409", rank: 14, k: 5, score: 0.5702178174267861, spatial_part: 0.6204610971188641, textual_part: 0.5, kth_score: 0.5918797294260842, avg_top_spatial: 0.672564202895585, avg_top_textual: 0.5, matched_keywords: KeywordSet[7], unmatched_keywords: KeywordSet[], reason: TooFar, message: "\"obj-409\" ranks 14 (k = 5) mainly because it is too far from the query location. Its score is 0.5702 vs 0.5919 for the k-th result; spatial proximity 0.6205 (result average 0.6726), textual relevance 0.5000 (result average 0.5000)." }]
p=3fe0000000000000 dw=0000000000000000 ws=3fe2a73013212dd7 k=14 rank=14 r0=14 dk=9 cand=1411
p=3fd0000000000000 k=5 rank=1 r0=14 dk=0 ddoc=1 doc=[7, 86] enum=2 pruned=0 exact=2 trunc=false
p=3fc0000000000000 dw=0000000000000000 ws=3fe2a73013212dd7 k=5 rank=1 r0=14 dk=0 ddoc=1 doc=[7, 86] order=KeywordsThenWeights
[Explanation { object: ObjectId(409), name: "obj-409", rank: 14, k: 5, score: 0.5702178174267861, spatial_part: 0.6204610971188641, textual_part: 0.5, kth_score: 0.5918797294260842, avg_top_spatial: 0.672564202895585, avg_top_textual: 0.5, matched_keywords: KeywordSet[7], unmatched_keywords: KeywordSet[], reason: TooFar, message: "\"obj-409\" ranks 14 (k = 5) mainly because it is too far from the query location. Its score is 0.5702 vs 0.5919 for the k-th result; spatial proximity 0.6205 (result average 0.6726), textual relevance 0.5000 (result average 0.5000)." }] | p=3fe0000000000000 dw=0000000000000000 ws=3fe2a73013212dd7 k=14 rank=14 r0=14 dk=9 cand=1411 | p=3fd0000000000000 k=5 rank=1 r0=14 dk=0 ddoc=1 doc=[7, 86] enum=2 pruned=0 exact=2 trunc=false | Keyword
[Explanation { object: ObjectId(409), name: "obj-409", rank: 14, k: 5, score: 0.5702178174267861, spatial_part: 0.6204610971188641, textual_part: 0.5, kth_score: 0.5918797294260842, avg_top_spatial: 0.672564202895585, avg_top_textual: 0.5, matched_keywords: KeywordSet[7], unmatched_keywords: KeywordSet[], reason: TooFar, message: "\"obj-409\" ranks 14 (k = 5) mainly because it is too far from the query location. Its score is 0.5702 vs 0.5919 for the k-th result; spatial proximity 0.6205 (result average 0.6726), textual relevance 0.5000 (result average 0.5000)." }]
p=3feccccccccccccd dw=0000000000000000 ws=3fe2a73013212dd7 k=14 rank=14 r0=14 dk=9 cand=1411
p=3fa9999999999998 k=5 rank=1 r0=14 dk=0 ddoc=1 doc=[7, 86] enum=2 pruned=0 exact=2 trunc=false
p=3f99999999999998 dw=0000000000000000 ws=3fe2a73013212dd7 k=5 rank=1 r0=14 dk=0 ddoc=1 doc=[7, 86] order=KeywordsThenWeights
[Explanation { object: ObjectId(409), name: "obj-409", rank: 14, k: 5, score: 0.5702178174267861, spatial_part: 0.6204610971188641, textual_part: 0.5, kth_score: 0.5918797294260842, avg_top_spatial: 0.672564202895585, avg_top_textual: 0.5, matched_keywords: KeywordSet[7], unmatched_keywords: KeywordSet[], reason: TooFar, message: "\"obj-409\" ranks 14 (k = 5) mainly because it is too far from the query location. Its score is 0.5702 vs 0.5919 for the k-th result; spatial proximity 0.6205 (result average 0.6726), textual relevance 0.5000 (result average 0.5000)." }] | p=3feccccccccccccd dw=0000000000000000 ws=3fe2a73013212dd7 k=14 rank=14 r0=14 dk=9 cand=1411 | p=3fa9999999999998 k=5 rank=1 r0=14 dk=0 ddoc=1 doc=[7, 86] enum=2 pruned=0 exact=2 trunc=false | Keyword"#;
