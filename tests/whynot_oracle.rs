//! A definitional why-not oracle: the paper's Definitions 2–3 and
//! Eqns (3)/(4) minimised by exhaustion on small corpora, with every rank
//! taken from a whole-corpus scan.
//!
//! The engines' modules share code paths with each other (the sharded
//! executor drives `yask_core`'s skeletons), so "sharded equals `Yask`"
//! checks the fan-out, not the algorithm. This suite checks the algorithm:
//!
//! * **keywords** — every non-empty `doc′ ⊆ q.doc ∪ M.doc` is ranked by a
//!   scan and priced by Eqn (4), written out below;
//! * **preference** — Eqn (3) is evaluated at `ws₀` and beside every
//!   crossing of a missing object's score line with another object's,
//!   nudged by ±1e-7 inside `(0, 1)` (the engine's evaluation protocol:
//!   ranks are constant between crossings). Crossings come from
//!   `ScoreParams::parts`; ranks from `ScoreParams::score` on re-weighted
//!   queries;
//! * **combined** — the reported rank is the scan rank of the reported
//!   query, and the penalty recomputes from the reported fields.
//!
//! `Yask` and the sharded `Executor` (K ∈ {1, 3}) must reach the oracle's
//! minimum penalty within 1e-9 and report the scan rank of their query.

use proptest::prelude::*;

use yask::prelude::*;

/// The engine's nudge around each crossing (`pref::sweep::NUDGE`).
const NUDGE: f64 = 1e-7;
const LAMBDAS: [f64; 3] = [0.2, 0.5, 0.8];
const SHARDS: [usize; 2] = [1, 3];

#[derive(Debug, Clone)]
struct Case {
    corpus: Corpus,
    query: Query,
    missing: Vec<ObjectId>,
    lambda: f64,
}

/// Corpora of 20–60 objects over a vocabulary of 8, docs of 1–4
/// keywords, `|q.doc|` 1–3, `|M|` 1–2 drawn from below the top-k.
fn case() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(
            (
                0.0f64..1.0,
                0.0f64..1.0,
                proptest::collection::vec(0u32..8, 1..=4),
            ),
            20..=60,
        ),
        (
            0.0f64..1.0,
            0.0f64..1.0,
            proptest::collection::vec(0u32..8, 1..=3),
        ),
        (1usize..=5, 0.05f64..0.95),
        (1usize..=2, 0usize..1000, 0usize..1000, 0usize..3),
    )
        .prop_map(|(objs, (x, y, kws), (k, ws), (m, p0, p1, li))| {
            let mut b = CorpusBuilder::new().with_space(Space::unit());
            for (i, (ox, oy, doc)) in objs.into_iter().enumerate() {
                b.push(
                    Point::new(ox, oy),
                    KeywordSet::from_raw(doc),
                    format!("o{i}"),
                );
            }
            let corpus = b.build();
            let query = Query::with_weights(
                Point::new(x, y),
                KeywordSet::from_raw(kws),
                k,
                Weights::from_ws(ws),
            );
            // Scan order: ids by descending score, ties to the smaller id.
            let params = ScoreParams::new(corpus.space());
            let mut order: Vec<ObjectId> = corpus.iter().map(|o| o.id).collect();
            order.sort_by(|&x, &y| {
                let (sx, sy) = (
                    score(&corpus, &params, &query, x),
                    score(&corpus, &params, &query, y),
                );
                sy.total_cmp(&sx).then(x.cmp(&y))
            });
            let below = &order[k..];
            let mut missing: Vec<ObjectId> = [p0, p1][..m]
                .iter()
                .map(|p| below[p % below.len()])
                .collect();
            missing.dedup();
            Case {
                corpus,
                query,
                missing,
                lambda: LAMBDAS[li],
            }
        })
}

fn score(corpus: &Corpus, params: &ScoreParams, q: &Query, id: ObjectId) -> f64 {
    params.score(corpus.get(id), q)
}

/// `R(M, q)`: the worst missing rank, each rank `1 +` the number of
/// objects ahead in the total order (score descending, id ascending).
fn scan_rank(corpus: &Corpus, params: &ScoreParams, q: &Query, missing: &[ObjectId]) -> usize {
    missing
        .iter()
        .map(|&m| {
            let sm = score(corpus, params, q, m);
            1 + corpus
                .iter()
                .filter(|o| o.id != m)
                .filter(|o| {
                    let s = params.score(o, q);
                    s > sm || (s == sm && o.id < m)
                })
                .count()
        })
        .max()
        .expect("missing set non-empty")
}

/// `λ·Δk/(R(M,q) − q.k)` with `Δk = max(0, R(M,q′) − q.k)`.
fn k_term(c: &Case, r0: usize, r_new: usize) -> f64 {
    c.lambda * r_new.saturating_sub(c.query.k) as f64 / (r0 - c.query.k) as f64
}

/// Eqn (4) minimised over every non-empty `doc′ ⊆ q.doc ∪ M.doc`.
fn keyword_oracle(c: &Case, params: &ScoreParams) -> f64 {
    let r0 = scan_rank(&c.corpus, params, &c.query, &c.missing);
    let mut universe: Vec<u32> = c.query.doc.raw().to_vec();
    for &m in &c.missing {
        universe.extend_from_slice(c.corpus.get(m).doc.raw());
    }
    universe.sort_unstable();
    universe.dedup();
    let mut best = f64::INFINITY;
    for mask in 1u32..(1 << universe.len()) {
        let doc: Vec<u32> = (0..universe.len())
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| universe[i])
            .collect();
        // Δdoc: the symmetric difference of q.doc and doc′.
        let delta_doc = doc
            .iter()
            .filter(|w| !c.query.doc.raw().contains(w))
            .count()
            + c.query
                .doc
                .raw()
                .iter()
                .filter(|w| !doc.contains(w))
                .count();
        let q2 = c.query.with_doc(KeywordSet::from_raw(doc));
        let r = scan_rank(&c.corpus, params, &q2, &c.missing);
        let p = k_term(c, r0, r) + (1.0 - c.lambda) * delta_doc as f64 / universe.len() as f64;
        best = best.min(p);
    }
    best
}

/// Eqn (3) minimised over `ws₀` and both nudges of every crossing.
fn preference_oracle(c: &Case, params: &ScoreParams) -> f64 {
    let r0 = scan_rank(&c.corpus, params, &c.query, &c.missing);
    let ws0 = c.query.weights.ws();
    let mut weights = vec![ws0];
    for &m in &c.missing {
        let (am, bm) = params.parts(c.corpus.get(m), &c.query);
        for o in c.corpus.iter().filter(|o| o.id != m) {
            let (ao, bo) = params.parts(o, &c.query);
            // ws·a + (1 − ws)·b ties where b_o − b_m = ws·(slope_m − slope_o).
            let ds = (am - bm) - (ao - bo);
            if ds == 0.0 {
                continue;
            }
            let ws = (bo - bm) / ds;
            if ws > 0.0 && ws < 1.0 {
                weights.extend(
                    [ws - NUDGE, ws + NUDGE]
                        .into_iter()
                        .filter(|&w| w > 0.0 && w < 1.0),
                );
            }
        }
    }
    let norm = (1.0 + ws0 * ws0 + (1.0 - ws0) * (1.0 - ws0)).sqrt();
    weights
        .into_iter()
        .map(|ws| {
            let q2 = c.query.reweighted(Weights::from_ws(ws));
            let r = scan_rank(&c.corpus, params, &q2, &c.missing);
            // ‖~w − ~w′‖₂ on the line ws + wt = 1.
            let delta_w = ((ws - ws0).powi(2) + ((1.0 - ws) - (1.0 - ws0)).powi(2)).sqrt();
            k_term(c, r0, r) + (1.0 - c.lambda) * delta_w / norm
        })
        .fold(f64::INFINITY, f64::min)
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9
}

/// The combined model: reported rank is the scan rank of the reported
/// query, `k″ = max(q.k, rank)`, and the penalty is the `combined.rs`
/// formula over the reported fields.
fn check_combined(
    c: &Case,
    params: &ScoreParams,
    r: &CombinedRefinement,
    label: &str,
) -> Result<(), String> {
    let r0 = scan_rank(&c.corpus, params, &c.query, &c.missing);
    let rank = scan_rank(&c.corpus, params, &r.query, &c.missing);
    if r.rank != rank || r.initial_rank != r0 || r.query.k != rank.max(c.query.k) {
        return Err(format!(
            "{label}: rank {} / k {} vs scan {rank}",
            r.rank, r.query.k
        ));
    }
    let mut universe = c.query.doc.clone();
    for &m in &c.missing {
        universe = universe.union(&c.corpus.get(m).doc);
    }
    let delta_w = c.query.weights.l2_distance(&r.query.weights);
    let delta_doc = c.query.doc.edit_distance(&r.query.doc);
    let want = k_term(c, r0, rank)
        + (1.0 - c.lambda)
            * (delta_w / c.query.weights.penalty_normalizer()
                + delta_doc as f64 / universe.len() as f64)
            / 2.0;
    if !close(r.penalty, want) || r.delta_doc != delta_doc || !close(r.delta_w, delta_w) {
        return Err(format!(
            "{label}: penalty {} vs recomputed {want}",
            r.penalty
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn whynot_modules_reach_the_definitional_optimum(c in case()) {
        let yask = Yask::with_defaults(c.corpus.clone());
        let params = yask.score_params();
        let kw_min = keyword_oracle(&c, &params);
        let pref_min = preference_oracle(&c, &params);
        let (q, m, l) = (&c.query, &c.missing[..], c.lambda);

        let kw = yask.refine_keywords(q, m, l).expect("valid request");
        let pref = yask.refine_preference(q, m, l).expect("valid request");
        let comb = yask.refine_combined(q, m, l).expect("valid request");
        let mut answers = vec![("Yask".to_owned(), kw, pref, comb)];
        for shards in SHARDS {
            let exec = Executor::new(
                c.corpus.clone(),
                ExecConfig { shards, workers: 2, ..ExecConfig::default() },
            );
            answers.push((
                format!("K={shards}"),
                exec.refine_keywords(q, m, l).expect("valid request"),
                exec.refine_preference(q, m, l).expect("valid request"),
                exec.refine_combined(q, m, l).expect("valid request"),
            ));
        }
        for (label, kw, pref, comb) in &answers {
            prop_assert!(close(kw.penalty, kw_min),
                "{}: keywords {} vs oracle {}", label, kw.penalty, kw_min);
            prop_assert_eq!(kw.rank, scan_rank(&c.corpus, &params, &kw.query, m), "{}", label);
            prop_assert_eq!(kw.query.k, kw.rank.max(q.k), "{}", label);
            prop_assert!(close(pref.penalty, pref_min),
                "{}: preference {} vs oracle {}", label, pref.penalty, pref_min);
            prop_assert_eq!(pref.rank, scan_rank(&c.corpus, &params, &pref.query, m), "{}", label);
            prop_assert_eq!(pref.query.k, pref.rank.max(q.k), "{}", label);
            if let Err(e) = check_combined(&c, &params, comb, label) {
                prop_assert!(false, "{}", e);
            }
        }
    }
}
