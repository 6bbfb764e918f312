//! The explanation generator (paper §3.3, Panels 4–5).
//!
//! "Given a missing object, this module generates an explanation by
//! analyzing its spatial proximity and textual relevance with respect to
//! the initial query … The reason can be that the missing object is too
//! far away from the query location or that the missing object is not so
//! relevant to the set of query keywords. The ranking of the missing
//! object under the initial query is also provided."
//!
//! The classification compares the object's spatial/textual score parts
//! against the *average* parts of the current top-k result, weighted by
//! the query's preference vector, and renders a human-readable message.

use yask_index::{Corpus, ObjectId};
use yask_query::{rank_of_scan, topk_scan, Query, RankedObject, ScoreParams};

use crate::common::validate;
use crate::error::WhyNotError;

/// Why an object is (or is not) missing from the result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissingReason {
    /// The object is actually in the top-k result.
    InResult,
    /// Ranked within [`JUST_MISSED_SLACK`] positions past `k`: a slightly
    /// larger `k` suffices.
    JustMissed,
    /// The dominant deficit is spatial: the object is too far from the
    /// query location relative to the result set.
    TooFar,
    /// The dominant deficit is textual: the object's keywords match the
    /// query poorly relative to the result set.
    WeakKeywords,
    /// Both deficits are comparable.
    Both,
}

/// Objects ranked at most this far past `k` are "just missed".
pub const JUST_MISSED_SLACK: usize = 2;

/// When the smaller weighted deficit is at least this fraction of the
/// larger one, both dimensions are blamed.
const BOTH_RATIO: f64 = 0.5;

/// The explanation for one desired object (rendered in the demo's
/// explanation panel).
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The object in question.
    pub object: ObjectId,
    /// Its display name.
    pub name: String,
    /// Its exact rank under the initial query.
    pub rank: usize,
    /// The initial `k`.
    pub k: usize,
    /// Its score `ST(o, q)`.
    pub score: f64,
    /// Its spatial part `1 − SDist(o, q)`.
    pub spatial_part: f64,
    /// Its textual part `TSim(o, q)`.
    pub textual_part: f64,
    /// Score of the k-th (worst) object in the current result.
    pub kth_score: f64,
    /// Mean spatial part over the current top-k.
    pub avg_top_spatial: f64,
    /// Mean textual part over the current top-k.
    pub avg_top_textual: f64,
    /// Query keywords the object *does* contain.
    pub matched_keywords: yask_text::KeywordSet,
    /// Query keywords the object lacks — the ones keyword adaptation
    /// would have to delete (or compensate for) to revive it.
    pub unmatched_keywords: yask_text::KeywordSet,
    /// The classification.
    pub reason: MissingReason,
    /// Human-readable rendering of all of the above.
    pub message: String,
}

/// Explains each object in `desired` with respect to query `q`, by
/// scanning the corpus — the reference the table-backed executor is
/// held to.
///
/// The request is validated like a refinement's (with λ = 0), but
/// objects already in the result are accepted (reason
/// [`MissingReason::InResult`]) — the demo lets users click any marker.
pub fn explain(
    corpus: &Corpus,
    params: &ScoreParams,
    query: &Query,
    desired: &[ObjectId],
) -> Result<Vec<Explanation>, WhyNotError> {
    validate(corpus, desired, 0.0)?;
    let top = topk_scan(corpus, params, query);
    let ranks: Vec<usize> = desired
        .iter()
        .map(|&m| rank_of_scan(corpus, params, query, m))
        .collect();
    Ok(explain_given(corpus, params, query, desired, &top, &ranks))
}

/// Assembles explanations from an already-computed top-k result and
/// already-computed exact ranks (aligned with `desired`).
///
/// The executor reads `top` and each rank off its request table
/// ([`SegmentSet`](crate::SegmentSet)) and delegates the classification
/// and rendering here, so the output is byte-identical to [`explain`].
/// Callers must have validated the request first (e.g. by building the
/// table with [`request_table`](crate::request_table)).
pub fn explain_given(
    corpus: &Corpus,
    params: &ScoreParams,
    query: &Query,
    desired: &[ObjectId],
    top: &[RankedObject],
    ranks: &[usize],
) -> Vec<Explanation> {
    assert_eq!(desired.len(), ranks.len(), "ranks must align with desired");
    let kth_score = top.last().map_or(0.0, |r| r.score);
    let (mut sum_a, mut sum_b) = (0.0, 0.0);
    for r in top {
        let (a, b) = params.parts(corpus.get(r.id), query);
        sum_a += a;
        sum_b += b;
    }
    let n_top = top.len().max(1) as f64;
    let (avg_a, avg_b) = (sum_a / n_top, sum_b / n_top);

    desired
        .iter()
        .zip(ranks)
        .map(|(&m, &rank)| {
            let obj = corpus.get(m);
            let (a, b) = params.parts(obj, query);
            let score = query.weights.ws() * a + query.weights.wt() * b;
            let reason = classify(rank, query, a, b, avg_a, avg_b);
            let matched = query.doc.intersection(&obj.doc);
            let unmatched = query.doc.difference(&obj.doc);
            let mut message =
                render(obj.name.as_str(), rank, query.k, score, kth_score, a, b, avg_a, avg_b, reason);
            if !unmatched.is_empty() && reason != MissingReason::InResult {
                message.push_str(&format!(
                    " It matches {} of the {} query keywords.",
                    matched.len(),
                    query.doc.len()
                ));
            }
            Explanation {
                object: m,
                name: obj.name.clone(),
                rank,
                k: query.k,
                score,
                spatial_part: a,
                textual_part: b,
                kth_score,
                avg_top_spatial: avg_a,
                avg_top_textual: avg_b,
                matched_keywords: matched,
                unmatched_keywords: unmatched,
                reason,
                message,
            }
        })
        .collect()
}

fn classify(rank: usize, q: &Query, a: f64, b: f64, avg_a: f64, avg_b: f64) -> MissingReason {
    if rank <= q.k {
        return MissingReason::InResult;
    }
    if rank <= q.k + JUST_MISSED_SLACK {
        return MissingReason::JustMissed;
    }
    // Weighted deficits against the average of the winning set.
    let ds = (q.weights.ws() * (avg_a - a)).max(0.0);
    let dt = (q.weights.wt() * (avg_b - b)).max(0.0);
    if ds == 0.0 && dt == 0.0 {
        // Better than the averages on both axes yet still well outside the
        // top-k: the result set is simply strong; closest call is "just
        // missed by ranking".
        return MissingReason::JustMissed;
    }
    if ds > 0.0 && dt > 0.0 && ds.min(dt) >= BOTH_RATIO * ds.max(dt) {
        MissingReason::Both
    } else if ds >= dt {
        MissingReason::TooFar
    } else {
        MissingReason::WeakKeywords
    }
}

#[allow(clippy::too_many_arguments)]
fn render(
    name: &str,
    rank: usize,
    k: usize,
    score: f64,
    kth: f64,
    a: f64,
    b: f64,
    avg_a: f64,
    avg_b: f64,
    reason: MissingReason,
) -> String {
    let head = match reason {
        MissingReason::InResult => {
            return format!("\"{name}\" is in the result: it ranks {rank} of the top-{k}.")
        }
        MissingReason::JustMissed => format!(
            "\"{name}\" just missed the result: it ranks {rank}, only {} past k = {k}.",
            rank - k
        ),
        MissingReason::TooFar => format!(
            "\"{name}\" ranks {rank} (k = {k}) mainly because it is too far from the query \
             location."
        ),
        MissingReason::WeakKeywords => format!(
            "\"{name}\" ranks {rank} (k = {k}) mainly because its keywords match the query \
             poorly."
        ),
        MissingReason::Both => format!(
            "\"{name}\" ranks {rank} (k = {k}): it is both farther and textually weaker than \
             the returned objects."
        ),
    };
    format!(
        "{head} Its score is {score:.4} vs {kth:.4} for the k-th result; spatial proximity \
         {a:.4} (result average {avg_a:.4}), textual relevance {b:.4} (result average {avg_b:.4})."
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::{Point, Space};
    use yask_index::CorpusBuilder;
    use yask_text::KeywordSet;

    fn ks(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_raw(ids.iter().copied())
    }

    /// A corpus engineered so each reason is reachable:
    /// o0, o1: near + matching (the top-2);
    /// o2: near + matching but edged out (just missed);
    /// o3: far + matching (too far — pushed past the slack by fillers);
    /// o4: near + unrelated keywords (weak keywords);
    /// o5: far + unrelated (both);
    /// o6, o7: filler winners so o3 lands beyond k + slack.
    fn fixture() -> (Corpus, ScoreParams, Query) {
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        b.push(Point::new(0.00, 0.0), ks(&[1, 2]), "winner-a");
        b.push(Point::new(0.01, 0.0), ks(&[1, 2]), "winner-b");
        b.push(Point::new(0.02, 0.0), ks(&[1, 2]), "nearly");
        b.push(Point::new(0.95, 0.9), ks(&[1, 2]), "distant");
        b.push(Point::new(0.03, 0.0), ks(&[8, 9]), "offtopic");
        b.push(Point::new(0.9, 0.95), ks(&[8, 9]), "hopeless");
        b.push(Point::new(0.04, 0.0), ks(&[1, 2]), "filler-a");
        b.push(Point::new(0.05, 0.0), ks(&[1, 2]), "filler-b");
        let c = b.build();
        let p = ScoreParams::new(c.space());
        let q = Query::new(Point::new(0.0, 0.0), ks(&[1, 2]), 2);
        (c, p, q)
    }

    #[test]
    fn classifies_all_reasons() {
        let (c, p, q) = fixture();
        let ex = explain(
            &c,
            &p,
            &q,
            &[
                ObjectId(0),
                ObjectId(2),
                ObjectId(3),
                ObjectId(4),
                ObjectId(5),
            ],
        )
        .unwrap();
        assert_eq!(ex[0].reason, MissingReason::InResult);
        assert_eq!(ex[1].reason, MissingReason::JustMissed);
        assert_eq!(ex[2].reason, MissingReason::TooFar);
        assert_eq!(ex[3].reason, MissingReason::WeakKeywords);
        assert_eq!(ex[4].reason, MissingReason::Both);
    }

    #[test]
    fn ranks_are_exact() {
        let (c, p, q) = fixture();
        let ex = explain(&c, &p, &q, &[ObjectId(2)]).unwrap();
        assert_eq!(ex[0].rank, 3, "{:?}", ex[0]);
        assert_eq!(ex[0].k, 2);
        assert!(ex[0].score < ex[0].kth_score);
    }

    #[test]
    fn message_mentions_name_and_rank() {
        let (c, p, q) = fixture();
        let ex = explain(&c, &p, &q, &[ObjectId(3)]).unwrap();
        assert!(ex[0].message.contains("distant"), "{}", ex[0].message);
        assert!(ex[0].message.contains("far from the query"), "{}", ex[0].message);
        assert!(ex[0].message.contains(&format!("ranks {}", ex[0].rank)));
    }

    #[test]
    fn parts_are_consistent_with_score() {
        let (c, p, q) = fixture();
        let ex = explain(&c, &p, &q, &[ObjectId(4)]).unwrap();
        let e = &ex[0];
        let recomputed = q.weights.ws() * e.spatial_part + q.weights.wt() * e.textual_part;
        assert!((recomputed - e.score).abs() < 1e-12);
    }

    #[test]
    fn keyword_breakdown_is_exact() {
        let (c, p, q) = fixture();
        // "offtopic" (o4) has doc {8,9}; query is {1,2}: no matches.
        let ex = explain(&c, &p, &q, &[ObjectId(4)]).unwrap();
        assert!(ex[0].matched_keywords.is_empty());
        assert_eq!(ex[0].unmatched_keywords, ks(&[1, 2]));
        assert!(ex[0].message.contains("matches 0 of the 2"), "{}", ex[0].message);
        // "nearly" (o2) matches both keywords.
        let ex = explain(&c, &p, &q, &[ObjectId(2)]).unwrap();
        assert_eq!(ex[0].matched_keywords, ks(&[1, 2]));
        assert!(ex[0].unmatched_keywords.is_empty());
    }

    #[test]
    fn errors() {
        let (c, p, q) = fixture();
        assert_eq!(explain(&c, &p, &q, &[]).unwrap_err(), WhyNotError::EmptyMissingSet);
        assert_eq!(
            explain(&c, &p, &q, &[ObjectId(77)]).unwrap_err(),
            WhyNotError::ForeignObject(ObjectId(77))
        );
    }
}
