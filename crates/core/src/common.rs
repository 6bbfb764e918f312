//! Request validation shared by the why-not modules.

use yask_index::{Corpus, ObjectId};
use yask_query::{Query, ScoreParams};

use crate::error::WhyNotError;
use crate::penalty::PenaltyContext;
use crate::pref::segment::SegmentSet;

/// Checks a why-not request before any scoring pass is paid, in order:
/// non-empty database; non-empty missing set; λ in range; every missing
/// id live.
fn validate(corpus: &Corpus, missing: &[ObjectId], lambda: f64) -> Result<(), WhyNotError> {
    if corpus.is_empty() {
        return Err(WhyNotError::EmptyDatabase);
    }
    if missing.is_empty() {
        return Err(WhyNotError::EmptyMissingSet);
    }
    if !(0.0..=1.0).contains(&lambda) || !lambda.is_finite() {
        return Err(WhyNotError::InvalidLambda(lambda));
    }
    for &m in missing {
        // Tombstoned slots are as foreign as out-of-range ids: a deleted
        // object cannot be revived by a refined query.
        if !corpus.contains(m) {
            return Err(WhyNotError::ForeignObject(m));
        }
    }
    Ok(())
}

/// Validates a why-not request, then pays its one scoring pass: the
/// weight-plane table of the initial query, which answers every rank the
/// modules ask for under `query`'s location and keywords.
pub fn request_table(
    corpus: &Corpus,
    params: &ScoreParams,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
) -> Result<SegmentSet, WhyNotError> {
    validate(corpus, missing, lambda)?;
    Ok(SegmentSet::build_live(corpus, params, query))
}

/// Validates a why-not request and builds the [`PenaltyContext`], reading
/// the initial ranks off `table` (built under `query`'s location and
/// keywords, e.g. by [`request_table`]).
///
/// Runs the checks of [`request_table`], then rejects any missing object
/// that actually ranks within `q.k` (otherwise it is not missing and the
/// penalty normalizer `R(M, q) − q.k` would be degenerate).
///
/// Returns the context together with the exact initial ranks of the
/// missing objects (aligned with `missing`).
pub(crate) fn build_context(
    corpus: &Corpus,
    table: &SegmentSet,
    query: &Query,
    missing: &[ObjectId],
    lambda: f64,
) -> Result<(PenaltyContext, Vec<usize>), WhyNotError> {
    validate(corpus, missing, lambda)?;
    assert!(table.serves(query), "rank table built for another query");
    let ranks = table.ranks(query.weights, missing);
    for (&m, &r) in missing.iter().zip(&ranks) {
        if r <= query.k {
            return Err(WhyNotError::NotMissing(m, r));
        }
    }
    let r_m_q = *ranks.iter().max().expect("missing set non-empty");
    Ok((PenaltyContext::new(query.k, r_m_q, lambda), ranks))
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

    /// `build_context` over a freshly built table, validating first as
    /// every entry point does.
    fn context(
        c: &Corpus,
        params: &ScoreParams,
        q: &Query,
        missing: &[ObjectId],
        lambda: f64,
    ) -> Result<(PenaltyContext, Vec<usize>), WhyNotError> {
        let table = request_table(c, params, q, missing, lambda)?;
        build_context(c, &table, q, missing, lambda)
    }

    fn fixture() -> (Corpus, ScoreParams, Query) {
        let mut b = CorpusBuilder::new().with_space(Space::unit());
        b.push(Point::new(0.0, 0.0), ks(&[1]), "best");
        b.push(Point::new(0.2, 0.2), ks(&[1]), "second");
        b.push(Point::new(0.9, 0.9), ks(&[2]), "far");
        let c = b.build();
        let params = ScoreParams::new(c.space());
        let q = Query::new(Point::new(0.0, 0.0), ks(&[1]), 1);
        (c, params, q)
    }

    #[test]
    fn accepts_genuinely_missing_objects() {
        let (c, params, q) = fixture();
        let (ctx, ranks) = context(&c, &params, &q, &[ObjectId(2)], 0.5).expect("valid request");
        assert_eq!(ctx.k0, 1);
        assert_eq!(ctx.r_m_q, ranks[0]);
        assert!(ctx.r_m_q > 1);
    }

    #[test]
    fn rejects_empty_missing_set() {
        let (c, params, q) = fixture();
        assert_eq!(
            context(&c, &params, &q, &[], 0.5),
            Err(WhyNotError::EmptyMissingSet)
        );
    }

    #[test]
    fn rejects_foreign_object() {
        let (c, params, q) = fixture();
        assert_eq!(
            context(&c, &params, &q, &[ObjectId(99)], 0.5),
            Err(WhyNotError::ForeignObject(ObjectId(99)))
        );
    }

    #[test]
    fn rejects_object_already_in_result() {
        let (c, params, q) = fixture();
        assert_eq!(
            context(&c, &params, &q, &[ObjectId(0)], 0.5),
            Err(WhyNotError::NotMissing(ObjectId(0), 1))
        );
    }

    #[test]
    fn rejects_bad_lambda() {
        let (c, params, q) = fixture();
        assert_eq!(
            context(&c, &params, &q, &[ObjectId(2)], -0.1),
            Err(WhyNotError::InvalidLambda(-0.1))
        );
        assert!(matches!(
            context(&c, &params, &q, &[ObjectId(2)], f64::NAN).unwrap_err(),
            WhyNotError::InvalidLambda(l) if l.is_nan()
        ));
    }

    #[test]
    fn rejects_empty_database() {
        let c = CorpusBuilder::new().build();
        let params = ScoreParams::new(c.space());
        let q = Query::new(Point::new(0.0, 0.0), ks(&[1]), 1);
        assert_eq!(
            context(&c, &params, &q, &[ObjectId(0)], 0.5),
            Err(WhyNotError::EmptyDatabase)
        );
    }
}
