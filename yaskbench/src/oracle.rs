//! The built-in correctness gate. Answers the server gave over HTTP are
//! compared, after the measured phase, with reference implementations
//! that share no index with the served path:
//!
//! * sampled `/query` responses against the linear scan
//!   (`yask_query::topk_scan`) over the corpus version the driver knows
//!   was acknowledged at that moment;
//! * sampled why-not sessions against the single-tree `yask_core::Yask`
//!   (rank, penalty, and the refined k / weights / keywords);
//! * after the `write_mix` restart, fresh queries against a scan over
//!   the driver's own model of acknowledged writes.
//!
//! Every mismatch counts as a failed operation.

use std::collections::HashMap;

use yask_core::{Yask, YaskConfig};
use yask_index::{Corpus, ObjectId};
use yask_query::{topk_scan, RankedObject, ScoreParams};
use yask_server::Json;

use crate::driver::{QueryCheck, SessionCheck};
use crate::gen::{QuerySpec, WhyNot};

/// Relative tolerance on floating-point answers. Scores and penalties
/// are the same arithmetic on both sides; the slack only absorbs a
/// different summation order between the sharded and single-tree paths.
const TOLERANCE: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

/// The number at `path` inside a JSON document.
pub fn field(j: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(j, |j, key| j.get(key))
        .and_then(Json::as_f64)
}

/// Compares one `/query` body with the expected ranking.
fn compare_results(body: &str, want: &[RankedObject]) -> Result<(), String> {
    let j = Json::parse(body).map_err(|e| format!("response is not JSON: {e}"))?;
    if j.get("complete").and_then(Json::as_bool) != Some(true)
        || j.get("degraded").and_then(Json::as_bool) != Some(false)
    {
        return Err("answer is flagged degraded or incomplete".to_owned());
    }
    let got = j
        .get("results")
        .and_then(Json::as_array)
        .ok_or("no results array")?;
    if got.len() != want.len() {
        return Err(format!(
            "{} results, the scan finds {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let id = field(g, &["id"]).ok_or("result without id")?;
        let score = field(g, &["score"]).ok_or("result without score")?;
        if id != w.id.0 as f64 || !close(score, w.score) {
            return Err(format!(
                "rank {}: got id {id} score {score}, the scan says id {} score {}",
                i + 1,
                w.id.0,
                w.score
            ));
        }
    }
    Ok(())
}

/// Verifies the sampled `/query` responses. A static corpus (every
/// check shares one version) lets repeated pool queries share one scan.
pub fn verify_queries(checks: &[QueryCheck]) -> Vec<String> {
    let mut memo: HashMap<(u64, u64), Vec<RankedObject>> = HashMap::new();
    let mut errors = Vec::new();
    for c in checks {
        let params = ScoreParams::new(c.corpus.space());
        let fresh = || topk_scan(&c.corpus, &params, &c.spec.to_query());
        let result = if c.corpus.same_version(&checks[0].corpus) {
            let want = memo
                .entry((c.spec.x.to_bits(), c.spec.y.to_bits()))
                .or_insert_with(fresh);
            compare_results(&c.body, want)
        } else {
            compare_results(&c.body, &fresh())
        };
        if let Err(e) = result {
            errors.push(format!("query oracle: {e}"));
        }
    }
    errors
}

/// Verifies one query body against a scan over `model` (restart gate).
pub fn verify_against_model(model: &Corpus, spec: &QuerySpec, body: &str) -> Result<(), String> {
    let params = ScoreParams::new(model.space());
    compare_results(body, &topk_scan(model, &params, &spec.to_query()))
        .map_err(|e| format!("restart oracle: {e}"))
}

fn words_to_ids(j: &Json) -> Option<Vec<u32>> {
    let mut ids: Vec<u32> = j
        .as_array()?
        .iter()
        .map(|w| w.as_str()?.strip_prefix('w')?.parse().ok())
        .collect::<Option<_>>()?;
    ids.sort_unstable();
    Some(ids)
}

/// Verifies the sampled why-not sessions against the single tree.
pub fn verify_sessions(corpus: &Corpus, checks: &[SessionCheck]) -> Vec<String> {
    if checks.is_empty() {
        return Vec::new();
    }
    let yask = Yask::new(corpus.clone(), YaskConfig::default());
    let lambda = YaskConfig::default().default_lambda;
    let mut errors = Vec::new();
    for c in checks {
        if c.bodies.len() != WhyNot::ALL.len() {
            errors.push(format!(
                "why-not oracle: session has {} of 4 answers",
                c.bodies.len()
            ));
            continue;
        }
        let q = c.spec.to_query();
        let missing = [ObjectId(c.missing)];
        for (kind, body) in WhyNot::ALL.iter().zip(&c.bodies) {
            let verdict = Json::parse(body)
                .map_err(|e| format!("response is not JSON: {e}"))
                .and_then(|j| check_answer(&yask, *kind, &q, &missing, lambda, &j));
            if let Err(e) = verdict {
                errors.push(format!(
                    "why-not oracle: {} about object {}: {e}",
                    kind.name(),
                    c.missing
                ));
            }
        }
    }
    errors
}

fn check_answer(
    yask: &Yask,
    kind: WhyNot,
    q: &yask_query::Query,
    missing: &[ObjectId],
    lambda: f64,
    j: &Json,
) -> Result<(), String> {
    let num = |path: &[&str]| field(j, path).ok_or_else(|| format!("no field {}", path.join(".")));
    let same = |name: &str, got: f64, want: f64| {
        if close(got, want) {
            Ok(())
        } else {
            Err(format!("{name}: got {got}, the single tree says {want}"))
        }
    };
    let fail = |e: yask_core::WhyNotError| format!("the single tree refuses: {e}");
    match kind {
        WhyNot::Explain => {
            let want = yask.explain(q, missing).map_err(fail)?;
            let got = j
                .get("explanations")
                .and_then(Json::as_array)
                .ok_or("no explanations")?;
            if got.len() != want.len() {
                return Err(format!(
                    "{} explanations, expected {}",
                    got.len(),
                    want.len()
                ));
            }
            for (g, w) in got.iter().zip(&want) {
                same("rank", field(g, &["rank"]).ok_or("no rank")?, w.rank as f64)?;
                same("score", field(g, &["score"]).ok_or("no score")?, w.score)?;
                let reason = g.get("reason").and_then(Json::as_str).unwrap_or("");
                if reason != format!("{:?}", w.reason) {
                    return Err(format!("reason {reason}, expected {:?}", w.reason));
                }
            }
            Ok(())
        }
        WhyNot::Preference => {
            let want = yask.refine_preference(q, missing, lambda).map_err(fail)?;
            same("penalty", num(&["penalty"])?, want.penalty)?;
            same("rank", num(&["rank"])?, want.rank as f64)?;
            same("refined.k", num(&["refined", "k"])?, want.query.k as f64)?;
            same(
                "refined.ws",
                num(&["refined", "ws"])?,
                want.query.weights.ws(),
            )?;
            same(
                "refined.wt",
                num(&["refined", "wt"])?,
                want.query.weights.wt(),
            )
        }
        WhyNot::Keywords => {
            let want = yask.refine_keywords(q, missing, lambda).map_err(fail)?;
            same("penalty", num(&["penalty"])?, want.penalty)?;
            same("rank", num(&["rank"])?, want.rank as f64)?;
            same("refined.k", num(&["refined", "k"])?, want.query.k as f64)?;
            same_doc(j, want.query.doc.raw())
        }
        WhyNot::Combined => {
            let want = yask.refine_combined(q, missing, lambda).map_err(fail)?;
            same("penalty", num(&["penalty"])?, want.penalty)?;
            same("rank", num(&["rank"])?, want.rank as f64)?;
            same("refined.k", num(&["refined", "k"])?, want.query.k as f64)?;
            same(
                "refined.ws",
                num(&["refined", "ws"])?,
                want.query.weights.ws(),
            )?;
            same(
                "refined.wt",
                num(&["refined", "wt"])?,
                want.query.weights.wt(),
            )?;
            same_doc(j, want.query.doc.raw())
        }
    }
}

fn same_doc(j: &Json, want: &[u32]) -> Result<(), String> {
    let got = j
        .get("refined")
        .and_then(|r| r.get("keywords"))
        .and_then(words_to_ids)
        .ok_or("no refined.keywords")?;
    let mut want = want.to_vec();
    want.sort_unstable();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "refined keywords {got:?}, the single tree says {want:?}"
        ))
    }
}
