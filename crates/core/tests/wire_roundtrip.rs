//! Wire-schema gates for the serving API (DESIGN.md §14):
//!
//! * **golden fixtures** — one pinned JSON document per `Algorithm` ×
//!   `MetricChoice` combination. These bytes are the v1 wire contract;
//!   a diff here means the schema changed and `WIRE_SCHEMA_VERSION`
//!   must be bumped (see the rule on the constant).
//! * **property round-trip** — for fuzz-generated specs,
//!   `QuerySpec → to_json → from_json` is the identity and re-serializing
//!   is byte-stable (the serving differential test leans on this).
//! * **`f64` transit** — distances survive JSON bit-exactly.
//! * **error-surface stability** — numeric codes and HTTP statuses are
//!   frozen; renumbering is a breaking wire change.
//! * **`AnnRequest` Debug completeness** — server request logs must show
//!   the resilience fields (the PR 7 omission this PR fixes).

use std::time::{Duration, Instant};

use ann_core::mba::{Expansion, Traversal};
use ann_core::prelude::*;
use ann_core::resilience::CancelToken;
use ann_core::stats::NeighborPair;
use ann_datagen::Rng;

fn arbitrary_spec(rng: &mut Rng) -> QuerySpec {
    let algorithm = match rng.next_u64() % 5 {
        0 => Algorithm::mba(),
        1 => Algorithm::Mba {
            traversal: *rng.pick(&[Traversal::DepthFirst, Traversal::BreadthFirst]),
            expansion: *rng.pick(&[Expansion::Bidirectional, Expansion::Unidirectional]),
            threads: *rng.pick(&[0, 1, 2, 8]),
        },
        2 => Algorithm::Bnn {
            group_size: *rng.pick(&[1, 4, 4096]),
        },
        3 => Algorithm::Mnn,
        _ => Algorithm::Hnn {
            avg_cell_occupancy: *rng.pick(&[0.5, 1.0, 8.0, 1e-3]),
        },
    };
    let mut spec = QuerySpec::new(algorithm);
    spec.k = *rng.pick(&[0, 1, 2, 17, usize::MAX >> 11]);
    spec.exclude_self = rng.chance(0.5);
    spec.metric = *rng.pick(&[MetricChoice::Nxn, MetricChoice::MaxMax]);
    if rng.chance(0.4) {
        spec.deadline_ms = Some(rng.next_u64() % 1_000_000);
    }
    if rng.chance(0.4) {
        spec.io_budget = Some(rng.next_u64() % 100_000);
    }
    if rng.chance(0.4) {
        spec.visit_budget = Some(rng.next_u64() % 100_000);
    }
    if rng.chance(0.3) {
        spec.retry = Some(RetryPolicy {
            max_attempts: (rng.next_u64() % 7 + 1) as u32,
            backoff: Duration::from_millis(rng.next_u64() % 500),
        });
    }
    if rng.chance(0.4) {
        spec.version = Some((rng.next_u64() % 10_000 + 1) as u32);
    }
    spec
}

#[test]
fn property_round_trip_is_identity_and_byte_stable() {
    let mut rng = Rng::new(0xC0FFEE);
    for case in 0..2000 {
        let spec = arbitrary_spec(&mut rng);
        let json = spec.to_json();
        let back = QuerySpec::from_json(&json)
            .unwrap_or_else(|e| panic!("case {case}: parse failed: {e}\n{json}"));
        assert_eq!(back, spec, "case {case}: round-trip changed the spec");
        assert_eq!(
            back.to_json(),
            json,
            "case {case}: re-serialization not byte-stable"
        );
    }
}

/// The v1 golden fixtures: every `Algorithm` shape × both metrics. These
/// exact bytes are what v1 clients send; changing any of them requires a
/// `WIRE_SCHEMA_VERSION` bump.
#[test]
fn golden_fixtures_per_algorithm_and_metric() {
    let algorithms: Vec<(Algorithm, &str)> = vec![
        (
            Algorithm::mba(),
            r#""algorithm":{"name":"mba","traversal":"depth-first","expansion":"bidirectional","threads":1}"#,
        ),
        (
            Algorithm::Mba {
                traversal: Traversal::BreadthFirst,
                expansion: Expansion::Unidirectional,
                threads: 8,
            },
            r#""algorithm":{"name":"mba","traversal":"breadth-first","expansion":"unidirectional","threads":8}"#,
        ),
        (
            Algorithm::Bnn { group_size: 4096 },
            r#""algorithm":{"name":"bnn","group_size":4096}"#,
        ),
        (Algorithm::Mnn, r#""algorithm":{"name":"mnn"}"#),
        (
            Algorithm::Hnn {
                avg_cell_occupancy: 8.0,
            },
            r#""algorithm":{"name":"hnn","avg_cell_occupancy":8.0}"#,
        ),
    ];
    for (algorithm, alg_json) in algorithms {
        for (metric, metric_name) in [(MetricChoice::Nxn, "nxn"), (MetricChoice::MaxMax, "maxmax")]
        {
            let mut spec = QuerySpec::new(algorithm);
            spec.metric = metric;
            spec.k = 2;
            spec.exclude_self = true;
            let expected = format!(
                "{{\"v\":1,{alg_json},\"metric\":\"{metric_name}\",\"k\":2,\"exclude_self\":true}}"
            );
            assert_eq!(spec.to_json(), expected, "golden fixture drifted");
            let parsed = QuerySpec::from_json(&expected).expect("golden fixture must parse");
            assert_eq!(parsed, spec);
        }
    }
}

#[test]
fn golden_fixture_with_all_optional_fields() {
    let mut spec = QuerySpec::new(Algorithm::mba());
    spec.k = 3;
    spec.deadline_ms = Some(1500);
    spec.io_budget = Some(10_000);
    spec.visit_budget = Some(50_000);
    spec.retry = Some(RetryPolicy {
        max_attempts: 3,
        backoff: Duration::from_millis(10),
    });
    let expected = concat!(
        "{\"v\":1,",
        "\"algorithm\":{\"name\":\"mba\",\"traversal\":\"depth-first\",",
        "\"expansion\":\"bidirectional\",\"threads\":1},",
        "\"metric\":\"nxn\",\"k\":3,\"exclude_self\":false,",
        "\"deadline_ms\":1500,\"io_budget\":10000,\"visit_budget\":50000,",
        "\"retry\":{\"max_attempts\":3,\"backoff_ms\":10}}"
    );
    assert_eq!(spec.to_json(), expected);
    assert_eq!(QuerySpec::from_json(expected).expect("parses"), spec);
}

#[test]
fn newer_schema_versions_are_rejected() {
    let json = QuerySpec::default()
        .to_json()
        .replacen("\"v\":1", "\"v\":2", 1);
    match QuerySpec::from_json(&json) {
        Err(WireError::UnsupportedVersion(2)) => {}
        other => panic!("expected UnsupportedVersion(2), got {other:?}"),
    }
}

#[test]
fn outcome_distances_survive_json_bit_exactly() {
    let awkward = [
        0.1 + 0.2,
        1.0 / 3.0,
        f64::MIN_POSITIVE,
        5e-324, // subnormal
        1.7976931348623157e308,
        123456789.12345679,
        0.0,
    ];
    let outcome = QueryOutcome {
        results: awkward
            .iter()
            .enumerate()
            .map(|(i, &d)| NeighborPair {
                r_oid: i as u64,
                s_oid: i as u64 + 1,
                dist: d,
            })
            .collect(),
        stats: AnnStats::default(),
        report: None,
        version: Some(3),
    };
    let json = outcome.to_json();
    let back = QueryOutcome::from_json(&json).expect("outcome parses");
    assert_eq!(back.results.len(), awkward.len());
    for (orig, parsed) in outcome.results.iter().zip(&back.results) {
        assert_eq!(
            orig.dist.to_bits(),
            parsed.dist.to_bits(),
            "distance {} lost bits over the wire",
            orig.dist
        );
    }
}

/// Numeric error codes and their HTTP mappings are frozen wire contract.
#[test]
fn error_codes_and_http_statuses_are_stable() {
    let table: [(ErrorCode, u16, u16, &str); 12] = [
        (ErrorCode::BadRequest, 1000, 400, "bad-request"),
        (ErrorCode::Cancelled, 1001, 499, "cancelled"),
        (ErrorCode::DeadlineExceeded, 1002, 504, "deadline-exceeded"),
        (
            ErrorCode::VisitBudgetExhausted,
            1003,
            422,
            "visit-budget-exhausted",
        ),
        (
            ErrorCode::IoBudgetExhausted,
            1004,
            422,
            "io-budget-exhausted",
        ),
        (ErrorCode::StorageFailed, 1005, 500, "storage-failed"),
        (
            ErrorCode::CollectionNotFound,
            2000,
            404,
            "collection-not-found",
        ),
        (ErrorCode::CollectionExists, 2001, 409, "collection-exists"),
        (
            ErrorCode::InvalidCollection,
            2002,
            400,
            "invalid-collection",
        ),
        (ErrorCode::Overloaded, 3000, 429, "overloaded"),
        (ErrorCode::ShuttingDown, 3001, 503, "shutting-down"),
        (ErrorCode::Internal, 5000, 500, "internal"),
    ];
    for (code, num, status, label) in table {
        assert_eq!(code.code(), num, "{code:?} renumbered");
        assert_eq!(code.http_status(), status, "{code:?} HTTP status changed");
        assert_eq!(code.label(), label, "{code:?} label changed");
    }
}

/// The PR 7 resilience fields must all appear in `AnnRequest`'s Debug
/// output — server request logs print it.
#[test]
fn ann_request_debug_includes_resilience_fields() {
    let token = CancelToken::new();
    token.cancel();
    let req = AnnRequest::new(Algorithm::mba())
        .k(2)
        .deadline(Instant::now() + Duration::from_secs(5))
        .cancel_token(token)
        .io_budget(123)
        .visit_budget(456)
        .retry(RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(7),
        });
    let dbg = format!("{req:?}");
    for needle in [
        "deadline_in",
        "cancellable: true",
        "cancelled: true",
        "io_budget: Some(123)",
        "visit_budget: Some(456)",
        "max_attempts: 3",
        "traced: false",
    ] {
        assert!(
            dbg.contains(needle),
            "Debug output missing {needle:?}: {dbg}"
        );
    }
}

/// Request → spec → request preserves every wire-visible field.
#[test]
fn request_spec_conversions_are_lossless() {
    let req = AnnRequest::new(Algorithm::Bnn { group_size: 7 })
        .k(4)
        .exclude_self(true)
        .metric(MetricChoice::MaxMax)
        .io_budget(1000)
        .visit_budget(2000)
        .retry(RetryPolicy {
            max_attempts: 2,
            backoff: Duration::from_millis(1),
        });
    let spec = QuerySpec::from(&req);
    let back: AnnRequest<'static> = AnnRequest::from(&spec);
    assert_eq!(back.k, req.k);
    assert_eq!(back.exclude_self, req.exclude_self);
    assert_eq!(back.metric, req.metric);
    assert_eq!(back.algorithm, req.algorithm);
    assert_eq!(back.io_budget, req.io_budget);
    assert_eq!(back.visit_budget, req.visit_budget);
    assert_eq!(back.retry, req.retry);
}
