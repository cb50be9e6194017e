//! Differential checking: every [`Algorithm`] variant, driven through the
//! unified `ann_core::query::run` entrypoint, must reproduce brute force
//! **byte for byte** — same neighbor ids, bit-identical distances — under
//! the canonical tie-break (per query, ascending `(distance, s_oid)`).

use crate::common::{panic_text, qt_cfg, rs_cfg};
use crate::gen::DiffCase;
use ann_core::brute::brute_force_aknn;
use ann_core::mba::{Expansion, Traversal};
use ann_core::prelude::*;
use ann_core::stats::NeighborPair;
use ann_mbrqt::Mbrqt;
use ann_rstar::RStar;
use ann_store::{BufferPool, MemDisk};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The `(algorithm, worker count)` variants a case is checked against.
pub fn variants<const D: usize>(case: &DiffCase<D>) -> Vec<(Algorithm, usize)> {
    vec![
        (Algorithm::mba(), 1),
        (
            Algorithm::Mba {
                traversal: Traversal::BreadthFirst,
                expansion: Expansion::Unidirectional,
            },
            1,
        ),
        (Algorithm::mba(), 2),
        (
            Algorithm::Bnn {
                group_size: case.group_size,
            },
            1,
        ),
        (Algorithm::Mnn, 1),
        (
            Algorithm::Hnn {
                avg_cell_occupancy: case.avg_cell_occupancy,
            },
            1,
        ),
    ]
}

/// Canonically sorted brute-force ground truth.
pub fn truth<const D: usize>(case: &DiffCase<D>) -> Vec<NeighborPair> {
    let mut t = brute_force_aknn(&case.r, &case.s, case.k, case.exclude_self);
    t.sort_by(|a, b| {
        (a.r_oid, a.dist, a.s_oid)
            .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
            .expect("finite distances")
    });
    t
}

/// A confirmed divergence (or panic) of one variant on one case.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// `"<algorithm> <metric> [points-input]"`.
    pub label: String,
    /// First mismatching position, counts, or the panic payload.
    pub detail: String,
    /// Index into [`variants`] — used to re-run the loser under a tracer.
    pub variant: usize,
    pub metric: MetricChoice,
}

fn compare(got: &mut AnnOutput, want: &[NeighborPair], label: &str) -> Option<String> {
    got.sort();
    if got.results.len() != want.len() {
        return Some(format!(
            "{label}: {} results, brute force has {}",
            got.results.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.results.iter().zip(want).enumerate() {
        if g.r_oid != w.r_oid || g.s_oid != w.s_oid || g.dist.to_bits() != w.dist.to_bits() {
            return Some(format!(
                "{label}: result[{i}] got (r={}, s={}, d={:?}), want (r={}, s={}, d={:?})",
                g.r_oid, g.s_oid, g.dist, w.r_oid, w.s_oid, w.dist
            ));
        }
    }
    None
}

fn run_variant<const D: usize>(
    case: &DiffCase<D>,
    ir: &Mbrqt<D>,
    is: &RStar<D>,
    (alg, threads): (Algorithm, usize),
    metric: MetricChoice,
) -> std::thread::Result<QueryResult<AnnOutput>> {
    catch_unwind(AssertUnwindSafe(|| {
        AnnRequest::new(alg)
            .threads(threads)
            .k(case.k)
            .exclude_self(case.exclude_self)
            .metric(metric)
            .run(Input::Index(ir), Input::Index(is))
    }))
}

/// Builds the indexes for a case (MBRQT on `R`, R*-tree on `S` — mixed on
/// purpose; the entrypoint is generic per side).
pub fn build_indexes<const D: usize>(case: &DiffCase<D>) -> (Mbrqt<D>, RStar<D>) {
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 128));
    let ir = Mbrqt::bulk_build(pool.clone(), &case.r, &qt_cfg()).expect("build R index");
    let is = RStar::bulk_build(pool, &case.s, &rs_cfg()).expect("build S index");
    (ir, is)
}

/// Checks one case against every variant × metric; `None` means all of
/// them matched brute force exactly.
pub fn check_case<const D: usize>(case: &DiffCase<D>) -> Option<Divergence> {
    let want = truth(case);
    let (ir, is) = build_indexes(case);
    for (vi, variant) in variants(case).into_iter().enumerate() {
        for metric in [MetricChoice::Nxn, MetricChoice::MaxMax] {
            let label = format!("{} {:?}", variant.0.name(), metric);
            let fail = |detail: String| Divergence {
                label: label.clone(),
                detail,
                variant: vi,
                metric,
            };
            match run_variant(case, &ir, &is, variant, metric) {
                Err(e) => return Some(fail(format!("panicked: {}", panic_text(&*e)))),
                Ok(Err(e)) => return Some(fail(format!("returned Err: {e:?}"))),
                Ok(Ok(mut got)) => {
                    if let Some(d) = compare(&mut got, &want, &label) {
                        return Some(fail(d));
                    }
                }
            }
        }
    }
    // The index-free input paths: HNN with raw points on both sides, BNN
    // with raw points on the query side.
    let hnn = Algorithm::Hnn {
        avg_cell_occupancy: case.avg_cell_occupancy,
    };
    let res = catch_unwind(AssertUnwindSafe(|| {
        AnnRequest::new(hnn)
            .k(case.k)
            .exclude_self(case.exclude_self)
            .run(
                Input::<D, NoIndex>::Points(&case.r),
                Input::<D, NoIndex>::Points(&case.s),
            )
    }));
    let hnn_div = |detail: String| Divergence {
        label: "hnn points-input".to_string(),
        detail,
        variant: 5,
        metric: MetricChoice::Nxn,
    };
    match res {
        Err(e) => return Some(hnn_div(format!("panicked: {}", panic_text(&*e)))),
        Ok(Err(e)) => return Some(hnn_div(format!("returned Err: {e:?}"))),
        Ok(Ok(mut got)) => {
            if let Some(d) = compare(&mut got, &want, "hnn points-input") {
                return Some(hnn_div(d));
            }
        }
    }
    let bnn = Algorithm::Bnn {
        group_size: case.group_size,
    };
    let res = catch_unwind(AssertUnwindSafe(|| {
        AnnRequest::new(bnn)
            .k(case.k)
            .exclude_self(case.exclude_self)
            .run(Input::<D, NoIndex>::Points(&case.r), Input::Index(&is))
    }));
    let bnn_div = |detail: String| Divergence {
        label: "bnn points-input".to_string(),
        detail,
        variant: 3,
        metric: MetricChoice::Nxn,
    };
    match res {
        Err(e) => Some(bnn_div(format!("panicked: {}", panic_text(&*e)))),
        Ok(Err(e)) => Some(bnn_div(format!("returned Err: {e:?}"))),
        Ok(Ok(mut got)) => compare(&mut got, &want, "bnn points-input").map(bnn_div),
    }
}

/// Re-runs the diverging variant with a recording sink and returns the
/// `ExecutionReport` JSON — the forensic artifact for a bug report.
pub fn trace_divergence<const D: usize>(case: &DiffCase<D>, div: &Divergence) -> String {
    let (ir, is) = build_indexes(case);
    let (alg, threads) = variants(case)[div.variant.min(variants(case).len() - 1)];
    let sink = RecordingSink::new();
    let res = catch_unwind(AssertUnwindSafe(|| {
        AnnRequest::new(alg)
            .threads(threads)
            .k(case.k)
            .exclude_self(case.exclude_self)
            .metric(div.metric)
            .trace(&sink)
            .run(Input::Index(&ir), Input::Index(&is))
    }));
    let _ = res;
    sink.report(alg.name()).to_json()
}
