//! Structural invariant checks: the NXNDIST bound property, the classical
//! metric orderings, index-tree well-formedness under random mutation
//! interleavings, and journal-recovery idempotence under injected crashes.

use crate::common::{qt_cfg, rs_cfg};
use ann_core::index::validate;
use ann_core::prelude::*;
use ann_core::tree_file::WritableIndex;
use ann_core::wire::JsonValue;
use ann_datagen::{splitmix64, Rng};
use ann_geom::{
    kernels, max_max_dist_sq, min_min_dist_sq, min_min_dist_sq_within, nxn_dist_sq, Mbr, Point,
    SoaMbrs, SoaPoints,
};
use ann_mbrqt::Mbrqt;
use ann_rstar::RStar;
use ann_store::{BufferPool, FaultyDisk, InjectedFault, MemDisk, PageId, DEFAULT_KEEP, FRAME_SIZE};
use std::sync::Arc;

/// Relative slack for cross-expression-tree float comparisons (a point
/// distance and an MBR metric of the same configuration are computed
/// through different formulas and may differ by a few ulps).
const REL_EPS: f64 = 1.0e-9;

fn lattice_coord(rng: &mut Rng, scale: f64, offset: f64) -> f64 {
    rng.range(0, 9) as f64 * scale + offset
}

/// One NXNDIST property case: `S` points define the (minimum, by
/// construction) target MBR `N`; `M` is a random query box that may be
/// point-degenerate, touching, overlapping, or disjoint. Checks, for
/// sampled query points `r ∈ M`:
///
/// * `NXNDIST(M, N)` is finite, non-negative, and never NaN;
/// * `MINMINDIST(M, N) ≤ NXNDIST(M, N) ≤ MAXMAXDIST(M, N)` **exactly**;
/// * `min_{s ∈ S} dist(r, s) ≤ NXNDIST(M, N)` — the defining guarantee;
/// * `MINMINDIST(M, N) ≤ dist(r, s) ≤ MAXMAXDIST(M, N)` for all `s ∈ S`.
pub fn check_nxn_case<const D: usize>(rng: &mut Rng) -> Option<String> {
    let scale = *rng.pick(&crate::gen::SCALES);
    let offset = *rng.pick(&crate::gen::OFFSETS);
    let n_s = rng.range(1, 9);
    let s: Vec<Point<D>> = (0..n_s)
        .map(|_| {
            let mut c = [0.0; D];
            for v in c.iter_mut() {
                *v = lattice_coord(rng, scale, offset);
            }
            Point::new(c)
        })
        .collect();
    let n_mbr = Mbr::from_points(s.iter());

    // M: a lattice box; degenerate (point) per dimension with prob 1/3,
    // which also produces shared-face "touching" configurations.
    let mut lo = [0.0; D];
    let mut hi = [0.0; D];
    for d in 0..D {
        let a = lattice_coord(rng, scale, offset);
        let b = if rng.chance(1.0 / 3.0) {
            a
        } else {
            lattice_coord(rng, scale, offset)
        };
        lo[d] = a.min(b);
        hi[d] = a.max(b);
    }
    let m_mbr = Mbr::new(lo, hi);

    let nxn = nxn_dist_sq(&m_mbr, &n_mbr);
    let minmin = min_min_dist_sq(&m_mbr, &n_mbr);
    let maxmax = max_max_dist_sq(&m_mbr, &n_mbr);
    if nxn.is_nan() || nxn < 0.0 {
        return Some(format!("NXNDIST² = {nxn:?} for M={m_mbr:?} N={n_mbr:?}"));
    }
    if nxn < minmin {
        return Some(format!(
            "NXNDIST² {nxn:?} < MINMINDIST² {minmin:?} for M={m_mbr:?} N={n_mbr:?}"
        ));
    }
    if nxn > maxmax {
        return Some(format!(
            "NXNDIST² {nxn:?} > MAXMAXDIST² {maxmax:?} for M={m_mbr:?} N={n_mbr:?}"
        ));
    }

    // Query points: every corner-ish extreme plus random interior points.
    let mut queries: Vec<Point<D>> = vec![Point::new(m_mbr.lo), Point::new(m_mbr.hi)];
    for _ in 0..4 {
        let c = std::array::from_fn(|d| m_mbr.lo[d] + rng.f64() * (m_mbr.hi[d] - m_mbr.lo[d]));
        queries.push(Point::new(c));
    }
    for r in &queries {
        let mut nn = f64::INFINITY;
        for p in &s {
            let d2 = r.dist_sq(p);
            nn = nn.min(d2);
            if d2 > maxmax * (1.0 + REL_EPS) {
                return Some(format!(
                    "dist²(r, s) = {d2:?} > MAXMAXDIST² {maxmax:?} for r={r:?} s={p:?} M={m_mbr:?} N={n_mbr:?}"
                ));
            }
            if d2 * (1.0 + REL_EPS) < minmin {
                return Some(format!(
                    "dist²(r, s) = {d2:?} < MINMINDIST² {minmin:?} for r={r:?} s={p:?} M={m_mbr:?} N={n_mbr:?}"
                ));
            }
        }
        if nn > nxn * (1.0 + REL_EPS) {
            return Some(format!(
                "true NN dist² {nn:?} exceeds NXNDIST² {nxn:?} for r={r:?} M={m_mbr:?} N={n_mbr:?} S={s:?}"
            ));
        }
    }
    None
}

/// One batched-kernel bit-identity case: a random adversarial candidate
/// set (lattice shapes with duplicates/coincident points, power-of-two
/// scales, `1e8` offsets that force cancellation, degenerate boxes) is
/// laid out column-major, and every kernel in [`ann_geom::kernels`] must
/// reproduce its scalar counterpart **bit-for-bit** on every candidate —
/// the contract the batched query paths rely on for decision-identical
/// traversals.
pub fn check_kernels_case<const D: usize>(rng: &mut Rng) -> Option<String> {
    let shape = *rng.pick(&crate::gen::SHAPES);
    let scale = *rng.pick(&crate::gen::SCALES);
    let offset = *rng.pick(&crate::gen::OFFSETS);
    // Boundary sizes get extra mass; the upper range crosses several
    // LANES blocks plus a remainder.
    let n = match rng.range(0, 8) {
        0 => 0,
        1 => 1,
        _ => rng.range(2, 48),
    };
    let pts = crate::gen::points::<D>(rng, n, shape, scale, offset, 1);

    // Column-major mirror of the candidate points…
    let mut cols = vec![0.0; D * n];
    for (i, (_, p)) in pts.iter().enumerate() {
        for d in 0..D {
            cols[d * n + i] = p[d];
        }
    }
    // …and candidate boxes grown from them: degenerate (point) with
    // probability 1/3, otherwise extended by a lattice extent.
    let lo = cols.clone();
    let mut hi = cols.clone();
    for i in 0..n {
        if !rng.chance(1.0 / 3.0) {
            for d in 0..D {
                hi[d * n + i] += rng.range(0, 4) as f64 * scale;
            }
        }
    }
    let mbrs = SoaMbrs::new(n, &lo, &hi);
    let points = SoaPoints::new(n, &cols);

    // Owner box on the same lattice (point-degenerate with prob 1/3) and
    // a query point at its corner.
    let mut olo = [0.0; D];
    let mut ohi = [0.0; D];
    for d in 0..D {
        let a = lattice_coord(rng, scale, offset);
        let b = if rng.chance(1.0 / 3.0) {
            a
        } else {
            lattice_coord(rng, scale, offset)
        };
        olo[d] = a.min(b);
        ohi[d] = a.max(b);
    }
    let m = Mbr::new(olo, ohi);
    let q = Point::new(olo);

    let mut out = Vec::new();
    kernels::dist_sq_batch(&q, &points, &mut out);
    for (i, &got) in out.iter().enumerate() {
        let want = q.dist_sq(&points.point::<D>(i));
        if got.to_bits() != want.to_bits() {
            return Some(format!(
                "dist_sq_batch[{i}] = {:?} != scalar {want:?} (q={q:?} p={:?})",
                got,
                points.point::<D>(i)
            ));
        }
    }
    kernels::min_min_dist_sq_batch(&m, &mbrs, &mut out);
    for (i, &got) in out.iter().enumerate() {
        let want = min_min_dist_sq(&m, &mbrs.mbr::<D>(i));
        if got.to_bits() != want.to_bits() {
            return Some(format!(
                "min_min_dist_sq_batch[{i}] = {:?} != scalar {want:?} (m={m:?} n={:?})",
                got,
                mbrs.mbr::<D>(i)
            ));
        }
    }
    kernels::nxn_dist_sq_batch(&m, &mbrs, &mut out);
    for (i, &got) in out.iter().enumerate() {
        let want = nxn_dist_sq(&m, &mbrs.mbr::<D>(i));
        if got.to_bits() != want.to_bits() {
            return Some(format!(
                "nxn_dist_sq_batch[{i}] = {:?} != scalar {want:?} (m={m:?} n={:?})",
                got,
                mbrs.mbr::<D>(i)
            ));
        }
    }
    // `within` (the scalar early exit the scans run): it accepts exactly
    // the MINMINDISTs within the bound, bit-equal, at zero, infinite, and
    // a *realized* MINMINDIST as the bound — the exact tie is the
    // adversarial one.
    let mut bounds = vec![0.0, f64::INFINITY];
    if n > 0 {
        kernels::min_min_dist_sq_batch(&m, &mbrs, &mut out);
        bounds.push(out[rng.range(0, n)]);
    }
    for bound in bounds {
        for i in 0..n {
            let full = min_min_dist_sq(&m, &mbrs.mbr::<D>(i));
            match min_min_dist_sq_within(&m, &mbrs.mbr::<D>(i), bound) {
                Some(v) if full <= bound && v.to_bits() == full.to_bits() => {}
                None if full > bound => {}
                got => {
                    return Some(format!(
                        "min_min_dist_sq_within[{i}] = {got:?} disagrees with \
                         MINMINDIST² {full:?} at bound {bound:?}"
                    ))
                }
            }
        }
    }
    None
}

/// Grows an MBRQT by a random insert sequence, validating the full
/// structural invariant set ([`validate`]) and the object census after
/// every batch, then STR-builds an R*-tree over the same points and checks
/// it the same way. Duplicate and coincident points are deliberately
/// common (lattice coordinates).
pub fn check_tree_case<const D: usize>(rng: &mut Rng) -> Option<String> {
    let scale = *rng.pick(&crate::gen::SCALES);
    let universe = {
        let mut hi = [0.0; D];
        hi.iter_mut().for_each(|v| *v = 9.0 * scale);
        Mbr::new([0.0; D], hi)
    };
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 128));
    let mut qt = match Mbrqt::<D>::create(pool.clone(), universe, &qt_cfg()) {
        Ok(t) => t,
        Err(e) => return Some(format!("mbrqt create failed: {e:?}")),
    };

    let ops = rng.range(10, 120);
    let mut live: Vec<(u64, Point<D>)> = Vec::with_capacity(ops);
    for step in 0..ops {
        let mut c = [0.0; D];
        for v in c.iter_mut() {
            *v = rng.range(0, 9) as f64 * scale;
        }
        let p = Point::new(c);
        if let Err(e) = qt.insert(step as u64, p) {
            return Some(format!("mbrqt: insert failed at step {step}: {e:?}"));
        }
        live.push((step as u64, p));

        if step % 7 == 0 || step + 1 == ops {
            if let Some(m) = census(&qt, &live) {
                return Some(format!("mbrqt after step {step}: {m}"));
            }
        }
    }

    match RStar::<D>::bulk_build(pool, &live, &rs_cfg()) {
        Ok(rs) => census(&rs, &live).map(|m| format!("rstar: {m}")),
        Err(e) => Some(format!("rstar: STR build failed: {e:?}")),
    }
}

/// Checks `tree` against the model `live` (sorted by oid): the structural
/// invariants, the object count and the exact `(oid, point)` multiset.
fn census<const D: usize>(tree: &impl SpatialIndex<D>, live: &[(u64, Point<D>)]) -> Option<String> {
    match validate(tree) {
        Ok(shape) if shape.objects != live.len() as u64 => {
            return Some(format!(
                "{} objects, expected {}",
                shape.objects,
                live.len()
            ))
        }
        Ok(_) => {}
        Err(e) => return Some(format!("invariant violation: {e:?}")),
    }
    let mut got = match collect_objects(tree) {
        Ok(g) => g,
        Err(e) => return Some(format!("collect failed: {e:?}")),
    };
    got.sort_by_key(|(oid, _)| *oid);
    (got != live).then(|| {
        format!(
            "object census diverged: {} live vs {} expected",
            got.len(),
            live.len()
        )
    })
}

/// Crashes a create+insert sequence at a random disk operation (torn
/// write), then checks that reopening recovers a valid tree holding the
/// committed prefix — and that recovery is **idempotent**: a second
/// reopen of the same surviving media yields the identical tree. Each
/// case draws a plain or a versioned MBRQT: both reach disk through the
/// one [`ann_core::tree_file::TreeFile`].
pub fn check_recovery_case(rng: &mut Rng) -> Option<String> {
    let versioned = rng.chance(0.5);
    recovery_leg(rng, versioned).map(|m| format!("versioned={versioned}: {m}"))
}

fn recovery_leg(rng: &mut Rng, versioned: bool) -> Option<String> {
    let universe = Mbr::new([0.0, 0.0], [9.0, 9.0]);
    let n = rng.range(5, 60);
    let mut pts: Vec<(u64, Point<2>)> = Vec::with_capacity(n);
    for i in 0..n {
        pts.push((
            i as u64,
            Point::new([rng.range(0, 9) as f64, rng.range(0, 9) as f64]),
        ));
    }
    // The workload, over a disk that may crash under it: counts the
    // inserts that committed, and records the manifest head once a caller
    // could have persisted it (versioning enabled *and* flushed).
    let workload = |fd: &Arc<FaultyDisk<Arc<MemDisk>>>,
                    inserted: &mut u64,
                    head: &mut Option<PageId>|
     -> ann_store::Result<()> {
        let pool = Arc::new(BufferPool::new(Arc::clone(fd), 8));
        let mut tree = Mbrqt::create(Arc::clone(&pool), universe, &qt_cfg())?;
        if versioned {
            let manifest = tree.enable_versioning(DEFAULT_KEEP)?;
            pool.flush_all()?;
            *head = Some(manifest);
        }
        for &(oid, p) in &pts {
            tree.insert(oid, p)?;
            *inserted += 1;
        }
        Ok(())
    };

    // Ops a healthy run consumes, to place the crash inside the sequence.
    let healthy = Arc::new(FaultyDisk::unlimited(Arc::new(MemDisk::new())));
    workload(&healthy, &mut 0, &mut None).expect("healthy run");
    let crash_op = 1 + rng.next_u64() % healthy.op_count().max(1);

    let mem = Arc::new(MemDisk::new());
    let fd = Arc::new(FaultyDisk::unlimited(Arc::clone(&mem)));
    fd.inject_at(
        crash_op,
        InjectedFault::TornWrite {
            persist: (splitmix64(crash_op) as usize) % FRAME_SIZE,
        },
    );
    let (mut inserted, mut head) = (0u64, None);
    if workload(&fd, &mut inserted, &mut head).is_ok() {
        // The injected op landed after the workload finished; vacuous.
        return None;
    }

    let reopen = |mem: &Arc<MemDisk>| -> Result<u64, String> {
        let pool = Arc::new(BufferPool::new(Arc::clone(mem), 64));
        match Mbrqt::<2>::open_at(pool, 0, head) {
            Ok(tree) => match validate(&tree) {
                Ok(shape) => Ok(shape.objects),
                Err(e) => Err(format!("recovered tree fails validation: {e:?}")),
            },
            Err(e) => Err(format!("open failed: {e:?}")),
        }
    };
    match reopen(&mem) {
        Ok(objects) => {
            // Each insert is one atomic journal commit: recovery must land
            // on the successful prefix, or prefix + 1 when the crash hit
            // after the commit point.
            if objects != inserted && objects != inserted + 1 {
                return Some(format!(
                    "crash at op {crash_op}: recovered {objects} objects, expected {inserted} or {}",
                    inserted + 1
                ));
            }
            // Idempotence: recovering again must not change the tree.
            match reopen(&mem) {
                Ok(second) if second == objects => None,
                Ok(second) => Some(format!(
                    "crash at op {crash_op}: second recovery saw {second} objects, first saw {objects}"
                )),
                Err(e) => Some(format!(
                    "crash at op {crash_op}: second recovery failed after first succeeded: {e}"
                )),
            }
        }
        Err(e) => {
            // Only acceptable when nothing was ever durably committed.
            if inserted == 0 {
                None
            } else {
                Some(format!(
                    "crash at op {crash_op} after {inserted} inserts: {e}"
                ))
            }
        }
    }
}

/// One wire-schema property case. Three sub-properties per case:
///
/// * a fuzz-generated [`QuerySpec`] survives `to_json → from_json` as the
///   identity, and re-serializing is byte-stable;
/// * a [`QueryOutcome`] whose distances are random *bit patterns*
///   (excluding NaN) round-trips every `f64` bit-exactly, and every wire
///   counter, drawn over the full `u64` range, exactly;
/// * a randomly corrupted spec document never panics the parser — it
///   either parses (the corruption landed in a don't-care spot) or
///   returns a structured [`WireError`].
pub fn check_wire_case(rng: &mut Rng) -> Option<String> {
    use ann_core::mba::{Expansion, Traversal};
    use ann_core::stats::NeighborPair;
    use ann_core::wire::{QueryOutcome, QuerySpec, WireError};

    // -- spec round-trip --------------------------------------------------
    let mut threads = 1;
    let algorithm = match rng.range(0, 5) {
        0 => Algorithm::mba(),
        1 => {
            let mba = Algorithm::Mba {
                traversal: *rng.pick(&[Traversal::DepthFirst, Traversal::BreadthFirst]),
                expansion: *rng.pick(&[Expansion::Bidirectional, Expansion::Unidirectional]),
            };
            threads = rng.range(0, 9);
            mba
        }
        2 => Algorithm::Bnn {
            group_size: rng.range(1, 5000),
        },
        3 => Algorithm::Mnn,
        _ => Algorithm::Hnn {
            avg_cell_occupancy: rng.f64() * 16.0 + 1e-3,
        },
    };
    let mut spec = QuerySpec::new(algorithm);
    spec.threads = threads;
    spec.k = rng.range(0, 1 << 20);
    spec.exclude_self = rng.chance(0.5);
    spec.metric = *rng.pick(&[MetricChoice::Nxn, MetricChoice::MaxMax]);
    if rng.chance(0.4) {
        spec.deadline_in = Some(std::time::Duration::from_millis(rng.next_u64() % 1_000_000));
    }
    if rng.chance(0.4) {
        spec.io_budget = Some(rng.next_u64() % 1_000_000);
    }
    if rng.chance(0.4) {
        spec.visit_budget = Some(rng.next_u64() % 1_000_000);
    }
    if rng.chance(0.3) {
        spec.retry = Some(RetryPolicy {
            max_attempts: rng.range(1, 8) as u32,
            backoff: std::time::Duration::from_millis(rng.next_u64() % 500),
        });
    }
    let json = spec.to_json();
    match QuerySpec::from_json(&json) {
        Ok(back) if back != spec => {
            return Some(format!("spec round-trip changed the spec: {json}"));
        }
        Ok(back) if back.to_json() != json => {
            return Some(format!("spec re-serialization not byte-stable: {json}"));
        }
        Ok(_) => {}
        Err(e) => return Some(format!("spec failed to re-parse ({e}): {json}")),
    }

    // -- outcome f64 bit-exactness ----------------------------------------
    let results: Vec<NeighborPair> = (0..rng.range(0, 24))
        .map(|i| {
            let dist = loop {
                let candidate = f64::from_bits(rng.next_u64());
                if !candidate.is_nan() {
                    break candidate;
                }
            };
            NeighborPair {
                r_oid: i as u64,
                s_oid: rng.next_u64(),
                dist,
            }
        })
        .collect();
    // Every counter over the full u64 range.
    let mut stats = AnnStats::default();
    let draw = |rng: &mut Rng| match rng.range(0, 4) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.next_u64(),
    };
    for (_, counter) in stats.counters_mut() {
        *counter = draw(rng);
    }
    for (_, counter) in stats.io.counters_mut() {
        *counter = draw(rng);
    }
    let outcome = QueryOutcome {
        results: results.clone(),
        stats,
        report: None,
        version: match rng.next_u64() % 3 {
            0 => None,
            _ => Some((rng.next_u64() % 1000 + 1) as u32),
        },
    };
    let outcome_json = outcome.to_json();
    let back = match QueryOutcome::from_json(&outcome_json) {
        Ok(b) => b,
        Err(e) => return Some(format!("outcome failed to re-parse ({e}): {outcome_json}")),
    };
    if back.stats != outcome.stats {
        return Some(format!(
            "outcome counters drifted over the wire: {:?} != {:?}",
            outcome.stats, back.stats
        ));
    }
    if back.results.len() != results.len() {
        return Some(format!(
            "outcome round-trip changed pair count: {} != {}",
            back.results.len(),
            results.len()
        ));
    }
    for (orig, parsed) in results.iter().zip(&back.results) {
        if orig.dist.to_bits() != parsed.dist.to_bits()
            || orig.r_oid != parsed.r_oid
            || orig.s_oid != parsed.s_oid
        {
            return Some(format!(
                "outcome pair drifted over the wire: {orig:?} != {parsed:?}"
            ));
        }
    }

    // -- corpus: trailing bytes are a hard parse error ---------------------
    // Anything non-whitespace after the top-level value must be rejected
    // outright (a lenient parser here would let a concatenated or
    // truncated-then-continued document smuggle in a second payload).
    let suffix = *rng.pick(&["1", "{}", "null", "x", ",", "\"\"", "[]"]);
    let trailing = format!("{json}{}{suffix}", if rng.chance(0.5) { " " } else { "" });
    if QuerySpec::from_json(&trailing).is_ok() {
        return Some(format!("parser accepted trailing bytes: {trailing}"));
    }
    if JsonValue::parse(&trailing).is_ok() {
        return Some(format!("JsonValue accepted trailing bytes: {trailing}"));
    }

    // -- corpus: duplicate object keys are a hard parse error --------------
    // Duplicating the leading "v" key of the valid document must fail
    // (last-wins parsing would let an attacker shadow checked fields).
    let dup = format!("{{\"v\":1,{}", &json[1..]);
    if QuerySpec::from_json(&dup).is_ok() {
        return Some(format!("parser accepted duplicate keys: {dup}"));
    }
    let dup_nested = "{\"a\":{\"x\":1,\"x\":2}}";
    if JsonValue::parse(dup_nested).is_ok() {
        return Some(format!(
            "JsonValue accepted nested duplicate keys: {dup_nested}"
        ));
    }

    // -- parser robustness under corruption --------------------------------
    // Splice random printable bytes into the valid document; the parser
    // must return a structured error or a valid spec, never panic (a
    // panic escapes to the fuzz driver's catch_unwind and is reported).
    let mut corrupted: Vec<u8> = json.clone().into_bytes();
    for _ in 0..rng.range(1, 6) {
        let pos = rng.range(0, corrupted.len());
        corrupted[pos] = b' ' + (rng.next_u64() % 95) as u8;
    }
    let corrupted = String::from_utf8(corrupted).expect("ascii splice keeps utf-8");
    if let Err(e @ WireError::UnsupportedVersion(v)) = QuerySpec::from_json(&corrupted) {
        // Corrupting the body must not smuggle in a *newer* version than
        // the splice could have written (v is a single corrupted digit).
        if v > 9 {
            return Some(format!(
                "corruption produced absurd version: {e}: {corrupted}"
            ));
        }
    }

    // -- report writer: the pretty `Display` parses back -------------------
    // `parse(to_string(v)) == v` for arbitrary documents (full-range
    // integers, every escape class, any float bit pattern), except that a
    // non-finite number is written as `null`.
    let (doc, expected) = arbitrary_json(rng, 0);
    let text = doc.to_string();
    match JsonValue::parse(&text) {
        Ok(back) if back == expected => None,
        Ok(back) => Some(format!(
            "writer round-trip changed {doc:?} into {back:?}: {text}"
        )),
        Err(e) => Some(format!("writer output failed to parse ({e}): {text}")),
    }
}

/// A random JSON document and what it must parse back to once written.
fn arbitrary_json(rng: &mut Rng, depth: usize) -> (JsonValue, JsonValue) {
    let same = |v: JsonValue| (v.clone(), v);
    match rng.range(0, if depth < 3 { 7 } else { 5 }) {
        0 => same(JsonValue::Null),
        1 => same(JsonValue::Bool(rng.chance(0.5))),
        2 => {
            let any = rng.next_u64();
            same(JsonValue::Int(*rng.pick(&[0, 1, u64::MAX, any])))
        }
        3 => {
            let n = f64::from_bits(rng.next_u64());
            let back = if n.is_finite() {
                JsonValue::Num(n)
            } else {
                JsonValue::Null
            };
            (JsonValue::Num(n), back)
        }
        4 => same(JsonValue::Str(arbitrary_string(rng))),
        5 => {
            let (items, back) = (0..rng.range(0, 4))
                .map(|_| arbitrary_json(rng, depth + 1))
                .unzip();
            (JsonValue::Arr(items), JsonValue::Arr(back))
        }
        _ => {
            // Keys are numbered: a duplicate key is a parse error.
            let (fields, back) = (0..rng.range(0, 4))
                .map(|i| {
                    let key = format!("{i}{}", arbitrary_string(rng));
                    let (value, back) = arbitrary_json(rng, depth + 1);
                    ((key.clone(), value), (key, back))
                })
                .unzip();
            (JsonValue::Obj(fields), JsonValue::Obj(back))
        }
    }
}

/// Up to seven characters drawn from every class the writer escapes or
/// passes through: quotes, backslashes, control characters, ASCII, and
/// multi-byte code points.
fn arbitrary_string(rng: &mut Rng) -> String {
    const ALPHABET: &[char] = &[
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', ' ', 'a', 'Z', '0', 'é',
        '→', '😀',
    ];
    (0..rng.range(0, 8)).map(|_| *rng.pick(ALPHABET)).collect()
}
