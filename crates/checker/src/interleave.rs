//! MVCC interleaving checks: versioned commits racing pinned readers.
//!
//! Each case drives one versioned MBRQT (the one index kind that takes
//! writes) through a random insert schedule while reader snapshots are
//! pinned, held across later commits, and verified against a shadow
//! model of **exactly the point set their version saw**. With `keep` of
//! 2–6 versions, the schedule also retires versions and reuses their
//! pages:
//!
//! * a pinned [`ReadContext`]'s object census and ANN query answers are
//!   byte-identical to brute force over its version's model point set,
//!   no matter how many commits landed after the pin;
//! * an aborted transaction (an out-of-universe MBRQT insert) leaves the
//!   latest version and the census untouched, and a cold query over the
//!   latest version still equals brute force over the model;
//! * versions below the GC floor reject new pins with
//!   `VersionNotRetained`, while already-pinned stragglers stay readable;
//! * the decoded-node cache never holds entries below the retire floor
//!   after a mutation ([`NodeCache::stale_len`] stays zero);
//! * a free-running writer racing threaded readers (each pin → census →
//!   release) never produces a torn read: every snapshot's census length
//!   equals its own pinned meta count;
//! * when every pin is released: `pinned_readers() == 0`.

use crate::common::qt_cfg;
use ann_core::brute::brute_force_aknn;
use ann_core::index::{collect_objects, validate, SpatialIndex};
use ann_core::prelude::*;
use ann_core::snapshot::{ReadContext, VersionedHandle};
use ann_core::stats::NeighborPair;
use ann_geom::{Mbr, Point};
use ann_mbrqt::Mbrqt;
use ann_store::{BufferPool, MemDisk, StoreError};
use std::collections::BTreeMap;
use std::sync::Arc;

use ann_datagen::Rng;

/// A reader pinned at some past commit, with the model of what it saw.
struct PinnedReader {
    ctx: ReadContext<2>,
    model: BTreeMap<u64, Point<2>>,
    pinned_at_step: usize,
}

/// One interleave case; `None` means every invariant held.
pub fn check_interleave_case(rng: &mut Rng) -> Option<String> {
    let scale = *rng.pick(&crate::gen::SCALES);
    let hi = 9.0 * scale;
    let universe = Mbr::new([0.0, 0.0], [hi, hi]);
    let keep = rng.range(2, 7) as u32;
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 192));
    // A fixed halving domain: inserts outside the universe must fail.
    let tree = Mbrqt::<2>::create(Arc::clone(&pool), universe, &qt_cfg());
    run_case(rng, tree, keep, &pool, scale).map(|m| format!("keep={keep}: {m}"))
}

fn run_case(
    rng: &mut Rng,
    created: ann_store::Result<Mbrqt<2>>,
    keep: u32,
    pool: &Arc<BufferPool>,
    scale: f64,
) -> Option<String> {
    let mut tree = match created {
        Ok(t) => t,
        Err(e) => return Some(format!("create failed: {e:?}")),
    };
    if let Err(e) = tree.enable_versioning(keep) {
        return Some(format!("enable_versioning failed: {e:?}"));
    }
    let handle = tree.versioned_handle().expect("versioning enabled");
    let store = Arc::clone(tree.versioned_store().expect("versioning enabled"));
    let mut live: BTreeMap<u64, Point<2>> = BTreeMap::new();
    let mut next_oid = 0u64;
    let mut pinned: Vec<PinnedReader> = Vec::new();

    // -- scripted interleaving: commits with pins held across them -------
    let ops = rng.range(12, 48);
    for step in 0..ops {
        let p = Point::new([
            rng.range(0, 9) as f64 * scale,
            rng.range(0, 9) as f64 * scale,
        ]);
        let oid = next_oid;
        next_oid += 1;
        if let Err(e) = tree.insert(oid, p) {
            return Some(format!("insert failed at step {step}: {e:?}"));
        }
        live.insert(oid, p);

        // Satellite invariant: no mutation may strand retired-version
        // entries in the decoded-node cache.
        if let Some(cache) = tree.node_cache() {
            let stale = cache.stale_len();
            if stale != 0 {
                return Some(format!(
                    "{stale} stale node-cache entries after step {step}"
                ));
            }
        }

        // Pin a reader at the state this commit produced; it will be
        // verified after later commits have overwritten the latest tree.
        if rng.chance(0.3) {
            match handle.pin(None) {
                Ok(ctx) => pinned.push(PinnedReader {
                    ctx,
                    model: live.clone(),
                    pinned_at_step: step,
                }),
                Err(e) => return Some(format!("pin at step {step} failed: {e:?}")),
            }
        }
        // Release (after verifying) a random straggler mid-run.
        if !pinned.is_empty() && rng.chance(0.15) {
            let idx = rng.range(0, pinned.len());
            let reader = pinned.swap_remove(idx);
            if let Some(m) = verify_pinned(rng, &reader) {
                return Some(m);
            }
        }
    }

    // -- abort path: a failed txn changes nothing --------------------------
    let latest_before = store.latest();
    let outside = Point::new([20.0 * scale, 20.0 * scale]);
    if tree.insert(next_oid, outside).is_ok() {
        return Some("out-of-universe insert was accepted".to_string());
    }
    if store.latest() != latest_before {
        return Some(format!(
            "aborted insert advanced the version: {} -> {}",
            latest_before,
            store.latest()
        ));
    }
    match collect_objects(&tree) {
        Ok(census) => {
            if census.len() != live.len() {
                return Some(format!(
                    "aborted insert changed the census: {} vs {}",
                    census.len(),
                    live.len()
                ));
            }
        }
        Err(e) => return Some(format!("census after abort failed: {e:?}")),
    }
    if let Some(c) = tree.node_cache() {
        c.clear();
    }
    if let Err(e) = pool.clear() {
        return Some(format!("clear after abort failed: {e:?}"));
    }
    let reader = match handle.pin(None) {
        Ok(ctx) => PinnedReader {
            ctx,
            model: live.clone(),
            pinned_at_step: ops,
        },
        Err(e) => return Some(format!("pin after abort failed: {e:?}")),
    };
    if let Some(m) = verify_pinned(rng, &reader) {
        return Some(format!("cold re-run after aborted insert: {m}"));
    }
    drop(reader);

    // -- GC floor: unpinned history rejects, stragglers survive ------------
    let floor = store.version_floor();
    if floor > 1 {
        let dead = floor - 1;
        if !store.retained().contains(&dead) {
            match handle.pin(Some(dead)) {
                Err(StoreError::VersionNotRetained(v)) if v == dead => {}
                Err(e) => return Some(format!("pin of GC'd version {dead} failed oddly: {e:?}")),
                Ok(_) => return Some(format!("pinned GC'd version {dead}")),
            }
        }
    }

    // -- every surviving pin reads its own past, byte for byte -------------
    for reader in &pinned {
        if let Some(m) = verify_pinned(rng, reader) {
            return Some(m);
        }
    }
    // The live tree still validates and matches the current model.
    match validate(&tree) {
        Ok(shape) => {
            if shape.objects != live.len() as u64 {
                return Some(format!(
                    "live tree census {} != model {}",
                    shape.objects,
                    live.len()
                ));
            }
        }
        Err(e) => return Some(format!("live tree failed validation: {e:?}")),
    }

    drop(pinned);
    store.gc();
    if store.pinned_readers() != 0 {
        return Some(format!(
            "{} reader pins leaked after all contexts dropped",
            store.pinned_readers()
        ));
    }

    // -- threaded: free-running writer vs pin/census/release readers -------
    if let Some(m) = threaded_race(rng, &mut tree, &handle, &mut live, &mut next_oid, scale) {
        return Some(m);
    }
    None
}

/// Census + query check of one pinned reader against its model.
fn verify_pinned(rng: &mut Rng, reader: &PinnedReader) -> Option<String> {
    let step = reader.pinned_at_step;
    let want: Vec<(u64, Point<2>)> = reader.model.iter().map(|(&o, &p)| (o, p)).collect();

    let mut got = match collect_objects(&reader.ctx) {
        Ok(g) => g,
        Err(e) => return Some(format!("pinned census (step {step}) failed: {e:?}")),
    };
    got.sort_by_key(|(oid, _)| *oid);
    if got != want {
        return Some(format!(
            "pinned snapshot (step {step}, version {}) census diverged: {} objects vs {} expected",
            reader.ctx.version(),
            got.len(),
            want.len()
        ));
    }
    if want.is_empty() {
        return None;
    }

    // Self-join ANN over the pinned view must equal brute force over the
    // model — bit-identical distances under the canonical tie-break.
    let k = rng.range(1, 4);
    let exclude_self = rng.chance(0.5);
    let algorithm = match rng.range(0, 3) {
        0 => Algorithm::mba(),
        1 => Algorithm::Bnn { group_size: 4 },
        _ => Algorithm::Mnn,
    };
    let mut truth = brute_force_aknn(&want, &want, k, exclude_self);
    truth.sort_by(|a, b| {
        (a.r_oid, a.dist, a.s_oid)
            .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
            .expect("finite distances")
    });
    let run = AnnRequest::new(algorithm)
        .k(k)
        .exclude_self(exclude_self)
        .run(Input::Index(&reader.ctx), Input::Index(&reader.ctx));
    let mut out = match run {
        Ok(out) => out,
        Err(e) => {
            return Some(format!(
                "query over pinned snapshot (step {step}) failed: {e:?}"
            ))
        }
    };
    out.sort();
    compare_pairs(&out.results, &truth).map(|m| {
        format!(
            "pinned snapshot (step {step}, version {}, {} k={k} exclude_self={exclude_self}): {m}",
            reader.ctx.version(),
            algorithm.name()
        )
    })
}

fn compare_pairs(got: &[NeighborPair], want: &[NeighborPair]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!(
            "{} results, brute force has {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.r_oid != w.r_oid || g.s_oid != w.s_oid || g.dist.to_bits() != w.dist.to_bits() {
            return Some(format!(
                "result[{i}] got (r={}, s={}, d={:?}), want (r={}, s={}, d={:?})",
                g.r_oid, g.s_oid, g.dist, w.r_oid, w.s_oid, w.dist
            ));
        }
    }
    None
}

/// Readers pin/census/release in their own threads while the writer
/// commits in this one. Without a shared model (the point of the race),
/// the torn-read oracle is *internal* consistency: each snapshot's
/// census must match its own pinned meta count exactly, and every point
/// must be one the writer could have written.
fn threaded_race(
    rng: &mut Rng,
    tree: &mut Mbrqt<2>,
    handle: &VersionedHandle<2>,
    live: &mut BTreeMap<u64, Point<2>>,
    next_oid: &mut u64,
    scale: f64,
) -> Option<String> {
    const READERS: usize = 3;
    let commits = rng.range(12, 30);
    let mut seeds = [0u64; READERS];
    seeds.iter_mut().for_each(|s| *s = rng.next_u64());

    let reader_fail = std::thread::scope(|scope| -> Option<String> {
        let handles: Vec<_> = (0..READERS)
            .map(|t| {
                let handle = handle.clone();
                let seed = seeds[t];
                scope.spawn(move || -> Option<String> {
                    let mut rng = Rng::new(seed);
                    for round in 0..20 {
                        let ctx = match handle.pin(None) {
                            Ok(c) => c,
                            Err(e) => return Some(format!("reader pin failed: {e:?}")),
                        };
                        let census = match collect_objects(&ctx) {
                            Ok(c) => c,
                            Err(e) => {
                                return Some(format!(
                                    "reader census of version {} failed: {e:?}",
                                    ctx.version()
                                ))
                            }
                        };
                        if census.len() as u64 != ctx.num_points() {
                            return Some(format!(
                                "torn read: version {} census {} != pinned meta count {} \
                                 (round {round})",
                                ctx.version(),
                                census.len(),
                                ctx.num_points()
                            ));
                        }
                        for (oid, p) in &census {
                            let on_lattice = p.0.iter().all(|c| {
                                let cell = c / scale;
                                (0.0..=9.0).contains(&cell) && cell.fract() == 0.0
                            });
                            if !on_lattice {
                                return Some(format!(
                                    "torn read: version {} holds corrupt point {:?} (oid {oid})",
                                    ctx.version(),
                                    p
                                ));
                            }
                        }
                        if rng.chance(0.3) {
                            std::thread::yield_now();
                        }
                    }
                    None
                })
            })
            .collect();

        // The writer: commits race the pins above.
        let mut writer_fail = None;
        for step in 0..commits {
            let p = Point::new([
                rng.range(0, 9) as f64 * scale,
                rng.range(0, 9) as f64 * scale,
            ]);
            let oid = *next_oid;
            *next_oid += 1;
            if let Err(e) = tree.insert(oid, p) {
                writer_fail = Some(format!("racing insert failed at step {step}: {e:?}"));
                break;
            }
            live.insert(oid, p);
        }

        for h in handles {
            let fail = h
                .join()
                .unwrap_or_else(|_| Some("reader panicked".to_string()));
            if writer_fail.is_none() {
                writer_fail = fail;
            }
        }
        writer_fail
    });
    if reader_fail.is_some() {
        return reader_fail;
    }

    let store = handle.store();
    if store.pinned_readers() != 0 {
        return Some(format!(
            "{} reader pins leaked after the threaded race",
            store.pinned_readers()
        ));
    }
    // Final state is exactly what the writer committed.
    let mut got = match collect_objects(tree) {
        Ok(g) => g,
        Err(e) => return Some(format!("post-race census failed: {e:?}")),
    };
    got.sort_by_key(|(oid, _)| *oid);
    let want: Vec<(u64, Point<2>)> = live.iter().map(|(&o, &p)| (o, p)).collect();
    if got != want {
        return Some(format!(
            "post-race census diverged: {} objects vs {} expected",
            got.len(),
            want.len()
        ));
    }
    None
}
