//! Scaffolding every class shares: the small-node index configs, the
//! cold-start helper, panic payload text and the canonical output forms.

use ann_core::prelude::*;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_rstar::{RStar, RStarConfig};
use ann_store::BufferPool;

/// Small-node MBRQT config so even tens of points span several pages —
/// otherwise queries never touch the disk and no fault can fire.
pub fn qt_cfg() -> MbrqtConfig {
    MbrqtConfig {
        bucket_capacity: 8,
        ..Default::default()
    }
}

/// Small-node R*-tree config, for the same reason as [`qt_cfg`].
pub fn rs_cfg() -> RStarConfig {
    RStarConfig {
        max_leaf_entries: 8,
        max_internal_entries: 4,
    }
}

/// Makes the next run genuinely cold: drops the decoded-node caches both
/// indexes keep (which otherwise serve repeat traversals without any
/// pool traffic) and evicts every pool frame, so a scheduled fault has a
/// real disk-operation sequence to land in.
pub fn chill<const D: usize>(
    pool: &BufferPool,
    ir: &Mbrqt<D>,
    is: &RStar<D>,
) -> ann_store::Result<()> {
    if let Some(c) = ir.node_cache() {
        c.clear();
    }
    if let Some(c) = is.node_cache() {
        c.clear();
    }
    pool.clear()
}

/// The message of a caught panic.
pub fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Result bytes in canonical order: `(r_oid, s_oid, dist bits)`.
pub fn canonical_pairs(out: &AnnOutput) -> Vec<(u64, u64, u64)> {
    let mut o = out.clone();
    o.sort();
    o.results
        .iter()
        .map(|p| (p.r_oid, p.s_oid, p.dist.to_bits()))
        .collect()
}

/// The decision content of an output: results in canonical order plus the
/// work counters with the I/O block zeroed. Retries and cache state
/// legitimately differ between a faulted and a clean run; the *decisions*
/// (expansions, distance computations, neighbors) must not.
pub fn decisions(out: &AnnOutput) -> (Vec<NeighborPair>, AnnStats) {
    let mut o = out.clone();
    o.sort();
    let mut stats = o.stats;
    stats.io = Default::default();
    (o.results, stats)
}
