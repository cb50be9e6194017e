//! Incremental point insertion.
//!
//! An insert routes the point to its bucket and rewrites every node on
//! the path in place through the crate's one
//! [`Builder`](crate::build::Builder); a bucket that overflows becomes,
//! on the same page, the internal node the bulk build would have made of
//! its points.

use crate::{build::Builder, cell_of_mbr, cell_of_point, cell_quadrant, Mbrqt, MAX_DEPTH};
use ann_core::node::{read_node, Entry, NodeEntry, ObjectEntry};
use ann_core::tree_file::WritableIndex;
use ann_geom::{Mbr, Point};
use ann_store::{PageId, Result, StoreError, Txn};

/// Inserts one point; see [`Mbrqt::insert`].
///
/// The whole update — every rewritten node page plus the meta page — runs
/// inside one [`Txn`] (`WritableIndex::update`), so it reaches disk
/// atomically: a crash (or an injected fault) anywhere before the commit
/// point leaves the on-disk tree exactly as it was.
pub(crate) fn insert<const D: usize>(tree: &mut Mbrqt<D>, oid: u64, point: Point<D>) -> Result<()> {
    if !point.is_finite() {
        return Err(StoreError::corrupt("points must have finite coordinates"));
    }
    if !tree.params.universe.contains_point(&point) {
        return Err(StoreError::corrupt("point lies outside the universe"));
    }
    tree.update(|tree, txn| {
        let mut builder = Builder::new(txn, tree.params);
        let (root, universe) = (tree.header.root, tree.params.universe);
        descend(&mut builder, root, universe, 0, oid, point)?;
        tree.header.num_points += 1;
        tree.header.bounds.expand_point(&point);
        Ok(())
    })
}

/// Recursively routes the point down to its bucket, splitting an
/// overflowing bucket, and rewrites every node on the path (counts and
/// MBRs change). Returns the subtree's new entry.
fn descend<const D: usize>(
    builder: &mut Builder<'_, Txn<'_>, D>,
    page: PageId,
    quadrant: Mbr<D>,
    depth: usize,
    oid: u64,
    point: Point<D>,
) -> Result<NodeEntry<D>> {
    let txn = builder.store;
    let mut node = read_node::<D>(txn, page)?;

    if node.is_leaf {
        node.entries.push(Entry::Object(ObjectEntry { oid, point }));
        if node.entries.len() > builder.params.bucket_capacity && depth < MAX_DEPTH {
            // Split: this bucket's page becomes an internal node whose
            // children come from the bulk build's rule.
            let points = node
                .entries
                .iter()
                .map(|e| match e {
                    Entry::Object(o) => (o.oid, o.point),
                    Entry::Node(_) => unreachable!("leaf holds objects only"),
                })
                .collect();
            return builder.split(points, quadrant, depth, 0, Some(page));
        }
        return builder.write(node, quadrant, Some(page));
    }

    // Internal node: route to (or create) the child cell, at the packing
    // granularity this node was built with (persisted in the aux byte).
    let levels = (node.aux as usize).max(1);
    let idx = cell_of_point(&quadrant, &point, levels);
    let mut target: Option<usize> = None;
    for (at, e) in node.entries.iter().enumerate() {
        let Entry::Node(n) = e else {
            return Err(StoreError::corrupt("internal node holds an object"));
        };
        if cell_of_mbr(&quadrant, &n.mbr, levels) == idx {
            target = Some(at);
            break;
        }
    }

    let child_q = cell_quadrant(&quadrant, idx, levels);
    match target {
        Some(at) => {
            let Entry::Node(child) = node.entries[at] else {
                unreachable!()
            };
            let entry = descend(builder, child.page, child_q, depth + levels, oid, point)?;
            node.entries[at] = Entry::Node(entry);
        }
        // Fresh cell: a one-point leaf.
        None => {
            let entry = builder.write_leaf([(oid, point)], child_q)?;
            node.entries.push(Entry::Node(entry));
        }
    }
    builder.write(node, quadrant, Some(page))
}
