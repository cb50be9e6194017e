//! Point deletion with subtree collapse.
//!
//! Deletion routes to the bucket exactly like insertion, removes the
//! object, and updates counts and MBRs on the unwind. A quadtree has no
//! rotation/rebalance machinery; instead, an internal node whose subtree
//! has shrunk to bucket size is *collapsed* back into a single leaf
//! bucket (its descendant pages become garbage, matching the
//! write-once-page economy of the rest of the crate). Empty child
//! entries are dropped from their parents. Every rewritten node, the
//! collapsed bucket included, is written back to its own page by the
//! crate's one [`Builder`](crate::build::Builder).

use crate::{build::Builder, cell_of_mbr, cell_of_point, cell_quadrant, Mbrqt};
use ann_core::node::{read_node, Entry, Node, NodeEntry};
use ann_core::tree_file::WritableIndex;
use ann_geom::{Mbr, Point};
use ann_store::{PageId, Result, StoreError, Txn};

/// Removes the object `(oid, point)`; see [`Mbrqt::delete`].
pub(crate) fn delete<const D: usize>(
    tree: &mut Mbrqt<D>,
    oid: u64,
    point: &Point<D>,
) -> Result<bool> {
    if tree.header.num_points == 0 || !tree.params.universe.contains_point(point) {
        return Ok(false);
    }
    // Like insertion, the whole removal runs inside one [`Txn`] so node
    // rewrites, collapses and the meta update land atomically or not at
    // all.
    tree.update(|tree, txn| {
        let builder = Builder::new(txn, tree.params);
        let (root, universe) = (tree.header.root, tree.params.universe);
        if remove_rec(&builder, root, universe, oid, point)?.is_none() {
            return Ok(false);
        }
        tree.header.num_points -= 1;
        // Rebuild cached dataset bounds from the root node (deletion can
        // shrink them).
        tree.header.bounds = read_node::<D>(txn, tree.header.root)?.mbr;
        Ok(true)
    })
}

/// Recursive removal below `page` (whose region is `quadrant`).
/// Returns `None` when the object was not found, otherwise the subtree's
/// new entry.
fn remove_rec<const D: usize>(
    builder: &Builder<'_, Txn<'_>, D>,
    page: PageId,
    quadrant: Mbr<D>,
    oid: u64,
    point: &Point<D>,
) -> Result<Option<NodeEntry<D>>> {
    let txn = builder.store;
    let mut node = read_node::<D>(txn, page)?;

    if node.is_leaf {
        let before = node.entries.len();
        node.entries.retain(|e| match e {
            Entry::Object(o) => !(o.oid == oid && o.point == *point),
            Entry::Node(_) => true,
        });
        if node.entries.len() == before {
            return Ok(None);
        }
        return builder.write(node, quadrant, Some(page)).map(Some);
    }

    // Route to the child cell containing the point.
    let levels = (node.aux as usize).max(1);
    let idx = cell_of_point(&quadrant, point, levels);
    let Some(at) = node
        .entries
        .iter()
        .position(|e| matches!(e, Entry::Node(n) if cell_of_mbr(&quadrant, &n.mbr, levels) == idx))
    else {
        return Ok(None);
    };
    let Entry::Node(child) = node.entries[at] else {
        return Err(StoreError::corrupt("internal node holds an object"));
    };
    let child_q = cell_quadrant(&quadrant, idx, levels);
    let Some(entry) = remove_rec(builder, child.page, child_q, oid, point)? else {
        return Ok(None);
    };
    if entry.count == 0 {
        node.entries.remove(at);
    } else {
        node.entries[at] = Entry::Node(entry);
    }

    if node.count() <= builder.params.bucket_capacity as u64 {
        // Collapse the whole subtree back into one leaf bucket.
        let objects = collect_objects(txn, &node)?;
        return builder.write_leaf(objects, quadrant, Some(page)).map(Some);
    }
    builder.write(node, quadrant, Some(page)).map(Some)
}

/// Gathers every object below `node`'s child entries.
fn collect_objects<const D: usize>(txn: &Txn<'_>, node: &Node<D>) -> Result<Vec<(u64, Point<D>)>> {
    let mut out = Vec::with_capacity(node.count() as usize);
    let mut stack: Vec<PageId> = node
        .entries
        .iter()
        .filter_map(|e| match e {
            Entry::Node(n) => Some(n.page),
            Entry::Object(_) => None,
        })
        .collect();
    while let Some(page) = stack.pop() {
        let n = read_node::<D>(txn, page)?;
        for e in &n.entries {
            match e {
                Entry::Object(o) => out.push((o.oid, o.point)),
                Entry::Node(c) => stack.push(c.page),
            }
        }
    }
    Ok(out)
}
