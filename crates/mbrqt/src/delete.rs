//! Point deletion with subtree collapse.
//!
//! Deletion routes to the bucket exactly like insertion, removes the
//! object, and updates counts and MBRs on the unwind. A quadtree has no
//! rotation/rebalance machinery; instead, an internal node whose subtree
//! has shrunk to bucket size is *collapsed* back into a single leaf
//! bucket (its descendant pages become garbage, matching the
//! write-once-page economy of the rest of the crate). Empty child
//! entries are dropped from their parents.

use crate::{cell_of_mbr, cell_of_point, Mbrqt};
use ann_core::node::{read_node, write_node, Entry, Node, NodeEntry, ObjectEntry};
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
        let (root, universe) = (tree.header.root, tree.params.universe);
        if remove_rec(tree, txn, root, universe, oid, point)?.is_none() {
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
/// new `(count, tight_mbr)`.
fn remove_rec<const D: usize>(
    tree: &Mbrqt<D>,
    txn: &Txn<'_>,
    page: PageId,
    quadrant: Mbr<D>,
    oid: u64,
    point: &Point<D>,
) -> Result<Option<(u64, Mbr<D>)>> {
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
        node.recompute_mbr();
        let count = node.entries.len() as u64;
        let mbr = node.mbr;
        write_node(txn, page, &node)?;
        return Ok(Some((count, mbr)));
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
    let child_q = crate::cell_quadrant(&quadrant, idx, levels);
    let Some((count, mbr)) = remove_rec(tree, txn, child.page, child_q, oid, point)? else {
        return Ok(None);
    };

    if count == 0 {
        node.entries.remove(at);
    } else {
        node.entries[at] = Entry::Node(NodeEntry {
            page: child.page,
            count,
            mbr: if tree.params.use_subtree_mbrs {
                mbr
            } else {
                child_q
            },
        });
    }

    let total = node.count();
    if total <= tree.params.bucket_capacity as u64 {
        // Collapse the whole subtree back into one leaf bucket.
        let mut objects: Vec<ObjectEntry<D>> = Vec::with_capacity(total as usize);
        collect_objects(txn, &node, &mut objects)?;
        let mut leaf = Node::empty_leaf();
        leaf.entries = objects.into_iter().map(Entry::Object).collect();
        leaf.recompute_mbr();
        let count = leaf.entries.len() as u64;
        let mbr = leaf.mbr;
        write_node(txn, page, &leaf)?;
        return Ok(Some((count, mbr)));
    }

    node.recompute_mbr();
    let mbr = node.mbr;
    write_node(txn, page, &node)?;
    Ok(Some((total, mbr)))
}

/// Gathers every object below `node`'s child entries.
fn collect_objects<const D: usize>(
    txn: &Txn<'_>,
    node: &Node<D>,
    out: &mut Vec<ObjectEntry<D>>,
) -> Result<()> {
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
                Entry::Object(o) => out.push(*o),
                Entry::Node(c) => stack.push(c.page),
            }
        }
    }
    Ok(())
}
