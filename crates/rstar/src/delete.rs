//! R\*-tree deletion (the classic Guttman/Beckmann *CondenseTree*
//! treatment): locate the leaf, remove the entry, dissolve underfull
//! nodes on the way up and re-insert their orphaned entries, and shrink
//! the root when it degenerates to a single child.

use crate::insert::insert_entry_at_level;
use crate::RStar;
use ann_core::node::{read_node, write_node, Entry, NodeEntry};
use ann_core::tree_file::WritableIndex;
use ann_geom::{Mbr, Point};
use ann_store::{PageId, Result, StoreError, Txn};

/// Removes the object `(oid, point)`; see [`RStar::delete`].
///
/// Returns `false` (tree untouched) when no such object exists.
pub(crate) fn delete<const D: usize>(
    tree: &mut RStar<D>,
    oid: u64,
    point: &Point<D>,
) -> Result<bool> {
    if tree.header.num_points == 0 {
        return Ok(false);
    }
    // Like insertion, the whole removal — entry removal, CondenseTree
    // re-insertions, root shrinking and the meta update — runs inside one
    // [`Txn`] so it lands atomically or not at all.
    tree.update(|tree, txn| {
        // Orphaned entries to re-insert, each with its target level.
        let mut orphans: Vec<(Entry<D>, u32)> = Vec::new();
        let (root, root_level) = (tree.header.root, tree.params.height - 1);
        if remove_rec(tree, txn, root, root_level, oid, point, &mut orphans)?.is_none() {
            return Ok(false);
        }
        tree.header.num_points -= 1;

        // Re-insert orphans (entries of dissolved nodes keep their level).
        let mut reinsert_done = vec![true; tree.params.height as usize + 2]; // no forced reinsert here
        while let Some((entry, level)) = orphans.pop() {
            insert_entry_at_level(tree, txn, entry, level, &mut reinsert_done, &mut orphans)?;
        }

        // Shrink a degenerate root: an internal root with one child makes
        // the child the new root.
        loop {
            let root = read_node::<D>(txn, tree.header.root)?;
            if !root.is_leaf && root.entries.len() == 1 {
                let Entry::Node(only) = root.entries[0] else {
                    return Err(StoreError::corrupt("internal node holds an object"));
                };
                tree.header.root = only.page;
                tree.params.height -= 1;
            } else {
                break;
            }
        }

        // Rebuild the cached dataset bounds (deletion can shrink them).
        tree.header.bounds = read_node::<D>(txn, tree.header.root)?.mbr;
        Ok(true)
    })
}

/// Recursive removal. Returns `None` when the object was not found below
/// `page`; otherwise `Some((count, mbr, dissolved))` where `dissolved`
/// means the node fell under minimum fill, its surviving entries were
/// moved to the orphan list, and the parent must drop its child entry.
#[allow(clippy::type_complexity)]
fn remove_rec<const D: usize>(
    tree: &RStar<D>,
    txn: &Txn<'_>,
    page: PageId,
    level: u32,
    oid: u64,
    point: &Point<D>,
    orphans: &mut Vec<(Entry<D>, u32)>,
) -> Result<Option<(u64, Mbr<D>, bool)>> {
    let mut node = read_node::<D>(txn, page)?;
    let is_root = level == tree.params.height - 1;

    if node.is_leaf {
        let before = node.entries.len();
        node.entries.retain(|e| match e {
            Entry::Object(o) => !(o.oid == oid && o.point == *point),
            Entry::Node(_) => true,
        });
        if node.entries.len() == before {
            return Ok(None);
        }
        debug_assert_eq!(node.entries.len() + 1, before, "oids are unique");
        let min = tree.min_entries(true);
        if !is_root && node.entries.len() < min {
            // Dissolve: survivors re-insert at leaf level.
            for e in node.entries.drain(..) {
                orphans.push((e, 0));
            }
            // The page becomes garbage; the parent drops its entry.
            return Ok(Some((0, Mbr::empty(), true)));
        }
        node.recompute_mbr();
        let count = node.entries.len() as u64;
        let mbr = node.mbr;
        write_node(txn, page, &node)?;
        return Ok(Some((count, mbr, false)));
    }

    // Internal: descend into every child whose MBR contains the point
    // (R-tree MBRs overlap, so several candidates are possible).
    for at in 0..node.entries.len() {
        let Entry::Node(child) = node.entries[at] else {
            return Err(StoreError::corrupt("internal node holds an object"));
        };
        if !child.mbr.contains_point(point) {
            continue;
        }
        let Some((count, mbr, dissolved)) =
            remove_rec(tree, txn, child.page, level - 1, oid, point, orphans)?
        else {
            continue;
        };
        if dissolved {
            node.entries.remove(at);
        } else {
            node.entries[at] = Entry::Node(NodeEntry {
                page: child.page,
                count,
                mbr,
            });
        }
        let min = tree.min_entries(false);
        if !is_root && node.entries.len() < min {
            // Dissolve this internal node too: its child entries were
            // held at this node's level, so they re-insert with the same
            // target level (the target names the level of the *holding*
            // node, matching the insertion path's convention).
            for e in node.entries.drain(..) {
                orphans.push((e, level));
            }
            return Ok(Some((0, Mbr::empty(), true)));
        }
        node.recompute_mbr();
        let count = node.count();
        let mbr = node.mbr;
        write_node(txn, page, &node)?;
        return Ok(Some((count, mbr, false)));
    }
    Ok(None)
}
