//! Incremental point insertion.

use crate::{build::Builder, cell_of_mbr, cell_of_point, cell_quadrant, Mbrqt};
use ann_core::node::{read_node, write_node, Entry, Node, NodeEntry, ObjectEntry};
use ann_core::tree_file::WritableIndex;
use ann_geom::{Mbr, Point};
use ann_store::{PageStore, Result, StoreError, Txn};

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
        let (root, universe) = (tree.header.root, tree.params.universe);
        descend(tree, txn, root, universe, 0, oid, point)?;
        tree.header.num_points += 1;
        tree.header.bounds.expand_point(&point);
        Ok(())
    })
}

/// Recursively routes the point down to its bucket, splitting overflowing
/// buckets, and rewrites every node on the path (counts and MBRs change).
/// Returns the subtree's new `(count, tight_mbr)`.
fn descend<const D: usize>(
    tree: &Mbrqt<D>,
    txn: &Txn<'_>,
    page: ann_store::PageId,
    quadrant: Mbr<D>,
    depth: usize,
    oid: u64,
    point: Point<D>,
) -> Result<(u64, Mbr<D>)> {
    let mut node = read_node::<D>(txn, page)?;

    if node.is_leaf {
        node.entries.push(Entry::Object(ObjectEntry { oid, point }));
        if node.entries.len() > tree.params.bucket_capacity && depth < tree.params.max_depth {
            // Split: rebuild this bucket as an internal node whose children
            // come from the same top-down builder the bulk path uses.
            let mut points: Vec<(u64, Point<D>)> = node
                .entries
                .iter()
                .map(|e| match e {
                    Entry::Object(o) => (o.oid, o.point),
                    Entry::Node(_) => unreachable!("leaf holds objects only"),
                })
                .collect();
            let mut builder = Builder {
                store: txn,
                bucket_capacity: tree.params.bucket_capacity,
                levels_per_node: tree.params.levels_per_node,
                max_depth: tree.params.max_depth,
                use_subtree_mbrs: tree.params.use_subtree_mbrs,
                level_tally: None,
            };
            let levels = builder.pick_levels::<D>(points.len(), depth);
            let mut parts: Vec<(usize, Vec<(u64, Point<D>)>)> = Vec::new();
            for (o, p) in points.drain(..) {
                let idx = cell_of_point(&quadrant, &p, levels);
                match parts.binary_search_by_key(&idx, |(i, _)| *i) {
                    Ok(at) => parts[at].1.push((o, p)),
                    Err(at) => parts.insert(at, (idx, vec![(o, p)])),
                }
            }
            let mut internal = Node {
                is_leaf: false,
                aux: 0,
                mbr: Mbr::empty(),
                entries: Vec::with_capacity(parts.len()),
            };
            for (idx, mut part) in parts {
                let child_q = cell_quadrant(&quadrant, idx, levels);
                let entry = builder.build(&mut part, child_q, depth + levels, 0)?;
                internal.entries.push(Entry::Node(entry));
            }
            internal.recompute_mbr();
            internal.aux = levels as u8;
            let count = internal.count();
            let tight = tight_mbr_of(&internal);
            write_node(txn, page, &internal)?;
            return Ok((count, tight));
        }
        node.recompute_mbr();
        let count = node.entries.len() as u64;
        let tight = node.mbr;
        write_node(txn, page, &node)?;
        return Ok((count, tight));
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

    match target {
        Some(at) => {
            let Entry::Node(child) = node.entries[at] else {
                unreachable!()
            };
            let child_q = cell_quadrant(&quadrant, idx, levels);
            let (count, tight) =
                descend(tree, txn, child.page, child_q, depth + levels, oid, point)?;
            node.entries[at] = Entry::Node(NodeEntry {
                page: child.page,
                count,
                mbr: if tree.params.use_subtree_mbrs {
                    tight
                } else {
                    child_q
                },
            });
        }
        None => {
            // Fresh cell: a one-point leaf.
            let child_q = cell_quadrant(&quadrant, idx, levels);
            let leaf_page = txn.allocate()?;
            let mut leaf = Node::empty_leaf();
            leaf.entries.push(Entry::Object(ObjectEntry { oid, point }));
            leaf.recompute_mbr();
            let tight = leaf.mbr;
            write_node(txn, leaf_page, &leaf)?;
            node.entries.push(Entry::Node(NodeEntry {
                page: leaf_page,
                count: 1,
                mbr: if tree.params.use_subtree_mbrs {
                    tight
                } else {
                    child_q
                },
            }));
        }
    }

    node.recompute_mbr();
    let count = node.count();
    let tight = tight_mbr_of(&node);
    write_node(txn, page, &node)?;
    Ok((count, tight))
}

/// The tight MBR of a node: equals `node.mbr` when entries carry tight
/// MBRs; in the plain-quadrant ablation the caller never uses tight MBRs,
/// so the loose union is acceptable there.
fn tight_mbr_of<const D: usize>(node: &Node<D>) -> Mbr<D> {
    node.mbr
}
