//! R\*-tree insertion: ChooseSubtree, overflow treatment (forced
//! reinsertion), and the R\* split.

use crate::RStar;
use ann_core::node::{read_node, write_node, Entry, Node, NodeEntry};
use ann_core::tree_file::WritableIndex;
use ann_geom::{Mbr, Point};
use ann_store::{PageId, PageStore, Result, StoreError, Txn};

/// Share of an overflowing node's entries (percent) that forced
/// reinsertion evicts (the R\* paper's recommendation).
const REINSERT_PERCENT: usize = 30;

/// Inserts one point; see [`RStar::insert`].
///
/// The whole update — every rewritten node page, any split or reinsertion
/// fallout, and the meta page — runs inside one [`Txn`]
/// (`WritableIndex::update`), so it reaches disk atomically: a crash (or an
/// injected fault) anywhere before the commit point leaves the on-disk
/// tree exactly as it was.
pub(crate) fn insert<const D: usize>(tree: &mut RStar<D>, oid: u64, point: Point<D>) -> Result<()> {
    if !point.is_finite() {
        return Err(StoreError::corrupt("points must have finite coordinates"));
    }
    tree.update(|tree, txn| {
        let entry = Entry::Object(ann_core::node::ObjectEntry { oid, point });
        // Forced reinsertion fires at most once per level per logical insert.
        let mut reinsert_done = vec![false; tree.params.height as usize + 2];
        // Pending (entry, target level) work items; reinserted orphans append.
        let mut pending: Vec<(Entry<D>, u32)> = vec![(entry, 0)];
        while let Some((e, level)) = pending.pop() {
            insert_entry_at_level(tree, txn, e, level, &mut reinsert_done, &mut pending)?;
        }
        tree.header.num_points += 1;
        tree.header.bounds.expand_point(&point);
        Ok(())
    })
}

/// Places `entry` into some node at `target_level`, handling splits up to
/// and including the root. Shared with deletion, which re-inserts the
/// surviving entries of dissolved nodes through the same path.
pub(crate) fn insert_entry_at_level<const D: usize>(
    tree: &mut RStar<D>,
    txn: &Txn<'_>,
    entry: Entry<D>,
    target_level: u32,
    reinsert_done: &mut Vec<bool>,
    pending: &mut Vec<(Entry<D>, u32)>,
) -> Result<()> {
    let root_level = tree.params.height - 1;
    let outcome = descend(
        tree,
        txn,
        tree.header.root,
        root_level,
        entry,
        target_level,
        reinsert_done,
        pending,
    )?;
    if let Some(sibling) = outcome.split {
        // Root split: grow the tree by one level.
        let old_root_entry = NodeEntry {
            page: tree.header.root,
            count: outcome.count,
            mbr: outcome.mbr,
        };
        let mut new_root = Node {
            is_leaf: false,
            aux: 0,
            mbr: Mbr::empty(),
            entries: vec![Entry::Node(old_root_entry), Entry::Node(sibling)],
        };
        new_root.recompute_mbr();
        let page = txn.allocate()?;
        write_node(txn, page, &new_root)?;
        tree.header.root = page;
        tree.params.height += 1;
        reinsert_done.push(false);
    }
    Ok(())
}

/// What a recursive insertion step reports back to its parent.
struct StepOutcome<const D: usize> {
    /// Updated subtree cardinality.
    count: u64,
    /// Updated subtree MBR.
    mbr: Mbr<D>,
    /// A new sibling produced by a split, to be added to the parent.
    split: Option<NodeEntry<D>>,
}

// One recursive step: where it is (tree, txn, page, level), what it places
// (entry, target level) and the insertion's two work lists.
#[allow(clippy::too_many_arguments)]
fn descend<const D: usize>(
    tree: &RStar<D>,
    txn: &Txn<'_>,
    page: PageId,
    level: u32,
    entry: Entry<D>,
    target_level: u32,
    reinsert_done: &mut Vec<bool>,
    pending: &mut Vec<(Entry<D>, u32)>,
) -> Result<StepOutcome<D>> {
    let mut node = read_node::<D>(txn, page)?;

    if level == target_level {
        node.entries.push(entry);
    } else {
        let at = choose_subtree(&node, &entry.mbr(), level)?;
        let Entry::Node(child) = node.entries[at] else {
            return Err(StoreError::corrupt("internal node holds an object"));
        };
        let outcome = descend(
            tree,
            txn,
            child.page,
            level - 1,
            entry,
            target_level,
            reinsert_done,
            pending,
        )?;
        node.entries[at] = Entry::Node(NodeEntry {
            page: child.page,
            count: outcome.count,
            mbr: outcome.mbr,
        });
        if let Some(sibling) = outcome.split {
            node.entries.push(Entry::Node(sibling));
        }
    }

    let max = tree.max_entries(node.is_leaf);
    if node.entries.len() <= max {
        node.recompute_mbr();
        let count = node.count();
        let mbr = node.mbr;
        write_node(txn, page, &node)?;
        return Ok(StepOutcome {
            count,
            mbr,
            split: None,
        });
    }

    // Overflow treatment (R* §4.3): the first overflow on each non-root
    // level triggers forced reinsertion; later overflows (and the root)
    // split.
    let is_root = level == tree.params.height - 1;
    let lvl = level as usize;
    if !is_root && reinsert_done.get(lvl) == Some(&false) {
        reinsert_done[lvl] = true;
        let evicted = forced_reinsert_victims(&mut node, max * REINSERT_PERCENT / 100);
        node.recompute_mbr();
        let count = node.count();
        let mbr = node.mbr;
        write_node(txn, page, &node)?;
        // Evictees are farthest-first; pushing them in that order onto the
        // LIFO work list re-inserts the nearest one first (close reinsert).
        for e in evicted {
            pending.push((e, level));
        }
        return Ok(StepOutcome {
            count,
            mbr,
            split: None,
        });
    }

    // Split.
    let min = tree.min_entries(node.is_leaf);
    let (keep, moved) = rstar_split(std::mem::take(&mut node.entries), min);
    node.entries = keep;
    node.recompute_mbr();
    let count = node.count();
    let mbr = node.mbr;
    write_node(txn, page, &node)?;

    let mut sibling = Node {
        is_leaf: node.is_leaf,
        aux: 0,
        mbr: Mbr::empty(),
        entries: moved,
    };
    sibling.recompute_mbr();
    let sib_page = txn.allocate()?;
    write_node(txn, sib_page, &sibling)?;

    Ok(StepOutcome {
        count,
        mbr,
        split: Some(NodeEntry {
            page: sib_page,
            count: sibling.count(),
            mbr: sibling.mbr,
        }),
    })
}

/// R\* ChooseSubtree: among `node`'s children pick the best host for an
/// entry with MBR `embr`. At the level just above the leaves the criterion
/// is minimum *overlap* enlargement; higher up, minimum *area* enlargement
/// (ties: smaller area).
fn choose_subtree<const D: usize>(node: &Node<D>, embr: &Mbr<D>, level: u32) -> Result<usize> {
    if node.entries.is_empty() {
        return Err(StoreError::corrupt("cannot route into an empty node"));
    }
    let children_are_leaves = level == 1;
    let mut best = 0usize;
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (i, e) in node.entries.iter().enumerate() {
        let mbr = e.mbr();
        let enlarged = mbr.union(embr);
        let area = mbr.volume();
        let area_enlargement = enlarged.volume() - area;
        let overlap_enlargement = if children_are_leaves {
            let mut delta = 0.0;
            for (j, other) in node.entries.iter().enumerate() {
                if i == j {
                    continue;
                }
                let om = other.mbr();
                delta += enlarged.intersection_volume(&om) - mbr.intersection_volume(&om);
            }
            delta
        } else {
            0.0
        };
        let key = if children_are_leaves {
            (overlap_enlargement, area_enlargement, area)
        } else {
            (area_enlargement, area, 0.0)
        };
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    Ok(best)
}

/// Removes the `p` entries whose centers lie farthest from the node's
/// center and returns them nearest-first (the R\* "close reinsert" order).
fn forced_reinsert_victims<const D: usize>(node: &mut Node<D>, p: usize) -> Vec<Entry<D>> {
    let p = p.clamp(1, node.entries.len() - 1);
    let center = Mbr::from_entries(&node.entries).center();
    // (distance from node center, entry index)
    let mut order: Vec<(f64, usize)> = node
        .entries
        .iter()
        .enumerate()
        .map(|(i, e)| (e.mbr().center().dist_sq(&center), i))
        .collect();
    order.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
    let victim_idx: Vec<usize> = order.iter().take(p).map(|&(_, i)| i).collect();
    let victims: Vec<Entry<D>> = victim_idx.iter().map(|&i| node.entries[i]).collect();
    let victim_set: std::collections::HashSet<usize> = victim_idx.into_iter().collect();
    let mut keep = Vec::with_capacity(node.entries.len() - p);
    for (i, e) in node.entries.drain(..).enumerate() {
        if !victim_set.contains(&i) {
            keep.push(e);
        }
    }
    node.entries = keep;
    // Victims stay farthest-first: the caller pushes them onto a LIFO work
    // list, so the nearest evictee is re-inserted first ("close reinsert").
    victims
}

/// The R\* split: returns `(group_1, group_2)` of an overflowing entry set.
///
/// Split axis: the axis minimizing the total margin over all candidate
/// distributions (considering both lower- and upper-bound sort orders).
/// Split index: the distribution on that axis with least overlap between
/// the two group MBRs (ties: least combined area).
pub(crate) fn rstar_split<const D: usize>(
    entries: Vec<Entry<D>>,
    min: usize,
) -> (Vec<Entry<D>>, Vec<Entry<D>>) {
    let total = entries.len();
    debug_assert!(total >= 2 * min, "split needs at least 2*min entries");

    // For each axis and each of the two sort keys, evaluate all legal
    // distributions.
    let mut best_axis = 0usize;
    let mut best_axis_margin = f64::INFINITY;
    let mut sorted_by: Vec<Vec<Entry<D>>> = Vec::with_capacity(2 * D);
    for axis in 0..D {
        for upper in [false, true] {
            let mut v = entries.clone();
            v.sort_by(|a, b| {
                let (ka, kb) = if upper {
                    (a.mbr().hi[axis], b.mbr().hi[axis])
                } else {
                    (a.mbr().lo[axis], b.mbr().lo[axis])
                };
                ka.partial_cmp(&kb).expect("finite")
            });
            sorted_by.push(v);
        }
        let mut margin_sum = 0.0;
        for v in &sorted_by[2 * axis..2 * axis + 2] {
            for split_at in min..=(total - min) {
                let g1 = Mbr::from_entries(&v[..split_at]);
                let g2 = Mbr::from_entries(&v[split_at..]);
                margin_sum += g1.margin() + g2.margin();
            }
        }
        if margin_sum < best_axis_margin {
            best_axis_margin = margin_sum;
            best_axis = axis;
        }
    }

    // Pick the distribution on the winning axis. Margin is the final
    // tie-break: with degenerate (zero-volume) MBRs — e.g. collinear
    // points — overlap and area are all zero and margin is the only
    // discriminating measure.
    let mut best: Option<(f64, f64, f64, usize, usize)> = None;
    for (s, v) in sorted_by[2 * best_axis..2 * best_axis + 2]
        .iter()
        .enumerate()
    {
        for split_at in min..=(total - min) {
            let m1 = Mbr::from_entries(&v[..split_at]);
            let m2 = Mbr::from_entries(&v[split_at..]);
            let overlap = m1.intersection_volume(&m2);
            let area = m1.volume() + m2.volume();
            let margin = m1.margin() + m2.margin();
            if best
                .map(|(bo, ba, bm, _, _)| (overlap, area, margin) < (bo, ba, bm))
                .unwrap_or(true)
            {
                best = Some((overlap, area, margin, s, split_at));
            }
        }
    }
    let (_, _, _, s, split_at) = best.expect("at least one distribution");
    let chosen = &sorted_by[2 * best_axis + s];
    (chosen[..split_at].to_vec(), chosen[split_at..].to_vec())
}

/// Helper: tight MBR over a slice of entries.
trait FromEntries<const D: usize> {
    fn from_entries(entries: &[Entry<D>]) -> Mbr<D>;
}

impl<const D: usize> FromEntries<D> for Mbr<D> {
    fn from_entries(entries: &[Entry<D>]) -> Mbr<D> {
        let mut m = Mbr::empty();
        for e in entries {
            m.expand(&e.mbr());
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_core::node::ObjectEntry;

    fn obj(oid: u64, x: f64, y: f64) -> Entry<2> {
        Entry::Object(ObjectEntry {
            oid,
            point: Point::new([x, y]),
        })
    }

    #[test]
    fn split_separates_two_clusters() {
        // Two clearly separated clusters along x must split cleanly.
        let mut entries = vec![];
        for i in 0..8 {
            entries.push(obj(i, i as f64 * 0.1, 0.0));
        }
        for i in 8..16 {
            entries.push(obj(i, 100.0 + i as f64 * 0.1, 0.0));
        }
        let (g1, g2) = rstar_split(entries, 4);
        assert_eq!(g1.len() + g2.len(), 16);
        let m1 = Mbr::from_entries(&g1);
        let m2 = Mbr::from_entries(&g2);
        assert_eq!(m1.intersection_volume(&m2), 0.0);
        // One group entirely left, one entirely right.
        assert!(m1.hi[0] < 50.0 || m1.lo[0] > 50.0);
        assert!(m2.hi[0] < 50.0 || m2.lo[0] > 50.0);
    }

    #[test]
    fn split_respects_min_fill() {
        let entries: Vec<Entry<2>> = (0..20).map(|i| obj(i, i as f64, i as f64)).collect();
        let (g1, g2) = rstar_split(entries, 8);
        assert!(g1.len() >= 8 && g2.len() >= 8);
        assert_eq!(g1.len() + g2.len(), 20);
    }

    #[test]
    fn choose_subtree_prefers_containing_child() {
        let child = |page: u32, lo: [f64; 2], hi: [f64; 2]| {
            Entry::Node(NodeEntry {
                page,
                count: 1,
                mbr: Mbr::new(lo, hi),
            })
        };
        let node = Node {
            is_leaf: false,
            aux: 0,
            mbr: Mbr::new([0.0, 0.0], [20.0, 10.0]),
            entries: vec![
                child(1, [0.0, 0.0], [10.0, 10.0]),
                child(2, [15.0, 0.0], [20.0, 10.0]),
            ],
        };
        // Point inside child 1: no enlargement there.
        let p = Mbr::from_point(&Point::new([5.0, 5.0]));
        assert_eq!(choose_subtree(&node, &p, 2).unwrap(), 0);
        // Point near child 2.
        let q = Mbr::from_point(&Point::new([19.0, 5.0]));
        assert_eq!(choose_subtree(&node, &q, 2).unwrap(), 1);
    }

    #[test]
    fn forced_reinsert_evicts_farthest() {
        let mut node = Node {
            is_leaf: true,
            aux: 0,
            mbr: Mbr::empty(),
            entries: (0..12)
                .map(|i| obj(i, (i % 4) as f64, (i / 4) as f64))
                .collect(),
        };
        node.recompute_mbr();
        let center = node.mbr.center();
        let dist_of = |e: &Entry<2>| e.mbr().center().dist_sq(&center);
        let victims = forced_reinsert_victims(&mut node, 3);
        assert_eq!(victims.len(), 3);
        assert_eq!(node.entries.len(), 9);
        // Every victim is at least as far from the center as every keeper.
        let min_victim = victims.iter().map(dist_of).fold(f64::INFINITY, f64::min);
        let max_keeper = node.entries.iter().map(dist_of).fold(0.0f64, f64::max);
        assert!(min_victim >= max_keeper);
    }
}
