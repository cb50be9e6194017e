//! The disk-resident node model shared by every index in the workspace.
//!
//! Both the MBRQT and the R*-tree serialize their nodes with the codec in
//! this module, one node per page (with transparent continuation-page
//! chaining for nodes whose fanout exceeds one page — a PR quadtree in 10
//! dimensions has up to 2¹⁰ children). Sharing the representation keeps the
//! traversal algorithms in [`crate::mba`] completely index-agnostic: an
//! index only has to say where its root page is.
//!
//! # On-page format
//!
//! First page of a node:
//!
//! ```text
//! version: u8 | flags: u8 (bit0 = leaf) | aux: u8 | reserved: u8
//! entry_count: u32 | next_page: u32 (continuation, INVALID_PAGE if none)
//! mbr: 2 * D * f64
//! entry stream ...
//! ```
//!
//! The entry stream is one byte string: what does not fit on the first
//! page continues on an [`ann_store::Chain`] of pages headed by
//! `next_page`, each `next: u32 | magic: u32 | entry stream ...`, so
//! entries may straddle page boundaries. Every field is read and written
//! through [`ann_store::Reader`] / [`ann_store::Writer`]; this module is
//! the node format's one codec.
//!
//! Entry encodings:
//!
//! * child entry: `page: u32 | count: u64 | mbr: 2 * D * f64`
//! * object entry: `oid: u64 | point: D * f64` ([`ObjectEntry::put`], the
//!   record every stored `(oid, point)` uses)

use ann_geom::{Mbr, Point, SoaMbrs, SoaPoints};
use ann_store::{
    Chain, PageId, PageStore, Reader, Result, StoreError, Writer, INVALID_PAGE, PAGE_SIZE,
};
use std::ops::Deref;

const VERSION: u8 = 1;
/// The continuation pages of a node too wide for one page. The magic
/// tells a page of this chain from a stale, zeroed or foreign one, so a
/// bad link reads as `Corrupt` rather than as another page's entries.
const CONT: Chain = Chain::new(0xC047_1AB5);
const FIRST_HEADER: usize = 12;

/// A reference to a child node, as stored inside its parent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeEntry<const D: usize> {
    /// First page of the child node.
    pub page: PageId,
    /// Number of data objects in the child's subtree.
    pub count: u64,
    /// Tight MBR of the child's subtree.
    ///
    /// For the MBRQT this is the *enhancement* the paper adds to the plain
    /// PR quadtree: the true bounding box of the points below, not the
    /// quadrant box.
    pub mbr: Mbr<D>,
}

/// A data object stored in a leaf.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObjectEntry<const D: usize> {
    /// Caller-assigned object identifier.
    pub oid: u64,
    /// The object's location.
    pub point: Point<D>,
}

/// One entry of a node: either a child pointer or a data object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Entry<const D: usize> {
    /// Child subtree.
    Node(NodeEntry<D>),
    /// Data object.
    Object(ObjectEntry<D>),
}

impl<const D: usize> Entry<D> {
    /// The MBR of this entry (degenerate for objects).
    #[inline]
    pub fn mbr(&self) -> Mbr<D> {
        match self {
            Entry::Node(n) => n.mbr,
            Entry::Object(o) => Mbr::from_point(&o.point),
        }
    }

    /// Number of data objects under this entry.
    #[inline]
    pub fn count(&self) -> u64 {
        match self {
            Entry::Node(n) => n.count,
            Entry::Object(_) => 1,
        }
    }
}

/// An in-memory, decoded index node.
#[derive(Clone, Debug, PartialEq)]
pub struct Node<const D: usize> {
    /// `true` when the node stores objects, `false` when it stores children.
    pub is_leaf: bool,
    /// One byte of index-private metadata, persisted in the node header.
    /// The MBRQT stores the number of packed decomposition levels here so
    /// insertion can re-derive each child entry's grid cell; the R*-tree
    /// leaves it 0.
    pub aux: u8,
    /// Tight MBR over everything below this node.
    pub mbr: Mbr<D>,
    /// The node's entries (homogeneous: all objects or all children).
    pub entries: Vec<Entry<D>>,
}

impl<const D: usize> Node<D> {
    /// An empty leaf.
    pub fn empty_leaf() -> Self {
        Node {
            is_leaf: true,
            aux: 0,
            mbr: Mbr::empty(),
            entries: Vec::new(),
        }
    }

    /// Recomputes this node's MBR from its entries.
    pub fn recompute_mbr(&mut self) {
        let mut mbr = Mbr::empty();
        for e in &self.entries {
            mbr.expand(&e.mbr());
        }
        self.mbr = mbr;
    }

    /// Total objects under this node (sum of entry counts).
    pub fn count(&self) -> u64 {
        self.entries.iter().map(Entry::count).sum()
    }

    /// Serialized size of one entry for this dimensionality.
    pub const fn entry_size(is_leaf: bool) -> usize {
        if is_leaf {
            ObjectEntry::<D>::SIZE
        } else {
            4 + 8 + 16 * D
        }
    }

    /// How many entries fit in a single (non-chained) page.
    pub const fn single_page_capacity(is_leaf: bool) -> usize {
        (PAGE_SIZE - FIRST_HEADER - 16 * D) / Self::entry_size(is_leaf)
    }
}

/// Column-major (SoA) mirror of a node's entry list, built once at decode
/// time so the batched kernels in [`ann_geom::kernels`] can scan a node
/// without per-entry AoS gathers.
///
/// A node's entries are homogeneous, so the mirror is an enum: leaves keep
/// parallel oid + coordinate columns, internal nodes keep parallel page /
/// count arrays plus MBR bound columns. Coordinate/bound `d` of entry `i`
/// lives at `d * len + i`, matching [`SoaPoints`] / [`SoaMbrs`].
#[derive(Clone, Debug, PartialEq)]
pub enum NodeColumns {
    /// Leaf: `oids[i]` owns coordinates `coords[d * len + i]`.
    Leaf {
        /// Object identifiers in entry order.
        oids: Vec<u64>,
        /// Column-major point coordinates, `D * len` long.
        coords: Vec<f64>,
    },
    /// Internal node: parallel child metadata + MBR bound columns.
    Internal {
        /// First page of each child, in entry order.
        pages: Vec<PageId>,
        /// Subtree object count of each child, in entry order.
        counts: Vec<u64>,
        /// Column-major MBR lower bounds, `D * len` long.
        lo: Vec<f64>,
        /// Column-major MBR upper bounds, `D * len` long.
        hi: Vec<f64>,
    },
}

/// A decoded node plus its [`NodeColumns`] SoA mirror — the unit the
/// [`crate::NodeCache`] stores and
/// [`crate::index::SpatialIndex::read_node_cached`] returns.
///
/// `DerefMut` is deliberately absent and both fields are private: the
/// columns are derived from the entries at construction, so the pair is
/// immutable-by-construction and can never drift apart. `Deref` keeps
/// every existing `node.entries` / `node.mbr` call site compiling
/// unchanged.
#[derive(Clone, Debug)]
pub struct DecodedNode<const D: usize> {
    node: Node<D>,
    columns: NodeColumns,
}

impl<const D: usize> DecodedNode<D> {
    /// Builds the SoA mirror for `node`.
    ///
    /// # Panics
    ///
    /// When an entry disagrees with the node's leaf flag. The codec rejects
    /// such nodes on both write and read, so a decoded node can never trip
    /// this.
    pub fn new(node: Node<D>) -> Self {
        let len = node.entries.len();
        let columns = if node.is_leaf {
            let mut oids = Vec::with_capacity(len);
            let mut coords = vec![0.0; D * len];
            for (i, e) in node.entries.iter().enumerate() {
                let Entry::Object(o) = e else {
                    panic!("child entry in a leaf node")
                };
                oids.push(o.oid);
                for d in 0..D {
                    coords[d * len + i] = o.point[d];
                }
            }
            NodeColumns::Leaf { oids, coords }
        } else {
            let mut pages = Vec::with_capacity(len);
            let mut counts = Vec::with_capacity(len);
            let mut lo = vec![0.0; D * len];
            let mut hi = vec![0.0; D * len];
            for (i, e) in node.entries.iter().enumerate() {
                let Entry::Node(n) = e else {
                    panic!("object entry in an internal node")
                };
                pages.push(n.page);
                counts.push(n.count);
                for d in 0..D {
                    lo[d * len + i] = n.mbr.lo[d];
                    hi[d * len + i] = n.mbr.hi[d];
                }
            }
            NodeColumns::Internal {
                pages,
                counts,
                lo,
                hi,
            }
        };
        DecodedNode { node, columns }
    }

    /// The decoded node (also reachable through `Deref`).
    #[inline]
    pub fn node(&self) -> &Node<D> {
        &self.node
    }

    /// The SoA mirror of the entry list.
    #[inline]
    pub fn columns(&self) -> &NodeColumns {
        &self.columns
    }

    /// Column-major view of every entry's MBR: degenerate (`lo == hi`,
    /// aliasing the coordinate columns) for leaves — exactly how the
    /// scalar path treats objects via [`Entry::mbr`] /
    /// [`Mbr::from_point`] — and the child MBRs for internal nodes.
    #[inline]
    pub fn soa_mbrs(&self) -> SoaMbrs<'_> {
        let len = self.node.entries.len();
        match &self.columns {
            NodeColumns::Leaf { coords, .. } => SoaPoints::new(len, coords).as_mbrs(),
            NodeColumns::Internal { lo, hi, .. } => SoaMbrs::new(len, lo, hi),
        }
    }

    /// Column-major view of a leaf's points; `None` for internal nodes.
    #[inline]
    pub fn leaf_points(&self) -> Option<SoaPoints<'_>> {
        match &self.columns {
            NodeColumns::Leaf { coords, .. } => {
                Some(SoaPoints::new(self.node.entries.len(), coords))
            }
            NodeColumns::Internal { .. } => None,
        }
    }
}

impl<const D: usize> Deref for DecodedNode<D> {
    type Target = Node<D>;
    #[inline]
    fn deref(&self) -> &Node<D> {
        &self.node
    }
}

impl<const D: usize> PartialEq for DecodedNode<D> {
    fn eq(&self, other: &Self) -> bool {
        // The columns are a pure function of the node, so comparing them
        // too would be redundant.
        self.node == other.node
    }
}

impl<const D: usize> PartialEq<Node<D>> for DecodedNode<D> {
    fn eq(&self, other: &Node<D>) -> bool {
        self.node == *other
    }
}

impl<const D: usize> From<Node<D>> for DecodedNode<D> {
    fn from(node: Node<D>) -> Self {
        DecodedNode::new(node)
    }
}

impl<const D: usize> ObjectEntry<D> {
    /// Bytes of one stored object: `oid: u64 | point: D * f64`.
    pub const SIZE: usize = 8 + 8 * D;

    /// Appends the object in its stored form. Leaf entries, the external
    /// sort's spill records and GORDER's block files all hold objects so.
    pub fn put(&self, w: &mut Writer) {
        w.u64(self.oid);
        for &c in self.point.coords() {
            w.f64(c);
        }
    }

    /// Reads one object written by [`put`](Self::put).
    pub fn get(r: &mut Reader) -> Result<Self> {
        let oid = r.u64()?;
        let mut coords = [0.0; D];
        for v in &mut coords {
            *v = r.f64()?;
        }
        Ok(ObjectEntry {
            oid,
            point: Point::new(coords),
        })
    }
}

/// Appends `mbr` as `lo: D * f64 | hi: D * f64`, the form node headers,
/// child entries and the tree meta page share.
pub(crate) fn put_mbr<const D: usize>(w: &mut Writer, mbr: &Mbr<D>) {
    for &v in mbr.lo.iter().chain(&mbr.hi) {
        w.f64(v);
    }
}

/// Reads an MBR written by [`put_mbr`].
pub(crate) fn get_mbr<const D: usize>(r: &mut Reader) -> Result<Mbr<D>> {
    let mut mbr = Mbr::empty();
    for v in mbr.lo.iter_mut().chain(mbr.hi.iter_mut()) {
        *v = r.f64()?;
    }
    Ok(mbr)
}

/// Writes `node` starting at `first_page`, reusing the existing
/// continuation chain where possible and allocating more pages when the
/// node outgrew it.
///
/// Pages freed by a shrinking node are left orphaned on the chain's tail
/// (they keep their `next` pointers but `entry_count` stops before them);
/// index bulk-builds write each node once, so in practice nothing leaks.
pub fn write_node<const D: usize>(
    store: &impl PageStore,
    first_page: PageId,
    node: &Node<D>,
) -> Result<()> {
    if node
        .entries
        .iter()
        .any(|e| matches!(e, Entry::Object(_)) != node.is_leaf)
    {
        return Err(StoreError::corrupt(
            "node entries do not match its leaf flag",
        ));
    }
    let size = FIRST_HEADER + 16 * D + node.entries.len() * Node::<D>::entry_size(node.is_leaf);
    // The continuation chain this page links now, if it holds a node: a
    // longer chain left by an earlier write is reused, never re-allocated.
    let linked = store.with_page(first_page, |bytes| match bytes[0] {
        VERSION => Reader::new(&bytes[8..]).u32(),
        _ => Ok(INVALID_PAGE),
    })??;
    let next = match linked {
        INVALID_PAGE if size > PAGE_SIZE => store.allocate()?,
        linked => linked,
    };

    let mut w = Writer::with_capacity(size);
    w.bytes(&[VERSION, u8::from(node.is_leaf), node.aux, 0]);
    w.u32(node.entries.len() as u32);
    w.u32(next);
    put_mbr(&mut w, &node.mbr);
    for e in &node.entries {
        match e {
            Entry::Node(n) => {
                w.u32(n.page);
                w.u64(n.count);
                put_mbr(&mut w, &n.mbr);
            }
            Entry::Object(o) => o.put(&mut w),
        }
    }
    let (first, rest) = w.as_bytes().split_at(size.min(PAGE_SIZE));
    store.with_page_mut(first_page, |page| {
        page[..first.len()].copy_from_slice(first)
    })?;
    if !rest.is_empty() {
        CONT.write(
            next,
            rest,
            |page| store.with_page(page, |bytes| CONT.link(bytes)),
            || store.allocate(),
            |page, laid| store.with_page_mut(page, |bytes| laid.write_over(bytes)),
        )?;
    }
    Ok(())
}

/// Reads and decodes the node starting at `first_page`.
pub fn read_node<const D: usize>(store: &impl PageStore, first_page: PageId) -> Result<Node<D>> {
    // The first page: the header and the entry stream's first chunk.
    let mut stream = Vec::new();
    let (is_leaf, aux, count, next, mbr) =
        store.with_page(first_page, |bytes| -> Result<_> {
            let mut r = Reader::new(bytes);
            if r.u8()? != VERSION {
                return Err(StoreError::corrupt_page(first_page, "unknown node version"));
            }
            let is_leaf = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(StoreError::corrupt_page(first_page, "bad leaf flag")),
            };
            let aux = r.u8()?;
            r.u8()?; // reserved
            let count = r.u32()? as usize;
            let next = r.u32()?;
            let mbr = get_mbr::<D>(&mut r)?;
            let total = count * Node::<D>::entry_size(is_leaf);
            stream.extend_from_slice(r.take(total.min(r.rest().len()))?);
            Ok((is_leaf, aux, count, next, mbr))
        })??;
    let rest = count * Node::<D>::entry_size(is_leaf) - stream.len();
    CONT.read(store, next, Some(rest), &mut stream)?;

    let mut r = Reader::new(&stream);
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(if is_leaf {
            Entry::Object(ObjectEntry::get(&mut r)?)
        } else {
            Entry::Node(NodeEntry {
                page: r.u32()?,
                count: r.u64()?,
                mbr: get_mbr(&mut r)?,
            })
        });
    }
    Ok(Node {
        is_leaf,
        aux,
        mbr,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_store::{BufferPool, MemDisk};
    use std::sync::Arc;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(MemDisk::new(), 16))
    }

    fn sample_leaf(n: usize) -> Node<2> {
        let mut node = Node::empty_leaf();
        for i in 0..n {
            node.entries.push(Entry::Object(ObjectEntry {
                oid: i as u64,
                point: Point::new([i as f64, -(i as f64)]),
            }));
        }
        node.recompute_mbr();
        node
    }

    #[test]
    fn leaf_roundtrip() {
        let pool = pool();
        let page = pool.allocate().unwrap();
        let node = sample_leaf(10);
        write_node(&pool, page, &node).unwrap();
        let back = read_node::<2>(&pool, page).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn internal_roundtrip() {
        let pool = pool();
        let page = pool.allocate().unwrap();
        let mut node = Node {
            is_leaf: false,
            aux: 0,
            mbr: Mbr::empty(),
            entries: vec![],
        };
        for i in 0..5u32 {
            node.entries.push(Entry::Node(NodeEntry {
                page: i + 100,
                count: (i as u64 + 1) * 7,
                mbr: Mbr::new([i as f64, 0.0], [i as f64 + 1.0, 2.0]),
            }));
        }
        node.recompute_mbr();
        write_node(&pool, page, &node).unwrap();
        let back = read_node::<2>(&pool, page).unwrap();
        assert_eq!(back, node);
        assert_eq!(back.count(), 7 + 14 + 21 + 28 + 35);
    }

    #[test]
    fn empty_node_roundtrip() {
        let pool = pool();
        let page = pool.allocate().unwrap();
        let node = Node::<2>::empty_leaf();
        write_node(&pool, page, &node).unwrap();
        let back = read_node::<2>(&pool, page).unwrap();
        assert!(back.entries.is_empty());
        assert!(back.mbr.is_empty());
    }

    #[test]
    fn oversized_node_chains_across_pages() {
        let pool = pool();
        let page = pool.allocate().unwrap();
        // 2-D leaf entries are 24 bytes; ~340 fit on one page. Store 2000.
        let node = sample_leaf(2000);
        let before = pool.num_pages();
        write_node(&pool, page, &node).unwrap();
        assert!(pool.num_pages() > before, "continuation pages allocated");
        let back = read_node::<2>(&pool, page).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn rewrite_reuses_continuation_chain() {
        let pool = pool();
        let page = pool.allocate().unwrap();
        write_node(&pool, page, &sample_leaf(2000)).unwrap();
        let pages_after_first = pool.num_pages();
        // Rewriting the same node must not allocate fresh pages.
        write_node(&pool, page, &sample_leaf(2000)).unwrap();
        assert_eq!(pool.num_pages(), pages_after_first);
        // A smaller rewrite also reuses the chain head.
        write_node(&pool, page, &sample_leaf(10)).unwrap();
        assert_eq!(pool.num_pages(), pages_after_first);
        assert_eq!(read_node::<2>(&pool, page).unwrap(), sample_leaf(10));
        // Growing again reuses the orphaned tail.
        write_node(&pool, page, &sample_leaf(2000)).unwrap();
        assert_eq!(pool.num_pages(), pages_after_first);
    }

    #[test]
    fn high_dimensional_roundtrip() {
        let pool = pool();
        let page = pool.allocate().unwrap();
        let mut node = Node::<10>::empty_leaf();
        for i in 0..200u64 {
            node.entries.push(Entry::Object(ObjectEntry {
                oid: i,
                point: Point::new([i as f64 * 0.1; 10]),
            }));
        }
        node.recompute_mbr();
        write_node(&pool, page, &node).unwrap();
        assert_eq!(read_node::<10>(&pool, page).unwrap(), node);
    }

    #[test]
    fn mixed_entries_rejected() {
        let pool = pool();
        let page = pool.allocate().unwrap();
        let node = Node::<2> {
            is_leaf: true,
            aux: 0,
            mbr: Mbr::empty(),
            entries: vec![Entry::Node(NodeEntry {
                page: 1,
                count: 1,
                mbr: Mbr::empty(),
            })],
        };
        assert!(write_node(&pool, page, &node).is_err());
    }

    #[test]
    fn decoded_leaf_columns_mirror_entries() {
        let node = sample_leaf(13);
        let dec = DecodedNode::new(node.clone());
        assert_eq!(*dec, node, "Deref target is the node itself");
        let NodeColumns::Leaf { oids, coords } = dec.columns() else {
            panic!("leaf must decode to leaf columns")
        };
        assert_eq!(coords.len(), 2 * 13);
        let pts = dec.leaf_points().expect("leaf has points");
        let mbrs = dec.soa_mbrs();
        for (i, e) in node.entries.iter().enumerate() {
            let Entry::Object(o) = e else { unreachable!() };
            assert_eq!(oids[i], o.oid);
            assert_eq!(pts.point::<2>(i), o.point);
            // The MBR view is degenerate and aliases the same columns.
            assert_eq!(mbrs.mbr::<2>(i), Mbr::from_point(&o.point));
        }
    }

    #[test]
    fn decoded_internal_columns_mirror_entries() {
        let mut node = Node::<2> {
            is_leaf: false,
            aux: 0,
            mbr: Mbr::empty(),
            entries: vec![],
        };
        for i in 0..7u32 {
            node.entries.push(Entry::Node(NodeEntry {
                page: i + 10,
                count: u64::from(i) * 3 + 1,
                mbr: Mbr::new([f64::from(i), -1.0], [f64::from(i) + 0.5, 4.0]),
            }));
        }
        node.recompute_mbr();
        let dec = DecodedNode::new(node.clone());
        let NodeColumns::Internal {
            pages,
            counts,
            lo,
            hi,
        } = dec.columns()
        else {
            panic!("internal node must decode to internal columns")
        };
        assert_eq!(lo.len(), 2 * 7);
        assert_eq!(hi.len(), 2 * 7);
        assert!(dec.leaf_points().is_none());
        let mbrs = dec.soa_mbrs();
        for (i, e) in node.entries.iter().enumerate() {
            let Entry::Node(n) = e else { unreachable!() };
            assert_eq!(pages[i], n.page);
            assert_eq!(counts[i], n.count);
            assert_eq!(mbrs.mbr::<2>(i), n.mbr);
        }
    }

    #[test]
    fn decoded_empty_leaf_is_empty_everywhere() {
        let dec = DecodedNode::new(Node::<2>::empty_leaf());
        assert_eq!(dec.soa_mbrs().len, 0);
        assert_eq!(dec.leaf_points().unwrap().len, 0);
    }

    #[test]
    fn capacities_are_sane() {
        // 2-D: leaf entries 24 B, internal 44 B.
        assert_eq!(Node::<2>::entry_size(true), 24);
        assert_eq!(Node::<2>::entry_size(false), 44);
        assert!(Node::<2>::single_page_capacity(true) >= 300);
        assert!(Node::<2>::single_page_capacity(false) >= 180);
        // 10-D still fits a healthy fanout on one page.
        assert!(Node::<10>::single_page_capacity(true) >= 90);
        assert!(Node::<10>::single_page_capacity(false) >= 45);
    }
}
