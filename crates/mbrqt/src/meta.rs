//! Metadata-page persistence for [`Mbrqt`].

use crate::Mbrqt;
use ann_core::snapshot::MetaFields;
use ann_core::tree_file::TreeFile;
use ann_geom::Mbr;
use ann_store::{BufferPool, PageId, PageStore, Result, Snapshot, StoreError};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"MBRQTv1\0";

/// Serializes the tree's metadata into its meta page through `store` —
/// normally a [`ann_store::Txn`], so the meta update commits atomically
/// with the structural changes it describes.
pub(crate) fn save_to<const D: usize>(tree: &Mbrqt<D>, store: &impl PageStore) -> Result<()> {
    store.with_page_mut(tree.meta_page(), |bytes| {
        let mut at = 0usize;
        let mut put = |src: &[u8]| {
            bytes[at..at + src.len()].copy_from_slice(src);
            at += src.len();
        };
        put(MAGIC);
        put(&(D as u32).to_le_bytes());
        put(&tree.root.to_le_bytes());
        put(&tree.num_points.to_le_bytes());
        put(&(tree.bucket_capacity as u32).to_le_bytes());
        put(&(tree.levels_per_node as u32).to_le_bytes());
        put(&(tree.max_depth as u32).to_le_bytes());
        put(&[u8::from(tree.use_subtree_mbrs), 0, 0, 0]);
        for d in 0..D {
            put(&tree.universe.lo[d].to_le_bytes());
        }
        for d in 0..D {
            put(&tree.universe.hi[d].to_le_bytes());
        }
        for d in 0..D {
            put(&tree.bounds.lo[d].to_le_bytes());
        }
        for d in 0..D {
            put(&tree.bounds.hi[d].to_le_bytes());
        }
    })
}

/// Everything the meta page records, decoded.
pub(crate) struct ParsedMeta<const D: usize> {
    pub root: PageId,
    pub num_points: u64,
    pub bucket_capacity: usize,
    pub levels_per_node: usize,
    pub max_depth: usize,
    pub use_subtree_mbrs: bool,
    pub universe: Mbr<D>,
    pub bounds: Mbr<D>,
}

/// Decodes the meta page bytes (the inverse of [`save_to`]).
fn parse<const D: usize>(bytes: &[u8]) -> Result<ParsedMeta<D>> {
    if &bytes[0..8] != MAGIC {
        return Err(StoreError::corrupt("not an MBRQT meta page"));
    }
    let mut at = 8usize;
    let mut take = |n: usize| {
        let s = &bytes[at..at + n];
        at += n;
        s
    };
    let dim = u32::from_le_bytes(take(4).try_into().unwrap());
    if dim as usize != D {
        return Err(StoreError::corrupt("dimensionality mismatch"));
    }
    let root = u32::from_le_bytes(take(4).try_into().unwrap());
    let num_points = u64::from_le_bytes(take(8).try_into().unwrap());
    let bucket_capacity = u32::from_le_bytes(take(4).try_into().unwrap()) as usize;
    let levels_per_node = u32::from_le_bytes(take(4).try_into().unwrap()) as usize;
    let max_depth = u32::from_le_bytes(take(4).try_into().unwrap()) as usize;
    let use_subtree_mbrs = take(4)[0] != 0;
    let mut mbrs = [Mbr::<D>::empty(), Mbr::<D>::empty()];
    for m in mbrs.iter_mut() {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for v in lo.iter_mut() {
            *v = f64::from_le_bytes(take(8).try_into().unwrap());
        }
        for v in hi.iter_mut() {
            *v = f64::from_le_bytes(take(8).try_into().unwrap());
        }
        *m = Mbr { lo, hi };
    }
    Ok(ParsedMeta {
        root,
        num_points,
        bucket_capacity,
        levels_per_node,
        max_depth,
        use_subtree_mbrs,
        universe: mbrs[0],
        bounds: mbrs[1],
    })
}

/// Opens the tree's file (journal recovery, and the version manifest when
/// `versions_head` is given), parses the committed meta page and
/// validates the result; see [`ann_core::tree_file::WritableIndex::open_at`].
pub(crate) fn load<const D: usize>(
    pool: Arc<BufferPool>,
    meta_page: PageId,
    versions_head: Option<PageId>,
) -> Result<Mbrqt<D>> {
    let file = TreeFile::open(pool, meta_page, versions_head, snapshot_meta_fields::<D>)?;
    let meta = file.read_meta(parse::<D>)?;
    let tree = Mbrqt {
        file,
        root: meta.root,
        universe: meta.universe,
        bounds: meta.bounds,
        num_points: meta.num_points,
        bucket_capacity: meta.bucket_capacity,
        levels_per_node: meta.levels_per_node,
        max_depth: meta.max_depth,
        use_subtree_mbrs: meta.use_subtree_mbrs,
    };
    ann_core::index::validate(&tree)?;
    Ok(tree)
}

/// [`ann_core::snapshot::MetaReader`] for MBRQT: parses the version-pinned
/// meta fields through a snapshot's translation table.
pub(crate) fn snapshot_meta_fields<const D: usize>(
    snap: &Snapshot,
    meta_page: PageId,
) -> Result<MetaFields<D>> {
    let meta = snap.with_page(meta_page, parse::<D>)??;
    Ok(MetaFields {
        root: meta.root,
        num_points: meta.num_points,
        bounds: meta.bounds,
    })
}
