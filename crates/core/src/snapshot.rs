//! Store snapshots: persist the entire remote state to any writer and
//! restore it into a fresh memory node.
//!
//! A snapshot captures everything the memory pool holds — directory,
//! serialized clusters, and overflow areas with every insert — plus the
//! compute-side meta-HNSW, so a restored store answers queries
//! identically without re-partitioning or re-building graphs. The runtime
//! configuration (network model, cache sizing, fan-out) is *not*
//! persisted: it describes the deployment, not the data, and is supplied
//! again at restore time.
//!
//! Format (little-endian):
//!
//! ```text
//! magic     u32   "DHSS"
//! version   u32   1
//! base_len  u64
//! parts     u32
//! sizes     parts × u32       (base vectors per partition)
//! meta_len  u64, meta blob    (MetaIndex::to_bytes)
//! region_len u64, region bytes (verbatim remote memory image)
//! ```

use std::io::{Read, Write};
use std::sync::Arc;

use rdma_sim::{MemoryNode, QueuePair};

use crate::layout::{Directory, DIRECTORY_PEEK_BYTES};
use crate::meta::MetaIndex;
use crate::store::VectorStore;
use crate::{DHnswConfig, Error, Result};

/// Magic tag of a snapshot stream.
pub const SNAPSHOT_MAGIC: u32 = 0x5353_4844; // "DHSS"
/// Snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Writes a snapshot of `store` to `w` (pass `&mut w` to keep the
/// writer). The remote region is read back through a dedicated queue
/// pair, so the snapshot observes exactly what compute nodes would.
///
/// # Errors
///
/// Propagates I/O and substrate errors.
pub fn write_snapshot<W: Write>(store: &VectorStore, mut w: W) -> Result<()> {
    let qp = QueuePair::connect(store.memory_node(), store.config().network());
    let region_len = store.directory().total_len();
    let region = qp.read(store.region().rkey(), 0, region_len)?;
    let meta_blob = store.meta().to_bytes();

    let io_err = |e: std::io::Error| Error::Corrupt(format!("snapshot write failed: {e}"));
    w.write_all(&SNAPSHOT_MAGIC.to_le_bytes()).map_err(io_err)?;
    w.write_all(&SNAPSHOT_VERSION.to_le_bytes()).map_err(io_err)?;
    w.write_all(&(store.base_len() as u64).to_le_bytes())
        .map_err(io_err)?;
    w.write_all(&(store.partitions() as u32).to_le_bytes())
        .map_err(io_err)?;
    for p in 0..store.partitions() as u32 {
        let size = store.partition_size(p)? as u32;
        w.write_all(&size.to_le_bytes()).map_err(io_err)?;
    }
    w.write_all(&(meta_blob.len() as u64).to_le_bytes())
        .map_err(io_err)?;
    w.write_all(&meta_blob).map_err(io_err)?;
    w.write_all(&region_len.to_le_bytes()).map_err(io_err)?;
    w.write_all(&region).map_err(io_err)?;
    Ok(())
}

/// Restores a snapshot from `r` into a brand-new memory node, under the
/// supplied runtime configuration.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] on a malformed stream and propagates
/// substrate errors.
pub fn read_snapshot<R: Read>(mut r: R, config: &DHnswConfig) -> Result<VectorStore> {
    config.validate()?;
    let io_err = |e: std::io::Error| Error::Corrupt(format!("snapshot read failed: {e}"));
    let mut u32buf = [0u8; 4];
    let mut u64buf = [0u8; 8];

    r.read_exact(&mut u32buf).map_err(io_err)?;
    if u32::from_le_bytes(u32buf) != SNAPSHOT_MAGIC {
        return Err(Error::Corrupt("bad snapshot magic".into()));
    }
    r.read_exact(&mut u32buf).map_err(io_err)?;
    if u32::from_le_bytes(u32buf) != SNAPSHOT_VERSION {
        return Err(Error::Corrupt("unsupported snapshot version".into()));
    }
    r.read_exact(&mut u64buf).map_err(io_err)?;
    let base_len = u64::from_le_bytes(u64buf) as usize;
    r.read_exact(&mut u32buf).map_err(io_err)?;
    let parts = u32::from_le_bytes(u32buf) as usize;
    let mut partition_sizes = Vec::with_capacity(parts);
    for _ in 0..parts {
        r.read_exact(&mut u32buf).map_err(io_err)?;
        partition_sizes.push(u32::from_le_bytes(u32buf) as usize);
    }
    r.read_exact(&mut u64buf).map_err(io_err)?;
    let meta_len = u64::from_le_bytes(u64buf) as usize;
    let mut meta_blob = vec![0u8; meta_len];
    r.read_exact(&mut meta_blob).map_err(io_err)?;
    let meta = MetaIndex::from_bytes(&meta_blob)?;

    r.read_exact(&mut u64buf).map_err(io_err)?;
    let region_len = u64::from_le_bytes(u64buf) as usize;
    let mut region_bytes = vec![0u8; region_len];
    r.read_exact(&mut region_bytes).map_err(io_err)?;

    // Validate the embedded directory before committing to a region.
    // Size it via the header: a v3 region carries an SQ span table.
    let dir_len = Directory::peek_size(
        region_bytes
            .get(..DIRECTORY_PEEK_BYTES)
            .ok_or_else(|| Error::Corrupt("region shorter than its directory".into()))?,
    )?;
    let directory = Directory::from_bytes(
        region_bytes
            .get(..dir_len)
            .ok_or_else(|| Error::Corrupt("region shorter than its directory".into()))?,
    )?;
    if directory.partitions() != parts {
        return Err(Error::Corrupt(format!(
            "snapshot header says {parts} partitions, directory says {}",
            directory.partitions()
        )));
    }
    if directory.total_len() != region_len as u64 {
        return Err(Error::Corrupt(format!(
            "directory expects {} region bytes, snapshot carries {region_len}",
            directory.total_len()
        )));
    }

    let node = MemoryNode::new("memory-pool-restored");
    let region = node.register(region_len)?;
    let setup_qp = QueuePair::connect(&node, config.network());
    setup_qp.write(region.rkey(), 0, &region_bytes)?;

    Ok(VectorStore::from_parts(
        config.clone(),
        node,
        region,
        Arc::new(meta),
        Arc::new(directory),
        base_len,
        partition_sizes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchMode;
    use vecsim::gen;

    fn snap_and_restore(store: &VectorStore) -> VectorStore {
        let mut buf = Vec::new();
        write_snapshot(store, &mut buf).unwrap();
        read_snapshot(&buf[..], store.config()).unwrap()
    }

    #[test]
    fn restored_store_answers_identically() {
        let data = gen::sift_like(500, 41).unwrap();
        let store = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
        let restored = snap_and_restore(&store);
        assert_eq!(restored.base_len(), store.base_len());
        assert_eq!(restored.partitions(), store.partitions());
        assert_eq!(restored.directory().as_ref(), store.directory().as_ref());

        let queries = gen::perturbed_queries(&data, 12, 0.03, 42).unwrap();
        let a = store.connect(SearchMode::Full).unwrap();
        let b = restored.connect(SearchMode::Full).unwrap();
        let (ra, _) = a.query_batch(&queries, 5, 32).unwrap();
        let (rb, _) = b.query_batch(&queries, 5, 32).unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn snapshot_carries_overflow_inserts() {
        let data = gen::sift_like(300, 43).unwrap();
        let store = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
        let node = store.connect(SearchMode::Full).unwrap();
        let mut v = data.get(2).to_vec();
        v[0] += 0.75;
        let gid = node.insert(&v).unwrap();

        let restored = snap_and_restore(&store);
        let fresh = restored.connect(SearchMode::Full).unwrap();
        let hit = fresh.query(&v, 1, 32).unwrap();
        assert_eq!(hit[0].id, gid);
        assert!(hit[0].dist < 1e-6);
        // And the id counter continues past the insert.
        let next = fresh.insert(&v).unwrap();
        assert_eq!(next, gid + 1);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let data = gen::sift_like(200, 44).unwrap();
        let store = VectorStore::build(data, &DHnswConfig::small()).unwrap();
        let mut buf = Vec::new();
        write_snapshot(&store, &mut buf).unwrap();

        assert!(read_snapshot(&buf[..10], store.config()).is_err());
        let mut bad_magic = buf.clone();
        bad_magic[0] ^= 0xff;
        assert!(read_snapshot(&bad_magic[..], store.config()).is_err());
        let mut truncated = buf.clone();
        truncated.truncate(buf.len() - 5);
        assert!(read_snapshot(&truncated[..], store.config()).is_err());
    }

    #[test]
    fn v1_directory_snapshots_are_rejected() {
        // A v1 directory would restore, then every overflow area would
        // be parsed with the v2 framing and silently drop its inserts.
        let data = gen::sift_like(200, 46).unwrap();
        let store = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
        let node = store.connect(SearchMode::Full).unwrap();
        node.insert(data.get(1)).unwrap();
        let mut buf = Vec::new();
        write_snapshot(&store, &mut buf).unwrap();
        assert!(read_snapshot(&buf[..], store.config()).is_ok());

        // The region image is the stream's tail; bytes 4..8 of it are
        // the directory's format word.
        let region = buf.len() - store.directory().total_len() as usize;
        buf[region + 4..region + 8].copy_from_slice(&1u32.to_le_bytes());
        let err = read_snapshot(&buf[..], store.config()).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn restore_lives_on_a_fresh_memory_node() {
        let data = gen::sift_like(200, 45).unwrap();
        let store = VectorStore::build(data, &DHnswConfig::small()).unwrap();
        let restored = snap_and_restore(&store);
        assert!(!Arc::ptr_eq(store.memory_node(), restored.memory_node()));
        // Writing to the restored store does not affect the original.
        let w = restored.connect(SearchMode::Full).unwrap();
        let v = vec![1.0f32; 128];
        w.insert(&v).unwrap();
        let orig_counter = QueuePair::connect(store.memory_node(), store.config().network())
            .faa(store.region().rkey(), crate::layout::ID_COUNTER_OFFSET, 0)
            .unwrap();
        assert_eq!(orig_counter, store.base_len() as u64);
    }
}
