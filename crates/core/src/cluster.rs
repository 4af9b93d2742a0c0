//! Per-partition sub-HNSW clusters and their wire format.
//!
//! A [`SubCluster`] is the unit d-HNSW moves over the network: a complete
//! HNSW index over one partition's vectors, together with the mapping from
//! partition-local ids back to global dataset ids. Serialized clusters are
//! fully self-contained byte blobs (§3.2), so a compute node can fetch one
//! with a single contiguous `RDMA_READ` and search it immediately.
//!
//! Newly inserted vectors do not rewrite the serialized cluster; they are
//! appended to the group's shared *overflow area* as fixed-size
//! [`OverflowRecord`]s. A [`LoadedCluster`] combines both: sub-HNSW search
//! over the base vectors plus an exact scan over the (small) overflow
//! tail, merged into one result.

use hnsw::{HnswIndex, HnswParams, SearchStats};
use vecsim::quantize::SqParams;
use vecsim::{Dataset, Neighbor, TopK};

use crate::{Error, Result};

/// Magic tag of a serialized cluster.
pub const CLUSTER_MAGIC: u32 = 0x3143_4844; // "DHC1"
/// Magic tag of a serialized SQ8 cluster blob.
pub const SQ_CLUSTER_MAGIC: u32 = 0x3243_4844; // "DHC2"

/// A sub-HNSW over one partition.
///
/// # Example
///
/// ```rust
/// use dhnsw::cluster::SubCluster;
/// use hnsw::HnswParams;
/// use vecsim::Dataset;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let vectors = Dataset::from_rows(&[[0.0f32, 0.0], [1.0, 1.0]])?;
/// let cluster = SubCluster::build(7, vectors, vec![100, 200], &HnswParams::new(4, 16))?;
/// let hits = cluster.search(&[0.1, 0.1], 1, 8);
/// assert_eq!(hits[0].id, 100); // global id, not local
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SubCluster {
    partition: u32,
    hnsw: HnswIndex,
    global_ids: Vec<u32>,
}

impl SubCluster {
    /// Builds the sub-HNSW for `partition` over `vectors`, which map
    /// position-wise onto `global_ids`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `vectors` and
    /// `global_ids` disagree in length or the partition is empty.
    pub fn build(
        partition: u32,
        vectors: Dataset,
        global_ids: Vec<u32>,
        params: &HnswParams,
    ) -> Result<Self> {
        if vectors.len() != global_ids.len() {
            return Err(Error::InvalidParameter(format!(
                "{} vectors but {} global ids",
                vectors.len(),
                global_ids.len()
            )));
        }
        if vectors.is_empty() {
            return Err(Error::InvalidParameter(format!(
                "partition {partition} is empty"
            )));
        }
        let hnsw = HnswIndex::build(vectors, params)?;
        Ok(SubCluster {
            partition,
            hnsw,
            global_ids,
        })
    }

    /// The partition this cluster serves.
    pub fn partition(&self) -> u32 {
        self.partition
    }

    /// Number of base vectors (excluding overflow inserts).
    pub fn len(&self) -> usize {
        self.hnsw.len()
    }

    /// Whether the cluster holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.hnsw.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.hnsw.dim()
    }

    /// Searches the sub-HNSW; results carry **global** ids.
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<Neighbor> {
        let mut stats = SearchStats::default();
        self.search_with_stats(query, k, ef, &mut stats)
    }

    /// Like [`SubCluster::search`], accumulating work counters.
    pub fn search_with_stats(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        self.hnsw
            .search_with_stats(query, k, ef, stats)
            .into_iter()
            .map(|n| Neighbor::new(self.global_ids[n.id as usize], n.dist))
            .collect()
    }

    /// The global ids of the base vectors, indexed by local id.
    pub fn global_ids(&self) -> &[u32] {
        &self.global_ids
    }

    /// The underlying HNSW.
    pub fn hnsw(&self) -> &HnswIndex {
        &self.hnsw
    }

    /// Serializes into the wire format: magic, partition, id map, then
    /// the HNSW blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let hnsw_blob = hnsw::serialize::to_bytes(&self.hnsw);
        let mut out = Vec::with_capacity(self.serialized_size());
        out.extend_from_slice(&CLUSTER_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.partition.to_le_bytes());
        out.extend_from_slice(&(self.global_ids.len() as u32).to_le_bytes());
        out.extend_from_slice(&(hnsw_blob.len() as u64).to_le_bytes());
        for &id in &self.global_ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out.extend_from_slice(&hnsw_blob);
        out
    }

    /// Exact size [`SubCluster::to_bytes`] produces.
    pub fn serialized_size(&self) -> usize {
        4 + 4 + 4 + 8 + 4 * self.global_ids.len() + hnsw::serialize::serialized_size(&self.hnsw)
    }

    /// Deserializes a blob produced by [`SubCluster::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on bad magic, truncation, or an invalid
    /// embedded HNSW blob.
    pub fn from_bytes(blob: &[u8]) -> Result<Self> {
        let take = |off: usize, n: usize| -> Result<&[u8]> {
            blob.get(off..off + n)
                .ok_or_else(|| Error::Corrupt("truncated cluster blob".into()))
        };
        let magic = u32::from_le_bytes(take(0, 4)?.try_into().expect("4 bytes"));
        if magic != CLUSTER_MAGIC {
            return Err(Error::Corrupt(format!("bad cluster magic {magic:#x}")));
        }
        let partition = u32::from_le_bytes(take(4, 4)?.try_into().expect("4 bytes"));
        let n = u32::from_le_bytes(take(8, 4)?.try_into().expect("4 bytes")) as usize;
        let hnsw_len = u64::from_le_bytes(take(12, 8)?.try_into().expect("8 bytes")) as usize;
        let ids_off = 20;
        let mut global_ids = Vec::with_capacity(n);
        for i in 0..n {
            let b = take(ids_off + 4 * i, 4)?;
            global_ids.push(u32::from_le_bytes(b.try_into().expect("4 bytes")));
        }
        let hnsw_off = ids_off + 4 * n;
        let hnsw_blob = take(hnsw_off, hnsw_len)?;
        let hnsw = hnsw::serialize::from_bytes(hnsw_blob)
            .map_err(|e| Error::Corrupt(format!("embedded hnsw: {e}")))?;
        if hnsw.len() != n {
            return Err(Error::Corrupt(format!(
                "id map has {n} entries but hnsw holds {}",
                hnsw.len()
            )));
        }
        Ok(SubCluster {
            partition,
            hnsw,
            global_ids,
        })
    }
}

/// The scalar-quantized copy of one partition's base vectors, as written
/// into the layout-v3 tail region and fetched by quantized queries.
///
/// Unlike [`SubCluster`] this blob carries **no graph**: at SQ8 rates
/// the cluster is small enough that an exhaustive asymmetric scan over
/// the codes is cheaper than shipping the adjacency lists, and the scan
/// result is a superset of what a graph search over the same codes
/// could return. Exact distances for the survivors come from the
/// engine's targeted full-vector rerank reads against the
/// full-precision cluster.
///
/// # Wire format
///
/// ```text
/// magic u32 | partition u32 | n u32 | dim u32
/// min   dim × f32
/// scale dim × f32
/// ids   n × u32
/// codes n × dim × u8
/// ```
#[derive(Debug)]
pub struct SqCluster {
    partition: u32,
    params: SqParams,
    global_ids: Vec<u32>,
    codes: Vec<u8>,
}

impl SqCluster {
    /// Trains per-cluster quantization parameters over `vectors` and
    /// encodes every row. `global_ids` maps rows to dataset ids, as in
    /// [`SubCluster::build`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on an empty partition or a
    /// row-count/id-count mismatch.
    pub fn build(partition: u32, vectors: &Dataset, global_ids: Vec<u32>) -> Result<Self> {
        if vectors.len() != global_ids.len() {
            return Err(Error::InvalidParameter(format!(
                "{} vectors but {} global ids",
                vectors.len(),
                global_ids.len()
            )));
        }
        if vectors.is_empty() {
            return Err(Error::InvalidParameter(format!(
                "partition {partition} is empty"
            )));
        }
        let params = SqParams::train(vectors.dim(), vectors.iter())
            .map_err(|e| Error::InvalidParameter(format!("sq train: {e}")))?;
        let mut codes = Vec::with_capacity(vectors.len() * vectors.dim());
        for row in vectors.iter() {
            codes.extend_from_slice(&params.encode(row));
        }
        Ok(SqCluster {
            partition,
            params,
            global_ids,
            codes,
        })
    }

    /// The partition this blob serves.
    pub fn partition(&self) -> u32 {
        self.partition
    }

    /// Number of encoded base vectors.
    pub fn len(&self) -> usize {
        self.global_ids.len()
    }

    /// Whether the blob holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.global_ids.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.params.dim()
    }

    /// The per-cluster quantization parameters.
    pub fn params(&self) -> &SqParams {
        &self.params
    }

    /// The global ids of the encoded vectors, indexed by local row.
    pub fn global_ids(&self) -> &[u32] {
        &self.global_ids
    }

    /// Serializes into the wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_size());
        out.extend_from_slice(&SQ_CLUSTER_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.partition.to_le_bytes());
        out.extend_from_slice(&(self.global_ids.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.dim() as u32).to_le_bytes());
        for &m in self.params.min() {
            out.extend_from_slice(&m.to_le_bytes());
        }
        for &s in self.params.scale() {
            out.extend_from_slice(&s.to_le_bytes());
        }
        for &id in &self.global_ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out.extend_from_slice(&self.codes);
        out
    }

    /// Exact size [`SqCluster::to_bytes`] produces.
    pub fn serialized_size(&self) -> usize {
        Self::wire_size(self.global_ids.len(), self.dim())
    }

    /// Wire size of an SQ8 blob over `n` vectors of dimensionality
    /// `dim`.
    pub fn wire_size(n: usize, dim: usize) -> usize {
        4 + 4 + 4 + 4 + 8 * dim + 4 * n + n * dim
    }

    /// Deserializes a blob produced by [`SqCluster::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on bad magic or truncation.
    pub fn from_bytes(blob: &[u8]) -> Result<Self> {
        let take = |off: usize, n: usize| -> Result<&[u8]> {
            blob.get(off..off + n)
                .ok_or_else(|| Error::Corrupt("truncated sq cluster blob".into()))
        };
        let u32_at = |off: usize| -> Result<u32> {
            Ok(u32::from_le_bytes(take(off, 4)?.try_into().expect("4")))
        };
        if u32_at(0)? != SQ_CLUSTER_MAGIC {
            return Err(Error::Corrupt("bad sq cluster magic".into()));
        }
        let partition = u32_at(4)?;
        let n = u32_at(8)? as usize;
        let dim = u32_at(12)? as usize;
        if n == 0 || dim == 0 {
            return Err(Error::Corrupt("empty sq cluster blob".into()));
        }
        let f32s_at = |off: usize, count: usize| -> Result<Vec<f32>> {
            let raw = take(off, 4 * count)?;
            Ok(raw
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
                .collect())
        };
        let min = f32s_at(16, dim)?;
        let scale = f32s_at(16 + 4 * dim, dim)?;
        let params = SqParams::from_parts(min, scale)
            .map_err(|e| Error::Corrupt(format!("sq params: {e}")))?;
        let ids_off = 16 + 8 * dim;
        let mut global_ids = Vec::with_capacity(n);
        for i in 0..n {
            global_ids.push(u32_at(ids_off + 4 * i)?);
        }
        let codes = take(ids_off + 4 * n, n * dim)?.to_vec();
        Ok(SqCluster {
            partition,
            params,
            global_ids,
            codes,
        })
    }
}

/// High bit of the on-wire partition field: set for tombstones (deletes),
/// clear for inserted vectors. Partition ids therefore must stay below
/// `2^31`, which the representative counts in play never approach.
pub const TOMBSTONE_BIT: u32 = 1 << 31;

/// Value of the commit marker word that ends every *committed* overflow
/// slot. A slot whose final word differs (the all-zero value of a
/// reserved-but-never-written slot, most importantly) is treated as
/// uncommitted and skipped at materialization.
pub const OVERFLOW_COMMIT: u32 = 0x3256_4F44; // "DOV2"

/// 32-bit FNV-1a over `bytes` — dependency-free record checksum.
fn fnv1a(seed: u32, bytes: &[u8]) -> u32 {
    let mut h = seed;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// FNV-1a offset basis (the conventional starting seed).
const FNV_OFFSET: u32 = 0x811c_9dc5;

/// A record appended after the cluster was serialized, living in the
/// group's shared overflow area. Two kinds share one fixed-size slot
/// format:
///
/// - an **insert** carries a new vector under a fresh global id;
/// - a **tombstone** marks an existing global id (base or inserted) as
///   deleted; its vector payload is ignored.
///
/// # Wire format (v2)
///
/// ```text
/// offset  size  field
/// 0       4     tag        (partition | TOMBSTONE_BIT)
/// 4       4     global_id
/// 8       4     len        (payload bytes = 4 * dim, length prefix)
/// 12      4     checksum   (FNV-1a over tag..len + payload)
/// 16      4*dim payload    (f32 little-endian)
/// ...           zero padding to 8-byte alignment
/// end-4   4     commit     (OVERFLOW_COMMIT, written last)
/// ```
///
/// The commit marker occupies the *final* word of the slot, so a slot is
/// only ever observed committed after every preceding byte of the record
/// landed. A fault between the slot-reserving FAA and the RDMA_WRITE
/// leaves the slot all-zero: no commit marker, skipped on read. The
/// checksum additionally rejects slots whose bytes were damaged after
/// commit.
#[derive(Debug, Clone, PartialEq)]
pub struct OverflowRecord {
    /// Partition the record belongs to (either cluster of the group).
    pub partition: u32,
    /// Global id: the inserted vector's id, or the deleted target's id.
    pub global_id: u32,
    /// The vector itself (zeroed and ignored for tombstones).
    pub vector: Vec<f32>,
    /// Whether this record deletes `global_id` instead of inserting it.
    pub tombstone: bool,
}

impl OverflowRecord {
    /// An insert record.
    pub fn insert(partition: u32, global_id: u32, vector: Vec<f32>) -> Self {
        OverflowRecord {
            partition,
            global_id,
            vector,
            tombstone: false,
        }
    }

    /// A tombstone deleting `global_id` from `partition`.
    pub fn tombstone(partition: u32, global_id: u32, dim: usize) -> Self {
        OverflowRecord {
            partition,
            global_id,
            vector: vec![0.0; dim],
            tombstone: true,
        }
    }

    /// On-wire size of one record for dimensionality `dim`: 16-byte
    /// header, payload, trailing commit word, padded to an 8-byte
    /// multiple so records never straddle the alignment the FAA bump
    /// allocator guarantees.
    pub fn wire_size(dim: usize) -> usize {
        (16 + 4 * dim + 4 + 7) & !7
    }

    /// Encodes the record into exactly [`OverflowRecord::wire_size`]
    /// bytes, commit marker in the slot's final word.
    pub fn to_bytes(&self) -> Vec<u8> {
        let dim = self.vector.len();
        let size = Self::wire_size(dim);
        let mut out = Vec::with_capacity(size);
        let tag = self.partition | if self.tombstone { TOMBSTONE_BIT } else { 0 };
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&self.global_id.to_le_bytes());
        out.extend_from_slice(&((4 * dim) as u32).to_le_bytes());
        out.extend_from_slice(&[0u8; 4]); // checksum backfilled below
        for &x in &self.vector {
            out.extend_from_slice(&x.to_le_bytes());
        }
        let sum = fnv1a(fnv1a(FNV_OFFSET, &out[0..12]), &out[16..16 + 4 * dim]);
        out[12..16].copy_from_slice(&sum.to_le_bytes());
        out.resize(size - 4, 0);
        out.extend_from_slice(&OVERFLOW_COMMIT.to_le_bytes());
        out
    }

    /// Decodes one committed record of dimensionality `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when `bytes` is shorter than the wire
    /// size, the commit marker is absent (torn or never-completed
    /// insert), the length prefix disagrees with `dim`, or the checksum
    /// does not match.
    pub fn from_bytes(bytes: &[u8], dim: usize) -> Result<Self> {
        let size = Self::wire_size(dim);
        if bytes.len() < size {
            return Err(Error::Corrupt("truncated overflow record".into()));
        }
        let word = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
        if word(size - 4) != OVERFLOW_COMMIT {
            return Err(Error::Corrupt("uncommitted overflow record".into()));
        }
        let tag = word(0);
        let global_id = word(4);
        let len = word(8) as usize;
        if len != 4 * dim {
            return Err(Error::Corrupt(format!(
                "overflow record length prefix {len} does not match dim {dim}"
            )));
        }
        let sum = fnv1a(fnv1a(FNV_OFFSET, &bytes[0..12]), &bytes[16..16 + len]);
        if sum != word(12) {
            return Err(Error::Corrupt("overflow record checksum mismatch".into()));
        }
        let mut vector = Vec::with_capacity(dim);
        for i in 0..dim {
            vector.push(f32::from_le_bytes(
                bytes[16 + 4 * i..20 + 4 * i].try_into().expect("4 bytes"),
            ));
        }
        Ok(OverflowRecord {
            partition: tag & !TOMBSTONE_BIT,
            global_id,
            vector,
            tombstone: tag & TOMBSTONE_BIT != 0,
        })
    }
}

/// Parses a raw overflow area: an 8-byte little-endian `used` counter
/// followed by `used` bytes of fixed-size record slots.
///
/// Slots without a valid commit marker or whose checksum fails — torn or
/// never-completed inserts — are *skipped*, not errors: a crashed writer
/// must never poison every subsequent read of its group.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] only when the area is shorter than its own
/// `used` counter header.
pub fn parse_overflow(area: &[u8], dim: usize) -> Result<Vec<OverflowRecord>> {
    Ok(parse_overflow_detailed(area, dim)?.0)
}

/// Like [`parse_overflow`], additionally reporting how many slots inside
/// the committed range were skipped as uncommitted or damaged.
///
/// # Errors
///
/// Same as [`parse_overflow`].
pub fn parse_overflow_detailed(
    area: &[u8],
    dim: usize,
) -> Result<(Vec<OverflowRecord>, usize)> {
    if area.len() < 8 {
        return Err(Error::Corrupt("overflow area shorter than header".into()));
    }
    let used = u64::from_le_bytes(area[0..8].try_into().expect("8 bytes")) as usize;
    let rec = OverflowRecord::wire_size(dim);
    // A concurrent reservation may have bumped `used` past capacity (the
    // failed insert writes nothing); only whole records within the area
    // can be live.
    let usable = used.min(area.len() - 8);
    let count = usable / rec;
    let mut out = Vec::with_capacity(count);
    let mut skipped = 0usize;
    for i in 0..count {
        let off = 8 + i * rec;
        match OverflowRecord::from_bytes(&area[off..off + rec], dim) {
            Ok(r) => out.push(r),
            Err(_) => skipped += 1,
        }
    }
    Ok((out, skipped))
}

/// The searchable body of a [`LoadedCluster`]: the full-precision
/// sub-HNSW, or its scalar-quantized copy when the engine fetched the
/// compressed wire format.
#[derive(Debug)]
enum Payload {
    Full(SubCluster),
    /// `dead[row]` marks base rows a tombstone deleted, so the scan
    /// skips them without a per-row id lookup.
    Sq { sq: SqCluster, dead: Vec<bool> },
}

/// One approximate hit from a quantized cluster scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqHit {
    /// Global id of the candidate.
    pub id: u32,
    /// Asymmetric squared-L2 distance for base vectors; exact distance
    /// for overflow inserts.
    pub dist: f32,
    /// Local base row (for rerank addressing into the full-precision
    /// cluster blob), or `None` for an overflow insert, whose distance
    /// is already exact.
    pub local: Option<u32>,
}

/// A cluster as materialized on a compute node: the deserialized base
/// sub-HNSW plus the overflow inserts belonging to its partition, minus
/// anything its tombstones deleted.
///
/// When the engine runs in SQ8 mode the base payload is the compressed
/// [`SqCluster`] instead; searches then return asymmetric distances
/// and the engine reranks the survivors with exact reads.
#[derive(Debug)]
pub struct LoadedCluster {
    payload: Payload,
    extra: Vec<(u32, Vec<f32>)>,
    deleted: std::collections::HashSet<u32>,
    skipped_slots: usize,
}

/// Splits a parsed overflow area into this partition's inserts and
/// tombstones, dropping inserts that a later tombstone killed.
fn fold_overflow(
    partition: u32,
    records: Vec<OverflowRecord>,
) -> (Vec<(u32, Vec<f32>)>, std::collections::HashSet<u32>) {
    let mut extra: Vec<(u32, Vec<f32>)> = Vec::new();
    let mut deleted = std::collections::HashSet::new();
    for r in records {
        if r.partition != partition {
            continue;
        }
        if r.tombstone {
            deleted.insert(r.global_id);
        } else {
            extra.push((r.global_id, r.vector));
        }
    }
    extra.retain(|(gid, _)| !deleted.contains(gid));
    (extra, deleted)
}

impl LoadedCluster {
    /// Materializes a cluster from the two slices a contiguous group read
    /// yields: the serialized cluster and its group's raw overflow area.
    /// Overflow records belonging to the *other* cluster of the group are
    /// skipped.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::Corrupt`] from either parse.
    pub fn from_remote(cluster_bytes: &[u8], overflow_area: &[u8]) -> Result<Self> {
        let sub = SubCluster::from_bytes(cluster_bytes)?;
        let (records, skipped_slots) = parse_overflow_detailed(overflow_area, sub.dim())?;
        let (extra, deleted) = fold_overflow(sub.partition(), records);
        Ok(LoadedCluster {
            payload: Payload::Full(sub),
            extra,
            deleted,
            skipped_slots,
        })
    }

    /// Materializes a cluster from its SQ8 blob. `overflow_area` is the
    /// group's raw overflow area when one was read; `None` means the
    /// cluster's version slot proved the overflow pristine (version 0,
    /// nothing ever inserted), so no overflow bytes were fetched.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::Corrupt`] from either parse.
    pub fn from_remote_sq(sq_bytes: &[u8], overflow_area: Option<&[u8]>) -> Result<Self> {
        let sq = SqCluster::from_bytes(sq_bytes)?;
        let (extra, deleted, skipped_slots) = match overflow_area {
            Some(area) => {
                let (records, skipped) = parse_overflow_detailed(area, sq.dim())?;
                let (extra, deleted) = fold_overflow(sq.partition(), records);
                (extra, deleted, skipped)
            }
            None => (Vec::new(), std::collections::HashSet::new(), 0),
        };
        let dead = sq
            .global_ids()
            .iter()
            .map(|gid| deleted.contains(gid))
            .collect();
        Ok(LoadedCluster {
            payload: Payload::Sq { sq, dead },
            extra,
            deleted,
            skipped_slots,
        })
    }

    /// Wraps a freshly built cluster with no overflow (used at store-build
    /// time and in tests).
    pub fn from_sub(sub: SubCluster) -> Self {
        LoadedCluster {
            payload: Payload::Full(sub),
            extra: Vec::new(),
            deleted: std::collections::HashSet::new(),
            skipped_slots: 0,
        }
    }

    /// Overflow slots inside the committed range that were skipped as
    /// uncommitted or damaged (torn inserts survived).
    pub fn skipped_slots(&self) -> usize {
        self.skipped_slots
    }

    /// Global ids tombstoned in this cluster's overflow.
    pub fn deleted(&self) -> &std::collections::HashSet<u32> {
        &self.deleted
    }

    /// The base sub-cluster.
    ///
    /// # Panics
    ///
    /// Panics when the cluster was materialized from its SQ8 blob — a
    /// compressed load carries no graph. Callers on the full-precision
    /// path (store rebuild, uncompressed query flow) are the only ones
    /// that reach this.
    pub fn sub(&self) -> &SubCluster {
        match &self.payload {
            Payload::Full(sub) => sub,
            Payload::Sq { .. } => panic!("sq-loaded cluster has no sub-HNSW"),
        }
    }

    /// The SQ8 payload, when this cluster was loaded compressed.
    pub fn sq(&self) -> Option<&SqCluster> {
        match &self.payload {
            Payload::Sq { sq, .. } => Some(sq),
            Payload::Full(_) => None,
        }
    }

    /// Whether the base payload is the compressed (SQ8) form.
    pub fn is_quantized(&self) -> bool {
        matches!(self.payload, Payload::Sq { .. })
    }

    /// The partition this cluster serves.
    pub fn partition(&self) -> u32 {
        match &self.payload {
            Payload::Full(sub) => sub.partition(),
            Payload::Sq { sq, .. } => sq.partition(),
        }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        match &self.payload {
            Payload::Full(sub) => sub.dim(),
            Payload::Sq { sq, .. } => sq.dim(),
        }
    }

    /// Base vectors plus overflow inserts.
    pub fn total_vectors(&self) -> usize {
        let base = match &self.payload {
            Payload::Full(sub) => sub.len(),
            Payload::Sq { sq, .. } => sq.len(),
        };
        base + self.extra.len()
    }

    /// Number of overflow inserts materialized.
    pub fn overflow_len(&self) -> usize {
        self.extra.len()
    }

    /// Top-`k` search over base + overflow vectors, global ids, ascending
    /// distance. Overflow vectors are scanned exactly — the tail is small
    /// by construction (bounded by the group's overflow capacity).
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<Neighbor> {
        let mut stats = SearchStats::default();
        self.search_with_stats(query, k, ef, &mut stats)
    }

    /// Like [`LoadedCluster::search`], accumulating work counters.
    pub fn search_with_stats(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let sub = match &self.payload {
            Payload::Full(sub) => sub,
            Payload::Sq { .. } => {
                return self
                    .search_sq_with_stats(query, k, stats)
                    .into_iter()
                    .map(|h| Neighbor::new(h.id, h.dist))
                    .collect();
            }
        };
        let metric = sub.hnsw().params().metric_kind();
        let mut top = TopK::new(k);
        // When tombstones exist, ask the base graph for that many extra
        // candidates (and widen the beam accordingly) so filtering the
        // deleted ids still leaves k survivors.
        let extra_needed = self.deleted.len().min(k);
        let want = k + extra_needed;
        let ef_eff = if extra_needed == 0 { ef } else { ef + extra_needed };
        for n in sub.search_with_stats(query, want, ef_eff, stats) {
            if !self.deleted.contains(&n.id) {
                top.push(n.id, n.dist);
            }
        }
        for (gid, v) in &self.extra {
            stats.dist_evals += 1;
            top.push(*gid, metric.distance(query, v));
        }
        top.into_sorted_vec()
    }

    /// Top-`k` scan of a quantized cluster: exhaustive asymmetric L2
    /// over the codes plus an exact scan of the overflow tail, with
    /// tombstone filtering. Hits keep enough addressing information for
    /// the exact-rerank read path.
    ///
    /// # Panics
    ///
    /// Panics when the cluster was loaded full-precision; callers
    /// dispatch on [`LoadedCluster::is_quantized`].
    pub fn search_sq(&self, query: &[f32], k: usize) -> Vec<SqHit> {
        let mut stats = SearchStats::default();
        self.search_sq_with_stats(query, k, &mut stats)
    }

    /// Like [`LoadedCluster::search_sq`], accumulating work counters.
    pub fn search_sq_with_stats(
        &self,
        query: &[f32],
        k: usize,
        stats: &mut SearchStats,
    ) -> Vec<SqHit> {
        let (sq, dead) = match &self.payload {
            Payload::Sq { sq, dead } => (sq, dead),
            Payload::Full(_) => panic!("full-precision cluster has no sq payload"),
        };
        // TopK carries plain (id, dist), so select over pseudo-ids:
        // base row i -> i, overflow insert j -> n + j.
        let n = sq.len() as u32;
        let mut top = TopK::new(k);
        let shifted = sq.params.shift(query);
        for ((local, codes), &dead) in sq.codes.chunks_exact(sq.dim()).enumerate().zip(dead) {
            if dead {
                continue;
            }
            stats.dist_evals += 1;
            top.push(local as u32, sq.params.shifted_l2(&shifted, codes));
        }
        for (j, (_, v)) in self.extra.iter().enumerate() {
            stats.dist_evals += 1;
            top.push(n + j as u32, vecsim::l2_sq(query, v));
        }
        top.into_sorted_vec()
            .into_iter()
            .map(|h| {
                if h.id < n {
                    SqHit {
                        id: sq.global_ids()[h.id as usize],
                        dist: h.dist,
                        local: Some(h.id),
                    }
                } else {
                    SqHit {
                        id: self.extra[(h.id - n) as usize].0,
                        dist: h.dist,
                        local: None,
                    }
                }
            })
            .collect()
    }

    /// Approximate resident size in bytes (for cache accounting).
    pub fn resident_bytes(&self) -> usize {
        let base = match &self.payload {
            Payload::Full(sub) => sub.serialized_size(),
            Payload::Sq { sq, .. } => sq.serialized_size(),
        };
        base + self
            .extra
            .iter()
            .map(|(_, v)| 8 + 4 * v.len())
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecsim::gen;

    fn params() -> HnswParams {
        HnswParams::new(6, 32).seed(3)
    }

    fn build_cluster(n: usize) -> SubCluster {
        let data = gen::uniform(8, n, 0.0, 1.0, 9).unwrap();
        let ids: Vec<u32> = (0..n as u32).map(|i| i * 10 + 1).collect();
        SubCluster::build(3, data, ids, &params()).unwrap()
    }

    #[test]
    fn search_returns_global_ids() {
        let c = build_cluster(50);
        let out = c.search(c.hnsw().vector(7), 1, 16);
        assert_eq!(out[0].id, 71); // local 7 -> global 7*10+1
        assert_eq!(out[0].dist, 0.0);
    }

    #[test]
    fn build_rejects_mismatched_ids() {
        let data = gen::uniform(4, 10, 0.0, 1.0, 1).unwrap();
        assert!(SubCluster::build(0, data, vec![1, 2], &params()).is_err());
    }

    #[test]
    fn build_rejects_empty_partition() {
        let data = Dataset::new(4);
        assert!(SubCluster::build(0, data, vec![], &params()).is_err());
    }

    #[test]
    fn cluster_round_trips_through_bytes() {
        let c = build_cluster(40);
        let blob = c.to_bytes();
        assert_eq!(blob.len(), c.serialized_size());
        let back = SubCluster::from_bytes(&blob).unwrap();
        assert_eq!(back.partition(), c.partition());
        assert_eq!(back.global_ids(), c.global_ids());
        let q = [0.5f32; 8];
        assert_eq!(back.search(&q, 5, 16), c.search(&q, 5, 16));
    }

    #[test]
    fn corrupt_cluster_blobs_are_rejected() {
        let c = build_cluster(10);
        let blob = c.to_bytes();
        assert!(SubCluster::from_bytes(&blob[..10]).is_err());
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(SubCluster::from_bytes(&bad).is_err());
    }

    #[test]
    fn overflow_record_round_trips_with_padding() {
        for dim in [1usize, 2, 3, 8, 128] {
            let r = OverflowRecord {
                partition: 5,
                global_id: 999,
                vector: (0..dim).map(|i| i as f32 * 0.5).collect(),
                tombstone: false,
            };
            let bytes = r.to_bytes();
            assert_eq!(bytes.len(), OverflowRecord::wire_size(dim));
            assert_eq!(bytes.len() % 8, 0, "records must stay 8-aligned");
            // Commit marker sits in the slot's final word.
            let tail = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
            assert_eq!(tail, OVERFLOW_COMMIT);
            let back = OverflowRecord::from_bytes(&bytes, dim).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn uncommitted_slot_is_rejected_by_decode() {
        let dim = 4;
        // A reserved-but-never-written slot reads as all zeros.
        let zeros = vec![0u8; OverflowRecord::wire_size(dim)];
        let err = OverflowRecord::from_bytes(&zeros, dim).unwrap_err();
        assert!(err.to_string().contains("uncommitted"), "{err}");
        // A committed slot with a cleared marker is also uncommitted.
        let mut torn = OverflowRecord::insert(1, 7, vec![1.0; dim]).to_bytes();
        let n = torn.len();
        torn[n - 4..].fill(0);
        assert!(OverflowRecord::from_bytes(&torn, dim).is_err());
    }

    #[test]
    fn damaged_payload_fails_the_checksum() {
        let dim = 3;
        let mut bytes = OverflowRecord::insert(2, 42, vec![0.25; dim]).to_bytes();
        bytes[17] ^= 0x01; // flip a payload bit, marker intact
        let err = OverflowRecord::from_bytes(&bytes, dim).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn parse_overflow_reads_only_used_records() {
        let dim = 4;
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + 3 * rec];
        let r0 = OverflowRecord {
            partition: 1,
            global_id: 10,
            vector: vec![1.0; dim],
            tombstone: false,
        };
        let r1 = OverflowRecord {
            partition: 2,
            global_id: 20,
            vector: vec![2.0; dim],
            tombstone: false,
        };
        area[8..8 + rec].copy_from_slice(&r0.to_bytes());
        area[8 + rec..8 + 2 * rec].copy_from_slice(&r1.to_bytes());
        area[0..8].copy_from_slice(&(2 * rec as u64).to_le_bytes());
        let got = parse_overflow(&area, dim).unwrap();
        assert_eq!(got, vec![r0, r1]);
    }

    #[test]
    fn parse_overflow_tolerates_overcommitted_counter() {
        // A failed insert can leave `used` past capacity; parsing must
        // clamp, not error.
        let dim = 2;
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + rec];
        let r = OverflowRecord::insert(0, 5, vec![0.5; dim]);
        area[8..8 + rec].copy_from_slice(&r.to_bytes());
        area[0..8].copy_from_slice(&(10_000u64).to_le_bytes());
        let got = parse_overflow(&area, dim).unwrap();
        assert_eq!(got, vec![r]); // only the one whole record that fits
    }

    #[test]
    fn parse_overflow_skips_torn_slots() {
        // Committed, torn (reserved-but-unwritten, all zeros), committed:
        // parse yields the two committed records and counts one skip.
        let dim = 2;
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + 3 * rec];
        let r0 = OverflowRecord::insert(0, 1, vec![1.0; dim]);
        let r2 = OverflowRecord::insert(0, 3, vec![3.0; dim]);
        area[8..8 + rec].copy_from_slice(&r0.to_bytes());
        area[8 + 2 * rec..8 + 3 * rec].copy_from_slice(&r2.to_bytes());
        area[0..8].copy_from_slice(&((3 * rec) as u64).to_le_bytes());
        let (got, skipped) = parse_overflow_detailed(&area, dim).unwrap();
        assert_eq!(got, vec![r0, r2]);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn parse_overflow_rejects_headerless_area() {
        assert!(parse_overflow(&[0u8; 4], 2).is_err());
    }

    #[test]
    fn loaded_cluster_filters_overflow_by_partition() {
        let c = build_cluster(20);
        let dim = c.dim();
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + 2 * rec];
        let mine = OverflowRecord {
            partition: 3,
            global_id: 7_000,
            vector: vec![0.5; dim],
            tombstone: false,
        };
        let other = OverflowRecord {
            partition: 4,
            global_id: 8_000,
            vector: vec![0.5; dim],
            tombstone: false,
        };
        area[8..8 + rec].copy_from_slice(&mine.to_bytes());
        area[8 + rec..8 + 2 * rec].copy_from_slice(&other.to_bytes());
        area[0..8].copy_from_slice(&((2 * rec) as u64).to_le_bytes());

        let loaded = LoadedCluster::from_remote(&c.to_bytes(), &area).unwrap();
        assert_eq!(loaded.overflow_len(), 1);
        assert_eq!(loaded.total_vectors(), 21);
        // The inserted vector is findable.
        let out = loaded.search(&vec![0.5; dim], 1, 16);
        assert_eq!(out[0].id, 7_000);
    }

    fn build_sq(n: usize) -> (Dataset, SqCluster) {
        let data = gen::uniform(8, n, 0.0, 1.0, 9).unwrap();
        let ids: Vec<u32> = (0..n as u32).map(|i| i * 10 + 1).collect();
        let sq = SqCluster::build(3, &data, ids).unwrap();
        (data, sq)
    }

    #[test]
    fn sq_cluster_round_trips_through_bytes() {
        let (_, sq) = build_sq(40);
        let blob = sq.to_bytes();
        assert_eq!(blob.len(), sq.serialized_size());
        assert_eq!(blob.len(), SqCluster::wire_size(40, 8));
        let back = SqCluster::from_bytes(&blob).unwrap();
        assert_eq!(back.partition(), 3);
        assert_eq!(back.global_ids(), sq.global_ids());
        assert_eq!(back.params(), sq.params());
        assert_eq!(back.to_bytes(), blob);
    }

    #[test]
    fn corrupt_sq_blobs_are_rejected() {
        let (_, sq) = build_sq(10);
        let blob = sq.to_bytes();
        assert!(SqCluster::from_bytes(&blob[..10]).is_err());
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(SqCluster::from_bytes(&bad).is_err());
        assert!(SqCluster::from_bytes(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn sq_blob_is_roughly_a_quarter_of_f32_payload() {
        let (_, sq) = build_sq(200);
        // 200 vectors at dim 8: f32 payload alone is 6400 bytes; the sq
        // blob (codes + ids + params) must come in well under half.
        assert!(sq.serialized_size() < 200 * 8 * 4 / 2);
    }

    #[test]
    fn sq_scan_finds_the_encoded_vector_and_orders_like_exact_l2() {
        let (data, sq) = build_sq(60);
        let loaded = LoadedCluster::from_remote_sq(&sq.to_bytes(), None).unwrap();
        assert!(loaded.is_quantized());
        assert!(loaded.sq().is_some());
        assert_eq!(loaded.dim(), 8);
        let q = data.get(7);
        let hits = loaded.search_sq(q, 5);
        // The query is itself a member: the asymmetric distance to its
        // own codes is bounded by the quantization error, far below the
        // distance to any other uniform random vector.
        assert_eq!(hits[0].id, 71);
        assert_eq!(hits[0].local, Some(7));
        assert!(hits[0].dist < 0.01, "self distance {}", hits[0].dist);
        // Hits come back ascending.
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        // And the generic search() entry point agrees.
        let plain = loaded.search(q, 5, 16);
        let ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
        let plain_ids: Vec<u32> = plain.iter().map(|n| n.id).collect();
        assert_eq!(ids, plain_ids);
    }

    #[test]
    fn sq_scan_merges_overflow_exactly_and_respects_tombstones() {
        let (data, sq) = build_sq(20);
        let dim = 8;
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + 3 * rec];
        // An insert right on top of the query, an insert for the other
        // partition, and a tombstone killing base id 51 (local 5).
        let q = data.get(5).to_vec();
        let mine = OverflowRecord::insert(3, 7_000, q.clone());
        let other = OverflowRecord::insert(4, 8_000, q.clone());
        let kill = OverflowRecord::tombstone(3, 51, dim);
        area[8..8 + rec].copy_from_slice(&mine.to_bytes());
        area[8 + rec..8 + 2 * rec].copy_from_slice(&other.to_bytes());
        area[8 + 2 * rec..8 + 3 * rec].copy_from_slice(&kill.to_bytes());
        area[0..8].copy_from_slice(&((3 * rec) as u64).to_le_bytes());

        let loaded = LoadedCluster::from_remote_sq(&sq.to_bytes(), Some(&area)).unwrap();
        assert_eq!(loaded.overflow_len(), 1);
        assert!(loaded.deleted().contains(&51));
        let hits = loaded.search_sq(&q, 3);
        // The overflow insert sits at distance exactly 0 (exact scan)
        // and carries no local row; the tombstoned base id is gone.
        assert_eq!(hits[0].id, 7_000);
        assert_eq!(hits[0].dist, 0.0);
        assert_eq!(hits[0].local, None);
        assert!(hits.iter().all(|h| h.id != 51));
        assert!(hits.iter().all(|h| h.id != 8_000));
    }

    #[test]
    fn sq_scan_matches_decode_then_exact_reference() {
        let data = gen::sift_like(400, 31).unwrap();
        let ids: Vec<u32> = (0..400u32).map(|i| i * 3 + 5).collect();
        let sq = SqCluster::build(2, &data, ids.clone()).unwrap();
        let dim = data.dim();
        // Tombstones for base rows 10 and 250, an overflow insert that
        // a later tombstone killed, and one live insert.
        let records = [
            OverflowRecord::tombstone(2, ids[10], dim),
            OverflowRecord::insert(2, 9_000, data.get(77).to_vec()),
            OverflowRecord::insert(2, 9_001, data.get(300).to_vec()),
            OverflowRecord::tombstone(2, ids[250], dim),
            OverflowRecord::tombstone(2, 9_000, dim),
        ];
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + records.len() * rec];
        area[0..8].copy_from_slice(&((records.len() * rec) as u64).to_le_bytes());
        for (i, r) in records.iter().enumerate() {
            area[8 + i * rec..8 + (i + 1) * rec].copy_from_slice(&r.to_bytes());
        }
        let loaded = LoadedCluster::from_remote_sq(&sq.to_bytes(), Some(&area)).unwrap();
        assert_eq!(loaded.overflow_len(), 1);
        let dead = [ids[10], ids[250], 9_000];

        let queries = gen::perturbed_queries(&data, 50, 0.05, 32).unwrap();
        let mut stats = SearchStats::default();
        for q in queries.iter() {
            let mut reference: Vec<(f32, u32)> = data
                .iter()
                .zip(&ids)
                .filter(|(_, gid)| !dead.contains(gid))
                .map(|(row, &gid)| {
                    let back = sq.params().decode(&sq.params().encode(row));
                    (vecsim::l2_sq(q, &back), gid)
                })
                .chain(std::iter::once((vecsim::l2_sq(q, data.get(300)), 9_001)))
                .collect();
            reference.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let hits = loaded.search_sq_with_stats(q, 42, &mut stats);
            assert_eq!(hits.len(), 42);
            for (i, h) in hits.iter().enumerate() {
                assert!(!dead.contains(&h.id), "tombstoned id {} returned", h.id);
                let (ref_dist, ref_id) = reference[i];
                let close = |d: f32| (h.dist - d).abs() <= 1e-5 * d;
                assert!(close(ref_dist), "rank {i}: {} vs {ref_dist}", h.dist);
                if h.id != ref_id {
                    // Only a tie may swap ids: the returned id must sit in
                    // the reference at a distance equal to this rank's.
                    let tied = reference.iter().any(|&(d, id)| id == h.id && close(d));
                    assert!(tied, "rank {i}: id {} vs {ref_id} without a tie", h.id);
                }
            }
        }
        // One evaluation per live row: 398 base rows plus one insert.
        assert_eq!(stats.dist_evals, 50 * 399);
    }

    #[test]
    fn sq_build_rejects_degenerate_partitions() {
        let data = Dataset::new(4);
        assert!(SqCluster::build(0, &data, vec![]).is_err());
        let data = gen::uniform(4, 3, 0.0, 1.0, 1).unwrap();
        assert!(SqCluster::build(0, &data, vec![1]).is_err());
    }

    #[test]
    fn loaded_cluster_merges_base_and_overflow_by_distance() {
        let data = Dataset::from_rows(&[[0.0f32, 0.0], [10.0, 10.0]]).unwrap();
        let sub = SubCluster::build(0, data, vec![1, 2], &params()).unwrap();
        let dim = 2;
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + rec];
        let inserted = OverflowRecord {
            partition: 0,
            global_id: 99,
            vector: vec![0.2, 0.2],
            tombstone: false,
        };
        area[8..8 + rec].copy_from_slice(&inserted.to_bytes());
        area[0..8].copy_from_slice(&(rec as u64).to_le_bytes());
        let loaded = LoadedCluster::from_remote(&sub.to_bytes(), &area).unwrap();
        let out = loaded.search(&[0.1, 0.1], 3, 8);
        let ids: Vec<u32> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 99, 2]);
    }
}
