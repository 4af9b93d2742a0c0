//! Latency breakdown and per-batch reports — the measurement plane behind
//! the paper's Tables 1 and 2 and the Fig. 6 latency axes.

use rdma_sim::{ReadCause, StatsSnapshot, READ_CAUSES};

use crate::telemetry::span::ArgValue;

/// Latency of one batch split into its pipeline components.
///
/// *Network* time is virtual (from the RDMA cost model); the compute
/// components are measured wall-clock on the host. Tables 1 and 2 of the
/// paper report three columns — network, sub-HNSW, meta-HNSW — and this
/// struct additionally separates cluster materialization (decoding raw
/// bytes into searchable clusters) out of the search column the paper
/// folds it into.
///
/// Under pipelined execution (`pipeline_depth > 1`) `network_us` is the
/// *exposed* transfer time: the portion of the virtual network time not
/// hidden behind compute by the micro-batch overlap. The four components
/// therefore always tile `total_us` exactly, pipelined or not.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// Data transfer over the (simulated) network, µs. Exposed (i.e.
    /// non-overlapped) time when the batch was pipelined.
    pub network_us: f64,
    /// Sub-HNSW search over materialized cluster data, µs.
    pub sub_hnsw_us: f64,
    /// Meta-HNSW (cached representative index) routing, µs.
    pub meta_hnsw_us: f64,
    /// Decoding raw cluster bytes into searchable sub-HNSW graphs, µs.
    pub materialize_us: f64,
}

impl LatencyBreakdown {
    /// Total latency across the four components.
    pub fn total_us(&self) -> f64 {
        self.network_us + self.sub_hnsw_us + self.meta_hnsw_us + self.materialize_us
    }
}

impl std::ops::Add for LatencyBreakdown {
    type Output = LatencyBreakdown;

    fn add(self, rhs: LatencyBreakdown) -> LatencyBreakdown {
        LatencyBreakdown {
            network_us: self.network_us + rhs.network_us,
            sub_hnsw_us: self.sub_hnsw_us + rhs.sub_hnsw_us,
            meta_hnsw_us: self.meta_hnsw_us + rhs.meta_hnsw_us,
            materialize_us: self.materialize_us + rhs.materialize_us,
        }
    }
}

impl std::ops::AddAssign for LatencyBreakdown {
    fn add_assign(&mut self, rhs: LatencyBreakdown) {
        *self = *self + rhs;
    }
}

/// Where a batch's bytes and round trips went, by [`ReadCause`].
///
/// Built from a [`StatsSnapshot`] delta bracketing the batch, so the
/// per-cause byte counters tile the batch's `bytes_read` exactly: the
/// substrate attributes every read byte to exactly one cause, and
/// `record_read_cause` is the only path that moves `bytes_read`.
/// Round trips are attributed to each doorbell chunk's dominant-bytes
/// cause, so `total_trips()` covers *read* trips only (write and
/// atomic trips carry no cause).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CostLedger {
    /// Bytes read per cause, indexed by [`ReadCause::index`].
    pub cause_bytes: [u64; READ_CAUSES],
    /// Read work requests per cause, indexed by [`ReadCause::index`].
    pub cause_wrs: [u64; READ_CAUSES],
    /// Read round trips per cause (doorbell chunks count once, under
    /// the chunk's dominant-bytes cause), indexed by
    /// [`ReadCause::index`].
    pub cause_trips: [u64; READ_CAUSES],
}

impl CostLedger {
    /// Ledger from a substrate counter delta bracketing one batch.
    pub fn from_delta(delta: &StatsSnapshot) -> Self {
        CostLedger {
            cause_bytes: delta.cause_bytes,
            cause_wrs: delta.cause_wrs,
            cause_trips: delta.cause_trips,
        }
    }

    /// Bytes attributed to `cause`.
    pub fn bytes_for(&self, cause: ReadCause) -> u64 {
        self.cause_bytes[cause.index()]
    }

    /// Read round trips attributed to `cause`.
    pub fn trips_for(&self, cause: ReadCause) -> u64 {
        self.cause_trips[cause.index()]
    }

    /// Total bytes across all causes — equals the bracketing delta's
    /// `bytes_read` by construction.
    pub fn total_bytes(&self) -> u64 {
        self.cause_bytes.iter().sum()
    }

    /// Total read round trips across all causes.
    pub fn total_trips(&self) -> u64 {
        self.cause_trips.iter().sum()
    }

    /// The cause that moved the most bytes, or `None` on an empty
    /// ledger. Ties break toward the lowest cause index, matching the
    /// substrate's doorbell-trip attribution.
    pub fn dominant_cause(&self) -> Option<ReadCause> {
        let (i, &max) = self
            .cause_bytes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?;
        if max == 0 {
            None
        } else {
            Some(ReadCause::ALL[i])
        }
    }

    /// Accumulates another ledger into this one, elementwise.
    pub fn merge(&mut self, other: &CostLedger) {
        for i in 0..READ_CAUSES {
            self.cause_bytes[i] += other.cause_bytes[i];
            self.cause_wrs[i] += other.cause_wrs[i];
            self.cause_trips[i] += other.cause_trips[i];
        }
    }

    /// Human-readable "where did the bytes go" table: one line per
    /// nonzero cause with its byte share, work requests, and trips.
    /// Used by the CLI `explain` report and the `/explain/last`
    /// endpoint.
    pub fn render(&self) -> String {
        let total = self.total_bytes();
        if total == 0 {
            return "  (no read traffic)\n".to_string();
        }
        let mut out = String::new();
        for cause in ReadCause::ALL {
            let bytes = self.bytes_for(cause);
            if bytes == 0 {
                continue;
            }
            let i = cause.index();
            out.push_str(&format!(
                "  {:<14} {:>12} B ({:>5.1}%)  {:>6} wrs  {:>5} trips\n",
                cause.as_str(),
                bytes,
                bytes as f64 / total as f64 * 100.0,
                self.cause_wrs[i],
                self.cause_trips[i],
            ));
        }
        out
    }
}

/// Span-argument keys for per-cause byte counts, indexed by
/// [`ReadCause::index`]. Span arg keys must be `'static`, so the
/// prefix is baked in here instead of formatted at runtime.
const CAUSE_BYTE_KEYS: [&str; READ_CAUSES] = [
    "bytes_stage_load",
    "bytes_prefetch",
    "bytes_version_check",
    "bytes_retry",
    "bytes_health_probe",
    "bytes_overflow_scan",
    "bytes_naive",
    "bytes_rerank",
    "bytes_other",
];

/// Everything one [`crate::ComputeNode::query_batch`] call did.
///
/// The one per-batch record: the exemplar store, the why-slow
/// diagnoser, the profile fold, the root span's arguments (and so the
/// slow-query log) and the CLI's explain output all read this struct.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct BatchReport {
    /// Trace id: the span tracer's sequence number for this batch,
    /// assigned even while span capture is off. Keys the exemplar
    /// store (`/whyslow/<id>`) and the slow-query log.
    pub trace_id: u64,
    /// Search-mode label (`full`, `no_doorbell`, `naive`).
    pub mode: &'static str,
    /// Queries answered in the batch.
    pub queries: usize,
    /// Measured batch latency, µs: CPU wall time of the call plus the
    /// exposed network stall from the virtual clock. The process never
    /// sleeps on the simulated NIC, so wall time alone would miss a
    /// retry storm or a lost pipeline overlap.
    pub latency_us: f64,
    /// Latency breakdown for the whole batch.
    pub breakdown: LatencyBreakdown,
    /// Network round trips issued.
    pub round_trips: u64,
    /// Doorbell rings the batch's reads issued.
    pub doorbell_batches: u64,
    /// Bytes read from the memory pool.
    pub bytes_read: u64,
    /// Distinct clusters the batch required (after query-aware dedup).
    pub unique_clusters: usize,
    /// Clusters served from the local LRU cache.
    pub cache_hits: usize,
    /// Clusters actually loaded over the network.
    pub clusters_loaded: usize,
    /// Total cluster demand before dedup (`b × s`).
    pub raw_cluster_demand: usize,
    /// Queries answered from an incomplete cluster set because a read
    /// exhausted the engine retry budget (degraded mode).
    pub degraded_queries: usize,
    /// Engine-level read retries this batch performed. Every read
    /// counts the same way: +1 per post that exhausted the substrate's
    /// retransmission budget, and +1 per partition whose version pair
    /// disagreed (a torn read, or a cached pin a writer moved). The
    /// re-sent spans are the ledger's `retry` bytes.
    pub read_retries: u64,
    /// Byte/trip provenance: where this batch's read traffic went, by
    /// cause. `ledger.total_bytes() == bytes_read` on every batch.
    pub ledger: CostLedger,
    /// Per-query coverage: the fraction of the query's routed clusters
    /// actually searched, in query order. `1.0` everywhere unless the
    /// batch degraded; empty when the engine skipped per-query
    /// attribution (no degradation and no loads failed).
    pub coverage: Vec<f64>,
}

impl BatchReport {
    /// Mean per-query latency in microseconds.
    pub fn per_query_latency_us(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.breakdown.total_us() / self.queries as f64
        }
    }

    /// Measured latency per query, µs (`latency_us / queries`).
    pub fn latency_per_query_us(&self) -> f64 {
        self.latency_us / self.queries.max(1) as f64
    }

    /// The integer per-query sample the latency histogram observes.
    /// Bucket exemplars are filed under the bucket of exactly this
    /// value, so every populated bucket carries an exemplar.
    pub fn latency_sample_us(&self) -> u64 {
        self.latency_per_query_us() as u64
    }

    /// The "where did the bytes go" report behind `query --explain`
    /// and `/explain/last`: a header naming the batch, the ledger
    /// table, and the dominant cause.
    pub fn render_explain(&self) -> String {
        let mut out = format!(
            "read-cost ledger, trace {} ({} mode, {} queries):\n{}",
            self.trace_id,
            self.mode,
            self.queries,
            self.ledger.render()
        );
        if let Some(cause) = self.ledger.dominant_cause() {
            out.push_str(&format!("dominant cause: {}\n", cause.as_str()));
        }
        out
    }

    /// Arguments the engine attaches to the batch's root span: bytes
    /// per nonzero cause (in cause-index order, which the slow-query
    /// log's dominant-cause label relies on), then the counters and
    /// phase times.
    pub fn root_span_args(&self) -> Vec<(&'static str, ArgValue)> {
        let mut args: Vec<(&'static str, ArgValue)> = self
            .ledger
            .cause_bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(i, &b)| (CAUSE_BYTE_KEYS[i], ArgValue::U64(b)))
            .collect();
        args.extend([
            (
                "unique_clusters",
                ArgValue::U64(self.unique_clusters as u64),
            ),
            ("cache_hits", ArgValue::U64(self.cache_hits as u64)),
            (
                "clusters_loaded",
                ArgValue::U64(self.clusters_loaded as u64),
            ),
            ("round_trips", ArgValue::U64(self.round_trips)),
            ("bytes_read", ArgValue::U64(self.bytes_read)),
            ("meta_us", ArgValue::F64(self.breakdown.meta_hnsw_us)),
            ("network_vt_us", ArgValue::F64(self.breakdown.network_us)),
            ("sub_us", ArgValue::F64(self.breakdown.sub_hnsw_us)),
            (
                "materialize_us",
                ArgValue::F64(self.breakdown.materialize_us),
            ),
        ]);
        args
    }

    /// Network round trips per query — the quantity the paper quotes as
    /// 3.547 (naive), 0.896 (no doorbell), and 4.75 × 10⁻³ (d-HNSW).
    pub fn round_trips_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.round_trips as f64 / self.queries as f64
        }
    }

    /// Fraction of cluster demand absorbed by the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.unique_clusters == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.unique_clusters as f64
        }
    }

    /// Fraction of queries served degraded (incomplete cluster
    /// coverage), in `[0, 1]`.
    pub fn degraded_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.degraded_queries as f64 / self.queries as f64
        }
    }

    /// Merges another batch's counters into this one (for aggregating a
    /// run of batches); `trace_id` and `mode` stay this batch's. Coverage vectors concatenate in batch order;
    /// an empty coverage vector stands for full coverage and is expanded
    /// when the other side carries per-query values.
    pub fn merge(&mut self, other: &BatchReport) {
        if !self.coverage.is_empty() || !other.coverage.is_empty() {
            if self.coverage.is_empty() {
                self.coverage = vec![1.0; self.queries];
            }
            if other.coverage.is_empty() {
                self.coverage
                    .extend(std::iter::repeat_n(1.0, other.queries));
            } else {
                self.coverage.extend_from_slice(&other.coverage);
            }
        }
        self.queries += other.queries;
        self.latency_us += other.latency_us;
        self.breakdown += other.breakdown;
        self.round_trips += other.round_trips;
        self.doorbell_batches += other.doorbell_batches;
        self.bytes_read += other.bytes_read;
        self.unique_clusters += other.unique_clusters;
        self.cache_hits += other.cache_hits;
        self.clusters_loaded += other.clusters_loaded;
        self.raw_cluster_demand += other.raw_cluster_demand;
        self.degraded_queries += other.degraded_queries;
        self.read_retries += other.read_retries;
        self.ledger.merge(&other.ledger);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_components() {
        let b = LatencyBreakdown {
            network_us: 1.0,
            sub_hnsw_us: 2.0,
            meta_hnsw_us: 3.0,
            materialize_us: 4.0,
        };
        assert_eq!(b.total_us(), 10.0);
    }

    #[test]
    fn add_accumulates_componentwise() {
        let a = LatencyBreakdown {
            network_us: 1.0,
            sub_hnsw_us: 2.0,
            meta_hnsw_us: 3.0,
            materialize_us: 4.0,
        };
        let mut c = a;
        c += a;
        assert_eq!(c.network_us, 2.0);
        assert_eq!(c.materialize_us, 8.0);
        assert_eq!(c.total_us(), 20.0);
    }

    #[test]
    fn components_tile_the_total_exactly() {
        // The four components partition the batch latency: no component
        // overlaps another, and nothing is double-counted. In particular
        // materialization is NOT folded into sub_hnsw_us any more.
        let b = LatencyBreakdown {
            network_us: 40.0,
            sub_hnsw_us: 25.0,
            meta_hnsw_us: 5.0,
            materialize_us: 30.0,
        };
        let tiles = [
            b.network_us,
            b.sub_hnsw_us,
            b.meta_hnsw_us,
            b.materialize_us,
        ];
        assert!((tiles.iter().sum::<f64>() - b.total_us()).abs() < 1e-12);
        // Dropping any one tile leaves a strictly smaller total: each
        // component carries its own share.
        for skip in 0..tiles.len() {
            let partial: f64 = tiles
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, v)| v)
                .sum();
            assert!(partial < b.total_us());
        }
    }

    #[test]
    fn per_query_metrics_divide_by_batch_size() {
        let r = BatchReport {
            queries: 10,
            breakdown: LatencyBreakdown {
                network_us: 95.0,
                sub_hnsw_us: 20.0,
                meta_hnsw_us: 5.0,
                materialize_us: 5.0,
            },
            round_trips: 5,
            ..Default::default()
        };
        assert!((r.per_query_latency_us() - 12.5).abs() < 1e-12);
        assert!((r.round_trips_per_query() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_yields_zero_rates() {
        let r = BatchReport::default();
        assert_eq!(r.per_query_latency_us(), 0.0);
        assert_eq!(r.round_trips_per_query(), 0.0);
        assert_eq!(r.cache_hit_rate(), 0.0);
    }

    #[test]
    fn merge_accumulates_counters() {
        let mut a = BatchReport {
            queries: 5,
            round_trips: 2,
            doorbell_batches: 1,
            cache_hits: 1,
            unique_clusters: 4,
            latency_us: 10.0,
            ..Default::default()
        };
        let b = BatchReport {
            queries: 5,
            round_trips: 3,
            doorbell_batches: 2,
            cache_hits: 3,
            unique_clusters: 4,
            latency_us: 30.0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.queries, 10);
        assert_eq!(a.round_trips, 5);
        assert_eq!(a.doorbell_batches, 3);
        assert_eq!(a.latency_per_query_us(), 4.0);
        assert_eq!(a.cache_hit_rate(), 0.5);
    }

    #[test]
    fn ledger_totals_and_dominance() {
        let mut l = CostLedger::default();
        assert_eq!(l.total_bytes(), 0);
        assert_eq!(l.dominant_cause(), None);
        l.cause_bytes[ReadCause::StageLoad.index()] = 900;
        l.cause_bytes[ReadCause::VersionCheck.index()] = 100;
        l.cause_trips[ReadCause::StageLoad.index()] = 2;
        assert_eq!(l.total_bytes(), 1000);
        assert_eq!(l.total_trips(), 2);
        assert_eq!(l.bytes_for(ReadCause::StageLoad), 900);
        assert_eq!(l.dominant_cause(), Some(ReadCause::StageLoad));
        // Ties break toward the lowest cause index, like doorbell-trip
        // attribution in the substrate.
        l.cause_bytes[ReadCause::VersionCheck.index()] = 900;
        assert_eq!(l.dominant_cause(), Some(ReadCause::StageLoad));
    }

    #[test]
    fn ledger_merge_accumulates_elementwise() {
        let mut a = CostLedger::default();
        a.cause_bytes[ReadCause::Prefetch.index()] = 10;
        a.cause_wrs[ReadCause::Prefetch.index()] = 1;
        let mut b = CostLedger::default();
        b.cause_bytes[ReadCause::Prefetch.index()] = 5;
        b.cause_bytes[ReadCause::Retry.index()] = 7;
        b.cause_trips[ReadCause::Retry.index()] = 1;
        a.merge(&b);
        assert_eq!(a.bytes_for(ReadCause::Prefetch), 15);
        assert_eq!(a.bytes_for(ReadCause::Retry), 7);
        assert_eq!(a.total_trips(), 1);
        assert_eq!(a.cause_wrs[ReadCause::Prefetch.index()], 1);
    }

    #[test]
    fn ledger_render_lists_nonzero_causes_with_shares() {
        let mut l = CostLedger::default();
        assert!(l.render().contains("no read traffic"));
        l.cause_bytes[ReadCause::StageLoad.index()] = 750;
        l.cause_bytes[ReadCause::VersionCheck.index()] = 250;
        let text = l.render();
        assert!(text.contains("stage_load"));
        assert!(text.contains("75.0%"));
        assert!(text.contains("version_check"));
        assert!(text.contains("25.0%"));
        assert!(!text.contains("naive"));
    }

    #[test]
    fn latency_sample_and_span_args_come_from_the_report() {
        let mut r = BatchReport {
            trace_id: 7,
            mode: "full",
            queries: 4,
            latency_us: 402.0,
            ..Default::default()
        };
        r.ledger.cause_bytes[ReadCause::Rerank.index()] = 64;
        r.ledger.cause_bytes[ReadCause::StageLoad.index()] = 4096;
        assert_eq!(r.latency_per_query_us(), 100.5);
        assert_eq!(r.latency_sample_us(), 100);
        let args = r.root_span_args();
        // Nonzero causes first, in cause-index order, then the counters.
        assert_eq!(args[0], ("bytes_stage_load", ArgValue::U64(4096)));
        assert_eq!(args[1], ("bytes_rerank", ArgValue::U64(64)));
        assert_eq!(args[2].0, "unique_clusters");
        let explain = r.render_explain();
        assert!(explain.starts_with("read-cost ledger, trace 7 (full mode, 4 queries)"));
        assert!(explain.ends_with("dominant cause: stage_load\n"));
    }

    #[test]
    fn report_merge_accumulates_ledgers() {
        let mut a = BatchReport::default();
        a.ledger.cause_bytes[ReadCause::StageLoad.index()] = 4;
        let mut b = BatchReport::default();
        b.ledger.cause_bytes[ReadCause::StageLoad.index()] = 6;
        a.merge(&b);
        assert_eq!(a.ledger.bytes_for(ReadCause::StageLoad), 10);
    }

    #[test]
    fn merge_expands_missing_coverage() {
        // Full-coverage batch (empty vector) + degraded batch: the
        // merged coverage is per-query, padded with 1.0 for the former.
        let mut a = BatchReport {
            queries: 2,
            ..Default::default()
        };
        let b = BatchReport {
            queries: 2,
            degraded_queries: 1,
            read_retries: 3,
            coverage: vec![0.5, 1.0],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.coverage, vec![1.0, 1.0, 0.5, 1.0]);
        assert_eq!(a.degraded_queries, 1);
        assert_eq!(a.read_retries, 3);
        assert!((a.degraded_rate() - 0.25).abs() < 1e-12);
        // Two full-coverage batches keep the compact empty form.
        let mut c = BatchReport::default();
        c.merge(&BatchReport::default());
        assert!(c.coverage.is_empty());
        assert_eq!(c.degraded_rate(), 0.0);
    }
}
