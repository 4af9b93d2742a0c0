//! Fault-injection regression tests: seeded verb-drop sweeps against the
//! substrate retransmission budget and the engine's read-retry layer.
//!
//! The contract under test: realistic fault rates are absorbed
//! transparently (identical results, no degradation, no corruption);
//! when retransmissions are taken away entirely, a degradation-enabled
//! session still answers every query from whatever arrived, with honest
//! per-query coverage accounting.

use std::sync::Arc;

use dhnsw_repro::dhnsw::{
    BatchReport, DHnswConfig, QuantizeMode, ReadCause, SearchMode, Telemetry, VectorStore,
};
use dhnsw_repro::vecsim::{gen, Dataset};

#[test]
fn seeded_fault_sweep_is_absorbed_transparently() {
    let data = gen::sift_like(600, 21).unwrap();
    let store = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
    let queries = gen::perturbed_queries(&data, 16, 0.02, 22).unwrap();
    let clean = store.connect(SearchMode::Full).unwrap();
    let (expected, _) = clean.query_batch(&queries, 5, 32).unwrap();

    let mut total_faults = 0u64;
    for (i, rate) in [0.05f64, 0.10, 0.15].into_iter().enumerate() {
        let telemetry = Arc::new(Telemetry::new());
        let node = store
            .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
            .unwrap();
        node.queue_pair().set_fault_rate(rate, 0xFA17 + i as u64);
        // Many rounds with a cold cache each time: doorbell batching
        // collapses a whole load round into a couple of verbs, so it
        // takes repetition before a 5% drop rate reliably fires.
        for round in 0..20 {
            node.drop_cache();
            let (got, report) = node.query_batch(&queries, 5, 32).unwrap();

            // The default retransmission budget absorbs every drop:
            // results identical, nothing degraded, nothing corrupt.
            assert_eq!(got, expected, "rate {rate} round {round}: results changed");
            assert_eq!(report.degraded_queries, 0, "rate {rate}");
            assert!(report.coverage.is_empty(), "rate {rate}");
        }
        let faults = node.queue_pair().stats().faults();
        total_faults += faults;
        // The substrate fault counter flows into telemetry verbatim.
        let prom = telemetry.render_prometheus();
        assert!(
            prom.contains(&format!("dhnsw_rdma_faults_total {faults}")),
            "rate {rate}: fault counter disagrees with substrate stats"
        );
    }
    // A seeded sweep this long must have dropped something somewhere.
    assert!(total_faults > 0, "no faults fired across the whole sweep");
}

#[test]
fn degradation_accounts_coverage_honestly_without_retransmissions() {
    let data = gen::sift_like(600, 23).unwrap();
    let cfg = DHnswConfig::small()
        .with_degraded_ok(true)
        .with_read_retry_limit(3);
    let store = VectorStore::build(data.clone(), &cfg).unwrap();
    let queries = gen::perturbed_queries(&data, 16, 0.02, 24).unwrap();

    // No retransmissions at all: only the engine retry layer stands.
    let telemetry = Arc::new(Telemetry::new());
    let node = store
        .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
        .unwrap();
    node.queue_pair().set_retry_limit(0);
    node.queue_pair().set_fault_rate(0.5, 0xD16E);

    let mut total_degraded = 0usize;
    let mut total_retries = 0u64;
    for _ in 0..8 {
        node.drop_cache();
        let (results, report) = node.query_batch(&queries, 5, 32).unwrap();
        assert_eq!(results.len(), queries.len());
        // Coverage bookkeeping: values in [0, 1], degraded count matches
        // the sub-unit entries, and the compact empty form only stands
        // when nothing degraded.
        if report.coverage.is_empty() {
            assert_eq!(report.degraded_queries, 0);
        } else {
            assert_eq!(report.coverage.len(), queries.len());
            assert!(report.coverage.iter().all(|&c| (0.0..=1.0).contains(&c)));
            assert_eq!(
                report.degraded_queries,
                report.coverage.iter().filter(|&&c| c < 1.0).count()
            );
        }
        total_degraded += report.degraded_queries;
        total_retries += report.read_retries;
    }
    // At a 50% drop rate with zero retransmissions, the engine layer
    // must have retried, and the injected faults must be visible.
    assert!(total_retries > 0, "engine retries never fired");
    assert!(node.queue_pair().stats().faults() > 0);
    // Telemetry totals agree with the per-batch reports.
    let prom = telemetry.render_prometheus();
    assert!(
        prom.contains(&format!(
            "dhnsw_read_retries_total{{mode=\"full\"}} {total_retries}"
        )),
        "retry counter disagrees with report totals"
    );
    assert!(
        prom.contains(&format!(
            "dhnsw_degraded_queries_total{{mode=\"full\"}} {total_degraded}"
        )),
        "degraded counter disagrees with report totals"
    );
}

/// Reads `queries` on a fresh SQ8 reader at pipeline depth 1, so its read
/// verbs come in a known order: the stage doorbell, the overflow
/// follow-up (only when a routed partition is mutated), then the exact
/// rerank doorbell. `fail_verb` drops exactly that verb once, with no
/// substrate retransmissions to absorb it.
fn sq8_batch(
    store: &VectorStore,
    queries: &Dataset,
    fail_verb: Option<u32>,
) -> (Vec<Vec<u32>>, BatchReport) {
    let node = store.connect(SearchMode::Full).unwrap();
    assert!(node.is_quantized());
    node.set_pipeline_depth(1);
    if let Some(skip) = fail_verb {
        node.queue_pair().set_retry_limit(0);
        node.queue_pair().fail_nth(skip, 1);
    }
    let (results, report) = node.query_batch(queries, 10, 32).unwrap();
    let ids = results
        .iter()
        .map(|r| r.iter().map(|n| n.id).collect())
        .collect();
    (ids, report)
}

/// The provenance rule for one failed post of `cause` reads: that post
/// moved nothing, so every byte of `cause` arrives on the re-send tagged
/// `retry`; every other cause reads exactly what a fault-free batch
/// reads, except that re-sent brackets add version checks; and the
/// failure counts one retry.
fn assert_resent_as_retry(clean: &BatchReport, faulted: &BatchReport, cause: ReadCause) {
    let (c, f) = (&clean.ledger, &faulted.ledger);
    assert!(
        c.bytes_for(cause) > 0,
        "the fault-free batch reads no {cause:?} bytes"
    );
    assert_eq!(c.bytes_for(ReadCause::Retry), 0);
    for other in ReadCause::ALL {
        let want = match other {
            ReadCause::Retry => c.bytes_for(cause),
            ReadCause::VersionCheck => f.bytes_for(other).max(c.bytes_for(other)),
            _ if other == cause => 0,
            _ => c.bytes_for(other),
        };
        assert_eq!(f.bytes_for(other), want, "{other:?} bytes");
    }
    let extra_checks = f.bytes_for(ReadCause::VersionCheck) - c.bytes_for(ReadCause::VersionCheck);
    assert_eq!(faulted.bytes_read - clean.bytes_read, extra_checks);
    assert_eq!(clean.read_retries, 0);
    assert_eq!(faulted.read_retries, 1);
}

#[test]
fn resent_reads_are_retry_bytes_and_one_failed_post_is_one_retry() {
    let data = gen::sift_like(600, 25).unwrap();
    let cfg = DHnswConfig::small().with_quantize_mode(QuantizeMode::Sq8);
    let queries = gen::perturbed_queries(&data, 8, 0.02, 26).unwrap();

    // (b) Pristine store: the second read verb is the rerank doorbell.
    let store = VectorStore::build(data.clone(), &cfg).unwrap();
    let (clean_ids, clean) = sq8_batch(&store, &queries, None);
    let (ids, faulted) = sq8_batch(&store, &queries, Some(1));
    assert_eq!(ids, clean_ids);
    assert_eq!(clean.ledger.bytes_for(ReadCause::OverflowScan), 0);
    assert_resent_as_retry(&clean, &faulted, ReadCause::Rerank);

    // (a) A writer inserts next to the queries, so the partitions the
    // batch routes to carry overflow records and the second read verb
    // is the overflow follow-up doorbell.
    let writer = store.connect(SearchMode::Full).unwrap();
    for q in queries.iter().take(4) {
        let mut v = q.to_vec();
        v[0] += 0.5;
        writer.insert(&v).unwrap();
    }
    let (clean_ids, clean) = sq8_batch(&store, &queries, None);
    let (ids, faulted) = sq8_batch(&store, &queries, Some(1));
    assert_eq!(ids, clean_ids);
    assert_resent_as_retry(&clean, &faulted, ReadCause::OverflowScan);
}
