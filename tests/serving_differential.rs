//! Differential suite for the serving layer: the block-pruned scan behind
//! `estimate_count_indexed`, the engine's query cache and the
//! Morton-scheduled batch fan-out must be **bit-identical** to their
//! oracles — the indexed scan to the reference fold
//! (`estimate_count_reference`) on the whole shared corpus and through
//! churn, the cache to an uncached table after every invalidation (insert,
//! delete, re-ANALYZE), the batch to a per-query loop at every thread
//! count. The same scan behind `estimate_count`, with a fresh scratch per
//! call, is pinned to the same fold by `kernel_differential.rs`.
//!
//! The workload is the shared corpus in `tests/common`. CI also runs the
//! suite on one test thread under `--features exhaustive`, and again under
//! `--features exhaustive,simd` so the vector scan's scatter runs through
//! one reused scratch.

mod common;

use common::{
    adversarial_queries, assert_batch_eq_loop, assert_indexed_eq_reference, churn_scenario,
    datasets, filled_table, histograms, queries_for, techniques,
};
use minskew::prelude::*;
use minskew_datagen::charminar_with;

#[test]
fn indexed_estimates_match_linear_for_every_technique_and_rule() {
    // One scratch is reused across every histogram and query, so stale
    // candidate state from a previous plane can never leak into an answer.
    let mut scratch = IndexScratch::new();
    for (name, data) in datasets(common::SCALE) {
        let mbr = data.stats().mbr;
        for (context, hist) in histograms(name, &data) {
            let queries = adversarial_queries(&hist, mbr);
            assert_indexed_eq_reference(&context, &hist, &queries, &mut scratch);
        }
    }
}

#[test]
fn indexed_estimates_survive_maintenance_churn() {
    // note_insert / note_delete mutate buckets in place; the block index
    // must be invalidated and rebuilt, staying bit-identical throughout.
    let mut scratch = IndexScratch::new();
    churn_scenario(&charminar_with(3_000, 23), 32, |context, hist, queries| {
        assert_indexed_eq_reference(context, hist, queries, &mut scratch)
    });
}

#[test]
fn table_cached_estimates_equal_uncached_and_survive_invalidation() {
    let data = charminar_with(3_000, 31);
    let mut cached = filled_table(&data, TableOptions::default());
    let mut uncached = filled_table(
        &data,
        TableOptions {
            query_cache_capacity: 0,
            ..TableOptions::default()
        },
    );
    let queries = queries_for(data.stats().mbr);
    // Three passes: pass 2+ is served from the cache and must not drift.
    for pass in 0..3 {
        for q in &queries {
            assert_eq!(
                cached.estimate(q).to_bits(),
                uncached.estimate(q).to_bits(),
                "pass={pass} q={q}"
            );
        }
    }
    let d = cached.stats_diagnostics();
    assert!(d.cache_hits > 0 && d.cache_misses > 0, "{d:?}");
    // Mutations invalidate: estimates agree immediately after each change,
    // and deleting the inserted row restores every served bit.
    let before: Vec<u64> = queries
        .iter()
        .map(|q| cached.estimate(q).to_bits())
        .collect();
    let extra = Rect::new(100.0, 100.0, 400.0, 400.0);
    let id_c = cached.insert(extra);
    let id_u = uncached.insert(extra);
    for q in &queries {
        assert_eq!(
            cached.estimate(q).to_bits(),
            uncached.estimate(q).to_bits(),
            "post-insert q={q}"
        );
    }
    cached.delete(id_c);
    uncached.delete(id_u);
    for q in &queries {
        assert_eq!(
            cached.estimate(q).to_bits(),
            uncached.estimate(q).to_bits(),
            "post-delete q={q}"
        );
    }
    let after: Vec<u64> = queries
        .iter()
        .map(|q| cached.estimate(q).to_bits())
        .collect();
    assert_eq!(
        after, before,
        "insert + delete of one row must restore the bits"
    );
    // A fresh ANALYZE also flushes; the caches never serve pre-ANALYZE
    // values afterwards.
    cached.analyze();
    uncached.analyze();
    for q in &queries {
        assert_eq!(
            cached.estimate(q).to_bits(),
            uncached.estimate(q).to_bits(),
            "post-analyze q={q}"
        );
    }
    assert!(cached.stats_diagnostics().cache_invalidations >= 3);
}

#[test]
fn batch_estimation_matches_single_query_loop_with_scratch_reuse() {
    // The finite-filtered adversarial mix through the batch paths at every
    // thread count, reversed so request order is far from Morton order,
    // then strict-batch validation of a non-finite query at any position.
    // The full mix through churn is covered by `kernel_differential.rs`.
    let data = charminar_with(3_000, 41);
    let mut table = filled_table(&data, TableOptions::default());
    let hist = techniques(&data, 24).remove(0);
    let mut queries: Vec<Rect> = adversarial_queries(&hist, data.stats().mbr)
        .into_iter()
        .filter(Rect::is_finite)
        .collect();
    queries.reverse();
    assert_batch_eq_loop(&mut table, &queries, "fresh");
    // Upfront validation preserves strict-batch semantics at any position.
    let poisoned = Rect {
        lo: Point::new(f64::NAN, 0.0),
        hi: Point::new(1.0, 1.0),
    };
    for position in [0usize, queries.len() / 2, queries.len()] {
        let mut bad = queries.clone();
        bad.insert(position, poisoned);
        assert!(
            matches!(
                table.try_estimate_batch(&bad),
                Err(EstimateError::NonFiniteQuery)
            ),
            "position={position}"
        );
        // Graceful batch still answers, mapping the bad query to 0.0.
        assert_eq!(table.estimate_batch(&bad)[position], 0.0);
    }
}
