//! Differential suite for the SoA clip-and-accumulate kernel behind
//! `estimate_count` (backed by [`BucketPlane`]): it must be
//! **bit-identical** to the scalar AoS fold (`estimate_count_reference`, a
//! left-to-right sum of `Bucket::estimate` over the bucket slice) on the
//! whole shared corpus in `tests/common` — every dataset, technique,
//! extension rule and adversarial query — including through in-place
//! churn and a re-ANALYZE, and the engine's Morton-scheduled batch path
//! over that mix must keep the bits of a per-query loop. The block-pruned
//! scan behind `estimate_count_indexed` is pinned to the same fold by
//! `serving_differential.rs`.
//!
//! `--features exhaustive` scales the corpus up; `--features proptest` adds
//! randomized differential properties over both paths. CI runs the suite
//! on one test thread, and once more under `--features simd` so the
//! runtime-dispatched vector filter is pinned to the same oracle.

mod common;

use common::{
    adversarial_queries, assert_batch_eq_loop, assert_kernel_eq_reference, churn_scenario,
    datasets, filled_table, histograms, techniques,
};
use minskew::prelude::*;
use minskew_datagen::charminar_with;

#[test]
fn kernel_matches_reference_for_every_technique_and_rule() {
    for (name, data) in datasets(common::SCALE) {
        let mbr = data.stats().mbr;
        for (context, hist) in histograms(name, &data) {
            let queries = adversarial_queries(&hist, mbr);
            assert_kernel_eq_reference(&context, &hist, &queries);
        }
    }
}

#[test]
fn kernel_matches_reference_through_churn_and_rebuild() {
    churn_scenario(&charminar_with(2_500, 67), 28, assert_kernel_eq_reference);
}

#[test]
fn batch_serving_stays_bit_identical_through_churn_and_reanalyze() {
    // The full adversarial mix — NaN, ±0 and denormal corners included —
    // through the batch paths, before churn, while stale and after
    // an explicit re-ANALYZE republishes new statistics. Reversed so
    // request order is far from Morton order.
    let data = charminar_with(2_500, 71);
    let mut table = filled_table(&data, TableOptions::default());
    let hist = techniques(&data, 24).remove(0);
    let mut queries = adversarial_queries(&hist, data.stats().mbr);
    queries.reverse();
    assert_batch_eq_loop(&mut table, &queries, "phase=initial");
    for i in 0..60 {
        let d = i as f64;
        table.insert(Rect::new(d, d, d + 5.0, d + 5.0));
    }
    assert_batch_eq_loop(&mut table, &queries, "phase=post-churn");
    table.analyze();
    assert_batch_eq_loop(&mut table, &queries, "phase=post-reanalyze");
}

#[test]
fn morton_schedule_is_a_permutation_on_adversarial_batches() {
    let data = charminar_with(1_500, 73);
    let hist = techniques(&data, 16).remove(0);
    let queries = adversarial_queries(&hist, data.stats().mbr);
    let order = morton_schedule(&queries);
    assert_eq!(order.len(), queries.len());
    let mut seen = vec![false; queries.len()];
    for &i in &order {
        assert!(!seen[i as usize], "index {i} scheduled twice");
        seen[i as usize] = true;
    }
    assert!(seen.iter().all(|&s| s));
}

#[cfg(feature = "proptest")]
mod prop {
    use super::*;
    use proptest::prelude::*;

    fn arb_dataset() -> impl Strategy<Value = Dataset> {
        (
            proptest::collection::vec(
                (0.0..2_000.0f64, 0.0..2_000.0f64, 0.0..80.0f64, 0.0..80.0f64),
                30..300,
            ),
            0.0..1_800.0f64,
            0.0..1_800.0f64,
        )
            .prop_map(|(raw, cx, cy)| {
                let mut rects: Vec<Rect> = raw
                    .iter()
                    .map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h))
                    .collect();
                // A dense cluster guarantees skew; a degenerate pile
                // exercises zero-area buckets.
                for i in 0..50 {
                    let dx = (i % 10) as f64 * 4.0;
                    let dy = (i / 10) as f64 * 4.0;
                    rects.push(Rect::new(cx + dx, cy + dy, cx + dx + 6.0, cy + dy + 6.0));
                }
                for i in 0..30 {
                    rects.push(Rect::from_point(Point::new(cx + i as f64, cy)));
                }
                Dataset::new(rects)
            })
    }

    /// Queries include degenerate (zero-width, zero-height) shapes.
    fn arb_query() -> impl Strategy<Value = Rect> {
        (
            -500.0..2_500.0f64,
            -500.0..2_500.0f64,
            0.0..1_500.0f64,
            0.0..1_500.0f64,
            0usize..4,
        )
            .prop_map(|(x, y, w, h, shape)| match shape {
                0 => Rect::from_point(Point::new(x, y)),
                1 => Rect::new(x, y, x + w, y),
                2 => Rect::new(x, y, x, y + h),
                _ => Rect::new(x, y, x + w, y + h),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For random datasets, budgets, and query batches, both serving
        /// paths equal the AoS reference fold bit-for-bit under every rule.
        #[test]
        fn prop_kernel_equals_reference(
            data in arb_dataset(),
            buckets in 1usize..40,
            queries in proptest::collection::vec(arb_query(), 1..40),
            rule_pick in 0usize..3,
        ) {
            let rule = common::RULES[rule_pick];
            let mut scratch = IndexScratch::new();
            for hist in [
                MinSkewBuilder::new(buckets).regions(256).build(&data),
                build_equi_count(&data, buckets),
            ] {
                let hist = hist.with_extension_rule(rule);
                let context = format!("technique={} rule={rule:?}", hist.name());
                common::assert_bits_eq_reference(&context, &hist, &queries, &mut scratch);
            }
        }
    }
}
