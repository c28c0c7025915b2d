//! Extended MaskRDD tests: mask algebra, attribute bookkeeping and the
//! lazy/eager contract under longer pipelines.

use spangle_core::maskrdd::{JoinMode, MaskRdd, SpangleArray};
use spangle_core::{ArrayBuilder, ArrayMeta};
use spangle_dataflow::SpangleContext;

fn stripes(ctx: &SpangleContext, modulus: usize, phase: usize) -> spangle_core::ArrayRdd<f64> {
    ArrayBuilder::new(ctx, ArrayMeta::new(vec![48, 48], vec![16, 16]))
        .ingest(move |c| (c[0] + phase).is_multiple_of(modulus).then(|| c[1] as f64))
        .build()
}

#[test]
fn mask_combine_matches_cellwise_boolean_logic() {
    let ctx = SpangleContext::new(3);
    let a = stripes(&ctx, 2, 0); // x even
    let b = stripes(&ctx, 3, 0); // x % 3 == 0
    let ma = MaskRdd::from_array(&a);
    let mb = MaskRdd::from_array(&b);

    let and_count: usize = ma
        .combine(&mb, JoinMode::And)
        .rdd()
        .aggregate(0usize, |acc, (_, m)| acc + m.0.count_ones(), |x, y| x + y)
        .unwrap();
    let or_count: usize = ma
        .combine(&mb, JoinMode::Or)
        .rdd()
        .aggregate(0usize, |acc, (_, m)| acc + m.0.count_ones(), |x, y| x + y)
        .unwrap();
    // x in 0..48: even AND %3==0 -> %6==0: 8 columns; OR -> 24+16-8=32.
    assert_eq!(and_count, 8 * 48);
    assert_eq!(or_count, 32 * 48);
}

#[test]
fn and_combine_drops_chunks_missing_on_either_side() {
    let ctx = SpangleContext::new(2);
    // a valid only in the left half, b only in the right half: their AND
    // has no chunks at all.
    let a = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![32, 32], vec![16, 16]))
        .ingest(|c| (c[0] < 16).then_some(1.0f64))
        .build();
    let b = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![32, 32], vec![16, 16]))
        .ingest(|c| (c[0] >= 16).then_some(1.0f64))
        .build();
    let and = MaskRdd::from_array(&a).combine(&MaskRdd::from_array(&b), JoinMode::And);
    assert_eq!(and.rdd().count().unwrap(), 0);
    let or = MaskRdd::from_array(&a).combine(&MaskRdd::from_array(&b), JoinMode::Or);
    assert_eq!(or.rdd().count().unwrap(), 4);
}

#[test]
fn join_concatenates_attribute_lists_in_order() {
    let ctx = SpangleContext::new(2);
    let left = SpangleArray::new(
        vec![
            ("u".into(), stripes(&ctx, 2, 0)),
            ("g".into(), stripes(&ctx, 2, 1)),
        ],
        true,
    );
    let right = SpangleArray::new(vec![("r".into(), stripes(&ctx, 3, 0))], true);
    let joined = left.join(&right, JoinMode::Or);
    assert_eq!(joined.attribute_names(), vec!["u", "g", "r"]);
    assert_eq!(joined.num_attributes(), 3);
}

#[test]
fn repeated_filters_tighten_monotonically() {
    let ctx = SpangleContext::new(2);
    let arr = SpangleArray::new(vec![("v".into(), stripes(&ctx, 1, 0))], true);
    let mut counts = Vec::new();
    let mut current = arr;
    for threshold in [10.0, 20.0, 30.0, 40.0] {
        current = current.filter_attribute("v", move |v| v >= threshold);
        counts.push(current.count_valid("v").unwrap());
    }
    assert!(
        counts.windows(2).all(|w| w[0] >= w[1]),
        "filters only remove cells: {counts:?}"
    );
    assert_eq!(counts.last(), Some(&(48 * 8)), "values 40..48 survive");
}

#[test]
#[should_panic(expected = "unknown attribute")]
fn unknown_attribute_names_are_rejected() {
    let ctx = SpangleContext::new(1);
    let arr = SpangleArray::new(vec![("v".into(), stripes(&ctx, 1, 0))], true);
    let _ = arr.materialize("nope");
}

#[test]
#[should_panic(expected = "mismatched geometry")]
fn mismatched_attribute_geometry_is_rejected() {
    let ctx = SpangleContext::new(1);
    let a = stripes(&ctx, 1, 0);
    let b = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![48, 48], vec![8, 8]))
        .ingest(|_| Some(1.0f64))
        .build();
    let _ = SpangleArray::new(vec![("a".into(), a), ("b".into(), b)], true);
}

#[test]
fn global_mask_reflects_pending_operators() {
    let ctx = SpangleContext::new(2);
    let arr = SpangleArray::new(vec![("v".into(), stripes(&ctx, 1, 0))], true)
        .subarray(&[0, 0], &[24, 48]);
    let mask_count: usize = arr
        .global_mask()
        .rdd()
        .aggregate(0usize, |acc, (_, m)| acc + m.0.count_ones(), |x, y| x + y)
        .unwrap();
    assert_eq!(
        mask_count,
        24 * 48,
        "the pending subarray lives in the mask"
    );
}

/// Three persisted, materialised 64² attributes of 16² chunks.
fn persisted_bands(ctx: &SpangleContext) -> Vec<(String, spangle_core::ArrayRdd<f64>)> {
    (0..3usize)
        .map(|k| {
            let arr = ArrayBuilder::new(ctx, ArrayMeta::new(vec![64, 64], vec![16, 16]))
                .ingest(move |c| (c[0] * 7 + c[1]).is_multiple_of(k + 2).then(|| c[0] as f64))
                .build();
            arr.persist();
            arr.count_valid().unwrap();
            (format!("b{k}"), arr)
        })
        .collect()
}

/// Bugfix regression: a combined mask forgot the layout of its inputs, so
/// combining it again shuffled it.
#[test]
fn chained_mask_combines_stay_local() {
    let ctx = SpangleContext::new(2);
    let bands = persisted_bands(&ctx);
    let mask = |i: usize| MaskRdd::from_array(&bands[i].1);
    let before = ctx.metrics_snapshot();
    let chained = mask(0)
        .combine(&mask(1), JoinMode::Or)
        .combine(&mask(2), JoinMode::And);
    assert!(chained.rdd().count().unwrap() > 0);
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(delta.shuffle_write_bytes, 0, "{delta:?}");
    assert_eq!(delta.stages_run, 1);
}

/// Bugfix regression: Fig. 9b's pipeline (subarray → filter on one
/// attribute → subarray → count every attribute) did more work lazily than
/// eagerly, because the lazy mask shuffled after its first `combine`. Over
/// persisted attributes it now shuffles nothing in either mode, and lazy
/// mode runs no more stages than eager mode.
#[test]
fn lazy_fig9b_pipeline_runs_no_more_stages_than_eager_and_shuffles_nothing() {
    let ctx = SpangleContext::new(2);
    let bands = persisted_bands(&ctx);
    let run = |lazy: bool| {
        let arr = SpangleArray::new(bands.clone(), lazy);
        let before = ctx.metrics_snapshot();
        let chained = arr
            .subarray(&[8, 8], &[56, 56])
            .filter_attribute("b0", |v| v > 20.0)
            .subarray(&[16, 16], &[48, 48]);
        let counts: Vec<usize> = arr
            .attribute_names()
            .iter()
            .map(|name| chained.count_valid(name).unwrap())
            .collect();
        (counts, ctx.metrics_snapshot() - before)
    };
    let (lazy_counts, lazy) = run(true);
    let (eager_counts, eager) = run(false);
    assert_eq!(lazy_counts, eager_counts);
    assert!(lazy_counts.iter().all(|&n| n > 0));
    assert_eq!(lazy.shuffle_write_bytes, 0, "lazy: {lazy:?}");
    assert_eq!(eager.shuffle_write_bytes, 0, "eager: {eager:?}");
    assert!(
        lazy.stages_run <= eager.stages_run,
        "lazy ran {} stages, eager {}",
        lazy.stages_run,
        eager.stages_run
    );
}
