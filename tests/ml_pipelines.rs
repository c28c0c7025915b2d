//! Machine-learning integration tests spanning linalg, ml and baselines.

use spangle::baselines::{pagerank_edge_list, pagerank_pregel_like, RowLogReg};
use spangle::core::ChunkPolicy;
use spangle::dataflow::SpangleContext;
use spangle::linalg::{DenseVector, DistMatrix};
use spangle::ml::pagerank::pagerank_reference;
use spangle::ml::{datasets, pagerank, Graph, LogisticRegression, OptLevel, SgdConfig};

#[test]
fn matrix_chain_equals_sequential_reference() {
    let ctx = SpangleContext::new(4);
    // (A·B)·x == A·(B·x)
    let a = DistMatrix::generate(&ctx, 40, 32, (8, 8), ChunkPolicy::default(), |r, c| {
        (r + c)
            .is_multiple_of(3)
            .then_some(((r * 5 + c) % 7) as f64 - 3.0)
    });
    let b = DistMatrix::generate(&ctx, 32, 24, (8, 8), ChunkPolicy::default(), |r, c| {
        Some(((r * 3 + c * 11) % 5) as f64 - 2.0)
    });
    let x = DenseVector::column((0..24).map(|i| (i % 9) as f64 - 4.0).collect());
    let via_product = a.multiply(&b).matvec(&x).unwrap();
    let via_chain = a.matvec(&b.matvec(&x).unwrap()).unwrap();
    for (p, q) in via_product.as_slice().iter().zip(via_chain.as_slice()) {
        assert!((p - q).abs() < 1e-9);
    }
}

#[test]
fn local_join_multiply_is_reusable_across_iterations() {
    let ctx = SpangleContext::new(4);
    let a = DistMatrix::generate(&ctx, 32, 32, (8, 8), ChunkPolicy::default(), |r, c| {
        Some(((r * 17 + c) % 13) as f64)
    });
    let left = a.partition_left_by_inner(4);
    let right = a.partition_right_by_inner(4);
    let expected = a.multiply(&a).to_local().unwrap();
    // Run the local-join product repeatedly; results stay identical and
    // the prepared layout is reused.
    for _ in 0..3 {
        let got = DistMatrix::multiply_local(&left, &right)
            .to_local()
            .unwrap();
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-9);
        }
    }
}

#[test]
fn three_pagerank_systems_agree_end_to_end() {
    let ctx = SpangleContext::new(4);
    let n = 400;
    let g = Graph::power_law(&ctx, n, 4000, 9, 4);
    let ring: Vec<(u64, u64)> = (0..n as u64).map(|v| (v, (v + 1) % n as u64)).collect();
    let g = Graph::new(n, g.edges().union(&ctx.parallelize(ring, 2)));
    let edges = g.edges().collect().unwrap();
    let reference = pagerank_reference(n, &edges, 0.85, 10);

    let spangle = pagerank(&g, 64, false, 0.85, 10).unwrap();
    let spangle_ss = pagerank(&g, 64, true, 0.85, 10).unwrap();
    let spark = pagerank_edge_list(&g, 0.85, 10, 4).unwrap();
    let graphx = pagerank_pregel_like(&g, 0.85, 10, 4).unwrap();
    for (v, &r) in reference.iter().enumerate().take(n) {
        assert!(
            (spangle.ranks.as_slice()[v] - r).abs() < 1e-12,
            "spangle {v}"
        );
        assert!(
            (spangle_ss.ranks.as_slice()[v] - r).abs() < 1e-12,
            "spangle super-sparse {v}"
        );
        assert!((spark.ranks[v] - r).abs() < 1e-12, "spark {v}");
        assert!((graphx.ranks[v] - r).abs() < 1e-12, "graphx {v}");
    }
}

#[test]
fn sgd_and_row_baseline_learn_comparable_models() {
    let ctx = SpangleContext::new(4);
    let data = datasets::synthetic_logreg(&ctx, 4, 8, 128, 1024, 8, 31);
    data.persist();
    let spangle = LogisticRegression::train(
        &data,
        SgdConfig {
            max_iters: 150,
            batch_chunks: 4,
            ..SgdConfig::default()
        },
    )
    .unwrap();
    let spangle_acc = data.accuracy(&spangle.weights).unwrap();

    let baseline = RowLogReg::ingest(&data, None).unwrap();
    let (weights, _, _) = baseline.train(0.6, 1e-4, 150).unwrap();
    let baseline_acc = data.accuracy(&weights).unwrap();

    assert!(spangle_acc > 0.85, "spangle accuracy {spangle_acc}");
    assert!(baseline_acc > 0.85, "baseline accuracy {baseline_acc}");
    assert!(
        (spangle_acc - baseline_acc).abs() < 0.05,
        "models should be comparable: {spangle_acc} vs {baseline_acc}"
    );
}

#[test]
fn opt_levels_produce_identical_training_trajectories() {
    // With the same seed and batch schedule, the three gradient paths are
    // algebraically identical, so the learned weights must match exactly.
    let ctx = SpangleContext::new(4);
    let data = datasets::synthetic_logreg(&ctx, 4, 4, 64, 256, 6, 77);
    data.persist();
    let train = |opt| {
        LogisticRegression::train(
            &data,
            SgdConfig {
                max_iters: 40,
                tolerance: 0.0,
                batch_chunks: 2,
                opt,
                ..SgdConfig::default()
            },
        )
        .unwrap()
        .weights
    };
    let w_none = train(OptLevel::None);
    let w1 = train(OptLevel::Opt1);
    let w12 = train(OptLevel::Opt1Opt2);
    for ((a, b), c) in w_none
        .as_slice()
        .iter()
        .zip(w1.as_slice())
        .zip(w12.as_slice())
    {
        assert!((a - b).abs() < 1e-12);
        assert!((b - c).abs() < 1e-12);
    }
}

#[test]
fn gram_matrix_is_symmetric_and_positive_semidefinite_on_diagonal() {
    let ctx = SpangleContext::new(4);
    let m = DistMatrix::generate(&ctx, 48, 20, (8, 8), ChunkPolicy::default(), |r, c| {
        (r * 7 + c * 3)
            .is_multiple_of(6)
            .then_some(((r + c) % 9) as f64 - 4.0)
    });
    let gram = m.gram().to_local().unwrap();
    for i in 0..20 {
        assert!(gram[i + i * 20] >= -1e-12, "diagonal [{i}] must be >= 0");
        for j in 0..20 {
            assert_eq!(
                gram[i + j * 20].to_bits(),
                gram[j + i * 20].to_bits(),
                "symmetry ({i},{j})"
            );
        }
    }
}
