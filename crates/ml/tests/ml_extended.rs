//! Extended ML tests: PageRank invariants and SGD determinism.

use spangle_dataflow::SpangleContext;
use spangle_ml::pagerank::pagerank_reference;
use spangle_ml::{datasets, pagerank, Graph, LogisticRegression, SgdConfig};

#[test]
fn pagerank_mass_is_conserved_without_dangling_vertices() {
    let ctx = SpangleContext::new(2);
    // A ring: every vertex has exactly one out-edge, so no rank mass
    // leaks and the distribution stays uniform.
    let n = 64;
    let ring: Vec<(u64, u64)> = (0..n as u64).map(|v| (v, (v + 1) % n as u64)).collect();
    let g = Graph::from_edges(&ctx, n, ring, 2);
    let result = pagerank(&g, 16, false, 0.85, 25).unwrap();
    let sum: f64 = result.ranks.as_slice().iter().sum();
    assert!((sum - 1.0).abs() < 1e-12, "rank mass {sum}");
    for &r in result.ranks.as_slice() {
        assert!((r - 1.0 / n as f64).abs() < 1e-12, "uniform on a ring");
    }
}

#[test]
fn damping_zero_gives_the_uniform_distribution() {
    let ctx = SpangleContext::new(2);
    let g = Graph::power_law(&ctx, 128, 1000, 3, 2);
    let result = pagerank(&g, 32, false, 0.0, 5).unwrap();
    for &r in result.ranks.as_slice() {
        assert!((r - 1.0 / 128.0).abs() < 1e-15);
    }
}

#[test]
fn duplicate_edges_do_not_change_the_result() {
    let ctx = SpangleContext::new(2);
    let edges = vec![(0u64, 1u64), (1, 2), (2, 0), (0, 2)];
    let mut doubled = edges.clone();
    doubled.extend_from_slice(&edges);
    let clean = pagerank(&Graph::from_edges(&ctx, 3, edges, 2), 2, false, 0.85, 15).unwrap();
    let dup = pagerank(&Graph::from_edges(&ctx, 3, doubled, 2), 2, false, 0.85, 15).unwrap();
    for (a, b) in clean.ranks.as_slice().iter().zip(dup.ranks.as_slice()) {
        assert!(
            (a - b).abs() < 1e-15,
            "bitmask semantics collapse duplicates"
        );
    }
}

#[test]
fn sgd_training_is_deterministic_for_a_fixed_seed() {
    let ctx = SpangleContext::new(3);
    let data = datasets::synthetic_logreg(&ctx, 3, 4, 32, 128, 6, 1);
    data.persist();
    let cfg = SgdConfig {
        max_iters: 30,
        tolerance: 0.0,
        batch_chunks: 2,
        seed: 777,
        ..SgdConfig::default()
    };
    let a = LogisticRegression::train(&data, cfg).unwrap();
    let b = LogisticRegression::train(&data, cfg).unwrap();
    assert_eq!(a.weights.as_slice(), b.weights.as_slice());
    // A different sampling seed changes the trajectory.
    let c = LogisticRegression::train(&data, SgdConfig { seed: 778, ..cfg }).unwrap();
    assert_ne!(a.weights.as_slice(), c.weights.as_slice());
}

#[test]
fn sgd_tolerance_stops_early() {
    let ctx = SpangleContext::new(2);
    let data = datasets::synthetic_logreg(&ctx, 2, 2, 32, 64, 4, 5);
    data.persist();
    let loose = LogisticRegression::train(
        &data,
        SgdConfig {
            max_iters: 500,
            tolerance: 1e-1,
            ..SgdConfig::default()
        },
    )
    .unwrap();
    assert!(
        loose.iterations < 500,
        "a loose tolerance must stop early ({} iterations)",
        loose.iterations
    );
}

/// Distributed PageRank equals the sequential reference on random graphs,
/// in both mask modes.
#[test]
fn pagerank_matches_reference_on_random_graphs() {
    spangle_testkit::run_cases(0x3117_0001, 10, |rng| {
        let n = rng.usize_in(8..80);
        let edges: Vec<(u64, u64)> =
            rng.vec_of(5..120, |r| (r.u64_in(0..n as u64), r.u64_in(0..n as u64)));
        let super_sparse = rng.bool();
        let ctx = SpangleContext::new(2);
        let g = Graph::from_edges(&ctx, n, edges.clone(), 2);
        let got = pagerank(&g, 16, super_sparse, 0.85, 8).unwrap();
        let expected = pagerank_reference(n, &edges, 0.85, 8);
        for (v, (a, b)) in got.ranks.as_slice().iter().zip(&expected).enumerate() {
            assert!((a - b).abs() < 1e-12, "vertex {}: {} vs {}", v, a, b);
        }
    });
}

/// Each call builds and persists its own adjacency matrix; it must be
/// released when the call returns.
#[test]
fn pagerank_releases_its_adjacency_matrix() {
    let ctx = SpangleContext::new(2);
    let g = Graph::power_law(&ctx, 256, 4000, 5, 2);
    let cached_before = ctx.cached_bytes();
    for _ in 0..2 {
        pagerank(&g, 32, false, 0.85, 3).unwrap();
    }
    assert_eq!(ctx.cached_bytes(), cached_before);
    assert_eq!(ctx.shuffle_resident_bytes(), 0);
}
