//! Extended linear-algebra tests: algebraic identities, extreme shapes,
//! and property-based equivalence of the two multiplication plans.

use spangle_core::ChunkPolicy;
use spangle_dataflow::SpangleContext;
use spangle_linalg::{DenseVector, DistMatrix, Orientation};

fn entry(seed: u64) -> impl Fn(usize, usize) -> Option<f64> + Send + Sync + Clone + 'static {
    move |r, c| {
        let h = (r as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((c as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
            .wrapping_add(seed)
            .wrapping_mul(0xBF58476D1CE4E5B9)
            >> 33;
        (!h.is_multiple_of(3)).then_some((h % 17) as f64 - 8.0)
    }
}

#[test]
fn transpose_is_an_involution() {
    let ctx = SpangleContext::new(2);
    let a = DistMatrix::generate(&ctx, 23, 17, (8, 4), ChunkPolicy::default(), entry(1));
    let round = a.transpose().transpose();
    assert_eq!(a.to_local().unwrap(), round.to_local().unwrap());
    assert_eq!(round.rows(), 23);
    assert_eq!(round.cols(), 17);
}

#[test]
fn multiplication_distributes_over_addition() {
    let ctx = SpangleContext::new(2);
    let a = DistMatrix::generate(&ctx, 16, 16, (8, 8), ChunkPolicy::default(), entry(2));
    let b = DistMatrix::generate(&ctx, 16, 16, (8, 8), ChunkPolicy::default(), entry(3));
    let c = DistMatrix::generate(&ctx, 16, 12, (8, 8), ChunkPolicy::default(), entry(4));
    let left = a.add(&b).multiply(&c).to_local().unwrap();
    let right_a = a.multiply(&c).to_local().unwrap();
    let right_b = b.multiply(&c).to_local().unwrap();
    for i in 0..left.len() {
        assert!(
            (left[i] - (right_a[i] + right_b[i])).abs() < 1e-9,
            "index {i}"
        );
    }
}

#[test]
fn scale_commutes_with_multiplication() {
    let ctx = SpangleContext::new(2);
    let a = DistMatrix::generate(&ctx, 12, 10, (4, 4), ChunkPolicy::default(), entry(5));
    let b = DistMatrix::generate(&ctx, 10, 8, (4, 4), ChunkPolicy::default(), entry(6));
    let scaled_first = a.scale(3.0).multiply(&b).to_local().unwrap();
    let scaled_last = a.multiply(&b).scale(3.0).to_local().unwrap();
    for (x, y) in scaled_first.iter().zip(&scaled_last) {
        assert!((x - y).abs() < 1e-9);
    }
}

#[test]
fn single_column_and_single_row_matrices() {
    let ctx = SpangleContext::new(2);
    // Column matrix times row matrix: outer product.
    let col = DistMatrix::generate(&ctx, 9, 1, (4, 1), ChunkPolicy::default(), |r, _| {
        Some((r + 1) as f64)
    });
    let row = DistMatrix::generate(&ctx, 1, 7, (1, 4), ChunkPolicy::default(), |_, c| {
        Some((c + 1) as f64)
    });
    let outer = col.multiply(&row).to_local().unwrap();
    for r in 0..9 {
        for c in 0..7 {
            assert_eq!(outer[r + c * 9], ((r + 1) * (c + 1)) as f64);
        }
    }
    // Row times column: a 1x1 inner product.
    let inner = row
        .multiply(&DistMatrix::generate(
            &ctx,
            7,
            1,
            (4, 1),
            ChunkPolicy::default(),
            |r, _| Some((r + 1) as f64),
        ))
        .to_local()
        .unwrap();
    assert_eq!(inner, vec![(1..=7).map(|i| (i * i) as f64).sum::<f64>()]);
}

#[test]
fn matvec_respects_vector_orientation() {
    let ctx = SpangleContext::new(2);
    let a = DistMatrix::generate(&ctx, 6, 6, (3, 3), ChunkPolicy::default(), entry(7));
    let col = DenseVector::column(vec![1.0; 6]);
    assert_eq!(col.orientation(), Orientation::Column);
    let y = a.matvec(&col).unwrap();
    // The metadata transpose converts for vecmat with zero copies.
    let z = a.vecmat(&y.transpose()).unwrap();
    assert_eq!(z.orientation(), Orientation::Row);
    assert_eq!(z.len(), 6);
}

#[test]
#[should_panic(expected = "matvec needs a column vector")]
fn matvec_rejects_row_vectors() {
    let ctx = SpangleContext::new(1);
    let a = DistMatrix::generate(&ctx, 4, 4, (2, 2), ChunkPolicy::default(), entry(8));
    let _ = a.matvec(&DenseVector::row(vec![1.0; 4]));
}

/// The shuffle plan and the local-join plan agree on arbitrary shapes,
/// block sizes and partition counts.
#[test]
fn local_join_equals_shuffle_plan() {
    spangle_testkit::run_cases(0x11A1_0001, 12, |rng| {
        let m = rng.usize_in(1..24);
        let k = rng.usize_in(1..24);
        let n = rng.usize_in(1..24);
        let block = rng.usize_in(2..9);
        let parts = rng.usize_in(1..5);
        let seed = rng.u64_in(0..50);
        let ctx = SpangleContext::new(2);
        let a = DistMatrix::generate(
            &ctx,
            m,
            k,
            (block, block),
            ChunkPolicy::default(),
            entry(seed),
        );
        let b = DistMatrix::generate(
            &ctx,
            k,
            n,
            (block, block),
            ChunkPolicy::default(),
            entry(seed + 1),
        );
        let via_shuffle = a.multiply(&b).to_local().unwrap();
        let left = a.partition_left_by_inner(parts);
        let right = b.partition_right_by_inner(parts);
        let via_local = DistMatrix::multiply_local(&left, &right)
            .to_local()
            .unwrap();
        for (i, (x, y)) in via_shuffle.iter().zip(&via_local).enumerate() {
            assert!((x - y).abs() < 1e-9, "index {}: {} vs {}", i, x, y);
        }
    });
}

/// `(A·B)ᵀ == Bᵀ·Aᵀ` for arbitrary shapes.
#[test]
fn product_transpose_identity() {
    spangle_testkit::run_cases(0x11A1_0002, 12, |rng| {
        let m = rng.usize_in(1..16);
        let k = rng.usize_in(1..16);
        let n = rng.usize_in(1..16);
        let seed = rng.u64_in(0..50);
        let ctx = SpangleContext::new(2);
        let a = DistMatrix::generate(&ctx, m, k, (4, 4), ChunkPolicy::default(), entry(seed));
        let b = DistMatrix::generate(&ctx, k, n, (4, 4), ChunkPolicy::default(), entry(seed + 9));
        let lhs = a.multiply(&b).transpose().to_local().unwrap();
        let rhs = b.transpose().multiply(&a.transpose()).to_local().unwrap();
        for (i, (x, y)) in lhs.iter().zip(&rhs).enumerate() {
            assert!((x - y).abs() < 1e-9, "index {}", i);
        }
    });
}

/// `gram()` leaves nothing behind: its layout shuffle goes with the
/// product that owns it, not stays for the context's life.
#[test]
fn repeated_gram_calls_leave_nothing_behind() {
    let ctx = SpangleContext::new(2);
    let m = DistMatrix::generate(&ctx, 96, 64, (16, 16), ChunkPolicy::default(), entry(7));
    m.persist();
    let nnz = m.gram().nnz().unwrap();
    let cached_after_first = ctx.cached_bytes();
    assert!(
        cached_after_first > 0,
        "the input matrix itself stays cached"
    );
    for _ in 0..20 {
        assert_eq!(m.gram().nnz().unwrap(), nnz);
    }
    assert_eq!(ctx.cached_bytes(), cached_after_first);
    assert_eq!(ctx.shuffle_resident_bytes(), 0);
}

/// Entries that do not round-trip through small integers: their products
/// round, so the order a cell's terms are added in shows in its last bits.
fn real_entry(r: usize, c: usize) -> Option<f64> {
    let h = (r as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((c as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
        .wrapping_mul(0xBF58476D1CE4E5B9)
        >> 20;
    (h % 100 < 6).then(|| ((h >> 8) % 1999) as f64 / 997.0 - 1.0)
}

/// 512², 6 % dense, 32² blocks: every output block sums 16 contraction
/// keys, four per partition.
fn real_matrix(ctx: &SpangleContext) -> DistMatrix {
    let m = DistMatrix::generate(ctx, 512, 512, (32, 32), ChunkPolicy::default(), real_entry);
    m.persist();
    m
}

fn bits(values: Vec<f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// `MᵀM` is a fixed function of its input: partial products are added in
/// ascending contraction order inside a partition and in map-partition
/// order across them, never in the order a hash map happened to list them.
#[test]
fn repeated_gram_calls_are_bit_identical() {
    let ctx = SpangleContext::new(2);
    let m = real_matrix(&ctx);
    let first = bits(m.gram().to_local().unwrap());
    assert!(first.iter().any(|b| f64::from_bits(*b) != 0.0));
    for call in 1..=10 {
        assert!(
            bits(m.gram().to_local().unwrap()) == first,
            "call {call} differs from the first"
        );
    }
}

/// The spill tier is invisible in the result: under a watermark far below
/// the partial products' volume — every shuffle of the job demotes and
/// rehydrates blocks — the product equals the unspilled one bit for bit.
#[test]
fn gram_under_a_low_watermark_equals_the_unspilled_bits() {
    let unspilled = {
        // Pinned: the suite also runs with a low watermark in the
        // environment.
        let ctx = SpangleContext::builder()
            .executors(2)
            .memory_high_watermark_bytes(usize::MAX)
            .build();
        let product = bits(real_matrix(&ctx).gram().to_local().unwrap());
        assert_eq!(ctx.metrics_snapshot().blocks_spilled, 0);
        product
    };
    let ctx = SpangleContext::builder()
        .executors(2)
        .memory_high_watermark_bytes(256 << 10)
        .build();
    let spilled = bits(real_matrix(&ctx).gram().to_local().unwrap());
    let snapshot = ctx.metrics_snapshot();
    assert!(
        snapshot.blocks_spilled > 0 && snapshot.blocks_rehydrated > 0,
        "the watermark must have sent blocks through the spill tier: {snapshot:?}"
    );
    assert!(spilled == unspilled, "spilling changed the product's bits");
}

/// `gram()` computes the upper block triangle and mirrors the rest; the
/// result equals the full product `MᵀM` on ragged, non-square shapes with
/// empty blocks. Adding it to a hash-laid-out matrix of the same geometry
/// pairs every block with its own — a mirrored block sits in its twin's
/// partition, so the result must not claim the hash layout — and adding it
/// to itself doubles it exactly.
#[test]
fn gram_equals_the_full_transpose_product_on_ragged_shapes() {
    spangle_testkit::run_cases(0x11A1_0003, 12, |rng| {
        let block = rng.usize_in(2..7);
        // Neither dimension a multiple of the block size.
        let rows = block * rng.usize_in(1..5) + rng.usize_in(1..block);
        let cols = block * rng.usize_in(1..6) + rng.usize_in(1..block);
        let seed = rng.u64_in(0..50);
        let empty = rng.usize_in(2..5);
        let values = entry(seed);
        let ctx = SpangleContext::new(2);
        let m = DistMatrix::generate(
            &ctx,
            rows,
            cols,
            (block, block),
            ChunkPolicy::default(),
            move |r, c| {
                values(r, c).filter(|_| !(r / block + 2 * (c / block)).is_multiple_of(empty))
            },
        );
        m.persist();
        let gram = m.gram().to_local().unwrap();
        let full = m.transpose().multiply(&m).to_local().unwrap();
        let (gr, gc) = m.grid();
        assert!(
            m.array().num_chunks().unwrap() < gr * gc,
            "block (0, 0) is empty"
        );
        assert!(gram.iter().any(|v| *v != 0.0));
        for (i, (x, y)) in gram.iter().zip(&full).enumerate() {
            assert!(
                (x - y).abs() < 1e-12,
                "{rows}x{cols}/{block}, index {i}: {x} vs {y}"
            );
        }

        let doubled = m.gram().add(&m.gram()).to_local().unwrap();
        for (i, (x, y)) in doubled.iter().zip(&gram).enumerate() {
            assert_eq!(x.to_bits(), (2.0 * y).to_bits(), "index {i}");
        }
        let other = DistMatrix::generate(
            &ctx,
            cols,
            cols,
            (block, block),
            ChunkPolicy::default(),
            entry(seed + 1),
        );
        let sum = m.gram().add(&other).to_local().unwrap();
        for (i, ((s, g), o)) in sum
            .iter()
            .zip(&gram)
            .zip(&other.to_local().unwrap())
            .enumerate()
        {
            assert_eq!(s.to_bits(), (g + o).to_bits(), "index {i}");
        }
    });
}

/// A matrix on the ragged, empty-block shapes of
/// `gram_equals_the_full_transpose_product_on_ragged_shapes`.
fn ragged_matrix_with_empty_blocks(
    ctx: &SpangleContext,
    rng: &mut spangle_testkit::Rng,
) -> DistMatrix {
    let block = rng.usize_in(2..7);
    // Neither dimension a multiple of the block size.
    let rows = block * rng.usize_in(1..5) + rng.usize_in(1..block);
    let cols = block * rng.usize_in(1..6) + rng.usize_in(1..block);
    let seed = rng.u64_in(0..50);
    let empty = rng.usize_in(2..5);
    let values = entry(seed);
    DistMatrix::generate(
        ctx,
        rows,
        cols,
        (block, block),
        ChunkPolicy::default(),
        move |r, c| values(r, c).filter(|_| !(r / block + 2 * (c / block)).is_multiple_of(empty)),
    )
}

/// `gram()` equals, bit for bit, the full local-join product of the
/// physical transpose with the matrix over the same partition count: the
/// same products, each cell's terms in the same order — ascending
/// contraction index inside a partition, then partition order — whether a
/// block is computed or mirrored, and whether `Mᵀ`'s blocks are built or
/// only indexed.
#[test]
fn gram_equals_the_local_join_product_bit_for_bit() {
    // The seed of the ragged-shape test: the same twelve matrices.
    spangle_testkit::run_cases(0x11A1_0003, 12, |rng| {
        let ctx = SpangleContext::new(2);
        let m = ragged_matrix_with_empty_blocks(&ctx, rng);
        m.persist();
        let (gr, gc) = m.grid();
        assert!(m.array().num_chunks().unwrap() < gr * gc, "an empty block");
        let n = m.array().rdd().num_partitions();
        let mt = m.transpose();
        let full = DistMatrix::multiply_local(
            &mt.partition_left_by_inner(n),
            &m.partition_right_by_inner(n),
        );
        let gram = bits(m.gram().to_local().unwrap());
        assert!(gram.iter().any(|b| f64::from_bits(*b) != 0.0));
        assert!(gram == bits(full.to_local().unwrap()), "bits differ");
    });
}

/// `gram()` on an input nobody persisted caches nothing, not even while
/// its result is alive and has been computed.
#[test]
fn gram_of_an_unpersisted_matrix_caches_nothing() {
    let ctx = SpangleContext::new(2);
    let m = DistMatrix::generate(&ctx, 96, 64, (16, 16), ChunkPolicy::default(), entry(7));
    let gram = m.gram();
    assert!(gram.nnz().unwrap() > 0);
    assert_eq!(ctx.cached_bytes(), 0, "gram() left cached partitions");
    drop(gram);
}

/// One `gram()` shuffles the layout's records plus, per map partition, one
/// partial run per output block on or above the block diagonal.
///
/// `M` has a `gr × g` block grid, every block non-empty and every entry
/// positive, over `P` partitions with `gr ≥ P`. The op runs three stages:
///
/// * the layout shuffle keys each block by its row block (the contraction
///   index of `MᵀM`) and writes one record per block: `gr · g`;
/// * the multiply stage reads that layout in place for both operands and
///   writes one run per output block each partition contributes to. A partition holds at least one row block
///   `k`, and `(Mᵀ)[a, k] · M[k, b]` is a product of non-empty blocks of
///   positive entries, so every partition writes a non-zero run for every
///   computed output block: the `g(g + 1)/2` blocks `(a, b)` with `a ≤ b`,
///   where the full product computes all `g²`;
/// * the reduce's output is counted on the driver, not shuffled.
///
/// Total: `gr · g + P · g(g + 1)/2`.
#[test]
fn gram_shuffles_one_partial_per_partition_and_upper_triangle_block() {
    let ctx = SpangleContext::new(2);
    let m = DistMatrix::generate(&ctx, 37, 45, (8, 8), ChunkPolicy::default(), |r, c| {
        (!(r * 3 + c * 5).is_multiple_of(7)).then(|| 1.0 + ((r + c) % 5) as f64)
    });
    m.persist();
    m.nnz().unwrap();
    let (gr, g) = m.grid();
    let partitions = m.array().rdd().num_partitions();
    assert!(gr >= partitions, "every partition holds a contraction key");
    assert_eq!(m.array().num_chunks().unwrap(), gr * g, "no empty block");

    let before = ctx.metrics_snapshot();
    m.gram().nnz().unwrap();
    let records = (ctx.metrics_snapshot() - before).shuffle_records;
    assert_eq!(records as usize, gr * g + partitions * g * (g + 1) / 2);
}
