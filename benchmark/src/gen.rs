//! Seeded input generators. Every input is a pure hash of `(seed,
//! coordinates)`, so one `--seed` fixes every workload's data and the
//! sequential oracles can regenerate it without asking the system.

/// Split-mix finaliser.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash of a seeded coordinate pair.
#[inline]
pub fn hash2(seed: u64, a: u64, b: u64) -> u64 {
    mix(seed ^ mix(a.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) ^ b.rotate_left(32)))
}

/// A sub-seed for one named input of a workload, so two inputs of the same
/// run never share a stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    mix(seed.wrapping_mul(0x1000_0000_01B3) ^ stream)
}

/// Entry function of a uniformly sparse matrix: each cell is non-zero with
/// probability `per_million / 1e6`. Values lie in `(0, 1]`: with one sign
/// no sum of products cancels, so the non-zero count of `MᵀM` is a
/// property of the structure and the oracle can demand it exactly.
pub fn sparse_entry(
    seed: u64,
    per_million: u64,
) -> impl Fn(usize, usize) -> Option<f64> + Send + Sync + Clone + 'static {
    move |r, c| {
        let h = hash2(seed, r as u64, c as u64);
        (h % 1_000_000 < per_million).then(|| ((h >> 32) % 1000 + 1) as f64 / 1000.0)
    }
}

/// A dense vector with entries in `[0.1, 1.1)`.
pub fn dense_vector(seed: u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| (hash2(seed, i as u64, 0) % 1000) as f64 / 1000.0 + 0.1)
        .collect()
}
