#![warn(missing_docs)]

//! Deterministic random generation for property-style tests.
//!
//! The workspace's property tests used to run on `proptest`; with the
//! build kept free of external crates, the same tests now loop over cases
//! drawn from this seeded SplitMix64 generator. Failures print the case's
//! seed, so any counterexample reproduces exactly with
//! `Rng::new(reported_seed)`.

use std::ops::Range;

/// Number of cases property-style tests run by default. Individual tests
/// scale this down for expensive bodies.
pub const DEFAULT_CASES: u64 = 24;

/// A SplitMix64 pseudo-random generator: tiny, fast, and with good enough
/// 64-bit avalanche behaviour for test-input generation.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds produce equal streams.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Derives the per-case generator for case `case` of a test, mixing
    /// the test's own seed so different tests see different streams.
    pub fn for_case(test_seed: u64, case: u64) -> Self {
        Rng::new(test_seed ^ case.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform `usize` in `range` (half-open; panics when empty).
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        let span = (range.end - range.start) as u64;
        range.start + (self.next_u64() % span) as usize
    }

    /// Uniform `u64` in `range` (half-open; panics when empty).
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.next_u64() % (range.end - range.start)
    }

    /// Uniform `i64` in `range` (half-open; panics when empty).
    pub fn i64_in(&mut self, range: Range<i64>) -> i64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add((self.next_u64() % span) as i64)
    }

    /// Uniform `i32` in `range` (half-open; panics when empty).
    pub fn i32_in(&mut self, range: Range<i32>) -> i32 {
        self.i64_in(range.start as i64..range.end as i64) as i32
    }

    /// Uniform `u32` in `range` (half-open; panics when empty).
    pub fn u32_in(&mut self, range: Range<u32>) -> u32 {
        self.u64_in(range.start as u64..range.end as u64) as u32
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `gen`.
    pub fn vec_of<T>(&mut self, len: Range<usize>, mut gen: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = if len.start == len.end {
            len.start
        } else {
            self.usize_in(len)
        };
        (0..n).map(|_| gen(self)).collect()
    }
}

/// Runs `body` for `cases` deterministic cases, printing the failing
/// case's seed on panic so it can be replayed with `Rng::new(seed)`.
pub fn run_cases(test_seed: u64, cases: u64, mut body: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let mut rng = Rng::for_case(test_seed, case);
        let replay_seed = rng.state;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!("property case {case} failed; replay with Rng::new({replay_seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Mutation fuzzing for decoders: calls `check` with every hostile variant
/// of a well-formed encoded `frame` —
///
/// * truncated at every offset (including to nothing),
/// * with every single bit flipped,
/// * with every 8-byte window overwritten by a little-endian `u64` that
///   lies about a length: 0, one more and one less than what was there,
///   2³², and `u64::MAX`.
///
/// `check` decodes the bytes and asserts whatever must hold of the outcome
/// (no panic, and a frame that still decodes yields a value its invariants
/// accept). A failing variant is named on stderr before the panic resumes.
pub fn for_each_mutation(frame: &[u8], mut check: impl FnMut(&[u8])) {
    let mut run = |what: &dyn Fn() -> String, bytes: &[u8]| {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(bytes)));
        if let Err(payload) = result {
            eprintln!("decoder failed on a {}-byte frame {}", frame.len(), what());
            std::panic::resume_unwind(payload);
        }
    };
    for cut in 0..frame.len() {
        run(&|| format!("truncated to {cut} bytes"), &frame[..cut]);
    }
    let mut bytes = frame.to_vec();
    for bit in 0..frame.len() * 8 {
        bytes[bit / 8] ^= 1 << (bit % 8);
        run(&|| format!("with bit {bit} flipped"), &bytes);
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
    for at in 0..frame.len().saturating_sub(7) {
        let window = at..at + 8;
        let stored = u64::from_le_bytes(frame[window.clone()].try_into().expect("8 bytes"));
        for lie in [
            0,
            stored.wrapping_add(1),
            stored.wrapping_sub(1),
            1 << 32,
            u64::MAX,
        ] {
            bytes[window.clone()].copy_from_slice(&lie.to_le_bytes());
            run(
                &|| format!("with u64 {lie:#x} written at byte {at}"),
                &bytes,
            );
        }
        bytes[window.clone()].copy_from_slice(&frame[window]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_mutation_covers_cuts_flips_and_length_lies() {
        let frame: Vec<u8> = (1..=10).collect();
        let (mut cuts, mut same_len, mut intact) = (0, 0, 0);
        for_each_mutation(&frame, |bytes| {
            if bytes.len() < frame.len() {
                cuts += 1;
            } else if bytes == frame {
                intact += 1;
            } else {
                same_len += 1;
            }
        });
        assert_eq!(cuts, 10);
        // 80 flips and 3 windows of 5 lies, none of which restores the frame.
        assert_eq!((same_len, intact), (80 + 15, 0));
    }

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            let u = rng.usize_in(3..9);
            assert!((3..9).contains(&u));
            let i = rng.i64_in(-50..50);
            assert!((-50..50).contains(&i));
            let f = rng.f64_unit();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn vec_of_respects_length_bounds() {
        let mut rng = Rng::new(9);
        for _ in 0..100 {
            let v = rng.vec_of(0..10, |r| r.bool());
            assert!(v.len() < 10);
        }
    }

    #[test]
    fn run_cases_executes_every_case() {
        let mut n = 0;
        run_cases(1, 16, |_| n += 1);
        assert_eq!(n, 16);
    }
}
