//! [`Xoshiro256Lanes`]: one xoshiro256++ stream, generated eight lanes at
//! a time.
//!
//! The stream is cut into blocks of [`BLOCK`] = 8 × 1024 draws. Lane `j`
//! produces draws `j·1024 … j·1024 + 1023` of the block, and all eight
//! lanes step together in one vector register per state word. At the end
//! of a block each lane has made 1024 steps, so jumping it 7 · 1024 more
//! puts it at its slice of the next block. The jump applies the fixed
//! polynomial [`JUMP_7168`] = x⁷¹⁶⁸ mod p(x), where p is the characteristic
//! polynomial of the xoshiro256 state transition, in the manner of the
//! reference `jump()`. So the draws are the same sequence as
//! [`Xoshiro256PlusPlus::next_u64`], in a different order of work.
//!
//! The buffer is step-major: `buf[i·8 + j]` holds draw `j·1024 + i`, so one
//! vector store writes one step of all eight lanes. While a block is
//! filled, the generator also records a hit bitmap in stream order: bit `n`
//! is set iff draw `n` has `u53 = draw >> 11` below the generator's one
//! threshold. [`Xoshiro256Lanes::run_length`] answers a geometric run from
//! that bitmap with `trailing_zeros` instead of one draw and compare per
//! step.
//!
//! The AVX-512 and AVX2 builds are chosen at run time by a CPU feature
//! probe (`Engine::detect`). The portable build steps the scalar
//! generator into the same buffer and bitmap in stream order, so every
//! build is read by the same consumer code.

use super::{Rng, Xoshiro256PlusPlus};

/// Lanes stepped at once.
const LANES: usize = 8;
/// Draws each lane produces per block.
const LANE: usize = 1024;
/// Draws per block.
const BLOCK: usize = LANES * LANE;
/// Bitmap words per block.
const WORDS: usize = BLOCK / 64;
/// Bitmap words per lane slice.
const LANE_WORDS: usize = LANE / 64;

/// x⁷¹⁶⁸ mod p(x) for the xoshiro256 transition, bit `k` (bit `k % 64` of
/// word `k / 64`) the coefficient of xᵏ: jumping a state by it equals
/// `(LANES − 1) · LANE` = 7168 calls of `next_u64`.
const JUMP_7168: [u64; 4] = [
    0x65d0_b5d6_d3a4_d7d0,
    0x1d1d_60bc_d2d0_9eb4,
    0xc933_7102_457d_65f7,
    0xff41_296d_2583_43e3,
];

/// The name of the block kernel this host runs: `"avx512"`, `"avx2"` or
/// `"portable"`, as the run-time CPU probe picks it. Every build produces
/// the same draws.
pub fn lanes_kernel() -> &'static str {
    Engine::detect(Xoshiro256PlusPlus::seed_from_u64(0)).name()
}

/// Where the next block's draws come from.
///
/// A vector engine is built only by [`Engine::detect`] (and, in tests,
/// `Engine::available`) once the CPU was seen to have every feature its
/// fill enables, so holding one is proof that its `unsafe` fill may run.
#[derive(Clone)]
enum Engine {
    /// The scalar generator, stepped [`BLOCK`] times in stream order.
    Portable(Xoshiro256PlusPlus),
    /// The eight lane states, word `k` of lane `j` at `[k][j]`, for a CPU
    /// with avx512f, avx512dq, avx512vl and avx512bw.
    #[cfg(target_arch = "x86_64")]
    Avx512([[u64; LANES]; 4]),
    /// As `Avx512`, for a CPU with avx2.
    #[cfg(target_arch = "x86_64")]
    Avx2([[u64; LANES]; 4]),
}

impl Engine {
    /// The widest engine this host runs, continuing `rng`'s stream.
    fn detect(rng: Xoshiro256PlusPlus) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx512() {
                return Engine::Avx512(lane_states(rng));
            }
            if is_x86_feature_detected!("avx2") {
                return Engine::Avx2(lane_states(rng));
            }
        }
        Engine::Portable(rng)
    }

    /// Every engine this host runs, each continuing `rng`'s stream, widest
    /// first; the last is always the portable one.
    #[cfg(test)]
    fn available(rng: Xoshiro256PlusPlus) -> Vec<Self> {
        #[allow(unused_mut)]
        let mut engines = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx512() {
                engines.push(Engine::Avx512(lane_states(rng.clone())));
            }
            if is_x86_feature_detected!("avx2") {
                engines.push(Engine::Avx2(lane_states(rng.clone())));
            }
        }
        engines.push(Engine::Portable(rng));
        engines
    }

    /// `"avx512"`, `"avx2"` or `"portable"`.
    fn name(&self) -> &'static str {
        match self {
            Engine::Portable(_) => "portable",
            #[cfg(target_arch = "x86_64")]
            Engine::Avx512(_) => "avx512",
            #[cfg(target_arch = "x86_64")]
            Engine::Avx2(_) => "avx2",
        }
    }
}

/// The four AVX-512 subsets `fill_avx512` enables.
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx512bw")
}

/// A block generator with exactly the draw sequence of the
/// [`Xoshiro256PlusPlus`] it was made from, and a stream-order hit bitmap
/// against one threshold for [`Self::run_length`].
///
/// It holds one 64 KiB block of draws and a 1 KiB bitmap. Every
/// [`Rng`] method reads the same buffer, so [`Rng::next_f64`],
/// [`Rng::gen_below`] and [`Self::run_length`] interleave freely.
///
/// # Examples
///
/// ```
/// use mss_units::rng::{Rng, Xoshiro256Lanes, Xoshiro256PlusPlus};
///
/// let scalar = Xoshiro256PlusPlus::seed_from_u64(7);
/// let mut lanes = Xoshiro256Lanes::new(scalar.clone(), 1 << 50);
/// let mut scalar = scalar;
/// for _ in 0..20_000 {
///     assert_eq!(lanes.next_u64(), scalar.next_u64());
/// }
/// ```
#[derive(Clone)]
pub struct Xoshiro256Lanes {
    engine: Engine,
    /// The current block, step-major: draw `n` at
    /// `(n % LANE) * LANES + n / LANE`.
    buf: Box<[u64; BLOCK]>,
    /// Bit `n % 64` of word `n / 64` is set iff draw `n` of the block hits:
    /// `draw >> 11 < threshold`.
    hits: Box<[u64; WORDS]>,
    threshold: u64,
    /// The next draw of the block to hand out; [`BLOCK`] once it is spent.
    pos: usize,
}

impl Xoshiro256Lanes {
    /// Continues `rng`'s stream, recording hits against `threshold` (an
    /// integer bound on `u53 = draw >> 11`, as from
    /// [`super::coin_threshold`]).
    pub fn new(rng: Xoshiro256PlusPlus, threshold: u64) -> Self {
        Self::with_engine(Engine::detect(rng), threshold)
    }

    /// [`Self::new`] on a given engine.
    fn with_engine(engine: Engine, threshold: u64) -> Self {
        Self {
            engine,
            buf: boxed_zeros(),
            hits: boxed_zeros(),
            threshold,
            pos: BLOCK,
        }
    }

    /// The geometric run at the head of the stream: with `k` the index of
    /// the first upcoming draw whose `u53` is below the threshold, returns
    /// `d = min(k, cap)` and consumes `d + 1` draws. This is exactly the
    /// loop
    ///
    /// ```text
    /// let mut d = 0;
    /// while rng.next_u64() >> 11 >= threshold && d < cap {
    ///     d += 1;
    /// }
    /// ```
    ///
    /// answered one bitmap word at a time.
    #[inline]
    pub fn run_length(&mut self, cap: u32) -> u32 {
        let mut d = 0u32;
        loop {
            if self.pos == BLOCK {
                self.refill();
            }
            let (word, bit) = (self.pos / 64, self.pos % 64);
            // Draws left in this word, and the offset of its first hit
            // (64 when none is left).
            let left = (64 - bit) as u32;
            let z = (self.hits[word] >> bit).trailing_zeros();
            if z < left || cap - d < left {
                let run = d + z.min(cap - d);
                self.pos += (run - d) as usize + 1;
                return run;
            }
            d += left;
            self.pos += left as usize;
        }
    }

    /// Fills the next block and rewinds to its first draw.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        let (buf, hits, threshold) = (&mut *self.buf, &mut *self.hits, self.threshold);
        match &mut self.engine {
            Engine::Portable(rng) => fill_portable(rng, threshold, buf, hits),
            // SAFETY: only `Engine::detect` and `Engine::available` build
            // an `Avx512` engine, and only after `has_avx512` saw avx512f,
            // avx512dq, avx512vl and avx512bw, the features `fill_avx512`
            // enables.
            #[cfg(target_arch = "x86_64")]
            Engine::Avx512(s) => unsafe { x86::fill_avx512(s, threshold, buf, hits) },
            // SAFETY: only `Engine::detect` and `Engine::available` build
            // an `Avx2` engine, and only after detecting avx2, the feature
            // `fill_avx2` enables.
            #[cfg(target_arch = "x86_64")]
            Engine::Avx2(s) => unsafe { x86::fill_avx2(s, threshold, buf, hits) },
        }
        self.pos = 0;
    }
}

impl Rng for Xoshiro256Lanes {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos == BLOCK {
            self.refill();
        }
        let n = self.pos;
        self.pos = n + 1;
        self.buf[(n % LANE) * LANES + n / LANE]
    }
}

impl std::fmt::Debug for Xoshiro256Lanes {
    /// The kernel, threshold and block position; not the 64 KiB block.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Xoshiro256Lanes")
            .field("kernel", &self.engine.name())
            .field("threshold", &self.threshold)
            .field("pos", &self.pos)
            .finish_non_exhaustive()
    }
}

/// A zeroed boxed array, allocated on the heap without a stack copy.
fn boxed_zeros<const N: usize>() -> Box<[u64; N]> {
    vec![0u64; N]
        .into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| unreachable!("the vector has N elements"))
}

/// The lane states of the first block: lane `j` starts `j · LANE` steps
/// after `rng`.
#[cfg(target_arch = "x86_64")]
fn lane_states(mut rng: Xoshiro256PlusPlus) -> [[u64; LANES]; 4] {
    let mut s = [[0; LANES]; 4];
    for j in 0..LANES {
        if j > 0 {
            for _ in 0..LANE {
                rng.next_u64();
            }
        }
        for (k, word) in s.iter_mut().enumerate() {
            word[j] = rng.s[k];
        }
    }
    s
}

/// The portable block: `BLOCK` scalar steps in stream order.
fn fill_portable(
    rng: &mut Xoshiro256PlusPlus,
    threshold: u64,
    buf: &mut [u64; BLOCK],
    hits: &mut [u64; WORDS],
) {
    for (w, word) in hits.iter_mut().enumerate() {
        let mut bits = 0u64;
        for b in 0..64 {
            let n = w * 64 + b;
            let x = rng.next_u64();
            buf[(n % LANE) * LANES + n / LANE] = x;
            bits |= u64::from((x >> 11) < threshold) << b;
        }
        *word = bits;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The vector block kernels. Each fills the step-major buffer one
    //! step of all eight lanes at a time, gathers the 64 hit masks of a
    //! 64-step run into one byte vector, transposes it into the eight
    //! lanes' bitmap words, and ends by jumping every lane by
    //! [`JUMP_7168`].

    use core::arch::x86_64::*;

    use super::{BLOCK, JUMP_7168, LANES, LANE_WORDS, WORDS};

    /// One xoshiro256++ step of eight lanes; returns their outputs.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn step512(s: &mut [__m512i; 4]) -> __m512i {
        let out = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s[0], s[3])), s[0]);
        let t = _mm512_slli_epi64::<17>(s[1]);
        s[2] = _mm512_xor_si512(s[2], s[0]);
        s[3] = _mm512_xor_si512(s[3], s[1]);
        s[1] = _mm512_xor_si512(s[1], s[2]);
        s[0] = _mm512_xor_si512(s[0], s[3]);
        s[2] = _mm512_xor_si512(s[2], t);
        s[3] = _mm512_rol_epi64::<45>(s[3]);
        out
    }

    /// Fills `buf` and `hits` from the lane states `state`, then jumps
    /// each lane to its slice of the next block.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512bw")]
    pub(super) fn fill_avx512(
        state: &mut [[u64; LANES]; 4],
        threshold: u64,
        buf: &mut [u64; BLOCK],
        hits: &mut [u64; WORDS],
    ) {
        let mut s = [_mm512_setzero_si512(); 4];
        for (v, w) in s.iter_mut().zip(state.iter()) {
            // SAFETY: `w` is 8 u64s, 64 readable bytes; unaligned loads
            // are allowed.
            *v = unsafe { _mm512_loadu_si512(w.as_ptr().cast()) };
        }
        let threshold = _mm512_set1_epi64(threshold as i64);
        let mut masks = [0u8; 64];
        for (run, steps) in buf.chunks_exact_mut(64 * LANES).enumerate() {
            for (dst, mask) in steps.chunks_exact_mut(LANES).zip(masks.iter_mut()) {
                let out = step512(&mut s);
                // SAFETY: `dst` is 8 u64s, 64 writable bytes; unaligned
                // stores are allowed.
                unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), out) };
                *mask = _mm512_cmplt_epu64_mask(_mm512_srli_epi64::<11>(out), threshold);
            }
            // SAFETY: `masks` is 64 readable bytes; unaligned loads are
            // allowed.
            let bytes = unsafe { _mm512_loadu_si512(masks.as_ptr().cast()) };
            for j in 0..LANES {
                let lane = _mm512_set1_epi8((1u8 << j) as i8);
                hits[j * LANE_WORDS + run] = _mm512_test_epi8_mask(bytes, lane);
            }
        }
        let mut acc = [_mm512_setzero_si512(); 4];
        for word in JUMP_7168 {
            for b in 0..64 {
                if (word >> b) & 1 == 1 {
                    for (a, v) in acc.iter_mut().zip(s.iter()) {
                        *a = _mm512_xor_si512(*a, *v);
                    }
                }
                step512(&mut s);
            }
        }
        for (w, v) in state.iter_mut().zip(acc.iter()) {
            // SAFETY: `w` is 8 u64s, 64 writable bytes; unaligned stores
            // are allowed.
            unsafe { _mm512_storeu_si512(w.as_mut_ptr().cast(), *v) };
        }
    }

    /// Rotates each 64-bit lane left by `L` (`R` = 64 − `L`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl256<const L: i32, const R: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<L>(x), _mm256_srli_epi64::<R>(x))
    }

    /// One xoshiro256++ step of four lanes; returns their outputs.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn step256(s: &mut [__m256i; 4]) -> __m256i {
        let out = _mm256_add_epi64(rotl256::<23, 41>(_mm256_add_epi64(s[0], s[3])), s[0]);
        let t = _mm256_slli_epi64::<17>(s[1]);
        s[2] = _mm256_xor_si256(s[2], s[0]);
        s[3] = _mm256_xor_si256(s[3], s[1]);
        s[1] = _mm256_xor_si256(s[1], s[2]);
        s[0] = _mm256_xor_si256(s[0], s[3]);
        s[2] = _mm256_xor_si256(s[2], t);
        s[3] = rotl256::<45, 19>(s[3]);
        out
    }

    /// The hit mask of four lanes' outputs: bit `j` set iff lane `j` has
    /// `out >> 11 < threshold`, compared unsigned by flipping both sign
    /// bits (`flipped` is the threshold with its sign bit flipped).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hits256(out: __m256i, flipped: __m256i) -> u8 {
        let sign = _mm256_set1_epi64x(i64::MIN);
        let u53 = _mm256_xor_si256(_mm256_srli_epi64::<11>(out), sign);
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(flipped, u53))) as u8
    }

    /// [`fill_avx512`] with two four-lane halves per step.
    #[target_feature(enable = "avx2")]
    pub(super) fn fill_avx2(
        state: &mut [[u64; LANES]; 4],
        threshold: u64,
        buf: &mut [u64; BLOCK],
        hits: &mut [u64; WORDS],
    ) {
        // `s[h]` holds lanes 4h .. 4h + 3.
        let mut s = [[_mm256_setzero_si256(); 4]; 2];
        for (h, half) in s.iter_mut().enumerate() {
            for (v, w) in half.iter_mut().zip(state.iter()) {
                // SAFETY: `w[4h..4h + 4]` is 32 readable bytes; unaligned
                // loads are allowed.
                *v = unsafe { _mm256_loadu_si256(w[4 * h..4 * h + 4].as_ptr().cast()) };
            }
        }
        let flipped = _mm256_set1_epi64x((threshold ^ (1 << 63)) as i64);
        let mut masks = [0u8; 64];
        for (run, steps) in buf.chunks_exact_mut(64 * LANES).enumerate() {
            for (dst, mask) in steps.chunks_exact_mut(LANES).zip(masks.iter_mut()) {
                let lo = step256(&mut s[0]);
                let hi = step256(&mut s[1]);
                // SAFETY: `dst` is 8 u64s; each store writes 32 bytes
                // inside it, unaligned stores are allowed.
                unsafe {
                    _mm256_storeu_si256(dst[..4].as_mut_ptr().cast(), lo);
                    _mm256_storeu_si256(dst[4..].as_mut_ptr().cast(), hi);
                }
                *mask = hits256(lo, flipped) | hits256(hi, flipped) << 4;
            }
            // SAFETY: each half of `masks` is 32 readable bytes; unaligned
            // loads are allowed.
            let bytes = unsafe {
                [
                    _mm256_loadu_si256(masks[..32].as_ptr().cast()),
                    _mm256_loadu_si256(masks[32..].as_ptr().cast()),
                ]
            };
            for j in 0..LANES {
                // Shifting each 16-bit pair left by 7 − j moves bit j of
                // both its bytes to their top bits, which movemask reads.
                let shift = _mm_cvtsi32_si128(7 - j as i32);
                let lo = _mm256_movemask_epi8(_mm256_sll_epi16(bytes[0], shift)) as u32;
                let hi = _mm256_movemask_epi8(_mm256_sll_epi16(bytes[1], shift)) as u32;
                hits[j * LANE_WORDS + run] = u64::from(lo) | u64::from(hi) << 32;
            }
        }
        for half in &mut s {
            let mut acc = [_mm256_setzero_si256(); 4];
            for word in JUMP_7168 {
                for b in 0..64 {
                    if (word >> b) & 1 == 1 {
                        for (a, v) in acc.iter_mut().zip(half.iter()) {
                            *a = _mm256_xor_si256(*a, *v);
                        }
                    }
                    step256(half);
                }
            }
            *half = acc;
        }
        for (h, half) in s.iter().enumerate() {
            for (v, w) in half.iter().zip(state.iter_mut()) {
                // SAFETY: `w[4h..4h + 4]` is 32 writable bytes; unaligned
                // stores are allowed.
                unsafe { _mm256_storeu_si256(w[4 * h..4 * h + 4].as_mut_ptr().cast(), *v) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEEDS: [u64; 5] = [0, 1, 42, 0x000F_1612, u64::MAX];

    /// The reference xoshiro `jump()` with a given polynomial.
    fn jump(rng: &Xoshiro256PlusPlus, poly: [u64; 4]) -> Xoshiro256PlusPlus {
        let mut s = rng.clone();
        let mut acc = [0u64; 4];
        for word in poly {
            for b in 0..64 {
                if (word >> b) & 1 == 1 {
                    for (a, v) in acc.iter_mut().zip(s.s) {
                        *a ^= v;
                    }
                }
                s.next_u64();
            }
        }
        Xoshiro256PlusPlus { s: acc }
    }

    #[test]
    fn jump_polynomial_is_7168_steps() {
        let mut states: Vec<_> = SEEDS.map(Xoshiro256PlusPlus::seed_from_u64).into();
        states.push(Xoshiro256PlusPlus::from_state([1, 0, 0, 0]));
        states.push(Xoshiro256PlusPlus::from_state([1, 2, 3, 4]));
        for mut rng in states {
            for _ in 0..3 {
                let jumped = jump(&rng, JUMP_7168);
                for _ in 0..(LANES - 1) * LANE {
                    rng.next_u64();
                }
                assert_eq!(jumped, rng);
            }
        }
    }

    /// Counts the words drawn through it.
    struct Counting(Xoshiro256PlusPlus, usize);

    impl Rng for Counting {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    /// The scalar geometric loop [`Xoshiro256Lanes::run_length`] replaces.
    fn run_loop(rng: &mut impl Rng, threshold: u64, cap: u32) -> u32 {
        let mut d = 0;
        while (rng.next_u64() >> 11) >= threshold && d < cap {
            d += 1;
        }
        d
    }

    /// Thresholds equal to the `u53` of a few draws of `seed`'s stream, in
    /// the first three blocks and several lanes: at those draws `<` and
    /// `<=` disagree.
    fn edges(seed: u64) -> Vec<u64> {
        let at = [5, 6, 7, BLOCK + 3000, 2 * BLOCK + 7000];
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let draws: Vec<u64> = (0..=at[4]).map(|_| rng.next_u64() >> 11).collect();
        at.iter().map(|&n| draws[n]).collect()
    }

    #[test]
    fn every_kernel_fills_the_portable_block() {
        for seed in SEEDS {
            for threshold in [1 << 50].into_iter().chain(edges(seed)) {
                let rng = Xoshiro256PlusPlus::seed_from_u64(seed);
                let mut portable =
                    Xoshiro256Lanes::with_engine(Engine::Portable(rng.clone()), threshold);
                let mut others: Vec<_> = Engine::available(rng)
                    .into_iter()
                    .map(|e| (e.name(), Xoshiro256Lanes::with_engine(e, threshold)))
                    .collect();
                for block in 0..4 {
                    portable.refill();
                    for (name, lanes) in &mut others {
                        lanes.refill();
                        let case =
                            format!("{name} seed {seed} threshold {threshold} block {block}");
                        assert_eq!(lanes.buf, portable.buf, "{case}");
                        assert_eq!(lanes.hits, portable.hits, "{case}");
                    }
                }
                assert!(portable.hits.iter().any(|&w| w != 0));
            }
        }
    }

    #[test]
    fn draws_and_runs_match_the_scalar_generator() {
        let two53 = 1u64 << 53;
        let caps = [0u32, 1, 63, 64, 65, 4095];
        // 0 never hits, so the cap binds; 2⁵³ and above hit every draw.
        let thresholds = [0, 1, 2, two53 / 40, two53 / 3, two53, two53 + 1];
        for (s, seed) in SEEDS.into_iter().enumerate() {
            for threshold in thresholds.into_iter().chain(edges(seed)) {
                let rng = Xoshiro256PlusPlus::seed_from_u64(seed);
                for engine in Engine::available(rng.clone()) {
                    let name = engine.name();
                    let mut lanes = Xoshiro256Lanes::with_engine(engine, threshold);
                    let mut scalar = Counting(rng.clone(), 0);
                    let mut op = s;
                    // At least three refills, with runs that cross bitmap
                    // words and block ends.
                    while scalar.1 < 3 * BLOCK + 500 {
                        op = (op * 31 + 7) % 1009;
                        match op % 5 {
                            0 => assert_eq!(lanes.next_u64(), scalar.next_u64()),
                            1 => assert_eq!(lanes.next_f64(), scalar.next_f64()),
                            2 => assert_eq!(
                                lanes.gen_below(1 + op as u64),
                                scalar.gen_below(1 + op as u64)
                            ),
                            _ => {
                                let cap = caps[op % caps.len()];
                                assert_eq!(
                                    lanes.run_length(cap),
                                    run_loop(&mut scalar, threshold, cap),
                                    "{name} seed {seed} threshold {threshold} cap {cap} at {}",
                                    scalar.1
                                );
                            }
                        }
                    }
                    assert_eq!(lanes.next_u64(), scalar.next_u64());
                }
            }
        }
    }

    #[test]
    fn detect_is_the_widest_available_kernel() {
        let rng = Xoshiro256PlusPlus::seed_from_u64(0);
        let all = Engine::available(rng.clone());
        assert_eq!(all[0].name(), Engine::detect(rng).name());
        assert_eq!(all[0].name(), lanes_kernel());
        assert_eq!(all.last().map(Engine::name), Some("portable"));
    }

    #[test]
    fn clone_continues_the_same_stream() {
        let mut a = Xoshiro256Lanes::new(Xoshiro256PlusPlus::seed_from_u64(3), 1 << 49);
        for _ in 0..BLOCK - 10 {
            a.next_u64();
        }
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.run_length(70), b.run_length(70));
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Debug shows the position, not the 64 KiB block.
        assert!(format!("{a:?}").len() < 120);
    }
}
