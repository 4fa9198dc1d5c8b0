//! An exact, table-driven inverse of the geometric tail.
//!
//! A geometric count with tail `P(d ≥ k) = q^k` is one uniform away:
//! `d = ⌊ln U / ln q⌋`. With `U = x·2⁻⁵³` on the 53-bit grid of (0, 1],
//! the count is a non-increasing step function of the integer `x`, so it
//! can be read from a sorted list of thresholds instead of a logarithm.
//! [`GeometricFloor`] does exactly that, and returns what the libm
//! expression returns for every `x`, bit for bit.

use std::fmt;

/// 2⁵³: `x` runs over `1..=TOP`.
const TOP: u64 = 1 << 53;

/// Relative half-width of the band around each threshold inside which the
/// table does not decide and the libm expression does (see
/// [`GeometricFloor`] for why this is enough).
const GUARD: f64 = 1e-11;

/// The most index bits taken below the leading one of `x`: at most 4 096
/// buckets per octave.
const MAX_INDEX_BITS: u32 = 12;

/// The guarded threshold of one count `k`: `x ≤ hi` proves the libm count
/// is at least `k`, and `x > lo` proves it is below `k`.
#[derive(Clone, Copy)]
struct Bracket {
    hi: u64,
    lo: u64,
}

/// `d(x, cap) = min(⌊ln(x·2⁻⁵³) / ln q⌋, cap)` for `x` in `1..=2⁵³`,
/// bit-identical to the libm expression
///
/// ```text
/// let d = (x as f64 / 2⁵³).ln() / ln_q;
/// if d < cap as f64 { d as u64 } else { cap }
/// ```
///
/// but without its `ln` and division for almost every `x`.
///
/// # How
///
/// The count reaches `k` where `x ≤ T_k = 2⁵³·q^k`. The table holds, for
/// every `k ≤ max_cap`, the integers `hi[k] = ⌊T̃_k·(1 − ε)⌋` and
/// `lo[k] = ⌊T̃_k·(1 + ε)⌋`, with `T̃_k = 2⁵³·exp(k·ln q)` and ε = 10⁻¹¹,
/// and an index on the f64 bits of `x` (its octave and the few bits just
/// below its leading one). Each index bucket is narrower than one count,
/// so it straddles at most one threshold, and holds the largest `g` with
/// `hi[g]` above the whole bucket. The table ends early, at the first `k`
/// with `lo[k] = 0`: every `x ≥ 1` proves the count below that `k`, so no
/// later threshold proves anything, and a larger `cap` is read as that
/// `k`. A call then does:
///
/// - `x ≤ hi[cap]`: the count is at least `cap`, return `cap`;
/// - one index load for `g`, and the branch-free step
///   `k = g + (x ≤ hi[g + 1])`, which gives `x ≤ hi[k]`;
/// - the bracket check `x > lo[k + 1]`: if it holds, the count is `k`.
///
/// Anything else falls back to the libm expression: `x` in the guard band
/// of a threshold, a bucket the step cannot resolve, or a `cap` past a
/// table that reached `max_cap` without ending.
///
/// # Why ε = 10⁻¹¹ is enough
///
/// Write `L = ln(x·2⁻⁵³)`, so `|L| ≤ 53·ln 2 < 36.8`. The libm count
/// evaluates `fl(fl(L)/ln q)`: `ln` within one ulp and one rounded
/// division put it within a relative `3.4·10⁻¹⁶` of `L/ln q`. That moves
/// the switch point of count `k` by a relative `3.4·10⁻¹⁶·|L| < 1.3·10⁻¹⁴`
/// in `x`. `T̃_k` is off from `T_k` by the rounding of `k·ln q` (a relative
/// `1.1·10⁻¹⁶` of an exponent below 36.8 where `T_k ≥ 1`, so `4.1·10⁻¹⁵`
/// in `x`), one ulp of `exp`, and the rounded products by `1 ± ε`
/// (another `4·10⁻¹⁶`). Together that is under `1.8·10⁻¹⁴`, so a band of
/// relative half-width ε = 10⁻¹¹ is more than 500 times wider than any
/// disagreement between the table and libm; a libm off by a few ulps is
/// covered too. Below `T_k < 1` every `hi` is 0 and proves nothing, which
/// is why the table ends there.
///
/// # Edges
///
/// - `ln q = −∞` (`q = 0`): every count is 0 (the libm quotient is ±0);
///   `hi[1] = lo[1] = 0` ends the table at `k = 1`.
/// - `ln q = −0` (`q = 1`): every `x < 2⁵³` gives +∞, so `cap`, and
///   `x = 2⁵³` gives `0/−0`, NaN, so `cap` too, from the fallback.
/// - A positive, +0 or NaN `ln q` tables only `cap = 0`; other caps take
///   the libm expression.
#[derive(Clone)]
pub struct GeometricFloor {
    ln_q: f64,
    /// `bounds[k]` for `k` in `0..=last`, where `last` is `max_cap` or the
    /// first `k` with `lo[k] = 0`; `hi` never rises with `k`.
    bounds: Box<[Bracket]>,
    /// The cap every larger cap is read as: `last` when `lo[last] = 0`,
    /// else `u64::MAX`, so that a cap past the table falls back.
    cap_ceiling: u64,
    /// Per bucket `key(x) − base`: the largest `g ≤ last` with
    /// `hi[g] ≥` every `x` of the bucket.
    index: Box<[u32]>,
    /// `key(x) = (x as f64).to_bits() >> shift`: the octave of `x` and the
    /// `52 − shift` bits below its leading one.
    shift: u32,
    /// The key of `hi[last] + 1`, the least `x` that reaches the index.
    base: u64,
}

impl GeometricFloor {
    /// The sampler for `ln_q = ln q ≤ 0`, tabled for caps up to `max_cap`.
    /// Costs one `exp` per tabled count.
    pub fn new(ln_q: f64, max_cap: u32) -> Self {
        let negative = ln_q <= 0.0 && ln_q.is_sign_negative();
        let max_cap = if negative { max_cap as usize } else { 0 };
        let threshold = |k: usize| TOP as f64 * (k as f64 * ln_q).exp();
        let lo = |t: f64| (t * (1.0 + GUARD)).floor() as u64;
        // The table ends at the first count whose `lo` is 0, found before
        // the table is allocated so that it is allocated once, at size.
        let ends = max_cap > 0 && lo(threshold(max_cap)) == 0;
        let last = if ends {
            (1..=max_cap)
                .find(|&k| lo(threshold(k)) == 0)
                .unwrap_or(max_cap)
        } else {
            max_cap
        };
        let mut bounds = Vec::with_capacity(last + 1);
        // Every count is at least 0; `lo[0]` is never read.
        bounds.push(Bracket { hi: TOP, lo: TOP });
        for k in 1..=last {
            let t = threshold(k);
            let hi = ((t * (1.0 - GUARD)).floor() as u64).min(bounds[k - 1].hi);
            bounds.push(Bracket { hi, lo: lo(t) });
        }
        let cap_ceiling = if ends { last as u64 } else { u64::MAX };
        // A bucket spans less than 2^-bits in ln x; keep that under one
        // count's width |ln q|, guard bands included.
        let mut bits = 0;
        while bits < MAX_INDEX_BITS && 0.5f64.powi(bits as i32) > 0.99 * -ln_q {
            bits += 1;
        }
        let shift = 52 - bits;
        let base = key(bounds[last].hi + 1, shift);
        let mut g = last;
        let index = (base..=key(TOP, shift))
            .map(|bucket| {
                // The bucket's largest integer: just below the next
                // bucket's least value.
                let top = f64::from_bits((bucket + 1) << shift).ceil() as u64 - 1;
                while bounds[g].hi < top.min(TOP) {
                    g -= 1;
                }
                g as u32
            })
            .collect();
        Self {
            ln_q,
            bounds: bounds.into_boxed_slice(),
            cap_ceiling,
            index,
            shift,
            base,
        }
    }

    /// `min(⌊ln(x·2⁻⁵³) / ln q⌋, cap)` for `x` in `1..=2⁵³`, exactly as
    /// the libm expression computes it (see the type's documentation).
    #[inline]
    pub fn sample(&self, x: u64, cap: u64) -> u64 {
        self.lookup(x, cap)
            .unwrap_or_else(|| formula(self.ln_q, x, cap))
    }

    /// The table's answer, or `None` where it leaves the call to libm.
    #[inline]
    fn lookup(&self, x: u64, cap: u64) -> Option<u64> {
        // Past the ceiling `hi[cap] = 0 < x` and the count is below it, so
        // the ceiling stands in for `cap`: it is never returned itself.
        let cap = cap.min(self.cap_ceiling);
        if x <= self.bounds.get(usize::try_from(cap).ok()?)?.hi {
            return Some(cap);
        }
        // `x > hi[cap] ≥ hi[last]`, so the key is at least `base`, and
        // `hi[g] ≥ x` gives `g < cap`: every index below is at most `cap`.
        let bucket = key(x, self.shift).wrapping_sub(self.base);
        let g = *self.index.get(usize::try_from(bucket).ok()?)? as usize;
        let k = g + usize::from(x <= self.bounds[g + 1].hi);
        (x > self.bounds[k + 1].lo).then_some(k as u64)
    }
}

/// The index key of `x`: its f64 bits (exact for `x ≤ 2⁵³`) without the
/// low `shift` bits.
#[inline]
fn key(x: u64, shift: u32) -> u64 {
    (x as f64).to_bits() >> shift
}

/// The libm expression the table reproduces.
#[cold]
fn formula(ln_q: f64, x: u64, cap: u64) -> u64 {
    let d = (x as f64 / TOP as f64).ln() / ln_q;
    if d < cap as f64 {
        d as u64
    } else {
        cap
    }
}

impl fmt::Debug for GeometricFloor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GeometricFloor")
            .field("ln_q", &self.ln_q)
            .field("last", &(self.bounds.len() - 1))
            .finish_non_exhaustive()
    }
}

/// The table is a function of `ln q` and the count it ends at.
impl PartialEq for GeometricFloor {
    fn eq(&self, other: &Self) -> bool {
        self.ln_q.to_bits() == other.ln_q.to_bits() && self.bounds.len() == other.bounds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256PlusPlus};

    /// The largest cap any caller tables (the stream's history ring).
    const MAX_CAP: u32 = 4095;

    /// `ln q` of the reuse offset's stop probability `p' = (⌊2⁵³/mean⌋ +
    /// 1)/2⁵³` at each mean, then of the fault rates the gap walk meets,
    /// from the least positive f64 to 1.
    fn ln_qs() -> Vec<(String, f64)> {
        let two53 = TOP as f64;
        let means = [
            1.0, 2.0, 10.0, 12.0, 24.0, 32.0, 48.0, 60.0, 120.0, 200.0, 300.0, 1e9,
        ];
        let rates = [
            f64::from_bits(1),
            1.0 / two53,
            1e-6,
            2e-4,
            1e-3,
            0.5,
            1.0 - 1.0 / two53,
            1.0,
        ];
        let stop = |mean: f64| (((two53 / mean) as u64 + 1) as f64 / two53).min(1.0);
        means
            .iter()
            .map(|&m| (format!("mean {m}"), (-stop(m)).ln_1p()))
            .chain(rates.iter().map(|&p| (format!("rate {p:e}"), (-p).ln_1p())))
            .collect()
    }

    /// The largest `x` whose libm count reaches `k` (0 if none), by
    /// bisection: the count never rises with `x`.
    fn switch_point(ln_q: f64, k: u64) -> u64 {
        let (mut yes, mut no) = (0, TOP + 1);
        while no - yes > 1 {
            let mid = yes + (no - yes) / 2;
            if formula(ln_q, mid, k) == k {
                yes = mid;
            } else {
                no = mid;
            }
        }
        yes
    }

    fn assert_exact(what: &str, t: &GeometricFloor, x: u64, cap: u64) {
        assert_eq!(
            t.sample(x, cap),
            formula(t.ln_q, x, cap),
            "{what}: x = {x}, cap = {cap}"
        );
    }

    #[test]
    fn table_matches_libm_at_every_switch_point_and_guard_edge() {
        for (what, ln_q) in ln_qs() {
            let t = GeometricFloor::new(ln_q, MAX_CAP);
            // The table ends at the first `lo = 0`, or reaches the cap.
            let last = t.bounds.len() - 1;
            let ended = t.bounds[last].lo == 0;
            assert!(ended || last == MAX_CAP as usize, "{what}");
            assert!(t.bounds[..last].iter().all(|b| b.lo > 0), "{what}");
            let past = u64::from(MAX_CAP) + 1;
            for k in 1..=u64::from(MAX_CAP) {
                let s = switch_point(ln_q, k);
                // Past the end every bracket would be `hi = lo = 0`.
                let b = t
                    .bounds
                    .get(k as usize)
                    .copied()
                    .unwrap_or(Bracket { hi: 0, lo: 0 });
                let xs =
                    (s.saturating_sub(2)..=s + 2).chain([b.hi, b.hi + 1, b.lo, b.lo + 1, 1, TOP]);
                for x in xs.filter(|x| (1..=TOP).contains(x)) {
                    for cap in [0, 1, 63, u64::from(MAX_CAP), k - 1, k, k + 1, past, 1 << 32] {
                        assert_exact(&what, &t, x, cap);
                    }
                }
            }
        }
    }

    #[test]
    fn table_matches_libm_on_random_draws() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x6E0F_100B);
        for (what, ln_q) in ln_qs() {
            let t = GeometricFloor::new(ln_q, MAX_CAP);
            for _ in 0..1_000_000 {
                let x = (rng.next_u64() >> 11) + 1;
                for cap in [0, 1, 63, u64::from(MAX_CAP)] {
                    assert_exact(&what, &t, x, cap);
                }
            }
        }
    }

    #[test]
    fn libm_decides_rarely_at_the_kernel_means() {
        // Share of draws the table leaves to libm at cap 4095, the
        // stream's cap once its ring is full.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x6E0F_100C);
        for (what, ln_q) in ln_qs().into_iter().take(11) {
            let t = GeometricFloor::new(ln_q, MAX_CAP);
            let n = 1_000_000;
            let fallbacks = (0..n)
                .filter(|_| {
                    t.lookup((rng.next_u64() >> 11) + 1, MAX_CAP.into())
                        .is_none()
                })
                .count();
            assert!(
                fallbacks * 10_000 < n,
                "{what}: {fallbacks} of {n} fell back"
            );
        }
    }

    #[test]
    fn tables_end_where_thresholds_stop_proving() {
        // The last tabled count is the first `k` with `2⁵³·q^k·(1 + ε) < 1`,
        // about `53·ln 2 / |ln q|`. At cap 4095 the reuse tables of the
        // kernel means 10, 12, 24, 32, 48 and 60 end at counts 349, 423,
        // 864, 1158, 1745 and 2186 (5.5–34.2 KiB of brackets instead of
        // 64 KiB); means of 120 and up still fill the cap.
        for (what, ln_q) in ln_qs() {
            let t = GeometricFloor::new(ln_q, MAX_CAP);
            let last = t.bounds.len() - 1;
            let end = ((-(TOP as f64).ln() / ln_q).floor() as usize).saturating_add(1);
            if end <= MAX_CAP as usize {
                assert!(last.abs_diff(end) <= 1, "{what}: {last} vs {end}");
                assert_eq!(t.cap_ceiling, last as u64, "{what}");
            } else {
                assert_eq!(last, MAX_CAP as usize, "{what}");
                assert_eq!(t.cap_ceiling, u64::MAX, "{what}");
            }
        }
    }

    #[test]
    fn degenerate_laws_fall_back_where_the_table_cannot_decide() {
        // q = 1: every x below 2⁵³ counts to +∞ and x = 2⁵³ to NaN, both
        // the cap; q > 1 and NaN table nothing but cap 0.
        for ln_q in [-0.0, 0.0, 0.5, f64::NAN, f64::INFINITY] {
            let t = GeometricFloor::new(ln_q, MAX_CAP);
            for x in [1, 2, TOP / 2, TOP - 1, TOP] {
                for cap in [0, 1, 63, u64::from(MAX_CAP), 1 << 40] {
                    assert_exact(&format!("ln q = {ln_q}"), &t, x, cap);
                }
            }
        }
    }
}
