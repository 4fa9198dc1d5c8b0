//! Structural stable hashing: the content-address of a stage input.
//!
//! [`StableHash`] is the in-tree replacement for `std::hash::Hash` when the
//! hash value must be *stable across processes, platforms and releases* —
//! cache keys written to disk by one run must be found by the next. The
//! hasher is FNV-1a over little-endian byte encodings with a SplitMix64
//! finalizer, both fully specified here; `std`'s `DefaultHasher` is
//! explicitly documented as unstable and would silently invalidate every
//! on-disk cache entry on a toolchain upgrade.
//!
//! Design rules encoded by the impls:
//!
//! - every value is framed (length-prefixed strings and sequences, tagged
//!   enums and `Option`s) so adjacent fields can never alias — `("ab", "c")`
//!   and `("a", "bc")` hash differently;
//! - floats hash their IEEE-754 bit pattern ([`f64::to_bits`]), so `0.0`
//!   and `-0.0` are distinct keys and round-tripped values rehash
//!   identically. On-disk entries store floats the same way: as the
//!   16-hex-digit bit pattern ([`hex_of_f64`] / [`f64_field`]), so a value
//!   loaded from disk is bit-identical to the value that was computed.

use mss_obs::json::Value;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// SplitMix64 output mix: the avalanche finalizer applied by
/// [`StableHasher::finish`].
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A streaming FNV-1a/SplitMix64 hasher with a stable, documented output.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub(crate) const fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes (FNV-1a: xor then multiply, byte at a time).
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `i64` (two's complement, little-endian).
    pub(crate) fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `f64` as its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The finalized 64-bit hash (SplitMix64 avalanche over the FNV state).
    pub(crate) fn finish(&self) -> u64 {
        splitmix64(self.state)
    }

    /// The finalized hash as a 16-character lowercase hex digest — the
    /// cache-key format used in memory and in on-disk file names.
    pub(crate) fn digest(&self) -> String {
        format!("{:016x}", self.finish())
    }
}

/// A type whose structure can be absorbed into a [`StableHasher`].
///
/// Implementations are written by hand (no derive machinery in a zero-dep
/// workspace) and must visit every field that influences the computation the
/// hash keys — adding a field to a config struct means extending its
/// `stable_hash` or stale cache entries will be served for changed inputs.
pub trait StableHash {
    /// Absorbs `self` into the hasher.
    fn stable_hash(&self, h: &mut StableHasher);
}

/// Convenience: the hex digest of a single value.
pub fn digest_of<T: StableHash + ?Sized>(v: &T) -> String {
    let mut h = StableHasher::new();
    v.stable_hash(&mut h);
    h.digest()
}

/// The exact 16-hex-digit encoding of an `f64`'s bit pattern, as on-disk
/// entries store floats.
pub fn hex_of_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Parses a 16-hex-digit bit pattern back into the exact `f64`.
pub(crate) fn f64_of_hex(s: &str) -> Option<f64> {
    if s.len() != 16 || !s.bytes().all(|c| c.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Reads an exact-bits `f64` field (see [`hex_of_f64`]) of a JSON object.
pub fn f64_field(obj: &Value, key: &str) -> Option<f64> {
    f64_of_hex(obj.get(key)?.as_str()?)
}

impl StableHash for u8 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u8(*self);
    }
}

impl StableHash for u16 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u32(u32::from(*self));
    }
}

impl StableHash for u32 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u32(*self);
    }
}

impl StableHash for u64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self);
    }
}

impl StableHash for usize {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self as u64);
    }
}

impl StableHash for i32 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_i64(i64::from(*self));
    }
}

impl StableHash for i64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_i64(*self);
    }
}

impl StableHash for bool {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u8(u8::from(*self));
    }
}

impl StableHash for f64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_f64(*self);
    }
}

impl StableHash for str {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl StableHash for String {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl<T: StableHash + ?Sized> StableHash for &T {
    fn stable_hash(&self, h: &mut StableHasher) {
        (**self).stable_hash(h);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.stable_hash(h);
            }
        }
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.len() as u64);
        for item in self {
            item.stable_hash(h);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_slice().stable_hash(h);
    }
}

impl<A: StableHash, B: StableHash> StableHash for (A, B) {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
    }
}

impl<A: StableHash, B: StableHash, C: StableHash> StableHash for (A, B, C) {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
        self.2.stable_hash(h);
    }
}

impl<A: StableHash, B: StableHash, C: StableHash, D: StableHash> StableHash for (A, B, C, D) {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
        self.2.stable_hash(h);
        self.3.stable_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            1.0,
            core::f64::consts::PI,
            1.234_567_890_123_456_7e-308,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
        ] {
            let hex = hex_of_f64(v);
            assert_eq!(f64_of_hex(&hex).unwrap().to_bits(), v.to_bits());
            let obj = Value::parse(&format!("{{\"v\":\"{hex}\"}}")).unwrap();
            assert_eq!(f64_field(&obj, "v").unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(f64_of_hex("xyz"), None);
        assert_eq!(f64_of_hex("0123"), None);
        assert_eq!(f64_of_hex("+123456789abcdef"), None);
        let obj = Value::parse("{\"n\":1,\"s\":\"3ff0\"}").unwrap();
        assert_eq!(f64_field(&obj, "n"), None);
        assert_eq!(f64_field(&obj, "s"), None);
        assert_eq!(f64_field(&obj, "missing"), None);
    }

    #[test]
    fn digest_is_deterministic_and_pinned() {
        // Pinned literals: if these change, every on-disk cache in the wild
        // is silently invalidated — that must be a deliberate act.
        assert_eq!(digest_of(&42u64), digest_of(&42u64));
        assert_eq!(digest_of(&42u64), "a4e6579fd9ba8f6d");
        assert_eq!(digest_of("mss"), "918fbdde2d310689");
    }

    #[test]
    fn distinct_values_produce_distinct_digests() {
        assert_ne!(digest_of(&1u64), digest_of(&2u64));
        assert_ne!(digest_of(&1u64), digest_of(&1u32));
        assert_ne!(digest_of(&0.0f64), digest_of(&-0.0f64));
        assert_ne!(digest_of(&f64::NAN), digest_of(&0.0f64));
    }

    #[test]
    fn framing_prevents_field_aliasing() {
        assert_ne!(digest_of(&("ab", "c")), digest_of(&("a", "bc")));
        assert_ne!(
            digest_of(&vec![vec![1u64, 2], vec![3]]),
            digest_of(&vec![vec![1u64], vec![2, 3]])
        );
        assert_ne!(digest_of(&Option::<u64>::None), digest_of(&Some(0u64)));
    }

    #[test]
    fn digest_format_is_16_hex_chars() {
        for v in [0u64, 1, u64::MAX] {
            let d = digest_of(&v);
            assert_eq!(d.len(), 16);
            assert!(d
                .chars()
                .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        }
    }
}
