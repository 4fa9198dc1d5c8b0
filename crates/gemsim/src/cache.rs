//! Set-associative LRU cache simulation with full activity counters.

use std::ops::{BitOr, Range};

use crate::GemsimError;

/// Static configuration of one cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Display name ("big.L2", "LITTLE.L1D", ...).
    pub name: String,
    /// Capacity in bytes.
    pub capacity: u64,
    /// Ways per set.
    pub associativity: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Read-hit latency, seconds.
    pub read_latency: f64,
    /// Write-hit latency, seconds.
    pub write_latency: f64,
    /// Energy per read access, joules.
    pub read_energy: f64,
    /// Energy per write access, joules.
    pub write_energy: f64,
    /// Static leakage, watts.
    pub leakage_power: f64,
}

impl mss_pipe::StableHash for CacheConfig {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_str(&self.name);
        h.write_u64(self.capacity);
        h.write_u32(self.associativity);
        h.write_u32(self.line_bytes);
        h.write_f64(self.read_latency);
        h.write_f64(self.write_latency);
        h.write_f64(self.read_energy);
        h.write_f64(self.write_energy);
        h.write_f64(self.leakage_power);
    }
}

impl CacheConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`GemsimError::InvalidCache`] when dimensions are inconsistent.
    pub fn validate(&self) -> Result<(), GemsimError> {
        let fail = |reason: String| {
            Err(GemsimError::InvalidCache {
                name: self.name.clone(),
                reason,
            })
        };
        if self.capacity == 0 || self.associativity == 0 || self.line_bytes == 0 {
            return fail("dimensions must be non-zero".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return fail(format!(
                "line size {} must be a power of two",
                self.line_bytes
            ));
        }
        let ways_bytes = self.associativity as u64 * self.line_bytes as u64;
        if !self.capacity.is_multiple_of(ways_bytes) {
            return fail("capacity not divisible by ways x line size".into());
        }
        let sets = self.capacity / ways_bytes;
        if !sets.is_power_of_two() {
            return fail(format!("{sets} sets is not a power of two"));
        }
        if self.read_latency < 0.0 || self.write_latency < 0.0 {
            return fail("latencies must be non-negative".into());
        }
        Ok(())
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity / (self.associativity as u64 * self.line_bytes as u64)
    }
}

/// Activity counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Read hits.
    pub read_hits: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Dirty evictions (write-backs to the next level).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.accesses() - self.hits()
    }

    /// Miss ratio in `[0, 1]` (0 when never accessed).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses() as f64
        }
    }

    /// Hit ratio in `[0, 1]` (1 when never accessed, so that
    /// `hit_ratio() + miss_ratio() == 1` always holds).
    pub fn hit_ratio(&self) -> f64 {
        1.0 - self.miss_ratio()
    }

    /// Accumulates another counter set.
    pub fn merge(&mut self, other: &CacheStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_hits += other.read_hits;
        self.write_hits += other.write_hits;
        self.writebacks += other.writebacks;
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The access hit in this cache.
    pub hit: bool,
    /// A dirty line was evicted and must be written back below.
    pub writeback: bool,
    /// Line-aligned byte address of the line this access displaced (dirty
    /// *or* clean); `None` when nothing was evicted. `writeback` implies
    /// `victim.is_some()`.
    pub victim: Option<u64>,
}

/// The slab of ways. A way holds `tag << 2 | dirty << 1 | 1`, and 0 when
/// empty, so an empty way never matches a probe. A tag is
/// `64 − log2(line_bytes × sets)` bits wide, so a `u64` way holds it
/// whenever `line_bytes × sets ≥ 4`: every cache the flow builds. Smaller
/// geometries (say, one set of 1-byte lines, whose tag is the whole
/// address) store `u128` ways.
#[derive(Debug, Clone)]
enum Ways {
    Narrow(Box<[u64]>),
    Wide(Box<[u128]>),
}

/// Looks the line `key` (its clean way word) up in one set, stored most
/// recently used first, and moves it to the front, dirty if `write`: a hit
/// at way `p` shifts ways `0..p` down one slot, a miss shifts the whole
/// set. Returns whether it hit and the way pushed off the LRU end, which is
/// 0 on a hit or if that way was empty.
#[inline(always)]
fn touch<W>(set: &mut [W], key: W, write: bool) -> (bool, W)
where
    W: Copy + Eq + BitOr<Output = W> + From<u8>,
{
    let dirty = W::from(2);
    let found = set.iter().position(|&w| w | dirty == key | dirty);
    let end = found.unwrap_or(set.len() - 1);
    let (front, out) = match found {
        Some(_) => (set[end], W::from(0)),
        None => (key, set[end]),
    };
    for i in (0..end).rev() {
        set[i + 1] = set[i];
    }
    set[0] = front | W::from(u8::from(write) << 1);
    (found.is_some(), out)
}

/// [`touch`] on `ways[set]`, at a constant length for the flow's shapes,
/// so that the scan and the shift unroll.
#[inline(always)]
fn touch_set<W>(ways: &mut [W], set: Range<usize>, key: W, write: bool) -> (bool, W)
where
    W: Copy + Eq + BitOr<Output = W> + From<u8>,
{
    let s = set.start;
    match set.len() {
        4 => touch(&mut ways[s..s + 4], key, write),
        8 => touch(&mut ways[s..s + 8], key, write),
        16 => touch(&mut ways[s..s + 16], key, write),
        _ => touch(&mut ways[set], key, write),
    }
}

/// Empties every way, returning how many were dirty.
fn clear<W: Copy + From<u8> + Into<u128>>(ways: &mut [W]) -> u64 {
    let dirty = ways.iter().filter(|&&w| w.into() & 2 != 0).count() as u64;
    ways.fill(W::from(0));
    dirty
}

/// One LRU set-associative cache (write-back, write-allocate).
///
/// Each set is an LRU stack (Mattson et al., 1970): one contiguous run of
/// `associativity` ways in one flat slab, ordered most to least recently
/// used, with the dirty flag in the way and empty ways at the LRU end. A
/// hit is a short shift, a miss pushes the LRU way off the end as the
/// victim, and the whole cache is the one slab allocated in
/// [`Cache::new`] — the access path never allocates.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    ways: Ways,
    stats: CacheStats,
    set_mask: u64,
    set_bits: u32,
    line_shift: u32,
    assoc: usize,
}

impl Cache {
    /// Builds (and validates) a cache.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheConfig::validate`].
    pub fn new(config: CacheConfig) -> Result<Self, GemsimError> {
        config.validate()?;
        let sets = config.sets();
        let assoc = config.associativity as usize;
        let slots = sets as usize * assoc;
        let set_bits = (sets - 1).count_ones();
        let line_shift = config.line_bytes.trailing_zeros();
        Ok(Self {
            ways: if set_bits + line_shift >= 2 {
                Ways::Narrow(vec![0; slots].into_boxed_slice())
            } else {
                Ways::Wide(vec![0; slots].into_boxed_slice())
            },
            set_mask: sets - 1,
            set_bits,
            line_shift,
            stats: CacheStats::default(),
            assoc,
            config,
        })
    }

    /// The static configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Activity counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Performs one access; `write` marks stores.
    #[inline(always)]
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_bits;
        let set = set_idx * self.assoc..(set_idx + 1) * self.assoc;
        // The way pushed off the LRU end: its tag and its dirty and valid
        // bits.
        let (hit, victim_tag, flags) = match &mut self.ways {
            Ways::Narrow(w) => {
                let (hit, v) = touch_set(w, set, tag << 2 | 1, write);
                (hit, v >> 2, v & 3)
            }
            Ways::Wide(w) => {
                let (hit, v) = touch(&mut w[set], u128::from(tag) << 2 | 1, write);
                (hit, (v >> 2) as u64, v as u64 & 3)
            }
        };
        let writeback = flags & 2 != 0;
        self.stats.reads += u64::from(!write);
        self.stats.writes += u64::from(write);
        self.stats.read_hits += u64::from(hit & !write);
        self.stats.write_hits += u64::from(hit & write);
        self.stats.writebacks += u64::from(writeback);
        AccessOutcome {
            hit,
            writeback,
            victim: (flags != 0)
                .then_some(((victim_tag << self.set_bits) | set_idx as u64) << self.line_shift),
        }
    }

    /// Invalidates everything (contents, not counters), returning the
    /// number of dirty lines dropped.
    ///
    /// Policy: flushed dirty lines are **not** added to
    /// [`CacheStats::writebacks`] — that counter tracks capacity/conflict
    /// evictions observed by the access path. A caller modelling an explicit
    /// flush (say, a power-collapse of the cluster) charges the returned
    /// count as write-back traffic itself.
    pub fn flush(&mut self) -> u64 {
        match &mut self.ways {
            Ways::Narrow(w) => clear(w),
            Ways::Wide(w) => clear(w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CacheConfig {
        CacheConfig {
            name: "test".into(),
            capacity: 1024,
            associativity: 2,
            line_bytes: 64,
            read_latency: 1e-9,
            write_latency: 1e-9,
            read_energy: 1e-12,
            write_energy: 1e-12,
            leakage_power: 1e-3,
        }
    }

    #[test]
    fn zero_access_ratios_are_defined() {
        // A never-touched cache must not divide by zero: by convention it
        // misses nothing and hits everything it was (never) asked.
        let s = CacheStats::default();
        assert_eq!(s.accesses(), 0);
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.hit_ratio(), 1.0);
    }

    #[test]
    fn hit_and_miss_ratios_are_complementary() {
        let s = CacheStats {
            reads: 6,
            writes: 4,
            read_hits: 3,
            write_hits: 1,
            writebacks: 0,
        };
        assert!((s.miss_ratio() - 0.6).abs() < 1e-12);
        assert!((s.hit_ratio() - 0.4).abs() < 1e-12);
        assert!((s.hit_ratio() + s.miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn config_validation() {
        assert!(small_config().validate().is_ok());
        let mut bad = small_config();
        bad.line_bytes = 48;
        assert!(bad.validate().is_err());
        let mut bad = small_config();
        bad.associativity = 0;
        assert!(bad.validate().is_err());
        let mut bad = small_config();
        bad.capacity = 1000;
        assert!(bad.validate().is_err());
        // The capacity is the only bound on the ways: a fully associative
        // cache of 2^17 lines is valid.
        let mut wide = small_config();
        wide.associativity = 1 << 17;
        wide.capacity = 64 << 17;
        assert!(wide.validate().is_ok());
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(small_config()).unwrap();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1010, false).hit); // same 64 B line
        assert_eq!(c.stats().reads, 3);
        assert_eq!(c.stats().read_hits, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Cache::new(small_config()).unwrap();
        // 8 sets; lines mapping to set 0: line numbers 0, 8, 16 (addr = line*64).
        let a = 0u64;
        let b = 8 * 64;
        let d = 16 * 64;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is MRU now
        c.access(d, false); // evicts b (LRU)
        assert!(c.access(a, false).hit);
        assert!(!c.access(b, false).hit, "b must have been evicted");
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = Cache::new(small_config()).unwrap();
        let a = 0u64;
        let b = 8 * 64;
        let d = 16 * 64;
        c.access(a, true); // dirty
        c.access(b, false);
        let out = c.access(d, false); // evicts a (dirty)
        assert!(out.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn counters_are_consistent() {
        let mut c = Cache::new(small_config()).unwrap();
        use mss_units::rng::{Rng, Xoshiro256PlusPlus};
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        for _ in 0..10_000 {
            let addr = rng.gen_range_u64(0, 64 * 1024);
            c.access(addr, rng.gen_bool(0.3));
        }
        let s = c.stats();
        assert_eq!(s.accesses(), 10_000);
        assert_eq!(s.hits() + s.misses(), s.accesses());
        assert!(s.miss_ratio() > 0.0 && s.miss_ratio() < 1.0);
    }

    #[test]
    fn bigger_cache_misses_less() {
        use mss_units::rng::{Rng, Xoshiro256PlusPlus};
        let run = |capacity: u64| {
            let mut cfg = small_config();
            cfg.capacity = capacity;
            let mut c = Cache::new(cfg).unwrap();
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
            for _ in 0..20_000 {
                let addr = rng.gen_range_u64(0, 32 * 1024);
                c.access(addr, false);
            }
            c.stats().miss_ratio()
        };
        assert!(run(16 * 1024) < run(1024));
    }

    #[test]
    fn flush_empties_contents_only() {
        let mut c = Cache::new(small_config()).unwrap();
        c.access(0, false);
        c.access(0, false);
        let before = *c.stats();
        c.flush();
        assert_eq!(*c.stats(), before);
        assert!(!c.access(0, false).hit);
    }

    #[test]
    fn flush_counts_dirty_lines() {
        let mut c = Cache::new(small_config()).unwrap();
        c.access(0, true); // dirty, set 0
        c.access(64, false); // clean, set 1
        c.access(2 * 64, true); // dirty, set 2
        let before = *c.stats();
        assert_eq!(c.flush(), 2, "two dirty lines were resident");
        // The count is returned, never folded into the counters.
        assert_eq!(*c.stats(), before);
        assert_eq!(c.flush(), 0, "an empty cache has nothing dirty");
    }

    #[test]
    fn eviction_reports_real_victim_address() {
        let mut c = Cache::new(small_config()).unwrap();
        // 8 sets, 2 ways; lines 0, 8, 16 all map to set 0.
        let a = 0u64;
        let b = 8 * 64;
        let d = 16 * 64;
        assert_eq!(c.access(a, true).victim, None);
        assert_eq!(c.access(b, false).victim, None);
        // Hits never evict.
        assert_eq!(c.access(b, false).victim, None);
        // The miss evicts LRU line `a` and must name it, dirty and all.
        let out = c.access(d, false);
        assert!(!out.hit && out.writeback);
        assert_eq!(out.victim, Some(a));
        // Offsets within a line do not leak into the victim address.
        let out = c.access(b + 17, false); // hit, b promoted at d's expense? no: hit
        assert!(out.hit);
        let out = c.access(a + 8, true); // miss, evicts clean d
        assert!(!out.writeback, "d was clean");
        assert_eq!(out.victim, Some(d), "victim is line-aligned");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CacheStats {
            reads: 1,
            writes: 2,
            read_hits: 1,
            write_hits: 0,
            writebacks: 1,
        };
        a.merge(&a.clone());
        assert_eq!(a.reads, 2);
        assert_eq!(a.writes, 4);
        assert_eq!(a.writebacks, 2);
        // 6 accesses, 2 hits -> 4 misses.
        assert_eq!(a.misses(), 4);
    }
}
