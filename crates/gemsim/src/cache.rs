//! Set-associative LRU cache simulation with full activity counters.

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
        if self.associativity > u32::from(u16::MAX) {
            // The struct-of-arrays store keeps LRU ranks and per-set
            // occupancy in u16.
            return fail(format!(
                "associativity {} exceeds the {}-way limit",
                self.associativity,
                u16::MAX
            ));
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

/// One LRU set-associative cache (write-back, write-allocate).
///
/// Storage is struct-of-arrays: flat `tags` / `dirty` / `rank` slabs indexed
/// by `set * associativity + way`, plus a per-set occupancy count. The LRU
/// order lives in `rank` (0 = MRU, associativity − 1 = LRU), so promoting a
/// line is a handful of `u16` bumps instead of the `Vec::remove`/`insert`
/// element shifting of the previous representation, and the whole cache is
/// exactly four allocations made in [`Cache::new`] — the access path never
/// allocates.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Line tags, `[set][way]` flattened; valid for `way < live[set]`.
    tags: Box<[u64]>,
    /// Dirty bits, same indexing as `tags`.
    dirty: Box<[bool]>,
    /// LRU ranks (0 = most recently used), same indexing as `tags`; the
    /// valid ranks of a set are always a permutation of `0..live[set]`.
    rank: Box<[u16]>,
    /// Occupied ways per set (ways fill from 0; only [`Cache::flush`]
    /// resets them).
    live: Box<[u16]>,
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
        Ok(Self {
            set_mask: sets - 1,
            set_bits: (sets - 1).count_ones(),
            line_shift: config.line_bytes.trailing_zeros(),
            tags: vec![0; slots].into_boxed_slice(),
            dirty: vec![false; slots].into_boxed_slice(),
            rank: vec![0; slots].into_boxed_slice(),
            live: vec![0; sets as usize].into_boxed_slice(),
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

    /// Line-aligned byte address of the line currently held in `slot`.
    fn slot_address(&self, set_idx: usize, slot: usize) -> u64 {
        ((self.tags[slot] << self.set_bits) | set_idx as u64) << self.line_shift
    }

    /// Performs one access; `write` marks stores.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_bits;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let base = set_idx * self.assoc;
        let n = usize::from(self.live[set_idx]);
        // Branchless probe: tags are unique within a set, so folding the
        // matching way without an early exit is equivalent to `position`.
        let mut hit = usize::MAX;
        for (way, &t) in self.tags[base..base + n].iter().enumerate() {
            if t == tag {
                hit = way;
            }
        }
        if hit < n {
            // Hit: promote to MRU by ageing every younger line one step.
            let r = self.rank[base + hit];
            for x in &mut self.rank[base..base + n] {
                *x += u16::from(*x < r);
            }
            self.rank[base + hit] = 0;
            self.dirty[base + hit] |= write;
            if write {
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            return AccessOutcome {
                hit: true,
                writeback: false,
                victim: None,
            };
        }
        // Miss: allocate (write-allocate policy), evicting LRU if full.
        let full = n == self.assoc;
        let (slot, victim, writeback) = if full {
            let lru = (self.assoc - 1) as u16;
            let mut v = base;
            for (i, &r) in self.rank[base..base + n].iter().enumerate() {
                if r == lru {
                    v = base + i;
                }
            }
            let wb = self.dirty[v];
            if wb {
                self.stats.writebacks += 1;
            }
            (v, Some(self.slot_address(set_idx, v)), wb)
        } else {
            self.live[set_idx] = (n + 1) as u16;
            (base + n, None, false)
        };
        // Age every survivor; the incoming line becomes MRU.
        let aged = if full {
            (self.assoc - 1) as u16
        } else {
            n as u16
        };
        for x in &mut self.rank[base..base + n] {
            *x += u16::from(*x < aged);
        }
        self.tags[slot] = tag;
        self.dirty[slot] = write;
        self.rank[slot] = 0;
        AccessOutcome {
            hit: false,
            writeback,
            victim,
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
        let mut dirty_lines = 0u64;
        for (set_idx, live) in self.live.iter_mut().enumerate() {
            let base = set_idx * self.assoc;
            for way in 0..usize::from(*live) {
                dirty_lines += u64::from(self.dirty[base + way]);
            }
            *live = 0;
        }
        dirty_lines
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
