//! The two-tier memoization cache behind the stage pipeline.
//!
//! Tier 1 is an always-on, bounded in-memory `BTreeMap` keyed by
//! `(stage, digest)`; tier 2 is an opt-in on-disk NDJSON store under
//! `target/mss-cache/` (see [`CACHE_ENV`] / [`CACHE_DIR_ENV`]) for the
//! expensive, reusable [`Artifact`] stages. Lookups are semantically
//! transparent: every stage computation in this workspace is a pure
//! deterministic function of its hashed inputs, so a hit returns exactly
//! the bytes a recomputation would produce and reports stay bit-identical
//! at any thread count and any cache temperature.
//!
//! Corrupt, truncated, version-mismatched or foreign on-disk entries are
//! **misses, never errors**: the flow must survive a bad cache directory.
//! Every outcome is observable twice — always through the cache's own
//! atomic [`StageStats`] (queryable even with observability off), and
//! mirrored to `pipe.<stage>.*` counters plus `pipe.<stage>` span timers
//! when `mss-obs` is enabled.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::{Line, Value};

/// Environment switch for the on-disk tier, read with
/// [`mss_obs::parse_flag`]: `1`/`on`/`true`/`yes` enable it, and
/// `0`/`off`/`false`/`no` (or unset) leave the cache memory-only.
pub const CACHE_ENV: &str = "MSS_CACHE";

/// Environment override for the on-disk tier's directory (only consulted
/// when [`CACHE_ENV`] enables the disk tier).
pub const CACHE_DIR_ENV: &str = "MSS_CACHE_DIR";

/// Default on-disk tier location.
pub const DEFAULT_CACHE_DIR: &str = "target/mss-cache";

/// On-disk entry format version: bumped when the header/payload framing
/// changes, so old caches degrade to misses instead of misparses.
pub(crate) const DISK_SCHEMA: u32 = 1;

/// Default bound on in-memory entries (FIFO eviction past this).
pub(crate) const DEFAULT_MEM_CAPACITY: usize = 1024;

/// The typed stages of the cross-layer flow, in dataflow order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// SPICE/PDK cell characterisation → `CellLibrary`.
    CharacterizeCells,
    /// NVSim array estimation → `ArrayMetrics`.
    EstimateArray,
    /// VAET margined-latency distribution solve → variation-aware candidate.
    VaetDistributions,
    /// gem5-class kernel simulation → `SimReport`.
    SimulateKernel,
    /// McPAT power accounting → `PowerReport`.
    McpatAccount,
}

impl Stage {
    /// Every stage, in dataflow order.
    pub const ALL: [Stage; 5] = [
        Stage::CharacterizeCells,
        Stage::EstimateArray,
        Stage::VaetDistributions,
        Stage::SimulateKernel,
        Stage::McpatAccount,
    ];

    /// Number of stages.
    pub(crate) const COUNT: usize = 5;

    /// Stable kebab-case name: used in on-disk file names and headers.
    pub fn name(self) -> &'static str {
        match self {
            Stage::CharacterizeCells => "characterize-cells",
            Stage::EstimateArray => "estimate-array",
            Stage::VaetDistributions => "vaet-distributions",
            Stage::SimulateKernel => "simulate-kernel",
            Stage::McpatAccount => "mcpat-account",
        }
    }

    /// Span name timing cache-miss computations of this stage.
    pub(crate) fn span_name(self) -> &'static str {
        match self {
            Stage::CharacterizeCells => "pipe.characterize_cells",
            Stage::EstimateArray => "pipe.estimate_array",
            Stage::VaetDistributions => "pipe.vaet_distributions",
            Stage::SimulateKernel => "pipe.simulate_kernel",
            Stage::McpatAccount => "pipe.mcpat_account",
        }
    }

    fn idx(self) -> usize {
        match self {
            Stage::CharacterizeCells => 0,
            Stage::EstimateArray => 1,
            Stage::VaetDistributions => 2,
            Stage::SimulateKernel => 3,
            Stage::McpatAccount => 4,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A result type that can live in the on-disk tier.
///
/// Implemented for the expensive, reusable upstream artifacts
/// (`CellLibrary`, `ArrayMetrics`); cheap or run-scoped results stay in the
/// memory tier only.
pub trait Artifact: Send + Sync + Sized + 'static {
    /// Stable payload-kind tag written to the entry header.
    const KIND: &'static str;
    /// Payload format version; a mismatch on load is a miss.
    const VERSION: u32;
    /// Serialises the payload (one or more NDJSON lines, no header).
    fn encode(&self) -> String;
    /// Parses a payload; `None` on any malformation (treated as a miss).
    fn decode(payload: &str) -> Option<Self>;
}

/// Per-stage lookup/IO counters (a point-in-time snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStats {
    /// In-memory tier hits.
    pub hits: u64,
    /// On-disk tier hits (entry loaded and promoted to memory).
    pub disk_hits: u64,
    /// Full misses: the stage computation actually ran.
    pub misses: u64,
    /// On-disk entries that existed but failed validation/decoding.
    pub load_failures: u64,
    /// Successful on-disk writes.
    pub stores: u64,
    /// Failed on-disk writes (non-fatal).
    pub(crate) store_failures: u64,
    /// In-memory entries evicted by the FIFO bound.
    pub evictions: u64,
}

impl StageStats {
    /// Total lookups (hits + disk hits + misses).
    #[cfg(test)]
    pub(crate) fn lookups(&self) -> u64 {
        self.hits + self.disk_hits + self.misses
    }
}

#[derive(Default)]
struct StageCounters {
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    load_failures: AtomicU64,
    stores: AtomicU64,
    store_failures: AtomicU64,
    evictions: AtomicU64,
}

impl StageCounters {
    fn snapshot(&self) -> StageStats {
        StageStats {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            load_failures: self.load_failures.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            store_failures: self.store_failures.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[derive(Clone, Copy)]
enum Event {
    Hit,
    DiskHit,
    Miss,
    LoadFailure,
    Store,
    StoreFailure,
    Eviction,
}

/// The `pipe.<stage>.<event>` observability counter, as a static string so
/// the hot path never allocates.
fn obs_counter_name(stage: Stage, ev: Event) -> &'static str {
    macro_rules! table {
        ($base:literal) => {
            match ev {
                Event::Hit => concat!($base, ".hit"),
                Event::DiskHit => concat!($base, ".disk_hit"),
                Event::Miss => concat!($base, ".miss"),
                Event::LoadFailure => concat!($base, ".load_failure"),
                Event::Store => concat!($base, ".store"),
                Event::StoreFailure => concat!($base, ".store_failure"),
                Event::Eviction => concat!($base, ".eviction"),
            }
        };
    }
    match stage {
        Stage::CharacterizeCells => table!("pipe.characterize_cells"),
        Stage::EstimateArray => table!("pipe.estimate_array"),
        Stage::VaetDistributions => table!("pipe.vaet_distributions"),
        Stage::SimulateKernel => table!("pipe.simulate_kernel"),
        Stage::McpatAccount => table!("pipe.mcpat_account"),
    }
}

/// Name of the per-stage live hit-ratio gauge.
fn obs_hit_ratio_name(stage: Stage) -> &'static str {
    match stage {
        Stage::CharacterizeCells => "pipe.characterize_cells.hit_ratio",
        Stage::EstimateArray => "pipe.estimate_array.hit_ratio",
        Stage::VaetDistributions => "pipe.vaet_distributions.hit_ratio",
        Stage::SimulateKernel => "pipe.simulate_kernel.hit_ratio",
        Stage::McpatAccount => "pipe.mcpat_account.hit_ratio",
    }
}

type Stored = Arc<dyn Any + Send + Sync>;

#[derive(Default)]
struct MemTier {
    map: BTreeMap<(usize, String), Stored>,
    order: VecDeque<(usize, String)>,
}

/// The two-tier content-addressed cache. See the [crate docs](crate).
pub struct PipeCache {
    mem: Mutex<MemTier>,
    disk_dir: Option<PathBuf>,
    capacity: usize,
    stats: [StageCounters; Stage::COUNT],
}

impl std::fmt::Debug for PipeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipeCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity)
            .field("disk_dir", &self.disk_dir)
            .finish()
    }
}

impl PipeCache {
    fn new(disk_dir: Option<PathBuf>) -> Self {
        Self {
            mem: Mutex::new(MemTier::default()),
            disk_dir,
            capacity: DEFAULT_MEM_CAPACITY,
            stats: std::array::from_fn(|_| StageCounters::default()),
        }
    }

    /// A memory-only cache (no disk tier).
    pub fn memory_only() -> Self {
        Self::new(None)
    }

    /// A cache with the on-disk tier rooted at `dir`.
    pub fn with_disk(dir: impl Into<PathBuf>) -> Self {
        Self::new(Some(dir.into()))
    }

    /// Rebounds the in-memory tier (minimum 1 entry).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Builds the cache from the environment: memory-only unless
    /// [`CACHE_ENV`] enables the disk tier, rooted at [`CACHE_DIR_ENV`] or
    /// [`DEFAULT_CACHE_DIR`].
    ///
    /// Garbled values follow the `MSS_THREADS` convention: they are never
    /// fatal — one warning on stderr (first occurrence only), a
    /// `pipe.bad_cache_env` / `pipe.bad_cache_dir_env` observability
    /// counter, and the safe fallback (disk tier off / default directory).
    pub(crate) fn from_env() -> Self {
        let disk_on = match std::env::var(CACHE_ENV) {
            Ok(raw) => match mss_obs::parse_flag(&raw) {
                Ok(on) => on,
                Err(why) => {
                    static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                    mss_exec::warn_ignored_env_once(
                        &WARN_ONCE,
                        "pipe.bad_cache_env",
                        format!(
                            "warning: ignoring {CACHE_ENV}={raw:?} ({why}); \
                             on-disk cache stays disabled"
                        ),
                    );
                    false
                }
            },
            Err(_) => false,
        };
        if !disk_on {
            return Self::memory_only();
        }
        let dir = match std::env::var(CACHE_DIR_ENV) {
            Ok(raw) => match parse_cache_dir(&raw) {
                Ok(dir) => dir,
                Err(why) => {
                    static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                    mss_exec::warn_ignored_env_once(
                        &WARN_ONCE,
                        "pipe.bad_cache_dir_env",
                        format!(
                            "warning: ignoring {CACHE_DIR_ENV}={raw:?} ({why}); \
                             using {DEFAULT_CACHE_DIR}"
                        ),
                    );
                    PathBuf::from(DEFAULT_CACHE_DIR)
                }
            },
            Err(_) => PathBuf::from(DEFAULT_CACHE_DIR),
        };
        Self::with_disk(dir)
    }

    /// Number of live in-memory entries.
    pub(crate) fn len(&self) -> usize {
        self.mem.lock().expect("pipe cache poisoned").map.len()
    }

    /// Snapshot of one stage's counters.
    pub fn stats(&self, stage: Stage) -> StageStats {
        self.stats[stage.idx()].snapshot()
    }

    fn count(&self, stage: Stage, ev: Event) {
        let c = &self.stats[stage.idx()];
        let cell = match ev {
            Event::Hit => &c.hits,
            Event::DiskHit => &c.disk_hits,
            Event::Miss => &c.misses,
            Event::LoadFailure => &c.load_failures,
            Event::Store => &c.stores,
            Event::StoreFailure => &c.store_failures,
            Event::Eviction => &c.evictions,
        };
        cell.fetch_add(1, Ordering::Relaxed);
        mss_obs::counter_add(obs_counter_name(stage, ev), 1);
        // Live hit-ratio gauge per stage (mirrored onto the event bus by
        // the global gauge hook). Only lookups move the ratio, and the
        // whole computation is skipped when observability is off.
        if matches!(ev, Event::Hit | Event::DiskHit | Event::Miss) && mss_obs::enabled() {
            let hits = c.hits.load(Ordering::Relaxed) + c.disk_hits.load(Ordering::Relaxed);
            let lookups = hits + c.misses.load(Ordering::Relaxed);
            if lookups > 0 {
                mss_obs::gauge_set(obs_hit_ratio_name(stage), hits as f64 / lookups as f64);
            }
        }
    }

    fn lookup_mem<T: Send + Sync + 'static>(&self, stage: Stage, key: &str) -> Option<Arc<T>> {
        let mem = self.mem.lock().expect("pipe cache poisoned");
        let stored = mem.map.get(&(stage.idx(), key.to_string()))?;
        // A type mismatch under the same digest cannot happen for honest
        // keys; treat it as absent rather than panicking.
        stored.clone().downcast::<T>().ok()
    }

    fn insert_mem(&self, stage: Stage, key: &str, value: Stored) {
        let mut mem = self.mem.lock().expect("pipe cache poisoned");
        let full_key = (stage.idx(), key.to_string());
        if mem.map.insert(full_key.clone(), value).is_none() {
            mem.order.push_back(full_key);
        }
        while mem.map.len() > self.capacity {
            let Some(victim) = mem.order.pop_front() else {
                break;
            };
            if mem.map.remove(&victim).is_some() {
                if let Some(stage) = Stage::ALL.get(victim.0).copied() {
                    self.count(stage, Event::Eviction);
                }
            }
        }
        // Memory-tier occupancy gauge, computed while the lock is already
        // held (the fraction of `capacity` currently resident).
        if mss_obs::enabled() && self.capacity > 0 {
            mss_obs::gauge_set(
                "pipe.mem_occupancy",
                mem.map.len() as f64 / self.capacity as f64,
            );
        }
    }

    /// Returns the memoized result for `(stage, key)` or computes, caches
    /// and returns it (memory tier only).
    ///
    /// `key` must be a structural digest of **every** input of `compute`
    /// (see [`crate::hash`]). Errors from `compute` are returned verbatim
    /// and nothing is cached.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub fn get_or_compute<T, E, F>(&self, stage: Stage, key: &str, compute: F) -> Result<Arc<T>, E>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> Result<T, E>,
    {
        if let Some(hit) = self.lookup_mem::<T>(stage, key) {
            self.count(stage, Event::Hit);
            return Ok(hit);
        }
        self.count(stage, Event::Miss);
        let value = {
            let _span = mss_obs::span(stage.span_name());
            compute()?
        };
        let arc = Arc::new(value);
        self.insert_mem(stage, key, arc.clone() as Stored);
        Ok(arc)
    }

    /// [`get_or_compute`](Self::get_or_compute) with the on-disk tier:
    /// memory, then disk (validated, promoted to memory on success), then
    /// compute + store to both tiers.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns; disk problems are never errors.
    pub fn get_or_compute_artifact<T, E, F>(
        &self,
        stage: Stage,
        key: &str,
        compute: F,
    ) -> Result<Arc<T>, E>
    where
        T: Artifact,
        F: FnOnce() -> Result<T, E>,
    {
        if let Some(hit) = self.lookup_mem::<T>(stage, key) {
            self.count(stage, Event::Hit);
            return Ok(hit);
        }
        if let Some(loaded) = self.load_disk::<T>(stage, key) {
            self.count(stage, Event::DiskHit);
            let arc = Arc::new(loaded);
            self.insert_mem(stage, key, arc.clone() as Stored);
            return Ok(arc);
        }
        self.count(stage, Event::Miss);
        let value = {
            let _span = mss_obs::span(stage.span_name());
            compute()?
        };
        let arc = Arc::new(value);
        self.insert_mem(stage, key, arc.clone() as Stored);
        self.store_disk(stage, key, &*arc);
        Ok(arc)
    }

    fn load_disk<T: Artifact>(&self, stage: Stage, key: &str) -> Option<T> {
        let dir = self.disk_dir.as_ref()?;
        // Disk I/O is the cache's own cost; spanned separately from the
        // stage-compute spans so `mss_report summary` can show how much of a
        // warm run is tier traffic rather than recomputation.
        let _span = mss_obs::span("pipe.disk.load");
        let path = entry_path(dir, stage, key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            // Absent entry: a plain miss. Anything else (permissions, a
            // directory in the way, invalid UTF-8) is a damaged entry.
            Err(e) if e.kind() == ErrorKind::NotFound => return None,
            Err(_) => {
                self.count(stage, Event::LoadFailure);
                return None;
            }
        };
        match decode_entry::<T>(&text, stage, key) {
            Some(v) => Some(v),
            None => {
                self.count(stage, Event::LoadFailure);
                None
            }
        }
    }

    fn store_disk<T: Artifact>(&self, stage: Stage, key: &str, value: &T) {
        let Some(dir) = self.disk_dir.as_ref() else {
            return;
        };
        let _span = mss_obs::span("pipe.disk.store");
        match write_entry(dir, stage, key, value) {
            Ok(()) => self.count(stage, Event::Store),
            Err(_) => self.count(stage, Event::StoreFailure),
        }
    }
}

/// Validates and decodes one on-disk entry; `None` on any mismatch.
fn decode_entry<T: Artifact>(text: &str, stage: Stage, key: &str) -> Option<T> {
    let (header, payload) = text.split_once('\n')?;
    let header = Value::parse(header).ok()?;
    let str_field = |k: &str| header.get(k).and_then(Value::as_str);
    let u64_field = |k: &str| header.get(k).and_then(Value::as_u64);
    if str_field("type") != Some("mss-cache")
        || u64_field("schema") != Some(u64::from(DISK_SCHEMA))
        || str_field("stage") != Some(stage.name())
        || str_field("kind") != Some(T::KIND)
        || u64_field("version") != Some(u64::from(T::VERSION))
        || str_field("key") != Some(key)
    {
        return None;
    }
    T::decode(payload)
}

fn write_entry<T: Artifact>(dir: &Path, stage: Stage, key: &str, value: &T) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let header = Line::new()
        .str("type", "mss-cache")
        .u64("schema", u64::from(DISK_SCHEMA))
        .str("stage", stage.name())
        .str("kind", T::KIND)
        .u64("version", u64::from(T::VERSION))
        .str("key", key)
        .finish();
    let mut text = header;
    text.push('\n');
    text.push_str(&value.encode());
    if !text.ends_with('\n') {
        text.push('\n');
    }
    // Write-then-rename so concurrent readers never observe a torn entry,
    // with an fsync before the rename so a crash (or power loss) right
    // after the rename can never publish a truncated entry under the final
    // name — the entry either exists complete or not at all.
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        ".tmp-{}-{}-{}-{key}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        stage.name(),
    ));
    let written = (|| {
        use std::io::Write;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()
    })();
    let renamed = written.and_then(|()| std::fs::rename(&tmp, entry_path(dir, stage, key)));
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed
}

/// Where `(stage, key)` lives inside the on-disk tier.
fn entry_path(dir: &Path, stage: Stage, key: &str) -> PathBuf {
    dir.join(format!("{}-{key}.ndjson", stage.name()))
}

/// Parses a [`CACHE_DIR_ENV`] value into a directory path.
///
/// # Errors
///
/// A human-readable description when the value is empty/whitespace.
pub fn parse_cache_dir(raw: &str) -> Result<PathBuf, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("empty path".to_string());
    }
    Ok(PathBuf::from(trimmed))
}

static GLOBAL: OnceLock<Arc<PipeCache>> = OnceLock::new();

/// The process-wide cache, lazily built from the environment
/// (`PipeCache::from_env`). Flows sharing it reuse each other's upstream
/// artifacts — the point of the pipeline.
pub fn global() -> Arc<PipeCache> {
    GLOBAL
        .get_or_init(|| Arc::new(PipeCache::from_env()))
        .clone()
}

/// Installs an explicit global cache, overriding the environment. Returns
/// `false` (and changes nothing) when the global cache was already built —
/// call it first thing in `main` or a test binary.
pub fn init_global_with(cache: PipeCache) -> bool {
    let mut fresh = false;
    GLOBAL.get_or_init(|| {
        fresh = true;
        Arc::new(cache)
    });
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{f64_field, hex_of_f64};

    /// A tiny artifact for exercising the disk tier.
    #[derive(Debug, Clone, PartialEq)]
    struct Probe {
        x: f64,
        tag: String,
    }

    impl Artifact for Probe {
        const KIND: &'static str = "probe";
        const VERSION: u32 = 1;

        fn encode(&self) -> String {
            Line::new()
                .str("x", &hex_of_f64(self.x))
                .str("tag", &self.tag)
                .finish()
        }

        fn decode(payload: &str) -> Option<Self> {
            let v = Value::parse(payload).ok()?;
            Some(Self {
                x: f64_field(&v, "x")?,
                tag: v.get("tag")?.as_str()?.to_string(),
            })
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mss-pipe-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_tier_memoizes_and_counts() {
        let cache = PipeCache::memory_only();
        let mut calls = 0u32;
        for _ in 0..3 {
            let v: Arc<u64> = cache
                .get_or_compute(Stage::SimulateKernel, "k1", || {
                    calls += 1;
                    Ok::<_, ()>(41 + u64::from(calls))
                })
                .unwrap();
            assert_eq!(*v, 42);
        }
        assert_eq!(calls, 1);
        let s = cache.stats(Stage::SimulateKernel);
        assert_eq!((s.hits, s.misses), (2, 1));
        assert_eq!(s.lookups(), 3);
    }

    #[test]
    fn compute_errors_are_propagated_and_not_cached() {
        let cache = PipeCache::memory_only();
        let r: Result<Arc<u64>, &str> =
            cache.get_or_compute(Stage::McpatAccount, "bad", || Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        let ok: Arc<u64> = cache
            .get_or_compute(Stage::McpatAccount, "bad", || Ok::<_, &str>(7))
            .unwrap();
        assert_eq!(*ok, 7);
        assert_eq!(cache.stats(Stage::McpatAccount).misses, 2);
    }

    #[test]
    fn fifo_eviction_is_bounded_and_counted() {
        let cache = PipeCache::memory_only().with_capacity(2);
        for i in 0..5u64 {
            let _ = cache
                .get_or_compute(Stage::SimulateKernel, &format!("k{i}"), || Ok::<_, ()>(i))
                .unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(Stage::SimulateKernel).evictions, 3);
        // The newest entry survived.
        let s0 = cache.stats(Stage::SimulateKernel);
        let _ = cache
            .get_or_compute(Stage::SimulateKernel, "k4", || Ok::<_, ()>(99u64))
            .unwrap();
        assert_eq!(cache.stats(Stage::SimulateKernel).hits, s0.hits + 1);
    }

    #[test]
    fn disk_tier_round_trips_and_promotes() {
        let dir = temp_dir("roundtrip");
        let value = Probe {
            x: -0.0,
            tag: "a\"b".into(),
        };
        {
            let cache = PipeCache::with_disk(&dir);
            let got = cache
                .get_or_compute_artifact(Stage::CharacterizeCells, "abcd", {
                    let value = value.clone();
                    move || Ok::<_, ()>(value)
                })
                .unwrap();
            assert_eq!(*got, value);
            assert_eq!(cache.stats(Stage::CharacterizeCells).stores, 1);
        }
        // A "fresh process": new cache, same directory.
        let cache = PipeCache::with_disk(&dir);
        let got: Arc<Probe> = cache
            .get_or_compute_artifact(Stage::CharacterizeCells, "abcd", || {
                Err::<Probe, _>("must not recompute")
            })
            .unwrap();
        assert_eq!(*got, value);
        assert_eq!(got.x.to_bits(), (-0.0f64).to_bits());
        let s = cache.stats(Stage::CharacterizeCells);
        assert_eq!((s.disk_hits, s.misses), (1, 0));
        // Promoted: the next lookup is a memory hit.
        let _: Arc<Probe> = cache
            .get_or_compute_artifact(Stage::CharacterizeCells, "abcd", || {
                Err::<Probe, _>("must not recompute")
            })
            .unwrap();
        assert_eq!(cache.stats(Stage::CharacterizeCells).hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_bytes_are_pinned() {
        let dir = temp_dir("pinned");
        let cache = PipeCache::with_disk(&dir);
        let _ = cache
            .get_or_compute_artifact(Stage::SimulateKernel, "0123abcd", || {
                Ok::<_, ()>(Probe {
                    x: -1.5,
                    tag: "t \"q\"\n".into(),
                })
            })
            .unwrap();
        let text =
            std::fs::read_to_string(entry_path(&dir, Stage::SimulateKernel, "0123abcd")).unwrap();
        assert_eq!(
            text,
            "{\"type\":\"mss-cache\",\"schema\":1,\"stage\":\"simulate-kernel\",\"kind\":\"probe\",\"version\":1,\"key\":\"0123abcd\"}\n\
             {\"x\":\"bff8000000000000\",\"tag\":\"t \\\"q\\\"\\n\"}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_mismatched_entries_are_misses_never_errors() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let key = "feed";
        let path = entry_path(&dir, Stage::EstimateArray, key);
        let probe = Probe {
            x: 1.5,
            tag: "t".into(),
        };

        // Entry variants that must all degrade to a recompute.
        let good_header = |version: u32, kind: &str, stage: &str, k: &str| {
            Line::new()
                .str("type", "mss-cache")
                .u64("schema", u64::from(DISK_SCHEMA))
                .str("stage", stage)
                .str("kind", kind)
                .u64("version", u64::from(version))
                .str("key", k)
                .finish()
        };
        let header = good_header(1, "probe", "estimate-array", key);
        let header_with = |extra: &str| format!("{}{extra}}}", header.strip_suffix('}').unwrap());
        let cases = [
            "total garbage\n".to_string(),
            "{\"type\":\"mss-cache\"\n".to_string(), // truncated header
            format!(
                "{}\nnot a payload\n",
                good_header(1, "probe", "estimate-array", key)
            ),
            // Version mismatch.
            format!(
                "{}\n{}\n",
                good_header(2, "probe", "estimate-array", key),
                probe.encode()
            ),
            // Kind mismatch.
            format!(
                "{}\n{}\n",
                good_header(1, "other", "estimate-array", key),
                probe.encode()
            ),
            // Stage mismatch.
            format!(
                "{}\n{}\n",
                good_header(1, "probe", "simulate-kernel", key),
                probe.encode()
            ),
            // Key mismatch (renamed/copied file).
            format!(
                "{}\n{}\n",
                good_header(1, "probe", "estimate-array", "beef"),
                probe.encode()
            ),
            // Not JSON, or not the writer's JSON: a duplicate key, a number
            // written as a string, a bare token, two values for one key.
            format!("{}\n{}\n", header_with(",\"key\":\"feed\""), probe.encode()),
            format!(
                "{}\n{}\n",
                header.replace("\"schema\":1", "\"schema\":\"1\""),
                probe.encode()
            ),
            format!("{}\n{}\n", header_with(",\"k\":abc"), probe.encode()),
            format!("{}\n{}\n", header_with(",\"k\":1 2"), probe.encode()),
            // A nesting bomb as the payload.
            format!("{header}\n{}\n", "[".repeat(1_000_000)),
        ];
        for (i, text) in cases.iter().enumerate() {
            std::fs::write(&path, text).unwrap();
            let cache = PipeCache::with_disk(&dir);
            let got = cache
                .get_or_compute_artifact(Stage::EstimateArray, key, || {
                    Ok::<_, ()>(Probe {
                        x: 9.0,
                        tag: "recomputed".into(),
                    })
                })
                .unwrap();
            assert_eq!(got.tag, "recomputed", "case {i} was served from disk");
            let s = cache.stats(Stage::EstimateArray);
            assert_eq!(
                (s.load_failures, s.misses, s.disk_hits),
                (1, 1, 0),
                "case {i}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_final_line_is_a_miss_never_an_error() {
        // The crash-safety regression: a mid-write kill may leave any
        // prefix of an entry on disk (if the temp-file + fsync + rename
        // protocol were ever weakened). Every such prefix must degrade to
        // a counted load-failure and a recompute — never an error, never
        // stale data.
        let dir = temp_dir("truncated");
        let key = "cafe";
        {
            let cache = PipeCache::with_disk(&dir);
            let _ = cache
                .get_or_compute_artifact(Stage::EstimateArray, key, || {
                    Ok::<_, ()>(Probe {
                        x: 2.25,
                        tag: "whole".into(),
                    })
                })
                .unwrap();
        }
        let path = entry_path(&dir, Stage::EstimateArray, key);
        let full = std::fs::read_to_string(&path).unwrap();
        let header_end = full.find('\n').unwrap() + 1;
        // Cut inside the header, at an empty payload, mid-payload, and one
        // byte short of a complete payload line.
        let cuts = [
            header_end / 2,
            header_end,
            header_end + (full.len() - header_end) / 2,
            full.len() - 2,
        ];
        for cut in cuts {
            std::fs::write(&path, &full[..cut]).unwrap();
            let cache = PipeCache::with_disk(&dir);
            let got = cache
                .get_or_compute_artifact(Stage::EstimateArray, key, || {
                    Ok::<_, ()>(Probe {
                        x: 9.0,
                        tag: "recomputed".into(),
                    })
                })
                .unwrap();
            assert_eq!(got.tag, "recomputed", "cut at {cut} was served from disk");
            let s = cache.stats(Stage::EstimateArray);
            assert_eq!(
                (s.load_failures, s.misses, s.disk_hits),
                (1, 1, 0),
                "cut at {cut}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_parsers_follow_the_threads_convention() {
        // MSS_CACHE speaks the workspace's one flag grammar.
        for (raw, on) in [
            ("1", true),
            (" ON ", true),
            ("yes", true),
            ("0", false),
            ("no", false),
        ] {
            assert_eq!(mss_obs::parse_flag(raw), Ok(on), "{raw:?}");
        }
        assert!(mss_obs::parse_flag("maybe").is_err());
        assert_eq!(parse_cache_dir(" target/x "), Ok(PathBuf::from("target/x")));
        assert!(parse_cache_dir("   ").is_err());
    }

    #[test]
    fn stage_names_are_stable() {
        // On-disk compatibility: these strings are part of the cache format.
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "characterize-cells",
                "estimate-array",
                "vaet-distributions",
                "simulate-kernel",
                "mcpat-account"
            ]
        );
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s.idx(), i);
            assert_eq!(s.to_string(), s.name());
        }
    }
}
