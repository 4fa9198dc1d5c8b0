//! Executable specification of the hot-loop semantics.
//!
//! The optimized simulator ([`crate::cache::Cache`] slab of LRU stacks,
//! [`crate::workload::AccessStream`] ring buffer, the chunked
//! [`crate::system::System::run_cancellable`] loop) is required to be
//! **bit-for-bit identical** to the straightforward implementations kept
//! here: a `Vec<Vec<(tag, dirty)>>` LRU cache that shifts elements on every
//! promotion and a recent-history `Vec` that pays `remove(0)` per generated
//! access. These are the pre-rewrite data structures with the two
//! accounting fix applied (L1 victims written back at their real line
//! addresses), so they define *what* the
//! simulator computes while the optimized path defines *how fast*.
//!
//! Used by the hot-loop parity suite and by the `cache_smoke` performance
//! gate, which times [`run`] against the production loop. Keep this
//! module naive: do not optimize it.

use crate::cache::{AccessOutcome, CacheConfig, CacheStats};
use crate::faultmem::FaultMemory;
use crate::stats::{CacheActivity, CoreActivity, SimReport};
use crate::system::{SystemConfig, FILL_WRITE_EXPOSURE, WRITEBACK_EXPOSURE};
use crate::workload::{Kernel, MemoryAccess};
use crate::GemsimError;

use mss_units::rng::{Rng, Xoshiro256PlusPlus};

/// The pre-rewrite LRU set-associative cache: per-set `Vec<(tag, dirty)>`
/// ordered least- to most-recently used, promoted and evicted with
/// `Vec::remove`/`insert` element shifting.
#[derive(Debug, Clone)]
pub struct NaiveCache {
    config: CacheConfig,
    /// Per set: (tag, dirty), most recently used last.
    sets: Vec<Vec<(u64, bool)>>,
    stats: CacheStats,
    set_mask: u64,
    line_shift: u32,
}

impl NaiveCache {
    /// Builds (and validates) a cache.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheConfig::validate`].
    pub fn new(config: CacheConfig) -> Result<Self, GemsimError> {
        config.validate()?;
        let sets = config.sets();
        Ok(Self {
            set_mask: sets - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            sets: vec![Vec::new(); sets as usize],
            stats: CacheStats::default(),
            config,
        })
    }

    /// Activity counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Line-aligned byte address of a resident (tag, set) pair.
    fn line_address(&self, set_idx: usize, tag: u64) -> u64 {
        ((tag << self.set_mask.count_ones()) | set_idx as u64) << self.line_shift
    }

    /// Performs one access; `write` marks stores.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|(t, _)| *t == tag) {
            // Hit: move to MRU, possibly mark dirty.
            let (t, dirty) = set.remove(pos);
            set.push((t, dirty || write));
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
        let mut writeback = false;
        let mut victim = None;
        if set.len() == self.config.associativity as usize {
            let (t, dirty) = set.remove(0);
            if dirty {
                writeback = true;
                self.stats.writebacks += 1;
            }
            victim = Some(self.line_address(set_idx, t));
        }
        self.sets[set_idx].push((tag, write));
        AccessOutcome {
            hit: false,
            writeback,
            victim,
        }
    }

    /// Invalidates everything (contents, not counters), returning the
    /// number of dirty lines dropped — the same policy as
    /// [`crate::cache::Cache::flush`].
    pub fn flush(&mut self) -> u64 {
        let mut dirty_lines = 0u64;
        for set in &mut self.sets {
            dirty_lines += set.iter().filter(|(_, d)| *d).count() as u64;
            set.clear();
        }
        dirty_lines
    }
}

const LINE: u64 = 64;
const HISTORY: usize = 4096;

/// The pre-rewrite access-stream generator: the recent-line history is a
/// plain `Vec` that pays a full `remove(0)` shift once it is warm.
#[derive(Debug, Clone)]
pub struct NaiveStream {
    rng: Xoshiro256PlusPlus,
    history: Vec<u64>,
    cursor: u64,
    line: u64,
    working_lines: u64,
    write_ratio: f64,
    reuse_probability: f64,
    reuse_p_geom: f64,
    stream_probability: f64,
    far_reuse_probability: f64,
    base: u64,
}

impl NaiveStream {
    /// Creates a stream for `kernel`, thread `tid`, with a global seed —
    /// the same draw sequence as [`crate::workload::AccessStream::new`].
    pub fn new(kernel: &Kernel, tid: u32, seed: u64) -> Self {
        let per_thread = (kernel.working_set / kernel.threads as u64).max(4 * LINE);
        Self {
            rng: Xoshiro256PlusPlus::seed_from_u64(
                seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tid as u64 + 1),
            ),
            history: Vec::with_capacity(HISTORY),
            cursor: 0,
            line: 0,
            working_lines: (per_thread / LINE).max(4),
            write_ratio: kernel.write_ratio,
            reuse_probability: kernel.reuse_probability,
            reuse_p_geom: 1.0 / kernel.mean_reuse_distance.max(1.0),
            stream_probability: kernel.stream_probability,
            far_reuse_probability: kernel.far_reuse_probability,
            base: (tid as u64) << 32,
        }
    }

    /// Draws the next access.
    pub fn next_access(&mut self) -> MemoryAccess {
        let write = self.rng.gen_bool(self.write_ratio);
        if self.rng.gen_bool(self.far_reuse_probability) && self.cursor > 0 {
            let max_d = self.working_lines.max(128) as f64;
            let u: f64 = self.rng.next_f64();
            let d = (64.0 * (max_d / 64.0).powf(u)) as u64;
            let line =
                (self.line + self.working_lines - d % self.working_lines) % self.working_lines;
            self.cursor += 1;
            return MemoryAccess {
                address: self.base + line * LINE,
                write,
            };
        }
        let reuse = !self.history.is_empty() && self.rng.gen_bool(self.reuse_probability);
        let line = if reuse {
            // Geometric stack distance over the recent-history buffer:
            // stop probability p' = (⌊p·2⁵³⌋ + 1)/2⁵³, tail
            // P(d ≥ k) = (1 − p')^k, inverted at one uniform on (0, 1]
            // and capped at the oldest entry.
            let two_53 = 2f64.powi(53);
            let stop = ((self.reuse_p_geom * two_53).floor() + 1.0) / two_53;
            let ln_q = (-stop.min(1.0)).ln_1p();
            let u = ((self.rng.next_u64() >> 11) + 1) as f64 / two_53;
            let d = (u.ln() / ln_q).min((self.history.len() - 1) as f64) as usize;
            self.history[self.history.len() - 1 - d]
        } else if self.rng.gen_bool(self.stream_probability) {
            self.line = (self.line + 1) % self.working_lines;
            self.line
        } else {
            self.line = self.rng.gen_range_u64(0, self.working_lines);
            self.line
        };
        if self.history.len() == HISTORY {
            self.history.remove(0);
        }
        self.history.push(line);
        self.cursor += 1;
        MemoryAccess {
            address: self.base + line * LINE + self.rng.gen_range_u64(0, LINE / 8) * 8,
            write,
        }
    }
}

fn scale_stats(s: &CacheStats, scale: f64) -> CacheStats {
    let f = |v: u64| (v as f64 * scale).round() as u64;
    CacheStats {
        reads: f(s.reads),
        writes: f(s.writes),
        read_hits: f(s.read_hits),
        write_hits: f(s.write_hits),
        writebacks: f(s.writebacks),
    }
}

/// Runs one kernel with the naive data structures, one access at a time —
/// the reference semantics of
/// [`crate::system::System::run_cancellable`]. No observability spans or
/// counters are emitted.
///
/// # Errors
///
/// As [`crate::system::System::run`].
pub fn run(config: &SystemConfig, kernel: &Kernel, seed: u64) -> Result<SimReport, GemsimError> {
    config.validate()?;
    kernel.validate()?;
    let total_cores: u64 = config.clusters.iter().map(|c| c.cores as u64).sum();
    let threads = kernel.threads as u64;
    let total_weight: f64 = {
        let mut w = 0.0;
        let mut core_id = 0u64;
        for cluster in &config.clusters {
            for _ in 0..cluster.cores {
                let owned = (0..threads).filter(|t| t % total_cores == core_id).count();
                w += owned as f64 * cluster.core.frequency / cluster.core.base_cpi;
                core_id += 1;
            }
        }
        w
    };

    let mut cores_out = Vec::new();
    let mut caches_out = Vec::new();
    let mut dram_reads_scaled = 0u64;
    let mut dram_writes_scaled = 0u64;
    let mut fault_mem = match &config.fault {
        Some(cfg) => Some(FaultMemory::new(*cfg)?),
        None => None,
    };
    let mut runtime: f64 = 0.0;

    let mut global_core_index = 0u32;
    for cluster in &config.clusters {
        let weight = cluster.core.frequency / cluster.core.base_cpi;
        let instr_per_thread = (kernel.instructions as f64 * weight / total_weight) as u64;
        let mem_per_thread = (instr_per_thread as f64 * kernel.memory_ratio) as u64;
        let sim_per_thread = mem_per_thread.min(config.sample_accesses_per_thread);
        let scale = if sim_per_thread == 0 {
            1.0
        } else {
            mem_per_thread as f64 / sim_per_thread as f64
        };
        let mut l2 = NaiveCache::new(cluster.l2.clone())?;
        let mut l1_total = CacheStats::default();
        let mut dram_reads_sim = 0u64;
        let mut dram_writes_sim = 0u64;
        let line_bytes = cluster.l2.line_bytes as u64;
        for local_core in 0..cluster.cores {
            let core_id = global_core_index + local_core;
            let owned: Vec<u64> = (0..threads)
                .filter(|t| t % total_cores == core_id as u64)
                .collect();
            let mut l1 = NaiveCache::new(cluster.l1d.clone())?;
            let mut stall_seconds_sim = 0.0;
            for &t in &owned {
                let mut stream = NaiveStream::new(kernel, t as u32, seed);
                for _ in 0..sim_per_thread {
                    let acc = stream.next_access();
                    let l1_out = l1.access(acc.address, acc.write);
                    if l1_out.hit {
                        continue;
                    }
                    // L1 miss: read the line from L2.
                    let l2_out = l2.access(acc.address, false);
                    stall_seconds_sim += cluster.l2.read_latency;
                    if !l2_out.hit {
                        // L2 miss: DRAM fetch + fill write into the L2 array.
                        dram_reads_sim += 1;
                        if let Some(fm) = fault_mem.as_mut() {
                            fm.read(acc.address / line_bytes);
                        }
                        stall_seconds_sim +=
                            config.dram_latency + FILL_WRITE_EXPOSURE * cluster.l2.write_latency;
                    }
                    if l2_out.writeback {
                        dram_writes_sim += 1;
                        if let Some(fm) = fault_mem.as_mut() {
                            let v = l2_out.victim.expect("writeback implies victim");
                            fm.write(v / line_bytes);
                        }
                    }
                    if l1_out.writeback {
                        // Dirty L1 victim written into the L2 array at its
                        // real line address.
                        let victim = l1_out.victim.expect("writeback implies victim");
                        let wb = l2.access(victim, true);
                        stall_seconds_sim += WRITEBACK_EXPOSURE * cluster.l2.write_latency;
                        if wb.writeback {
                            dram_writes_sim += 1;
                            if let Some(fm) = fault_mem.as_mut() {
                                let v = wb.victim.expect("writeback implies victim");
                                fm.write(v / line_bytes);
                            }
                        }
                    }
                }
            }
            let instructions = instr_per_thread * owned.len() as u64;
            let stall_cycles = cluster.core.cycles(stall_seconds_sim * scale);
            let busy = cluster.core.execution_seconds(instructions, stall_cycles);
            let ipc = if busy > 0.0 {
                instructions as f64 / (busy * cluster.core.frequency)
            } else {
                0.0
            };
            runtime = runtime.max(busy);
            cores_out.push(CoreActivity {
                kind: cluster.core.kind,
                instructions,
                busy_seconds: busy,
                ipc,
            });
            l1_total.merge(l1.stats());
        }
        caches_out.push(CacheActivity {
            name: cluster.l1d.name.clone(),
            config: cluster.l1d.clone(),
            stats: scale_stats(&l1_total, scale),
        });
        caches_out.push(CacheActivity {
            name: cluster.l2.name.clone(),
            config: cluster.l2.clone(),
            stats: scale_stats(l2.stats(), scale),
        });
        dram_reads_scaled += (dram_reads_sim as f64 * scale) as u64;
        dram_writes_scaled += (dram_writes_sim as f64 * scale) as u64;
        global_core_index += cluster.cores;
    }

    let sampled_fraction = {
        let c0 = &config.clusters[0];
        let w = c0.core.frequency / c0.core.base_cpi;
        let instr = (kernel.instructions as f64 * w / total_weight) as u64;
        let mem = (instr as f64 * kernel.memory_ratio) as u64;
        let sim = mem.min(config.sample_accesses_per_thread);
        if mem == 0 {
            1.0
        } else {
            sim as f64 / mem as f64
        }
    };
    Ok(SimReport {
        kernel: kernel.name.clone(),
        runtime_seconds: runtime,
        cores: cores_out,
        caches: caches_out,
        dram_reads: dram_reads_scaled,
        dram_writes: dram_writes_scaled,
        simulated_fraction: sampled_fraction,
        extrapolated_accesses: 0,
        fault: fault_mem.map(|fm| *fm.stats()),
    })
}
