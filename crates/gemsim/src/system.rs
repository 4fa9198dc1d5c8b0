//! The big.LITTLE platform simulator.
//!
//! Threads are distributed round-robin over every core of every cluster;
//! each core owns a private L1D, each cluster shares an L2, and all clusters
//! share DRAM. Memory-access streams are generated statistically per thread
//! (see [`crate::workload`]) and — for tractability — sampled: up to
//! [`SystemConfig::sample_accesses_per_thread`] references are simulated per
//! thread and the counters scaled back to the full run.
//!
//! Stall accounting (what reaches the core's execution time):
//!
//! - an L1 hit is pipelined away (no stall),
//! - an L1 miss exposes the L2 read-hit latency,
//! - an L2 miss additionally exposes the DRAM latency, and the returning
//!   fill must be *written into the L2 array* — with an STT-MRAM L2 this
//!   write is slow and partially exposed ([`FILL_WRITE_EXPOSURE`]),
//! - dirty evictions from L1 write the L2 array too, mostly hidden behind
//!   buffers ([`WRITEBACK_EXPOSURE`]).

use mss_exec::supervise::{CancelToken, PartialSweep, SupervisorConfig};
use mss_exec::{par_map, ParallelConfig};

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::core::CoreModel;
use crate::faultmem::{FaultMemConfig, FaultMemory};
use crate::stats::{CacheActivity, CoreActivity, SimReport};
use crate::workload::{AccessStream, Kernel, MemoryAccess};
use crate::GemsimError;

/// Fraction of an L2 fill-write latency exposed to the core.
pub const FILL_WRITE_EXPOSURE: f64 = 0.35;
/// Fraction of an L1→L2 write-back latency exposed to the core.
pub const WRITEBACK_EXPOSURE: f64 = 0.15;

/// Accesses synthesized per [`AccessStream::fill`] batch. Batching
/// amortizes the generator call and keeps the per-access state in
/// registers; it does not change the consumption order, so reports are
/// bit-identical to the one-at-a-time loop.
const DEFAULT_CHUNK: usize = 1024;

/// One cluster: homogeneous cores + private L1Ds + a shared L2.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Cluster display name ("big", "LITTLE").
    pub name: String,
    /// Core timing model.
    pub core: CoreModel,
    /// Number of cores.
    pub cores: u32,
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Shared L2 cache.
    pub l2: CacheConfig,
}

impl mss_pipe::StableHash for ClusterConfig {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_str(&self.name);
        self.core.stable_hash(h);
        h.write_u32(self.cores);
        self.l1d.stable_hash(h);
        self.l2.stable_hash(h);
    }
}

/// The platform configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Clusters (the default platform has big + LITTLE).
    pub clusters: Vec<ClusterConfig>,
    /// DRAM access latency, seconds.
    pub dram_latency: f64,
    /// DRAM energy per transaction, joules.
    pub dram_energy: f64,
    /// DRAM background power, watts.
    pub dram_background_power: f64,
    /// Per-thread cap on simulated memory references (sampling).
    pub sample_accesses_per_thread: u64,
    /// Optional fault-aware main-memory array: every DRAM-level transaction
    /// runs through a seeded fault injector and an ECC controller (see
    /// [`crate::faultmem`]). `None` models a perfect array.
    pub fault: Option<FaultMemConfig>,
}

fn sram_l1(name: &str) -> CacheConfig {
    CacheConfig {
        name: name.to_string(),
        capacity: 32 << 10,
        associativity: 4,
        line_bytes: 64,
        read_latency: 1.0e-9,
        write_latency: 1.0e-9,
        read_energy: 10e-12,
        write_energy: 12e-12,
        leakage_power: 8e-3,
    }
}

impl mss_pipe::StableHash for SystemConfig {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        self.clusters.stable_hash(h);
        h.write_f64(self.dram_latency);
        h.write_f64(self.dram_energy);
        h.write_f64(self.dram_background_power);
        // Legacy tags of two since-removed fields, always absent/off: the
        // optional DRAM row-buffer model (`0u8`) and the L2 next-line
        // prefetch flag (`false`, one `0u8`). Kept so every simulate-stage
        // cache key stays what it was.
        h.write_u8(0);
        false.stable_hash(h);
        h.write_u64(self.sample_accesses_per_thread);
        match &self.fault {
            None => h.write_u8(0),
            Some(f) => {
                h.write_u8(1);
                f.stable_hash(h);
            }
        }
        // Tag of a since-removed optional field, always absent: kept so
        // every simulate-stage cache key stays what it was.
        h.write_u8(0);
    }
}

impl SystemConfig {
    /// The default Exynos-5-style big.LITTLE platform with all-SRAM caches
    /// (the paper's Full-SRAM reference scenario).
    pub fn big_little_default() -> Self {
        Self {
            clusters: vec![
                ClusterConfig {
                    name: "big".into(),
                    core: CoreModel::big(),
                    cores: 4,
                    l1d: sram_l1("big.L1D"),
                    l2: CacheConfig {
                        name: "big.L2".into(),
                        capacity: 2 << 20,
                        associativity: 16,
                        line_bytes: 64,
                        read_latency: 5.0e-9,
                        write_latency: 5.0e-9,
                        read_energy: 120e-12,
                        write_energy: 130e-12,
                        leakage_power: 0.35,
                    },
                },
                ClusterConfig {
                    name: "LITTLE".into(),
                    core: CoreModel::little(),
                    cores: 4,
                    l1d: sram_l1("LITTLE.L1D"),
                    l2: CacheConfig {
                        name: "LITTLE.L2".into(),
                        capacity: 512 << 10,
                        associativity: 8,
                        line_bytes: 64,
                        read_latency: 4.0e-9,
                        write_latency: 4.0e-9,
                        read_energy: 60e-12,
                        write_energy: 65e-12,
                        leakage_power: 0.09,
                    },
                },
            ],
            dram_latency: 80e-9,
            dram_energy: 15e-9,
            dram_background_power: 0.15,
            sample_accesses_per_thread: 150_000,
            fault: None,
        }
    }

    /// Validates the platform.
    ///
    /// # Errors
    ///
    /// [`GemsimError::InvalidSystem`] / [`GemsimError::InvalidCache`].
    pub fn validate(&self) -> Result<(), GemsimError> {
        if self.clusters.is_empty() {
            return Err(GemsimError::InvalidSystem {
                reason: "no clusters".into(),
            });
        }
        if self.clusters.iter().all(|c| c.cores == 0) {
            return Err(GemsimError::InvalidSystem {
                reason: "no cores in any cluster".into(),
            });
        }
        if self.dram_latency <= 0.0 || self.sample_accesses_per_thread == 0 {
            return Err(GemsimError::InvalidSystem {
                reason: "DRAM latency and sampling cap must be positive".into(),
            });
        }
        for c in &self.clusters {
            c.l1d.validate()?;
            c.l2.validate()?;
        }
        if let Some(fault) = &self.fault {
            fault.validate()?;
        }
        Ok(())
    }

    /// Total cores across all clusters.
    pub fn total_cores(&self) -> u32 {
        self.clusters.iter().map(|c| c.cores).sum()
    }
}

/// The platform simulator.
#[derive(Debug, Clone)]
pub struct System {
    config: SystemConfig,
}

impl System {
    /// Validates and wraps a platform configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`SystemConfig::validate`].
    pub fn new(config: SystemConfig) -> Result<Self, GemsimError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The platform configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs one kernel spread over every cluster (see
    /// [`System::run_cancellable`]).
    ///
    /// # Errors
    ///
    /// [`GemsimError::InvalidWorkload`] for malformed kernels.
    pub fn run(&self, kernel: &Kernel, seed: u64) -> Result<SimReport, GemsimError> {
        self.run_cancellable(kernel, seed, None)
    }

    /// Runs a batch of kernels in parallel (one task per kernel), returning
    /// reports **in kernel order**.
    ///
    /// Every kernel replays its own deterministic access streams from
    /// `seed`, so the batch is bit-identical to running the kernels one by
    /// one — threads only change the wall time.
    ///
    /// # Errors
    ///
    /// The first kernel error in kernel order.
    pub fn run_many(
        &self,
        kernels: &[Kernel],
        seed: u64,
        exec: &ParallelConfig,
    ) -> Result<Vec<SimReport>, GemsimError> {
        let _span = mss_obs::span("gemsim.run_many");
        par_map(exec, kernels, |_, kernel| self.run(kernel, seed))
            .into_iter()
            .collect()
    }

    /// Runs a batch of kernels under the sweep supervisor: each kernel is
    /// isolated (a panic or failure becomes a [`mss_exec::TaskFailure`]),
    /// bounded by the supervisor's per-task deadline (observed at access
    /// chunk boundaries), retried deterministically, and the batch returns
    /// a [`PartialSweep`] with completed reports in kernel order.
    ///
    /// Completed reports are bit-identical to [`System::run_many`] output
    /// for the same kernels at any thread count.
    pub fn run_many_supervised(
        &self,
        kernels: &[Kernel],
        seed: u64,
        exec: &ParallelConfig,
        sup: &SupervisorConfig,
    ) -> PartialSweep<SimReport> {
        let _span = mss_obs::span("gemsim.run_many");
        let sup = if sup.label.is_empty() {
            sup.with_label("gemsim.run_many")
        } else {
            *sup
        };
        mss_exec::supervised_map(exec, &sup, kernels, |ctx, kernel| {
            self.run_cancellable(kernel, seed, Some(ctx.token()))
        })
    }

    /// Runs one kernel spread over every cluster and reports system
    /// activity. A `token`, when given, is polled at every access-chunk
    /// boundary so the supervisor's per-task deadline bounds the run.
    ///
    /// # Errors
    ///
    /// [`GemsimError::InvalidWorkload`] for malformed kernels and
    /// [`GemsimError::Cancelled`] when the deadline passes mid-run.
    pub fn run_cancellable(
        &self,
        kernel: &Kernel,
        seed: u64,
        token: Option<&CancelToken>,
    ) -> Result<SimReport, GemsimError> {
        let _span = mss_obs::span("gemsim.run");
        kernel.validate()?;
        let total_cores: u64 = self.config.clusters.iter().map(|c| c.cores as u64).sum();
        let threads = kernel.threads as u64;
        // Thread t -> core (t mod cores). Work is balanced by compute
        // throughput (frequency / CPI), modelling the work-stealing
        // runtimes Parsec kernels use: every core finishes its compute
        // share simultaneously, so memory stalls decide the critical path.
        let total_weight: f64 = {
            let mut w = 0.0;
            let mut core_id = 0u64;
            for cluster in &self.config.clusters {
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
        // The fault-aware array sees DRAM-level transactions at line
        // granularity; it is rebuilt per run so identical seeds replay an
        // identical fault history.
        let mut fault_mem = match &self.config.fault {
            Some(cfg) => Some(FaultMemory::new(*cfg)?),
            None => None,
        };
        let mut runtime: f64 = 0.0;
        let mut simulated_accesses = 0u64;

        // One reusable synthesis buffer for the whole run: streams are
        // drained in chunks so the generator and the consuming loop each
        // stay tight.
        let mut buf = vec![
            MemoryAccess {
                address: 0,
                write: false
            };
            DEFAULT_CHUNK
        ];

        // One reuse-offset table for every thread's stream.
        let reuse = AccessStream::reuse_sampler(kernel);
        let mut global_core_index = 0u32;
        for cluster in &self.config.clusters {
            let weight = cluster.core.frequency / cluster.core.base_cpi;
            let instr_per_thread = (kernel.instructions as f64 * weight / total_weight) as u64;
            let mem_per_thread = (instr_per_thread as f64 * kernel.memory_ratio) as u64;
            let sim_per_thread = mem_per_thread.min(self.config.sample_accesses_per_thread);
            let scale = if sim_per_thread == 0 {
                1.0
            } else {
                mem_per_thread as f64 / sim_per_thread as f64
            };
            let mut l2 = Cache::new(cluster.l2.clone())?;
            let mut l1_total = CacheStats::default();
            let mut dram_reads_sim = 0u64;
            let mut dram_writes_sim = 0u64;
            let line_bytes = cluster.l2.line_bytes as u64;
            for local_core in 0..cluster.cores {
                let core_id = global_core_index + local_core;
                // Threads owned by this core.
                let owned: Vec<u64> = (0..threads)
                    .filter(|t| t % total_cores == core_id as u64)
                    .collect();
                simulated_accesses += sim_per_thread * owned.len() as u64;
                let mut l1 = Cache::new(cluster.l1d.clone())?;
                let mut stall_seconds_sim = 0.0;
                for &t in &owned {
                    let mut stream = AccessStream::with_sampler(kernel, t as u32, seed, &reuse);
                    let mut done = 0u64;
                    while done < sim_per_thread {
                        // Cancellation checkpoint: one poll per synthesis
                        // chunk keeps the hot loop tight while bounding the
                        // reaction latency to ~a thousand accesses.
                        if token.is_some_and(|t| t.is_cancelled()) {
                            return Err(GemsimError::Cancelled);
                        }
                        let n = DEFAULT_CHUNK.min((sim_per_thread - done) as usize);
                        stream.fill(&mut buf[..n]);
                        for acc in &buf[..n] {
                            let l1_out = l1.access(acc.address, acc.write);
                            if l1_out.hit {
                                continue;
                            }
                            // L1 miss: read the line from L2.
                            let l2_out = l2.access(acc.address, false);
                            stall_seconds_sim += cluster.l2.read_latency;
                            if !l2_out.hit {
                                // L2 miss: DRAM fetch + fill write into the
                                // L2 array.
                                dram_reads_sim += 1;
                                if let Some(fm) = fault_mem.as_mut() {
                                    fm.read(acc.address / line_bytes);
                                }
                                stall_seconds_sim += self.config.dram_latency
                                    + FILL_WRITE_EXPOSURE * cluster.l2.write_latency;
                            }
                            if l2_out.writeback {
                                dram_writes_sim += 1;
                                if let Some(fm) = fault_mem.as_mut() {
                                    // The line going to DRAM is the evicted
                                    // victim, not the line being fetched.
                                    let v = l2_out.victim.expect("writeback implies victim");
                                    fm.write(v / line_bytes);
                                }
                            }
                            if l1_out.writeback {
                                // Dirty L1 victim written into the L2 array
                                // at its real line address.
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
                        done += n as u64;
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
            // Report the first cluster's sampling ratio (diagnostic only).
            let c0 = &self.config.clusters[0];
            let w = c0.core.frequency / c0.core.base_cpi;
            let instr = (kernel.instructions as f64 * w / total_weight) as u64;
            let mem = (instr as f64 * kernel.memory_ratio) as u64;
            let sim = mem.min(self.config.sample_accesses_per_thread);
            if mem == 0 {
                1.0
            } else {
                sim as f64 / mem as f64
            }
        };
        let report = SimReport {
            kernel: kernel.name.clone(),
            runtime_seconds: runtime,
            cores: cores_out,
            caches: caches_out,
            dram_reads: dram_reads_scaled,
            dram_writes: dram_writes_scaled,
            simulated_fraction: sampled_fraction,
            extrapolated_accesses: 0,
            fault: fault_mem.map(|fm| *fm.stats()),
        };
        if mss_obs::enabled() {
            mss_obs::counter_add("gemsim.runs", 1);
            mss_obs::counter_add("gemsim.instructions", report.total_instructions());
            // The accesses the hot loop ran, unscaled: a span divided by this
            // is a real cost per simulated access.
            mss_obs::counter_add("gemsim.accesses.simulated", simulated_accesses);
            mss_obs::counter_add("gemsim.dram.reads", report.dram_reads);
            mss_obs::counter_add("gemsim.dram.writes", report.dram_writes);
            for cache in &report.caches {
                mss_obs::counter_add("gemsim.cache.hits", cache.stats.hits());
                mss_obs::counter_add("gemsim.cache.misses", cache.stats.misses());
            }
            mss_obs::record_value("gemsim.runtime_seconds", report.runtime_seconds);
        }
        Ok(report)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SystemConfig {
        let mut c = SystemConfig::big_little_default();
        c.sample_accesses_per_thread = 8_000;
        c
    }

    #[test]
    fn default_platform_validates() {
        SystemConfig::big_little_default().validate().unwrap();
    }

    #[test]
    fn bad_platforms_rejected() {
        let mut c = SystemConfig::big_little_default();
        c.clusters.clear();
        assert!(System::new(c).is_err());
        let mut c = SystemConfig::big_little_default();
        c.dram_latency = 0.0;
        assert!(System::new(c).is_err());
        let mut c = SystemConfig::big_little_default();
        c.clusters[0].l2.line_bytes = 63;
        assert!(System::new(c).is_err());
    }

    #[test]
    fn run_produces_consistent_counters() {
        let sys = System::new(quick_config()).unwrap();
        let report = sys.run(&Kernel::bodytrack(), 1).unwrap();
        assert!(report.runtime_seconds > 0.0);
        assert_eq!(report.cores.len(), 8);
        assert_eq!(report.caches.len(), 4);
        for c in &report.caches {
            assert_eq!(c.stats.hits() + c.stats.misses(), c.stats.accesses());
        }
        // DRAM traffic exists for an 8 MiB working set over 2.5 MiB of L2.
        assert!(report.dram_reads > 0);
        // IPC is positive and below issue limits.
        for core in &report.cores {
            assert!(core.ipc > 0.0 && core.ipc < 2.0);
        }
    }

    #[test]
    fn run_many_matches_sequential_runs() {
        let sys = System::new(quick_config()).unwrap();
        let kernels = [
            Kernel::bodytrack(),
            Kernel::swaptions(),
            Kernel::streamcluster(),
        ];
        let batch = sys
            .run_many(&kernels, 9, &ParallelConfig::serial().with_threads(4))
            .unwrap();
        assert_eq!(batch.len(), kernels.len());
        for (kernel, report) in kernels.iter().zip(&batch) {
            assert_eq!(report, &sys.run(kernel, 9).unwrap());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let sys = System::new(quick_config()).unwrap();
        let a = sys.run(&Kernel::bodytrack(), 7).unwrap();
        let b = sys.run(&Kernel::bodytrack(), 7).unwrap();
        assert_eq!(a, b);
        let c = sys.run(&Kernel::bodytrack(), 8).unwrap();
        assert_ne!(a.runtime_seconds, c.runtime_seconds);
    }

    #[test]
    fn slower_l2_write_latency_slows_the_run() {
        let base = quick_config();
        let mut slow = base.clone();
        for cl in &mut slow.clusters {
            cl.l2.write_latency = 15e-9; // STT-MRAM-like write
        }
        let t_base = System::new(base)
            .unwrap()
            .run(&Kernel::fluidanimate(), 3)
            .unwrap()
            .runtime_seconds;
        let t_slow = System::new(slow)
            .unwrap()
            .run(&Kernel::fluidanimate(), 3)
            .unwrap()
            .runtime_seconds;
        assert!(t_slow > t_base, "slow {t_slow} vs base {t_base}");
    }

    #[test]
    fn larger_l2_reduces_dram_traffic() {
        // Enough samples to get past the cold-start window, so capacity
        // effects are visible.
        let mut base = quick_config();
        base.sample_accesses_per_thread = 40_000;
        let mut big = base.clone();
        for cl in &mut big.clusters {
            cl.l2.capacity *= 4;
        }
        let k = Kernel::freqmine();
        let r_base = System::new(base).unwrap().run(&k, 4).unwrap();
        let r_big = System::new(big).unwrap().run(&k, 4).unwrap();
        assert!(
            r_big.dram_reads < r_base.dram_reads,
            "big {} vs base {}",
            r_big.dram_reads,
            r_base.dram_reads
        );
        // The capacity win lands on whichever cores' reuse distances fit the
        // bigger array (here the LITTLE cluster); the critical-path core may
        // be capacity-insensitive, so compare aggregate busy time, not the
        // max.
        let busy = |r: &SimReport| r.cores.iter().map(|c| c.busy_seconds).sum::<f64>();
        assert!(busy(&r_big) < busy(&r_base));
        assert!(r_big.runtime_seconds <= r_base.runtime_seconds);
    }

    #[test]
    fn compute_bound_kernel_is_insensitive_to_l2() {
        let base = quick_config();
        let mut slow = base.clone();
        for cl in &mut slow.clusters {
            cl.l2.write_latency = 15e-9;
        }
        let k = Kernel::swaptions(); // tiny working set
        let t_base = System::new(base)
            .unwrap()
            .run(&k, 5)
            .unwrap()
            .runtime_seconds;
        let t_slow = System::new(slow)
            .unwrap()
            .run(&k, 5)
            .unwrap()
            .runtime_seconds;
        let slowdown = t_slow / t_base;
        assert!(slowdown < 1.10, "slowdown = {slowdown}");
    }

    #[test]
    fn fault_free_runs_report_no_fault_stats() {
        let sys = System::new(quick_config()).unwrap();
        let r = sys.run(&Kernel::bodytrack(), 1).unwrap();
        assert!(r.fault.is_none());
    }

    fn faulty_config() -> SystemConfig {
        use mss_fault::{FaultModel, FaultPlan};
        use mss_vaet::ecc::EccScheme;
        let mut c = quick_config();
        let mut m = FaultModel::none();
        m.write_fail_rate = 0.002;
        m.read_disturb_rate = 0.0005;
        c.fault = Some(FaultMemConfig::new(
            FaultPlan::new(77, m).unwrap(),
            EccScheme::bch(2, 512),
        ));
        c
    }

    #[test]
    fn faulty_memory_degrades_gracefully() {
        let sys = System::new(faulty_config()).unwrap();
        let r = sys.run(&Kernel::bodytrack(), 1).unwrap();
        let f = r.fault.expect("fault stats present");
        // DRAM traffic ran through the array...
        assert!(f.reads > 0 && f.writes > 0);
        assert!(f.injected_bits > 0);
        // ...every read got a verdict, and nothing panicked on the way.
        assert_eq!(
            f.reads_clean + f.reads_corrected + f.reads_detected + f.reads_uncorrectable,
            f.reads
        );
        // Timing and traffic are unchanged by error accounting.
        let clean = System::new(quick_config())
            .unwrap()
            .run(&Kernel::bodytrack(), 1)
            .unwrap();
        assert_eq!(r.runtime_seconds, clean.runtime_seconds);
        assert_eq!(r.dram_reads, clean.dram_reads);
    }

    /// Golden fault counters of the bodytrack run above, under the
    /// geometric-gap draw and the one-draw reuse offset.
    #[test]
    fn faulty_run_matches_pinned_golden() {
        let sys = System::new(faulty_config()).unwrap();
        let r = sys.run(&Kernel::bodytrack(), 1).unwrap();
        assert_eq!(
            r.fault.expect("fault stats present"),
            crate::faultmem::FaultMemStats {
                writes: 322,
                reads: 15778,
                scrubs: 0,
                injected_bits: 4614,
                write_retries: 219,
                write_residual_bits: 0,
                reads_clean: 12002,
                reads_corrected: 3744,
                reads_detected: 30,
                reads_uncorrectable: 2,
                scrubbed_words: 3744,
            }
        );
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let sys = System::new(faulty_config()).unwrap();
        let a = sys.run(&Kernel::bodytrack(), 7).unwrap();
        let b = sys.run(&Kernel::bodytrack(), 7).unwrap();
        assert_eq!(a, b);
        let batch = sys
            .run_many(
                &[Kernel::bodytrack(), Kernel::streamcluster()],
                7,
                &ParallelConfig::serial().with_threads(2),
            )
            .unwrap();
        assert_eq!(batch[0], a);
    }

    #[test]
    fn bad_fault_config_rejected() {
        use mss_fault::FaultPlan;
        use mss_vaet::ecc::EccScheme;
        let mut c = quick_config();
        let mut plan = FaultPlan::disabled();
        plan.model.stuck_at_rate = -1.0;
        c.fault = Some(FaultMemConfig::new(plan, EccScheme::bch(1, 64)));
        assert!(System::new(c).is_err());
    }

    #[test]
    fn cancelled_token_aborts_at_chunk_boundary() {
        use std::time::Duration;
        let sys = System::new(quick_config()).unwrap();
        let token = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(
            sys.run_cancellable(&Kernel::bodytrack(), 1, Some(&token)),
            Err(GemsimError::Cancelled)
        );
        // A live token changes nothing: the run equals the plain path.
        let live = CancelToken::with_deadline(Duration::from_secs(3600));
        let r = sys
            .run_cancellable(&Kernel::bodytrack(), 1, Some(&live))
            .unwrap();
        assert_eq!(r, sys.run(&Kernel::bodytrack(), 1).unwrap());
    }

    #[test]
    fn supervised_batch_isolates_a_poisoned_kernel() {
        let sys = System::new(quick_config()).unwrap();
        let mut bad = Kernel::swaptions();
        bad.threads = 0; // fails validation
        let kernels = [Kernel::bodytrack(), bad, Kernel::streamcluster()];
        let sweep = sys.run_many_supervised(
            &kernels,
            9,
            &ParallelConfig::serial().with_threads(2),
            &SupervisorConfig::disabled(),
        );
        assert_eq!(sweep.completed_count(), 2);
        assert_eq!(sweep.failures.len(), 1);
        assert_eq!(sweep.failures[0].index, 1);
        // Survivors equal the plain per-kernel runs.
        assert_eq!(
            sweep.results[0].as_ref().unwrap(),
            &sys.run(&kernels[0], 9).unwrap()
        );
        assert_eq!(
            sweep.results[2].as_ref().unwrap(),
            &sys.run(&kernels[2], 9).unwrap()
        );
    }

    #[test]
    fn sampling_fraction_reported() {
        let sys = System::new(quick_config()).unwrap();
        let r = sys.run(&Kernel::bodytrack(), 1).unwrap();
        assert!(r.simulated_fraction > 0.0 && r.simulated_fraction <= 1.0);
    }

    #[test]
    fn l1_victim_writebacks_hit_their_real_l2_lines() {
        // Single cluster sized so the L2 holds the whole working set
        // exactly: swaptions touches 2048 lines per thread over 8 threads;
        // the contiguous per-thread line ranges spread them 8-per-set over
        // 4096 sets with 8 ways. With L1 victims written back at their real
        // line addresses every write-back must HIT in the L2 and nothing
        // can spill to DRAM. The old aliasing hack (`addr ^ 0x8000_0000`)
        // fabricated tags that missed, overflowed the sets and bled dirty
        // lines to DRAM — this test fails against it.
        let mut c = SystemConfig::big_little_default();
        c.clusters.truncate(1);
        c.clusters[0].l1d.capacity = 4 << 10; // tiny L1: plenty of victims
        c.clusters[0].l2.capacity = 2 << 20;
        c.clusters[0].l2.associativity = 8;
        c.sample_accesses_per_thread = 30_000;
        let sys = System::new(c).unwrap();
        let r = sys.run(&Kernel::swaptions(), 3).unwrap();
        let l2 = &r.cache("big.L2").unwrap().stats;
        assert!(l2.writes > 0, "the tiny L1 must produce victim write-backs");
        assert_eq!(
            l2.write_hits, l2.writes,
            "every L1 victim write-back must hit its resident L2 line"
        );
        assert_eq!(l2.writebacks, 0, "a fitting L2 evicts nothing");
        assert_eq!(r.dram_writes, 0, "no dirty traffic may reach DRAM");
    }

    #[test]
    fn default_reports_never_extrapolate() {
        let sys = System::new(quick_config()).unwrap();
        let r = sys.run(&Kernel::swaptions(), 2).unwrap();
        assert_eq!(r.extrapolated_accesses, 0);
    }
}
