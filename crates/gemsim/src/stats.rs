//! The activity report consumed by the power/area layer.

use crate::cache::{CacheConfig, CacheStats};
use crate::core::CoreKind;
use crate::faultmem::FaultMemStats;

/// Activity of one cache over a run (counters already scaled back to the
/// full workload when sampling was used).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheActivity {
    /// Cache name ("big.L2", ...).
    pub name: String,
    /// The configuration it ran with (carries per-access energies).
    pub config: CacheConfig,
    /// Scaled activity counters.
    pub stats: CacheStats,
}

/// Activity of one core over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreActivity {
    /// Microarchitecture class.
    pub kind: CoreKind,
    /// Instructions retired.
    pub instructions: u64,
    /// Busy time (the core's own execution time), seconds.
    pub busy_seconds: f64,
    /// Instructions per cycle achieved.
    pub ipc: f64,
}

/// The full activity report of one kernel run — the paper's "detailed
/// report of the system activity including the number of memory
/// transactions ... and the execution time".
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Kernel name.
    pub kernel: String,
    /// Wall-clock execution time (slowest core), seconds.
    pub runtime_seconds: f64,
    /// Per-core activity.
    pub cores: Vec<CoreActivity>,
    /// Per-cache activity.
    pub caches: Vec<CacheActivity>,
    /// DRAM read transactions.
    pub dram_reads: u64,
    /// DRAM write transactions.
    pub dram_writes: u64,
    /// DRAM transactions that hit an open row (0 when the row-buffer model
    /// is disabled).
    pub dram_row_hits: u64,
    /// Fraction of memory accesses actually simulated (sampling factor).
    pub simulated_fraction: f64,
    /// Sampled references extrapolated rather than simulated. The
    /// simulator runs every sampled reference, so this is always 0; the
    /// field stays so serialized reports keep their shape.
    pub extrapolated_accesses: u64,
    /// Fault/ECC activity of the memory array (unscaled simulated counts),
    /// `None` when the run modelled a perfect array.
    pub fault: Option<FaultMemStats>,
}

impl SimReport {
    /// Total retired instructions.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Looks up a cache's activity by name.
    pub fn cache(&self, name: &str) -> Option<&CacheActivity> {
        self.caches.iter().find(|c| c.name == name)
    }

    /// Aggregate IPC over all cores.
    pub fn system_ipc(&self, frequency: f64) -> f64 {
        if self.runtime_seconds <= 0.0 {
            return 0.0;
        }
        self.total_instructions() as f64 / (self.runtime_seconds * frequency)
    }
}

impl mss_pipe::Artifact for SimReport {
    const KIND: &'static str = "sim-report";
    const VERSION: u32 = 1;

    fn encode(&self) -> String {
        use mss_pipe::codec::JsonLine;
        let mut text = JsonLine::new()
            .str("kernel", &self.kernel)
            .f64_bits("runtime_seconds", self.runtime_seconds)
            .u64("dram_reads", self.dram_reads)
            .u64("dram_writes", self.dram_writes)
            .u64("dram_row_hits", self.dram_row_hits)
            .f64_bits("simulated_fraction", self.simulated_fraction)
            .u64("extrapolated_accesses", self.extrapolated_accesses)
            .u64("cores", self.cores.len() as u64)
            .u64("caches", self.caches.len() as u64)
            .u64("fault", u64::from(self.fault.is_some()))
            .finish();
        for core in &self.cores {
            text.push('\n');
            text.push_str(
                &JsonLine::new()
                    .u64("kind", matches!(core.kind, CoreKind::Little) as u64)
                    .u64("instructions", core.instructions)
                    .f64_bits("busy_seconds", core.busy_seconds)
                    .f64_bits("ipc", core.ipc)
                    .finish(),
            );
        }
        for cache in &self.caches {
            let c = &cache.config;
            text.push('\n');
            text.push_str(
                &JsonLine::new()
                    .str("name", &cache.name)
                    .str("cfg_name", &c.name)
                    .u64("capacity", c.capacity)
                    .u64("associativity", u64::from(c.associativity))
                    .u64("line_bytes", u64::from(c.line_bytes))
                    .f64_bits("read_latency", c.read_latency)
                    .f64_bits("write_latency", c.write_latency)
                    .f64_bits("read_energy", c.read_energy)
                    .f64_bits("write_energy", c.write_energy)
                    .f64_bits("leakage_power", c.leakage_power)
                    .u64("reads", cache.stats.reads)
                    .u64("writes", cache.stats.writes)
                    .u64("read_hits", cache.stats.read_hits)
                    .u64("write_hits", cache.stats.write_hits)
                    .u64("writebacks", cache.stats.writebacks)
                    .finish(),
            );
        }
        if let Some(f) = &self.fault {
            text.push('\n');
            text.push_str(
                &JsonLine::new()
                    .u64("writes", f.writes)
                    .u64("reads", f.reads)
                    .u64("scrubs", f.scrubs)
                    .u64("injected_bits", f.injected_bits)
                    .u64("write_retries", f.write_retries)
                    .u64("write_residual_bits", f.write_residual_bits)
                    .u64("reads_clean", f.reads_clean)
                    .u64("reads_corrected", f.reads_corrected)
                    .u64("reads_detected", f.reads_detected)
                    .u64("reads_uncorrectable", f.reads_uncorrectable)
                    .u64("scrubbed_words", f.scrubbed_words)
                    .finish(),
            );
        }
        text
    }

    fn decode(payload: &str) -> Option<Self> {
        use mss_pipe::codec::{get_f64_bits, get_u64, parse_object};
        let mut lines = payload.trim_end().lines();
        let meta = parse_object(lines.next()?)?;
        let n_cores = get_u64(&meta, "cores")? as usize;
        let n_caches = get_u64(&meta, "caches")? as usize;
        let has_fault = get_u64(&meta, "fault")? != 0;

        let mut cores = Vec::with_capacity(n_cores);
        for _ in 0..n_cores {
            let map = parse_object(lines.next()?)?;
            cores.push(CoreActivity {
                kind: match get_u64(&map, "kind")? {
                    0 => CoreKind::Big,
                    1 => CoreKind::Little,
                    _ => return None,
                },
                instructions: get_u64(&map, "instructions")?,
                busy_seconds: get_f64_bits(&map, "busy_seconds")?,
                ipc: get_f64_bits(&map, "ipc")?,
            });
        }
        let mut caches = Vec::with_capacity(n_caches);
        for _ in 0..n_caches {
            let map = parse_object(lines.next()?)?;
            caches.push(CacheActivity {
                name: map.get("name")?.clone(),
                config: CacheConfig {
                    name: map.get("cfg_name")?.clone(),
                    capacity: get_u64(&map, "capacity")?,
                    associativity: u32::try_from(get_u64(&map, "associativity")?).ok()?,
                    line_bytes: u32::try_from(get_u64(&map, "line_bytes")?).ok()?,
                    read_latency: get_f64_bits(&map, "read_latency")?,
                    write_latency: get_f64_bits(&map, "write_latency")?,
                    read_energy: get_f64_bits(&map, "read_energy")?,
                    write_energy: get_f64_bits(&map, "write_energy")?,
                    leakage_power: get_f64_bits(&map, "leakage_power")?,
                },
                stats: CacheStats {
                    reads: get_u64(&map, "reads")?,
                    writes: get_u64(&map, "writes")?,
                    read_hits: get_u64(&map, "read_hits")?,
                    write_hits: get_u64(&map, "write_hits")?,
                    writebacks: get_u64(&map, "writebacks")?,
                },
            });
        }
        let fault = if has_fault {
            let map = parse_object(lines.next()?)?;
            Some(FaultMemStats {
                writes: get_u64(&map, "writes")?,
                reads: get_u64(&map, "reads")?,
                scrubs: get_u64(&map, "scrubs")?,
                injected_bits: get_u64(&map, "injected_bits")?,
                write_retries: get_u64(&map, "write_retries")?,
                write_residual_bits: get_u64(&map, "write_residual_bits")?,
                reads_clean: get_u64(&map, "reads_clean")?,
                reads_corrected: get_u64(&map, "reads_corrected")?,
                reads_detected: get_u64(&map, "reads_detected")?,
                reads_uncorrectable: get_u64(&map, "reads_uncorrectable")?,
                scrubbed_words: get_u64(&map, "scrubbed_words")?,
            })
        } else {
            None
        };
        if lines.next().is_some() {
            return None;
        }
        Some(Self {
            kernel: meta.get("kernel")?.clone(),
            runtime_seconds: get_f64_bits(&meta, "runtime_seconds")?,
            cores,
            caches,
            dram_reads: get_u64(&meta, "dram_reads")?,
            dram_writes: get_u64(&meta, "dram_writes")?,
            dram_row_hits: get_u64(&meta, "dram_row_hits")?,
            simulated_fraction: get_f64_bits(&meta, "simulated_fraction")?,
            extrapolated_accesses: get_u64(&meta, "extrapolated_accesses")?,
            fault,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_helpers() {
        let r = SimReport {
            kernel: "k".into(),
            runtime_seconds: 1.0,
            cores: vec![
                CoreActivity {
                    kind: CoreKind::Big,
                    instructions: 100,
                    busy_seconds: 0.9,
                    ipc: 1.2,
                },
                CoreActivity {
                    kind: CoreKind::Little,
                    instructions: 50,
                    busy_seconds: 1.0,
                    ipc: 0.6,
                },
            ],
            caches: vec![],
            dram_reads: 5,
            dram_writes: 2,
            dram_row_hits: 0,
            simulated_fraction: 1.0,
            extrapolated_accesses: 0,
            fault: None,
        };
        assert_eq!(r.total_instructions(), 150);
        assert!(r.cache("none").is_none());
        assert!((r.system_ipc(150.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn artifact_round_trip_is_exact() {
        use mss_pipe::Artifact;
        let report = SimReport {
            kernel: "bodytrack".into(),
            runtime_seconds: 0.012345678901234567,
            cores: vec![
                CoreActivity {
                    kind: CoreKind::Big,
                    instructions: u64::MAX - 3,
                    busy_seconds: 0.011,
                    ipc: 1.75,
                },
                CoreActivity {
                    kind: CoreKind::Little,
                    instructions: 42,
                    busy_seconds: f64::MIN_POSITIVE,
                    ipc: 0.5,
                },
            ],
            caches: vec![CacheActivity {
                name: "big.L2".into(),
                config: CacheConfig {
                    name: "L2 \"quoted\"".into(),
                    capacity: 1 << 20,
                    associativity: 8,
                    line_bytes: 64,
                    read_latency: 2.1e-9,
                    write_latency: 3.4e-9,
                    read_energy: 1.0e-11,
                    write_energy: 2.0e-11,
                    leakage_power: 0.003,
                },
                stats: CacheStats {
                    reads: 1000,
                    writes: 200,
                    read_hits: 900,
                    write_hits: 150,
                    writebacks: 30,
                },
            }],
            dram_reads: 100,
            dram_writes: 70,
            dram_row_hits: 55,
            simulated_fraction: 0.1,
            extrapolated_accesses: 9000,
            fault: Some(FaultMemStats {
                writes: 1,
                reads: 2,
                scrubs: 3,
                injected_bits: 4,
                write_retries: 5,
                write_residual_bits: 6,
                reads_clean: 7,
                reads_corrected: 8,
                reads_detected: 9,
                reads_uncorrectable: 10,
                scrubbed_words: 11,
            }),
        };
        let decoded = SimReport::decode(&report.encode()).expect("round trip");
        assert_eq!(decoded, report);

        // A faultless report round-trips too (the optional line is absent).
        let mut plain = report.clone();
        plain.fault = None;
        assert_eq!(SimReport::decode(&plain.encode()), Some(plain));

        // Truncation is a miss, never a panic.
        let text = report.encode();
        assert_eq!(SimReport::decode(&text[..text.len() / 2]), None);
    }
}
