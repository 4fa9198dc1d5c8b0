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
    #[cfg(test)]
    fn system_ipc(&self, frequency: f64) -> f64 {
        if self.runtime_seconds <= 0.0 {
            return 0.0;
        }
        self.total_instructions() as f64 / (self.runtime_seconds * frequency)
    }
}

impl mss_pipe::Artifact for SimReport {
    const KIND: &'static str = "sim-report";
    /// 2 since the one-draw reuse offset moved every access stream: a
    /// version-1 entry holds a report of the old streams and loads as a
    /// miss.
    const VERSION: u32 = 2;

    fn encode(&self) -> String {
        use mss_pipe::hash::hex_of_f64;
        use mss_pipe::json::Line;
        let mut text = Line::new()
            .str("kernel", &self.kernel)
            .str("runtime_seconds", &hex_of_f64(self.runtime_seconds))
            .u64("dram_reads", self.dram_reads)
            .u64("dram_writes", self.dram_writes)
            // Legacy wire constant of the since-removed DRAM row-buffer
            // model, kept so every entry stays byte-identical.
            .u64("dram_row_hits", 0)
            .str("simulated_fraction", &hex_of_f64(self.simulated_fraction))
            .u64("extrapolated_accesses", self.extrapolated_accesses)
            .u64("cores", self.cores.len() as u64)
            .u64("caches", self.caches.len() as u64)
            .u64("fault", u64::from(self.fault.is_some()))
            .finish();
        for core in &self.cores {
            text.push('\n');
            text.push_str(
                &Line::new()
                    .u64("kind", matches!(core.kind, CoreKind::Little) as u64)
                    .u64("instructions", core.instructions)
                    .str("busy_seconds", &hex_of_f64(core.busy_seconds))
                    .str("ipc", &hex_of_f64(core.ipc))
                    .finish(),
            );
        }
        for cache in &self.caches {
            let c = &cache.config;
            text.push('\n');
            text.push_str(
                &Line::new()
                    .str("name", &cache.name)
                    .str("cfg_name", &c.name)
                    .u64("capacity", c.capacity)
                    .u64("associativity", u64::from(c.associativity))
                    .u64("line_bytes", u64::from(c.line_bytes))
                    .str("read_latency", &hex_of_f64(c.read_latency))
                    .str("write_latency", &hex_of_f64(c.write_latency))
                    .str("read_energy", &hex_of_f64(c.read_energy))
                    .str("write_energy", &hex_of_f64(c.write_energy))
                    .str("leakage_power", &hex_of_f64(c.leakage_power))
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
                &Line::new()
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
        use mss_pipe::hash::f64_field as f;
        use mss_pipe::json::Value;
        let u = |v: &Value, key: &str| v.get(key)?.as_u64();
        let s = |v: &Value, key: &str| Some(v.get(key)?.as_str()?.to_string());
        let mut lines = payload.trim_end().lines();
        let mut next = || Value::parse(lines.next()?).ok();
        let meta = next()?;
        // The counts come from disk: never preallocate from them.
        let cores = (0..u(&meta, "cores")?)
            .map(|_| {
                let v = next()?;
                Some(CoreActivity {
                    kind: match u(&v, "kind")? {
                        0 => CoreKind::Big,
                        1 => CoreKind::Little,
                        _ => return None,
                    },
                    instructions: u(&v, "instructions")?,
                    busy_seconds: f(&v, "busy_seconds")?,
                    ipc: f(&v, "ipc")?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let caches = (0..u(&meta, "caches")?)
            .map(|_| {
                let v = next()?;
                Some(CacheActivity {
                    name: s(&v, "name")?,
                    config: CacheConfig {
                        name: s(&v, "cfg_name")?,
                        capacity: u(&v, "capacity")?,
                        associativity: u32::try_from(u(&v, "associativity")?).ok()?,
                        line_bytes: u32::try_from(u(&v, "line_bytes")?).ok()?,
                        read_latency: f(&v, "read_latency")?,
                        write_latency: f(&v, "write_latency")?,
                        read_energy: f(&v, "read_energy")?,
                        write_energy: f(&v, "write_energy")?,
                        leakage_power: f(&v, "leakage_power")?,
                    },
                    stats: CacheStats {
                        reads: u(&v, "reads")?,
                        writes: u(&v, "writes")?,
                        read_hits: u(&v, "read_hits")?,
                        write_hits: u(&v, "write_hits")?,
                        writebacks: u(&v, "writebacks")?,
                    },
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let fault = if u(&meta, "fault")? != 0 {
            let v = next()?;
            Some(FaultMemStats {
                writes: u(&v, "writes")?,
                reads: u(&v, "reads")?,
                scrubs: u(&v, "scrubs")?,
                injected_bits: u(&v, "injected_bits")?,
                write_retries: u(&v, "write_retries")?,
                write_residual_bits: u(&v, "write_residual_bits")?,
                reads_clean: u(&v, "reads_clean")?,
                reads_corrected: u(&v, "reads_corrected")?,
                reads_detected: u(&v, "reads_detected")?,
                reads_uncorrectable: u(&v, "reads_uncorrectable")?,
                scrubbed_words: u(&v, "scrubbed_words")?,
            })
        } else {
            None
        };
        if lines.next().is_some() {
            return None;
        }
        // A non-zero row-hit count could only come from a row-buffer
        // configuration no key can name any more: treat it as a miss.
        if u(&meta, "dram_row_hits")? != 0 {
            return None;
        }
        Some(Self {
            kernel: s(&meta, "kernel")?,
            runtime_seconds: f(&meta, "runtime_seconds")?,
            cores,
            caches,
            dram_reads: u(&meta, "dram_reads")?,
            dram_writes: u(&meta, "dram_writes")?,
            simulated_fraction: f(&meta, "simulated_fraction")?,
            extrapolated_accesses: u(&meta, "extrapolated_accesses")?,
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
        let report = sample_report();
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

    #[test]
    fn artifact_encoding_is_pinned() {
        use mss_pipe::Artifact;
        assert_eq!(
            sample_report().encode(),
            "{\"kernel\":\"bodytrack\",\"runtime_seconds\":\"3f8948b0f90591e5\",\"dram_reads\":100,\"dram_writes\":70,\"dram_row_hits\":0,\"simulated_fraction\":\"3fb999999999999a\",\"extrapolated_accesses\":9000,\"cores\":2,\"caches\":1,\"fault\":1}\n\
             {\"kind\":0,\"instructions\":18446744073709551612,\"busy_seconds\":\"3f86872b020c49ba\",\"ipc\":\"3ffc000000000000\"}\n\
             {\"kind\":1,\"instructions\":42,\"busy_seconds\":\"0010000000000000\",\"ipc\":\"3fe0000000000000\"}\n\
             {\"name\":\"big.L2\",\"cfg_name\":\"L2 \\\"quoted\\\"\",\"capacity\":1048576,\"associativity\":8,\"line_bytes\":64,\"read_latency\":\"3e2209f2e6f59483\",\"write_latency\":\"3e2d34add7753996\",\"read_energy\":\"3da5fd7fe1796495\",\"write_energy\":\"3db5fd7fe1796495\",\"leakage_power\":\"3f689374bc6a7efa\",\"reads\":1000,\"writes\":200,\"read_hits\":900,\"write_hits\":150,\"writebacks\":30}\n\
             {\"writes\":1,\"reads\":2,\"scrubs\":3,\"injected_bits\":4,\"write_retries\":5,\"write_residual_bits\":6,\"reads_clean\":7,\"reads_corrected\":8,\"reads_detected\":9,\"reads_uncorrectable\":10,\"scrubbed_words\":11}"
        );
    }

    #[test]
    fn legacy_row_hit_counts_decode_as_misses() {
        use mss_pipe::Artifact;
        let text = sample_report().encode();
        assert_eq!(SimReport::decode(&text).unwrap().encode(), text);
        let hits = text.replacen("\"dram_row_hits\":0,", "\"dram_row_hits\":55,", 1);
        assert_ne!(hits, text);
        assert_eq!(SimReport::decode(&hits), None);
    }

    fn sample_report() -> SimReport {
        SimReport {
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
        }
    }
}
