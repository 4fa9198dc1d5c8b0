//! A McPAT-class architecture-level power and area estimator.
//!
//! MAGPIE extends the exploration framework with McPAT "to analyze not only
//! the energy consumption related to the memory components, but also to
//! evaluate the energy of the complete system including the processor cores,
//! buses, and memory controller". This crate consumes the activity report of
//! `mss-gemsim` and produces the component-level energy breakdown behind the
//! paper's Fig. 11 and the total energy / EDP behind Fig. 12.
//!
//! Modelling: event energies (per instruction, per cache access, per bus or
//! DRAM transaction) plus leakage power integrated over the run time. Cache
//! event energies and leakage travel inside the
//! [`CacheConfig`](mss_gemsim::cache::CacheConfig) records of the activity
//! report (they come from `mss-nvsim`), so swapping an SRAM L2 for an
//! STT-MRAM L2 automatically moves the breakdown.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use mss_gemsim::core::CoreKind;
use mss_gemsim::stats::SimReport;

/// Per-core power parameters (McPAT-style, 45 nm defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorePowerParams {
    /// Dynamic energy per retired instruction, joules.
    pub energy_per_instruction: f64,
    /// Static leakage per core, watts.
    pub leakage: f64,
    /// Core area, m².
    pub area: f64,
}

impl mss_pipe::StableHash for CorePowerParams {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_f64(self.energy_per_instruction);
        h.write_f64(self.leakage);
        h.write_f64(self.area);
    }
}

impl CorePowerParams {
    /// Cortex-A15-class big core at 45 nm.
    fn big_45nm() -> Self {
        Self {
            energy_per_instruction: 350e-12,
            leakage: 120e-3,
            area: 5.0e-6,
        }
    }

    /// Cortex-A7-class LITTLE core at 45 nm.
    fn little_45nm() -> Self {
        Self {
            energy_per_instruction: 90e-12,
            leakage: 18e-3,
            area: 0.9e-6,
        }
    }
}

/// System-level power-model configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McpatConfig {
    /// Big-core parameters.
    pub big: CorePowerParams,
    /// LITTLE-core parameters.
    pub little: CorePowerParams,
    /// Interconnect energy per cache-line transaction, joules.
    pub bus_energy_per_transaction: f64,
    /// Memory-controller energy per DRAM transaction, joules.
    pub mc_energy_per_transaction: f64,
    /// Memory-controller static power, watts.
    pub mc_leakage: f64,
    /// DRAM energy per transaction, joules.
    pub dram_energy_per_transaction: f64,
    /// DRAM background power, watts.
    pub dram_background_power: f64,
}

impl mss_pipe::StableHash for McpatConfig {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        self.big.stable_hash(h);
        self.little.stable_hash(h);
        h.write_f64(self.bus_energy_per_transaction);
        h.write_f64(self.mc_energy_per_transaction);
        h.write_f64(self.mc_leakage);
        h.write_f64(self.dram_energy_per_transaction);
        h.write_f64(self.dram_background_power);
    }
}

impl Default for McpatConfig {
    fn default() -> Self {
        Self {
            big: CorePowerParams::big_45nm(),
            little: CorePowerParams::little_45nm(),
            bus_energy_per_transaction: 120e-12,
            mc_energy_per_transaction: 1e-9,
            mc_leakage: 25e-3,
            dram_energy_per_transaction: 8e-9,
            dram_background_power: 0.10,
        }
    }
}

/// Energy of one system component over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentEnergy {
    /// Component name ("big cores", "LITTLE.L2", "DRAM", ...).
    pub name: String,
    /// Switching energy, joules.
    pub dynamic: f64,
    /// Leakage energy over the run, joules.
    pub leakage: f64,
}

impl ComponentEnergy {
    /// Dynamic + leakage.
    pub fn total(&self) -> f64 {
        self.dynamic + self.leakage
    }
}

/// The full power/energy report (one bar of the paper's Fig. 11).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Scenario / kernel label.
    pub label: String,
    /// Run time the energies were integrated over, seconds.
    pub runtime_seconds: f64,
    /// Component-level breakdown.
    pub components: Vec<ComponentEnergy>,
}

impl PowerReport {
    /// Total system energy, joules.
    pub fn total_energy(&self) -> f64 {
        self.components.iter().map(ComponentEnergy::total).sum()
    }

    /// Energy-delay product, J·s (the paper's Fig. 12 merit).
    pub fn edp(&self) -> f64 {
        self.total_energy() * self.runtime_seconds
    }

    /// Finds a component by name.
    pub fn component(&self, name: &str) -> Option<&ComponentEnergy> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Renders an ASCII breakdown table.
    pub fn to_table(&self) -> String {
        use mss_units::fmt::Eng;
        let mut out = format!(
            "== {} (runtime {}) ==\n{:<16} | {:>12} | {:>12} | {:>12}\n",
            self.label,
            Eng(self.runtime_seconds, "s"),
            "component",
            "dynamic",
            "leakage",
            "total"
        );
        for c in &self.components {
            out.push_str(&format!(
                "{:<16} | {:>12} | {:>12} | {:>12}\n",
                c.name,
                Eng(c.dynamic, "J").to_string(),
                Eng(c.leakage, "J").to_string(),
                Eng(c.total(), "J").to_string()
            ));
        }
        out.push_str(&format!(
            "{:<16} | {:>12} | {:>12} | {:>12}\n",
            "TOTAL",
            "",
            "",
            Eng(self.total_energy(), "J").to_string()
        ));
        out
    }
}

/// Evaluates the power model against a system-activity report.
pub fn evaluate(config: &McpatConfig, report: &SimReport) -> PowerReport {
    let t = report.runtime_seconds;
    let mut components = Vec::new();

    // Cores, grouped by kind.
    for kind in [CoreKind::Big, CoreKind::Little] {
        let params = match kind {
            CoreKind::Big => config.big,
            CoreKind::Little => config.little,
        };
        let cores: Vec<_> = report.cores.iter().filter(|c| c.kind == kind).collect();
        if cores.is_empty() {
            continue;
        }
        let dynamic: f64 = cores
            .iter()
            .map(|c| c.instructions as f64 * params.energy_per_instruction)
            .sum();
        let leakage = params.leakage * t * cores.len() as f64;
        components.push(ComponentEnergy {
            name: format!("{kind} cores"),
            dynamic,
            leakage,
        });
    }

    // Caches: per-access event energies + fills (one array write per miss).
    let mut bus_transactions = 0u64;
    for cache in &report.caches {
        let s = &cache.stats;
        let cfg = &cache.config;
        let dynamic = s.reads as f64 * cfg.read_energy
            + s.writes as f64 * cfg.write_energy
            + s.misses() as f64 * cfg.write_energy // line fill
            + s.writebacks as f64 * cfg.read_energy; // victim readout
        components.push(ComponentEnergy {
            name: cache.name.clone(),
            dynamic,
            leakage: cfg.leakage_power * t,
        });
        bus_transactions += s.misses() + s.writebacks;
    }

    // Interconnect.
    components.push(ComponentEnergy {
        name: "bus".into(),
        dynamic: bus_transactions as f64 * config.bus_energy_per_transaction,
        leakage: 0.01 * t, // 10 mW of clocked fabric
    });

    // Memory controller + DRAM.
    let dram_txn = report.dram_reads + report.dram_writes;
    components.push(ComponentEnergy {
        name: "memctrl".into(),
        dynamic: dram_txn as f64 * config.mc_energy_per_transaction,
        leakage: config.mc_leakage * t,
    });
    components.push(ComponentEnergy {
        name: "DRAM".into(),
        dynamic: dram_txn as f64 * config.dram_energy_per_transaction,
        leakage: config.dram_background_power * t,
    });

    PowerReport {
        label: report.kernel.clone(),
        runtime_seconds: t,
        components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_gemsim::system::{System, SystemConfig};
    use mss_gemsim::workload::Kernel;

    fn sim_report() -> SimReport {
        let mut cfg = SystemConfig::big_little_default();
        cfg.sample_accesses_per_thread = 5000;
        System::new(cfg)
            .unwrap()
            .run(&Kernel::bodytrack(), 1)
            .unwrap()
    }

    #[test]
    fn breakdown_has_all_components() {
        let report = evaluate(&McpatConfig::default(), &sim_report());
        for name in [
            "big cores",
            "LITTLE cores",
            "big.L2",
            "LITTLE.L2",
            "bus",
            "memctrl",
            "DRAM",
        ] {
            assert!(
                report.component(name).is_some(),
                "missing component {name}: {:?}",
                report
                    .components
                    .iter()
                    .map(|c| &c.name)
                    .collect::<Vec<_>>()
            );
        }
        assert!(report.total_energy() > 0.0);
        assert!(report.edp() > 0.0);
    }

    #[test]
    fn sram_l2_leakage_is_visible() {
        let report = evaluate(&McpatConfig::default(), &sim_report());
        let l2 = report.component("big.L2").unwrap();
        // SRAM L2 leakage is a significant share of its energy.
        assert!(l2.leakage > 0.2 * l2.total());
    }

    #[test]
    fn energy_scales_with_runtime_for_leakage() {
        let mut r = sim_report();
        let e1 = evaluate(&McpatConfig::default(), &r).total_energy();
        r.runtime_seconds *= 2.0;
        let e2 = evaluate(&McpatConfig::default(), &r).total_energy();
        assert!(e2 > e1);
    }

    #[test]
    fn big_cores_burn_more_than_little() {
        let report = evaluate(&McpatConfig::default(), &sim_report());
        let big = report.component("big cores").unwrap().total();
        let little = report.component("LITTLE cores").unwrap().total();
        assert!(big > little);
    }

    #[test]
    fn table_renders() {
        let report = evaluate(&McpatConfig::default(), &sim_report());
        let t = report.to_table();
        assert!(t.contains("TOTAL"));
        assert!(t.contains("DRAM"));
    }

    #[test]
    fn component_total_sums() {
        let c = ComponentEnergy {
            name: "x".into(),
            dynamic: 1.0,
            leakage: 2.0,
        };
        assert_eq!(c.total(), 3.0);
    }
}
