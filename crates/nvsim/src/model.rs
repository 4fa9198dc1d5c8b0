//! The array estimator: organisation + cell model → latency/energy/area.
//!
//! Modelling approach (the NVSim recipe):
//!
//! - **decoders** — logical-effort gate chains, `log₂(rows)` stages at
//!   1.5 FO4 each plus a 2 FO4 word-line driver;
//! - **word/bit lines** — distributed Elmore RC (`0.69·R·C/2`) with wire
//!   parasitics from the technology card plus per-cell gate/junction loads;
//! - **global routing** — repeated wires at `√(2·r·c·FO4)` seconds per
//!   metre, H-tree length `√N_sub·subarray_edge`;
//! - **cells** — the characterised STT- or SOT-MRAM [`CellLibrary`] or the
//!   derived [`crate::sram::SramCell`];
//! - **area** — cell matrix plus fixed-pitch decoder/sense strips per
//!   subarray (25 F and 35 F respectively).

use mss_pdk::charlib::{CellLibrary, SotCellLibrary};
use mss_pdk::tech::TechParams;

use crate::config::{MemoryConfig, MemoryKind};
use crate::sram::SramCell;
use crate::NvsimError;

/// Which cell technology populates the array.
#[derive(Debug, Clone, PartialEq)]
pub enum MemoryTechnology {
    /// 6T SRAM derived from the CMOS card.
    Sram,
    /// STT-MRAM with a characterised 1T-1MTJ cell library.
    SttMram(CellLibrary),
    /// SOT-MRAM with a characterised three-terminal cell library: the
    /// write current runs through the heavy-metal channel on a separate
    /// write path, so the read- and write-path peripheries are sized
    /// independently.
    SotMram(SotCellLibrary),
}

impl MemoryTechnology {
    /// Short display name.
    #[cfg(test)]
    pub(crate) fn name(&self) -> &'static str {
        match self {
            MemoryTechnology::Sram => "SRAM",
            MemoryTechnology::SttMram(_) => "STT-MRAM",
            MemoryTechnology::SotMram(_) => "SOT-MRAM",
        }
    }
}

/// Latency contributions of one access path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyBreakdown {
    /// Row-decoder chain.
    pub(crate) decoder: f64,
    /// Word-line RC + driver.
    pub(crate) wordline: f64,
    /// Bit-line RC.
    pub bitline: f64,
    /// Cell access (switching for writes, signal development for reads).
    pub cell: f64,
    /// Sense amplifier / write-driver stage.
    pub(crate) sense: f64,
    /// Global routing (H-tree) and output mux.
    pub(crate) routing: f64,
}

impl LatencyBreakdown {
    /// Sum of all contributions.
    pub(crate) fn total(&self) -> f64 {
        self.decoder + self.wordline + self.bitline + self.cell + self.sense + self.routing
    }
}

/// Estimated array metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayMetrics {
    /// Read access latency, seconds.
    pub read_latency: f64,
    /// Write access latency, seconds.
    pub write_latency: f64,
    /// Energy per read access (one word), joules.
    pub read_energy: f64,
    /// Energy per write access (one word), joules.
    pub write_energy: f64,
    /// Static leakage power of the whole macro, watts.
    pub leakage_power: f64,
    /// Total silicon area, m².
    pub area: f64,
    /// Read-path latency decomposition.
    pub read_breakdown: LatencyBreakdown,
    /// Write-path latency decomposition.
    pub write_breakdown: LatencyBreakdown,
}

impl mss_pipe::StableHash for MemoryTechnology {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        match self {
            MemoryTechnology::Sram => h.write_u8(0),
            MemoryTechnology::SttMram(lib) => {
                h.write_u8(1);
                lib.stable_hash(h);
            }
            MemoryTechnology::SotMram(lib) => {
                h.write_u8(2);
                lib.stable_hash(h);
            }
        }
    }
}

impl mss_pipe::StableHash for LatencyBreakdown {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_f64(self.decoder);
        h.write_f64(self.wordline);
        h.write_f64(self.bitline);
        h.write_f64(self.cell);
        h.write_f64(self.sense);
        h.write_f64(self.routing);
    }
}

impl mss_pipe::StableHash for ArrayMetrics {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_f64(self.read_latency);
        h.write_f64(self.write_latency);
        h.write_f64(self.read_energy);
        h.write_f64(self.write_energy);
        h.write_f64(self.leakage_power);
        h.write_f64(self.area);
        self.read_breakdown.stable_hash(h);
        self.write_breakdown.stable_hash(h);
    }
}

impl mss_pipe::Artifact for ArrayMetrics {
    const KIND: &'static str = "array-metrics";
    const VERSION: u32 = 1;

    fn encode(&self) -> String {
        use mss_pipe::hash::hex_of_f64;
        use mss_pipe::json::Line;
        let breakdown = |line: Line, p: &str, b: &LatencyBreakdown| {
            [
                ("decoder", b.decoder),
                ("wordline", b.wordline),
                ("bitline", b.bitline),
                ("cell", b.cell),
                ("sense", b.sense),
                ("routing", b.routing),
            ]
            .into_iter()
            .fold(line, |line, (k, v)| {
                line.str(&format!("{p}_{k}"), &hex_of_f64(v))
            })
        };
        let line = Line::new()
            .str("read_latency", &hex_of_f64(self.read_latency))
            .str("write_latency", &hex_of_f64(self.write_latency))
            .str("read_energy", &hex_of_f64(self.read_energy))
            .str("write_energy", &hex_of_f64(self.write_energy))
            .str("leakage_power", &hex_of_f64(self.leakage_power))
            .str("area", &hex_of_f64(self.area));
        let line = breakdown(line, "rb", &self.read_breakdown);
        breakdown(line, "wb", &self.write_breakdown).finish()
    }

    fn decode(payload: &str) -> Option<Self> {
        let v = mss_pipe::json::Value::parse(payload).ok()?;
        let f = |key: &str| mss_pipe::hash::f64_field(&v, key);
        let breakdown = |p: &str| -> Option<LatencyBreakdown> {
            Some(LatencyBreakdown {
                decoder: f(&format!("{p}_decoder"))?,
                wordline: f(&format!("{p}_wordline"))?,
                bitline: f(&format!("{p}_bitline"))?,
                cell: f(&format!("{p}_cell"))?,
                sense: f(&format!("{p}_sense"))?,
                routing: f(&format!("{p}_routing"))?,
            })
        };
        Some(Self {
            read_latency: f("read_latency")?,
            write_latency: f("write_latency")?,
            read_energy: f("read_energy")?,
            write_energy: f("write_energy")?,
            leakage_power: f("leakage_power")?,
            area: f("area")?,
            read_breakdown: breakdown("rb")?,
            write_breakdown: breakdown("wb")?,
        })
    }
}

/// Geometry of one subarray under a given cell technology.
struct SubarrayGeometry {
    wl_len: f64,
    bl_len: f64,
}

fn geometry(cfg: &MemoryConfig, cell_area: f64) -> SubarrayGeometry {
    let pitch = cell_area.sqrt();
    SubarrayGeometry {
        wl_len: cfg.subarray_cols as f64 * pitch,
        bl_len: cfg.subarray_rows as f64 * pitch,
    }
}

/// Repeated-wire delay constant, seconds per metre.
fn wire_delay_per_len(tech: &TechParams) -> f64 {
    (2.0 * tech.wire_res_per_len * tech.wire_cap_per_len * tech.fo4_delay).sqrt()
}

/// Estimates the metrics of a memory macro.
///
/// # Errors
///
/// [`NvsimError::InvalidCellModel`] when a library value is unusable.
/// Cache configurations recursively estimate their tag array and fold it in.
pub fn estimate(
    tech: &TechParams,
    cfg: &MemoryConfig,
    technology: &MemoryTechnology,
) -> Result<ArrayMetrics, NvsimError> {
    let mut data = estimate_flat(tech, cfg, technology)?;
    if let MemoryKind::Cache { associativity, .. } = cfg.kind {
        // Tag array: SRAM in all scenarios (the paper replaces only the data
        // arrays), organised as sets x (assoc * tag bits).
        let sets = cfg.cache_sets().expect("cache has sets");
        // Pad the tag word to a byte multiple so the capacity stays
        // expressible in bytes and divisible by the word.
        let tag_word = (cfg.tag_bits() * associativity).div_ceil(8) * 8;
        let tag_bits_total = sets * tag_word as u64;
        // Shrink the subarray until it fits inside the (possibly tiny) tag
        // array of an L1-class cache.
        let mut rows = (sets.min(512) as u32).next_power_of_two();
        let mut cols = (tag_word).next_power_of_two().clamp(64, 512);
        while (rows as u64) * (cols as u64) > tag_bits_total && rows > 8 {
            rows /= 2;
        }
        while (rows as u64) * (cols as u64) > tag_bits_total && cols > 8 {
            cols /= 2;
        }
        let tag_cfg =
            MemoryConfig::new(tag_bits_total / 8, tag_word, 1, rows, cols, MemoryKind::Ram)
                .map_err(|e| NvsimError::InvalidOrganization {
                    reason: format!("tag array organisation failed: {e}"),
                })?;
        let tag = estimate_flat(tech, &tag_cfg, &MemoryTechnology::Sram)?;
        let compare = 2.0 * tech.fo4_delay;
        // Parallel tag+data lookup; way-select after the slower of the two.
        data.read_latency = data.read_latency.max(tag.read_latency) + compare;
        data.write_latency = data.write_latency.max(tag.read_latency) + compare;
        data.read_energy += tag.read_energy;
        data.write_energy += tag.read_energy + tag.write_energy / associativity as f64;
        data.leakage_power += tag.leakage_power;
        data.area += tag.area;
        data.read_breakdown.routing += compare;
        data.write_breakdown.routing += compare;
    }
    Ok(data)
}

/// [`estimate`] through the stage pipeline: the result is memoized in
/// `cache` under [`Stage::EstimateArray`](mss_pipe::Stage) keyed by the
/// structural hash of the full `(tech, cfg, technology)` input, so design
/// sweeps and multi-scenario flows estimate each distinct organisation once.
///
/// # Errors
///
/// See [`estimate`]; cache problems are never errors.
pub fn estimate_cached(
    tech: &TechParams,
    cfg: &MemoryConfig,
    technology: &MemoryTechnology,
    cache: &mss_pipe::PipeCache,
) -> Result<std::sync::Arc<ArrayMetrics>, NvsimError> {
    let key = mss_pipe::digest_of(&(tech, cfg, technology));
    cache.get_or_compute_artifact(mss_pipe::Stage::EstimateArray, &key, || {
        estimate(tech, cfg, technology)
    })
}

fn estimate_flat(
    tech: &TechParams,
    cfg: &MemoryConfig,
    technology: &MemoryTechnology,
) -> Result<ArrayMetrics, NvsimError> {
    match technology {
        MemoryTechnology::Sram => {
            let cell = SramCell::from_tech(tech);
            estimate_with_cell(
                tech,
                cfg,
                CellNumbers {
                    area: cell.area,
                    read_cell_latency: cell.access_time,
                    write_cell_latency: cell.write_time,
                    read_cell_energy: cell.access_energy,
                    write_cell_energy: cell.access_energy,
                    sense_latency: 2.0 * tech.fo4_delay,
                    cell_leakage: cell.leakage,
                    read_access_gate_width: 1.5 * tech.min_width,
                    write_access_gate_width: 1.5 * tech.min_width,
                },
            )
        }
        // Both MRAM cells share one estimate. The three-terminal SOT cell
        // selects only a small sense gate on its read word line; its wide
        // channel driver loads the separate write word line.
        MemoryTechnology::SttMram(lib) => estimate_mram(tech, cfg, lib, lib.access_width),
        MemoryTechnology::SotMram(sot) => estimate_mram(tech, cfg, &sot.base, 4.0 * tech.feature),
    }
}

/// The array estimate of a characterised MRAM cell whose read word line
/// drives an access gate `read_access_gate_width` wide.
fn estimate_mram(
    tech: &TechParams,
    cfg: &MemoryConfig,
    lib: &CellLibrary,
    read_access_gate_width: f64,
) -> Result<ArrayMetrics, NvsimError> {
    for (parameter, value) in [
        ("write_latency", lib.write.latency),
        ("read_latency", lib.read.latency),
        ("cell_area", lib.cell_area),
    ] {
        if !(value.is_finite() && value > 0.0) {
            return Err(NvsimError::InvalidCellModel { parameter, value });
        }
    }
    estimate_with_cell(
        tech,
        cfg,
        CellNumbers {
            area: lib.cell_area,
            read_cell_latency: lib.read.latency,
            write_cell_latency: lib.write.latency,
            read_cell_energy: lib.read.energy,
            write_cell_energy: lib.write.energy,
            sense_latency: 2.0 * tech.fo4_delay,
            cell_leakage: lib.leakage,
            read_access_gate_width,
            write_access_gate_width: lib.access_width,
        },
    )
}

/// Technology-neutral cell numbers consumed by the shared estimator.
///
/// Read- and write-path access widths are carried separately: two-terminal
/// cells (SRAM, STT) drive the same access device on both paths, while the
/// three-terminal SOT cell selects a small read gate on the read word line
/// and the wide channel driver on a dedicated write word line.
struct CellNumbers {
    area: f64,
    read_cell_latency: f64,
    write_cell_latency: f64,
    read_cell_energy: f64,
    write_cell_energy: f64,
    sense_latency: f64,
    cell_leakage: f64,
    read_access_gate_width: f64,
    write_access_gate_width: f64,
}

fn estimate_with_cell(
    tech: &TechParams,
    cfg: &MemoryConfig,
    cell: CellNumbers,
) -> Result<ArrayMetrics, NvsimError> {
    let geo = geometry(cfg, cell.area);
    let rows = cfg.subarray_rows as f64;
    let cols = cfg.subarray_cols as f64;
    let n_sub = cfg.subarrays_per_bank() as f64 * cfg.banks as f64;
    let f = tech.feature;
    let vdd = tech.vdd;

    // --- Decoder ---
    let stages = (rows.log2()).max(1.0);
    let decoder_delay = stages * 1.5 * tech.fo4_delay + 2.0 * tech.fo4_delay;
    let decoder_energy = stages * 4.0 * tech.inv_energy;

    // --- Word lines, split per path ---
    // Two-terminal cells load both paths with the same access gate; the
    // three-terminal SOT cell has a light read word line and a heavily
    // loaded write word line.
    let r_wl = tech.wire_res_per_len * geo.wl_len;
    let c_wl_read =
        tech.wire_cap_per_len * geo.wl_len + cols * tech.gate_cap(cell.read_access_gate_width);
    let c_wl_write =
        tech.wire_cap_per_len * geo.wl_len + cols * tech.gate_cap(cell.write_access_gate_width);
    let wl_read_delay = 0.69 * 0.5 * r_wl * c_wl_read;
    let wl_write_delay = 0.69 * 0.5 * r_wl * c_wl_write;
    let wl_read_energy = c_wl_read * vdd * vdd;
    let wl_write_energy = c_wl_write * vdd * vdd;

    // --- Bit lines, split per path ---
    let r_bl = tech.wire_res_per_len * geo.bl_len;
    let c_bl_read = tech.wire_cap_per_len * geo.bl_len
        + rows * tech.junction_cap(cell.read_access_gate_width) * 0.5;
    let c_bl_write = tech.wire_cap_per_len * geo.bl_len
        + rows * tech.junction_cap(cell.write_access_gate_width) * 0.5;
    let bl_read_delay = 0.69 * 0.5 * r_bl * c_bl_read;
    let bl_write_delay = 0.69 * 0.5 * r_bl * c_bl_write;
    // Reads swing the bit line by ~0.2 V; writes swing it rail to rail.
    let bl_read_energy = c_bl_read * vdd * 0.2;
    let bl_write_energy = c_bl_write * vdd * vdd;

    // --- Global routing ---
    let edge = geo.wl_len.max(geo.bl_len);
    let global_len = n_sub.sqrt() * edge;
    let routing_delay = wire_delay_per_len(tech) * global_len;
    let routing_energy_per_bit = tech.wire_cap_per_len * global_len * vdd * vdd * 0.5;

    // --- Word mapping ---
    // A word may span several subarrays; each active subarray fires its
    // decoder, word line and the word's share of bit lines.
    let bits_per_sub = cols.min(cfg.word_bits as f64);
    let active_subs = (cfg.word_bits as f64 / bits_per_sub).ceil();

    let read_breakdown = LatencyBreakdown {
        decoder: decoder_delay,
        wordline: wl_read_delay,
        bitline: bl_read_delay,
        cell: cell.read_cell_latency,
        sense: cell.sense_latency,
        routing: routing_delay,
    };
    let write_breakdown = LatencyBreakdown {
        decoder: decoder_delay,
        wordline: wl_write_delay,
        bitline: bl_write_delay,
        cell: cell.write_cell_latency,
        sense: 2.0 * tech.fo4_delay, // write driver
        routing: routing_delay,
    };

    let word = cfg.word_bits as f64;
    let read_energy = active_subs * (decoder_energy + wl_read_energy)
        + word * (cell.read_cell_energy + bl_read_energy)
        + word * routing_energy_per_bit;
    let write_energy = active_subs * (decoder_energy + wl_write_energy)
        + word * (cell.write_cell_energy + bl_write_energy)
        + word * routing_energy_per_bit;

    // --- Leakage ---
    let total_cells = cfg.total_bits() as f64;
    let cell_leak_power = total_cells * cell.cell_leakage * vdd;
    // Peripheral strips leak per subarray (decoder + sense rows).
    let periph_leak_per_sub = (rows + cols) * tech.leakage(2.0 * tech.min_width) * 1e-3;
    let leakage_power = cell_leak_power + n_sub * periph_leak_per_sub * vdd;

    // --- Area ---
    let dec_strip = 25.0 * f;
    let sense_strip = 35.0 * f;
    let sub_area = (geo.wl_len + dec_strip) * (geo.bl_len + sense_strip);
    let area = n_sub * sub_area;

    Ok(ArrayMetrics {
        read_latency: read_breakdown.total(),
        write_latency: write_breakdown.total(),
        read_energy,
        write_energy,
        leakage_power,
        area,
        read_breakdown,
        write_breakdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_mtj::MssStack;
    use mss_pdk::charlib::characterize_with;
    use mss_pdk::tech::TechNode;

    fn stt_lib() -> CellLibrary {
        characterize_with(
            &TechParams::node(TechNode::N45),
            &MssStack::builder().build().unwrap(),
        )
        .unwrap()
    }

    fn tech() -> TechParams {
        TechParams::node(TechNode::N45)
    }

    #[test]
    fn artifact_encoding_is_pinned() {
        use mss_pipe::Artifact;
        let breakdown = |s: f64| LatencyBreakdown {
            decoder: 1e-10 * s,
            wordline: 2e-10 * s,
            bitline: 3e-10 * s,
            cell: 4e-10 * s,
            sense: 5e-10 * s,
            routing: 6e-10 * s,
        };
        let m = ArrayMetrics {
            read_latency: 1.25e-9,
            write_latency: 5e-9,
            read_energy: 2e-12,
            write_energy: 8e-12,
            leakage_power: 1e-3,
            area: 1e-8,
            read_breakdown: breakdown(1.0),
            write_breakdown: breakdown(-2.0),
        };
        assert_eq!(
            m.encode(),
            "{\"read_latency\":\"3e15798ee2308c3a\",\"write_latency\":\"3e35798ee2308c3a\",\"read_energy\":\"3d819799812dea11\",\"write_energy\":\"3da19799812dea11\",\"leakage_power\":\"3f50624dd2f1a9fc\",\"area\":\"3e45798ee2308c3a\",\"rb_decoder\":\"3ddb7cdfd9d7bdbb\",\"rb_wordline\":\"3deb7cdfd9d7bdbb\",\"rb_bitline\":\"3df49da7e361ce4c\",\"rb_cell\":\"3dfb7cdfd9d7bdbb\",\"rb_sense\":\"3e012e0be826d695\",\"rb_routing\":\"3e049da7e361ce4c\",\"wb_decoder\":\"bdeb7cdfd9d7bdbb\",\"wb_wordline\":\"bdfb7cdfd9d7bdbb\",\"wb_bitline\":\"be049da7e361ce4c\",\"wb_cell\":\"be0b7cdfd9d7bdbb\",\"wb_sense\":\"be112e0be826d695\",\"wb_routing\":\"be149da7e361ce4c\"}"
        );
    }

    #[test]
    fn sram_reads_and_writes_fast() {
        let cfg = MemoryConfig::ram(1 << 20, 64).unwrap();
        let m = estimate(&tech(), &cfg, &MemoryTechnology::Sram).unwrap();
        assert!(
            m.read_latency > 0.0 && m.read_latency < 3e-9,
            "{}",
            m.read_latency
        );
        assert!(m.write_latency < 3e-9);
        assert!(m.leakage_power > 0.0);
    }

    #[test]
    fn stt_write_much_slower_than_read() {
        let cfg = MemoryConfig::ram(1 << 20, 64).unwrap();
        let m = estimate(&tech(), &cfg, &MemoryTechnology::SttMram(stt_lib())).unwrap();
        assert!(m.write_latency > 2.0 * m.read_latency);
        assert!(m.write_energy > m.read_energy);
    }

    #[test]
    fn stt_denser_and_less_leaky_than_sram() {
        let cfg = MemoryConfig::ram(1 << 20, 64).unwrap();
        let sram = estimate(&tech(), &cfg, &MemoryTechnology::Sram).unwrap();
        let stt = estimate(&tech(), &cfg, &MemoryTechnology::SttMram(stt_lib())).unwrap();
        assert!(
            stt.area < sram.area,
            "stt {} vs sram {}",
            stt.area,
            sram.area
        );
        assert!(
            stt.leakage_power < 0.3 * sram.leakage_power,
            "stt {} vs sram {}",
            stt.leakage_power,
            sram.leakage_power
        );
    }

    #[test]
    fn bigger_arrays_cost_more() {
        let lib = stt_lib();
        let small = MemoryConfig::ram(256 << 10, 64).unwrap();
        let large = MemoryConfig::ram(4 << 20, 64).unwrap();
        let ms = estimate(&tech(), &small, &MemoryTechnology::SttMram(lib.clone())).unwrap();
        let ml = estimate(&tech(), &large, &MemoryTechnology::SttMram(lib)).unwrap();
        assert!(ml.area > ms.area);
        assert!(ml.leakage_power > ms.leakage_power);
        assert!(ml.read_latency > ms.read_latency); // longer global routing
    }

    #[test]
    fn wider_word_costs_more_energy() {
        let lib = stt_lib();
        let narrow = MemoryConfig::ram(1 << 20, 64).unwrap();
        let wide =
            MemoryConfig::new(1 << 20, 512, 1, 512, 512, crate::config::MemoryKind::Ram).unwrap();
        let mn = estimate(&tech(), &narrow, &MemoryTechnology::SttMram(lib.clone())).unwrap();
        let mw = estimate(&tech(), &wide, &MemoryTechnology::SttMram(lib)).unwrap();
        assert!(mw.write_energy > 4.0 * mn.write_energy);
        assert!(mw.read_energy > 4.0 * mn.read_energy);
    }

    #[test]
    fn cache_adds_tag_overhead() {
        let lib = stt_lib();
        let ram =
            MemoryConfig::new(512 << 10, 512, 1, 512, 512, crate::config::MemoryKind::Ram).unwrap();
        let cache = MemoryConfig::cache(512 << 10, 8, 64).unwrap();
        let mr = estimate(&tech(), &ram, &MemoryTechnology::SttMram(lib.clone())).unwrap();
        let mc = estimate(&tech(), &cache, &MemoryTechnology::SttMram(lib)).unwrap();
        assert!(mc.read_energy > mr.read_energy);
        assert!(mc.area > mr.area);
        assert!(mc.read_latency >= mr.read_latency);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let cfg = MemoryConfig::ram(1 << 20, 64).unwrap();
        let m = estimate(&tech(), &cfg, &MemoryTechnology::SttMram(stt_lib())).unwrap();
        assert!((m.read_breakdown.total() - m.read_latency).abs() < 1e-15);
        // Cache compare time is folded into the breakdown too.
        let ccfg = MemoryConfig::cache(1 << 20, 8, 64).unwrap();
        let mc = estimate(&tech(), &ccfg, &MemoryTechnology::SttMram(stt_lib())).unwrap();
        assert!(mc.read_latency >= mc.read_breakdown.decoder);
    }

    #[test]
    fn write_cell_dominates_stt_write_path() {
        let cfg = MemoryConfig::ram(1 << 20, 64).unwrap();
        let m = estimate(&tech(), &cfg, &MemoryTechnology::SttMram(stt_lib())).unwrap();
        assert!(m.write_breakdown.cell > 0.5 * m.write_latency);
    }

    fn sot_lib() -> SotCellLibrary {
        mss_pdk::charlib::characterize_sot_with(
            &tech(),
            &MssStack::builder().build().unwrap(),
            &mss_mtj::SotParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn technology_name() {
        assert_eq!(MemoryTechnology::Sram.name(), "SRAM");
        assert_eq!(MemoryTechnology::SttMram(stt_lib()).name(), "STT-MRAM");
        assert_eq!(MemoryTechnology::SotMram(sot_lib()).name(), "SOT-MRAM");
    }

    #[test]
    fn sot_array_writes_faster_than_stt() {
        let cfg = MemoryConfig::ram(1 << 20, 64).unwrap();
        let stt = estimate(&tech(), &cfg, &MemoryTechnology::SttMram(stt_lib())).unwrap();
        let sot = estimate(&tech(), &cfg, &MemoryTechnology::SotMram(sot_lib())).unwrap();
        assert!(
            sot.write_latency < stt.write_latency,
            "sot {} vs stt {}",
            sot.write_latency,
            stt.write_latency
        );
        assert!(sot.write_energy < stt.write_energy);
        // The three-terminal cell pays area for the second terminal.
        assert!(sot.area > stt.area);
    }

    #[test]
    fn sot_read_wordline_lighter_than_write_wordline() {
        let cfg = MemoryConfig::ram(1 << 20, 64).unwrap();
        let sot = estimate(&tech(), &cfg, &MemoryTechnology::SotMram(sot_lib())).unwrap();
        // The split periphery shows up as distinct per-path word-line RC.
        assert!(sot.read_breakdown.wordline < sot.write_breakdown.wordline);
        // Two-terminal STT keeps symmetric word lines.
        let stt = estimate(&tech(), &cfg, &MemoryTechnology::SttMram(stt_lib())).unwrap();
        assert_eq!(
            stt.read_breakdown.wordline.to_bits(),
            stt.write_breakdown.wordline.to_bits()
        );
    }

    #[test]
    fn sot_hash_is_disjoint_from_stt() {
        let stt = MemoryTechnology::SttMram(stt_lib());
        let sot = MemoryTechnology::SotMram(sot_lib());
        assert_ne!(mss_pipe::digest_of(&stt), mss_pipe::digest_of(&sot));
    }
}
