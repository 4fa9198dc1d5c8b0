//! Cell characterisation: template → transient → MDL → cell configuration.
//!
//! This is the paper's Sec. IV-A loop: *"the SPICE simulation generates
//! output measurement file that is then parsed to extract the required cell
//! level parameters such as switching current, delay and energy values.
//! These values are updated into the cell configuration file of the VAET-STT
//! tool."* [`characterize_with`] produces a [`CellLibrary`], and its
//! [`Artifact`](mss_pipe::Artifact) encoding is the cell configuration
//! file: [`characterize_cached`] writes it to the pipe cache's disk tier
//! and later runs read it back from there. The three-terminal SOT cell
//! ([`characterize_sot_with`]) runs through the same body, keyed on
//! [`MechanismConfig`], and its [`SotCellLibrary`] file adds the channel
//! parameters on a second line.

use mss_mtj::mechanism::MechanismKind;
use mss_mtj::resistance::MtjState;
use mss_mtj::{MechanismConfig, MssStack, SotMechanism, SotParams};
use mss_spice::analysis::{dc_operating_point, Transient, TransientOptions, TransientResult};
use mss_spice::mdl::{Edge, Measurement, Probe};
use mss_spice::netlist::Netlist;
use mss_spice::waveform::Waveform;

use crate::cells::{
    bitcell_write_deck, nvff_backup_deck, nvff_restore_deck, pcsa_read_deck,
    sot_bitcell_write_deck, sot_pcsa_read_deck, WriteDirection,
};
use crate::tech::{TechNode, TechParams};
use crate::variation::{ProcessCorner, VariationCard};
use crate::PdkError;

/// Latency/energy/current triple for one memory operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMetrics {
    /// Operation latency in seconds.
    pub latency: f64,
    /// Energy per operation in joules (cell-level, excluding array wires).
    pub energy: f64,
    /// Cell current during the operation in amperes.
    pub current: f64,
}

/// The characterised cell configuration consumed by VAET-STT.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    /// Technology node the library was characterised at.
    pub node: TechNode,
    /// Worst-case write metrics across both polarities.
    pub write: OpMetrics,
    /// Worst-case read (sense) metrics across both stored states.
    pub read: OpMetrics,
    /// Access-transistor width chosen by the sizing loop, metres.
    pub access_width: f64,
    /// Bit-cell area in m².
    pub cell_area: f64,
    /// Cell leakage in amperes (access device off-state).
    pub leakage: f64,
    /// Critical current of the junction, amperes.
    pub critical_current: f64,
    /// Thermal stability factor Δ of the junction.
    pub(crate) delta: f64,
    /// Parallel-state resistance, ohms.
    pub r_parallel: f64,
    /// Antiparallel-state resistance, ohms.
    pub r_antiparallel: f64,
}

/// The characterised cell configuration for the three-terminal SOT cell.
///
/// Wraps the same [`CellLibrary`] shape the downstream array/variation
/// models consume (so every consumer of `CellLibrary` works unchanged) and
/// carries the SOT-specific extras alongside. Kept as a separate type so
/// the `CellLibrary` hash — and with it every existing STT cache key —
/// stays byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SotCellLibrary {
    /// The cell configuration in the common shape (write/read metrics,
    /// sizing, area, junction constants). `critical_current` holds the SHE
    /// channel critical current, `cell_area` the three-terminal footprint.
    pub base: CellLibrary,
    /// The SOT stack parameters the library was characterised with.
    pub params: SotParams,
    /// Heavy-metal channel resistance, ohms.
    pub channel_resistance: f64,
}

/// Characterised metrics of the non-volatile flip-flop (backup + restore).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvffMetrics {
    /// Two-phase backup time (both junctions written), seconds.
    pub backup_latency: f64,
    /// Energy of one backup, joules.
    pub backup_energy: f64,
    /// Restore (PCSA regeneration) delay, seconds.
    pub restore_latency: f64,
    /// Energy of one restore, joules.
    pub restore_energy: f64,
}

/// Target write overdrive I_write/I_c0 used by the access sizing loop.
const TARGET_OVERDRIVE: f64 = 2.5;
/// Write pulse used during characterisation, seconds.
const CHAR_WRITE_PULSE: f64 = 12e-9;
/// Sense window used during read characterisation, seconds.
const CHAR_SENSE_WINDOW: f64 = 3e-9;
/// Write pulse for SOT characterisation: the damping-limit-free channel
/// write completes in tens of ps, so a 1 ns pulse already carries margin.
const SOT_CHAR_WRITE_PULSE: f64 = 1e-9;
/// Target overdrive for the SOT channel write. The SHE critical current
/// carries no damping factor, so it is an order of magnitude above the STT
/// one — but the switching time collapses as `α·τ_D/(i−1)`, so 1.5×
/// already writes in ~150 ps with a vanishing WER over a 1 ns pulse.
/// Pushing to the STT-style 2.5× would only balloon the channel driver
/// (the source-degenerated access device grows quadratically) for no
/// reliability gain.
const SOT_TARGET_OVERDRIVE: f64 = 1.5;

impl mss_pipe::StableHash for OpMetrics {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_f64(self.latency);
        h.write_f64(self.energy);
        h.write_f64(self.current);
    }
}

impl mss_pipe::StableHash for CellLibrary {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        self.node.stable_hash(h);
        self.write.stable_hash(h);
        self.read.stable_hash(h);
        h.write_f64(self.access_width);
        h.write_f64(self.cell_area);
        h.write_f64(self.leakage);
        h.write_f64(self.critical_current);
        h.write_f64(self.delta);
        h.write_f64(self.r_parallel);
        h.write_f64(self.r_antiparallel);
    }
}

impl mss_pipe::Artifact for CellLibrary {
    const KIND: &'static str = "cell-library";
    const VERSION: u32 = 1;

    fn encode(&self) -> String {
        use mss_pipe::hash::hex_of_f64;
        mss_pipe::json::Line::new()
            .u64(
                "node",
                match self.node {
                    TechNode::N45 => 45,
                    TechNode::N65 => 65,
                },
            )
            .str("write_latency", &hex_of_f64(self.write.latency))
            .str("write_energy", &hex_of_f64(self.write.energy))
            .str("write_current", &hex_of_f64(self.write.current))
            .str("read_latency", &hex_of_f64(self.read.latency))
            .str("read_energy", &hex_of_f64(self.read.energy))
            .str("read_current", &hex_of_f64(self.read.current))
            .str("access_width", &hex_of_f64(self.access_width))
            .str("cell_area", &hex_of_f64(self.cell_area))
            .str("leakage", &hex_of_f64(self.leakage))
            .str("critical_current", &hex_of_f64(self.critical_current))
            .str("delta", &hex_of_f64(self.delta))
            .str("r_parallel", &hex_of_f64(self.r_parallel))
            .str("r_antiparallel", &hex_of_f64(self.r_antiparallel))
            .finish()
    }

    /// Entries carry no checksum, so a damaged digit can spell NaN or
    /// ±Inf: a non-finite field rejects the entry, which the cache counts
    /// as a load failure and recomputes.
    fn decode(payload: &str) -> Option<Self> {
        let v = mss_pipe::json::Value::parse(payload).ok()?;
        let f = |key: &str| finite_field(&v, key);
        let node = match v.get("node")?.as_u64()? {
            45 => TechNode::N45,
            65 => TechNode::N65,
            _ => return None,
        };
        Some(Self {
            node,
            write: OpMetrics {
                latency: f("write_latency")?,
                energy: f("write_energy")?,
                current: f("write_current")?,
            },
            read: OpMetrics {
                latency: f("read_latency")?,
                energy: f("read_energy")?,
                current: f("read_current")?,
            },
            access_width: f("access_width")?,
            cell_area: f("cell_area")?,
            leakage: f("leakage")?,
            critical_current: f("critical_current")?,
            delta: f("delta")?,
            r_parallel: f("r_parallel")?,
            r_antiparallel: f("r_antiparallel")?,
        })
    }
}

/// An exact-bits field of a cell-library entry, `None` unless finite.
fn finite_field(v: &mss_pipe::json::Value, key: &str) -> Option<f64> {
    mss_pipe::hash::f64_field(v, key).filter(|x| x.is_finite())
}

impl mss_pipe::StableHash for SotCellLibrary {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        self.base.stable_hash(h);
        self.params.stable_hash(h);
        h.write_f64(self.channel_resistance);
    }
}

impl mss_pipe::Artifact for SotCellLibrary {
    const KIND: &'static str = "sot-cell-library";
    const VERSION: u32 = 1;

    fn encode(&self) -> String {
        use mss_pipe::hash::hex_of_f64;
        let mut out = self.base.encode();
        if !out.ends_with('\n') {
            out.push('\n');
        }
        let p = &self.params;
        out.push_str(
            &mss_pipe::json::Line::new()
                .str("spin_hall_angle", &hex_of_f64(p.spin_hall_angle))
                .str("channel_thickness", &hex_of_f64(p.channel_thickness))
                .str("channel_resistivity", &hex_of_f64(p.channel_resistivity))
                .str(
                    "channel_length_factor",
                    &hex_of_f64(p.channel_length_factor),
                )
                .str("channel_width_factor", &hex_of_f64(p.channel_width_factor))
                .str("field_like_ratio", &hex_of_f64(p.field_like_ratio))
                .str("channel_resistance", &hex_of_f64(self.channel_resistance))
                .finish(),
        );
        out
    }

    fn decode(payload: &str) -> Option<Self> {
        let mut lines = payload.lines();
        let base = CellLibrary::decode(lines.next()?)?;
        let v = mss_pipe::json::Value::parse(lines.next()?).ok()?;
        let f = |key: &str| finite_field(&v, key);
        Some(Self {
            base,
            params: SotParams {
                spin_hall_angle: f("spin_hall_angle")?,
                channel_thickness: f("channel_thickness")?,
                channel_resistivity: f("channel_resistivity")?,
                channel_length_factor: f("channel_length_factor")?,
                channel_width_factor: f("channel_width_factor")?,
                field_like_ratio: f("field_like_ratio")?,
            },
            channel_resistance: f("channel_resistance")?,
        })
    }
}

/// [`characterize_with`] at a node's nominal CMOS card, through the stage
/// pipeline: the result is memoized in `cache` under
/// [`Stage::CharacterizeCells`](mss_pipe::Stage) keyed by the structural
/// hash of the full `(tech, stack)` input, so repeated node sweeps and
/// multi-scenario flows characterise each distinct input once.
///
/// # Errors
///
/// See [`characterize_with`]; cache problems are never errors.
pub fn characterize_cached(
    node: TechNode,
    stack: &MssStack,
    cache: &mss_pipe::PipeCache,
) -> Result<std::sync::Arc<CellLibrary>, PdkError> {
    let tech = TechParams::node(node);
    characterize_with_cached(&tech, stack, cache)
}

/// [`characterize_with`] through the stage pipeline (see
/// [`characterize_cached`]).
///
/// # Errors
///
/// See [`characterize_with`]; cache problems are never errors.
pub fn characterize_with_cached(
    tech: &TechParams,
    stack: &MssStack,
    cache: &mss_pipe::PipeCache,
) -> Result<std::sync::Arc<CellLibrary>, PdkError> {
    let key = mss_pipe::digest_of(&(tech, stack));
    cache.get_or_compute_artifact(mss_pipe::Stage::CharacterizeCells, &key, || {
        characterize_with(tech, stack)
    })
}

/// Runs the full characterisation flow for a stack on an explicit
/// (possibly variation-sampled) CMOS card; `TechParams::node` gives a
/// node's nominal card.
///
/// # Errors
///
/// - [`PdkError::Characterization`] when the access device cannot reach the
///   write overdrive or a junction never flips within the pulse,
/// - circuit/device errors from the underlying layers.
pub fn characterize_with(tech: &TechParams, stack: &MssStack) -> Result<CellLibrary, PdkError> {
    characterize_cell(tech, stack, &MechanismConfig::Stt)
}

/// The pipe-cache key for a SOT characterisation.
///
/// Deliberately a different shape from the STT key (`digest_of(&(tech,
/// stack))`): the mechanism discriminant plus the full [`SotParams`] are
/// folded in, so a SOT library can never collide with — or silently
/// shadow — an STT entry for the same `(tech, stack)` pair.
pub fn sot_cache_key(tech: &TechParams, stack: &MssStack, params: &SotParams) -> String {
    mss_pipe::digest_of(&(tech, stack, params, MechanismKind::Sot))
}

/// [`characterize_sot_with`] at a node's nominal CMOS card, through the
/// stage pipeline: memoized under
/// [`Stage::CharacterizeCells`](mss_pipe::Stage) with [`sot_cache_key`].
///
/// # Errors
///
/// See [`characterize_sot_with`]; cache problems are never errors.
pub fn characterize_sot_cached(
    node: TechNode,
    stack: &MssStack,
    params: &SotParams,
    cache: &mss_pipe::PipeCache,
) -> Result<std::sync::Arc<SotCellLibrary>, PdkError> {
    let tech = TechParams::node(node);
    let key = sot_cache_key(&tech, stack, params);
    cache.get_or_compute_artifact(mss_pipe::Stage::CharacterizeCells, &key, || {
        characterize_sot_with(&tech, stack, params)
    })
}

/// Runs the full three-terminal SOT characterisation flow on an explicit
/// (possibly variation-sampled) CMOS card.
///
/// # Errors
///
/// Same surface as [`characterize_with`], plus [`mss_mtj::MtjError`]-backed
/// failures for invalid SOT parameters.
pub fn characterize_sot_with(
    tech: &TechParams,
    stack: &MssStack,
    params: &SotParams,
) -> Result<SotCellLibrary, PdkError> {
    Ok(SotCellLibrary {
        base: characterize_cell(tech, stack, &MechanismConfig::Sot(params.clone()))?,
        params: params.clone(),
        channel_resistance: params.channel_resistance(stack.diameter()),
    })
}

/// The characterisation body both write mechanisms share: size the access
/// device to the mechanism's write overdrive, then measure the worst-case
/// write and read. The STT cell writes through the junction; the SOT cell
/// writes along its heavy-metal channel, so its critical current carries no
/// damping factor and its footprint has a third terminal.
fn characterize_cell(
    tech: &TechParams,
    stack: &MssStack,
    mechanism: &MechanismConfig,
) -> Result<CellLibrary, PdkError> {
    let (critical_current, overdrive) = match mechanism {
        MechanismConfig::Stt => (stack.critical_current(), TARGET_OVERDRIVE),
        MechanismConfig::Sot(params) => (
            SotMechanism::new(stack, params.clone())?
                .switching_model()
                .critical_current(),
            SOT_TARGET_OVERDRIVE,
        ),
    };
    let access_width = size_access_width(tech, stack, mechanism, overdrive * critical_current)?;
    let write = characterize_write(tech, stack, mechanism, access_width)?;
    let read = characterize_read(tech, stack, mechanism)?;
    Ok(CellLibrary {
        node: tech.node,
        write,
        read,
        access_width,
        cell_area: match mechanism {
            MechanismConfig::Stt => tech.stt_cell_area(access_width),
            MechanismConfig::Sot(_) => tech.sot_cell_area(access_width),
        },
        leakage: tech.leakage(access_width) * 1e-4, // off-state ~1e-4 of on-state scale
        critical_current,
        delta: stack.thermal_stability(),
        r_parallel: stack.resistance_parallel(),
        r_antiparallel: stack.resistance_antiparallel(),
    })
}

/// The (source, node) pairs of the rail driven high for each write
/// direction, [`WriteDirection::ToParallel`] first.
fn write_rails(mechanism: &MechanismConfig) -> [(&'static str, &'static str); 2] {
    match mechanism {
        MechanismConfig::Stt => [("VBL", "bl"), ("VSL", "sl")],
        MechanismConfig::Sot(_) => [("VWBL", "wbl"), ("VWSL", "wsl")],
    }
}

/// DC write current through the cell for a candidate width, with the
/// junction in the AP state and the bit-line rail high.
///
/// For STT this is the worst case: the write crosses the high-resistance
/// junction and degenerates the access source. The SOT write path is purely
/// metallic (access device + heavy-metal channel), so its state does not
/// matter.
fn dc_write_current(
    tech: &TechParams,
    stack: &MssStack,
    mechanism: &MechanismConfig,
    w: f64,
) -> Result<f64, PdkError> {
    let [(bl_source, bl), (sl_source, sl)] = write_rails(mechanism);
    let mut nl = Netlist::new();
    nl.add_vsource(bl_source, bl, "0", Waveform::dc(tech.vdd))?;
    nl.add_vsource("vwl", "wl", "0", Waveform::dc(tech.vdd))?;
    nl.add_vsource(sl_source, sl, "0", Waveform::dc(0.0))?;
    nl.add_mosfet(
        "m1",
        bl,
        "wl",
        "x",
        tech.nmos,
        mss_spice::mosfet::MosGeometry {
            width: w,
            length: tech.gate_length(),
        },
    )?;
    match mechanism {
        MechanismConfig::Stt => nl.add_mtj("x1", "x", sl, stack, MtjState::Antiparallel)?,
        MechanismConfig::Sot(params) => {
            nl.add_mtj_sot("x1", "rd", "x", sl, stack, params, MtjState::Antiparallel)?
        }
    }
    let dc = dc_operating_point(&nl)?;
    Ok((-dc.source_current(bl_source)?).abs())
}

/// Finds the smallest access width whose worst-case DC write current
/// reaches `target`.
fn size_access_width(
    tech: &TechParams,
    stack: &MssStack,
    mechanism: &MechanismConfig,
    target: f64,
) -> Result<f64, PdkError> {
    let (mut lo, mut hi) = (tech.min_width, 400.0 * tech.min_width);
    if dc_write_current(tech, stack, mechanism, hi)? < target {
        let (step, path) = match mechanism {
            MechanismConfig::Stt => ("access sizing", ""),
            MechanismConfig::Sot(_) => ("SOT access sizing", " through the channel"),
        };
        return Err(PdkError::Characterization {
            step,
            reason: format!(
                "even a {:.2e} m access device cannot deliver {:.2e} A{path}",
                hi, target
            ),
        });
    }
    if dc_write_current(tech, stack, mechanism, lo)? >= target {
        return Ok(lo);
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if dc_write_current(tech, stack, mechanism, mid)? >= target {
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi - lo) < 1e-9 {
            break;
        }
    }
    Ok(hi)
}

fn run_deck(deck: &mss_spice::parser::Deck) -> Result<TransientResult, PdkError> {
    let (dt, stop) = deck.tran.ok_or(PdkError::Characterization {
        step: "deck run",
        reason: "deck has no .tran directive".to_string(),
    })?;
    Ok(Transient::new(&deck.netlist).run(&TransientOptions::new(dt, stop))?)
}

fn characterize_write(
    tech: &TechParams,
    stack: &MssStack,
    mechanism: &MechanismConfig,
    w_access: f64,
) -> Result<OpMetrics, PdkError> {
    let rails = write_rails(mechanism);
    let mut worst = OpMetrics {
        latency: 0.0,
        energy: 0.0,
        current: f64::INFINITY,
    };
    for (dir, (source, node)) in [WriteDirection::ToParallel, WriteDirection::ToAntiparallel]
        .into_iter()
        .zip(rails)
    {
        let (deck, step) = match mechanism {
            MechanismConfig::Stt => (
                bitcell_write_deck(tech, stack, dir, w_access, CHAR_WRITE_PULSE, 5e-15)?,
                "write",
            ),
            MechanismConfig::Sot(params) => (
                sot_bitcell_write_deck(
                    tech,
                    stack,
                    params,
                    dir,
                    w_access,
                    SOT_CHAR_WRITE_PULSE,
                    5e-15,
                )?,
                "SOT write",
            ),
        };
        let res = run_deck(&deck)?;
        // Latency: active-rail 50% rise -> junction flip.
        let flip = Measurement::CrossTime {
            name: "t_flip".into(),
            probe: Probe::MtjState("X1".into()),
            value: 0.0,
            edge: Edge::Either,
            nth: 1,
        }
        .evaluate(&res)
        .map_err(|_| PdkError::Characterization {
            step,
            reason: format!("junction never flipped in {dir:?} within the pulse"),
        })?;
        let t_start = Measurement::CrossTime {
            name: "t_start".into(),
            probe: Probe::NodeVoltage(node.into()),
            value: tech.vdd / 2.0,
            edge: Edge::Rise,
            nth: 1,
        }
        .evaluate(&res)?;
        let latency = flip - t_start;
        // Energy: both rail sources and the word line over the active
        // window.
        let mut energy = 0.0;
        for src in [rails[0].0, rails[1].0, "VWL"] {
            energy += Measurement::Energy {
                name: format!("e_{src}"),
                source: src.to_string(),
                from: t_start,
                to: flip,
            }
            .evaluate(&res)?;
        }
        // Switching current: average active-rail current while writing.
        let i_avg = Measurement::Average {
            name: "i_wr".into(),
            probe: Probe::SourceCurrent(source.into()),
            from: t_start,
            to: flip,
        }
        .evaluate(&res)?
        .abs();
        if latency > worst.latency {
            worst.latency = latency;
            worst.energy = energy;
        }
        worst.current = worst.current.min(i_avg);
    }
    Ok(worst)
}

fn characterize_read(
    tech: &TechParams,
    stack: &MssStack,
    mechanism: &MechanismConfig,
) -> Result<OpMetrics, PdkError> {
    let r_mid = (stack.resistance_parallel() * stack.resistance_antiparallel()).sqrt();
    // The SOT sense current also crosses half the channel, so the reference
    // balances against junction + channel, and the cell branch ends at the
    // channel tap `shx` instead of the tail node.
    let (r_ref, below, step) = match mechanism {
        MechanismConfig::Stt => (r_mid, "tail", "read"),
        MechanismConfig::Sot(params) => (
            r_mid + params.channel_resistance(stack.diameter()),
            "shx",
            "SOT read",
        ),
    };
    let mut worst = OpMetrics {
        latency: 0.0,
        energy: 0.0,
        current: 0.0,
    };
    for state in [MtjState::Parallel, MtjState::Antiparallel] {
        let deck = match mechanism {
            MechanismConfig::Stt => pcsa_read_deck(tech, stack, state, r_ref, CHAR_SENSE_WINDOW)?,
            MechanismConfig::Sot(params) => {
                sot_pcsa_read_deck(tech, stack, params, state, r_ref, CHAR_SENSE_WINDOW)?
            }
        };
        let res = run_deck(&deck)?;
        // Sense delay: clk 50% rise -> losing side below vdd/2.
        let falling = if state == MtjState::Parallel {
            "out"
        } else {
            "outb"
        };
        let latency = Measurement::Delay {
            name: "t_sense".into(),
            trig: Probe::NodeVoltage("clk".into()),
            trig_value: tech.vdd / 2.0,
            trig_edge: Edge::Rise,
            targ: Probe::NodeVoltage(falling.into()),
            targ_value: tech.vdd / 2.0,
            targ_edge: Edge::Fall,
        }
        .evaluate(&res)
        .map_err(|_| PdkError::Characterization {
            step,
            reason: format!("PCSA failed to resolve for state {state:?}"),
        })?;
        let mut energy = 0.0;
        for src in ["VDD", "VCLK"] {
            energy += Measurement::Energy {
                name: format!("e_{src}"),
                source: src.to_string(),
                from: 1e-9,
                to: 1e-9 + CHAR_SENSE_WINDOW,
            }
            .evaluate(&res)?;
        }
        // Read current across the tunnel barrier: (v(s1) - v(below)) / R.
        let s1 = res.node_voltage("s1")?;
        let below = res.node_voltage(below)?;
        let times = res.times();
        let r = match state {
            MtjState::Parallel => stack.resistance_parallel(),
            MtjState::Antiparallel => stack.resistance_antiparallel(),
        };
        // Charge-average cell current across the sense window: the figure
        // that matters for read disturb (the discharge spike is brief).
        let mut q_moved = 0.0;
        let mut window = 0.0;
        for k in 1..times.len() {
            if times[k] >= 1e-9 && times[k] <= 1e-9 + CHAR_SENSE_WINDOW {
                let dt = times[k] - times[k - 1];
                let i_inst = ((s1[k] - below[k]) / r).abs();
                q_moved += i_inst * dt;
                window += dt;
            }
        }
        let i_avg = if window > 0.0 { q_moved / window } else { 0.0 };
        if latency > worst.latency {
            worst.latency = latency;
            worst.energy = energy;
        }
        worst.current = worst.current.max(i_avg);
    }
    Ok(worst)
}

/// Characterises the cell at every process corner (TT/SS/FF/SF/FS) —
/// classic corner-based signoff next to the statistical VAET flow.
///
/// # Errors
///
/// Propagates per-corner characterisation failures.
pub fn characterize_corners(
    node: TechNode,
    stack: &MssStack,
) -> Result<Vec<(ProcessCorner, CellLibrary)>, PdkError> {
    let nominal = TechParams::node(node);
    let card = VariationCard::node(node);
    ProcessCorner::ALL
        .iter()
        .map(|&corner| {
            let tech = card.corner_tech(&nominal, corner);
            characterize_with(&tech, stack).map(|lib| (corner, lib))
        })
        .collect()
}

/// Characterises the non-volatile flip-flop: worst-case two-phase backup
/// followed by a PCSA restore.
///
/// # Errors
///
/// [`PdkError::Characterization`] when a junction never flips during backup
/// or the restore latch fails to resolve.
pub fn characterize_nvff(tech: &TechParams, stack: &MssStack) -> Result<NvffMetrics, PdkError> {
    let w_access = 24.0 * tech.feature;
    let t_phase = 15e-9;
    let mut backup_latency: f64 = 0.0;
    let mut backup_energy: f64 = 0.0;
    for q in [true, false] {
        let deck = nvff_backup_deck(tech, stack, q, w_access, t_phase)?;
        let res = run_deck(&deck)?;
        if res.events().len() != 2 {
            return Err(PdkError::Characterization {
                step: "nvff backup",
                reason: format!(
                    "expected both junctions to flip for q={q}, saw {} events",
                    res.events().len()
                ),
            });
        }
        let last_flip = res
            .events()
            .iter()
            .map(|e| e.time)
            .fold(f64::NEG_INFINITY, f64::max);
        backup_latency = backup_latency.max(last_flip - 1e-9);
        let mut energy = 0.0;
        for src in ["VQ", "VQB", "VCOM", "VCTRL"] {
            energy += Measurement::Energy {
                name: format!("e_{src}"),
                source: src.to_string(),
                from: 1e-9,
                to: last_flip,
            }
            .evaluate(&res)?;
        }
        backup_energy = backup_energy.max(energy);
    }

    let t_sense = 3e-9;
    let mut restore_latency: f64 = 0.0;
    let mut restore_energy: f64 = 0.0;
    for q in [true, false] {
        let deck = nvff_restore_deck(tech, stack, q, t_sense)?;
        let res = run_deck(&deck)?;
        // The P-side output falls; measure clk 50% -> falling side below
        // vdd/2.
        let falling = if q { "q" } else { "qb" };
        let latency = Measurement::Delay {
            name: "t_restore".into(),
            trig: Probe::NodeVoltage("clk".into()),
            trig_value: tech.vdd / 2.0,
            trig_edge: Edge::Rise,
            targ: Probe::NodeVoltage(falling.into()),
            targ_value: tech.vdd / 2.0,
            targ_edge: Edge::Fall,
        }
        .evaluate(&res)
        .map_err(|_| PdkError::Characterization {
            step: "nvff restore",
            reason: format!("latch failed to resolve for q={q}"),
        })?;
        restore_latency = restore_latency.max(latency);
        let mut energy = 0.0;
        for src in ["VDD", "VCLK"] {
            energy += Measurement::Energy {
                name: format!("e_{src}"),
                source: src.to_string(),
                from: 1e-9,
                to: 1e-9 + t_sense,
            }
            .evaluate(&res)?;
        }
        restore_energy = restore_energy.max(energy);
    }

    Ok(NvffMetrics {
        backup_latency,
        backup_energy,
        restore_latency,
        restore_energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> MssStack {
        MssStack::builder().build().unwrap()
    }

    #[test]
    fn sizing_hits_overdrive_target() {
        let tech = TechParams::node(TechNode::N45);
        let s = stack();
        let target = TARGET_OVERDRIVE * s.critical_current();
        let w = size_access_width(&tech, &s, &MechanismConfig::Stt, target).unwrap();
        let i = dc_write_current(&tech, &s, &MechanismConfig::Stt, w).unwrap();
        assert!(
            i >= target && i < 1.3 * target,
            "i = {i:.3e}, target = {target:.3e}"
        );
        assert!(w > tech.min_width && w < 400.0 * tech.min_width);
    }

    #[test]
    fn characterization_produces_sane_metrics_45nm() {
        let lib = characterize_with(&TechParams::node(TechNode::N45), &stack()).unwrap();
        // Write: a few ns, read: sub-2ns (paper Table 1 nominal shapes).
        assert!(
            lib.write.latency > 1e-9 && lib.write.latency < 12e-9,
            "write latency = {:.3e}",
            lib.write.latency
        );
        assert!(
            lib.read.latency > 10e-12 && lib.read.latency < 2e-9,
            "read latency = {:.3e}",
            lib.read.latency
        );
        assert!(lib.read.latency < lib.write.latency);
        // Cell-level energies: write in the 100s of fJ, read far less.
        assert!(lib.write.energy > 1e-14 && lib.write.energy < 5e-12);
        assert!(lib.read.energy < lib.write.energy);
        // Write current near the overdrive target, read well below Ic0.
        assert!(lib.write.current > 1.5 * lib.critical_current);
        assert!(lib.read.current < 0.8 * lib.critical_current);
    }

    #[test]
    fn both_nodes_characterize() {
        let s = stack();
        let l45 = characterize_with(&TechParams::node(TechNode::N45), &s).unwrap();
        let l65 = characterize_with(&TechParams::node(TechNode::N65), &s).unwrap();
        // The same junction needs a similar write current; both nodes must
        // deliver it.
        assert!(l45.write.current > 0.0 && l65.write.current > 0.0);
        // 65 nm cells are physically larger.
        assert!(l65.cell_area > l45.cell_area);
    }

    #[test]
    fn corner_characterisation_orders_write_current() {
        let libs = characterize_corners(TechNode::N45, &stack()).unwrap();
        assert_eq!(libs.len(), 5);
        let get = |c: ProcessCorner| {
            libs.iter()
                .find(|(k, _)| *k == c)
                .map(|(_, l)| l)
                .expect("corner present")
        };
        let ss = get(ProcessCorner::Ss);
        let tt = get(ProcessCorner::Tt);
        let ff = get(ProcessCorner::Ff);
        // Slow silicon needs a wider access device for the same overdrive.
        assert!(ss.access_width > tt.access_width);
        assert!(ff.access_width < tt.access_width);
        // The junction's own numbers don't move with the CMOS corner.
        assert_eq!(ss.critical_current, ff.critical_current);
    }

    #[test]
    fn nvff_characterisation_is_sane() {
        let tech = TechParams::node(TechNode::N45);
        let m = characterize_nvff(&tech, &stack()).unwrap();
        // Backup spans both write phases: slower than a single cell write
        // but bounded by the two 15 ns phases.
        assert!(
            m.backup_latency > 5e-9 && m.backup_latency < 32e-9,
            "backup latency {:.3e}",
            m.backup_latency
        );
        // Restore is a sense, orders of magnitude faster than backup.
        assert!(m.restore_latency < 0.1 * m.backup_latency);
        assert!(m.backup_energy > m.restore_energy);
        assert!(m.restore_energy > 0.0);
    }

    #[test]
    fn sot_characterization_beats_stt_on_write() {
        let s = stack();
        let stt = characterize_with(&TechParams::node(TechNode::N45), &s).unwrap();
        let sot =
            characterize_sot_with(&TechParams::node(TechNode::N45), &s, &SotParams::default())
                .unwrap();
        // The channel write dodges the damping limit: much faster...
        assert!(
            sot.base.write.latency < 0.25 * stt.write.latency,
            "sot = {:.3e}, stt = {:.3e}",
            sot.base.write.latency,
            stt.write.latency
        );
        // ...and cheaper per bit, despite the larger critical current.
        assert!(
            sot.base.write.energy < stt.write.energy,
            "sot = {:.3e}, stt = {:.3e}",
            sot.base.write.energy,
            stt.write.energy
        );
        // The read is still a PCSA sense of the same junction.
        assert!(sot.base.read.latency > 10e-12 && sot.base.read.latency < 2e-9);
        assert!(sot.base.read.current < 0.8 * s.critical_current());
        // Three-terminal cell pays area over the 1T-1MTJ cell of the same
        // access width.
        let tech = TechParams::node(TechNode::N45);
        assert!(sot.base.cell_area > tech.stt_cell_area(sot.base.access_width));
        // Metallic channel is far below the junction resistance.
        assert!(sot.channel_resistance < 0.5 * s.resistance_parallel());
    }

    #[test]
    fn sot_cache_key_is_disjoint_from_stt() {
        let tech = TechParams::node(TechNode::N45);
        let s = stack();
        let p = SotParams::default();
        let stt_key = mss_pipe::digest_of(&(&tech, &s));
        assert_ne!(sot_cache_key(&tech, &s, &p), stt_key);
        let mut p2 = p.clone();
        p2.spin_hall_angle = 0.25;
        assert_ne!(sot_cache_key(&tech, &s, &p), sot_cache_key(&tech, &s, &p2));
    }

    #[test]
    fn sot_cached_characterization_memoizes() {
        let cache = mss_pipe::PipeCache::memory_only();
        let s = stack();
        let p = SotParams::default();
        let a = characterize_sot_cached(TechNode::N45, &s, &p, &cache).unwrap();
        let b = characterize_sot_cached(TechNode::N45, &s, &p, &cache).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        // An STT characterisation of the same inputs must not collide.
        let stt = characterize_cached(TechNode::N45, &s, &cache).unwrap();
        assert!((stt.write.latency - a.base.write.latency).abs() > f64::EPSILON);
    }

    #[test]
    fn sot_artifact_round_trip() {
        use mss_pipe::Artifact;
        let lib = characterize_sot_with(
            &TechParams::node(TechNode::N45),
            &stack(),
            &SotParams::default(),
        )
        .unwrap();
        let back = SotCellLibrary::decode(&lib.encode()).unwrap();
        assert_eq!(lib, back);
    }

    #[test]
    fn artifact_encodings_are_pinned() {
        use mss_pipe::Artifact;
        let op = |s: f64| OpMetrics {
            latency: 1e-9 * s,
            energy: 1e-12 * s,
            current: 1e-4 * s,
        };
        let base = CellLibrary {
            node: TechNode::N65,
            write: op(2.0),
            read: op(0.5),
            access_width: 1.5e-7,
            cell_area: 4e-14,
            leakage: 1e-9,
            critical_current: 5e-5,
            delta: 60.0,
            r_parallel: 3000.0,
            r_antiparallel: 6000.0,
        };
        assert_eq!(
            base.encode(),
            "{\"node\":65,\"write_latency\":\"3e212e0be826d695\",\"write_energy\":\"3d819799812dea11\",\"write_current\":\"3f2a36e2eb1c432d\",\"read_latency\":\"3e012e0be826d695\",\"read_energy\":\"3d619799812dea11\",\"read_current\":\"3f0a36e2eb1c432d\",\"access_width\":\"3e8421f5f40d8376\",\"cell_area\":\"3d26849b86a12b9b\",\"leakage\":\"3e112e0be826d695\",\"critical_current\":\"3f0a36e2eb1c432d\",\"delta\":\"404e000000000000\",\"r_parallel\":\"40a7700000000000\",\"r_antiparallel\":\"40b7700000000000\"}"
        );
        let sot = SotCellLibrary {
            base,
            params: SotParams {
                spin_hall_angle: 0.3,
                channel_thickness: 5e-9,
                channel_resistivity: 2e-6,
                channel_length_factor: 1.5,
                channel_width_factor: 1.25,
                field_like_ratio: -0.0,
            },
            channel_resistance: 800.0,
        };
        assert_eq!(
            sot.encode(),
            "{\"node\":65,\"write_latency\":\"3e212e0be826d695\",\"write_energy\":\"3d819799812dea11\",\"write_current\":\"3f2a36e2eb1c432d\",\"read_latency\":\"3e012e0be826d695\",\"read_energy\":\"3d619799812dea11\",\"read_current\":\"3f0a36e2eb1c432d\",\"access_width\":\"3e8421f5f40d8376\",\"cell_area\":\"3d26849b86a12b9b\",\"leakage\":\"3e112e0be826d695\",\"critical_current\":\"3f0a36e2eb1c432d\",\"delta\":\"404e000000000000\",\"r_parallel\":\"40a7700000000000\",\"r_antiparallel\":\"40b7700000000000\"}\n\
             {\"spin_hall_angle\":\"3fd3333333333333\",\"channel_thickness\":\"3e35798ee2308c3a\",\"channel_resistivity\":\"3ec0c6f7a0b5ed8d\",\"channel_length_factor\":\"3ff8000000000000\",\"channel_width_factor\":\"3ff4000000000000\",\"field_like_ratio\":\"8000000000000000\",\"channel_resistance\":\"4089000000000000\"}"
        );
    }

    #[test]
    fn decode_rejects_non_finite_fields() {
        use mss_pipe::hash::hex_of_f64;
        use mss_pipe::Artifact;
        let op = |s: f64| OpMetrics {
            latency: 1e-9 * s,
            energy: 1e-12 * s,
            current: 1e-4 * s,
        };
        let lib = SotCellLibrary {
            base: CellLibrary {
                node: TechNode::N65,
                write: op(2.0),
                read: op(0.5),
                access_width: 1.5e-7,
                cell_area: 4e-14,
                leakage: 1e-9,
                critical_current: 5e-5,
                delta: 60.0,
                r_parallel: 3000.0,
                r_antiparallel: 6000.0,
            },
            params: SotParams::default(),
            channel_resistance: 800.0,
        };
        let text = lib.encode();
        assert_eq!(SotCellLibrary::decode(&text).as_ref(), Some(&lib));
        let stt_len = text.lines().next().unwrap().len();
        // Every field is a `"key":"<16 hex digits>"` pair: 13 on the STT
        // line, 7 on the SOT channel line.
        let fields: Vec<usize> = text.match_indices("\":\"").map(|(at, _)| at + 3).collect();
        assert_eq!(fields.len(), 20);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for &at in &fields {
                let damaged = format!("{}{}{}", &text[..at], hex_of_f64(bad), &text[at + 16..]);
                assert_eq!(SotCellLibrary::decode(&damaged), None, "{damaged}");
                if at < stt_len {
                    let stt = damaged.lines().next().unwrap();
                    assert_eq!(CellLibrary::decode(stt), None, "{stt}");
                }
            }
        }
    }
}
