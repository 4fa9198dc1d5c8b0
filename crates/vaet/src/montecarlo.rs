//! Access-level Monte Carlo: latency/energy distributions under process
//! variation and stochastic switching.
//!
//! One Monte Carlo sample is one *word access*:
//!
//! 1. a global (per-die) CMOS sample perturbs the peripheral speed,
//! 2. each bit of the word gets a local MTJ sample of the parameters the
//!    access reads (writes: d, t, K_i, plus RA on STT; reads: d, RA, TMR)
//!    and — for writes — a thermal initial angle drawn from the Rayleigh
//!    distribution `p(θ₀) = 2Δθ₀·exp(−Δθ₀²)`,
//! 3. the access completes when its **slowest bit** completes; the write
//!    current keeps flowing for the whole (per-access) pulse, so energy
//!    scales with the completion time, not each bit's own switch time.
//!
//! This is what makes the variation-aware mean (μ) far exceed the nominal
//! value in the paper's Table 1: the max over a 1024-bit word sits deep in
//! the exponential tail of the per-bit switching-time distribution.

use mss_exec::{par_chunks_stats, ParallelConfig};
use mss_mtj::switching::SwitchingModel;
use mss_pdk::variation::StackReads;
use mss_spice::batch::DcBatch;
use mss_spice::netlist::Netlist;
use mss_spice::waveform::Waveform;

use mss_units::rng::{normal, Rng, Xoshiro256PlusPlus};
use mss_units::stats::{DistributionSummary, OnlineStats};

use crate::context::{VaetContext, SENSE_OFFSET_SIGMA};
use crate::report::VaetReport;
use crate::VaetError;

/// Options for a Monte Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloOptions {
    /// Number of word accesses to simulate.
    pub samples: usize,
    /// RNG seed (runs are fully deterministic per seed).
    pub seed: u64,
    /// Override the word width (defaults to the context's configuration).
    pub word_bits: Option<u32>,
}

impl Default for MonteCarloOptions {
    fn default() -> Self {
        Self {
            samples: 2000,
            seed: 0x5713_AE77,
            word_bits: None,
        }
    }
}

/// Draws a thermal initial angle from the Rayleigh-like distribution.
fn thermal_angle<R: Rng + ?Sized>(rng: &mut R, delta: f64) -> f64 {
    // θ₀² ~ Exp(Δ): invert the CDF with a guarded uniform.
    let mut u: f64 = rng.next_f64();
    while u <= f64::MIN_POSITIVE {
        u = rng.next_f64();
    }
    (-u.ln() / delta).sqrt().min(std::f64::consts::FRAC_PI_2)
}

/// Per-bit precessional switching time with an explicit initial angle.
fn switching_time(sw: &SwitchingModel, i_write: f64, theta0: f64) -> f64 {
    let i = i_write / sw.critical_current();
    if i <= 1.0 {
        // Subcritical sample (deep process corner): report a pessimistic
        // 10x the nominal-style time so the tail is visible, bounded to
        // keep statistics finite.
        return 10.0 * sw.tau_d() * (std::f64::consts::FRAC_PI_2 / theta0.max(1e-6)).ln();
    }
    sw.tau_d() / (i - 1.0) * (std::f64::consts::FRAC_PI_2 / theta0.max(1e-9)).ln()
}

/// Word-independent quantities shared by every sample.
#[derive(Debug, Clone, Copy)]
struct SampleConsts {
    periph_wl: f64,
    periph_rl: f64,
    periph_we: f64,
    periph_re: f64,
    i_write_nom: f64,
    sense_nom: f64,
    signal_nom: f64,
    /// Nominal cell resistance window R_AP − R_P.
    window_nom: f64,
    /// Power drawn by one nominal cell during its write: the measured cell
    /// energy spread over the measured cell latency.
    cell_power_nom: f64,
    /// The stack parameters the write loop reads.
    write_reads: StackReads,
}

/// Per-batch accumulators, merged in batch order after the fan-out.
#[derive(Debug, Clone, Default)]
struct BatchAcc {
    wl: OnlineStats,
    we: OnlineStats,
    rl: OnlineStats,
    re: OnlineStats,
}

impl BatchAcc {
    fn merge(&mut self, other: &BatchAcc) {
        self.wl.merge(&other.wl);
        self.we.merge(&other.we);
        self.rl.merge(&other.rl);
        self.re.merge(&other.re);
    }
}

/// Simulates one word access (one write + one read) and records it.
fn sample_access<R: Rng + ?Sized>(
    ctx: &VaetContext,
    word: usize,
    consts: &SampleConsts,
    rng: &mut R,
    acc: &mut BatchAcc,
) -> Result<(), VaetError> {
    // Global CMOS sample: peripheral speed/energy factor.
    let t_sample = ctx.variation.sample_tech(rng, &ctx.tech);
    let drive = |t: &mss_pdk::tech::TechParams| t.nmos.kp * (t.vdd - t.nmos.vth).powi(2);
    let speed_factor = (drive(&ctx.tech) / drive(&t_sample)).clamp(0.5, 2.0);

    // --- Write access ---
    // The pulse is held for the slowest bit, so every bit burns the
    // nominal cell power for the whole completion time — the paper's
    // mu >> nominal energy effect.
    let mut t_cell_max: f64 = 0.0;
    let mut power_sum = 0.0;
    for _ in 0..word {
        let stack = ctx
            .variation
            .sample_stack_reading(rng, &ctx.stack, consts.write_reads)
            .map_err(VaetError::Device)?;
        let sw = ctx.corner_switching_model(&stack)?;
        // Local access-device mismatch perturbs the write current.
        let i_rel = normal(rng, 1.0, 0.04).clamp(0.7, 1.3) / speed_factor;
        let i_bit = consts.i_write_nom * i_rel;
        let theta0 = thermal_angle(rng, sw.delta());
        let t_bit = switching_time(&sw, i_bit, theta0);
        t_cell_max = t_cell_max.max(t_bit);
        // Dissipation scales as I^2 R relative to the nominal write path.
        let r_rel = ctx.write_resistance_ratio(&stack);
        power_sum += consts.cell_power_nom * i_rel * i_rel * r_rel;
    }
    let t_write = consts.periph_wl * speed_factor + t_cell_max;
    let e_write = consts.periph_we + power_sum * t_cell_max;
    acc.wl.push(t_write);
    acc.we.push(e_write);

    // --- Read access ---
    let mut t_sense_max: f64 = 0.0;
    let mut e_read_cells = 0.0;
    for _ in 0..word {
        let stack = ctx
            .variation
            .sample_stack_reading(rng, &ctx.stack, StackReads::RESISTANCE)
            .map_err(VaetError::Device)?;
        // Signal scales with this bit's resistance window.
        let window = stack.resistance_antiparallel() - stack.resistance_parallel();
        let offset = normal(rng, 0.0, SENSE_OFFSET_SIGMA);
        let signal = (consts.signal_nom * window / consts.window_nom - offset.abs())
            .max(0.05 * consts.signal_nom);
        // Regeneration time grows as the effective signal shrinks.
        let t_bit = consts.sense_nom * (consts.signal_nom / signal).min(8.0);
        t_sense_max = t_sense_max.max(t_bit);
        e_read_cells += ctx.cell.read.energy * (consts.window_nom / window).clamp(0.5, 2.0);
    }
    let t_read = consts.periph_rl * speed_factor + t_sense_max;
    let e_read = consts.periph_re + e_read_cells;
    acc.rl.push(t_read);
    acc.re.push(e_read);
    Ok(())
}

/// Runs the Monte Carlo under an explicit thread/chunk policy and returns
/// the Table-1-shaped report. The result is a pure function of
/// `(ctx, opts)`: thread count never changes the report.
///
/// Samples are fanned out in fixed-size batches; batch `i` draws from RNG
/// stream `(opts.seed, i)` and the per-batch accumulators are merged in
/// batch order, so the report is bit-identical at any thread count. The
/// run's [`RunStats`](mss_exec::RunStats) are recorded under `vaet.mc`.
///
/// # Errors
///
/// [`VaetError::InvalidOptions`] on zero samples; device sampling errors
/// propagate.
pub fn run_with(
    ctx: &VaetContext,
    opts: &MonteCarloOptions,
    cfg: &ParallelConfig,
) -> Result<VaetReport, VaetError> {
    if opts.samples == 0 {
        return Err(VaetError::InvalidOptions {
            reason: "samples must be non-zero".into(),
        });
    }
    let word = opts.word_bits.unwrap_or(ctx.config.word_bits) as usize;
    if word == 0 {
        return Err(VaetError::InvalidOptions {
            reason: "word width must be non-zero".into(),
        });
    }

    // Peripheral energy share = array energy minus the word's cell energy,
    // rescaled when the word width is overridden (narrower accesses fire
    // proportionally less periphery).
    let word_fraction = word as f64 / ctx.config.word_bits as f64;
    let periph_we =
        (ctx.nominal.write_energy - ctx.config.word_bits as f64 * ctx.cell.write.energy).max(0.0)
            * word_fraction;
    let periph_re = (ctx.nominal.read_energy - ctx.config.word_bits as f64 * ctx.cell.read.energy)
        .max(0.0)
        * word_fraction;
    // Nominal energies consistent with the effective word width.
    let nominal_we = periph_we + word as f64 * ctx.cell.write.energy;
    let nominal_re = periph_re + word as f64 * ctx.cell.read.energy;

    let consts = SampleConsts {
        periph_wl: ctx.write_periphery_latency(),
        periph_rl: ctx.read_periphery_latency(),
        periph_we,
        periph_re,
        i_write_nom: ctx.cell.write.current,
        sense_nom: ctx.cell.read.latency,
        signal_nom: ctx.sense_signal(),
        window_nom: ctx.cell.r_antiparallel - ctx.cell.r_parallel,
        cell_power_nom: ctx.cell.write.energy / ctx.cell.write.latency.max(1e-12),
        write_reads: ctx.write_stack_reads(),
    };

    let _span = mss_obs::span("vaet.mc.run");
    // Batch-boundary progress for the live telemetry plane: one event per
    // finished batch, keyed to the deterministic batch grid (independent of
    // thread count). With the bus off this is a single atomic load.
    let events_on = mss_obs::events::bus_enabled();
    let total_batches = opts.samples.div_ceil(cfg.chunk.max(1)) as u64;
    let batches_done = std::sync::atomic::AtomicU64::new(0);
    let (batches, stats) = par_chunks_stats(
        cfg,
        opts.samples,
        |batch, range| -> Result<BatchAcc, VaetError> {
            // Opened inside the worker closure so the profiler attributes the
            // sampling time to the executing thread (`by_thread` in the span
            // report), not to the coordinating caller. Batch count depends
            // only on `samples` and the chunk size, so the span count stays
            // deterministic across thread counts.
            let _span = mss_obs::span("vaet.mc.batch");
            let mut rng = Xoshiro256PlusPlus::stream(opts.seed, batch as u64);
            let mut acc = BatchAcc::default();
            for _ in range {
                sample_access(ctx, word, &consts, &mut rng, &mut acc)?;
            }
            if events_on {
                let done = batches_done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                mss_obs::events::publish(mss_obs::events::EventPayload::Progress {
                    sweep: "vaet.mc".to_string(),
                    done,
                    total: total_batches,
                    retried: 0,
                    budget_seconds: None,
                });
            }
            Ok(acc)
        },
    );
    stats.record("vaet.mc");
    let mut total = BatchAcc::default();
    for batch in batches {
        total.merge(&batch?);
    }

    let report = VaetReport {
        node: ctx.tech.node,
        samples: opts.samples as u64,
        word_bits: word as u32,
        nominal_write_latency: ctx.nominal.write_latency,
        nominal_write_energy: nominal_we,
        nominal_read_latency: ctx.nominal.read_latency,
        nominal_read_energy: nominal_re,
        write_latency: DistributionSummary::from(&total.wl),
        write_energy: DistributionSummary::from(&total.we),
        read_latency: DistributionSummary::from(&total.rl),
        read_energy: DistributionSummary::from(&total.re),
    };
    Ok(report)
}

/// Options for the circuit-level sense-margin Monte Carlo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseBatchOptions {
    /// Number of cell samples to solve.
    pub samples: usize,
    /// RNG seed (runs are fully deterministic per seed).
    pub seed: u64,
}

impl Default for SenseBatchOptions {
    fn default() -> Self {
        Self {
            samples: 2048,
            seed: 0x5E4E_B47C,
        }
    }
}

/// Result of a batched SPICE sense-margin run.
#[derive(Debug, Clone, PartialEq)]
pub struct SenseBatchReport {
    /// Samples solved.
    pub samples: u64,
    /// Read bias applied to the bitline, volts.
    pub(crate) v_read: f64,
    /// Sense margin (`v_AP − v_P` at the divider taps) distribution, volts.
    pub margin: DistributionSummary,
    /// Worst sampled margin, volts.
    pub min_margin: f64,
    /// Samples whose margin fell below the 1σ sense-amp offset
    /// (`SENSE_OFFSET_SIGMA`) — the circuit-level read-failure proxy.
    pub below_offset: u64,
    /// Samples whose MNA solve failed (counted, never fatal).
    pub failed_solves: u64,
}

/// Builds the read-path divider the batch solves: the bitline bias feeds
/// two matched series resistors (access device + bitline, scaled with the
/// subarray height) into a parallel-state cell leg and an
/// antiparallel-state cell leg. The sense margin is the tap difference.
fn sense_netlist(ctx: &VaetContext, v_read: f64) -> Result<Netlist, VaetError> {
    let r_ref = 0.5 * (ctx.cell.r_parallel + ctx.cell.r_antiparallel);
    // Series (access + bitline) resistance: matched to the cell midpoint at
    // the paper's 1024-row subarray and scaled with the bitline length.
    let rows = ctx.config.subarray_rows as f64;
    let r_series = r_ref * (0.75 + 0.25 * rows / 1024.0);
    let mut nl = Netlist::new();
    let build = |nl: &mut Netlist| -> Result<(), mss_spice::SpiceError> {
        nl.add_vsource("vr", "bl", "0", Waveform::dc(v_read))?;
        nl.add_resistor("rsp", "bl", "sp", r_series)?;
        nl.add_resistor("rsap", "bl", "sap", r_series)?;
        nl.add_resistor("rp", "sp", "0", ctx.cell.r_parallel)?;
        nl.add_resistor("rap", "sap", "0", ctx.cell.r_antiparallel)?;
        Ok(())
    };
    build(&mut nl).map_err(|e| VaetError::InvalidOptions {
        reason: format!("sense netlist construction failed: {e}"),
    })?;
    Ok(nl)
}

/// Circuit-level read-margin Monte Carlo through the batched SPICE solver,
/// under an explicit thread/chunk policy: the netlist topology is analysed
/// once ([`DcBatch`]), then each sample re-solves it with a freshly sampled
/// MTJ stack (RNG stream split by *sample index*, so the report is
/// bit-identical at any thread count).
///
/// This is the paper's sense-margin distribution computed by actual MNA
/// solves rather than the analytical divider of [`run_with`] — and the
/// workload the `spice_batch_smoke` perf gate times.
///
/// # Errors
///
/// [`VaetError::InvalidOptions`] on zero samples or when every solve
/// fails; device-sampling errors propagate.
pub fn sense_margin_batch_with(
    ctx: &VaetContext,
    opts: &SenseBatchOptions,
    cfg: &ParallelConfig,
) -> Result<SenseBatchReport, VaetError> {
    if opts.samples == 0 {
        return Err(VaetError::InvalidOptions {
            reason: "samples must be non-zero".into(),
        });
    }
    let _span = mss_obs::span("vaet.mc.sense_batch");
    let v_read = 0.1; // standard non-disturbing read bias
    let nl = sense_netlist(ctx, v_read)?;
    let rp = nl.element_index("rp").expect("rp exists");
    let rap = nl.element_index("rap").expect("rap exists");

    // Per-sample stack resistances, drawn from per-sample RNG streams so
    // neither thread count nor chunking can reorder the randomness.
    let mut cells = Vec::with_capacity(opts.samples);
    for i in 0..opts.samples {
        let mut rng = Xoshiro256PlusPlus::stream(opts.seed, i as u64);
        let stack = ctx
            .variation
            .sample_stack_reading(&mut rng, &ctx.stack, StackReads::RESISTANCE)
            .map_err(VaetError::Device)?;
        cells.push((stack.resistance_parallel(), stack.resistance_antiparallel()));
    }

    let batch = DcBatch::new(&nl);
    let result = batch.run(opts.samples, cfg, |i, nl| {
        let (r_p, r_ap) = cells[i];
        nl.set_resistance(rp, r_p)?;
        nl.set_resistance(rap, r_ap)
    });

    let mut stats = OnlineStats::default();
    let mut min_margin = f64::INFINITY;
    let mut below_offset = 0u64;
    for i in 0..opts.samples {
        if result.outcome(i).is_ok() {
            let margin = result.node_voltage(i, "sap").expect("solved")
                - result.node_voltage(i, "sp").expect("solved");
            stats.push(margin);
            min_margin = min_margin.min(margin);
            if margin < SENSE_OFFSET_SIGMA {
                below_offset += 1;
            }
        }
    }
    let failed_solves = result.failure_count() as u64;
    if failed_solves == opts.samples as u64 {
        return Err(VaetError::InvalidOptions {
            reason: "every sense solve failed".into(),
        });
    }
    Ok(SenseBatchReport {
        samples: opts.samples as u64,
        v_read,
        margin: DistributionSummary::from(&stats),
        min_margin,
        below_offset,
        failed_solves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_pdk::tech::TechNode;
    use std::sync::OnceLock;

    fn ctx45() -> &'static VaetContext {
        static CTX: OnceLock<VaetContext> = OnceLock::new();
        CTX.get_or_init(|| VaetContext::standard(TechNode::N45).unwrap())
    }

    fn small_opts(seed: u64) -> MonteCarloOptions {
        MonteCarloOptions {
            samples: 150,
            seed,
            word_bits: Some(64),
        }
    }

    #[test]
    fn variation_aware_mean_exceeds_nominal() {
        let report = run_with(ctx45(), &small_opts(1), &ParallelConfig::serial()).unwrap();
        // The paper's headline: mu >> nominal for write latency & energy.
        assert!(
            report.write_latency.mean > 1.3 * report.nominal_write_latency,
            "mu {} vs nominal {}",
            report.write_latency.mean,
            report.nominal_write_latency
        );
        assert!(report.read_latency.mean > report.nominal_read_latency);
    }

    #[test]
    fn distributions_have_positive_spread() {
        let report = run_with(ctx45(), &small_opts(2), &ParallelConfig::serial()).unwrap();
        assert!(report.write_latency.std_dev > 0.0);
        assert!(report.read_latency.std_dev > 0.0);
        assert!(report.write_energy.std_dev > 0.0);
        // Read is much tighter than write (Table 1 shape).
        assert!(report.read_latency.std_dev < report.write_latency.std_dev);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // The determinism contract: a fixed seed gives the exact same
        // report at 1, 2 and 8 threads (batch streams + ordered merge).
        let opts = MonteCarloOptions {
            samples: 700, // several chunks at the default granularity
            seed: 0xD15EA5E,
            word_bits: Some(32),
        };
        let serial = run_with(ctx45(), &opts, &ParallelConfig::serial()).unwrap();
        for threads in [2, 8] {
            let parallel = run_with(
                ctx45(),
                &opts,
                &ParallelConfig::serial().with_threads(threads),
            )
            .unwrap();
            assert_eq!(serial, parallel, "report diverged at {threads} threads");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_with(ctx45(), &small_opts(7), &ParallelConfig::serial()).unwrap();
        let b = run_with(ctx45(), &small_opts(7), &ParallelConfig::serial()).unwrap();
        assert_eq!(a.write_latency.mean, b.write_latency.mean);
        let c = run_with(ctx45(), &small_opts(8), &ParallelConfig::serial()).unwrap();
        assert_ne!(a.write_latency.mean, c.write_latency.mean);
    }

    #[test]
    fn wider_words_have_larger_completion_latency() {
        let narrow = run_with(
            ctx45(),
            &MonteCarloOptions {
                samples: 120,
                seed: 3,
                word_bits: Some(16),
            },
            &ParallelConfig::serial(),
        )
        .unwrap();
        let wide = run_with(
            ctx45(),
            &MonteCarloOptions {
                samples: 120,
                seed: 3,
                word_bits: Some(256),
            },
            &ParallelConfig::serial(),
        )
        .unwrap();
        assert!(wide.write_latency.mean > narrow.write_latency.mean);
    }

    #[test]
    fn zero_samples_rejected() {
        let err = run_with(
            ctx45(),
            &MonteCarloOptions {
                samples: 0,
                seed: 0,
                word_bits: None,
            },
            &ParallelConfig::serial(),
        )
        .unwrap_err();
        assert!(matches!(err, VaetError::InvalidOptions { .. }));
    }

    #[test]
    fn sense_batch_margins_are_physical() {
        let opts = SenseBatchOptions {
            samples: 300,
            seed: 11,
        };
        let report = sense_margin_batch_with(ctx45(), &opts, &ParallelConfig::serial()).unwrap();
        assert_eq!(report.samples, 300);
        assert_eq!(report.failed_solves, 0);
        // The AP leg always divides higher than the P leg.
        assert!(report.min_margin > 0.0);
        assert!(report.margin.mean > report.min_margin);
        // A healthy cell has margin above the sense offset for the vast
        // majority of samples.
        assert!(report.below_offset < report.samples / 10);
        assert!(report.margin.mean < report.v_read, "margin bounded by bias");
    }

    #[test]
    fn sense_batch_bit_identical_across_thread_counts() {
        let opts = SenseBatchOptions {
            samples: 400,
            seed: 0xBEEF,
        };
        let base =
            sense_margin_batch_with(ctx45(), &opts, &ParallelConfig::serial().with_chunk(64))
                .unwrap();
        for threads in [2, 8] {
            let cfg = ParallelConfig::serial()
                .with_threads(threads)
                .with_chunk(64);
            let other = sense_margin_batch_with(ctx45(), &opts, &cfg).unwrap();
            assert_eq!(base, other, "sense report diverged at {threads} threads");
        }
    }

    #[test]
    fn sense_batch_deterministic_per_seed() {
        let run = |seed| {
            sense_margin_batch_with(
                ctx45(),
                &SenseBatchOptions { samples: 120, seed },
                &ParallelConfig::serial(),
            )
            .unwrap()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).margin.mean, run(6).margin.mean);
    }

    #[test]
    fn sense_batch_matches_per_sample_dense_solves() {
        // Cross-layer parity: the vaet wrapper must agree bit-for-bit with
        // hand-built per-sample netlists through the single-solve path.
        let ctx = ctx45();
        let opts = SenseBatchOptions {
            samples: 16,
            seed: 77,
        };
        let report = sense_margin_batch_with(ctx, &opts, &ParallelConfig::serial()).unwrap();
        let mut stats = OnlineStats::default();
        for i in 0..opts.samples {
            let mut rng = Xoshiro256PlusPlus::stream(opts.seed, i as u64);
            let stack = ctx.variation.sample_stack(&mut rng, &ctx.stack).unwrap();
            let mut nl = sense_netlist(ctx, 0.1).unwrap();
            let rp = nl.element_index("rp").unwrap();
            let rap = nl.element_index("rap").unwrap();
            nl.set_resistance(rp, stack.resistance_parallel()).unwrap();
            nl.set_resistance(rap, stack.resistance_antiparallel())
                .unwrap();
            let dc = mss_spice::analysis::dc_operating_point(&nl).unwrap();
            stats.push(dc.node_voltage("sap").unwrap() - dc.node_voltage("sp").unwrap());
        }
        assert_eq!(report.margin, DistributionSummary::from(&stats));
    }

    #[test]
    fn sense_batch_zero_samples_rejected() {
        let err = sense_margin_batch_with(
            ctx45(),
            &SenseBatchOptions {
                samples: 0,
                seed: 1,
            },
            &ParallelConfig::serial(),
        )
        .unwrap_err();
        assert!(matches!(err, VaetError::InvalidOptions { .. }));
    }

    #[test]
    fn thermal_angle_statistics() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(10);
        let delta = 45.0;
        let mean_sq: f64 = (0..20_000)
            .map(|_| thermal_angle(&mut rng, delta).powi(2))
            .sum::<f64>()
            / 20_000.0;
        // E[theta^2] = 1/Delta.
        assert!(
            (mean_sq * delta - 1.0).abs() < 0.05,
            "mean_sq*delta = {}",
            mean_sq * delta
        );
    }
}
