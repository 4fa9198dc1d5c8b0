//! Fault-aware memory array: the resilience path of the memory hierarchy.
//!
//! The paper's MSS arrays are persistent MTJ cells, so — unlike SRAM — the
//! array itself is the dominant error source: stochastic write failures,
//! read disturbs, retention flips and fabrication stuck-at defects. This
//! module models one such array behind an ECC controller:
//!
//! - every access runs through the seeded [`FaultInjector`], so a fixed
//!   [`FaultPlan`] reproduces the exact same fault history forever; each
//!   access reads one hit list per fault kind, so its cost follows the
//!   faults it draws, not the word's width,
//! - writes are verified and retried a bounded number of times
//!   ([`FaultMemConfig::max_write_retries`]); each retry intersects the
//!   failing bits with a fresh (but reproducible) hit list,
//! - reads tally raw bit errors and classify them with
//!   [`EccScheme::classify`] into clean / corrected / detected /
//!   uncorrectable — an uncorrectable word is *counted and reported*,
//!   never a panic,
//! - corrected reads optionally repair the stored word in place
//!   ([`FaultMemConfig::demand_scrub`]), and [`FaultMemory::scrub`] walks
//!   every corrupted word in a background-scrub pass. Stuck-at cells
//!   survive any rewrite: scrubbing cannot repair them.
//!
//! Observability: the fault path increments `gemsim.fault.*` counters
//! (`injected`, `corrected`, `detected`, `uncorrectable`, `retried`) on the
//! global `mss-obs` registry when observability is enabled.

use std::collections::BTreeMap;

use mss_fault::{FaultInjector, FaultPlan};
use mss_vaet::ecc::{EccOutcome, EccScheme};

use crate::GemsimError;

/// Configuration of a fault-aware memory array: which faults to inject and
/// which code protects each word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMemConfig {
    /// Seeded fault plan (rates + seed). [`FaultPlan::disabled`] makes the
    /// array perfect.
    pub plan: FaultPlan,
    /// The ECC code protecting each stored word.
    pub scheme: EccScheme,
    /// Write-verify retries after the initial attempt (bounded; `0` means
    /// write-and-hope).
    pub max_write_retries: u32,
    /// Repair the stored word in place when a read corrects it (demand
    /// scrubbing).
    pub demand_scrub: bool,
}

impl mss_pipe::StableHash for FaultMemConfig {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        self.plan.stable_hash(h);
        self.scheme.stable_hash(h);
        h.write_u32(self.max_write_retries);
        (self.demand_scrub).stable_hash(h);
    }
}

impl FaultMemConfig {
    /// A config with the controller defaults: two write-verify retries and
    /// demand scrubbing on.
    pub fn new(plan: FaultPlan, scheme: EccScheme) -> Self {
        Self {
            plan,
            scheme,
            max_write_retries: 2,
            demand_scrub: true,
        }
    }

    /// Returns the config with a different retry budget.
    pub const fn with_max_write_retries(mut self, retries: u32) -> Self {
        self.max_write_retries = retries;
        self
    }

    /// Returns the config with demand scrubbing switched on or off.
    pub const fn with_demand_scrub(mut self, on: bool) -> Self {
        self.demand_scrub = on;
        self
    }

    /// Validates the plan and the code.
    ///
    /// # Errors
    ///
    /// [`GemsimError::InvalidSystem`] for malformed fault rates or an empty
    /// ECC block.
    pub fn validate(&self) -> Result<(), GemsimError> {
        self.plan
            .model
            .validate()
            .map_err(|e| GemsimError::InvalidSystem {
                reason: format!("fault plan: {e}"),
            })?;
        if self.scheme.block_bits() == 0 {
            return Err(GemsimError::InvalidSystem {
                reason: "fault memory ECC scheme has an empty block".into(),
            });
        }
        Ok(())
    }
}

/// What one write did: how many attempts it took and what it left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Write attempts spent (1 = first try stuck).
    pub attempts: u32,
    /// Bits still wrong after the last attempt (failed writes + mismatched
    /// stuck-at cells).
    pub residual_bits: u32,
}

/// What one read saw after ECC decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The ECC controller's verdict on the word.
    pub outcome: EccOutcome,
    /// Raw bit errors observed before decoding.
    pub raw_errors: u32,
    /// Stored bits flipped by the read current during this access.
    pub disturbed_bits: u32,
    /// Observation-only transient flips during this access.
    pub transient_bits: u32,
}

/// What one background scrub pass found among the corrupted words.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// Words repaired in place.
    pub repaired: u64,
    /// Words left with a detected-but-uncorrectable pattern.
    pub detected: u64,
    /// Words left with a potentially silent error pattern.
    pub uncorrectable: u64,
}

/// Cumulative activity of a fault-aware array (unscaled simulated counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultMemStats {
    /// Word writes issued.
    pub writes: u64,
    /// Word reads issued.
    pub reads: u64,
    /// Background scrub passes run.
    pub scrubs: u64,
    /// Faulty bits injected (first-attempt write failures, stuck-at
    /// mismatches, read disturbs, transient flips).
    pub injected_bits: u64,
    /// Write-verify retry attempts issued.
    pub write_retries: u64,
    /// Bits still wrong when a write's retry budget ran out.
    pub write_residual_bits: u64,
    /// Reads that decoded with zero raw errors.
    pub reads_clean: u64,
    /// Reads fully corrected by the code.
    pub reads_corrected: u64,
    /// Reads with a detected-but-uncorrectable pattern.
    pub reads_detected: u64,
    /// Reads with a potentially silent error pattern.
    pub reads_uncorrectable: u64,
    /// Stored words repaired (demand scrubbing + background scrubs).
    pub scrubbed_words: u64,
}

impl FaultMemStats {
    /// Reads whose data survived (clean or corrected) over all reads;
    /// `1.0` when nothing was read.
    pub fn read_survival_rate(&self) -> f64 {
        if self.reads == 0 {
            return 1.0;
        }
        (self.reads_clean + self.reads_corrected) as f64 / self.reads as f64
    }

    /// Reads the code could not fix (detected + uncorrectable) over all
    /// reads; `0.0` when nothing was read.
    pub fn read_failure_rate(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        (self.reads_detected + self.reads_uncorrectable) as f64 / self.reads as f64
    }
}

/// A fault-aware memory array behind an ECC controller.
///
/// State is sparse: only words with at least one wrong stored bit occupy
/// memory, so the array can span the full address space; a read looks its
/// word up once and writes the map back only when the word turns clean or
/// dirty. All mutation is sequential and every fault decision is a pure
/// hash of `(plan, address, epoch)` and a gap counter, so a fixed
/// operation sequence replays bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMemory {
    injector: FaultInjector,
    scheme: EccScheme,
    /// `scheme.block_bits()`, cached: every access decides this many bits.
    bits: u32,
    max_write_retries: u32,
    demand_scrub: bool,
    /// Wrong stored bits per word address (sorted bit indices).
    errors: BTreeMap<u64, Vec<u32>>,
    /// Access sequence number; each write attempt and each read consumes
    /// one, keeping every fault draw in the word's history independent.
    epoch: u64,
    stats: FaultMemStats,
}

impl FaultMemory {
    /// Builds an array from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultMemConfig::validate`].
    pub fn new(config: FaultMemConfig) -> Result<Self, GemsimError> {
        config.validate()?;
        Ok(Self {
            injector: FaultInjector::new(config.plan),
            scheme: config.scheme,
            bits: config.scheme.block_bits(),
            max_write_retries: config.max_write_retries,
            demand_scrub: config.demand_scrub,
            errors: BTreeMap::new(),
            epoch: 0,
            stats: FaultMemStats::default(),
        })
    }

    /// The activity counters so far.
    pub fn stats(&self) -> &FaultMemStats {
        &self.stats
    }

    /// The code protecting each word.
    pub fn scheme(&self) -> &EccScheme {
        &self.scheme
    }

    /// Stored bits currently wrong across the whole array.
    #[cfg(test)]
    fn residual_bit_errors(&self) -> u64 {
        self.errors.values().map(|b| b.len() as u64).sum()
    }

    /// Words currently holding at least one wrong bit.
    #[cfg(test)]
    fn corrupted_words(&self) -> u64 {
        self.errors.len() as u64
    }

    #[inline]
    fn next_epoch(&mut self) -> u64 {
        let e = self.epoch;
        self.epoch += 1;
        e
    }

    /// Writes the word at `addr` with write-verify: bits that fail are
    /// rewritten up to the retry budget, each retry drawing fresh outcomes.
    /// Mismatched stuck-at cells can never be repaired by rewriting.
    pub fn write(&mut self, addr: u64) -> WriteOutcome {
        self.stats.writes += 1;
        let bits = self.bits;
        let epoch = self.next_epoch();
        // Partition the word: stuck cells err iff their frozen value
        // mismatches the data (an independent fair hash bit, as in
        // `mss-fault` campaigns); healthy cells err per write attempt.
        let stuck: Vec<(u32, bool)> = self.injector.stuck_word(addr).stuck_hits(bits).collect();
        let mut residual: Vec<u32> = stuck
            .iter()
            .filter(|&&(_, value)| value)
            .map(|&(bit, _)| bit)
            .collect();
        let mut failing: Vec<u32> = self
            .injector
            .write_word(addr, epoch)
            .hits(bits)
            .filter(|bit| stuck.binary_search_by_key(bit, |&(b, _)| b).is_err())
            .collect();
        let injected = (residual.len() + failing.len()) as u64;
        self.stats.injected_bits += injected;
        let mut attempts = 1u32;
        while let Some(&last) = failing.last() {
            if attempts > self.max_write_retries {
                break;
            }
            let epoch = self.next_epoch();
            attempts += 1;
            self.stats.write_retries += 1;
            // A bit stays failing iff the retry draw hits it too; the
            // retry's hits are walked only up to the last failing bit.
            let retry = self.injector.write_word(addr, epoch).hits(last + 1);
            retain_hits(&mut failing, retry);
        }
        residual.extend_from_slice(&failing);
        residual.sort_unstable();
        let residual_bits = residual.len() as u32;
        self.stats.write_residual_bits += residual_bits as u64;
        if residual.is_empty() {
            self.errors.remove(&addr);
        } else {
            self.errors.insert(addr, residual);
        }
        if mss_obs::enabled() {
            mss_obs::counter_add("gemsim.fault.injected", injected);
            mss_obs::counter_add("gemsim.fault.retried", (attempts - 1) as u64);
        }
        WriteOutcome {
            attempts,
            residual_bits,
        }
    }

    /// Reads the word at `addr`: read disturbs flip *stored* bits, transient
    /// flips corrupt only this observation, and the ECC controller
    /// classifies the union. Uncorrectable words are counted and reported —
    /// degradation is graceful by construction.
    pub fn read(&mut self, addr: u64) -> ReadOutcome {
        self.stats.reads += 1;
        let bits = self.bits;
        let epoch = self.next_epoch();
        // One lookup: a tracked word changes in place; a clean one starts
        // from an empty list that is inserted only if the read dirties it.
        let mut fresh = Vec::new();
        let (stored, tracked) = match self.errors.get_mut(&addr) {
            Some(stored) => (stored, true),
            None => (&mut fresh, false),
        };
        let mut disturbed_bits = 0u32;
        for bit in self.injector.read_disturb_word(addr, epoch).hits(bits) {
            toggle(stored, bit);
            disturbed_bits += 1;
        }
        // Transients corrupt only this observation, never the stored state:
        // the sensed word differs from the truth where the stored state is
        // wrong XOR the sense amp glitched.
        let (mut transient_bits, mut both) = (0u32, 0u32);
        for bit in self.injector.transient_word(addr, epoch).hits(bits) {
            transient_bits += 1;
            both += u32::from(stored.binary_search(&bit).is_ok());
        }
        let raw_errors = stored.len() as u32 + transient_bits - 2 * both;
        let outcome = self.scheme.classify(raw_errors);
        match outcome {
            EccOutcome::Clean => self.stats.reads_clean += 1,
            EccOutcome::Corrected => self.stats.reads_corrected += 1,
            EccOutcome::Detected => self.stats.reads_detected += 1,
            EccOutcome::Uncorrectable => self.stats.reads_uncorrectable += 1,
        }
        self.stats.injected_bits += (disturbed_bits + transient_bits) as u64;
        // Demand scrub: a corrected read recovered the true data, so the
        // controller rewrites the word — which fixes everything except
        // stuck-at cells.
        if self.demand_scrub && outcome == EccOutcome::Corrected && !stored.is_empty() {
            let before = stored.len();
            repair(&self.injector, addr, stored);
            if stored.len() < before {
                self.stats.scrubbed_words += 1;
            }
        }
        match (tracked, stored.is_empty()) {
            (true, true) => {
                self.errors.remove(&addr);
            }
            (false, false) => {
                self.errors.insert(addr, fresh);
            }
            _ => {}
        }
        if mss_obs::enabled() {
            mss_obs::counter_add(
                "gemsim.fault.injected",
                (disturbed_bits + transient_bits) as u64,
            );
            match outcome {
                EccOutcome::Clean => {}
                EccOutcome::Corrected => mss_obs::counter_add("gemsim.fault.corrected", 1),
                EccOutcome::Detected => mss_obs::counter_add("gemsim.fault.detected", 1),
                EccOutcome::Uncorrectable => mss_obs::counter_add("gemsim.fault.uncorrectable", 1),
            }
        }
        ReadOutcome {
            outcome,
            raw_errors,
            disturbed_bits,
            transient_bits,
        }
    }

    /// Background scrub: walks every corrupted word and repairs those the
    /// code can correct (except stuck-at cells, which survive any rewrite).
    /// Words beyond the correction strength are left in place and counted
    /// in the returned [`ScrubOutcome`]; a scrub issues no reads, so the
    /// read counters in [`FaultMemStats`] do not move.
    pub fn scrub(&mut self) -> ScrubOutcome {
        self.stats.scrubs += 1;
        let mut out = ScrubOutcome::default();
        let (injector, scheme) = (&self.injector, &self.scheme);
        self.errors.retain(|&addr, bits| {
            match scheme.classify(bits.len() as u32) {
                EccOutcome::Clean => {}
                EccOutcome::Corrected => {
                    let before = bits.len();
                    repair(injector, addr, bits);
                    if bits.len() < before {
                        out.repaired += 1;
                    }
                }
                EccOutcome::Detected => out.detected += 1,
                EccOutcome::Uncorrectable => out.uncorrectable += 1,
            }
            !bits.is_empty()
        });
        self.stats.scrubbed_words += out.repaired;
        if mss_obs::enabled() {
            mss_obs::counter_add("gemsim.fault.corrected", out.repaired);
            mss_obs::counter_add("gemsim.fault.detected", out.detected);
            mss_obs::counter_add("gemsim.fault.uncorrectable", out.uncorrectable);
        }
        out
    }
}

/// Rewrites a corrected word: every wrong bit is fixed except cells whose
/// stuck value mismatches the data (rewriting cannot move them).
fn repair(injector: &FaultInjector, addr: u64, bits: &mut Vec<u32>) {
    let Some(&last) = bits.last() else {
        return;
    };
    let mismatched = injector
        .stuck_word(addr)
        .stuck_hits(last + 1)
        .filter(|&(_, value)| value)
        .map(|(cell, _)| cell);
    retain_hits(bits, mismatched);
}

/// Keeps the bits of the sorted list `bits` that the ascending `hits`
/// also holds: one merge of the two.
fn retain_hits(bits: &mut Vec<u32>, hits: impl Iterator<Item = u32>) {
    let mut hits = hits.peekable();
    bits.retain(|&bit| {
        while hits.next_if(|&hit| hit < bit).is_some() {}
        hits.next_if_eq(&bit).is_some()
    });
}

/// Toggles membership of `bit` in a sorted bit list (a flip of an already
/// wrong bit makes it right again).
fn toggle(bits: &mut Vec<u32>, bit: u32) {
    match bits.binary_search(&bit) {
        Ok(i) => {
            bits.remove(i);
        }
        Err(i) => bits.insert(i, bit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_fault::FaultModel;

    fn plan(seed: u64, f: impl FnOnce(&mut FaultModel)) -> FaultPlan {
        let mut m = FaultModel::none();
        f(&mut m);
        FaultPlan::new(seed, m).expect("valid model")
    }

    fn mem(config: FaultMemConfig) -> FaultMemory {
        FaultMemory::new(config).expect("valid config")
    }

    #[test]
    fn perfect_array_stays_perfect() {
        let mut m = mem(FaultMemConfig::new(
            FaultPlan::disabled(),
            EccScheme::bch(1, 64),
        ));
        for addr in 0..64 {
            let w = m.write(addr);
            assert_eq!(w.attempts, 1);
            assert_eq!(w.residual_bits, 0);
            let r = m.read(addr);
            assert_eq!(r.outcome, EccOutcome::Clean);
            assert_eq!(r.raw_errors, 0);
        }
        assert_eq!(m.residual_bit_errors(), 0);
        assert_eq!(m.stats().reads_clean, 64);
        assert_eq!(m.stats().read_failure_rate(), 0.0);
        assert_eq!(m.stats().read_survival_rate(), 1.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut bad = FaultPlan::disabled();
        bad.model.write_fail_rate = 2.0;
        let err = FaultMemory::new(FaultMemConfig::new(bad, EccScheme::bch(1, 64)))
            .expect_err("bad rate");
        assert!(err.to_string().contains("fault plan"));
        let err = FaultMemory::new(FaultMemConfig::new(
            FaultPlan::disabled(),
            EccScheme::bch(0, 0),
        ))
        .expect_err("empty block");
        assert!(err.to_string().contains("empty block"));
    }

    #[test]
    fn write_retry_drains_failing_bits() {
        // At a 30% WER, a retried write leaves far fewer residual errors
        // than a write-and-hope one.
        let p = plan(21, |m| m.write_fail_rate = 0.3);
        let scheme = EccScheme::bch(1, 64);
        let mut none = mem(FaultMemConfig::new(p, scheme).with_max_write_retries(0));
        let mut four = mem(FaultMemConfig::new(p, scheme).with_max_write_retries(4));
        let (mut res_none, mut res_four) = (0u64, 0u64);
        for addr in 0..200 {
            res_none += none.write(addr).residual_bits as u64;
            res_four += four.write(addr).residual_bits as u64;
        }
        assert!(res_none > 0);
        // E[residual] drops by ~0.3^4; leave slack for the small sample.
        assert!(
            (res_four as f64) < 0.05 * res_none as f64,
            "retries left {res_four} of {res_none}"
        );
        assert!(four.stats().write_retries > 0);
        assert_eq!(none.stats().write_retries, 0);
    }

    #[test]
    fn uncorrectable_words_are_reported_not_panicked() {
        // Overwhelm a weak code: ~30% of stored bits wrong means nearly
        // every word exceeds t = 1.
        let p = plan(5, |m| m.write_fail_rate = 0.3);
        let mut m = mem(FaultMemConfig::new(p, EccScheme::bch(1, 64)).with_max_write_retries(0));
        for addr in 0..100 {
            m.write(addr);
            let r = m.read(addr);
            assert!(r.raw_errors <= m.scheme().block_bits());
        }
        let s = *m.stats();
        assert!(s.reads_detected + s.reads_uncorrectable > 0);
        assert_eq!(
            s.reads_clean + s.reads_corrected + s.reads_detected + s.reads_uncorrectable,
            s.reads
        );
        assert!(s.read_failure_rate() > 0.5);
    }

    #[test]
    fn demand_scrub_repairs_corrected_words() {
        // A mild WER with a strong code: most faulty words are corrected on
        // read and repaired in place, so a second read of every address
        // sees a (near-)clean array.
        let p = plan(9, |m| m.write_fail_rate = 0.01);
        let mut m = mem(FaultMemConfig::new(p, EccScheme::bch(4, 64)).with_max_write_retries(0));
        for addr in 0..500 {
            m.write(addr);
        }
        assert!(m.residual_bit_errors() > 0);
        for addr in 0..500 {
            m.read(addr);
        }
        assert!(m.stats().scrubbed_words > 0);
        // Every correctable word was repaired in place; only words beyond
        // the correction strength (if any) may still be corrupted.
        for bits in m.errors.values() {
            assert!(bits.len() as u32 > m.scheme().correctable);
        }
    }

    #[test]
    fn background_scrub_repairs_correctable_words_only() {
        let p = plan(13, |m| m.write_fail_rate = 0.02);
        let mut m = mem(FaultMemConfig::new(p, EccScheme::bch(2, 64))
            .with_max_write_retries(0)
            .with_demand_scrub(false));
        for addr in 0..2_000 {
            m.write(addr);
        }
        let corrupted = m.corrupted_words();
        assert!(corrupted > 0);
        let scrub = m.scrub();
        assert!(scrub.repaired > 0);
        assert_eq!(m.corrupted_words(), corrupted - scrub.repaired);
        assert_eq!(
            m.corrupted_words(),
            scrub.detected + scrub.uncorrectable,
            "every survivor is beyond the correction strength"
        );
        // Whatever survived the scrub is beyond the correction strength.
        for bits in m.errors.values() {
            assert!(bits.len() as u32 > m.scheme().correctable);
        }
    }

    #[test]
    fn scrub_leaves_the_read_counters_alone() {
        // A scrub issues no reads: the words it cannot fix must not show up
        // as failed reads, or the read verdicts stop summing to `reads`.
        let p = plan(13, |m| m.write_fail_rate = 0.02);
        let mut m = mem(FaultMemConfig::new(p, EccScheme::bch(2, 64))
            .with_max_write_retries(0)
            .with_demand_scrub(false));
        for addr in 0..2_000 {
            m.write(addr);
        }
        let scrub = m.scrub();
        assert!(
            scrub.detected + scrub.uncorrectable > 0,
            "test has no power"
        );
        m.read(0);
        let s = *m.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(
            s.reads_clean + s.reads_corrected + s.reads_detected + s.reads_uncorrectable,
            s.reads
        );
        assert!(s.read_failure_rate() <= 1.0);
        assert_eq!(s.scrubs, 1);
        assert_eq!(s.scrubbed_words, scrub.repaired);
    }

    #[test]
    fn stuck_cells_survive_scrubbing() {
        let p = plan(17, |m| m.stuck_at_rate = 0.02);
        let mut m = mem(FaultMemConfig::new(p, EccScheme::bch(4, 64)));
        for addr in 0..200 {
            m.write(addr);
        }
        let before = m.residual_bit_errors();
        assert!(before > 0, "no stuck mismatches at rate 0.02");
        m.scrub();
        // Stuck mismatches are immovable: scrubbing repairs nothing here.
        assert_eq!(m.residual_bit_errors(), before);
    }

    #[test]
    fn operation_sequences_replay_bit_identically() {
        let p = plan(33, |m| {
            m.write_fail_rate = 0.05;
            m.read_disturb_rate = 0.01;
            m.transient_flip_rate = 0.005;
            m.stuck_at_rate = 0.001;
        });
        let cfg = FaultMemConfig::new(p, EccScheme::bch(2, 128));
        let run = |cfg: FaultMemConfig| {
            let mut m = mem(cfg);
            let mut log = Vec::new();
            for addr in 0..300 {
                log.push((m.write(addr).residual_bits, 0));
            }
            for addr in (0..300).rev() {
                let r = m.read(addr);
                log.push((r.raw_errors, r.disturbed_bits + r.transient_bits));
            }
            m.scrub();
            (log, *m.stats(), m.residual_bit_errors())
        };
        assert_eq!(run(cfg), run(cfg));
    }

    /// Golden values of the geometric-gap draw: all four fault kinds
    /// through writes, retries, reads, demand and background scrub. Unlike
    /// the replay test above, a change that moves any single fault draw
    /// fails here.
    #[test]
    fn mixed_plan_matches_pinned_golden() {
        let p = plan(33, |m| {
            m.write_fail_rate = 0.05;
            m.read_disturb_rate = 0.01;
            m.transient_flip_rate = 0.005;
            m.stuck_at_rate = 0.001;
        });
        let mut m = mem(FaultMemConfig::new(p, EccScheme::bch(2, 128)));
        let mut log = 0u64;
        let mut fold = |v: u32| log = (log ^ v as u64).wrapping_mul(0x0100_0000_01B3);
        for addr in 0..300 {
            let w = m.write(addr);
            fold(w.attempts);
            fold(w.residual_bits);
        }
        for addr in (0..300).rev() {
            let r = m.read(addr);
            fold(r.raw_errors);
            fold(r.disturbed_bits);
            fold(r.transient_bits);
        }
        assert_eq!(log, 0xd170_acba_4edc_715a);
        assert_eq!(
            *m.stats(),
            FaultMemStats {
                writes: 300,
                reads: 300,
                scrubs: 0,
                injected_bits: 2802,
                write_retries: 384,
                write_residual_bits: 24,
                reads_clean: 28,
                reads_corrected: 152,
                reads_detected: 63,
                reads_uncorrectable: 57,
                scrubbed_words: 122,
            }
        );
        assert_eq!(m.residual_bit_errors(), 329);
        assert_eq!(m.scrub().repaired, 58);
        assert_eq!(m.residual_bit_errors(), 226);
        assert_eq!(m.corrupted_words(), 73);
    }

    #[test]
    fn read_disturb_accumulates_into_stored_state() {
        // Disturb-only plan: repeated reads of the same word keep flipping
        // stored bits, so errors accumulate over time without any writes
        // failing. Demand scrub off to watch the decay.
        let p = plan(41, |m| m.read_disturb_rate = 0.004);
        let mut m = mem(FaultMemConfig::new(p, EccScheme::bch(1, 256)).with_demand_scrub(false));
        m.write(7);
        assert_eq!(m.residual_bit_errors(), 0);
        for _ in 0..200 {
            m.read(7);
        }
        assert!(
            m.residual_bit_errors() > 0,
            "200 disturb-prone reads left no trace"
        );
    }

    #[test]
    fn transients_do_not_corrupt_stored_state() {
        let p = plan(43, |m| m.transient_flip_rate = 0.01);
        let mut m = mem(FaultMemConfig::new(p, EccScheme::bch(1, 256)));
        m.write(1);
        let mut observed = 0u32;
        for _ in 0..100 {
            observed += m.read(1).transient_bits;
        }
        assert!(observed > 0, "no transient fired in 100 reads at 1%");
        // Observation-only: the array itself never degraded.
        assert_eq!(m.residual_bit_errors(), 0);
    }
}
