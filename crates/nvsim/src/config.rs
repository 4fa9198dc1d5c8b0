//! Memory-array organisation.

use crate::NvsimError;

/// What the array is used as (affects tag overhead and access pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// A flat random-access memory.
    Ram,
    /// A set-associative cache: adds a tag array and a way-select step.
    Cache {
        /// Associativity (ways).
        associativity: u32,
        /// Line size in bytes.
        line_bytes: u32,
    },
}

/// The organisation of one memory macro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Total capacity in bytes.
    pub(crate) capacity_bytes: u64,
    /// Access word width in bits.
    pub word_bits: u32,
    /// Number of banks (accessed independently; latency is per bank).
    pub(crate) banks: u32,
    /// Rows per subarray.
    pub subarray_rows: u32,
    /// Columns per subarray.
    pub subarray_cols: u32,
    /// RAM or cache.
    pub(crate) kind: MemoryKind,
}

impl mss_pipe::StableHash for MemoryKind {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        match self {
            MemoryKind::Ram => h.write_u8(0),
            MemoryKind::Cache {
                associativity,
                line_bytes,
            } => {
                h.write_u8(1);
                h.write_u32(*associativity);
                h.write_u32(*line_bytes);
            }
        }
    }
}

impl mss_pipe::StableHash for MemoryConfig {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_u64(self.capacity_bytes);
        h.write_u32(self.word_bits);
        h.write_u32(self.banks);
        h.write_u32(self.subarray_rows);
        h.write_u32(self.subarray_cols);
        self.kind.stable_hash(h);
    }
}

impl MemoryConfig {
    /// A single-bank RAM with a default 512×512 subarray tiling.
    ///
    /// # Errors
    ///
    /// [`NvsimError::InvalidOrganization`] on inconsistent parameters.
    pub fn ram(capacity_bytes: u64, word_bits: u32) -> Result<Self, NvsimError> {
        Self::new(capacity_bytes, word_bits, 1, 512, 512, MemoryKind::Ram)
    }

    /// A cache macro with a default subarray tiling.
    ///
    /// # Errors
    ///
    /// [`NvsimError::InvalidOrganization`] on inconsistent parameters.
    pub fn cache(
        capacity_bytes: u64,
        associativity: u32,
        line_bytes: u32,
    ) -> Result<Self, NvsimError> {
        Self::new(
            capacity_bytes,
            line_bytes * 8,
            1,
            512,
            512,
            MemoryKind::Cache {
                associativity,
                line_bytes,
            },
        )
    }

    /// Fully explicit constructor.
    ///
    /// # Errors
    ///
    /// [`NvsimError::InvalidOrganization`] when any of the consistency rules
    /// fail (power-of-two subarrays, capacity divisible by word, non-zero
    /// everything).
    pub fn new(
        capacity_bytes: u64,
        word_bits: u32,
        banks: u32,
        subarray_rows: u32,
        subarray_cols: u32,
        kind: MemoryKind,
    ) -> Result<Self, NvsimError> {
        let fail = |reason: String| Err(NvsimError::InvalidOrganization { reason });
        if capacity_bytes == 0 {
            return fail("capacity must be non-zero".into());
        }
        if word_bits == 0 || banks == 0 || subarray_rows == 0 || subarray_cols == 0 {
            return fail("word width, banks and subarray dimensions must be non-zero".into());
        }
        if !subarray_rows.is_power_of_two() || !subarray_cols.is_power_of_two() {
            return fail(format!(
                "subarray dimensions must be powers of two, got {subarray_rows}x{subarray_cols}"
            ));
        }
        let total_bits = capacity_bytes * 8;
        if !total_bits.is_multiple_of(word_bits as u64) {
            return fail(format!(
                "capacity {total_bits} bits is not divisible by the {word_bits}-bit word"
            ));
        }
        if !total_bits.is_multiple_of(banks as u64) {
            return fail(format!("capacity not divisible across {banks} banks"));
        }
        let bank_bits = total_bits / banks as u64;
        let sub_bits = subarray_rows as u64 * subarray_cols as u64;
        if bank_bits < sub_bits {
            return fail(format!(
                "bank of {bank_bits} bits smaller than one {subarray_rows}x{subarray_cols} subarray"
            ));
        }
        if let MemoryKind::Cache {
            associativity,
            line_bytes,
        } = kind
        {
            if associativity == 0 || !associativity.is_power_of_two() {
                return fail(format!(
                    "associativity {associativity} must be a power of two"
                ));
            }
            if line_bytes == 0 {
                return fail("line size must be non-zero".into());
            }
            if !capacity_bytes.is_multiple_of(associativity as u64 * line_bytes as u64) {
                return fail("capacity not divisible by associativity x line size".into());
            }
        }
        Ok(Self {
            capacity_bytes,
            word_bits,
            banks,
            subarray_rows,
            subarray_cols,
            kind,
        })
    }

    /// Total storage bits.
    pub fn total_bits(&self) -> u64 {
        self.capacity_bytes * 8
    }

    /// Bits per bank.
    pub(crate) fn bank_bits(&self) -> u64 {
        self.total_bits() / self.banks as u64
    }

    /// Subarrays per bank (rounded up so capacity always fits).
    pub(crate) fn subarrays_per_bank(&self) -> u64 {
        let sub_bits = self.subarray_rows as u64 * self.subarray_cols as u64;
        self.bank_bits().div_ceil(sub_bits)
    }

    /// Number of cache sets (`None` for RAM).
    pub(crate) fn cache_sets(&self) -> Option<u64> {
        match self.kind {
            MemoryKind::Ram => None,
            MemoryKind::Cache {
                associativity,
                line_bytes,
            } => Some(self.capacity_bytes / (associativity as u64 * line_bytes as u64)),
        }
    }

    /// Tag bits per line for a 48-bit physical address space (`0` for RAM).
    pub(crate) fn tag_bits(&self) -> u32 {
        match self.kind {
            MemoryKind::Ram => 0,
            MemoryKind::Cache { line_bytes, .. } => {
                let sets = self.cache_sets().expect("cache has sets");
                let offset_bits = (line_bytes as f64).log2().ceil() as u32;
                let index_bits = (sets as f64).log2().ceil() as u32;
                48u32.saturating_sub(offset_bits + index_bits)
            }
        }
    }

    /// Returns a copy with a different subarray tiling.
    ///
    /// # Errors
    ///
    /// Propagates [`MemoryConfig::new`] validation.
    pub fn with_subarray(&self, rows: u32, cols: u32) -> Result<Self, NvsimError> {
        Self::new(
            self.capacity_bytes,
            self.word_bits,
            self.banks,
            rows,
            cols,
            self.kind,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_constructor_defaults() {
        let c = MemoryConfig::ram(1 << 20, 64).unwrap();
        assert_eq!(c.total_bits(), 8 << 20);
        assert_eq!(c.banks, 1);
        assert_eq!(c.subarrays_per_bank(), (8 << 20) / (512 * 512));
        assert_eq!(c.tag_bits(), 0);
        assert!(c.cache_sets().is_none());
    }

    #[test]
    fn cache_has_tags_and_sets() {
        // 512 KiB, 8-way, 64 B lines -> 1024 sets.
        let c = MemoryConfig::cache(512 << 10, 8, 64).unwrap();
        assert_eq!(c.cache_sets(), Some(1024));
        // 48 - 6 (offset) - 10 (index) = 32 tag bits.
        assert_eq!(c.tag_bits(), 32);
    }

    #[test]
    fn rejects_inconsistencies() {
        assert!(MemoryConfig::ram(0, 64).is_err());
        assert!(MemoryConfig::ram(1 << 20, 0).is_err());
        assert!(MemoryConfig::new(1 << 20, 64, 1, 500, 512, MemoryKind::Ram).is_err());
        assert!(MemoryConfig::new(1 << 10, 64, 1, 4096, 4096, MemoryKind::Ram).is_err());
        assert!(MemoryConfig::new(
            1 << 20,
            64,
            1,
            512,
            512,
            MemoryKind::Cache {
                associativity: 3,
                line_bytes: 64
            }
        )
        .is_err());
    }

    #[test]
    fn capacity_must_divide_by_word() {
        // 800 bits is not an integral number of 64-bit words.
        assert!(MemoryConfig::ram(100, 64).is_err());
        // 1 KiB with a small explicit subarray is fine.
        assert!(MemoryConfig::new(1024, 64, 1, 64, 128, MemoryKind::Ram).is_ok());
        // But the default 512x512 subarray cannot fit in 128 bytes.
        assert!(MemoryConfig::ram(128, 64).is_err());
    }

    #[test]
    fn with_subarray_changes_tiling() {
        let c = MemoryConfig::ram(1 << 20, 64).unwrap();
        let c2 = c.with_subarray(1024, 1024).unwrap();
        assert_eq!(c2.subarrays_per_bank(), 8);
        assert!(c.with_subarray(0, 512).is_err());
    }
}
