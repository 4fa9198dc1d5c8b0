//! Run-time choice of a vector kernel.
//!
//! A hot loop that ships a hand-vectorized body (the
//! [`crate::rng::Xoshiro256Lanes`] block generator) builds it once per
//! instruction set and picks one per call with [`Kernel::detect`].
//!
//! A [`Kernel`] can only be made by [`Kernel::detect`], [`Kernel::available`]
//! or `Kernel::PORTABLE`, so one that names an instruction set is proof
//! that the CPU has every feature that set's builds enable. The `unsafe`
//! calls into `#[target_feature]` code rely on that.

/// The instruction sets a vector kernel is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// AVX-512 F, DQ, VL and BW.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// No vector extension: plain scalar code.
    Portable,
}

/// A vector kernel the host can run: an [`Isa`] whose features the CPU
/// was seen to have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel(Isa);

impl Kernel {
    /// The scalar kernel, which every host runs.
    pub(crate) const PORTABLE: Kernel = Kernel(Isa::Portable);

    /// The widest kernel this host runs.
    #[inline]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx512() {
                return Kernel(Isa::Avx512);
            }
            if is_x86_feature_detected!("avx2") {
                return Kernel(Isa::Avx2);
            }
        }
        Self::PORTABLE
    }

    /// Every kernel this host runs, widest first; the last is always
    /// `Kernel::PORTABLE`. Tests use it to compare each build against
    /// the scalar one.
    #[cfg(test)]
    pub fn available() -> Vec<Self> {
        #[allow(unused_mut)]
        let mut kernels = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx512() {
                kernels.push(Kernel(Isa::Avx512));
            }
            if is_x86_feature_detected!("avx2") {
                kernels.push(Kernel(Isa::Avx2));
            }
        }
        kernels.push(Self::PORTABLE);
        kernels
    }

    /// The instruction set this kernel runs.
    #[inline]
    pub fn isa(self) -> Isa {
        self.0
    }

    /// `"avx512"`, `"avx2"` or `"portable"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            Isa::Portable => "portable",
        }
    }
}

/// The four AVX-512 subsets every [`Isa::Avx512`] build enables.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx512() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx512bw")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_the_widest_available_kernel() {
        let all = Kernel::available();
        assert_eq!(all[0], Kernel::detect());
        assert_eq!(all.last(), Some(&Kernel::PORTABLE));
        assert_eq!(Kernel::PORTABLE.name(), "portable");
    }
}
