//! A minimal complex number for AC (frequency-domain) circuit analysis.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A complex number `re + j·im` of `f64` parts.
///
/// # Examples
///
/// ```
/// use mss_units::complex::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert!((z.abs() - 5.0).abs() < 1e-12);
/// let w = z * z.conj();
/// assert!((w.re - 25.0).abs() < 1e-12 && w.im.abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit j.
    #[cfg(test)]
    pub(crate) const J: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates `re + j·im`.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely real value.
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Magnitude |z|.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase in radians, `atan2(im, re)`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on division by (numerical) zero.
    pub(crate) fn recip(self) -> Self {
        let d = self.re * self.re + self.im * self.im;
        debug_assert!(d > 0.0, "reciprocal of zero");
        Self::new(self.re / d, -self.im / d)
    }

    /// True when both parts are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

impl Add for Complex {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Neg for Complex {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Mul for Complex {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex {
    type Output = Self;
    fn div(self, rhs: Self) -> Self {
        #[allow(clippy::suspicious_arithmetic_impl)]
        {
            self * rhs.recip()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(2.0, -3.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
        assert_eq!(-(-z), z);
        let r = z * z.recip();
        assert!((r.re - 1.0).abs() < 1e-12 && r.im.abs() < 1e-12);
    }

    #[test]
    fn j_squared_is_minus_one() {
        let j2 = Complex::J * Complex::J;
        assert!((j2.re + 1.0).abs() < 1e-15 && j2.im.abs() < 1e-15);
    }

    #[test]
    fn polar_quantities() {
        let z = Complex::new(0.0, 2.0);
        assert!((z.abs() - 2.0).abs() < 1e-15);
        assert!((z.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
    }

    #[test]
    fn division() {
        let a = Complex::new(1.0, 1.0);
        let b = Complex::new(0.0, 1.0);
        let q = a / b; // (1+j)/j = 1 - j
        assert!((q.re - 1.0).abs() < 1e-12 && (q.im + 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_real() {
        let z: Complex = 4.0.into();
        assert_eq!(z, Complex::real(4.0));
        assert!(z.is_finite());
    }
}
