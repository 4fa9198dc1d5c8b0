//! A minimal 3-vector for macrospin dynamics.
//!
//! The LLG solver in `mss-mtj` integrates the unit magnetization vector; this
//! type provides exactly the operations that requires (dot/cross products,
//! normalisation, scaling) with `Copy` semantics and no external dependency.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A 3-component vector of `f64`.
///
/// # Examples
///
/// ```
/// use mss_units::Vec3;
///
/// let z = Vec3::unit_z();
/// let x = Vec3::unit_x();
/// assert_eq!(x.cross(z), -Vec3::unit_y());
/// assert!((z.norm() - 1.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub(crate) x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// The zero vector.
    #[inline]
    pub const fn zero() -> Self {
        Self::new(0.0, 0.0, 0.0)
    }

    /// The +x unit vector.
    #[inline]
    pub const fn unit_x() -> Self {
        Self::new(1.0, 0.0, 0.0)
    }

    /// The +y unit vector.
    #[inline]
    pub const fn unit_y() -> Self {
        Self::new(0.0, 1.0, 0.0)
    }

    /// The +z unit vector.
    #[inline]
    pub const fn unit_z() -> Self {
        Self::new(0.0, 0.0, 1.0)
    }

    /// Dot product.
    #[inline]
    pub(crate) fn dot(self, rhs: Self) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Self) -> Self {
        Self::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Returns the vector scaled to unit length.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the vector is (numerically) zero.
    #[inline]
    pub fn normalized(self) -> Self {
        let n = self.norm();
        debug_assert!(n > 0.0, "cannot normalise the zero vector");
        self / n
    }

    /// Polar angle from +z in radians, in `[0, π]`.
    #[inline]
    pub fn polar_angle(self) -> f64 {
        (self.z / self.norm()).clamp(-1.0, 1.0).acos()
    }

    /// Azimuthal angle in the x–y plane in radians, in `(-π, π]`.
    #[cfg(test)]
    #[inline]
    pub(crate) fn azimuth(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Builds a unit vector from spherical angles (`theta` from +z,
    /// `phi` around z from +x).
    #[inline]
    pub fn from_spherical(theta: f64, phi: f64) -> Self {
        Self::new(
            theta.sin() * phi.cos(),
            theta.sin() * phi.sin(),
            theta.cos(),
        )
    }

    /// True when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Neg for Vec3 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_product_is_right_handed() {
        assert_eq!(Vec3::unit_x().cross(Vec3::unit_y()), Vec3::unit_z());
        assert_eq!(Vec3::unit_y().cross(Vec3::unit_z()), Vec3::unit_x());
        assert_eq!(Vec3::unit_z().cross(Vec3::unit_x()), Vec3::unit_y());
    }

    #[test]
    fn cross_is_orthogonal_to_operands() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-0.5, 0.7, 2.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
    }

    #[test]
    fn spherical_round_trip() {
        let theta = 0.7;
        let phi = -1.3;
        let v = Vec3::from_spherical(theta, phi);
        assert!((v.norm() - 1.0).abs() < 1e-14);
        assert!((v.polar_angle() - theta).abs() < 1e-12);
        assert!((v.azimuth() - phi).abs() < 1e-12);
    }

    #[test]
    fn normalized_has_unit_norm() {
        let v = Vec3::new(3.0, -4.0, 12.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Vec3::new(1.0, -2.0, 0.5);
        assert_eq!(a + Vec3::zero(), a);
        assert_eq!(a - a, Vec3::zero());
        assert_eq!(a * 2.0, 2.0 * a);
        assert_eq!((a * 2.0) / 2.0, a);
        assert_eq!(-(-a), a);
    }
}
