//! Engineering-notation formatting for report tables.
//!
//! Every experiment binary prints paper-style rows; this module gives them a
//! consistent `4.9 ns` / `159.0 pJ` rendering.

use std::fmt;

/// Wraps a value for engineering-notation display with a unit suffix.
///
/// # Examples
///
/// ```
/// use mss_units::fmt::Eng;
///
/// assert_eq!(Eng(4.9e-9, "s").to_string(), "4.900 ns");
/// assert_eq!(Eng(159.0e-12, "J").to_string(), "159.0 pJ");
/// assert_eq!(Eng(0.0, "A").to_string(), "0.000 A");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eng(pub f64, pub &'static str);

const PREFIXES: &[(f64, &str)] = &[
    (1e-18, "a"),
    (1e-15, "f"),
    (1e-12, "p"),
    (1e-9, "n"),
    (1e-6, "u"),
    (1e-3, "m"),
    (1.0, ""),
    (1e3, "k"),
    (1e6, "M"),
    (1e9, "G"),
    (1e12, "T"),
];

impl fmt::Display for Eng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v == 0.0 || !v.is_finite() {
            return write!(f, "{:.3} {}", v, self.1);
        }
        let mag = v.abs();
        let mut scale = 1e-18;
        let mut prefix = "a";
        for &(s, p) in PREFIXES {
            if mag >= s {
                scale = s;
                prefix = p;
            }
        }
        let scaled = v / scale;
        // Keep 4 significant digits: width depends on the mantissa size.
        let digits = if scaled.abs() >= 100.0 {
            1
        } else if scaled.abs() >= 10.0 {
            2
        } else {
            3
        };
        write!(f, "{:.*} {}{}", digits, scaled, prefix, self.1)
    }
}

/// Renders a ratio as a percentage with sign, e.g. `-17.3%`.
#[cfg(test)]
pub(crate) fn pct(ratio: f64) -> String {
    format!("{:+.1}%", ratio * 100.0)
}

/// Left-pads `s` to `width` columns (simple ASCII table helper).
#[cfg(test)]
pub(crate) fn pad(s: &str, width: usize) -> String {
    if s.len() >= width {
        s.to_string()
    } else {
        format!("{}{}", " ".repeat(width - s.len()), s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engineering_prefixes() {
        assert_eq!(Eng(1.7e-9, "s").to_string(), "1.700 ns");
        assert_eq!(Eng(425.0e-12, "J").to_string(), "425.0 pJ");
        assert_eq!(Eng(2.0e9, "Hz").to_string(), "2.000 GHz");
        assert_eq!(Eng(32.0e3, "B").to_string(), "32.00 kB");
        assert_eq!(Eng(-5.5e-6, "A").to_string(), "-5.500 uA");
    }

    #[test]
    fn sub_atto_values_render_in_atto() {
        // Below the smallest prefix we still render something sensible.
        let s = Eng(1e-21, "J").to_string();
        assert!(s.ends_with("aJ"), "{s}");
    }

    #[test]
    fn pct_formats_sign() {
        assert_eq!(pct(-0.173), "-17.3%");
        assert_eq!(pct(0.5), "+50.0%");
    }

    #[test]
    fn pad_widths() {
        assert_eq!(pad("ab", 5), "   ab");
        assert_eq!(pad("abcdef", 3), "abcdef");
    }
}
