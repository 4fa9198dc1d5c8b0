//! Netlist/stimulus/MDL template expansion.
//!
//! The characterisation flow (paper Sec. IV-A) keeps one template per cell
//! and instantiates it with technology- and sweep-specific parameters:
//! `{vdd}`, `{w_access}`, `{t_pulse}` and so on. Expansion is plain textual
//! substitution with strict unknown-placeholder detection, so a typo in a
//! template fails loudly instead of producing a silently wrong deck.

use std::collections::BTreeMap;

use crate::SpiceError;

/// A parameter binding set for template expansion.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bindings {
    values: BTreeMap<String, String>,
}

impl Bindings {
    /// Empty binding set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a string value.
    pub fn set(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.values.insert(key.to_string(), value.to_string());
        self
    }

    /// Binds a numeric value rendered with full precision.
    pub fn set_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.values.insert(key.to_string(), format!("{value:e}"));
        self
    }

    /// Looks up a binding.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }
}

/// Expands `{param}` placeholders in `template` using `bindings`.
///
/// Literal braces are written `{{` and `}}`.
///
/// # Errors
///
/// [`SpiceError::UnboundTemplateParameter`] when a placeholder has no
/// binding, and [`SpiceError::Parse`] on an unterminated `{`.
///
/// # Examples
///
/// ```
/// use mss_spice::template::{expand, Bindings};
///
/// # fn main() -> Result<(), mss_spice::SpiceError> {
/// let mut b = Bindings::new();
/// b.set("vdd", "1.0").set_f64("cap", 1e-15);
/// let deck = expand("VDD vdd 0 DC {vdd}\nC1 out 0 {cap}", &b)?;
/// assert!(deck.contains("DC 1.0"));
/// assert!(deck.contains("1e-15"));
/// # Ok(())
/// # }
/// ```
pub fn expand(template: &str, bindings: &Bindings) -> Result<String, SpiceError> {
    let mut out = String::with_capacity(template.len());
    let mut chars = template.chars().peekable();
    let mut line = 1usize;
    while let Some(c) = chars.next() {
        match c {
            '\n' => {
                line += 1;
                out.push(c);
            }
            '{' => {
                if chars.peek() == Some(&'{') {
                    chars.next();
                    out.push('{');
                    continue;
                }
                let mut name = String::new();
                let mut closed = false;
                for c2 in chars.by_ref() {
                    if c2 == '}' {
                        closed = true;
                        break;
                    }
                    name.push(c2);
                }
                if !closed {
                    return Err(SpiceError::Parse {
                        line,
                        message: format!("unterminated placeholder '{{{name}'"),
                    });
                }
                match bindings.get(name.trim()) {
                    Some(v) => out.push_str(v),
                    None => {
                        return Err(SpiceError::UnboundTemplateParameter(
                            name.trim().to_string(),
                        ))
                    }
                }
            }
            '}' => {
                if chars.peek() == Some(&'}') {
                    chars.next();
                }
                out.push('}');
            }
            _ => out.push(c),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substitutes_parameters() {
        let mut b = Bindings::new();
        b.set("r", "10k").set("node", "out");
        let s = expand("R1 in {node} {r}", &b).unwrap();
        assert_eq!(s, "R1 in out 10k");
    }

    #[test]
    fn unknown_parameter_errors() {
        let b = Bindings::new();
        let err = expand("R1 a b {mystery}", &b).unwrap_err();
        assert!(matches!(err, SpiceError::UnboundTemplateParameter(p) if p == "mystery"));
    }

    #[test]
    fn unterminated_placeholder_errors() {
        let b = Bindings::new();
        assert!(matches!(
            expand("bad {oops", &b),
            Err(SpiceError::Parse { .. })
        ));
    }

    #[test]
    fn escaped_braces_pass_through() {
        let b = Bindings::new();
        assert_eq!(expand("{{literal}}", &b).unwrap(), "{literal}");
    }

    #[test]
    fn numeric_binding_renders_scientific() {
        let mut b = Bindings::new();
        b.set_f64("c", 2.5e-15);
        assert_eq!(expand("{c}", &b).unwrap(), "2.5e-15");
    }

    #[test]
    fn whitespace_in_placeholder_is_trimmed() {
        let mut b = Bindings::new();
        b.set("x", "7");
        assert_eq!(expand("{ x }", &b).unwrap(), "7");
    }

    #[test]
    fn multiline_error_reports_line() {
        let b = Bindings::new();
        match expand("line one\nline two {bad", &b) {
            Err(SpiceError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
