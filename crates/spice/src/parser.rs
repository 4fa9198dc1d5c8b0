//! SPICE-like text-deck parser.
//!
//! Accepted grammar (case-insensitive, one statement per line, `*`/`;`
//! comments):
//!
//! ```text
//! Rname n1 n2 <value>
//! Cname n1 n2 <value>
//! Vname n+ n- DC <v> | PULSE(v1 v2 delay rise fall width period) | SIN(off ampl freq [phase]) | PWL(t1 v1 t2 v2 ...)
//! Iname n+ n- <same source syntax>
//! Mname d g s [b] NMOS|PMOS W=<v> L=<v>
//! Xname n+ n- MTJ [STATE=P|AP] [DIAMETER=<v>]
//! Xname read shared write MTJSOT [STATE=P|AP] [DIAMETER=<v>] [THETA_SH=<v>] [T_CH=<v>] [RHO_CH=<v>]
//! Xname n1 n2 ... <subckt-name>
//! .subckt <name> <port1> <port2> ...
//!   <element lines>
//! .ends
//! .model NMOS|PMOS VTH=<v> KP=<v> LAMBDA=<v>
//! .tran <dt> <tstop>
//! .meas <name> DELAY TRIG v(x) VAL=<v> RISE|FALL TARG v(y) VAL=<v> RISE|FALL
//! .meas <name> ENERGY SRC=<vsrc> FROM=<t> TO=<t>
//! .meas <name> AVG|MIN|MAX|RMS v(x)|i(vsrc) FROM=<t> TO=<t>
//! .meas <name> FINAL v(x)|i(vsrc)
//! .end
//! ```
//!
//! Values take SPICE engineering suffixes (`f p n u m k meg g t`).
//! Subcircuits expand structurally: internal nodes and element names are
//! prefixed with the instance path (`x1.mid`), ports map positionally, and
//! `0`/`gnd` stay global. One level of nesting inside a `.subckt` body is
//! allowed per instantiation step up to a depth of 8 (cycles are rejected).

use std::collections::HashMap;

use mss_mtj::mechanism::SotParams;
use mss_mtj::resistance::MtjState;
use mss_mtj::MssStack;

use crate::mdl::{Edge, Measurement, Probe};
use crate::mosfet::{MosGeometry, MosModel, MosPolarity};
use crate::netlist::Netlist;
use crate::waveform::Waveform;
use crate::SpiceError;

/// A parsed deck: netlist plus analysis and measurement directives.
#[derive(Debug, Clone)]
pub struct Deck {
    /// The circuit.
    pub netlist: Netlist,
    /// `.tran dt tstop` if present.
    pub tran: Option<(f64, f64)>,
    /// `.meas` directives in order.
    #[cfg(test)]
    pub(crate) measurements: Vec<Measurement>,
}

impl Deck {
    /// Parses a deck from text.
    ///
    /// # Errors
    ///
    /// [`SpiceError::Parse`] with a line number on any malformed statement.
    pub fn parse(text: &str) -> Result<Self, SpiceError> {
        Parser::new(text).parse()
    }
}

/// Parses a SPICE number with engineering suffix, e.g. `1k`, `10f`, `0.5n`,
/// `3meg`. Returns `None` for malformed numbers (the deck parser attaches
/// line context).
pub(crate) fn parse_value(token: &str) -> Option<f64> {
    let t = token.trim().to_ascii_lowercase();
    if t.is_empty() {
        return None;
    }
    // Find the numeric prefix.
    let mut split = t.len();
    for (i, c) in t.char_indices() {
        if !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e') {
            split = i;
            break;
        }
        // 'e' only counts as part of the number when followed by digit/sign.
        if c == 'e' {
            let rest = &t[i + 1..];
            let ok = rest
                .chars()
                .next()
                .map(|n| n.is_ascii_digit() || n == '-' || n == '+')
                .unwrap_or(false);
            if !ok {
                split = i;
                break;
            }
        }
    }
    let (num, suffix) = t.split_at(split);
    let base: f64 = num.parse().ok()?;
    let mult = match suffix {
        "" | "v" | "s" | "a" | "hz" | "ohm" | "f64" => 1.0,
        "t" => 1e12,
        "g" => 1e9,
        "meg" => 1e6,
        "k" => 1e3,
        "m" => 1e-3,
        "u" => 1e-6,
        "n" => 1e-9,
        "p" => 1e-12,
        "f" => 1e-15,
        _ => {
            // Allow unit-bearing suffixes like "ns", "pf", "ua", "kohm".
            // Split by char, not byte: the suffix may start with a
            // multi-byte character.
            let mut rest = suffix.chars();
            let m = match rest.next() {
                Some('t') => 1e12,
                Some('g') => 1e9,
                Some('k') => 1e3,
                Some('m') => 1e-3,
                Some('u') => 1e-6,
                Some('n') => 1e-9,
                Some('p') => 1e-12,
                Some('f') => 1e-15,
                _ => return None,
            };
            if rest.all(|c| c.is_ascii_alphabetic()) {
                m
            } else {
                return None;
            }
        }
    };
    Some(base * mult)
}

/// A collected subcircuit definition.
#[derive(Debug, Clone)]
struct Subckt {
    ports: Vec<String>,
    /// `(source line number, text)` of each body statement.
    body: Vec<(usize, String)>,
}

/// Node/element renaming context for subcircuit expansion.
#[derive(Debug, Clone, Default)]
struct Scope {
    /// Instance path prefix, e.g. `"x1."` (empty at top level).
    prefix: String,
    /// Formal-port → actual-node mapping.
    ports: HashMap<String, String>,
}

impl Scope {
    fn node(&self, name: &str) -> String {
        let key = name.to_ascii_lowercase();
        if key == "0" || key == "gnd" {
            return "0".to_string();
        }
        if let Some(actual) = self.ports.get(&key) {
            return actual.clone();
        }
        format!("{}{}", self.prefix, key)
    }

    fn name(&self, name: &str) -> String {
        format!("{}{}", self.prefix, name)
    }
}

const MAX_SUBCKT_DEPTH: usize = 8;

struct Parser<'a> {
    text: &'a str,
    nmos: MosModel,
    pmos: MosModel,
    subckts: HashMap<String, Subckt>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            nmos: MosModel::generic_nmos(),
            pmos: MosModel::generic_pmos(),
            subckts: HashMap::new(),
        }
    }

    fn parse(mut self) -> Result<Deck, SpiceError> {
        let mut netlist = Netlist::new();
        let mut tran = None;
        let mut measurements = Vec::new();

        // First pass: collect .model cards and .subckt blocks.
        let mut in_subckt: Option<(String, Subckt)> = None;
        let mut subckt_lines = vec![false; self.text.lines().count()];
        for (lineno0, raw) in self.text.lines().enumerate() {
            let lineno = lineno0 + 1;
            let line = strip_comment(raw);
            if line.is_empty() {
                continue;
            }
            let lower = line.to_ascii_lowercase();
            if lower.starts_with(".model") {
                self.parse_model(lineno, &line)?;
            } else if lower.starts_with(".subckt") {
                if in_subckt.is_some() {
                    return err(lineno, "nested .subckt definitions are not allowed");
                }
                let tokens: Vec<&str> = line.split_whitespace().collect();
                if tokens.len() < 3 {
                    return err(lineno, ".subckt needs a name and at least one port");
                }
                let name = tokens[1].to_ascii_lowercase();
                if self.subckts.contains_key(&name) {
                    return err(lineno, &format!("duplicate subcircuit '{name}'"));
                }
                in_subckt = Some((
                    name,
                    Subckt {
                        ports: tokens[2..].iter().map(|t| t.to_ascii_lowercase()).collect(),
                        body: Vec::new(),
                    },
                ));
                subckt_lines[lineno0] = true;
            } else if lower.starts_with(".ends") {
                match in_subckt.take() {
                    Some((name, def)) => {
                        self.subckts.insert(name, def);
                        subckt_lines[lineno0] = true;
                    }
                    None => return err(lineno, ".ends without .subckt"),
                }
            } else if let Some((_, def)) = in_subckt.as_mut() {
                def.body.push((lineno, line));
                subckt_lines[lineno0] = true;
            }
        }
        if let Some((name, _)) = in_subckt {
            return err(
                self.text.lines().count(),
                &format!("unterminated .subckt '{name}'"),
            );
        }

        // Main pass.
        let top = Scope::default();
        for (lineno0, raw) in self.text.lines().enumerate() {
            let lineno = lineno0 + 1;
            if subckt_lines[lineno0] {
                continue;
            }
            let line = strip_comment(raw);
            if line.is_empty() {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let first = tokens[0].to_ascii_lowercase();
            if first.starts_with(".model") {
                continue; // handled in the first pass
            } else if first == ".end" {
                break;
            } else if first == ".tran" {
                if tokens.len() < 3 {
                    return err(lineno, ".tran needs <dt> <tstop>");
                }
                let dt = value(lineno, tokens[1])?;
                let stop = value(lineno, tokens[2])?;
                // The window `TransientOptions::new` accepts, with a step
                // count that fits the transient loop.
                let valid = dt > 0.0 && stop.is_finite() && dt <= stop;
                if !valid || (stop / dt).round() > f64::from(u32::MAX) {
                    return err(
                        lineno,
                        ".tran needs finite 0 < <dt> <= <tstop> and at most 2^32-1 steps",
                    );
                }
                tran = Some((dt, stop));
            } else if first == ".meas" || first == ".measure" {
                measurements.push(parse_measurement(lineno, &tokens)?);
            } else {
                self.element_statement(&mut netlist, lineno, &line, &top, 0)?;
            }
        }

        Ok(Deck {
            netlist,
            tran,
            #[cfg(test)]
            measurements,
        })
    }

    /// Parses one element statement into the netlist, applying `scope`
    /// renaming; recurses for subcircuit instantiations.
    fn element_statement(
        &self,
        netlist: &mut Netlist,
        lineno: usize,
        line: &str,
        scope: &Scope,
        depth: usize,
    ) -> Result<(), SpiceError> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.is_empty() {
            return Ok(());
        }
        let first = tokens[0].to_ascii_lowercase();
        match first.chars().next().unwrap() {
            'r' => {
                if tokens.len() != 4 {
                    return err(lineno, "resistor: Rname n1 n2 value");
                }
                netlist
                    .add_resistor(
                        &scope.name(tokens[0]),
                        &scope.node(tokens[1]),
                        &scope.node(tokens[2]),
                        value(lineno, tokens[3])?,
                    )
                    .map_err(|e| wrap(lineno, e))?;
            }
            'c' => {
                if tokens.len() != 4 {
                    return err(lineno, "capacitor: Cname n1 n2 value");
                }
                netlist
                    .add_capacitor(
                        &scope.name(tokens[0]),
                        &scope.node(tokens[1]),
                        &scope.node(tokens[2]),
                        value(lineno, tokens[3])?,
                    )
                    .map_err(|e| wrap(lineno, e))?;
            }
            'v' | 'i' => {
                if tokens.len() < 4 {
                    return err(lineno, "source: Xname n+ n- <waveform>");
                }
                let wave = parse_waveform(lineno, line, &tokens)?;
                if first.starts_with('v') {
                    netlist
                        .add_vsource(
                            &scope.name(tokens[0]),
                            &scope.node(tokens[1]),
                            &scope.node(tokens[2]),
                            wave,
                        )
                        .map_err(|e| wrap(lineno, e))?;
                } else {
                    netlist
                        .add_isource(
                            &scope.name(tokens[0]),
                            &scope.node(tokens[1]),
                            &scope.node(tokens[2]),
                            wave,
                        )
                        .map_err(|e| wrap(lineno, e))?;
                }
            }
            'm' => {
                // Mname d g s [b] MODEL W=.. L=..
                if tokens.len() < 5 {
                    return err(lineno, "mosfet: Mname d g s [b] NMOS|PMOS W= L=");
                }
                let model_pos = tokens
                    .iter()
                    .position(|t| {
                        let u = t.to_ascii_lowercase();
                        u == "nmos" || u == "pmos"
                    })
                    .ok_or_else(|| parse_err(lineno, "missing NMOS/PMOS model"))?;
                if model_pos < 4 {
                    return err(lineno, "mosfet needs d g s terminals before the model");
                }
                let model = if tokens[model_pos].eq_ignore_ascii_case("nmos") {
                    self.nmos
                } else {
                    self.pmos
                };
                let mut w = None;
                let mut l = None;
                for t in &tokens[model_pos + 1..] {
                    let (k, v) = t
                        .split_once('=')
                        .ok_or_else(|| parse_err(lineno, "mosfet parameters must be K=V"))?;
                    match k.to_ascii_lowercase().as_str() {
                        "w" => w = Some(value(lineno, v)?),
                        "l" => l = Some(value(lineno, v)?),
                        other => return err(lineno, &format!("unknown mosfet param '{other}'")),
                    }
                }
                let geom = MosGeometry {
                    width: w.ok_or_else(|| parse_err(lineno, "missing W="))?,
                    length: l.ok_or_else(|| parse_err(lineno, "missing L="))?,
                };
                netlist
                    .add_mosfet(
                        &scope.name(tokens[0]),
                        &scope.node(tokens[1]),
                        &scope.node(tokens[2]),
                        &scope.node(tokens[3]),
                        model,
                        geom,
                    )
                    .map_err(|e| wrap(lineno, e))?;
            }
            'x' => {
                if tokens.len() >= 4 && tokens[3].eq_ignore_ascii_case("mtj") {
                    // Builtin MTJ: Xname n+ n- MTJ [params].
                    self.mtj_statement(netlist, lineno, &tokens, scope)?;
                } else if tokens.len() >= 5 && tokens[4].eq_ignore_ascii_case("mtjsot") {
                    // Builtin three-terminal SOT cell:
                    // Xname read shared write MTJSOT [params].
                    self.mtj_sot_statement(netlist, lineno, &tokens, scope)?;
                } else {
                    // Subcircuit instantiation: Xname n1 n2 ... subname.
                    if tokens.len() < 3 {
                        return err(lineno, "subckt call: Xname <nodes...> <name>");
                    }
                    let sub_name = tokens[tokens.len() - 1].to_ascii_lowercase();
                    let Some(def) = self.subckts.get(&sub_name) else {
                        return err(
                            lineno,
                            &format!("unknown subcircuit or element '{sub_name}'"),
                        );
                    };
                    let actuals = &tokens[1..tokens.len() - 1];
                    if actuals.len() != def.ports.len() {
                        return err(
                            lineno,
                            &format!(
                                "subcircuit '{sub_name}' has {} ports but {} nodes were given",
                                def.ports.len(),
                                actuals.len()
                            ),
                        );
                    }
                    if depth >= MAX_SUBCKT_DEPTH {
                        return err(lineno, "subcircuit nesting too deep (cycle?)");
                    }
                    let mut inner = Scope {
                        prefix: format!("{}{}.", scope.prefix, tokens[0].to_ascii_lowercase()),
                        ports: HashMap::new(),
                    };
                    for (formal, actual) in def.ports.iter().zip(actuals) {
                        inner.ports.insert(formal.clone(), scope.node(actual));
                    }
                    for (body_lineno, body_line) in &def.body {
                        self.element_statement(
                            netlist,
                            *body_lineno,
                            body_line,
                            &inner,
                            depth + 1,
                        )?;
                    }
                }
            }
            _ => {
                return err(lineno, &format!("unrecognised statement '{}'", tokens[0]));
            }
        }
        Ok(())
    }

    fn mtj_statement(
        &self,
        netlist: &mut Netlist,
        lineno: usize,
        tokens: &[&str],
        scope: &Scope,
    ) -> Result<(), SpiceError> {
        let mut state = MtjState::Parallel;
        let mut builder = MssStack::builder();
        for t in &tokens[4..] {
            let (k, v) = t
                .split_once('=')
                .ok_or_else(|| parse_err(lineno, "MTJ parameters must be K=V"))?;
            match k.to_ascii_lowercase().as_str() {
                "state" => {
                    state = match v.to_ascii_lowercase().as_str() {
                        "p" | "parallel" => MtjState::Parallel,
                        "ap" | "antiparallel" => MtjState::Antiparallel,
                        other => return err(lineno, &format!("unknown MTJ state '{other}'")),
                    }
                }
                "diameter" => {
                    builder = builder.diameter(value(lineno, v)?);
                }
                "tmr" => {
                    builder = builder.tmr_zero_bias(value(lineno, v)?);
                }
                "ra" => {
                    builder = builder.resistance_area_product(value(lineno, v)?);
                }
                other => return err(lineno, &format!("unknown MTJ param '{other}'")),
            }
        }
        let stack = builder
            .build()
            .map_err(|e| parse_err(lineno, &format!("bad MTJ: {e}")))?;
        netlist
            .add_mtj(
                &scope.name(tokens[0]),
                &scope.node(tokens[1]),
                &scope.node(tokens[2]),
                &stack,
                state,
            )
            .map_err(|e| wrap(lineno, e))?;
        Ok(())
    }

    fn mtj_sot_statement(
        &self,
        netlist: &mut Netlist,
        lineno: usize,
        tokens: &[&str],
        scope: &Scope,
    ) -> Result<(), SpiceError> {
        let mut state = MtjState::Parallel;
        let mut builder = MssStack::builder();
        let mut params = SotParams::default();
        for t in &tokens[5..] {
            let (k, v) = t
                .split_once('=')
                .ok_or_else(|| parse_err(lineno, "MTJSOT parameters must be K=V"))?;
            match k.to_ascii_lowercase().as_str() {
                "state" => {
                    state = match v.to_ascii_lowercase().as_str() {
                        "p" | "parallel" => MtjState::Parallel,
                        "ap" | "antiparallel" => MtjState::Antiparallel,
                        other => return err(lineno, &format!("unknown MTJSOT state '{other}'")),
                    }
                }
                "diameter" => {
                    builder = builder.diameter(value(lineno, v)?);
                }
                "tmr" => {
                    builder = builder.tmr_zero_bias(value(lineno, v)?);
                }
                "ra" => {
                    builder = builder.resistance_area_product(value(lineno, v)?);
                }
                "theta_sh" => {
                    params.spin_hall_angle = value(lineno, v)?;
                }
                "t_ch" => {
                    params.channel_thickness = value(lineno, v)?;
                }
                "rho_ch" => {
                    params.channel_resistivity = value(lineno, v)?;
                }
                other => return err(lineno, &format!("unknown MTJSOT param '{other}'")),
            }
        }
        let stack = builder
            .build()
            .map_err(|e| parse_err(lineno, &format!("bad MTJSOT: {e}")))?;
        netlist
            .add_mtj_sot(
                &scope.name(tokens[0]),
                &scope.node(tokens[1]),
                &scope.node(tokens[2]),
                &scope.node(tokens[3]),
                &stack,
                &params,
                state,
            )
            .map_err(|e| wrap(lineno, e))?;
        Ok(())
    }

    fn parse_model(&mut self, lineno: usize, line: &str) -> Result<(), SpiceError> {
        // .model NMOS VTH=0.4 KP=200u LAMBDA=0.05
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() < 2 {
            return err(lineno, ".model needs a name");
        }
        let which = tokens[1].to_ascii_lowercase();
        let target = match which.as_str() {
            "nmos" => &mut self.nmos,
            "pmos" => &mut self.pmos,
            other => return err(lineno, &format!("unknown model '{other}'")),
        };
        target.polarity = if which == "nmos" {
            MosPolarity::Nmos
        } else {
            MosPolarity::Pmos
        };
        for t in &tokens[2..] {
            let (k, v) = t
                .split_once('=')
                .ok_or_else(|| parse_err(lineno, "model parameters must be K=V"))?;
            let v = value(lineno, v)?;
            match k.to_ascii_lowercase().as_str() {
                "vth" => target.vth = v,
                "kp" => target.kp = v,
                "lambda" => target.lambda = v,
                "level" => {} // only level 1 exists; accepted and ignored
                other => return err(lineno, &format!("unknown model param '{other}'")),
            }
        }
        Ok(())
    }
}

fn strip_comment(line: &str) -> String {
    let line = line.trim();
    if line.starts_with('*') {
        return String::new();
    }
    match line.find(';') {
        Some(i) => line[..i].trim().to_string(),
        None => line.to_string(),
    }
}

fn err<T>(line: usize, message: &str) -> Result<T, SpiceError> {
    Err(parse_err(line, message))
}

fn parse_err(line: usize, message: &str) -> SpiceError {
    SpiceError::Parse {
        line,
        message: message.to_string(),
    }
}

fn wrap(line: usize, e: SpiceError) -> SpiceError {
    parse_err(line, &e.to_string())
}

fn value(line: usize, token: &str) -> Result<f64, SpiceError> {
    parse_value(token).ok_or_else(|| parse_err(line, &format!("bad value '{token}'")))
}

/// Parses the source-value portion of a V/I line.
fn parse_waveform(lineno: usize, line: &str, tokens: &[&str]) -> Result<Waveform, SpiceError> {
    let rest = tokens[3..].join(" ");
    let upper = rest.to_ascii_uppercase();
    if let Some(args) = paren_args(&rest, "pulse") {
        let v = parse_args(lineno, &args)?;
        if v.len() < 7 {
            return err(lineno, "PULSE needs 7 arguments");
        }
        Ok(Waveform::pulse(v[0], v[1], v[2], v[3], v[4], v[5], v[6]))
    } else if let Some(args) = paren_args(&rest, "sin") {
        let v = parse_args(lineno, &args)?;
        if v.len() < 3 {
            return err(lineno, "SIN needs at least 3 arguments");
        }
        Ok(Waveform::sin(
            v[0],
            v[1],
            v[2],
            v.get(3).copied().unwrap_or(0.0),
        ))
    } else if let Some(args) = paren_args(&rest, "pwl") {
        let v = parse_args(lineno, &args)?;
        if v.len() % 2 != 0 || v.is_empty() {
            return err(lineno, "PWL needs an even number of arguments");
        }
        Ok(Waveform::pwl(v.chunks(2).map(|c| (c[0], c[1])).collect()))
    } else if upper.starts_with("DC") {
        let tok = rest
            .split_whitespace()
            .nth(1)
            .ok_or_else(|| parse_err(lineno, "DC needs a value"))?;
        Ok(Waveform::dc(value(lineno, tok)?))
    } else if tokens.len() == 4 {
        // Bare value = DC.
        Ok(Waveform::dc(value(lineno, tokens[3])?))
    } else {
        err(lineno, &format!("unrecognised source spec '{line}'"))
    }
}

/// Extracts `name( ... )` argument text, case-insensitively.
fn paren_args(text: &str, name: &str) -> Option<String> {
    let lower = text.to_ascii_lowercase();
    let start = lower.find(&format!("{name}("))?;
    let open = start + name.len();
    let close = lower[open..].find(')')? + open;
    Some(text[open + 1..close].to_string())
}

fn parse_args(lineno: usize, args: &str) -> Result<Vec<f64>, SpiceError> {
    args.split(|c: char| c.is_whitespace() || c == ',')
        .filter(|s| !s.is_empty())
        .map(|s| value(lineno, s))
        .collect()
}

fn parse_probe(lineno: usize, token: &str) -> Result<Probe, SpiceError> {
    let t = token.trim();
    let lower = t.to_ascii_lowercase();
    if lower.starts_with("v(") && lower.ends_with(')') {
        Ok(Probe::NodeVoltage(t[2..t.len() - 1].to_string()))
    } else if lower.starts_with("i(") && lower.ends_with(')') {
        Ok(Probe::SourceCurrent(t[2..t.len() - 1].to_string()))
    } else {
        err(
            lineno,
            &format!("bad probe '{token}', expected v(x) or i(x)"),
        )
    }
}

fn parse_edge(token: &str) -> Option<Edge> {
    match token.to_ascii_lowercase().as_str() {
        "rise" => Some(Edge::Rise),
        "fall" => Some(Edge::Fall),
        "either" | "cross" => Some(Edge::Either),
        _ => None,
    }
}

fn kv(token: &str) -> Option<(String, &str)> {
    token
        .split_once('=')
        .map(|(k, v)| (k.to_ascii_lowercase(), v))
}

fn parse_measurement(lineno: usize, tokens: &[&str]) -> Result<Measurement, SpiceError> {
    // tokens[0] = .meas, [1] = name, [2] = kind, rest = spec
    if tokens.len() < 3 {
        return err(lineno, ".meas needs a name and a kind");
    }
    let name = tokens[1].to_string();
    let kind = tokens[2].to_ascii_lowercase();
    let rest = &tokens[3..];
    match kind.as_str() {
        "delay" => {
            // TRIG v(x) VAL=0.5 RISE TARG v(y) VAL=0.5 RISE
            let mut trig = None;
            let mut targ = None;
            let mut trig_value = None;
            let mut targ_value = None;
            let mut trig_edge = Edge::Either;
            let mut targ_edge = Edge::Either;
            let mut section = 0; // 1 after TRIG, 2 after TARG
            for t in rest {
                let lower = t.to_ascii_lowercase();
                if lower == "trig" {
                    section = 1;
                } else if lower == "targ" {
                    section = 2;
                } else if let Some((k, v)) = kv(t) {
                    if k == "val" {
                        let v = value(lineno, v)?;
                        if section == 1 {
                            trig_value = Some(v);
                        } else {
                            targ_value = Some(v);
                        }
                    }
                } else if let Some(e) = parse_edge(t) {
                    if section == 1 {
                        trig_edge = e;
                    } else {
                        targ_edge = e;
                    }
                } else if lower.starts_with("v(") || lower.starts_with("i(") {
                    let p = parse_probe(lineno, t)?;
                    if section == 1 {
                        trig = Some(p);
                    } else {
                        targ = Some(p);
                    }
                }
            }
            Ok(Measurement::Delay {
                name,
                trig: trig.ok_or_else(|| parse_err(lineno, "DELAY missing TRIG probe"))?,
                trig_value: trig_value
                    .ok_or_else(|| parse_err(lineno, "DELAY missing TRIG VAL"))?,
                trig_edge,
                targ: targ.ok_or_else(|| parse_err(lineno, "DELAY missing TARG probe"))?,
                targ_value: targ_value
                    .ok_or_else(|| parse_err(lineno, "DELAY missing TARG VAL"))?,
                targ_edge,
            })
        }
        "energy" => {
            let mut source = None;
            let mut from = 0.0;
            let mut to = f64::INFINITY;
            for t in rest {
                if let Some((k, v)) = kv(t) {
                    match k.as_str() {
                        "src" => source = Some(v.to_string()),
                        "from" => from = value(lineno, v)?,
                        "to" => to = value(lineno, v)?,
                        _ => return err(lineno, &format!("unknown ENERGY param '{k}'")),
                    }
                }
            }
            Ok(Measurement::Energy {
                name,
                source: source.ok_or_else(|| parse_err(lineno, "ENERGY missing SRC="))?,
                from,
                to,
            })
        }
        "avg" | "min" | "max" | "rms" => {
            let mut probe = None;
            let mut from = 0.0;
            let mut to = f64::INFINITY;
            for t in rest {
                if let Some((k, v)) = kv(t) {
                    match k.as_str() {
                        "from" => from = value(lineno, v)?,
                        "to" => to = value(lineno, v)?,
                        _ => return err(lineno, &format!("unknown param '{k}'")),
                    }
                } else {
                    probe = Some(parse_probe(lineno, t)?);
                }
            }
            let probe = probe.ok_or_else(|| parse_err(lineno, "missing probe"))?;
            Ok(match kind.as_str() {
                "avg" => Measurement::Average {
                    name,
                    probe,
                    from,
                    to,
                },
                "min" => Measurement::Minimum {
                    name,
                    probe,
                    from,
                    to,
                },
                "max" => Measurement::Maximum {
                    name,
                    probe,
                    from,
                    to,
                },
                _ => Measurement::Rms {
                    name,
                    probe,
                    from,
                    to,
                },
            })
        }
        "final" => {
            let probe = rest
                .first()
                .ok_or_else(|| parse_err(lineno, "FINAL missing probe"))
                .and_then(|t| parse_probe(lineno, t))?;
            Ok(Measurement::FinalValue { name, probe })
        }
        other => err(lineno, &format!("unknown measurement kind '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{dc_operating_point, Transient, TransientOptions};

    #[test]
    fn parse_value_suffixes() {
        fn close(tok: &str, expect: f64) {
            let v = parse_value(tok).unwrap_or_else(|| panic!("'{tok}' failed to parse"));
            assert!(
                (v - expect).abs() <= 1e-12 * expect.abs(),
                "'{tok}': {v} != {expect}"
            );
        }
        close("1k", 1e3);
        close("10f", 10e-15);
        close("0.5n", 0.5e-9);
        close("3meg", 3e6);
        close("2.5", 2.5);
        close("1e-9", 1e-9);
        close("100m", 0.1);
        close("1ns", 1e-9);
        close("10pf", 10e-12);
        assert_eq!(parse_value("garbage"), None);
        assert_eq!(parse_value(""), None);
        // A multi-byte suffix is rejected, not split inside a character.
        assert_eq!(parse_value("1é"), None);
        assert_eq!(parse_value("1\u{FFFD}v"), None);
    }

    #[test]
    fn parses_rc_deck_and_runs() {
        let deck = Deck::parse(
            "* RC step\n\
             VIN in 0 PULSE(0 1 1n 10p 10p 1 0)\n\
             R1 in out 1k\n\
             C1 out 0 1p\n\
             .tran 1p 8n\n\
             .meas tpd DELAY TRIG v(in) VAL=0.5 RISE TARG v(out) VAL=0.5 RISE\n\
             .end\n",
        )
        .unwrap();
        let (dt, stop) = deck.tran.unwrap();
        let res = Transient::new(&deck.netlist)
            .unwrap()
            .run(&TransientOptions::new(dt, stop))
            .unwrap();
        assert_eq!(deck.measurements.len(), 1);
        let d = deck.measurements[0].evaluate(&res).unwrap();
        assert!((d - 0.693e-9).abs() < 0.03e-9, "delay = {d}");
    }

    #[test]
    fn parses_mosfet_with_model_card() {
        let deck = Deck::parse(
            ".model NMOS VTH=0.35 KP=250u LAMBDA=0.04\n\
             VDD vdd 0 DC 1.0\n\
             VIN in 0 DC 1.0\n\
             RL vdd out 10k\n\
             M1 out in 0 0 NMOS W=1u L=100n\n\
             .end\n",
        )
        .unwrap();
        let dc = dc_operating_point(&deck.netlist).unwrap();
        assert!(dc.node_voltage("out").unwrap() < 0.2);
    }

    #[test]
    fn parses_mtj_line() {
        let deck = Deck::parse(
            "VW top 0 DC 0.1\n\
             X1 top 0 MTJ STATE=AP DIAMETER=40n\n\
             .tran 10p 1n\n",
        )
        .unwrap();
        assert_eq!(deck.netlist.elements().len(), 2);
    }

    #[test]
    fn parses_energy_and_stat_measures() {
        let deck = Deck::parse(
            "VDD vdd 0 DC 1\n\
             R1 vdd 0 1k\n\
             .tran 1p 1n\n\
             .meas e ENERGY SRC=VDD FROM=0 TO=1n\n\
             .meas vmax MAX v(vdd) FROM=0 TO=1n\n\
             .meas iavg AVG i(VDD) FROM=0 TO=1n\n\
             .meas vf FINAL v(vdd)\n",
        )
        .unwrap();
        assert_eq!(deck.measurements.len(), 4);
        let res = Transient::new(&deck.netlist)
            .unwrap()
            .run(&TransientOptions::new(1e-12, 1e-9))
            .unwrap();
        let e = deck.measurements[0].evaluate(&res).unwrap();
        // P = V^2/R = 1 mW over 1 ns = 1 pJ.
        assert!((e - 1e-12).abs() < 0.05e-12, "e = {e}");
        assert_eq!(deck.measurements[1].evaluate(&res).unwrap(), 1.0);
        let iavg = deck.measurements[2].evaluate(&res).unwrap();
        assert!((iavg + 1e-3).abs() < 1e-6); // MNA sign
        assert_eq!(deck.measurements[3].evaluate(&res).unwrap(), 1.0);
    }

    #[test]
    fn tran_rejects_a_non_finite_window() {
        for deck in [".tran 1p 1e400\n", ".tran 1p inf\n", ".tran nan 1n\n"] {
            let e = Deck::parse(deck).unwrap_err();
            assert!(
                matches!(e, SpiceError::Parse { line: 1, .. }),
                "{deck}: {e}"
            );
        }
    }

    #[test]
    fn tran_rejects_a_non_positive_window() {
        for deck in [".tran 0 1n\n", ".tran 1p -1n\n", ".tran -1p 1n\n"] {
            let e = Deck::parse(deck).unwrap_err();
            assert!(
                matches!(e, SpiceError::Parse { line: 1, .. }),
                "{deck}: {e}"
            );
        }
    }

    #[test]
    fn tran_rejects_a_step_longer_than_the_window() {
        let e = Deck::parse("R1 a 0 1k\n.tran 1n 1p\n").unwrap_err();
        assert!(matches!(e, SpiceError::Parse { line: 2, .. }), "{e}");
        // One step over the whole window is the shortest valid run.
        assert_eq!(
            Deck::parse(".tran 1n 1n\n").unwrap().tran,
            Some((1e-9, 1e-9))
        );
    }

    #[test]
    fn tran_rejects_more_steps_than_a_u32_counts() {
        let e = Deck::parse(".tran 1f 1\n").unwrap_err();
        assert!(matches!(e, SpiceError::Parse { line: 1, .. }), "{e}");
        assert!(Deck::parse(".tran 1n 4\n").is_ok()); // 4e9 steps
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = Deck::parse("R1 a b 1k\nBOGUS x y z\n").unwrap_err();
        match e {
            SpiceError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let deck = Deck::parse("* top comment\n\nR1 a 0 1k ; trailing comment\n").unwrap();
        assert_eq!(deck.netlist.elements().len(), 1);
    }

    #[test]
    fn pwl_and_sin_sources_parse() {
        let deck = Deck::parse(
            "V1 a 0 PWL(0 0 1n 1 2n 0)\n\
             V2 b 0 SIN(0 0.5 1g)\n\
             R1 a 0 1k\n\
             R2 b 0 1k\n",
        )
        .unwrap();
        assert_eq!(deck.netlist.vsource_count(), 2);
    }

    #[test]
    fn bad_mtj_params_error() {
        assert!(Deck::parse("X1 a 0 MTJ STATE=SIDEWAYS\n").is_err());
        assert!(Deck::parse("X1 a 0 MTJ DIAMETER=-4n\n").is_err());
        assert!(Deck::parse("X1 a 0 NOTMTJ\n").is_err());
    }

    #[test]
    fn parses_mtj_sot_line() {
        use crate::netlist::Element;
        let deck = Deck::parse(
            "VW sh 0 DC 0.3\n\
             X1 rd sh 0 MTJSOT STATE=AP DIAMETER=40n THETA_SH=0.25 T_CH=4n RHO_CH=2u\n\
             .tran 10p 1n\n",
        )
        .unwrap();
        assert_eq!(deck.netlist.elements().len(), 2);
        match &deck.netlist.elements()[1] {
            Element::MtjSot { channel_ohms, .. } => {
                assert!(channel_ohms.is_finite() && *channel_ohms > 0.0);
            }
            other => panic!("expected MtjSot, got {other:?}"),
        }
        // Three distinct terminals plus ground: rd, sh.
        assert_eq!(deck.netlist.node_count(), 3);
    }

    #[test]
    fn bad_mtj_sot_params_error() {
        assert!(Deck::parse("X1 a b c MTJSOT STATE=SIDEWAYS\n").is_err());
        assert!(Deck::parse("X1 a b c MTJSOT THETA_SH=0\n").is_err());
        assert!(Deck::parse("X1 a b c MTJSOT BOGUS=1\n").is_err());
    }

    // --- subcircuit tests ---

    const DIVIDER: &str = "\
.subckt divider top mid
RA top mid 1k
RB mid 0 1k
.ends
VIN in 0 DC 2
X1 in out divider
";

    #[test]
    fn subckt_expands_with_port_mapping() {
        let deck = Deck::parse(DIVIDER).unwrap();
        // Elements: VIN + expanded RA, RB with instance-prefixed names.
        assert_eq!(deck.netlist.elements().len(), 3);
        let names: Vec<&str> = deck.netlist.elements().iter().map(|e| e.name()).collect();
        assert!(names.contains(&"x1.RA"), "{names:?}");
        let dc = dc_operating_point(&deck.netlist).unwrap();
        assert!((dc.node_voltage("out").unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn subckt_internal_nodes_are_scoped() {
        // Two instances must not short their internal nodes together.
        let text = "\
.subckt stage a b
R1 a m 1k
R2 m b 1k
.ends
VIN in 0 DC 2
X1 in mid stage
X2 mid 0 stage
";
        let deck = Deck::parse(text).unwrap();
        let dc = dc_operating_point(&deck.netlist).unwrap();
        // Four equal resistors in series: mid = 1 V, x1's internal m = 1.5 V.
        assert!((dc.node_voltage("mid").unwrap() - 1.0).abs() < 1e-6);
        assert!((dc.node_voltage("x1.m").unwrap() - 1.5).abs() < 1e-6);
        assert!((dc.node_voltage("x2.m").unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn nested_subckt_instantiation() {
        let text = "\
.subckt leg top bot
R1 top bot 2k
.ends
.subckt pair a b
X1 a m leg
X2 m b leg
.ends
VIN in 0 DC 2
X9 in 0 pair
";
        let deck = Deck::parse(text).unwrap();
        let dc = dc_operating_point(&deck.netlist).unwrap();
        // 2k + 2k from 2 V: the midpoint sits at 1 V.
        assert!((dc.node_voltage("x9.m").unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn subckt_with_mtj_and_mosfet() {
        let text = "\
.subckt cell bl wl sl
M1 bl wl x 0 NMOS W=500n L=45n
XJ x sl MTJ STATE=AP
.ends
VBL bl 0 DC 1
VWL wl 0 DC 1
X1 bl wl 0 cell
.tran 10p 1n
";
        let deck = Deck::parse(text).unwrap();
        assert_eq!(deck.netlist.elements().len(), 4);
        let res = Transient::new(&deck.netlist)
            .unwrap()
            .run(&TransientOptions::new(1e-11, 1e-9))
            .unwrap();
        // The expanded MTJ keeps its prefixed name.
        assert!(res.mtj_state("x1.XJ").is_ok());
    }

    #[test]
    fn subckt_errors() {
        // Port count mismatch.
        let e = Deck::parse(".subckt s a b\nR1 a b 1k\n.ends\nX1 n1 s\n").unwrap_err();
        assert!(matches!(e, SpiceError::Parse { .. }), "{e}");
        // Unterminated definition.
        assert!(Deck::parse(".subckt s a b\nR1 a b 1k\n").is_err());
        // .ends without .subckt.
        assert!(Deck::parse(".ends\n").is_err());
        // Unknown subcircuit.
        assert!(Deck::parse("X1 a b nothere\n").is_err());
        // Recursion is cut off.
        let rec = ".subckt loop a b\nX1 a b loop\n.ends\nX1 n1 n2 loop\n";
        let e = Deck::parse(rec).unwrap_err();
        match e {
            SpiceError::Parse { message, .. } => {
                assert!(message.contains("nesting too deep"), "{message}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
