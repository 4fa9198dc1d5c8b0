//! SPICE-like text-deck parser.
//!
//! Accepted grammar (case-insensitive, one statement per line, `*`/`;`
//! comments) — the statements the `mss-pdk` cell templates emit:
//!
//! ```text
//! Rname n1 n2 <value>
//! Cname n1 n2 <value>
//! Vname n+ n- DC <v> | <v> | PULSE(v1 v2 delay rise fall width period)
//! Iname n+ n- <same source syntax>
//! Mname d g s [b] NMOS|PMOS W=<v> L=<v>
//! Xname n+ n- MTJ [STATE=P|AP] [DIAMETER=<v>]
//! Xname read shared write MTJSOT [STATE=P|AP] [DIAMETER=<v>] [THETA_SH=<v>] [T_CH=<v>] [RHO_CH=<v>]
//! .model NMOS|PMOS VTH=<v> KP=<v> LAMBDA=<v> [LEVEL=1]
//! .tran <dt> <tstop>
//! .end
//! ```
//!
//! Values take SPICE engineering suffixes (`f p n u m k meg g t`). Node
//! names are lowercased, with `0` and `gnd` both meaning ground; element
//! names are kept as written. `.model` cards may follow the devices that
//! use them. Any other statement is a [`SpiceError::Parse`] naming its
//! line.

use mss_mtj::mechanism::SotParams;
use mss_mtj::resistance::MtjState;
use mss_mtj::MssStack;

use crate::mosfet::{MosGeometry, MosModel, MosPolarity};
use crate::netlist::Netlist;
use crate::waveform::Waveform;
use crate::SpiceError;

/// A parsed deck: netlist plus its `.tran` window.
#[derive(Debug, Clone)]
pub struct Deck {
    /// The circuit.
    pub netlist: Netlist,
    /// `.tran dt tstop` if present.
    pub tran: Option<(f64, f64)>,
}

impl Deck {
    /// Parses a deck from text.
    ///
    /// # Errors
    ///
    /// [`SpiceError::Parse`] with a line number on any malformed statement.
    pub fn parse(text: &str) -> Result<Self, SpiceError> {
        // First pass: `.model` cards, so a card may follow its use.
        let mut models = Models {
            nmos: MosModel::generic_nmos(),
            pmos: MosModel::generic_pmos(),
        };
        for (lineno, line) in statements(text) {
            if line.to_ascii_lowercase().starts_with(".model") {
                models.parse_card(lineno, &line)?;
            }
        }

        let mut netlist = Netlist::new();
        let mut tran = None;
        for (lineno, line) in statements(text) {
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
            } else {
                models.element_statement(&mut netlist, lineno, &line, &tokens)?;
            }
        }
        Ok(Deck { netlist, tran })
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

/// The MOSFET model cards in force for a deck.
struct Models {
    nmos: MosModel,
    pmos: MosModel,
}

impl Models {
    /// Parses one element statement into the netlist.
    fn element_statement(
        &self,
        netlist: &mut Netlist,
        lineno: usize,
        line: &str,
        tokens: &[&str],
    ) -> Result<(), SpiceError> {
        let first = tokens[0].to_ascii_lowercase();
        match first.chars().next().unwrap() {
            'r' => {
                if tokens.len() != 4 {
                    return err(lineno, "resistor: Rname n1 n2 value");
                }
                netlist
                    .add_resistor(
                        tokens[0],
                        &node(tokens[1]),
                        &node(tokens[2]),
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
                        tokens[0],
                        &node(tokens[1]),
                        &node(tokens[2]),
                        value(lineno, tokens[3])?,
                    )
                    .map_err(|e| wrap(lineno, e))?;
            }
            'v' | 'i' => {
                if tokens.len() < 4 {
                    return err(lineno, "source: Xname n+ n- <waveform>");
                }
                let wave = parse_waveform(lineno, line, tokens)?;
                let (pos, neg) = (node(tokens[1]), node(tokens[2]));
                if first.starts_with('v') {
                    netlist.add_vsource(tokens[0], &pos, &neg, wave)
                } else {
                    netlist.add_isource(tokens[0], &pos, &neg, wave)
                }
                .map_err(|e| wrap(lineno, e))?;
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
                        tokens[0],
                        &node(tokens[1]),
                        &node(tokens[2]),
                        &node(tokens[3]),
                        model,
                        geom,
                    )
                    .map_err(|e| wrap(lineno, e))?;
            }
            'x' if tokens.len() >= 4 && tokens[3].eq_ignore_ascii_case("mtj") => {
                mtj_statement(netlist, lineno, tokens, false)?;
            }
            'x' if tokens.len() >= 5 && tokens[4].eq_ignore_ascii_case("mtjsot") => {
                mtj_statement(netlist, lineno, tokens, true)?;
            }
            'x' => {
                return err(
                    lineno,
                    "device: Xname n+ n- MTJ | Xname read shared write MTJSOT",
                );
            }
            _ => {
                return err(lineno, &format!("unrecognised statement '{}'", tokens[0]));
            }
        }
        Ok(())
    }

    fn parse_card(&mut self, lineno: usize, line: &str) -> Result<(), SpiceError> {
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

/// `Xname n+ n- MTJ [params]`, or with `sot` the three-terminal
/// `Xname read shared write MTJSOT [params]`.
fn mtj_statement(
    netlist: &mut Netlist,
    lineno: usize,
    tokens: &[&str],
    sot: bool,
) -> Result<(), SpiceError> {
    let kind = if sot { "MTJSOT" } else { "MTJ" };
    let mut state = MtjState::Parallel;
    let mut builder = MssStack::builder();
    let mut params = SotParams::default();
    for t in &tokens[if sot { 5 } else { 4 }..] {
        let (k, v) = t
            .split_once('=')
            .ok_or_else(|| parse_err(lineno, &format!("{kind} parameters must be K=V")))?;
        match (k.to_ascii_lowercase().as_str(), sot) {
            ("state", _) => {
                state = match v.to_ascii_lowercase().as_str() {
                    "p" | "parallel" => MtjState::Parallel,
                    "ap" | "antiparallel" => MtjState::Antiparallel,
                    other => return err(lineno, &format!("unknown {kind} state '{other}'")),
                }
            }
            ("diameter", _) => builder = builder.diameter(value(lineno, v)?),
            ("theta_sh", true) => params.spin_hall_angle = value(lineno, v)?,
            ("t_ch", true) => params.channel_thickness = value(lineno, v)?,
            ("rho_ch", true) => params.channel_resistivity = value(lineno, v)?,
            (other, _) => return err(lineno, &format!("unknown {kind} param '{other}'")),
        }
    }
    let stack = builder
        .build()
        .map_err(|e| parse_err(lineno, &format!("bad {kind}: {e}")))?;
    let (a, b) = (node(tokens[1]), node(tokens[2]));
    if sot {
        netlist.add_mtj_sot(tokens[0], &a, &b, &node(tokens[3]), &stack, &params, state)
    } else {
        netlist.add_mtj(tokens[0], &a, &b, &stack, state)
    }
    .map_err(|e| wrap(lineno, e))
}

/// The deck's non-blank statements, comments stripped, with 1-based line
/// numbers.
fn statements(text: &str) -> impl Iterator<Item = (usize, String)> + '_ {
    text.lines()
        .enumerate()
        .map(|(i, raw)| (i + 1, strip_comment(raw)))
        .filter(|(_, line)| !line.is_empty())
}

/// A node name as the netlist stores it: lowercased, `gnd` → `0`.
fn node(name: &str) -> String {
    let key = name.to_ascii_lowercase();
    if key == "gnd" {
        "0".to_string()
    } else {
        key
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
    if let Some(args) = paren_args(&rest, "pulse") {
        let v = args
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|s| !s.is_empty())
            .map(|s| value(lineno, s))
            .collect::<Result<Vec<f64>, _>>()?;
        if v.len() < 7 {
            return err(lineno, "PULSE needs 7 arguments");
        }
        Ok(Waveform::pulse(v[0], v[1], v[2], v[3], v[4], v[5], v[6]))
    } else if rest.to_ascii_uppercase().starts_with("DC") {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{dc_operating_point, Transient, TransientOptions};
    use crate::mdl::{Edge, Measurement, Probe};

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
             .end\n",
        )
        .unwrap();
        let (dt, stop) = deck.tran.unwrap();
        let res = Transient::new(&deck.netlist)
            .run(&TransientOptions::new(dt, stop))
            .unwrap();
        let tpd = Measurement::Delay {
            name: "tpd".into(),
            trig: Probe::NodeVoltage("in".into()),
            trig_value: 0.5,
            trig_edge: Edge::Rise,
            targ: Probe::NodeVoltage("out".into()),
            targ_value: 0.5,
            targ_edge: Edge::Rise,
        };
        let d = tpd.evaluate(&res).unwrap();
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
        // The source and probe names a measurement takes are the ones the
        // deck declares: `VDD` as written, node `vdd` lowercased.
        let deck = Deck::parse(
            "VDD VDD 0 DC 1\n\
             R1 vdd GND 1k\n\
             .tran 1p 1n\n",
        )
        .unwrap();
        let (dt, stop) = deck.tran.unwrap();
        let res = Transient::new(&deck.netlist)
            .run(&TransientOptions::new(dt, stop))
            .unwrap();
        let e = Measurement::Energy {
            name: "e".into(),
            source: "VDD".into(),
            from: 0.0,
            to: 1e-9,
        }
        .evaluate(&res)
        .unwrap();
        // P = V^2/R = 1 mW over 1 ns = 1 pJ.
        assert!((e - 1e-12).abs() < 0.05e-12, "e = {e}");
        let average = |probe| {
            Measurement::Average {
                name: "avg".into(),
                probe,
                from: 0.0,
                to: 1e-9,
            }
            .evaluate(&res)
            .unwrap()
        };
        assert_eq!(average(Probe::NodeVoltage("vdd".into())), 1.0);
        let iavg = average(Probe::SourceCurrent("VDD".into()));
        assert!((iavg + 1e-3).abs() < 1e-6); // MNA sign
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
    fn statements_outside_the_template_grammar_are_rejected_on_their_line() {
        for statement in [
            ".subckt divider top mid",
            ".ends",
            "X1 in out divider",
            ".meas tpd DELAY TRIG v(a) VAL=0.5 RISE TARG v(b) VAL=0.5 RISE",
            ".measure e ENERGY SRC=V1 FROM=0 TO=1n",
            "V1 b 0 SIN(0 0.5 1g)",
            "V1 b 0 PWL(0 0 1n 1 2n 0)",
            "X2 b 0 MTJ STATE=P TMR=1.5",
            "X2 b 0 MTJ RA=5p",
            "X3 b c 0 MTJSOT TMR=1.5",
            "X3 b c 0 MTJSOT RA=5p",
            ".ac dec 10 1k 1g",
        ] {
            let deck = format!("R1 a 0 1k\n{statement}\nR2 a b 1k\n");
            match Deck::parse(&deck) {
                Err(SpiceError::Parse { line: 2, .. }) => {}
                other => panic!("{statement}: {other:?}"),
            }
        }
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
}
