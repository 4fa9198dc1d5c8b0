//! Netlist representation and programmatic construction.
//!
//! Nodes are named strings (`"0"` and `"gnd"` both denote ground) created on
//! first use, SPICE style. Elements are added through the `add_*` methods,
//! which validate values and reject duplicate names.

use std::collections::HashMap;

use mss_mtj::mechanism::{SotMechanism, SotParams};
use mss_mtj::resistance::MtjState;
use mss_mtj::MssStack;

use crate::mosfet::{MosGeometry, MosModel};
use crate::mtjelem::MtjElement;
use crate::waveform::Waveform;
use crate::SpiceError;

/// Index of a circuit node; `NodeId(0)` is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground node.
    #[cfg(test)]
    pub(crate) const GROUND: NodeId = NodeId(0);

    /// True for the ground node.
    pub(crate) fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// One circuit element.
#[derive(Debug, Clone)]
pub(crate) enum Element {
    /// Linear resistor.
    Resistor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms.
        ohms: f64,
    },
    /// Linear capacitor.
    Capacitor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads.
        farads: f64,
    },
    /// Independent voltage source.
    VSource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        plus: NodeId,
        /// Negative terminal.
        minus: NodeId,
        /// Value over time.
        wave: Waveform,
    },
    /// Independent current source; the current flows from `plus` through
    /// the source to `minus` (i.e. it is injected into the `minus` node).
    ISource {
        /// Instance name.
        name: String,
        /// Terminal the current is drawn from.
        plus: NodeId,
        /// Terminal the current is injected into.
        minus: NodeId,
        /// Value over time.
        wave: Waveform,
    },
    /// Level-1 MOSFET (bulk tied to source).
    Mosfet {
        /// Instance name.
        name: String,
        /// Drain.
        d: NodeId,
        /// Gate.
        g: NodeId,
        /// Source.
        s: NodeId,
        /// Model card.
        model: MosModel,
        /// Instance geometry.
        geom: MosGeometry,
    },
    /// Magnetic tunnel junction (state-dependent resistor).
    Mtj {
        /// Instance name.
        name: String,
        /// Positive terminal (positive current `plus→minus` writes P).
        plus: NodeId,
        /// Negative terminal.
        minus: NodeId,
        /// Device model + state.
        device: MtjElement,
    },
    /// Three-terminal SOT/SHE MTJ cell: the junction (read path) sits
    /// between `read` and `shared`, the heavy-metal write channel between
    /// `shared` and `write`. Switching progress integrates against the
    /// *channel* current — positive current `shared→write` writes the
    /// parallel state — while the read path only sees the TMR resistance.
    MtjSot {
        /// Instance name.
        name: String,
        /// Read terminal (top electrode of the junction).
        read: NodeId,
        /// Shared terminal (junction bottom = channel mid-point).
        shared: NodeId,
        /// Write terminal (far end of the heavy-metal channel).
        write: NodeId,
        /// Heavy-metal channel resistance in ohms.
        channel_ohms: f64,
        /// Junction model + state; its switching evaluator carries the SOT
        /// constants and is driven by the channel current.
        device: MtjElement,
    },
}

impl Element {
    /// The instance name.
    pub(crate) fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::VSource { name, .. }
            | Element::ISource { name, .. }
            | Element::Mosfet { name, .. }
            | Element::Mtj { name, .. }
            | Element::MtjSot { name, .. } => name,
        }
    }
}

/// A circuit under construction.
///
/// # Examples
///
/// ```
/// use mss_spice::netlist::Netlist;
/// use mss_spice::waveform::Waveform;
///
/// # fn main() -> Result<(), mss_spice::SpiceError> {
/// let mut nl = Netlist::new();
/// nl.add_vsource("v1", "a", "0", Waveform::dc(1.0))?;
/// nl.add_resistor("r1", "a", "b", 1e3)?;
/// nl.add_resistor("r2", "b", "0", 1e3)?;
/// assert_eq!(nl.node_count(), 3); // ground, a, b
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    node_names: Vec<String>,
    node_index: HashMap<String, NodeId>,
    elements: Vec<Element>,
}

impl Netlist {
    /// Creates an empty netlist containing only the ground node.
    pub fn new() -> Self {
        let mut nl = Self {
            node_names: Vec::new(),
            node_index: HashMap::new(),
            elements: Vec::new(),
        };
        nl.node_names.push("0".to_string());
        nl.node_index.insert("0".to_string(), NodeId(0));
        nl.node_index.insert("gnd".to_string(), NodeId(0));
        nl
    }

    /// Returns (creating if needed) the node with the given name.
    pub(crate) fn node(&mut self, name: &str) -> NodeId {
        let key = name.to_ascii_lowercase();
        if let Some(&id) = self.node_index.get(&key) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(key.clone());
        self.node_index.insert(key, id);
        id
    }

    /// Looks up an existing node by name.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownNode`] if the name was never used.
    #[cfg(test)]
    pub(crate) fn find_node(&self, name: &str) -> Result<NodeId, SpiceError> {
        self.node_index
            .get(&name.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| SpiceError::UnknownNode(name.to_string()))
    }

    /// Node name for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this netlist.
    pub(crate) fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// The elements, in insertion order.
    pub(crate) fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Mutable element access for the transient engine's MTJ state updates.
    pub(crate) fn elements_mut(&mut self) -> &mut [Element] {
        &mut self.elements
    }

    fn check_name(&self, name: &str) -> Result<(), SpiceError> {
        if self.elements.iter().any(|e| e.name() == name) {
            Err(SpiceError::DuplicateElement(name.to_string()))
        } else {
            Ok(())
        }
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite resistance and duplicate names.
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: &str,
        b: &str,
        ohms: f64,
    ) -> Result<(), SpiceError> {
        self.check_name(name)?;
        if !(ohms.is_finite() && ohms > 0.0) {
            return Err(SpiceError::InvalidElement {
                name: name.to_string(),
                reason: format!("resistance {ohms} must be positive"),
            });
        }
        let (a, b) = (self.node(a), self.node(b));
        self.elements.push(Element::Resistor {
            name: name.to_string(),
            a,
            b,
            ohms,
        });
        Ok(())
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive capacitance and duplicate names.
    pub fn add_capacitor(
        &mut self,
        name: &str,
        a: &str,
        b: &str,
        farads: f64,
    ) -> Result<(), SpiceError> {
        self.check_name(name)?;
        if !(farads.is_finite() && farads > 0.0) {
            return Err(SpiceError::InvalidElement {
                name: name.to_string(),
                reason: format!("capacitance {farads} must be positive"),
            });
        }
        let (a, b) = (self.node(a), self.node(b));
        self.elements.push(Element::Capacitor {
            name: name.to_string(),
            a,
            b,
            farads,
        });
        Ok(())
    }

    /// Adds an independent voltage source.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn add_vsource(
        &mut self,
        name: &str,
        plus: &str,
        minus: &str,
        wave: Waveform,
    ) -> Result<(), SpiceError> {
        self.check_name(name)?;
        let (plus, minus) = (self.node(plus), self.node(minus));
        self.elements.push(Element::VSource {
            name: name.to_string(),
            plus,
            minus,
            wave,
        });
        Ok(())
    }

    /// Adds an independent current source (flows `plus → minus` through the
    /// source, i.e. injected into `minus`).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub(crate) fn add_isource(
        &mut self,
        name: &str,
        plus: &str,
        minus: &str,
        wave: Waveform,
    ) -> Result<(), SpiceError> {
        self.check_name(name)?;
        let (plus, minus) = (self.node(plus), self.node(minus));
        self.elements.push(Element::ISource {
            name: name.to_string(),
            plus,
            minus,
            wave,
        });
        Ok(())
    }

    /// Adds a MOSFET (bulk implicitly tied to source).
    ///
    /// # Errors
    ///
    /// Rejects non-positive geometry and duplicate names.
    pub fn add_mosfet(
        &mut self,
        name: &str,
        d: &str,
        g: &str,
        s: &str,
        model: MosModel,
        geom: MosGeometry,
    ) -> Result<(), SpiceError> {
        self.check_name(name)?;
        if !(geom.width > 0.0 && geom.length > 0.0) {
            return Err(SpiceError::InvalidElement {
                name: name.to_string(),
                reason: "W and L must be positive".to_string(),
            });
        }
        let (d, g, s) = (self.node(d), self.node(g), self.node(s));
        self.elements.push(Element::Mosfet {
            name: name.to_string(),
            d,
            g,
            s,
            model,
            geom,
        });
        Ok(())
    }

    /// Adds an MTJ device built from a stack description.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn add_mtj(
        &mut self,
        name: &str,
        plus: &str,
        minus: &str,
        stack: &MssStack,
        initial: MtjState,
    ) -> Result<(), SpiceError> {
        self.check_name(name)?;
        let (plus, minus) = (self.node(plus), self.node(minus));
        self.elements.push(Element::Mtj {
            name: name.to_string(),
            plus,
            minus,
            device: MtjElement::new(stack, initial),
        });
        Ok(())
    }

    /// Adds a three-terminal SOT/SHE MTJ cell.
    ///
    /// The junction (read path) connects `read`–`shared` with the stack's
    /// TMR resistance; the heavy-metal channel connects `shared`–`write`
    /// with resistance `ρ·L/(w·t_ch)` from `params`. Positive channel
    /// current (`shared → write`) writes the parallel state.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and invalid channel parameters.
    #[allow(clippy::too_many_arguments)] // three named terminals are the element
    pub fn add_mtj_sot(
        &mut self,
        name: &str,
        read: &str,
        shared: &str,
        write: &str,
        stack: &MssStack,
        params: &SotParams,
        initial: MtjState,
    ) -> Result<(), SpiceError> {
        self.check_name(name)?;
        let sot =
            SotMechanism::new(stack, params.clone()).map_err(|e| SpiceError::InvalidElement {
                name: name.to_string(),
                reason: format!("invalid SOT channel: {e}"),
            })?;
        let channel_ohms = sot.channel_resistance();
        let device = MtjElement::with_switching(stack, initial, sot.switching_model().clone());
        let (read, shared, write) = (self.node(read), self.node(shared), self.node(write));
        self.elements.push(Element::MtjSot {
            name: name.to_string(),
            read,
            shared,
            write,
            channel_ohms,
            device,
        });
        Ok(())
    }

    /// Index of a named element (for the value setters below).
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownNode`] when no element has that name.
    pub fn element_index(&self, name: &str) -> Result<usize, SpiceError> {
        self.elements
            .iter()
            .position(|e| e.name() == name)
            .ok_or_else(|| SpiceError::UnknownNode(name.to_string()))
    }

    /// Changes the value of the resistor at `index` without touching the
    /// netlist structure — the mutation primitive of the batched
    /// same-structure solve path ([`crate::batch::DcBatch`]).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidElement`] when `index` is out of range, the
    /// element is not a resistor, or the value is not positive and finite.
    pub fn set_resistance(&mut self, index: usize, ohms: f64) -> Result<(), SpiceError> {
        match self.elements.get_mut(index) {
            Some(Element::Resistor {
                name, ohms: slot, ..
            }) => {
                if !(ohms > 0.0 && ohms.is_finite()) {
                    return Err(SpiceError::InvalidElement {
                        name: name.clone(),
                        reason: format!("resistance {ohms} must be positive"),
                    });
                }
                *slot = ohms;
                Ok(())
            }
            Some(other) => Err(SpiceError::InvalidElement {
                name: other.name().to_string(),
                reason: "set_resistance targets a non-resistor".to_string(),
            }),
            None => Err(SpiceError::InvalidElement {
                name: format!("#{index}"),
                reason: "element index out of range".to_string(),
            }),
        }
    }

    /// Replaces the waveform of the voltage or current source at `index`,
    /// keeping the netlist structure fixed.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidElement`] when `index` is out of range or the
    /// element is not a source.
    pub fn set_source_wave(&mut self, index: usize, wave: Waveform) -> Result<(), SpiceError> {
        match self.elements.get_mut(index) {
            Some(Element::VSource { wave: slot, .. })
            | Some(Element::ISource { wave: slot, .. }) => {
                *slot = wave;
                Ok(())
            }
            Some(other) => Err(SpiceError::InvalidElement {
                name: other.name().to_string(),
                reason: "set_source_wave targets a non-source".to_string(),
            }),
            None => Err(SpiceError::InvalidElement {
                name: format!("#{index}"),
                reason: "element index out of range".to_string(),
            }),
        }
    }

    /// Resets the stored state of the MTJ at `index` (e.g. to solve the
    /// same cell in both parallel and antiparallel configurations),
    /// keeping the netlist structure fixed.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidElement`] when `index` is out of range or the
    /// element is not an MTJ.
    pub fn set_mtj_state(&mut self, index: usize, state: MtjState) -> Result<(), SpiceError> {
        match self.elements.get_mut(index) {
            Some(Element::Mtj { device, .. }) | Some(Element::MtjSot { device, .. }) => {
                device.set_state(state);
                Ok(())
            }
            Some(other) => Err(SpiceError::InvalidElement {
                name: other.name().to_string(),
                reason: "set_mtj_state targets a non-MTJ".to_string(),
            }),
            None => Err(SpiceError::InvalidElement {
                name: format!("#{index}"),
                reason: "element index out of range".to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut nl = Netlist::new();
        assert_eq!(nl.node("0"), NodeId::GROUND);
        assert_eq!(nl.node("gnd"), NodeId::GROUND);
        assert_eq!(nl.node("GND"), NodeId::GROUND);
        assert!(NodeId::GROUND.is_ground());
    }

    #[test]
    fn nodes_are_case_insensitive_and_stable() {
        let mut nl = Netlist::new();
        let a = nl.node("OUT");
        let b = nl.node("out");
        assert_eq!(a, b);
        assert_eq!(nl.node_name(a), "out");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut nl = Netlist::new();
        nl.add_resistor("r1", "a", "0", 1.0).unwrap();
        let err = nl.add_resistor("r1", "b", "0", 2.0).unwrap_err();
        assert!(matches!(err, SpiceError::DuplicateElement(_)));
    }

    #[test]
    fn negative_values_rejected() {
        let mut nl = Netlist::new();
        assert!(nl.add_resistor("r1", "a", "0", -5.0).is_err());
        assert!(nl.add_capacitor("c1", "a", "0", 0.0).is_err());
        assert!(nl.add_resistor("r2", "a", "0", f64::NAN).is_err());
    }

    #[test]
    fn find_node_errors_on_unknown() {
        let nl = Netlist::new();
        assert!(matches!(
            nl.find_node("nowhere"),
            Err(SpiceError::UnknownNode(_))
        ));
    }
}
