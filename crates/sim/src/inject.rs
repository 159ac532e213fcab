//! Fault-injection operations.
//!
//! Faults are scheduled against engine cycles, with sub-cycle placement
//! expressed as a fraction of the clock period. The event-driven engine
//! honors the exact placement and pulse width; the levelized engine, which
//! evaluates once per cycle, widens a SET to the whole cycle (the standard
//! cycle-accurate approximation).

use crate::value::Logic;
use ssresf_netlist::{CellId, NetId};

/// A single-event transient: the target net is forced to the inverse of its
/// current value for a bounded duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetFault {
    /// Net to disturb (typically the output net of a combinational cell).
    pub net: NetId,
    /// Cycle during which the transient starts.
    pub cycle: u64,
    /// Start offset within the cycle, in `[0, 1)` of the period.
    pub offset: f64,
    /// Pulse width as a fraction of the period, in `(0, 1]`.
    pub width: f64,
}

/// A single-event upset: the state of a sequential cell is inverted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeuFault {
    /// Sequential cell whose stored bit flips.
    pub cell: CellId,
    /// Cycle during which the flip occurs.
    pub cycle: u64,
    /// Offset within the cycle, in `[0, 1)` of the period.
    pub offset: f64,
}

/// A fault to inject during simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Transient on a net.
    Set(SetFault),
    /// Bit flip in a sequential cell.
    Seu(SeuFault),
}

impl Fault {
    /// The cycle the fault fires in.
    pub fn cycle(&self) -> u64 {
        match self {
            Fault::Set(f) => f.cycle,
            Fault::Seu(f) => f.cycle,
        }
    }

    /// Validates offsets and widths.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Fault::Set(f) => {
                if !(0.0..1.0).contains(&f.offset) {
                    return Err(format!("SET offset {} outside [0, 1)", f.offset));
                }
                if !(f.width > 0.0 && f.width <= 1.0) {
                    return Err(format!("SET width {} outside (0, 1]", f.width));
                }
                Ok(())
            }
            Fault::Seu(f) => {
                if !(0.0..1.0).contains(&f.offset) {
                    return Err(format!("SEU offset {} outside [0, 1)", f.offset));
                }
                Ok(())
            }
        }
    }
}

/// A forced value on a net, used by engines to implement SET pulses
/// (equivalent to the VPI `force`/`release` pair the paper drives through
/// the simulator interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Force {
    /// Forced net.
    pub net: NetId,
    /// Value held while the force is active.
    pub value: Logic,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_reasonable_faults() {
        let set = Fault::Set(SetFault {
            net: NetId(0),
            cycle: 3,
            offset: 0.25,
            width: 0.1,
        });
        assert!(set.validate().is_ok());
        assert_eq!(set.cycle(), 3);

        let seu = Fault::Seu(SeuFault {
            cell: CellId(1),
            cycle: 7,
            offset: 0.0,
        });
        assert!(seu.validate().is_ok());
        assert_eq!(seu.cycle(), 7);
    }

    #[test]
    fn validate_rejects_bad_offsets_and_widths() {
        let bad_offset = Fault::Set(SetFault {
            net: NetId(0),
            cycle: 0,
            offset: 1.0,
            width: 0.1,
        });
        assert!(bad_offset.validate().is_err());

        let bad_width = Fault::Set(SetFault {
            net: NetId(0),
            cycle: 0,
            offset: 0.0,
            width: 0.0,
        });
        assert!(bad_width.validate().is_err());

        let bad_seu = Fault::Seu(SeuFault {
            cell: CellId(0),
            cycle: 0,
            offset: -0.1,
        });
        assert!(bad_seu.validate().is_err());
    }
}
