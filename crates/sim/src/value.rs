//! Four-state logic values.

/// An IEEE-1364-style four-state logic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Logic {
    /// Logic low.
    Zero,
    /// Logic high.
    One,
    /// Unknown.
    X,
    /// High impedance (treated as unknown by gate inputs).
    Z,
}

impl Logic {
    /// Converts a boolean.
    pub fn from_bool(b: bool) -> Logic {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// `Some(bool)` for defined values, `None` for `X`/`Z`.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X | Logic::Z => None,
        }
    }

    /// Whether the value is `0` or `1`.
    pub fn is_defined(self) -> bool {
        matches!(self, Logic::Zero | Logic::One)
    }

    /// Logical negation; unknowns stay unknown.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X | Logic::Z => Logic::X,
        }
    }

    /// Logical AND with dominance of `0`.
    pub fn and(self, other: Logic) -> Logic {
        match (self.to_bool(), other.to_bool()) {
            (Some(false), _) | (_, Some(false)) => Logic::Zero,
            (Some(true), Some(true)) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Logical OR with dominance of `1`.
    pub fn or(self, other: Logic) -> Logic {
        match (self.to_bool(), other.to_bool()) {
            (Some(true), _) | (_, Some(true)) => Logic::One,
            (Some(false), Some(false)) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Logical XOR; any unknown input yields unknown.
    pub fn xor(self, other: Logic) -> Logic {
        match (self.to_bool(), other.to_bool()) {
            (Some(a), Some(b)) => Logic::from_bool(a ^ b),
            _ => Logic::X,
        }
    }

    /// Multiplexer select: `s ? d1 : d0`. An unknown select yields the
    /// common value of `d0`/`d1` when they agree, otherwise `X`.
    pub fn mux(self, d0: Logic, d1: Logic) -> Logic {
        match self.to_bool() {
            Some(false) => d0,
            Some(true) => d1,
            None => {
                if d0 == d1 && d0.is_defined() {
                    d0
                } else {
                    Logic::X
                }
            }
        }
    }

    /// The VCD character for this value (`0`, `1`, `x`, `z`).
    pub fn vcd_char(self) -> char {
        match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'x',
            Logic::Z => 'z',
        }
    }

    /// Parses a VCD value character (case-insensitive for `x`/`z`).
    pub fn from_vcd_char(c: char) -> Option<Logic> {
        match c {
            '0' => Some(Logic::Zero),
            '1' => Some(Logic::One),
            'x' | 'X' => Some(Logic::X),
            'z' | 'Z' => Some(Logic::Z),
            _ => None,
        }
    }
}

impl Default for Logic {
    /// Nets power up unknown.
    fn default() -> Self {
        Logic::X
    }
}

impl std::fmt::Display for Logic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.vcd_char())
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Logic {
        Logic::from_bool(b)
    }
}

/// All four logic values, for exhaustive table tests.
pub const ALL_LOGIC: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_truth_table() {
        assert_eq!(Logic::Zero.not(), Logic::One);
        assert_eq!(Logic::One.not(), Logic::Zero);
        assert_eq!(Logic::X.not(), Logic::X);
        assert_eq!(Logic::Z.not(), Logic::X);
    }

    #[test]
    fn and_dominance_of_zero() {
        for v in ALL_LOGIC {
            assert_eq!(Logic::Zero.and(v), Logic::Zero);
            assert_eq!(v.and(Logic::Zero), Logic::Zero);
        }
        assert_eq!(Logic::One.and(Logic::One), Logic::One);
        assert_eq!(Logic::One.and(Logic::X), Logic::X);
        assert_eq!(Logic::Z.and(Logic::One), Logic::X);
    }

    #[test]
    fn or_dominance_of_one() {
        for v in ALL_LOGIC {
            assert_eq!(Logic::One.or(v), Logic::One);
            assert_eq!(v.or(Logic::One), Logic::One);
        }
        assert_eq!(Logic::Zero.or(Logic::Zero), Logic::Zero);
        assert_eq!(Logic::Zero.or(Logic::X), Logic::X);
    }

    #[test]
    fn xor_is_strict_about_unknowns() {
        assert_eq!(Logic::One.xor(Logic::Zero), Logic::One);
        assert_eq!(Logic::One.xor(Logic::One), Logic::Zero);
        for v in [Logic::X, Logic::Z] {
            for w in ALL_LOGIC {
                assert_eq!(v.xor(w), Logic::X);
            }
        }
    }

    #[test]
    fn mux_select() {
        assert_eq!(Logic::Zero.mux(Logic::One, Logic::Zero), Logic::One);
        assert_eq!(Logic::One.mux(Logic::One, Logic::Zero), Logic::Zero);
        // Unknown select with agreeing data passes the common value.
        assert_eq!(Logic::X.mux(Logic::One, Logic::One), Logic::One);
        assert_eq!(Logic::X.mux(Logic::One, Logic::Zero), Logic::X);
        assert_eq!(Logic::X.mux(Logic::X, Logic::X), Logic::X);
    }

    #[test]
    fn commutativity_of_and_or_xor() {
        for a in ALL_LOGIC {
            for b in ALL_LOGIC {
                assert_eq!(a.and(b), b.and(a));
                assert_eq!(a.or(b), b.or(a));
                assert_eq!(a.xor(b), b.xor(a));
            }
        }
    }

    #[test]
    fn de_morgan_holds_for_defined_values() {
        for a in [Logic::Zero, Logic::One] {
            for b in [Logic::Zero, Logic::One] {
                assert_eq!(a.and(b).not(), a.not().or(b.not()));
                assert_eq!(a.or(b).not(), a.not().and(b.not()));
            }
        }
    }

    #[test]
    fn vcd_round_trip() {
        for v in ALL_LOGIC {
            assert_eq!(Logic::from_vcd_char(v.vcd_char()), Some(v));
        }
        assert_eq!(Logic::from_vcd_char('q'), None);
    }

    #[test]
    fn bool_conversions() {
        assert_eq!(Logic::from(true), Logic::One);
        assert_eq!(Logic::from(false), Logic::Zero);
        assert_eq!(Logic::One.to_bool(), Some(true));
        assert_eq!(Logic::Z.to_bool(), None);
        assert_eq!(Logic::default(), Logic::X);
    }
}
