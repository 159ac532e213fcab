//! The SET/SEU soft-error database (paper Fig. 3).
//!
//! For every library cell kind the database stores SET and SEU cross-sections
//! at a small set of calibration LET values — the paper uses LET 1.0, 37.0
//! and 100.0 MeV·cm²/mg "to encompass different radiation environments".
//! Lookups at other LETs interpolate log-linearly between calibration points.
//! The database round-trips through JSON so campaigns are reproducible and
//! auditable.

use crate::units::{Area, Let};
use crate::weibull::WeibullCurve;
use ssresf_json::{field, FromJson, ToJson, Value};
use ssresf_netlist::cell::ALL_CELL_KINDS;
use ssresf_netlist::{CellKind, RadiationClass};

/// The paper's calibration LET values, MeV·cm²/mg.
pub const CALIBRATION_LETS: [f64; 3] = [1.0, 37.0, 100.0];

/// Cross-sections of one cell kind at one calibration LET.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LetPoint {
    /// Calibration LET, MeV·cm²/mg.
    pub let_value: f64,
    /// SEU (state-flip) cross-section, cm²; zero for combinational cells.
    pub seu_cm2: f64,
    /// SET (transient) cross-section, cm²; zero for storage cells.
    pub set_cm2: f64,
}

/// The database record of one cell kind.
#[derive(Debug, Clone, PartialEq)]
pub struct DatabaseEntry {
    /// Library cell kind name (stable across versions).
    pub cell_kind: String,
    /// Radiation class the curve was derived from.
    pub class: RadiationClass,
    /// Relative drive/area weight (transistor count) used to scale the
    /// class-level curve to this kind.
    pub area_weight: f64,
    /// Cross-sections at the calibration LETs, ascending in LET.
    pub points: Vec<LetPoint>,
}

/// The SET and SEU single-particle soft-error database.
///
/// # Example
///
/// ```
/// use ssresf_json::{FromJson, ToJson};
/// use ssresf_radiation::{Let, SoftErrorDatabase};
/// use ssresf_netlist::CellKind;
///
/// let db = SoftErrorDatabase::standard();
/// // Interpolated lookup between calibration points:
/// let sigma = db.seu_cross_section(CellKind::Dff, Let::new(20.0));
/// assert!(sigma > 0.0);
/// let json = db.to_json().to_string_pretty();
/// let restored = SoftErrorDatabase::from_json(&ssresf_json::parse(&json).unwrap()).unwrap();
/// assert_eq!(restored.entries().len(), db.entries().len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SoftErrorDatabase {
    entries: Vec<DatabaseEntry>,
}

impl SoftErrorDatabase {
    /// Builds the standard database from the per-class default Weibull
    /// curves, scaled per cell kind by transistor count.
    pub fn standard() -> Self {
        let mut entries = Vec::new();
        for &kind in ALL_CELL_KINDS {
            let class = kind.radiation_class();
            let curve = WeibullCurve::default_for(class);
            // Scale the class-level curve by the cell's area relative to a
            // nominal 6-transistor cell.
            let area_weight = f64::from(kind.transistor_count()) / 6.0;
            let points = CALIBRATION_LETS
                .iter()
                .map(|&l| {
                    let sigma = curve.cross_section(Let::new(l)).value() * area_weight;
                    let (seu, set) = if kind.is_sequential() {
                        (sigma, 0.0)
                    } else {
                        (0.0, sigma)
                    };
                    LetPoint {
                        let_value: l,
                        seu_cm2: seu,
                        set_cm2: set,
                    }
                })
                .collect();
            entries.push(DatabaseEntry {
                cell_kind: kind.name().to_owned(),
                class,
                area_weight,
                points,
            });
        }
        SoftErrorDatabase { entries }
    }

    /// All entries.
    pub fn entries(&self) -> &[DatabaseEntry] {
        &self.entries
    }

    /// The entry for a cell kind.
    pub fn entry(&self, kind: CellKind) -> Option<&DatabaseEntry> {
        self.entries.iter().find(|e| e.cell_kind == kind.name())
    }

    /// SEU cross-section of `kind` at `let_value` (log-linear interpolation;
    /// clamped to the calibration range).
    pub fn seu_cross_section(&self, kind: CellKind, let_value: Let) -> f64 {
        self.lookup(kind, let_value, |p| p.seu_cm2)
    }

    /// SET cross-section of `kind` at `let_value`.
    pub fn set_cross_section(&self, kind: CellKind, let_value: Let) -> f64 {
        self.lookup(kind, let_value, |p| p.set_cm2)
    }

    fn lookup(&self, kind: CellKind, let_value: Let, select: impl Fn(&LetPoint) -> f64) -> f64 {
        let Some(entry) = self.entry(kind) else {
            return 0.0;
        };
        let points = &entry.points;
        if points.is_empty() {
            return 0.0;
        }
        let l = let_value.value();
        if l <= points[0].let_value {
            return select(&points[0]);
        }
        if l >= points[points.len() - 1].let_value {
            return select(&points[points.len() - 1]);
        }
        for pair in points.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if l >= a.let_value && l <= b.let_value {
                let t = (l - a.let_value) / (b.let_value - a.let_value);
                let (sa, sb) = (select(a), select(b));
                // Log-linear interpolation when both endpoints are positive;
                // linear otherwise (a zero endpoint has no logarithm).
                if sa > 0.0 && sb > 0.0 {
                    return (sa.ln() + t * (sb.ln() - sa.ln())).exp();
                }
                return sa + t * (sb - sa);
            }
        }
        0.0
    }

    /// Chip-level SEU and SET cross-sections of a netlist at `let_value`:
    /// the sums of the per-cell cross-sections (paper Table I "Xsect Info").
    pub fn chip_cross_sections(
        &self,
        netlist: &ssresf_netlist::FlatNetlist,
        let_value: Let,
    ) -> (Area, Area) {
        let mut seu = 0.0;
        let mut set = 0.0;
        for (_, cell) in netlist.iter_cells() {
            seu += self.seu_cross_section(cell.kind, let_value);
            set += self.set_cross_section(cell.kind, let_value);
        }
        (Area::new(seu), Area::new(set))
    }
}

impl ToJson for LetPoint {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("let_value", self.let_value.to_json()),
            ("seu_cm2", self.seu_cm2.to_json()),
            ("set_cm2", self.set_cm2.to_json()),
        ])
    }
}

impl FromJson for LetPoint {
    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(LetPoint {
            let_value: field(value, "let_value")?,
            seu_cm2: field(value, "seu_cm2")?,
            set_cm2: field(value, "set_cm2")?,
        })
    }
}

impl ToJson for DatabaseEntry {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("cell_kind", self.cell_kind.to_json()),
            ("class", Value::from(class_name(self.class))),
            ("area_weight", self.area_weight.to_json()),
            ("points", self.points.to_json()),
        ])
    }
}

impl FromJson for DatabaseEntry {
    fn from_json(value: &Value) -> Result<Self, String> {
        let class: String = field(value, "class")?;
        Ok(DatabaseEntry {
            cell_kind: field(value, "cell_kind")?,
            class: class_from_name(&class)
                .ok_or_else(|| format!("unknown radiation class {class:?}"))?,
            area_weight: field(value, "area_weight")?,
            points: field(value, "points")?,
        })
    }
}

impl ToJson for SoftErrorDatabase {
    fn to_json(&self) -> Value {
        ssresf_json::object([("entries", self.entries.to_json())])
    }
}

impl FromJson for SoftErrorDatabase {
    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(SoftErrorDatabase {
            entries: field(value, "entries")?,
        })
    }
}

/// Stable interchange name of a radiation class (matches the variant name).
fn class_name(class: RadiationClass) -> &'static str {
    match class {
        RadiationClass::Combinational => "Combinational",
        RadiationClass::FlipFlop => "FlipFlop",
        RadiationClass::SramCell => "SramCell",
        RadiationClass::DramCell => "DramCell",
        RadiationClass::RadHardCell => "RadHardCell",
    }
}

fn class_from_name(name: &str) -> Option<RadiationClass> {
    Some(match name {
        "Combinational" => RadiationClass::Combinational,
        "FlipFlop" => RadiationClass::FlipFlop,
        "SramCell" => RadiationClass::SramCell,
        "DramCell" => RadiationClass::DramCell,
        "RadHardCell" => RadiationClass::RadHardCell,
        _ => return None,
    })
}

impl Default for SoftErrorDatabase {
    fn default() -> Self {
        SoftErrorDatabase::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_covers_all_cell_kinds() {
        let db = SoftErrorDatabase::standard();
        for &kind in ALL_CELL_KINDS {
            let entry = db.entry(kind).unwrap_or_else(|| panic!("missing {kind}"));
            assert_eq!(entry.points.len(), CALIBRATION_LETS.len());
        }
    }

    #[test]
    fn sequential_cells_have_seu_not_set() {
        let db = SoftErrorDatabase::standard();
        let l = Let::new(37.0);
        assert!(db.seu_cross_section(CellKind::Dff, l) > 0.0);
        assert_eq!(db.set_cross_section(CellKind::Dff, l), 0.0);
        assert!(db.set_cross_section(CellKind::Nand2, l) > 0.0);
        assert_eq!(db.seu_cross_section(CellKind::Nand2, l), 0.0);
    }

    #[test]
    fn interpolation_is_monotone_and_clamped() {
        let db = SoftErrorDatabase::standard();
        let s1 = db.seu_cross_section(CellKind::SramBit, Let::new(1.0));
        let s20 = db.seu_cross_section(CellKind::SramBit, Let::new(20.0));
        let s37 = db.seu_cross_section(CellKind::SramBit, Let::new(37.0));
        let s100 = db.seu_cross_section(CellKind::SramBit, Let::new(100.0));
        let s500 = db.seu_cross_section(CellKind::SramBit, Let::new(500.0));
        assert!(s1 < s20 && s20 < s37 && s37 < s100);
        assert_eq!(s100, s500, "clamped above the calibration range");
        let s_half = db.seu_cross_section(CellKind::SramBit, Let::new(0.5));
        assert_eq!(s_half, s1, "clamped below the calibration range");
    }

    #[test]
    fn rad_hard_is_orders_of_magnitude_less_sensitive() {
        let db = SoftErrorDatabase::standard();
        let normal = db.seu_cross_section(CellKind::SramBit, Let::new(100.0));
        let hard = db.seu_cross_section(CellKind::RadHardBit, Let::new(100.0));
        assert!(normal > 100.0 * hard);
    }

    #[test]
    fn json_round_trip() {
        let db = SoftErrorDatabase::standard();
        let text = db.to_json().to_string_pretty();
        let restored = SoftErrorDatabase::from_json(&ssresf_json::parse(&text).unwrap()).unwrap();
        assert_eq!(db.entries().len(), restored.entries().len());
        for (a, b) in db.entries().iter().zip(restored.entries()) {
            assert_eq!(a.cell_kind, b.cell_kind);
            assert_eq!(a.class, b.class);
            for (pa, pb) in a.points.iter().zip(&b.points) {
                assert_eq!(pa.let_value, pb.let_value);
                // JSON text form may lose the last ULP of a double.
                assert!((pa.seu_cm2 - pb.seu_cm2).abs() <= pa.seu_cm2.abs() * 1e-12);
                assert!((pa.set_cm2 - pb.set_cm2).abs() <= pa.set_cm2.abs() * 1e-12);
            }
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(SoftErrorDatabase::from_json(&Value::from("not json")).is_err());
        let foreign_class =
            r#"{"entries":[{"cell_kind":"X","class":"Bogus","area_weight":1,"points":[]}]}"#;
        assert!(SoftErrorDatabase::from_json(&ssresf_json::parse(foreign_class).unwrap()).is_err());
    }

    #[test]
    fn bigger_cells_have_bigger_cross_sections() {
        let db = SoftErrorDatabase::standard();
        let l = Let::new(37.0);
        // DFFRE (28 transistors) vs DFF (20 transistors), same class.
        assert!(db.seu_cross_section(CellKind::Dffre, l) > db.seu_cross_section(CellKind::Dff, l));
    }
}
