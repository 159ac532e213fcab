//! Simulation traces: per-cycle samples and full-resolution waveforms.

use crate::value::Logic;

/// A per-cycle sampled trace of a set of signals.
///
/// Both engines sample the observed signals once per clock cycle (after the
/// cycle settles); soft-error detection compares the golden and faulty
/// [`CycleTrace`]s of the primary outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleTrace {
    /// Signal names, one per column.
    pub signals: Vec<String>,
    /// One row of sampled values per cycle.
    pub rows: Vec<Vec<Logic>>,
}

/// A single point where two traces disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Cycle index of the mismatch.
    pub cycle: usize,
    /// Name of the mismatching signal.
    pub signal: String,
    /// Value in the reference trace.
    pub expected: Logic,
    /// Value in the observed trace.
    pub actual: Logic,
}

impl CycleTrace {
    /// Creates an empty trace over the given signals.
    pub fn new(signals: Vec<String>) -> Self {
        CycleTrace {
            signals,
            rows: Vec::new(),
        }
    }

    /// Appends one cycle of samples.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the signal count.
    pub fn push_row(&mut self, row: Vec<Logic>) {
        assert_eq!(row.len(), self.signals.len(), "sample width mismatch");
        self.rows.push(row);
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no cycle has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Compares `self` (reference) against `other`, returning every
    /// divergence on common cycles and signals. A length mismatch is
    /// reported as a divergence at the first missing cycle with `X` values.
    pub fn diff(&self, other: &CycleTrace) -> Vec<Divergence> {
        let mut out = Vec::new();
        let common = self.rows.len().min(other.rows.len());
        for cycle in 0..common {
            for (i, name) in self.signals.iter().enumerate() {
                let expected = self.rows[cycle][i];
                let actual = other
                    .signals
                    .iter()
                    .position(|s| s == name)
                    .map(|j| other.rows[cycle][j])
                    .unwrap_or(Logic::X);
                if expected != actual {
                    out.push(Divergence {
                        cycle,
                        signal: name.clone(),
                        expected,
                        actual,
                    });
                }
            }
        }
        if self.rows.len() != other.rows.len() {
            out.push(Divergence {
                cycle: common,
                signal: "<length>".to_owned(),
                expected: Logic::X,
                actual: Logic::X,
            });
        }
        out
    }

    /// Whether the traces agree on all cycles and signals.
    pub fn matches(&self, other: &CycleTrace) -> bool {
        self.diff(other).is_empty()
    }

    /// Converts to a full-resolution waveform assuming one sample per
    /// `period` time units.
    pub fn to_wave(&self, period: u64) -> WaveTrace {
        let mut wave = WaveTrace::new();
        for (i, name) in self.signals.iter().enumerate() {
            let mut changes = Vec::new();
            let mut last = None;
            for (cycle, row) in self.rows.iter().enumerate() {
                let v = row[i];
                if last != Some(v) {
                    changes.push((cycle as u64 * period, v));
                    last = Some(v);
                }
            }
            wave.signals.push(WaveSignal {
                name: name.clone(),
                changes,
            });
        }
        wave
    }
}

/// The change history of one signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveSignal {
    /// Signal name.
    pub name: String,
    /// `(time, value)` change points, strictly increasing in time.
    pub changes: Vec<(u64, Logic)>,
}

impl WaveSignal {
    /// Value of the signal at time `t` (the most recent change at or before
    /// `t`), or `X` before the first change.
    pub fn value_at(&self, t: u64) -> Logic {
        match self.changes.partition_point(|&(ct, _)| ct <= t) {
            0 => Logic::X,
            n => self.changes[n - 1].1,
        }
    }

    /// Number of value changes after the first (i.e. toggle count).
    pub fn toggles(&self) -> usize {
        self.changes.len().saturating_sub(1)
    }
}

/// A full-resolution waveform of several signals, as written to / read from
/// VCD files.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WaveTrace {
    /// Signals in declaration order.
    pub signals: Vec<WaveSignal>,
}

impl WaveTrace {
    /// Creates an empty waveform.
    pub fn new() -> Self {
        WaveTrace::default()
    }

    /// Finds a signal by name.
    pub fn signal(&self, name: &str) -> Option<&WaveSignal> {
        self.signals.iter().find(|s| s.name == name)
    }

    /// Compares two waveforms sampled at the given times, on signals common
    /// to both; returns `(time, name, a, b)` mismatches.
    pub fn diff_sampled(
        &self,
        other: &WaveTrace,
        times: &[u64],
    ) -> Vec<(u64, String, Logic, Logic)> {
        let mut out = Vec::new();
        for sig in &self.signals {
            if let Some(oth) = other.signal(&sig.name) {
                for &t in times {
                    let a = sig.value_at(t);
                    let b = oth.value_at(t);
                    if a != b {
                        out.push((t, sig.name.clone(), a, b));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(rows: &[&[Logic]]) -> CycleTrace {
        let mut t = CycleTrace::new(vec!["a".into(), "b".into()]);
        for row in rows {
            t.push_row(row.to_vec());
        }
        t
    }

    #[test]
    fn identical_traces_match() {
        let a = trace(&[&[Logic::Zero, Logic::One], &[Logic::One, Logic::One]]);
        let b = a.clone();
        assert!(a.matches(&b));
        assert!(a.diff(&b).is_empty());
    }

    #[test]
    fn diff_reports_cycle_and_signal() {
        let a = trace(&[&[Logic::Zero, Logic::One]]);
        let b = trace(&[&[Logic::Zero, Logic::Zero]]);
        let d = a.diff(&b);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].cycle, 0);
        assert_eq!(d[0].signal, "b");
        assert_eq!(d[0].expected, Logic::One);
        assert_eq!(d[0].actual, Logic::Zero);
    }

    #[test]
    fn diff_flags_length_mismatch() {
        let a = trace(&[&[Logic::Zero, Logic::Zero], &[Logic::Zero, Logic::Zero]]);
        let b = trace(&[&[Logic::Zero, Logic::Zero]]);
        let d = a.diff(&b);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].signal, "<length>");
        assert!(!a.matches(&b));
    }

    #[test]
    fn diff_matches_signals_by_name_not_position() {
        let mut a = CycleTrace::new(vec!["x".into(), "y".into()]);
        a.push_row(vec![Logic::Zero, Logic::One]);
        let mut b = CycleTrace::new(vec!["y".into(), "x".into()]);
        b.push_row(vec![Logic::One, Logic::Zero]);
        assert!(a.matches(&b));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn push_row_validates_width() {
        let mut t = CycleTrace::new(vec!["a".into()]);
        t.push_row(vec![Logic::Zero, Logic::One]);
    }

    #[test]
    fn wave_value_at_and_toggles() {
        let sig = WaveSignal {
            name: "s".into(),
            changes: vec![(0, Logic::Zero), (10, Logic::One), (20, Logic::Zero)],
        };
        assert_eq!(sig.value_at(0), Logic::Zero);
        assert_eq!(sig.value_at(9), Logic::Zero);
        assert_eq!(sig.value_at(10), Logic::One);
        assert_eq!(sig.value_at(15), Logic::One);
        assert_eq!(sig.value_at(25), Logic::Zero);
        assert_eq!(sig.toggles(), 2);
    }

    #[test]
    fn wave_value_before_first_change_is_x() {
        let sig = WaveSignal {
            name: "s".into(),
            changes: vec![(5, Logic::One)],
        };
        assert_eq!(sig.value_at(0), Logic::X);
        assert_eq!(sig.value_at(4), Logic::X);
    }

    #[test]
    fn cycle_to_wave_compresses_repeats() {
        let t = trace(&[
            &[Logic::Zero, Logic::One],
            &[Logic::Zero, Logic::Zero],
            &[Logic::One, Logic::Zero],
        ]);
        let wave = t.to_wave(10);
        let a = wave.signal("a").unwrap();
        assert_eq!(a.changes, vec![(0, Logic::Zero), (20, Logic::One)]);
    }

    #[test]
    fn wave_diff_sampled() {
        let t1 = trace(&[&[Logic::Zero, Logic::One]]).to_wave(10);
        let t2 = trace(&[&[Logic::One, Logic::One]]).to_wave(10);
        let d = t1.diff_sampled(&t2, &[0, 5]);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].1, "a");
    }
}
