//! Workload driving: reset sequencing, stimulus and output capture.

use crate::engine::Engine;
use crate::trace::CycleTrace;
use crate::value::Logic;
use ssresf_netlist::NetId;

/// A 32-bit Galois LFSR used for deterministic pseudo-random stimulus.
///
/// # Example
///
/// ```
/// use ssresf_sim::Lfsr;
///
/// let mut a = Lfsr::new(42);
/// let mut b = Lfsr::new(42);
/// let bits: Vec<bool> = (0..8).map(|_| a.next_bit()).collect();
/// let again: Vec<bool> = (0..8).map(|_| b.next_bit()).collect();
/// assert_eq!(bits, again); // same seed, same sequence
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    state: u32,
}

impl Lfsr {
    /// Creates an LFSR; a zero seed is remapped to a fixed nonzero value.
    pub fn new(seed: u32) -> Self {
        Lfsr {
            state: if seed == 0 { 0xACE1_u32 } else { seed },
        }
    }

    /// Produces the next pseudo-random bit.
    pub fn next_bit(&mut self) -> bool {
        let bit = self.state & 1 == 1;
        self.state >>= 1;
        if bit {
            // Taps for the maximal-length polynomial x^32+x^22+x^2+x+1.
            self.state ^= 0x8020_0003;
        }
        bit
    }

    /// Produces the next pseudo-random `n`-bit word (LSB generated first).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn next_bits(&mut self, n: u32) -> u64 {
        assert!(n <= 64);
        let mut word = 0u64;
        for i in 0..n {
            if self.next_bit() {
                word |= 1 << i;
            }
        }
        word
    }
}

/// Drives an [`Engine`] through reset and a workload, collecting a
/// per-cycle [`CycleTrace`] of the primary outputs.
///
/// The testbench assumes the SSRESF design conventions: one clock (driven by
/// the engine) and an optional active-low reset input named `rst_n`.
#[derive(Debug)]
pub struct Testbench<E: Engine> {
    engine: E,
    reset: Option<NetId>,
    outputs: Vec<NetId>,
    output_names: Vec<String>,
}

impl<E: Engine> Testbench<E> {
    /// Wraps an engine, observing all primary outputs and auto-detecting an
    /// active-low reset input named `rst_n`.
    pub fn new(engine: E) -> Self {
        let netlist = engine.netlist();
        let outputs: Vec<NetId> = netlist.primary_outputs().to_vec();
        let output_names = outputs.iter().map(|&n| netlist.net_full_name(n)).collect();
        let reset = netlist
            .net_by_name("rst_n")
            .filter(|n| netlist.primary_inputs().contains(n));
        Testbench {
            engine,
            reset,
            outputs,
            output_names,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the wrapped engine (e.g. to schedule faults).
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Holds reset low for `reset_cycles`, releases it, then runs
    /// `run_cycles` cycles sampling the outputs after each.
    ///
    /// Fault cycles are counted from the same origin as the returned trace's
    /// rows: cycle 0 is the first post-reset cycle.
    pub fn run(&mut self, reset_cycles: u64, run_cycles: u64) -> CycleTrace {
        self.run_with_stimulus(reset_cycles, run_cycles, |_, _| {})
    }

    /// Like [`run`](Testbench::run), with a per-cycle stimulus callback
    /// invoked before each post-reset cycle. The callback may poke inputs.
    pub fn run_with_stimulus(
        &mut self,
        reset_cycles: u64,
        run_cycles: u64,
        mut stimulus: impl FnMut(u64, &mut E),
    ) -> CycleTrace {
        if let Some(rst) = self.reset {
            self.engine.poke(rst, Logic::Zero);
            for _ in 0..reset_cycles {
                self.engine.step_cycle();
            }
            self.engine.poke(rst, Logic::One);
        }
        let mut trace = CycleTrace::new(self.output_names.clone());
        for cycle in 0..run_cycles {
            stimulus(cycle, &mut self.engine);
            self.engine.step_cycle();
            trace.push_row(self.engine.sample(&self.outputs));
        }
        trace
    }
}

/// Pokes every net in `inputs` with a fresh LFSR bit — a generic workload
/// for circuits without an embedded program.
pub fn drive_random_inputs<E: Engine>(engine: &mut E, inputs: &[NetId], lfsr: &mut Lfsr) {
    for &net in inputs {
        engine.poke(net, Logic::from_bool(lfsr.next_bit()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_is_deterministic_and_balanced() {
        let mut lfsr = Lfsr::new(7);
        let ones = (0..10_000).filter(|_| lfsr.next_bit()).count();
        // A maximal-length LFSR is close to balanced.
        assert!((4_000..6_000).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn lfsr_zero_seed_is_remapped() {
        let mut lfsr = Lfsr::new(0);
        // Must not get stuck at zero.
        let any_one = (0..64).any(|_| lfsr.next_bit());
        assert!(any_one);
    }

    #[test]
    fn lfsr_words_differ_over_time() {
        let mut lfsr = Lfsr::new(1);
        let a = lfsr.next_bits(32);
        let b = lfsr.next_bits(32);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic]
    fn lfsr_word_width_is_bounded() {
        let mut lfsr = Lfsr::new(1);
        let _ = lfsr.next_bits(65);
    }
}
