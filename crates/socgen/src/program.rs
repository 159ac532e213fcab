//! The embedded workload: a tiny accumulator ISA and its assembler.
//!
//! Each generated CPU core executes a fixed program from a gate-level ROM.
//! Instructions are 8 bits: a 4-bit opcode and a 4-bit argument (register
//! index, memory address or jump target). The default program exercises the
//! ALU, register file, memory (through the bus) and the ISA-specific
//! functional units, then loops forever — a continuously toggling workload
//! for fault-injection campaigns.

/// One instruction of the embedded ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// No operation.
    Nop,
    /// `acc = imm` (4-bit immediate, zero-extended).
    Ldi(u8),
    /// `acc += reg[r]`.
    Add(u8),
    /// `acc -= reg[r]`.
    Sub(u8),
    /// `acc &= reg[r]`.
    And(u8),
    /// `acc |= reg[r]`.
    Or(u8),
    /// `acc ^= reg[r]`.
    Xor(u8),
    /// `reg[r] = acc`.
    Mov(u8),
    /// `acc = mem[a]` (through the bus; subject to bus latency).
    Ld(u8),
    /// `mem[a] = acc`.
    St(u8),
    /// `out_port = acc`.
    Out,
    /// `pc = target`.
    Jmp(u8),
    /// `acc = low(acc * reg[r])` (M extension).
    Mul(u8),
    /// FPU-datapath accumulate: `acc = facc + acc` with internal state
    /// update (F extension).
    Fadd(u8),
    /// Atomic swap with the AMO register: `acc ↔ amo` (A extension).
    Amo(u8),
}

impl Insn {
    /// The 4-bit opcode.
    pub fn opcode(self) -> u8 {
        match self {
            Insn::Nop => 0,
            Insn::Ldi(_) => 1,
            Insn::Add(_) => 2,
            Insn::Sub(_) => 3,
            Insn::And(_) => 4,
            Insn::Or(_) => 5,
            Insn::Xor(_) => 6,
            Insn::Mov(_) => 7,
            Insn::Ld(_) => 8,
            Insn::St(_) => 9,
            Insn::Out => 10,
            Insn::Jmp(_) => 11,
            Insn::Mul(_) => 12,
            Insn::Fadd(_) => 13,
            Insn::Amo(_) => 14,
        }
    }

    /// The 4-bit argument (0 for argument-less instructions).
    pub fn arg(self) -> u8 {
        match self {
            Insn::Nop | Insn::Out => 0,
            Insn::Ldi(a)
            | Insn::Add(a)
            | Insn::Sub(a)
            | Insn::And(a)
            | Insn::Or(a)
            | Insn::Xor(a)
            | Insn::Mov(a)
            | Insn::Ld(a)
            | Insn::St(a)
            | Insn::Jmp(a)
            | Insn::Mul(a)
            | Insn::Fadd(a)
            | Insn::Amo(a) => a & 0xf,
        }
    }

    /// Encodes as `(opcode << 4) | arg`.
    pub fn encode(self) -> u8 {
        (self.opcode() << 4) | self.arg()
    }
}

/// An assembled program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The source instructions.
    pub insns: Vec<Insn>,
    /// Encoded bytes, one per instruction.
    pub bytes: Vec<u8>,
}

impl Program {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// ROM address width needed to hold the program (minimum 1).
    pub fn addr_bits(&self) -> usize {
        usize::BITS as usize - self.len().next_power_of_two().leading_zeros() as usize - 1
    }
}

/// Assembles a program.
///
/// # Panics
///
/// Panics if the program exceeds 16 instructions (jump targets are 4-bit).
pub fn assemble(insns: &[Insn]) -> Program {
    assert!(insns.len() <= 16, "programs are limited to 16 instructions");
    Program {
        insns: insns.to_vec(),
        bytes: insns.iter().map(|i| i.encode()).collect(),
    }
}

/// The default workload for an ISA with the given extension flags: a
/// self-looping mix of ALU, register, memory and extension operations.
pub fn default_program(has_mul: bool, has_fpu: bool, has_atomic: bool) -> Program {
    let mut insns = vec![
        Insn::Ldi(1), // 0: acc = 1
        Insn::Mov(0), // 1: r0 = 1
        Insn::Ldi(3), // 2: acc = 3
        Insn::Mov(1), // 3: r1 = 3
        // loop:
        Insn::Add(0), // 4: acc += r0
        Insn::Xor(1), // 5: acc ^= r1
        Insn::St(2),  // 6: mem[2] = acc
        Insn::Out,    // 7: out = acc
        Insn::Ld(2),  // 8: acc = mem[2] (bus latency applies)
        Insn::Sub(1), // 9: acc -= r1
        Insn::Mov(1), // 10: r1 = acc
    ];
    if has_mul {
        insns.push(Insn::Mul(0)); // acc = acc * r0
    }
    if has_fpu {
        insns.push(Insn::Fadd(0));
    }
    if has_atomic {
        insns.push(Insn::Amo(3));
    }
    insns.push(Insn::Or(0));
    let loop_target = 4;
    insns.push(Insn::Jmp(loop_target));
    assemble(&insns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_packs_opcode_and_arg() {
        assert_eq!(Insn::Nop.encode(), 0x00);
        assert_eq!(Insn::Ldi(5).encode(), 0x15);
        assert_eq!(Insn::Jmp(4).encode(), 0xB4);
        assert_eq!(Insn::Amo(15).encode(), 0xEF);
    }

    #[test]
    fn args_are_masked_to_four_bits() {
        assert_eq!(Insn::Ldi(0xFF).arg(), 0xF);
        assert_eq!(Insn::Mov(0x12).arg(), 0x2);
    }

    #[test]
    fn opcodes_are_unique() {
        let all = [
            Insn::Nop,
            Insn::Ldi(0),
            Insn::Add(0),
            Insn::Sub(0),
            Insn::And(0),
            Insn::Or(0),
            Insn::Xor(0),
            Insn::Mov(0),
            Insn::Ld(0),
            Insn::St(0),
            Insn::Out,
            Insn::Jmp(0),
            Insn::Mul(0),
            Insn::Fadd(0),
            Insn::Amo(0),
        ];
        let mut seen = std::collections::HashSet::new();
        for insn in all {
            assert!(seen.insert(insn.opcode()), "duplicate opcode {insn:?}");
        }
    }

    #[test]
    fn default_program_fits_and_loops() {
        for (m, f, a) in [
            (false, false, false),
            (true, false, false),
            (true, true, false),
            (true, true, true),
        ] {
            let prog = default_program(m, f, a);
            assert!(prog.len() <= 16);
            assert!(matches!(prog.insns.last(), Some(Insn::Jmp(4))));
            assert_eq!(prog.bytes.len(), prog.insns.len());
            // Extensions strictly grow the program.
            assert_eq!(
                prog.insns
                    .iter()
                    .filter(|i| matches!(i, Insn::Mul(_)))
                    .count(),
                usize::from(m)
            );
            assert_eq!(
                prog.insns
                    .iter()
                    .filter(|i| matches!(i, Insn::Fadd(_)))
                    .count(),
                usize::from(f)
            );
            assert_eq!(
                prog.insns
                    .iter()
                    .filter(|i| matches!(i, Insn::Amo(_)))
                    .count(),
                usize::from(a)
            );
        }
    }

    #[test]
    fn addr_bits_covers_length() {
        let prog = default_program(true, true, true);
        assert!(1 << prog.addr_bits() >= prog.len());
        assert_eq!(assemble(&[Insn::Nop]).addr_bits(), 0);
        assert_eq!(assemble(&[Insn::Nop, Insn::Nop, Insn::Nop]).addr_bits(), 2);
    }

    #[test]
    #[should_panic(expected = "16 instructions")]
    fn assemble_rejects_oversized_programs() {
        let _ = assemble(&[Insn::Nop; 17]);
    }
}
