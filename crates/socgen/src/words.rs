//! Word-level gate construction helpers.
//!
//! Every function emits primitive gates into a [`ModuleBuilder`] and returns
//! the nets carrying the result, LSB first. Prefixes must be unique within a
//! module; all cell names derive from them.

use ssresf_netlist::{CellKind, LocalNetId, ModuleBuilder, NetlistError, PortDir};

/// Declares an input bus `name_0 .. name_{n-1}` (LSB first).
pub fn input_bus(mb: &mut ModuleBuilder, name: &str, n: usize) -> Vec<LocalNetId> {
    (0..n)
        .map(|i| mb.port(format!("{name}_{i}"), PortDir::Input))
        .collect()
}

/// Declares an output bus `name_0 .. name_{n-1}` (LSB first).
pub fn output_bus(mb: &mut ModuleBuilder, name: &str, n: usize) -> Vec<LocalNetId> {
    (0..n)
        .map(|i| mb.port(format!("{name}_{i}"), PortDir::Output))
        .collect()
}

/// Declares an internal bus of wires `name_0 .. name_{n-1}`.
pub fn wire_bus(mb: &mut ModuleBuilder, name: &str, n: usize) -> Vec<LocalNetId> {
    (0..n).map(|i| mb.net(format!("{name}_{i}"))).collect()
}

/// Drives a constant word onto fresh nets using tie cells.
pub fn const_word(
    mb: &mut ModuleBuilder,
    prefix: &str,
    value: u64,
    n: usize,
) -> Result<Vec<LocalNetId>, NetlistError> {
    let mut nets = Vec::with_capacity(n);
    for i in 0..n {
        let net = mb.net(format!("{prefix}_{i}"));
        let kind = if (value >> i) & 1 == 1 {
            CellKind::Tie1
        } else {
            CellKind::Tie0
        };
        mb.cell(format!("{prefix}_tie_{i}"), kind, &[], &[net])?;
        nets.push(net);
    }
    Ok(nets)
}

/// Per-bit inverter.
pub fn not_word(
    mb: &mut ModuleBuilder,
    prefix: &str,
    a: &[LocalNetId],
) -> Result<Vec<LocalNetId>, NetlistError> {
    let mut out = Vec::with_capacity(a.len());
    for (i, &bit) in a.iter().enumerate() {
        let y = mb.net(format!("{prefix}_{i}"));
        mb.cell(format!("{prefix}_inv_{i}"), CellKind::Inv, &[bit], &[y])?;
        out.push(y);
    }
    Ok(out)
}

/// Per-bit binary gate over two equal-width words.
///
/// # Panics
///
/// Panics if the word widths differ or `kind` is not a two-input gate.
pub fn bitwise(
    mb: &mut ModuleBuilder,
    prefix: &str,
    kind: CellKind,
    a: &[LocalNetId],
    b: &[LocalNetId],
) -> Result<Vec<LocalNetId>, NetlistError> {
    assert_eq!(a.len(), b.len(), "word width mismatch");
    assert_eq!(kind.num_inputs(), 2, "bitwise needs a 2-input gate");
    let mut out = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        let y = mb.net(format!("{prefix}_{i}"));
        mb.cell(format!("{prefix}_g_{i}"), kind, &[a[i], b[i]], &[y])?;
        out.push(y);
    }
    Ok(out)
}

/// Word-wide 2:1 multiplexer: `sel ? b : a`.
///
/// # Panics
///
/// Panics if the word widths differ.
pub fn mux_word(
    mb: &mut ModuleBuilder,
    prefix: &str,
    sel: LocalNetId,
    a: &[LocalNetId],
    b: &[LocalNetId],
) -> Result<Vec<LocalNetId>, NetlistError> {
    assert_eq!(a.len(), b.len(), "word width mismatch");
    let mut out = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        let y = mb.net(format!("{prefix}_{i}"));
        mb.cell(
            format!("{prefix}_mux_{i}"),
            CellKind::Mux2,
            &[a[i], b[i], sel],
            &[y],
        )?;
        out.push(y);
    }
    Ok(out)
}

/// Ripple-carry adder. Returns `(sum, carry_out)`.
///
/// # Panics
///
/// Panics if the word widths differ.
pub fn adder(
    mb: &mut ModuleBuilder,
    prefix: &str,
    a: &[LocalNetId],
    b: &[LocalNetId],
    carry_in: Option<LocalNetId>,
) -> Result<(Vec<LocalNetId>, LocalNetId), NetlistError> {
    assert_eq!(a.len(), b.len(), "word width mismatch");
    let mut sum = Vec::with_capacity(a.len());
    let mut carry = match carry_in {
        Some(c) => c,
        None => {
            let zero = mb.net(format!("{prefix}_cin0"));
            mb.cell(format!("{prefix}_cin_tie"), CellKind::Tie0, &[], &[zero])?;
            zero
        }
    };
    for i in 0..a.len() {
        // Full adder from two XORs and an AOI-style majority.
        let axb = mb.net(format!("{prefix}_axb_{i}"));
        mb.cell(
            format!("{prefix}_fa{i}_x1"),
            CellKind::Xor2,
            &[a[i], b[i]],
            &[axb],
        )?;
        let s = mb.net(format!("{prefix}_s_{i}"));
        mb.cell(
            format!("{prefix}_fa{i}_x2"),
            CellKind::Xor2,
            &[axb, carry],
            &[s],
        )?;
        let t1 = mb.net(format!("{prefix}_t1_{i}"));
        mb.cell(
            format!("{prefix}_fa{i}_a1"),
            CellKind::And2,
            &[a[i], b[i]],
            &[t1],
        )?;
        let t2 = mb.net(format!("{prefix}_t2_{i}"));
        mb.cell(
            format!("{prefix}_fa{i}_a2"),
            CellKind::And2,
            &[axb, carry],
            &[t2],
        )?;
        let c = mb.net(format!("{prefix}_c_{i}"));
        mb.cell(format!("{prefix}_fa{i}_o1"), CellKind::Or2, &[t1, t2], &[c])?;
        sum.push(s);
        carry = c;
    }
    Ok((sum, carry))
}

/// Two's-complement subtractor `a - b`. Returns `(difference, borrow-free carry)`.
pub fn subtractor(
    mb: &mut ModuleBuilder,
    prefix: &str,
    a: &[LocalNetId],
    b: &[LocalNetId],
) -> Result<(Vec<LocalNetId>, LocalNetId), NetlistError> {
    let nb = not_word(mb, &format!("{prefix}_nb"), b)?;
    let one = mb.net(format!("{prefix}_cin1"));
    mb.cell(format!("{prefix}_cin_tie"), CellKind::Tie1, &[], &[one])?;
    adder(mb, &format!("{prefix}_add"), a, &nb, Some(one))
}

/// Reduction tree over a word with the given 2-input gate; returns a single
/// net. An empty input yields a tied constant (`Tie1` for AND, `Tie0`
/// otherwise); a single bit is buffered.
pub fn reduce_tree(
    mb: &mut ModuleBuilder,
    prefix: &str,
    kind: CellKind,
    bits: &[LocalNetId],
) -> Result<LocalNetId, NetlistError> {
    assert_eq!(kind.num_inputs(), 2, "reduce_tree needs a 2-input gate");
    if bits.is_empty() {
        let net = mb.net(format!("{prefix}_empty"));
        let tie = if kind == CellKind::And2 {
            CellKind::Tie1
        } else {
            CellKind::Tie0
        };
        mb.cell(format!("{prefix}_tie"), tie, &[], &[net])?;
        return Ok(net);
    }
    let mut layer: Vec<LocalNetId> = bits.to_vec();
    let mut level = 0;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for (j, pair) in layer.chunks(2).enumerate() {
            if pair.len() == 2 {
                let y = mb.net(format!("{prefix}_l{level}_{j}"));
                mb.cell(
                    format!("{prefix}_g{level}_{j}"),
                    kind,
                    &[pair[0], pair[1]],
                    &[y],
                )?;
                next.push(y);
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
        level += 1;
    }
    Ok(layer[0])
}

/// Binary decoder: `addr` (LSB first) to a one-hot vector of `2^addr.len()`.
pub fn decoder(
    mb: &mut ModuleBuilder,
    prefix: &str,
    addr: &[LocalNetId],
) -> Result<Vec<LocalNetId>, NetlistError> {
    let n = 1usize << addr.len();
    let naddr = not_word(mb, &format!("{prefix}_n"), addr)?;
    let mut out = Vec::with_capacity(n);
    for sel in 0..n {
        let terms: Vec<LocalNetId> = addr
            .iter()
            .enumerate()
            .map(|(b, &bit)| if (sel >> b) & 1 == 1 { bit } else { naddr[b] })
            .collect();
        let hot = reduce_tree(mb, &format!("{prefix}_d{sel}"), CellKind::And2, &terms)?;
        out.push(hot);
    }
    Ok(out)
}

/// Word register with asynchronous active-low reset and optional enable.
/// Returns the Q nets.
pub fn register(
    mb: &mut ModuleBuilder,
    prefix: &str,
    clk: LocalNetId,
    rst_n: LocalNetId,
    enable: Option<LocalNetId>,
    d: &[LocalNetId],
) -> Result<Vec<LocalNetId>, NetlistError> {
    let mut q = Vec::with_capacity(d.len());
    for (i, &bit) in d.iter().enumerate() {
        let out = mb.net(format!("{prefix}_q_{i}"));
        match enable {
            Some(en) => mb.cell(
                format!("{prefix}_ff_{i}"),
                CellKind::Dffre,
                &[clk, bit, rst_n, en],
                &[out],
            )?,
            None => mb.cell(
                format!("{prefix}_ff_{i}"),
                CellKind::Dffr,
                &[clk, bit, rst_n],
                &[out],
            )?,
        }
        q.push(out);
    }
    Ok(q)
}

/// Word-wide mux tree selecting among `2^addr.len()` words.
///
/// # Panics
///
/// Panics unless `words.len() == 2^addr.len()` and all widths agree.
pub fn mux_tree(
    mb: &mut ModuleBuilder,
    prefix: &str,
    addr: &[LocalNetId],
    words: &[Vec<LocalNetId>],
) -> Result<Vec<LocalNetId>, NetlistError> {
    assert_eq!(words.len(), 1 << addr.len(), "mux tree arity mismatch");
    let width = words[0].len();
    assert!(words.iter().all(|w| w.len() == width));
    let mut layer: Vec<Vec<LocalNetId>> = words.to_vec();
    for (level, &sel) in addr.iter().enumerate() {
        let mut next = Vec::with_capacity(layer.len() / 2);
        for (j, pair) in layer.chunks(2).enumerate() {
            next.push(mux_word(
                mb,
                &format!("{prefix}_m{level}_{j}"),
                sel,
                &pair[0],
                &pair[1],
            )?);
        }
        layer = next;
    }
    Ok(layer.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssresf_netlist::{Design, FlatNetlist};
    use ssresf_sim::{Engine, EventDrivenEngine, Logic};

    /// Builds a module around `f`, flattens, and returns the netlist.
    fn harness(f: impl FnOnce(&mut ModuleBuilder)) -> FlatNetlist {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("dut");
        // Every harness has a clock so the engines can run.
        mb.port("clk", PortDir::Input);
        f(&mut mb);
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        design.flatten().unwrap()
    }

    fn poke_word(engine: &mut EventDrivenEngine<'_>, flat: &FlatNetlist, name: &str, value: u64) {
        let mut i = 0;
        while let Some(net) = flat.net_by_name(&format!("{name}_{i}")) {
            engine.poke(net, Logic::from_bool((value >> i) & 1 == 1));
            i += 1;
        }
        assert!(i > 0, "no bits found for {name}");
    }

    fn read_word(engine: &EventDrivenEngine<'_>, flat: &FlatNetlist, name: &str) -> u64 {
        let mut value = 0u64;
        let mut i = 0;
        while let Some(net) = flat.net_by_name(&format!("{name}_{i}")) {
            if engine.peek(net) == Logic::One {
                value |= 1 << i;
            }
            i += 1;
        }
        value
    }

    fn settle(engine: &mut EventDrivenEngine<'_>) {
        engine.step_cycle();
    }

    #[test]
    fn adder_adds_exhaustively_4bit() {
        let flat = harness(|mb| {
            let a = input_bus(mb, "a", 4);
            let b = input_bus(mb, "b", 4);
            let y = output_bus(mb, "y", 4);
            let (sum, cout) = adder(mb, "u_add", &a, &b, None).unwrap();
            for i in 0..4 {
                mb.cell(format!("u_buf_{i}"), CellKind::Buf, &[sum[i]], &[y[i]])
                    .unwrap();
            }
            let co = mb.port("cout", PortDir::Output);
            mb.cell("u_cobuf", CellKind::Buf, &[cout], &[co]).unwrap();
        });
        let clk = flat.net_by_name("clk").unwrap();
        let mut engine = EventDrivenEngine::new(&flat, clk).unwrap();
        for a in 0..16u64 {
            for b in 0..16u64 {
                poke_word(&mut engine, &flat, "a", a);
                poke_word(&mut engine, &flat, "b", b);
                settle(&mut engine);
                let y = read_word(&engine, &flat, "y");
                let cout_net = flat.net_by_name("cout").unwrap();
                let cout = u64::from(engine.peek(cout_net) == Logic::One);
                assert_eq!(y | (cout << 4), a + b, "{a}+{b}");
            }
        }
    }

    #[test]
    fn subtractor_subtracts_modulo() {
        let flat = harness(|mb| {
            let a = input_bus(mb, "a", 4);
            let b = input_bus(mb, "b", 4);
            let y = output_bus(mb, "y", 4);
            let (diff, _c) = subtractor(mb, "u_sub", &a, &b).unwrap();
            for i in 0..4 {
                mb.cell(format!("u_buf_{i}"), CellKind::Buf, &[diff[i]], &[y[i]])
                    .unwrap();
            }
        });
        let clk = flat.net_by_name("clk").unwrap();
        let mut engine = EventDrivenEngine::new(&flat, clk).unwrap();
        for (a, b) in [(9u64, 3u64), (3, 9), (15, 15), (0, 1)] {
            poke_word(&mut engine, &flat, "a", a);
            poke_word(&mut engine, &flat, "b", b);
            settle(&mut engine);
            assert_eq!(read_word(&engine, &flat, "y"), (a.wrapping_sub(b)) & 0xf);
        }
    }

    #[test]
    fn decoder_is_one_hot() {
        let flat = harness(|mb| {
            let addr = input_bus(mb, "addr", 3);
            let hot = decoder(mb, "u_dec", &addr).unwrap();
            let y = output_bus(mb, "y", 8);
            for i in 0..8 {
                mb.cell(format!("u_buf_{i}"), CellKind::Buf, &[hot[i]], &[y[i]])
                    .unwrap();
            }
        });
        let clk = flat.net_by_name("clk").unwrap();
        let mut engine = EventDrivenEngine::new(&flat, clk).unwrap();
        for a in 0..8u64 {
            poke_word(&mut engine, &flat, "addr", a);
            settle(&mut engine);
            assert_eq!(read_word(&engine, &flat, "y"), 1 << a, "addr {a}");
        }
    }

    #[test]
    fn mux_tree_selects_constants() {
        let flat = harness(|mb| {
            let addr = input_bus(mb, "addr", 2);
            let words: Vec<Vec<LocalNetId>> = (0..4)
                .map(|i| const_word(mb, &format!("u_k{i}"), [5u64, 9, 12, 3][i], 4).unwrap())
                .collect();
            let sel = mux_tree(mb, "u_mt", &addr, &words).unwrap();
            let y = output_bus(mb, "y", 4);
            for i in 0..4 {
                mb.cell(format!("u_buf_{i}"), CellKind::Buf, &[sel[i]], &[y[i]])
                    .unwrap();
            }
        });
        let clk = flat.net_by_name("clk").unwrap();
        let mut engine = EventDrivenEngine::new(&flat, clk).unwrap();
        for (a, expect) in [(0u64, 5u64), (1, 9), (2, 12), (3, 3)] {
            poke_word(&mut engine, &flat, "addr", a);
            settle(&mut engine);
            assert_eq!(read_word(&engine, &flat, "y"), expect);
        }
    }

    #[test]
    fn reduce_tree_xor_computes_parity() {
        let flat = harness(|mb| {
            let w = input_bus(mb, "w", 5);
            let p = reduce_tree(mb, "u_par", CellKind::Xor2, &w).unwrap();
            let y = mb.port("y", PortDir::Output);
            mb.cell("u_buf", CellKind::Buf, &[p], &[y]).unwrap();
        });
        let clk = flat.net_by_name("clk").unwrap();
        let mut engine = EventDrivenEngine::new(&flat, clk).unwrap();
        for v in [0u64, 1, 0b10110, 0b11111] {
            poke_word(&mut engine, &flat, "w", v);
            settle(&mut engine);
            let y = engine.peek(flat.net_by_name("y").unwrap());
            assert_eq!(y == Logic::One, v.count_ones() % 2 == 1, "v = {v}");
        }
    }

    #[test]
    fn register_with_enable_holds_and_loads() {
        let flat = harness(|mb| {
            let clk = mb.net("clk");
            let rst_n = mb.port("rst_n", PortDir::Input);
            let en = mb.port("en", PortDir::Input);
            let d = input_bus(mb, "d", 4);
            let q = register(mb, "u_reg", clk, rst_n, Some(en), &d).unwrap();
            let y = output_bus(mb, "y", 4);
            for i in 0..4 {
                mb.cell(format!("u_buf_{i}"), CellKind::Buf, &[q[i]], &[y[i]])
                    .unwrap();
            }
        });
        let clk = flat.net_by_name("clk").unwrap();
        let mut engine = EventDrivenEngine::new(&flat, clk).unwrap();
        let rst = flat.net_by_name("rst_n").unwrap();
        let en = flat.net_by_name("en").unwrap();
        engine.poke(rst, Logic::Zero);
        engine.step_cycle();
        engine.poke(rst, Logic::One);
        assert_eq!(read_word(&engine, &flat, "y"), 0);

        // Pokes land before the rising edge, and `d` feeds the flip-flops
        // directly, so the very next edge captures the new value.
        poke_word(&mut engine, &flat, "d", 0b1011);
        engine.poke(en, Logic::One);
        engine.step_cycle();
        assert_eq!(read_word(&engine, &flat, "y"), 0b1011);

        engine.poke(en, Logic::Zero);
        poke_word(&mut engine, &flat, "d", 0b0100);
        engine.step_cycle();
        engine.step_cycle();
        assert_eq!(
            read_word(&engine, &flat, "y"),
            0b1011,
            "hold while disabled"
        );
    }

    #[test]
    fn const_word_drives_bits() {
        let flat = harness(|mb| {
            let k = const_word(mb, "u_k", 0b0110, 4).unwrap();
            let y = output_bus(mb, "y", 4);
            for i in 0..4 {
                mb.cell(format!("u_buf_{i}"), CellKind::Buf, &[k[i]], &[y[i]])
                    .unwrap();
            }
        });
        let clk = flat.net_by_name("clk").unwrap();
        let mut engine = EventDrivenEngine::new(&flat, clk).unwrap();
        settle(&mut engine);
        assert_eq!(read_word(&engine, &flat, "y"), 0b0110);
    }
}
