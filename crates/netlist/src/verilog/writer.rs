//! Emission of designs as structural Verilog.

use crate::design::{Design, Module, PortDir};
use std::fmt::Write as _;

/// Serializes `design` as structural Verilog.
///
/// Modules are emitted in the design's insertion order (bottom-up), so the
/// output is always parseable by [`parse_verilog`](super::parse_verilog),
/// which requires definition before use. The top module, when set, is
/// emitted with a `// top: <name>` header comment honored by the parser.
pub fn write_verilog(design: &Design) -> String {
    let mut out = String::new();
    out.push_str("// Structural netlist emitted by ssresf-netlist\n");
    if let Some(top) = design.top() {
        let _ = writeln!(out, "// top: {}", design.module(top).name);
    }
    for module in design.modules() {
        write_module(&mut out, design, module);
    }
    out
}

fn write_module(out: &mut String, design: &Design, module: &Module) {
    let port_list: Vec<&str> = module.ports.iter().map(|p| p.name.as_str()).collect();
    let _ = writeln!(out, "\nmodule {} ({});", module.name, port_list.join(", "));
    for port in &module.ports {
        let dir = match port.dir {
            PortDir::Input => "input",
            PortDir::Output => "output",
        };
        let _ = writeln!(out, "  {dir} {};", port.name);
    }
    // Port nets are implicitly declared by their direction statement.
    let mut is_port = vec![false; module.nets.len()];
    for port in &module.ports {
        is_port[port.net.index()] = true;
    }
    for (net, is_port) in module.nets.iter().zip(is_port) {
        if !is_port {
            let _ = writeln!(out, "  wire {net};");
        }
    }
    for cell in &module.cells {
        let mut conns = Vec::with_capacity(cell.inputs.len() + 1);
        for (pin, net) in cell.kind.input_pins().iter().zip(&cell.inputs) {
            conns.push(format!(".{pin}({})", module.nets[net.index()]));
        }
        conns.push(format!(
            ".{}({})",
            cell.kind.output_pin(),
            module.nets[cell.output.index()]
        ));
        let _ = writeln!(
            out,
            "  {} {} ({});",
            cell.kind.name(),
            cell.name,
            conns.join(", ")
        );
    }
    for inst in &module.instances {
        let target = design.module(inst.module);
        let conns: Vec<String> = target
            .ports
            .iter()
            .zip(&inst.connections)
            .map(|(port, net)| format!(".{}({})", port.name, module.nets[net.index()]))
            .collect();
        let _ = writeln!(
            out,
            "  {} {} ({});",
            target.name,
            inst.name,
            conns.join(", ")
        );
    }
    out.push_str("endmodule\n");
}

/// Convenience check used by tests: whether `name` collides with a library
/// cell and would be mis-parsed as a primitive.
#[cfg(test)]
fn is_primitive_name(name: &str) -> bool {
    crate::cell::CellKind::from_name(name).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::design::ModuleBuilder;

    #[test]
    fn writes_ports_wires_and_cells() {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("m");
        let a = mb.port("a", PortDir::Input);
        let y = mb.port("y", PortDir::Output);
        let w = mb.net("w");
        mb.cell("u0", CellKind::Inv, &[a], &[w]).unwrap();
        mb.cell("u1", CellKind::Buf, &[w], &[y]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();

        let text = write_verilog(&design);
        assert!(text.contains("// top: m"));
        assert!(text.contains("module m (a, y);"));
        assert!(text.contains("input a;"));
        assert!(text.contains("output y;"));
        assert!(text.contains("wire w;"));
        assert!(text.contains("INV u0 (.A(a), .Y(w));"));
        assert!(text.contains("BUF u1 (.A(w), .Y(y));"));
        assert!(text.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn port_nets_are_not_redeclared_as_wires() {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("m");
        let a = mb.port("a", PortDir::Input);
        let y = mb.port("y", PortDir::Output);
        mb.cell("u0", CellKind::Buf, &[a], &[y]).unwrap();
        design.add_module(mb.finish()).unwrap();
        let text = write_verilog(&design);
        assert!(!text.contains("wire a;"));
        assert!(!text.contains("wire y;"));
    }

    #[test]
    fn instances_use_named_connections() {
        let mut design = Design::new();
        let mut leaf = ModuleBuilder::new("leaf");
        let a = leaf.port("a", PortDir::Input);
        let y = leaf.port("y", PortDir::Output);
        leaf.cell("u0", CellKind::Inv, &[a], &[y]).unwrap();
        let leaf_id = design.add_module(leaf.finish()).unwrap();

        let mut top = ModuleBuilder::new("wrapper");
        let x = top.port("x", PortDir::Input);
        let z = top.port("z", PortDir::Output);
        top.instance("u_leaf", leaf_id, &[x, z]).unwrap();
        design.add_module(top.finish()).unwrap();

        let text = write_verilog(&design);
        assert!(text.contains("leaf u_leaf (.a(x), .y(z));"));
    }

    #[test]
    fn primitive_name_check() {
        assert!(is_primitive_name("NAND2"));
        assert!(!is_primitive_name("my_module"));
    }
}
