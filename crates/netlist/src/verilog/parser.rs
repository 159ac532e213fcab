//! Recursive-descent parser for the structural-Verilog subset.

use super::lexer::{lex, Token, TokenKind};
use crate::cell::CellKind;
use crate::design::{Design, ModuleBuilder, PortDir};
use crate::error::NetlistError;

/// Parses structural Verilog into a [`Design`].
///
/// Submodules must be defined before they are instantiated (the order
/// [`write_verilog`](super::write_verilog) emits). The top module is taken
/// from a `// top: <name>` directive when present, otherwise the last module
/// in the file.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for syntax errors, plus the usual design
/// construction errors (duplicate names, arity mismatches, unknown modules).
pub fn parse_verilog(source: &str) -> Result<Design, NetlistError> {
    let (tokens, directives) = lex(source)?;
    let mut parser = Parser {
        tokens: &tokens,
        pos: 0,
    };
    let mut design = Design::new();

    while !parser.at_end() {
        parser.parse_module(&mut design)?;
    }

    let top = match &directives.top {
        Some(name) => Some(
            design
                .module_by_name(name)
                .ok_or_else(|| NetlistError::UnknownModule(name.clone()))?,
        ),
        None => design.modules().len().checked_sub(1).map(|i| {
            design
                .module_by_name(&design.modules()[i].name)
                .expect("just added")
        }),
    };
    if let Some(top) = top {
        design.set_top(top)?;
    }
    Ok(design)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn error(&self, message: impl Into<String>) -> NetlistError {
        NetlistError::Parse {
            line: self.line(),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<&'a TokenKind> {
        let tok = self.tokens.get(self.pos).map(|t| &t.kind);
        self.pos += 1;
        tok
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), NetlistError> {
        match self.bump() {
            Some(k) if k == kind => Ok(()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error(format!("expected {what}")))
            }
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, NetlistError> {
        match self.bump() {
            Some(TokenKind::Ident(s)) => Ok(s.clone()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error(format!("expected {what}")))
            }
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), NetlistError> {
        let got = self.ident(&format!("keyword `{kw}`"))?;
        if got == kw {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.error(format!("expected keyword `{kw}`, found `{got}`")))
        }
    }

    fn parse_module(&mut self, design: &mut Design) -> Result<(), NetlistError> {
        self.keyword("module")?;
        let name = self.ident("module name")?;
        let mut mb = ModuleBuilder::new(name);

        // Port name list; directions come from the body declarations.
        self.expect(&TokenKind::LParen, "`(`")?;
        let mut port_names = Vec::new();
        if self.peek() != Some(&TokenKind::RParen) {
            loop {
                port_names.push(self.ident("port name")?);
                match self.peek() {
                    Some(TokenKind::Comma) => {
                        self.bump();
                    }
                    _ => break,
                }
            }
        }
        self.expect(&TokenKind::RParen, "`)`")?;
        self.expect(&TokenKind::Semi, "`;`")?;

        let mut declared: Vec<(String, PortDir)> = Vec::new();
        loop {
            let ident = self.ident("declaration, instantiation or `endmodule`")?;
            match ident.as_str() {
                "endmodule" => break,
                "input" | "output" => {
                    let dir = if ident == "input" {
                        PortDir::Input
                    } else {
                        PortDir::Output
                    };
                    for name in self.name_list()? {
                        declared.push((name, dir));
                    }
                }
                "wire" => {
                    for name in self.name_list()? {
                        mb.net(name);
                    }
                }
                inst_target => {
                    let inst_name = self.ident("instance name")?;
                    let conns = self.connection_list(&mut mb)?;
                    self.add_instance(design, &mut mb, inst_target, inst_name, conns)?;
                }
            }
        }

        // Register ports in header order with their declared directions.
        for name in &port_names {
            let dir = declared
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, d)| *d)
                .ok_or_else(|| self.error(format!("port `{name}` has no direction")))?;
            mb.port(name.clone(), dir);
        }

        design.add_module(mb.finish())?;
        Ok(())
    }

    /// `ident (',' ident)* ';'`
    fn name_list(&mut self) -> Result<Vec<String>, NetlistError> {
        let mut names = vec![self.ident("name")?];
        loop {
            match self.bump() {
                Some(TokenKind::Comma) => names.push(self.ident("name")?),
                Some(TokenKind::Semi) => return Ok(names),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.error("expected `,` or `;`"));
                }
            }
        }
    }

    /// `'(' [.pin(net) (',' .pin(net))*] ')' ';'` — returns `(pin, net)` pairs.
    fn connection_list(
        &mut self,
        mb: &mut ModuleBuilder,
    ) -> Result<Vec<(String, crate::LocalNetId)>, NetlistError> {
        self.expect(&TokenKind::LParen, "`(`")?;
        let mut conns = Vec::new();
        if self.peek() != Some(&TokenKind::RParen) {
            loop {
                self.expect(&TokenKind::Dot, "`.`")?;
                let pin = self.ident("pin name")?;
                self.expect(&TokenKind::LParen, "`(`")?;
                let net_name = self.ident("net name")?;
                self.expect(&TokenKind::RParen, "`)`")?;
                conns.push((pin, mb.net(net_name)));
                match self.peek() {
                    Some(TokenKind::Comma) => {
                        self.bump();
                    }
                    _ => break,
                }
            }
        }
        self.expect(&TokenKind::RParen, "`)`")?;
        self.expect(&TokenKind::Semi, "`;`")?;
        Ok(conns)
    }

    fn add_instance(
        &self,
        design: &Design,
        mb: &mut ModuleBuilder,
        target: &str,
        inst_name: String,
        conns: Vec<(String, crate::LocalNetId)>,
    ) -> Result<(), NetlistError> {
        if let Some(kind) = CellKind::from_name(target) {
            let mut inputs = Vec::with_capacity(kind.num_inputs());
            for pin in kind.input_pins() {
                let net = conns
                    .iter()
                    .find(|(p, _)| p == pin)
                    .map(|(_, n)| *n)
                    .ok_or_else(|| self.error(format!("missing pin `{pin}` on `{inst_name}`")))?;
                inputs.push(net);
            }
            let out_pin = kind.output_pin();
            let output = conns
                .iter()
                .find(|(p, _)| p == out_pin)
                .map(|(_, n)| *n)
                .ok_or_else(|| self.error(format!("missing pin `{out_pin}` on `{inst_name}`")))?;
            if conns.len() != kind.num_inputs() + 1 {
                return Err(self.error(format!("extra connections on `{inst_name}`")));
            }
            mb.cell(inst_name, kind, &inputs, &[output])?;
        } else {
            let module_id = design
                .module_by_name(target)
                .ok_or_else(|| NetlistError::UnknownModule(target.to_owned()))?;
            let module = design.module(module_id);
            let mut ordered = Vec::with_capacity(module.ports.len());
            for port in &module.ports {
                let net = conns
                    .iter()
                    .find(|(p, _)| *p == port.name)
                    .map(|(_, n)| *n)
                    .ok_or_else(|| {
                        self.error(format!("missing port `{}` on `{inst_name}`", port.name))
                    })?;
                ordered.push(net);
            }
            if conns.len() != module.ports.len() {
                return Err(self.error(format!("extra connections on `{inst_name}`")));
            }
            mb.instance(inst_name, module_id, &ordered)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verilog::write_verilog;

    const SAMPLE: &str = "\
// top: top
module leaf (a, y);
  input a;
  output y;
  INV u0 (.A(a), .Y(y));
endmodule

module top (x, z);
  input x;
  output z;
  wire w;
  leaf u_leaf (.a(x), .y(w));
  BUF u_buf (.A(w), .Y(z));
endmodule
";

    #[test]
    fn parses_hierarchical_sample() {
        let design = parse_verilog(SAMPLE).unwrap();
        assert_eq!(design.modules().len(), 2);
        let top = design.top().unwrap();
        assert_eq!(design.module(top).name, "top");
        let flat = design.flatten().unwrap();
        assert_eq!(flat.cells().len(), 2);
        assert!(flat.cell_by_name("u_leaf.u0").is_some());
    }

    #[test]
    fn round_trips_writer_output() {
        let design = parse_verilog(SAMPLE).unwrap();
        let text = write_verilog(&design);
        let reparsed = parse_verilog(&text).unwrap();
        assert_eq!(reparsed.modules().len(), design.modules().len());
        let a = design.flatten().unwrap();
        let b = reparsed.flatten().unwrap();
        assert_eq!(a.cells().len(), b.cells().len());
        assert_eq!(a.nets().len(), b.nets().len());
        for (id, _) in a.iter_cells() {
            let name = a.cell_full_name(id);
            assert!(b.cell_by_name(&name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn defaults_top_to_last_module_without_directive() {
        let src = SAMPLE.trim_start_matches("// top: top\n");
        let design = parse_verilog(src).unwrap();
        assert_eq!(design.module(design.top().unwrap()).name, "top");
    }

    #[test]
    fn rejects_undefined_submodule() {
        let src = "module m (a); input a; ghost u0 (.p(a)); endmodule";
        assert!(matches!(
            parse_verilog(src).unwrap_err(),
            NetlistError::UnknownModule(_)
        ));
    }

    #[test]
    fn rejects_missing_pin() {
        let src = "module m (a, y); input a; output y; INV u0 (.A(a)); endmodule";
        let err = parse_verilog(src).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }), "{err}");
    }

    #[test]
    fn rejects_extra_pin() {
        let src = "module m (a, y); input a; output y; INV u0 (.A(a), .Y(y), .Z(a)); endmodule";
        assert!(parse_verilog(src).is_err());
    }

    #[test]
    fn rejects_duplicate_port_names() {
        let src = "module m (a, a, y); input a; output y; INV u0 (.A(a), .Y(y)); endmodule";
        assert_eq!(
            parse_verilog(src).unwrap_err(),
            NetlistError::DuplicateName("a".into())
        );
    }

    #[test]
    fn rejects_port_without_direction() {
        let src = "module m (a); endmodule";
        let err = parse_verilog(src).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn rejects_unknown_top_directive() {
        let src = "// top: nosuch\nmodule m (a); input a; endmodule";
        assert!(matches!(
            parse_verilog(src).unwrap_err(),
            NetlistError::UnknownModule(_)
        ));
    }

    #[test]
    fn empty_source_yields_empty_design() {
        let design = parse_verilog("").unwrap();
        assert!(design.modules().is_empty());
        assert!(design.top().is_none());
    }
}
