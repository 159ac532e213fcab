//! Property test: the netlist content hash is a function of the
//! campaign-observable circuit only.
//!
//! Two invariances and one sensitivity, over generated circuits:
//! - **Elaboration-invariant** — re-flattening the same design (serially
//!   or from concurrent threads) and rebuilding derived lookup state
//!   never change the digest; neither do read-only queries (levelization,
//!   name lookups) that populate lazy caches.
//! - **Mutation-sensitive** — changing any single cell kind, connection
//!   or instance/module name produces a different digest, as does
//!   register hardening (a cell-kind rewrite in place).

use ssresf_netlist::{
    CellKind, CircuitSpec, Design, FlatNetlist, GateSpec, ModuleBuilder, PortDir, GENERATOR_KINDS,
};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_spec(seed: u64) -> CircuitSpec {
    let mut s = seed;
    let gates = (splitmix(&mut s) % 24 + 4) as usize;
    CircuitSpec {
        name: format!("hash_prop_{seed}"),
        inputs: (splitmix(&mut s) % 5 + 1) as usize,
        gates: (0..gates)
            .map(|_| GateSpec {
                kind: GENERATOR_KINDS[(splitmix(&mut s) as usize) % GENERATOR_KINDS.len()],
                operands: vec![
                    splitmix(&mut s) as u16,
                    splitmix(&mut s) as u16,
                    splitmix(&mut s) as u16,
                ],
            })
            .collect(),
        ff_d: (0..(splitmix(&mut s) % 4 + 1))
            .map(|_| splitmix(&mut s) as u16)
            .collect(),
        outputs: (splitmix(&mut s) % 3 + 1) as usize,
    }
}

fn flat_of(spec: &CircuitSpec) -> FlatNetlist {
    spec.build_design().flatten().expect("spec elaborates")
}

fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

#[test]
fn hash_is_elaboration_invariant() {
    for seed in 0..cases() {
        let spec = random_spec(0xAB5E_1100 ^ (seed.wrapping_mul(0x9E37_79B9)));
        let flat = flat_of(&spec);
        let digest = flat.content_hash();

        // Re-elaborating the same design hashes equal.
        assert_eq!(flat_of(&spec).content_hash(), digest, "seed {seed}");

        // Concurrent re-elaborations (any thread count) hash equal.
        let digests: Vec<_> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| scope.spawn(|| flat_of(&spec).content_hash()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("hasher thread panicked"))
                .collect()
        });
        assert!(digests.iter().all(|&d| d == digest), "seed {seed}");

        // Read-only queries that populate lazy lookup state leave the
        // digest untouched.
        let warm = flat_of(&spec);
        let _ = warm.levelize();
        let some_cell = warm.cell_full_name(warm.iter_cells().next().expect("non-empty").0);
        let _ = warm.cell_by_name(&some_cell);
        assert_eq!(warm.content_hash(), digest, "seed {seed}");
    }
}

#[test]
fn hash_is_name_sensitive() {
    // Structurally identical togglers whose only difference is one
    // instance name (and, separately, one net name) must hash apart —
    // hierarchical names feed clustering, so a campaign observes them.
    let build = |inv: &str, net: &str| {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("t");
        let clk = mb.port("clk", PortDir::Input);
        let q = mb.port("q", PortDir::Output);
        let nq = mb.net(net);
        mb.cell(inv, CellKind::Inv, &[q], &[nq]).unwrap();
        mb.cell("u_ff", CellKind::Dff, &[clk, nq], &[q]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        design.flatten().unwrap().content_hash()
    };
    let base = build("u_inv", "nq");
    assert_eq!(base, build("u_inv", "nq"));
    assert_ne!(base, build("u_inv2", "nq"), "instance rename missed");
    assert_ne!(base, build("u_inv", "nq2"), "net rename missed");
}

#[test]
fn hash_is_mutation_sensitive() {
    for seed in 0..cases() {
        let spec = random_spec(0x5EED_F00D ^ (seed.wrapping_mul(0x9E37_79B9)));
        let digest = flat_of(&spec).content_hash();
        let gate = (splitmix(&mut { seed }) as usize) % spec.gates.len();

        // Cell-kind mutation: swap one gate for the next library kind.
        let mut kind = spec.clone();
        let old = kind.gates[gate].kind;
        let at = GENERATOR_KINDS.iter().position(|&k| k == old).unwrap();
        kind.gates[gate].kind = GENERATOR_KINDS[(at + 1) % GENERATOR_KINDS.len()];
        assert_ne!(flat_of(&kind).content_hash(), digest, "kind, seed {seed}");

        // Connection mutation: rewire one operand of that gate.
        let mut wire = spec.clone();
        wire.gates[gate].operands[0] = wire.gates[gate].operands[0].wrapping_add(1);
        // The operand pool is resolved modulo its size, so the bump can
        // wrap back onto the same net for tiny pools; only assert when the
        // elaborated connectivity actually changed.
        let rewired = flat_of(&wire);
        let reference = flat_of(&spec);
        let changed = (0..reference.num_cells()).any(|i| {
            let id = ssresf_netlist::CellId(i as u32);
            reference.cell(id).inputs != rewired.cell(id).inputs
        });
        if changed {
            assert_ne!(rewired.content_hash(), digest, "wire, seed {seed}");
        }

        // Register hardening rewrites the netlist in place (replicas and
        // voters); the digest must follow.
        let mut hardened = flat_of(&spec);
        let ffs: Vec<_> = hardened
            .iter_cells()
            .filter(|(_, c)| c.kind.is_sequential())
            .map(|(id, _)| id)
            .collect();
        let report = hardened.ff_harden(&ffs);
        if !report.hardened.is_empty() {
            assert_ne!(hardened.content_hash(), digest, "harden, seed {seed}");
        }
    }
}
