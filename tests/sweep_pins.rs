//! Bit pins for every mode of the planned sweep: the single-scenario run,
//! the lane sweep at K = 3 and at K = 40 (which crosses the 32-lane
//! chunk), the values of the table-retaining sum- and max-product sweeps,
//! the backward pass's marginal numerators, the most probable world and
//! its probability, and 16 seeded exact samples. The corpus is the one of
//! `tests/lineage_pins.rs` (path, star and partial 2-tree instances with
//! its five goal shapes) plus one plan relabelled by a fact deletion.
//!
//! The digests were recorded before the three forward sweep loops were
//! folded into one kernel; a rewrite that changes any bit of any mode's
//! answer fails here. Re-record only for an intended change of the
//! arithmetic.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use stuc::circuit::circuit::VarId;
use stuc::circuit::compiled::CompiledCircuit;
use stuc::circuit::plan::{MaxProduct, SumProduct, SweepArena};
use stuc::circuit::weights::Weights;
use stuc::core::engine::{Engine, Representation};
use stuc::core::workloads;
use stuc::data::instance::FactId;
use stuc::data::tid::TidInstance;
use stuc::graph::elimination::EliminationHeuristic;
use stuc::infer::{most_probable_world, sample_worlds, World};
use stuc::query::cq::ConjunctiveQuery;

const BUDGET: usize = 22;

/// FNV-1a over a stream of words (the scheme of `tests/lineage_pins.rs`).
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn world(&mut self, world: &World) {
        self.word(world.len() as u64);
        for (v, value) in world.iter() {
            self.word(v.0 as u64);
            self.word(u64::from(value));
        }
    }

    /// A refused mode still pins something: which refusal it was.
    fn refusal(&mut self, error: &dyn std::fmt::Debug) {
        self.word(u64::MAX);
        for byte in format!("{error:?}").bytes() {
            self.word(u64::from(byte));
        }
    }
}

/// `k` of `count` what-if scenarios: every probability scaled by a factor
/// in [0.5, 1] that varies with the variable and the scenario.
fn scenarios(weights: &Weights, count: usize) -> Vec<Weights> {
    (0..count)
        .map(|k| {
            let mut scenario = Weights::new();
            for (v, p) in weights.iter() {
                let factor = 0.5 + 0.05 * ((k * 7 + v.0) % 11) as f64;
                scenario.set(v, p * factor);
            }
            scenario
        })
        .collect()
}

/// The digest of every sweep mode over one compiled lineage.
fn sweep_digest(compiled: &CompiledCircuit, weights: &Weights) -> u64 {
    let mut digest = Digest::new();
    let plan = compiled.try_sweep_plan().expect("plan builds");
    let mut arena = SweepArena::new();
    digest.float(plan.run(weights, &mut arena).expect("sweep runs"));
    for count in [3, 40] {
        let report = compiled
            .run_many(&scenarios(weights, count), BUDGET)
            .expect("lane sweep runs");
        for p in report.probabilities {
            digest.float(p);
        }
    }
    let max = plan.run_retained::<MaxProduct>(weights).expect("max sweep");
    digest.float(max.value());
    let retained = plan.run_retained::<SumProduct>(weights).expect("sum sweep");
    digest.float(retained.value());
    for (v, numerator) in plan.marginal_numerators(&retained) {
        digest.word(v.0 as u64);
        digest.float(numerator);
    }
    match most_probable_world(compiled, weights, BUDGET) {
        Ok(mpe) => {
            digest.world(&mpe.world);
            digest.float(mpe.probability);
        }
        Err(error) => digest.refusal(&error),
    }
    match sample_worlds(compiled, weights, BUDGET, 16, 11) {
        Ok(sampled) => {
            for world in &sampled.worlds {
                digest.world(world);
            }
        }
        Err(error) => digest.refusal(&error),
    }
    digest.0
}

fn compile_lineage(tid: &TidInstance, goal: &str) -> CompiledCircuit {
    let query = ConjunctiveQuery::parse(goal).expect("goal parses");
    let lineage = Engine::new().lineage(tid, &query).expect("lineage builds");
    CompiledCircuit::compile(Arc::new(lineage), EliminationHeuristic::MinDegree)
        .expect("lineage compiles")
}

/// A three-level star: hub `c0` with `m` spokes `R(c0, ci)`, each
/// extended by two more facts (the star of `tests/lineage_pins.rs`).
fn star_tid(m: usize) -> TidInstance {
    let mut tid = TidInstance::new();
    for i in 1..=m {
        let p = 0.2 + 0.6 * (i as f64 / m as f64);
        let (a, b, c) = (
            format!("c{i}"),
            format!("c{}", m + i),
            format!("c{}", 2 * m + i),
        );
        tid.add_fact_named("R", &["c0", &a], p);
        tid.add_fact_named("R", &[&a, &b], 1.0 - p / 2.0);
        tid.add_fact_named("R", &[&b, &c], 0.5);
    }
    tid
}

/// The goal shapes of `tests/lineage_pins.rs`, with `{f}` a constant with
/// out-going paths and `{b}` one with in-coming paths.
const GOALS: [&str; 5] = [
    "R(x, y), R(y, z)",
    "R(\"{f}\", x), R(x, y), R(y, z)",
    "R(x, \"{b}\"), R(y, x), R(z, y)",
    "R(\"{f}\", x), R(y, x), R(y, z)",
    "R(\"{f}\", x), R(x, y)",
];

fn instances() -> Vec<(&'static str, TidInstance, [&'static str; 2])> {
    vec![
        ("path", workloads::path_tid(120, 0.5, 13), ["c3", "c17"]),
        ("star", star_tid(5), ["c0", "c13"]),
        (
            "partial 2-tree",
            workloads::partial_k_tree_tid(60, 2, 0.6, 5),
            ["c3", "c45"],
        ),
    ]
}

const PINS: [[u64; 5]; 3] = [
    [
        0x0de5273ec80f4433,
        0xd6ee54e42df669fb,
        0x2abb1c6d8f13b8d1,
        0xd1f5ba1f50533f85,
        0x4d98c1e3a1d522be,
    ],
    [
        0xe863c084cc739e0f,
        0xef25435445507a7c,
        0x214f68e53581d24d,
        0x5aece444590864eb,
        0x20d2732a3f36b74f,
    ],
    [
        0xa20a29439ed0dc85,
        0xd1e07ece6da80868,
        0x8cbfbe92a7d901ac,
        0x0b7ad7e0d708d7a9,
        0xd90e571640f27028,
    ],
];

#[test]
fn every_sweep_mode_matches_the_recorded_digests() {
    let mut observed = Vec::new();
    for (name, tid, [f, b]) in instances() {
        let weights = tid.weights().expect("weights");
        let row: Vec<u64> = GOALS
            .iter()
            .map(|goal| {
                let goal = goal.replace("{f}", f).replace("{b}", b);
                sweep_digest(&compile_lineage(&tid, &goal), &weights)
            })
            .collect();
        observed.push((name, row));
    }
    for (i, (name, row)) in observed.iter().enumerate() {
        for (j, &digest) in row.iter().enumerate() {
            assert_eq!(
                digest, PINS[i][j],
                "{name} / {}: digest {digest:#018x} (all: {observed:#x?})",
                GOALS[j]
            );
        }
    }
}

/// A plan carried over a fact deletion by relabelling: the deleted fact's
/// slot is pinned to `[1, 0]` and the later facts' variables shift down.
#[test]
fn a_plan_relabelled_by_a_delete_matches_the_recorded_digest() {
    let mut tid = workloads::path_tid(120, 0.5, 13);
    let compiled = compile_lineage(&tid, GOALS[0]);
    compiled.try_sweep_plan().expect("plan builds");
    let deleted = 40;
    tid.remove_fact(FactId(deleted));
    let pin_false = BTreeSet::from([VarId(deleted)]);
    let remap: BTreeMap<VarId, VarId> = compiled
        .variables()
        .iter()
        .filter(|v| v.0 > deleted)
        .map(|&v| (v, VarId(v.0 - 1)))
        .collect();
    let (rewired, _) = compiled.rewire_inputs(&pin_false, &remap);
    assert!(rewired.is_planned(), "the plan is carried, not rebuilt");
    let digest = sweep_digest(&rewired, &tid.weights().expect("weights"));
    assert_eq!(digest, 0xac1976f8aadbd873, "digest {digest:#018x}");
}
