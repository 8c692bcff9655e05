//! Goal texts, the path data they run on, and the closed-form answers used
//! to check them.

use stuc_graph::generators::SplitMix64;
use stuc_lang::ast::UnionAst;
use stuc_lang::parse_program;

/// One goal: its request body (`?- … .`), the parsed goal, and the
/// reference probability it must evaluate to.
#[derive(Debug, Clone)]
pub struct Goal {
    pub body: String,
    pub goal: UnionAst,
    pub reference: f64,
}

impl Goal {
    pub fn new(body: String, reference: f64) -> Goal {
        let program = parse_program(&body).expect("benchmark goal parses");
        let goal = program.queries()[0].goal.clone();
        Goal {
            body,
            goal,
            reference,
        }
    }
}

/// Agreement within 1e-9, the benchmark's correctness bar.
pub fn agrees(answer: f64, reference: f64) -> bool {
    (answer - reference).abs() <= 1e-9
}

/// Per-fact probabilities of a jittered path `R(c0,c1), …, R(c{n-1},c{n})`,
/// rounded to the six digits they are written with.
pub fn path_probabilities(n: usize, rng: &mut SplitMix64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let p = 0.5 + 0.4 * (rng.next_f64() - 0.5);
            format!("{p:.6}").parse().expect("six-digit probability")
        })
        .collect()
}

/// The `stuc-lang` program of a path: one `p :: R("ci", "ci+1").` line per
/// fact.
pub fn path_program(probabilities: &[f64]) -> String {
    let mut src = String::with_capacity(probabilities.len() * 32);
    for (i, p) in probabilities.iter().enumerate() {
        src.push_str(&format!("{p:.6} :: R(\"c{i}\", \"c{}\").\n", i + 1));
    }
    src
}

/// Anchored three-hop goal from `c{a}`.
pub fn three_hop(a: usize) -> String {
    format!("?- R(\"c{a}\", x), R(x, y), R(y, z).")
}

/// Closed forms on a path whose fact `i` is `R(c_i, c_{i+1})` with
/// probability `p[i]` (0 for an absent fact).
pub mod path {
    /// `R("c{a}", x), R(x, y), R(y, z)`.
    pub fn three_hop(p: &[f64], a: usize) -> f64 {
        (a..a + 3)
            .map(|i| p.get(i).copied().unwrap_or(0.0))
            .product()
    }

    /// `R("c{a}", x), R(x, y)`.
    pub fn two_hop(p: &[f64], a: usize) -> f64 {
        (a..a + 2)
            .map(|i| p.get(i).copied().unwrap_or(0.0))
            .product()
    }

    /// `R(x, y)`: some fact is present.
    pub fn scan(p: &[f64]) -> f64 {
        1.0 - p.iter().map(|q| 1.0 - q).product::<f64>()
    }

    /// `R(x, y), R(y, z)`: two consecutive facts are present. Dynamic
    /// programme over "no pair yet, last fact absent / present".
    pub fn pair(p: &[f64]) -> f64 {
        let (mut absent, mut present) = (1.0, 0.0);
        for &q in p {
            let next_absent = (absent + present) * (1.0 - q);
            let next_present = absent * q;
            absent = next_absent;
            present = next_present;
        }
        1.0 - (absent + present)
    }
}
