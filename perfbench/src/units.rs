//! Seeded compilation units.
//!
//! A unit is one synthetic benchmark name of a suite, generated with
//! that suite's profile from
//! `fnv(suite.id ++ name) ^ mix(seed, copy)`. `mix(0, 0) == 0`, so seed 0,
//! copy 0 gives exactly the paper corpus's unit for that name (the same
//! FNV as `Suite::workloads`); other seeds and copies give new units of
//! the same character.

use crate::stats::{fmix, fnv};
use crate::trace;
use dbds_ir::{Graph, Value};
use dbds_workloads::{generate_graph, generate_inputs, Suite};

/// One generated compilation unit plus its interpreter inputs.
#[derive(Clone, Debug)]
pub struct Unit {
    /// Position in the run's unit list; the span item id.
    pub id: u64,
    pub name: &'static str,
    pub copy: u64,
    pub graph: Graph,
    pub inputs: Vec<Vec<Value>>,
}

/// Mixes the workload seed with the copy index; `mix(0, 0) == 0`.
pub fn mix(seed: u64, copy: u64) -> u64 {
    fmix(seed.wrapping_mul(0x9e3779b97f4a7c15) ^ fmix(copy))
}

/// The generator seed of `name`'s `copy` under workload seed `seed`.
pub fn unit_seed(suite: Suite, name: &str, seed: u64, copy: u64) -> u64 {
    fnv(format!("{}{}", suite.id(), name).as_bytes()) ^ mix(seed, copy)
}

/// Generates one unit (inside a `workloads.generate` span).
pub fn make(suite: Suite, name: &'static str, seed: u64, copy: u64, id: u64) -> Unit {
    trace::span("workloads.generate", id, || {
        let profile = suite.profile_for(name);
        let s = unit_seed(suite, name, seed, copy);
        Unit {
            id,
            name,
            copy,
            graph: generate_graph(name, &profile, s),
            inputs: generate_inputs(&profile, s),
        }
    })
}

/// `copies` copies of every benchmark name of `suites`, copy-major, so
/// that a prefix of the list covers every name.
pub fn unit_list(suites: &[Suite], copies: u64, seed: u64) -> Vec<Unit> {
    let mut out = Vec::new();
    for copy in 0..copies {
        for &suite in suites {
            for &name in suite.benchmark_names() {
                out.push(make(suite, name, seed, copy, out.len() as u64));
            }
        }
    }
    out
}

/// The IR text a client sends for `g`: class table plus the function.
pub fn ir_text(g: &Graph) -> String {
    let mut text = dbds_ir::print_class_table(g.class_table());
    text.push_str(&dbds_ir::print_graph(g));
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_copy_zero_is_the_paper_corpus() {
        assert_eq!(mix(0, 0), 0);
        assert_ne!(mix(0, 1), 0);
        assert_ne!(mix(1, 0), 0);
        for suite in Suite::ALL {
            for w in suite.workloads() {
                let name = suite
                    .benchmark_names()
                    .iter()
                    .find(|n| **n == w.name)
                    .expect("corpus name");
                let u = make(suite, name, 0, 0, 0);
                assert_eq!(
                    dbds_ir::print_graph(&u.graph),
                    dbds_ir::print_graph(&w.graph)
                );
                assert_eq!(u.inputs, w.inputs);
            }
        }
    }

    #[test]
    fn ir_text_parses_back() {
        let u = make(Suite::Micro, "wordcount", 7, 3, 0);
        let module = dbds_ir::parse_module(&ir_text(&u.graph)).expect("parses");
        assert_eq!(module.graphs.len(), 1);
        dbds_ir::verify(&module.graphs[0]).expect("verifies");
        assert_eq!(
            module.graphs[0].live_inst_count(),
            u.graph.live_inst_count()
        );
    }
}
