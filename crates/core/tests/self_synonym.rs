//! Regression: valid IR whose loop φ is its own back-edge input.
//!
//! Raising one branch probability of the `typescript` workload to 1.0
//! leaves IR that parses and verifies, but whose loop φs reach the
//! simulation tier as their own input on the back edge. The DST mapped
//! such a φ to itself and `FactEnv::set_synonym` panicked ("value
//! cannot be its own synonym"); at dupalot the panic escaped `compile`
//! through the prediction audit.

use dbds_core::{compile, BailoutReason, DbdsConfig, OptLevel};
use dbds_costmodel::CostModel;
use dbds_ir::{execute, parse_module, print_class_table, verify};
use dbds_workloads::all_workloads;

#[test]
fn certain_branch_in_typescript_compiles_at_every_level() {
    let w = all_workloads()
        .into_iter()
        .find(|w| w.name == "typescript")
        .expect("typescript workload");
    let text = print_class_table(w.graph.class_table()) + &w.graph.to_string();
    let edited = text.replace(
        "branch v650, b221, b223, prob 0.92",
        "branch v650, b221, b223, prob 1.0",
    );
    assert_ne!(
        edited, text,
        "the edited branch is missing from the workload"
    );
    let pristine = parse_module(&edited)
        .expect("edited workload parses")
        .graphs
        .remove(0);
    verify(&pristine).expect("edited workload verifies");
    let expected: Vec<_> = w
        .inputs
        .iter()
        .map(|i| execute(&pristine, i).outcome)
        .collect();
    let model = CostModel::new();
    for level in [OptLevel::Dbds, OptLevel::Dupalot] {
        let mut g = pristine.clone();
        let stats = compile(&mut g, &model, level, &DbdsConfig::default());
        let panics: Vec<_> = stats
            .bailouts
            .iter()
            .filter(|b| matches!(b.reason, BailoutReason::TransformPanicked(_)))
            .collect();
        assert!(panics.is_empty(), "{level:?}: {panics:?}");
        assert!(stats.duplications > 0, "{level:?} duplicated nothing");
        verify(&g).unwrap_or_else(|e| panic!("{level:?} result does not verify: {e}"));
        for (input, want) in w.inputs.iter().zip(&expected) {
            assert_eq!(&execute(&g, input).outcome, want, "{level:?} on {input:?}");
        }
    }
}
