//! The final JSON line carries exactly the metrics `BENCHMARK.json` lists:
//! the untraced run its `end_to_end` names, the traced run its `per_layer`
//! names.

use ctlbench::report::{self, GATED};
use ctlbench::{run_pass, Params, Stop, Workload};

const SPEC: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values of one list in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let start = SPEC
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} list"));
    let body = &SPEC[start..];
    let body = &body[..body.find(']').expect("the list ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("the name ends")].to_string())
        .collect()
}

#[test]
fn end_to_end_names_match() {
    assert_eq!(listed("end_to_end"), GATED);
    let p = run_pass(
        Workload::FlowChurn,
        &Params::small(),
        1,
        Stop::Ops(20),
        1,
        false,
    )
    .unwrap();
    let printed: Vec<String> = report::end_to_end(&p).into_iter().map(|m| m.name).collect();
    for name in GATED {
        assert!(printed.iter().any(|n| n == name), "{name} is not measured");
    }
}

#[test]
fn per_layer_names_match() {
    let pass = |traced| {
        run_pass(
            Workload::FlowChurn,
            &Params::small(),
            1,
            Stop::Ops(20),
            1,
            traced,
        )
        .unwrap()
    };
    let names: Vec<String> = report::per_layer(&pass(false), &pass(true))
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(listed("per_layer"), names);
}
