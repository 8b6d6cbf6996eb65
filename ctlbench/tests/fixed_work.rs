//! Figures that grow with the work done cover a fixed amount of it, so a
//! faster build does not read worse only because it did more:
//! `peak_rss_mb` is read when the op count reaches `MIN_OPS`, and on
//! `reactive` the latency and throughput figures cover the first `MIN_OPS`
//! ops only.

use ctlbench::workloads::MIN_OPS;
use ctlbench::{run_pass, Params, Stop, Workload};

#[test]
fn peak_rss_is_read_at_the_fixed_op_count() {
    let p = run_pass(
        Workload::FlowChurn,
        &Params::small(),
        3,
        Stop::Ops(MIN_OPS + 200),
        1,
        false,
    )
    .unwrap();
    let (ops, mb) = p
        .rec
        .rss_mb
        .expect("read when the op count reached MIN_OPS");
    assert_eq!(ops, MIN_OPS);
    assert!(mb > 0.0, "{mb} MiB");
    // flow_churn's state is bounded: its figures cover the whole run.
    assert_eq!(p.measured_ops(), MIN_OPS + 200);
}

#[test]
fn reactive_figures_cover_its_first_ops_only() {
    // k=6: 54 hosts, enough unused pairs for more than MIN_OPS pings.
    let params = Params {
        k: 6,
        ..Params::small()
    };
    let p = run_pass(
        Workload::Reactive,
        &params,
        3,
        Stop::Ops(MIN_OPS + 50),
        1,
        false,
    )
    .unwrap();
    assert_eq!(p.rec.failed, 0, "{:?}", p.rec.failures);
    assert_eq!(p.rec.ops, MIN_OPS + 50);
    assert_eq!(p.measured_ops(), MIN_OPS);
    assert_eq!(p.measured_latencies().len(), MIN_OPS as usize);
}
