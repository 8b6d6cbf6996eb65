//! Inputs are a pure function of the seed: one seed run twice gives the
//! same per-op counts and the same final tree; another seed passes every
//! checker; and the traced run ends on the same tree as the untraced one.

use ctlbench::{run_pass, Params, Pass, Stop, Workload};

fn ops(w: Workload) -> u64 {
    match w {
        Workload::Reactive => 12,
        Workload::FlowChurn => 300,
        // Two rounds of one op per switch (k=4: 20 switches).
        Workload::StatsMonitor => 40,
    }
}

fn pass(w: Workload, seed: u64, traced: bool) -> Pass {
    let p = run_pass(w, &Params::small(), seed, Stop::Ops(ops(w)), 1, traced).unwrap();
    assert_eq!(p.rec.ops, ops(w), "{}: ran every op", w.name());
    p
}

/// `(vfs syscalls, flow-mods, data frames)` over the timed phase.
fn per_op_counts(p: &Pass) -> (u64, u64, u64) {
    (
        p.after.syscalls.since(&p.before.syscalls).total(),
        p.after.flow_mods - p.before.flow_mods,
        p.after.frames - p.before.frames,
    )
}

#[test]
fn one_seed_gives_identical_counts_and_digest() {
    for w in Workload::ALL {
        let a = pass(w, 7, false);
        let b = pass(w, 7, false);
        assert_eq!(per_op_counts(&a), per_op_counts(&b), "{}", w.name());
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert!(per_op_counts(&a).0 > 0, "{}: the ops did work", w.name());
    }
}

#[test]
fn another_seed_passes_every_checker_with_other_inputs() {
    for w in Workload::ALL {
        let a = pass(w, 7, false);
        let b = pass(w, 8, false);
        assert_eq!(b.rec.failed, 0, "{}: {:?}", w.name(), b.rec.failures);
        assert_eq!(a.rec.failed, 0, "{}: {:?}", w.name(), a.rec.failures);
        assert_ne!(a.digest, b.digest, "{}: seeds pick inputs", w.name());
    }
}

#[test]
fn traced_run_ends_on_the_untraced_tree() {
    for w in Workload::ALL {
        let plain = pass(w, 9, false);
        let traced = pass(w, 9, true);
        assert_eq!(plain.digest, traced.digest, "{}", w.name());
        assert_eq!(
            traced.rec.failed,
            0,
            "{}: {:?}",
            w.name(),
            traced.rec.failures
        );
        let t = traced.tracer.as_ref().unwrap();
        assert!(
            t.spans().len() as u64 >= ops(w),
            "{}: one span per op",
            w.name()
        );
    }
}
