//! Each workload's checker accepts the controller's real output and
//! rejects a wrong one.

use std::collections::HashMap;

use ctlbench::check::{self, ExpectedEntry, SwitchTruth};
use ctlbench::workloads::{fabric, routed_fabric};
use yanc::FlowSpec;
use yanc_openflow::{Action, FlowMatch};

#[test]
fn reactive_checker_rejects_a_missing_reply() {
    let (mut w, _) = routed_fabric(4).unwrap();
    let (src, _) = w.topo.hosts[0];
    let (_, dst) = w.topo.hosts[5];
    let (_, other) = w.topo.hosts[6];
    w.rt.net.host_ping(src, dst, 77);
    w.settle().unwrap();
    let host = &w.rt.net.hosts[&src];
    assert!(check::reply_arrived(host, dst, 77));
    assert!(!check::reply_arrived(host, dst, 78), "a seq never sent");
    assert!(
        !check::reply_arrived(host, other, 77),
        "a host never pinged"
    );
}

#[test]
fn flow_churn_checker_rejects_a_table_that_differs_from_the_spec() {
    let mut w = fabric(4);
    let dpid = w.topo.switches[0];
    let sw = format!("sw{dpid:x}");
    let m = FlowMatch {
        dl_type: Some(0x0800),
        nw_proto: Some(6),
        ..FlowMatch::any()
    };
    let spec = FlowSpec {
        m,
        actions: vec![Action::out(2)],
        priority: 900,
        ..Default::default()
    };
    w.rt.yfs.write_flow(&sw, "f", &spec).unwrap();
    w.pump().unwrap();
    let table = w.rt.net.switches[&dpid].table(0).unwrap();
    let right = ExpectedEntry {
        m,
        priority: 900,
        actions: vec![Action::out(2)],
    };
    assert_eq!(
        check::table_matches(table, std::slice::from_ref(&right)),
        Ok(())
    );

    let wrong_action = ExpectedEntry {
        actions: vec![Action::out(3)],
        ..right.clone()
    };
    assert!(check::table_matches(table, &[wrong_action]).is_err());
    let wrong_priority = ExpectedEntry {
        priority: 901,
        ..right.clone()
    };
    assert!(check::table_matches(table, &[wrong_priority]).is_err());
    assert!(check::table_matches(table, &[]).is_err(), "an extra entry");
    let extra = ExpectedEntry {
        m: FlowMatch {
            nw_proto: Some(17),
            ..m
        },
        ..right.clone()
    };
    assert!(
        check::table_matches(table, &[right, extra]).is_err(),
        "a missing entry"
    );
}

fn flow_keys(w: &ctlbench::world::World, sw: &str) -> HashMap<String, (FlowMatch, u16)> {
    w.rt.yfs
        .list_flows(sw)
        .unwrap()
        .into_iter()
        .map(|f| {
            let spec = w.rt.yfs.read_flow(sw, &f).unwrap();
            (f, (spec.m, spec.priority))
        })
        .collect()
}

#[test]
fn stats_checker_rejects_a_counter_that_differs_from_the_switch() {
    let (mut w, _) = routed_fabric(4).unwrap();
    w.poll_stats().unwrap();
    // A switch that forwarded traffic, so its counters are nonzero.
    let dpid = *w
        .topo
        .switches
        .iter()
        .find(|d| {
            w.rt.net.switches[d]
                .table(0)
                .is_some_and(|t| t.iter().any(|e| e.packets > 0))
        })
        .expect("some switch forwarded traffic");
    let sw = format!("sw{dpid:x}");
    let keys = flow_keys(&w, &sw);
    let truth = SwitchTruth::of(&w.rt.net.switches[&dpid]);
    let set = check::read_counter_set(&w.rt.yfs, &sw).unwrap();
    assert!(set.max_value() > 0);
    assert_eq!(check::counters_match(&set, &truth, &keys), Ok(()));

    // The hardware moved on since the poll: the read-back is stale.
    let mut moved = truth.clone();
    let e = moved.flows.iter_mut().find(|f| f.2 > 0).unwrap();
    e.2 += 1;
    assert!(check::counters_match(&set, &moved, &keys).is_err());
    let mut moved = truth.clone();
    moved.ports.values_mut().next().unwrap()[0] += 1;
    assert!(check::counters_match(&set, &moved, &keys).is_err());

    // A counter file in /net that lies about the hardware.
    let port = *truth.ports.keys().next().unwrap();
    let path =
        w.rt.yfs
            .port_dir(&sw, port)
            .join("counters")
            .join("rx_packets");
    w.rt.yfs
        .filesystem()
        .write_file(path.as_str(), b"999999", w.rt.yfs.creds())
        .unwrap();
    let bad = check::read_counter_set(&w.rt.yfs, &sw).unwrap();
    assert!(check::counters_match(&bad, &truth, &keys).is_err());

    // A flow the checker was never told about.
    let mut fewer = keys.clone();
    let name = fewer.keys().next().unwrap().clone();
    fewer.remove(&name);
    assert!(check::counters_match(&set, &truth, &fewer).is_err());
}
