//! The router's notify-invalidated topology view, end to end (DESIGN.md
//! §15): a warm view is never walked again, each link change or `SIGHUP`
//! costs exactly one walk, a malformed `peer` fails closed instead of
//! turning every packet-in into a flood, and a restarted router rewrites
//! the flows its previous incarnation left behind exactly.

use yanc::{FlowSpec, YancApp};
use yanc_apps::{RouterDaemon, TopologyView};
use yanc_driver::Runtime;
use yanc_harness::{build_fabric, build_line, record_topology, settle, PumpApp, Topo};
use yanc_openflow::{Action, FlowMatch, Version};

/// Give every host every other host's MAC, so no ping ever broadcasts an
/// ARP request (a flood is then only ever the router's own choice).
fn prime_arp(rt: &mut Runtime) {
    let all: Vec<_> = rt.net.hosts.values().map(|h| (h.ip, h.mac)).collect();
    for h in rt.net.hosts.values_mut() {
        for &(ip, mac) in &all {
            if ip != h.ip {
                h.learn_arp(ip, mac);
            }
        }
    }
}

/// A settled k=4 fat tree (20 switches, 16 hosts) with its links recorded
/// and a router that has seen every host (host `i` pinged host `i+1`).
fn warm_fabric() -> (Runtime, Topo, RouterDaemon) {
    let mut rt = Runtime::new();
    let topo = build_fabric(&mut rt, 4, Version::V1_3);
    record_topology(&mut rt);
    prime_arp(&mut rt);
    let mut router = RouterDaemon::new(rt.yfs.clone()).unwrap();
    let n = topo.hosts.len();
    for a in 0..n {
        assert!(ping(&mut rt, &topo, &mut router, a, (a + 1) % n, 1));
    }
    (rt, topo, router)
}

/// Ping host `b` from host `a` and settle; whether the reply arrived.
fn ping(
    rt: &mut Runtime,
    topo: &Topo,
    router: &mut RouterDaemon,
    a: usize,
    b: usize,
    seq: u16,
) -> bool {
    let (src, _) = topo.hosts[a];
    let (_, dst) = topo.hosts[b];
    rt.net.host_ping(src, dst, seq);
    settle(rt, &mut [router as &mut dyn PumpApp]);
    rt.net.hosts[&src].ping_replies.contains(&(dst, seq))
}

/// The edge switch the router learned host `i` behind.
fn edge_of(rt: &Runtime, topo: &Topo, router: &RouterDaemon, i: usize) -> String {
    let mac = rt.net.hosts[&topo.hosts[i].0].mac;
    router.location_of(mac).unwrap().0.clone()
}

#[test]
fn warm_view_is_walked_once_and_each_change_costs_one_walk() {
    let (mut rt, topo, mut router) = warm_fabric();
    assert_eq!(router.topology_rebuilds, 1, "the warm-up walks /net once");
    let floods = router.floods;

    // N pings between new pairs: no walk, no flood.
    for (seq, a) in (2..).zip(0..6) {
        assert!(ping(&mut rt, &topo, &mut router, a, a + 5, seq));
    }
    assert_eq!(router.topology_rebuilds, 1);
    assert_eq!(router.floods, floods);

    // SIGHUP drops the view with the learned hosts: exactly one walk.
    let (src_sw, dst_sw) = (
        edge_of(&rt, &topo, &router, 1),
        edge_of(&rt, &topo, &router, 13),
    );
    router.reload().unwrap();
    assert!(ping(&mut rt, &topo, &mut router, 0, 9, 10));
    assert_eq!(router.topology_rebuilds, 2);

    // One `clear_peer` on the first uplink of the 1 → 13 path: exactly
    // one walk, and the next path leaves the edge switch another way.
    let mut v = TopologyView::new(rt.yfs.clone());
    let (_, uplink) = v.shortest_path(&src_sw, &dst_sw).unwrap()[0].clone();
    rt.yfs.clear_peer(&src_sw, uplink).unwrap();
    let before = rt.yfs.list_flows(&src_sw).unwrap();
    assert!(ping(&mut rt, &topo, &mut router, 1, 13, 11));
    assert_eq!(router.topology_rebuilds, 3);
    let new_flows: Vec<String> = rt
        .yfs
        .list_flows(&src_sw)
        .unwrap()
        .into_iter()
        .filter(|f| !before.contains(f))
        .collect();
    assert!(!new_flows.is_empty(), "the ping installed a path");
    for f in new_flows {
        let spec = rt.yfs.read_flow(&src_sw, &f).unwrap();
        assert!(
            !spec.actions.contains(&Action::out(uplink)),
            "{f} still uses the cleared link {src_sw}:{uplink}"
        );
    }
}

#[test]
fn malformed_peer_fails_closed() {
    let (mut rt, topo, mut router) = warm_fabric();
    let (floods, paths) = (router.floods, router.paths_installed);

    // Swap the peer of one aggregation → core link for a symlink that
    // names no port (the schema hook refuses it at symlink time; a rename
    // puts it in place anyway).
    let (src_sw, dst_sw) = (
        edge_of(&rt, &topo, &router, 0),
        edge_of(&rt, &topo, &router, 8),
    );
    let mut v = TopologyView::new(rt.yfs.clone());
    let (agg, core_port) = v.shortest_path(&src_sw, &dst_sw).unwrap()[1].clone();
    let dir = rt.yfs.port_dir(&agg, core_port);
    let fs = rt.yfs.filesystem().clone();
    fs.symlink("/net/hosts", dir.join("peer.new").as_str(), rt.yfs.creds())
        .unwrap();
    fs.rename(
        dir.join("peer.new").as_str(),
        dir.join("peer").as_str(),
        rt.yfs.creds(),
    )
    .unwrap();
    assert!(
        rt.yfs.topology().is_err(),
        "a full walk trips on the bad link"
    );

    // Routes between every other pair are still installed, none flooded.
    for (seq, a) in (2..).zip(0..8) {
        assert!(ping(&mut rt, &topo, &mut router, a, a + 8, seq));
    }
    assert_eq!(router.floods, floods);
    assert_eq!(router.paths_installed, paths + 2 * 8);
    assert_eq!(v.shortest_path(&src_sw, &dst_sw).unwrap().len(), 4);
    assert_eq!(v.malformed_links(), 1);
}

#[test]
fn restarted_router_rewrites_live_flows_exactly() {
    // h0 - sw1 - sw2 - sw3 - h1.
    let mut rt = Runtime::new();
    let topo = build_line(&mut rt, 3, Version::V1_3);
    record_topology(&mut rt);
    prime_arp(&mut rt);

    // What an earlier incarnation left behind: live `rt<seq>_<sw>` flows
    // of another shape (VLAN-tagged TCP), installed on every switch.
    let stale = |seq: u16| FlowSpec {
        m: FlowMatch {
            in_port: Some(3),
            dl_vlan: Some(42),
            dl_type: Some(0x0800),
            nw_proto: Some(6),
            tp_dst: Some(8000 + seq),
            ..Default::default()
        },
        actions: vec![Action::out(2)],
        priority: 40000,
        ..Default::default()
    };
    let switches = ["sw1", "sw2", "sw3"];
    for seq in 1..=3 {
        for sw in switches {
            rt.yfs
                .write_flow(sw, &format!("rt{seq}_{sw}"), &stale(seq))
                .unwrap();
        }
    }
    rt.pump().unwrap();
    let tagged = |rt: &Runtime| -> usize {
        rt.net
            .switches
            .values()
            .map(|s| {
                s.table(0)
                    .unwrap()
                    .iter()
                    .filter(|e| e.m.dl_vlan == Some(42))
                    .count()
            })
            .sum()
    };
    assert_eq!(tagged(&rt), 9);

    // The new router starts again at seq 0, so its names collide: the
    // first ping floods and installs the reply path (rt1), the second
    // installs the request path (rt2).
    let mut router = RouterDaemon::new(rt.yfs.clone()).unwrap();
    assert!(ping(&mut rt, &topo, &mut router, 0, 1, 1));
    assert!(ping(&mut rt, &topo, &mut router, 0, 1, 2));
    assert_eq!(router.paths_installed, 2);
    let mut rewritten = 0;
    for sw in switches {
        for f in rt.yfs.list_flows(sw).unwrap() {
            if !f.starts_with("rt") {
                continue;
            }
            let dir = rt.yfs.flow_dir(sw, &f);
            let files: Vec<String> = rt
                .yfs
                .filesystem()
                .readdir(dir.as_str(), rt.yfs.creds())
                .unwrap()
                .into_iter()
                .map(|e| e.name)
                .collect();
            let spec = rt.yfs.read_flow(sw, &f).unwrap();
            if spec.version >= 2 {
                rewritten += 1;
                assert!(
                    !files.iter().any(|n| n == "match.dl_vlan"),
                    "{sw}/{f} kept a stale match file: {files:?}"
                );
            }
        }
    }
    assert_eq!(rewritten, 6, "the new paths reused live names");
    // Each rewritten flow's old switch entry was deleted, not left behind.
    assert_eq!(tagged(&rt), 9 - rewritten);
}
