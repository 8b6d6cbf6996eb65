//! E4/E5 syscall budgets as regression tests: the tables printed by
//! `bench control_plane` and `bench packetin_and_notify` (and recorded in
//! EXPERIMENTS.md) are pinned here, with every count read back through
//! the `/net/.proc` introspection tree rather than the in-process
//! counters — so the test also proves the proc view is exact.

use std::sync::Arc;

use bytes::Bytes;

use yanc::{FlowSpec, PacketInRecord, YancFs};
use yanc_apps::RouterDaemon;
use yanc_driver::Runtime;
use yanc_harness::{build_line, record_topology, settle, PumpApp};
use yanc_openflow::{Action, FlowMatch, Ipv4Prefix, Version};
use yanc_packet::MacAddr;
use yanc_vfs::{Credentials, Filesystem};

/// `cat`-equivalent: read a proc file and parse it as a number. Proc
/// paths are exempt from syscall accounting, so this never perturbs the
/// budgets being measured.
fn proc_u64(fs: &Arc<Filesystem>, path: &str) -> u64 {
    fs.read_to_string(path, &Credentials::root())
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{path}: not a number: {e}"))
}

/// A spec with exactly `k` populated match fields (mirrors the E4 bench).
fn spec_with_fields(k: usize) -> FlowSpec {
    type FieldSetter = Box<dyn Fn(&mut FlowMatch)>;
    let mut m = FlowMatch::any();
    let setters: Vec<FieldSetter> = vec![
        Box::new(|m| m.in_port = Some(1)),
        Box::new(|m| m.dl_src = Some(MacAddr::from_seed(1))),
        Box::new(|m| m.dl_dst = Some(MacAddr::from_seed(2))),
        Box::new(|m| m.dl_type = Some(0x0800)),
        Box::new(|m| m.nw_tos = Some(0x20)),
        Box::new(|m| m.nw_proto = Some(6)),
        Box::new(|m| m.nw_src = Ipv4Prefix::parse("10.0.0.0/24")),
        Box::new(|m| m.nw_dst = Ipv4Prefix::parse("10.1.0.0/16")),
        Box::new(|m| m.tp_src = Some(1000)),
        Box::new(|m| m.tp_dst = Some(22)),
    ];
    for s in setters.iter().take(k) {
        s(&mut m);
    }
    FlowSpec {
        m,
        actions: vec![Action::out(2)],
        priority: 500,
        ..Default::default()
    }
}

#[test]
fn e4_commit_syscall_budget_via_proc() {
    // EXPERIMENTS.md E4: 20 fixed + 3 per match field.
    for (k, expected) in [(1usize, 23u64), (4, 32), (7, 41), (10, 50)] {
        let mut rt = Runtime::new();
        rt.add_switch_with_driver(1, 4, 1, vec![Version::V1_0], Version::V1_0);
        rt.pump().unwrap();
        rt.enable_introspection().unwrap();
        let fs = rt.yfs.filesystem();
        let before = proc_u64(fs, "/net/.proc/vfs/syscalls/total");
        rt.yfs.write_flow("sw1", "f", &spec_with_fields(k)).unwrap();
        let after = proc_u64(fs, "/net/.proc/vfs/syscalls/total");
        assert_eq!(
            after - before,
            expected,
            "flow commit with {k} match fields"
        );
    }
}

#[test]
fn e5_fanout_syscall_budget_via_proc() {
    // EXPERIMENTS.md E5: ~19 syscalls per subscriber, linear fan-out.
    for (n, expected) in [
        (1usize, 20u64),
        (2, 39),
        (4, 77),
        (8, 153),
        (16, 305),
        (32, 609),
    ] {
        let yfs = YancFs::init(Arc::new(Filesystem::new()), "/net").unwrap();
        yfs.enable_introspection().unwrap();
        let _subs: Vec<_> = (0..n)
            .map(|i| yfs.subscribe_events(&format!("app{i}")).unwrap())
            .collect();
        let rec = PacketInRecord {
            switch: "sw1".into(),
            in_port: 1,
            buffer_id: None,
            reason: "no_match".into(),
            data: Bytes::from(vec![0u8; 256]),
        };
        let fs = yfs.filesystem();
        let before = proc_u64(fs, "/net/.proc/vfs/syscalls/total");
        yfs.publish_packet_in(&rec).unwrap();
        let after = proc_u64(fs, "/net/.proc/vfs/syscalls/total");
        assert_eq!(after - before, expected, "publish to {n} subscribers");
    }
}

#[test]
fn e4_budget_is_unchanged_by_introspection() {
    // The proc mount must be an observer: the same workload costs the
    // same number of syscalls with and without it.
    let run = |introspect: bool| -> u64 {
        let mut rt = Runtime::new();
        rt.add_switch_with_driver(1, 4, 1, vec![Version::V1_0], Version::V1_0);
        rt.pump().unwrap();
        if introspect {
            rt.enable_introspection().unwrap();
        }
        let before = rt.yfs.filesystem().counters().snapshot();
        rt.yfs
            .write_flow("sw1", "f", &spec_with_fields(10))
            .unwrap();
        rt.yfs
            .filesystem()
            .counters()
            .snapshot()
            .since(&before)
            .total()
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn warm_view_path_install_budget_via_proc() {
    // DESIGN.md §15: with the router's topology view warm, one packet-in
    // that installs a 3-hop path reads nothing under `ports/` — no
    // `readlink`, and one `readdir` (the router's own event buffer) — and
    // writes each hop as open_dir + mkdirat + one batched write + close.
    let mut rt = Runtime::new();
    let topo = build_line(&mut rt, 3, Version::V1_3);
    record_topology(&mut rt);
    let all: Vec<_> = rt.net.hosts.values().map(|h| (h.ip, h.mac)).collect();
    for h in rt.net.hosts.values_mut() {
        for &(ip, mac) in &all {
            h.learn_arp(ip, mac);
        }
    }
    let (src, _) = topo.hosts[0];
    let (_, dst) = topo.hosts[1];
    let mut router = RouterDaemon::new(rt.yfs.clone()).unwrap();
    // Warm-up: the router learns both hosts and walks /net once; then the
    // installed paths idle out so the next ping misses again.
    rt.net.host_ping(src, dst, 1);
    settle(&mut rt, &mut [&mut router as &mut dyn PumpApp]);
    rt.advance(3600).unwrap();
    settle(&mut rt, &mut [&mut router as &mut dyn PumpApp]);
    rt.enable_introspection().unwrap();
    let paths = router.paths_installed;

    rt.net.host_ping(src, dst, 2);
    rt.pump().unwrap(); // the echo request misses on sw1: one packet-in
    let fs = rt.yfs.filesystem().clone();
    let ops = [
        "total", "stat", "open", "close", "read", "write", "mkdir", "rmdir", "unlink", "readdir",
        "readlink", "openat", "fstat",
    ];
    let read = |op: &str| proc_u64(&fs, &format!("/net/.proc/vfs/syscalls/{op}"));
    let before: Vec<u64> = ops.iter().map(|op| read(op)).collect();
    assert!(router.run_once());
    let used: Vec<(&str, u64)> = ops
        .iter()
        .zip(&before)
        .map(|(op, b)| (*op, read(op) - b))
        .collect();
    assert_eq!(router.paths_installed, paths + 1);
    assert_eq!(router.topology_rebuilds, 1, "the view stayed warm");
    // 49 in all: consuming the packet-in (the readdir, its field reads,
    // one rmdir), three hops of open_dir + mkdirat + one batched write +
    // close, and the packet-out append. Before the view, the same
    // install cost 212: 8 readdirs and 15 readlinks re-walking /net, and
    // a path-addressed write_flow per hop.
    assert_eq!(
        used,
        vec![
            ("total", 49),
            ("stat", 5),
            ("open", 12),
            ("close", 12),
            ("read", 5),
            ("write", 7),
            ("mkdir", 6),
            ("rmdir", 1),
            ("unlink", 0),
            ("readdir", 1),
            ("readlink", 0),
            ("openat", 0),
            ("fstat", 0),
        ]
    );
}

#[test]
fn driver_flow_sync_budget_via_proc() {
    // DESIGN.md §16: the driver's reaction to one flow commit is one sync
    // — open_dir + readdir + one batched read + close, and the unlink of
    // a stale `error` file — whatever the number of fields. The mkdir
    // hook's `version` = 0 commit in the same drained batch adds nothing.
    // Before, the same pump cost 2·(1 + 4·files) + 1: 35 for k = 1 and
    // 107 for k = 10.
    for k in [1usize, 4, 7, 10] {
        let mut rt = Runtime::new();
        rt.add_switch_with_driver(1, 4, 1, vec![Version::V1_0], Version::V1_0);
        rt.pump().unwrap();
        rt.enable_introspection().unwrap();
        rt.yfs.write_flow("sw1", "f", &spec_with_fields(k)).unwrap();
        let fs = rt.yfs.filesystem().clone();
        let ops = ["total", "open", "readdir", "read", "close", "unlink"];
        let read = |op: &str| proc_u64(&fs, &format!("/net/.proc/vfs/syscalls/{op}"));
        let before: Vec<u64> = ops.iter().map(|op| read(op)).collect();
        rt.pump().unwrap();
        let used: Vec<(&str, u64)> = ops
            .iter()
            .zip(&before)
            .map(|(op, b)| (*op, read(op) - b))
            .collect();
        assert_eq!(
            used,
            vec![
                ("total", 5),
                ("open", 1),
                ("readdir", 1),
                ("read", 1),
                ("close", 1),
                ("unlink", 1)
            ],
            "driver sync of a flow with {k} match fields"
        );
        assert_eq!(rt.net.switches[&1].flow_count(), 1);
    }
}

#[test]
fn packet_out_drain_budget_via_proc() {
    // DESIGN.md §16: a `packet_out` drain is open + fstat + pread + close
    // and copies only the appended bytes, whether the file is empty or
    // already holds 60 KiB of consumed lines.
    let mut rt = Runtime::new();
    rt.add_switch_with_driver(1, 4, 1, vec![Version::V1_0], Version::V1_0);
    rt.pump().unwrap();
    rt.enable_introspection().unwrap();
    let fs = rt.yfs.filesystem().clone();
    let root = Credentials::root();
    let path = "/net/switches/sw1/packet_out";
    let line = format!(
        "buffer=none in_port=1 out=2 data={}\n",
        yanc::hex_encode(&[0xab; 60])
    );
    let drain = |rt: &mut Runtime, append: &[u8]| -> Vec<(&'static str, u64)> {
        fs.append_file(path, append, &root).unwrap();
        let ops = ["total", "open", "fstat", "read", "close"];
        let read = |op: &str| proc_u64(&fs, &format!("/net/.proc/vfs/syscalls/{op}"));
        let before: Vec<u64> = ops.iter().map(|op| read(op)).collect();
        rt.pump().unwrap();
        ops.iter()
            .zip(&before)
            .map(|(op, b)| (*op, read(op) - b))
            .collect()
    };
    let four = vec![
        ("total", 4),
        ("open", 1),
        ("fstat", 1),
        ("read", 1),
        ("close", 1),
    ];
    assert_eq!(drain(&mut rt, b""), four, "empty file");
    let bulk = line.repeat(60 * 1024 / line.len());
    assert_eq!(drain(&mut rt, bulk.as_bytes()), four, "60 KiB appended");
    let size = fs.stat(path, &root).unwrap().size;
    assert!(size >= 59 * 1024, "{size} bytes");
    assert_eq!(
        drain(&mut rt, line.as_bytes()),
        four,
        "one line after 60 KiB"
    );
}
