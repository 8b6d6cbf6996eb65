//! Failure injection across the stack: controller crashes, malformed
//! inputs, resource exhaustion, link flaps. The system must degrade
//! loudly-but-gracefully — errors surface as files or errno, never as
//! panics or silent corruption.

use yanc::FlowSpec;
use yanc_driver::{OpenFlowDriver, Runtime};
use yanc_openflow::{port_no, Action, FlowMatch, Version};
use yanc_vfs::{Credentials, Errno, Filesystem, Limits, Mode};

fn two_hosts() -> (Runtime, u64, u64) {
    let mut rt = Runtime::new();
    rt.add_switch_with_driver(0x1, 4, 1, vec![Version::V1_0], Version::V1_0);
    let h1 = rt.net.add_host("h1", "10.0.0.1".parse().unwrap());
    let h2 = rt.net.add_host("h2", "10.0.0.2".parse().unwrap());
    rt.net.attach_host(h1, (0x1, 1), None);
    rt.net.attach_host(h2, (0x1, 2), None);
    rt.pump().unwrap();
    rt.yfs
        .write_flow(
            "sw1",
            "flood",
            &FlowSpec {
                m: FlowMatch::any(),
                actions: vec![Action::out(port_no::FLOOD)],
                priority: 1,
                ..Default::default()
            },
        )
        .unwrap();
    rt.pump().unwrap();
    (rt, h1, h2)
}

#[test]
fn controller_crash_and_recovery() {
    let (mut rt, h1, _h2) = two_hosts();
    rt.net.host_ping(h1, "10.0.0.2".parse().unwrap(), 1);
    rt.pump().unwrap();
    assert_eq!(rt.net.hosts[&h1].ping_replies.len(), 1);

    // Controller dies: driver dropped, channel detached.
    rt.drivers.clear();
    rt.net.detach_controller(0x1);
    // Existing hardware flows keep forwarding (headless data plane).
    rt.net.host_ping(h1, "10.0.0.2".parse().unwrap(), 2);
    rt.pump().unwrap();
    assert_eq!(
        rt.net.hosts[&h1].ping_replies.len(),
        2,
        "data plane survives controller loss"
    );

    // A flow committed while the controller is dead reaches the fs only.
    rt.yfs
        .write_flow(
            "sw1",
            "ssh",
            &FlowSpec {
                m: FlowMatch {
                    tp_dst: Some(22),
                    ..Default::default()
                },
                actions: vec![Action::out(2)],
                priority: 77,
                ..Default::default()
            },
        )
        .unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0x1].flow_count(), 1);

    // New controller: re-handshake; the driver resyncs fs state into the
    // switch (including the flow written during the outage).
    let handle = rt.net.attach_controller(0x1);
    rt.drivers
        .push(OpenFlowDriver::new(Version::V1_0, rt.yfs.clone(), handle));
    rt.pump().unwrap();
    assert!(rt.drivers[0].ready());
    assert_eq!(
        rt.net.switches[&0x1].flow_count(),
        2,
        "fs flows resynced after recovery"
    );
    rt.net.host_ping(h1, "10.0.0.2".parse().unwrap(), 3);
    rt.pump().unwrap();
    assert_eq!(rt.net.hosts[&h1].ping_replies.len(), 3);
}

#[test]
fn malformed_committed_flow_reports_error_file() {
    let (mut rt, _h1, _h2) = two_hosts();
    let fs = rt.yfs.filesystem().clone();
    let creds = rt.yfs.creds().clone();
    fs.mkdir("/net/switches/sw1/flows/bad", Mode::DIR_DEFAULT, &creds)
        .unwrap();
    fs.write_file(
        "/net/switches/sw1/flows/bad/match.dl_src",
        b"not-a-mac",
        &creds,
    )
    .unwrap();
    fs.write_file("/net/switches/sw1/flows/bad/version", b"1", &creds)
        .unwrap();
    rt.pump().unwrap();
    // Not installed; the reason is in the directory.
    assert_eq!(rt.net.switches[&0x1].flow_count(), 1); // just the flood flow
    let err = fs
        .read_to_string("/net/switches/sw1/flows/bad/error", &creds)
        .unwrap();
    assert!(err.contains("dl_src"), "{err}");
}

#[test]
fn garbage_packet_out_lines_are_ignored() {
    let (mut rt, _h1, h2) = two_hosts();
    let fs = rt.yfs.filesystem().clone();
    let creds = rt.yfs.creds().clone();
    let delivered_before = rt.net.hosts[&h2].frames_received;
    fs.append_file(
        "/net/switches/sw1/packet_out",
        b"this is not a packet-out line\nbuffer=zzz in_port=bad\n",
        &creds,
    )
    .unwrap();
    rt.pump().unwrap(); // no panic, nothing sent
    assert_eq!(rt.net.hosts[&h2].frames_received, delivered_before);
}

/// One `packet_out` line that sends a UDP datagram to `dst_port` out of
/// h2's switch port.
fn udp_packet_out_line(rt: &Runtime, h2: u64, dst_port: u16) -> String {
    let frame = yanc_packet::build_udp(
        yanc_packet::MacAddr::from_seed(99),
        rt.net.hosts[&h2].mac,
        "10.0.0.9".parse().unwrap(),
        "10.0.0.2".parse().unwrap(),
        1234,
        dst_port,
        bytes::Bytes::from_static(b"hello"),
    );
    format!(
        "buffer=none in_port={} out=2 data={}\n",
        port_no::CONTROLLER,
        yanc::hex_encode(&frame)
    )
}

fn udp_ports_received(rt: &Runtime, h2: u64) -> Vec<u16> {
    rt.net.hosts[&h2]
        .udp_received
        .iter()
        .map(|u| u.dst_port)
        .collect()
}

#[test]
fn packet_out_split_utf8_character_fails_closed() {
    let (mut rt, _h1, h2) = two_hosts();
    let fs = rt.yfs.filesystem().clone();
    let creds = rt.yfs.creds().clone();
    let delivered_before = rt.net.hosts[&h2].frames_received;
    // A 4-byte character torn across two appends must not panic the pump.
    fs.append_file("/net/switches/sw1/packet_out", b"\xf0\x9f", &creds)
        .unwrap();
    rt.pump().unwrap();
    fs.append_file("/net/switches/sw1/packet_out", b"\x98\x80\n", &creds)
        .unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.hosts[&h2].frames_received, delivered_before);
    // The stream keeps working after the junk line.
    let line = udp_packet_out_line(&rt, h2, 7);
    fs.append_file("/net/switches/sw1/packet_out", line.as_bytes(), &creds)
        .unwrap();
    rt.pump().unwrap();
    assert_eq!(udp_ports_received(&rt, h2), vec![7]);
}

#[test]
fn packet_out_line_split_across_appends_is_sent_once() {
    let (mut rt, _h1, h2) = two_hosts();
    let fs = rt.yfs.filesystem().clone();
    let creds = rt.yfs.creds().clone();
    let line = udp_packet_out_line(&rt, h2, 4242);
    let (head, tail) = line.as_bytes().split_at(line.len() / 2);
    fs.append_file("/net/switches/sw1/packet_out", head, &creds)
        .unwrap();
    rt.pump().unwrap();
    assert!(udp_ports_received(&rt, h2).is_empty(), "half a line waits");
    fs.append_file("/net/switches/sw1/packet_out", tail, &creds)
        .unwrap();
    rt.pump().unwrap();
    assert_eq!(udp_ports_received(&rt, h2), vec![4242]);
}

#[test]
fn packet_out_uneven_chunks_across_compaction_deliver_each_line_once() {
    let (mut rt, _h1, h2) = two_hosts();
    let fs = rt.yfs.filesystem().clone();
    let creds = rt.yfs.creds().clone();
    let path = "/net/switches/sw1/packet_out";
    let ports: Vec<u16> = (10_000..11_000).collect();
    let stream: Vec<u8> = ports
        .iter()
        .flat_map(|&p| udp_packet_out_line(&rt, h2, p).into_bytes())
        .collect();
    assert!(stream.len() > 2 * 64 * 1024, "{} bytes", stream.len());
    let line_len = stream.len() / ports.len();
    // Uneven chunk sizes, most ending mid-line; every seventh chunk ends
    // exactly on a line boundary so the drained file can be compacted.
    let sizes = [1, 997, 4096, 37, 2 * line_len + 5, 13_001, 255];
    let (mut at, mut i, mut compactions) = (0usize, 0usize, 0usize);
    while at < stream.len() {
        let mut end = (at + sizes[i % sizes.len()]).min(stream.len());
        if i % 7 == 6 {
            end = (end / line_len * line_len)
                .max(at + line_len)
                .min(stream.len());
        }
        fs.append_file(path, &stream[at..end], &creds).unwrap();
        let size_before = fs.stat(path, &creds).unwrap().size;
        rt.pump().unwrap();
        if fs.stat(path, &creds).unwrap().size < size_before {
            compactions += 1;
        }
        at = end;
        i += 1;
    }
    assert!(compactions >= 1, "the file was never compacted");
    assert_eq!(udp_ports_received(&rt, h2), ports);
}

#[test]
fn quota_exhaustion_surfaces_as_enospc() {
    let fs = std::sync::Arc::new(
        Filesystem::builder()
            .limits(Limits {
                max_file_size: 1 << 20,
                max_dir_entries: 12,
                max_open_files: 1 << 10,
            })
            .build(),
    );
    let yfs = yanc::YancFs::init(fs, "/net").unwrap();
    yfs.create_switch("sw1", 1, 0, 0, 0, 1).unwrap();
    // Filling the flows directory eventually hits EDQUOT, reported as a
    // typed error, not a panic or partial corruption.
    let mut hit_quota = false;
    for i in 0..16 {
        match yfs.write_flow("sw1", &format!("f{i}"), &FlowSpec::default()) {
            Ok(_) => {}
            Err(yanc::YancError::Vfs(e)) => {
                assert!(matches!(e.errno, Errno::EDQUOT | Errno::ENOSPC), "{e}");
                hit_quota = true;
                break;
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(hit_quota, "quota should have been reached");
}

#[test]
fn link_flap_is_reported_through_port_status_files() {
    let (mut rt, h1, _h2) = two_hosts();
    let status = |rt: &Runtime| -> String {
        rt.yfs
            .filesystem()
            .read_to_string(
                "/net/switches/sw1/ports/p2/config.port_status",
                rt.yfs.creds(),
            )
            .unwrap()
    };
    assert_eq!(status(&rt), "up");
    rt.net.set_link_up(
        yanc_dataplane::Endpoint::Switch { dpid: 0x1, port: 2 },
        false,
    );
    rt.pump().unwrap();
    assert_eq!(status(&rt), "down");
    // Traffic toward the dead link goes nowhere, quietly.
    rt.net.host_ping(h1, "10.0.0.2".parse().unwrap(), 9);
    rt.pump().unwrap();
    assert!(rt.net.hosts[&h1].ping_replies.is_empty());
    // Link heals.
    rt.net.set_link_up(
        yanc_dataplane::Endpoint::Switch { dpid: 0x1, port: 2 },
        true,
    );
    rt.pump().unwrap();
    assert_eq!(status(&rt), "up");
    rt.net.host_ping(h1, "10.0.0.2".parse().unwrap(), 10);
    rt.pump().unwrap();
    // Both pings complete: the one queued behind the unresolved ARP during
    // the outage flushes as soon as resolution succeeds, plus the new one.
    assert_eq!(rt.net.hosts[&h1].ping_replies.len(), 2);
}

#[test]
fn unwritable_flow_dir_denies_but_never_wedges_the_driver() {
    let (mut rt, h1, _h2) = two_hosts();
    let fs = rt.yfs.filesystem().clone();
    let admin = Credentials::root();
    // Lock the flows dir; an unprivileged app fails cleanly…
    fs.chmod("/net/switches/sw1/flows", Mode(0o500), &admin)
        .unwrap();
    let app = rt.yfs.with_creds(Credentials::user(4000, 4000));
    let err = app
        .write_flow("sw1", "nope", &FlowSpec::default())
        .unwrap_err();
    assert!(matches!(err, yanc::YancError::Vfs(e) if e.errno == Errno::EACCES));
    // …and the driver keeps serving traffic afterwards.
    rt.net.host_ping(h1, "10.0.0.2".parse().unwrap(), 1);
    rt.pump().unwrap();
    assert_eq!(rt.net.hosts[&h1].ping_replies.len(), 1);
}
