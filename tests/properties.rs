//! Property-based tests over the core data structures and invariants:
//! path resolution vs a model, flow-spec file-codec roundtrips, OpenFlow
//! wire-codec roundtrips for both versions, match subsumption laws,
//! DFS convergence under arbitrary concurrent writes, and concurrency
//! laws of the sharded vfs (lock ordering, link-count conservation,
//! notify batch accounting), and the topology view's equivalence with a
//! fresh walk of `/net`.

use std::sync::Arc;

use proptest::prelude::*;

use yanc::{FlowSpec, YancFs};
use yanc_dfs::{Backend, Cluster};
use yanc_openflow::FrameCodec;
use yanc_openflow::{decode, encode, Action, FlowMatch, FlowMod, Ipv4Prefix, Message, Version};
use yanc_packet::MacAddr;
use yanc_vfs::{AppLimits, Credentials, EventMask, Filesystem, Mode, Uid};

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    proptest::array::uniform6(any::<u8>()).prop_map(MacAddr)
}

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    // /0 is excluded: it is semantically the full wildcard, which the
    // codecs rightly canonicalize to an absent field.
    (any::<u32>(), 1u8..=32).prop_map(|(addr, len)| {
        // Canonicalize: host bits cleared, so Display/parse roundtrips.
        let masked = if len == 0 {
            0
        } else {
            addr & (u32::MAX << (32 - u32::from(len)))
        };
        Ipv4Prefix {
            addr: masked.into(),
            prefix_len: len,
        }
    })
}

prop_compose! {
    fn arb_match()(
        in_port in proptest::option::of(1u16..1000),
        dl_src in proptest::option::of(arb_mac()),
        dl_dst in proptest::option::of(arb_mac()),
        dl_vlan in proptest::option::of(0u16..4095),
        dl_vlan_pcp in proptest::option::of(0u8..8),
        dl_type in proptest::option::of(prop_oneof![Just(0x0800u16), Just(0x0806), Just(0x88cc)]),
        nw_tos in proptest::option::of((0u8..64).prop_map(|v| v << 2)),
        nw_proto in proptest::option::of(prop_oneof![Just(1u8), Just(6), Just(17)]),
        nw_src in proptest::option::of(arb_prefix()),
        nw_dst in proptest::option::of(arb_prefix()),
        tp_src in proptest::option::of(any::<u16>()),
        tp_dst in proptest::option::of(any::<u16>()),
    ) -> FlowMatch {
        FlowMatch {
            in_port, dl_src, dl_dst, dl_vlan, dl_vlan_pcp, dl_type,
            nw_tos, nw_proto, nw_src, nw_dst, tp_src, tp_dst,
        }
    }
}

/// A match that satisfies OpenFlow 1.3 OXM prerequisites.
fn arb_match_v13() -> impl Strategy<Value = FlowMatch> {
    arb_match().prop_map(|mut m| {
        // Transport fields require tcp/udp/icmp; network fields require
        // IPv4/ARP ethertype; pcp requires a vlan.
        if m.tp_src.is_some() || m.tp_dst.is_some() {
            m.dl_type = Some(0x0800);
            if !matches!(m.nw_proto, Some(1) | Some(6) | Some(17)) {
                m.nw_proto = Some(6);
            }
            if m.nw_proto == Some(1) {
                // ICMP type/code are u8 on the wire.
                m.tp_src = m.tp_src.map(|v| v & 0xff);
                m.tp_dst = m.tp_dst.map(|v| v & 0xff);
            }
        } else if m.nw_src.is_some()
            || m.nw_dst.is_some()
            || m.nw_proto.is_some()
            || m.nw_tos.is_some()
        {
            if !matches!(m.dl_type, Some(0x0800) | Some(0x0806)) {
                m.dl_type = Some(0x0800);
            }
            if m.dl_type == Some(0x0806) {
                m.nw_tos = None;
            }
        }
        if m.dl_vlan_pcp.is_some() && m.dl_vlan.is_none() {
            m.dl_vlan = Some(1);
        }
        m
    })
}

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(
        prop_oneof![
            (1u16..100).prop_map(Action::out),
            (0u16..4095).prop_map(Action::SetVlanVid),
            (0u8..8).prop_map(Action::SetVlanPcp),
            Just(Action::StripVlan),
            arb_mac().prop_map(Action::SetDlSrc),
            arb_mac().prop_map(Action::SetDlDst),
            any::<u32>().prop_map(|v| Action::SetNwSrc(v.into())),
            any::<u32>().prop_map(|v| Action::SetNwDst(v.into())),
            (0u8..64).prop_map(|v| Action::SetNwTos(v << 2)),
            any::<u16>().prop_map(Action::SetTpSrc),
            any::<u16>().prop_map(Action::SetTpDst),
            (1u16..100, any::<u32>())
                .prop_map(|(port, queue_id)| Action::Enqueue { port, queue_id }),
        ],
        0..6,
    )
}

// ---------------------------------------------------------------------
// OpenFlow codec roundtrips (E17)
// ---------------------------------------------------------------------

fn wire_roundtrip(v: Version, msg: &Message) -> Message {
    let bytes = encode(v, msg, 42).unwrap();
    let mut c = FrameCodec::new();
    c.feed(&bytes);
    let frame = c.next_frame().unwrap().unwrap();
    decode(&frame).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn v10_flow_mod_roundtrips(m in arb_match(), actions in arb_actions(),
                               priority in any::<u16>(), cookie in any::<u64>()) {
        let fm = FlowMod { cookie, priority, actions, ..FlowMod::add(m, 0, vec![]) };
        let fm = FlowMod { m, ..fm };
        let got = wire_roundtrip(Version::V1_0, &Message::FlowMod(fm.clone()));
        prop_assert_eq!(got, Message::FlowMod(fm));
    }

    #[test]
    fn v13_flow_mod_roundtrips(m in arb_match_v13(), actions in arb_actions(),
                               priority in any::<u16>(), table in 0u8..4) {
        let mut fm = FlowMod::add(m, priority, actions);
        fm.table_id = table;
        fm.goto_table = if table < 3 { Some(table + 1) } else { None };
        let got = wire_roundtrip(Version::V1_3, &Message::FlowMod(fm.clone()));
        prop_assert_eq!(got, Message::FlowMod(fm));
    }

    #[test]
    fn both_versions_packet_out_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256),
                                          in_port in 1u16..100, actions in arb_actions()) {
        for v in [Version::V1_0, Version::V1_3] {
            let msg = Message::PacketOut {
                buffer_id: None,
                in_port,
                actions: actions.clone(),
                data: bytes::Bytes::from(data.clone()),
            };
            prop_assert_eq!(wire_roundtrip(v, &msg), msg);
        }
    }

    // -----------------------------------------------------------------
    // Flow file codec (E4 substrate)
    // -----------------------------------------------------------------

    #[test]
    fn flowspec_files_roundtrip(m in arb_match(), actions in arb_actions(),
                                priority in any::<u16>(), idle in any::<u16>(),
                                hard in any::<u16>(), cookie in any::<u64>(),
                                version in 1u64..1000) {
        // The file codec canonicalizes action order; apply it first so the
        // roundtrip target is the canonical form.
        let canon = FlowSpec::from_files(
            FlowSpec { m, actions, priority, idle_timeout: idle, hard_timeout: hard,
                       cookie, goto_table: None, version }
                .to_files().iter().map(|(k, v)| (k.as_str(), v.as_str()))
        ).unwrap();
        let files = canon.to_files();
        let view: Vec<(&str, &str)> = files.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let again = FlowSpec::from_files(view).unwrap();
        prop_assert_eq!(again, canon);
    }

    // -----------------------------------------------------------------
    // Match laws
    // -----------------------------------------------------------------

    #[test]
    fn subsumption_is_reflexive_and_any_is_top(m in arb_match()) {
        prop_assert!(m.subsumes(&m));
        prop_assert!(FlowMatch::any().subsumes(&m));
    }

    #[test]
    fn intersection_is_subsumed_by_both(a in arb_match(), b in arb_match()) {
        if let Some(i) = yanc_apps::intersect(&a, &b) {
            prop_assert!(a.subsumes(&i), "a={a:?} i={i:?}");
            prop_assert!(b.subsumes(&i), "b={b:?} i={i:?}");
        }
    }

    #[test]
    fn intersection_commutes(a in arb_match(), b in arb_match()) {
        prop_assert_eq!(yanc_apps::intersect(&a, &b), yanc_apps::intersect(&b, &a));
    }

    // -----------------------------------------------------------------
    // VFS path resolution vs a flat model
    // -----------------------------------------------------------------

    #[test]
    fn vfs_matches_model(ops in proptest::collection::vec(
        (prop_oneof![Just("a"), Just("b"), Just("c")],
         prop_oneof![Just("x"), Just("y")],
         proptest::collection::vec(any::<u8>(), 0..8),
         any::<bool>()),
        1..40,
    )) {
        // Model: map of 2-level paths to contents.
        let fs = Filesystem::new();
        let creds = Credentials::root();
        let mut model: std::collections::BTreeMap<String, Vec<u8>> = Default::default();
        for (d, f, data, delete) in ops {
            let dir = format!("/{d}");
            let path = format!("/{d}/{f}");
            if delete {
                let _ = fs.unlink(&path, &creds);
                model.remove(&path);
            } else {
                let _ = fs.mkdir_all(&dir, Mode::DIR_DEFAULT, &creds);
                fs.write_file(&path, &data, &creds).unwrap();
                model.insert(path, data);
            }
        }
        for (path, want) in &model {
            prop_assert_eq!(&fs.read_file(path, &creds).unwrap(), want);
        }
        // Nothing extra: directory listings match the model's keys.
        for d in ["a", "b", "c"] {
            let have: Vec<String> = fs
                .readdir(&format!("/{d}"), &creds)
                .map(|es| es.into_iter().map(|e| format!("/{d}/{}", e.name)).collect())
                .unwrap_or_default();
            let want: Vec<String> =
                model.keys().filter(|k| k.starts_with(&format!("/{d}/"))).cloned().collect();
            prop_assert_eq!(have, want);
        }
    }

    // -----------------------------------------------------------------
    // DFS convergence (E12)
    // -----------------------------------------------------------------

    #[test]
    fn dfs_converges_under_arbitrary_writes(
        writes in proptest::collection::vec(
            (0usize..3, prop_oneof![Just("k1"), Just("k2"), Just("k3")], any::<u8>()),
            1..30,
        ),
        backend_sel in 0u8..3,
    ) {
        let backend = match backend_sel {
            0 => Backend::Central { primary: 0 },
            1 => Backend::Dht,
            _ => Backend::Policy,
        };
        let mut cluster = Cluster::new(3, backend, 10, "/net");
        for (node, key, val) in writes {
            cluster.nodes[node]
                .fs
                .write_file(&format!("/net/{key}"), &[val], &Credentials::root())
                .unwrap();
        }
        cluster.pump();
        for key in ["k1", "k2", "k3"] {
            prop_assert!(cluster.converged(&format!("/net/{key}")), "{key} diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // -----------------------------------------------------------------
    // Journal replay determinism (DESIGN.md §10)
    // -----------------------------------------------------------------

    // The durability law: for an arbitrary op sequence (including
    // rename/link/unlink interleavings), `replay(full log)` ≡
    // `mid-snapshot + replay(suffix)` ≡ `compacted log` ≡ the live tree.
    // The mid-run snapshot is spliced out by frame surgery to force the
    // pure-replay path over the identical history.
    #[test]
    fn journal_replay_is_deterministic(ops in proptest::collection::vec(
        (0u8..7,
         prop_oneof![Just("p"), Just("q"), Just("r")],
         prop_oneof![Just("x"), Just("y"), Just("z"), Just("w")],
         prop_oneof![Just("p"), Just("q"), Just("r")],
         prop_oneof![Just("x"), Just("y"), Just("z"), Just("w")],
         proptest::collection::vec(any::<u8>(), 1..6)),
        1..60,
    )) {
        let fs = Filesystem::new();
        fs.enable_journal();
        let creds = Credentials::root();
        let mid = ops.len() / 2;
        for (i, (kind, d1, n1, d2, n2, data)) in ops.iter().enumerate() {
            if i == mid {
                fs.journal_snapshot();
            }
            let a = format!("/{d1}/{n1}");
            let b = format!("/{d2}/{n2}");
            match kind {
                0 => { let _ = fs.mkdir_all(&format!("/{d1}"), Mode::DIR_DEFAULT, &creds); }
                1 => { let _ = fs.write_file(&a, data, &creds); }
                2 => { let _ = fs.rename(&a, &b, &creds); }
                3 => { let _ = fs.link(&a, &b, &creds); }
                4 => { let _ = fs.unlink(&a, &creds); }
                5 => { let _ = fs.symlink(&b, &a, &creds); }
                _ => { let _ = fs.rmdir(&format!("/{d1}"), &creds); }
            }
        }
        let live = fs.tree_digest();
        let bytes = fs.journal_bytes();

        // Snapshot + replay(suffix): the scanner picks the latest snapshot.
        let (r1, _) = Filesystem::restore_from_journal(&bytes, yanc_vfs::Limits::default(), 2, true);
        prop_assert_eq!(r1.tree_digest(), live);
        prop_assert!(r1.check_invariants().is_ok());

        // Pure replay(full log): splice every non-anchor snapshot frame out
        // so only the virgin anchor remains, then replay all records.
        let frames = yanc_vfs::scan_frames(&bytes);
        let mut spliced = Vec::new();
        for (j, f) in frames.iter().enumerate() {
            if j == 0 || !f.is_snapshot {
                spliced.extend_from_slice(&bytes[f.start..f.end]);
            }
        }
        let (r2, _) = Filesystem::restore_from_journal(&spliced, yanc_vfs::Limits::default(), 1, false);
        prop_assert_eq!(r2.tree_digest(), live);

        // Compacted log: drop everything the latest snapshot covers.
        fs.journal_compact();
        let (r3, _) = Filesystem::restore_from_journal(
            &fs.journal_bytes(), yanc_vfs::Limits::default(), 3, true);
        prop_assert_eq!(r3.tree_digest(), live);
    }
}

// ---------------------------------------------------------------------
// Sharded-vfs concurrency laws
// ---------------------------------------------------------------------

/// splitmix64 — deterministic per-thread op streams.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shard-ordering law: threads hammering rename/link/unlink/write across
/// directories acquire multi-shard write locks in every possible key
/// combination. The law is threefold: the run terminates (canonical
/// ascending acquisition order admits no deadlock), no inode is orphaned,
/// and every link count equals the number of directory entries referring
/// to the inode — all enforced by `check_invariants` over the final tree.
#[test]
fn concurrent_rename_link_unlink_preserve_structure() {
    let fs = Arc::new(Filesystem::builder().build());
    let creds = Credentials::root();
    for d in 0..4 {
        fs.mkdir_all(&format!("/p/d{d}"), Mode::DIR_DEFAULT, &creds)
            .unwrap();
    }
    for i in 0..6 {
        fs.write_file(&format!("/p/d0/f{i}"), b"seed", &creds)
            .unwrap();
    }
    let workers: Vec<_> = (0..4u64)
        .map(|t| {
            let fs = Arc::clone(&fs);
            std::thread::spawn(move || {
                let creds = Credentials::root();
                let mut s = t.wrapping_mul(0x5bf0_3635);
                for _ in 0..400 {
                    s = mix(s);
                    let src = format!("/p/d{}/f{}", s % 4, (s >> 8) % 6);
                    let dst = format!("/p/d{}/f{}", (s >> 16) % 4, (s >> 24) % 6);
                    // Individual ops may lose races (ENOENT/EEXIST are
                    // legal outcomes); the structural laws may not.
                    match (s >> 32) % 4 {
                        0 => drop(fs.rename(&src, &dst, &creds)),
                        1 => drop(fs.link(&src, &dst, &creds)),
                        2 => drop(fs.unlink(&src, &creds)),
                        _ => drop(fs.write_file(&src, &s.to_le_bytes(), &creds)),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let report = fs.check_invariants().unwrap();
    assert_eq!(report.orphans_held_open, 0);
    assert_eq!(report.handles, 0);
    assert_eq!(report.directories, 6); // /, /p, /p/d0..d3
}

/// Notify-batch law: across a queue drain no event is lost or duplicated.
/// An unquota'd shadow watch on the same directory observes the full
/// matched stream (`m` events); the hub's global counters must then
/// satisfy `delivered = m + received` and `dropped = m - received`, i.e.
/// every matched event is accounted exactly once as delivered-or-dropped.
#[test]
fn notify_batch_accounting_loses_and_duplicates_nothing() {
    let fs = Filesystem::new();
    let root = Credentials::root();
    fs.mkdir_all("/q", Mode::DIR_DEFAULT, &root).unwrap();

    // Unlimited watch: every matched event arrives exactly once.
    let watch = fs
        .watch("/q")
        .subtree()
        .mask(EventMask::ALL)
        .register()
        .unwrap();
    let rx = watch.receiver();
    let d0 = fs.notify().delivered_events();
    for i in 0..32 {
        fs.write_file(&format!("/q/n{i}"), b"x", &root).unwrap();
    }
    let events: Vec<_> = rx.try_iter().collect();
    assert_eq!(
        events.len() as u64,
        fs.notify().delivered_events() - d0,
        "drained a different number of events than the hub delivered"
    );
    let mut created: Vec<String> = events
        .iter()
        .filter(|e| e.kind == yanc_vfs::EventKind::Create)
        .filter_map(|e| e.name.clone())
        .collect();
    created.sort();
    let mut want: Vec<String> = (0..32).map(|i| format!("n{i}")).collect();
    want.sort();
    assert_eq!(created, want, "a create event was lost or duplicated");
    assert_eq!(fs.notify().dropped_events(), 0);
    drop(watch); // phase two accounts only its own watches

    // Quota'd watch beside a shadow: tail-dropping must still account
    // every matched event exactly once.
    let user = Credentials::user(7, 7);
    fs.chmod("/q", yanc_vfs::Mode(0o777), &root).unwrap();
    let shadow = fs.watch("/q").mask(EventMask::ALL).register().unwrap();
    let owned = fs
        .watch("/q")
        .mask(EventMask::ALL)
        .as_creds(&user)
        .register()
        .unwrap();
    fs.notify().set_queue_quota(7, Some(8));
    let (d1, x1) = (fs.notify().delivered_events(), fs.notify().dropped_events());
    for i in 0..24 {
        fs.write_file(&format!("/q/m{i}"), b"y", &root).unwrap();
    }
    let m = shadow.receiver().try_iter().count() as u64;
    let received = owned.receiver().try_iter().count() as u64;
    let delivered = fs.notify().delivered_events() - d1;
    let dropped = fs.notify().dropped_events() - x1;
    assert_eq!(received, 8, "tail-drop should cap the queue at its quota");
    assert_eq!(delivered, m + received);
    assert_eq!(dropped, m - received);
}

/// The PR 5 "hits can't widen access" law, extended to the optimistic
/// seqlock read path (E25): serving metadata without locks must never
/// serve *permissions from a dead generation*. A `chmod`/`set_acl`
/// narrowing invalidates every attribute block in the shard (the writer
/// bumped the shard seq inside its write lock), so the very next access
/// check — even one issued immediately after a warm optimistic hit —
/// re-resolves through the locked path and re-denies.
#[test]
fn optimistic_reads_cannot_widen_access_across_narrowing() {
    use yanc_vfs::{Acl, Errno, Uid};

    let fs = Filesystem::new();
    assert!(fs.readpath_enabled());
    let root = Credentials::root();
    let bob = Credentials::user(1001, 1001);
    fs.mkdir_all("/sec/d", Mode(0o755), &root).unwrap();
    fs.write_file("/sec/d/f", b"payload", &root).unwrap();

    // Warm the optimistic path as bob while access is allowed: stat is
    // served lock-free from here on.
    fs.stat("/sec/d/f", &bob).unwrap();
    let h0 = fs.readpath_stats().optimistic_hits;
    let st = fs.stat("/sec/d/f", &bob).unwrap();
    assert_eq!(st.mode, Mode(0o644));
    assert!(
        fs.readpath_stats().optimistic_hits > h0,
        "warm stat was expected to be an optimistic hit"
    );

    // chmod narrowing: the next read_file as bob must be denied, and the
    // next stat must show the narrowed mode — never 0o644 again.
    fs.chmod("/sec/d/f", Mode(0o600), &root).unwrap();
    assert_eq!(
        fs.read_file("/sec/d/f", &bob).unwrap_err().errno,
        Errno::EACCES,
        "chmod narrowing must deny immediately, warm blocks notwithstanding"
    );
    assert_eq!(fs.stat("/sec/d/f", &bob).unwrap().mode, Mode(0o600));

    // Directory-exec narrowing: a chmod on the *parent* may live in a
    // different shard than the file's attribute block, so the block can
    // still be warm — but resolution walks the parent first, and the
    // parent's dcache generation bump forces the locked, re-checked walk.
    fs.chmod("/sec/d/f", Mode(0o644), &root).unwrap();
    fs.stat("/sec/d/f", &bob).unwrap(); // re-warm
    fs.chmod("/sec/d", Mode(0o700), &root).unwrap();
    assert_eq!(
        fs.stat("/sec/d/f", &bob).unwrap_err().errno,
        Errno::EACCES,
        "parent-exec narrowing must deny a warm optimistic stat"
    );

    // ACL narrowing: grant bob explicitly, warm, then mask him out. The
    // warm hit must re-deny exactly like the locked path would.
    fs.chmod("/sec/d", Mode(0o755), &root).unwrap();
    fs.chmod("/sec/d/f", Mode(0o600), &root).unwrap();
    let mut acl = Acl::new();
    acl.set_user(Uid(1001), 0o4);
    fs.set_acl("/sec/d/f", Some(acl), &root).unwrap();
    fs.read_file("/sec/d/f", &bob).unwrap();
    fs.stat("/sec/d/f", &bob).unwrap(); // warm post-ACL block
    fs.set_acl("/sec/d/f", None, &root).unwrap();
    assert_eq!(
        fs.read_file("/sec/d/f", &bob).unwrap_err().errno,
        Errno::EACCES,
        "ACL removal must deny immediately, warm blocks notwithstanding"
    );

    // And root, of course, still passes everywhere.
    fs.read_file("/sec/d/f", &root).unwrap();
}

// ---------------------------------------------------------------------
// Topology view ≡ a fresh walk (DESIGN.md §15)
// ---------------------------------------------------------------------

/// The reference the view replaced: BFS over a fresh
/// [`YancFs::topology()`] walk, neighbours in `(port, switch)` order.
fn walk_path(y: &YancFs, from: &str, to: &str) -> yanc::YancResult<Option<Vec<(String, u16)>>> {
    use std::collections::{HashMap, HashSet, VecDeque};
    if from == to {
        return Ok(Some(Vec::new()));
    }
    let mut adj: HashMap<String, Vec<(u16, String)>> = HashMap::new();
    for (sw, port, peer_sw, _) in y.topology()? {
        adj.entry(sw).or_default().push((port, peer_sw));
    }
    for nbrs in adj.values_mut() {
        nbrs.sort();
    }
    let mut prev: HashMap<String, (String, u16)> = HashMap::new();
    let mut seen: HashSet<String> = HashSet::from([from.to_string()]);
    let mut q = VecDeque::from([from.to_string()]);
    while let Some(cur) = q.pop_front() {
        if cur == to {
            let mut hops = Vec::new();
            let mut node = to.to_string();
            while node != from {
                let (p, port) = prev[&node].clone();
                hops.push((p.clone(), port));
                node = p;
            }
            hops.reverse();
            return Ok(Some(hops));
        }
        for (port, nbr) in adj.get(&cur).cloned().unwrap_or_default() {
            if seen.insert(nbr.clone()) {
                prev.insert(nbr.clone(), (cur.clone(), port));
                q.push_back(nbr);
            }
        }
    }
    Ok(None)
}

#[derive(Debug, Clone)]
enum TopoOp {
    SetPeer(u8, u16, u8, u16),
    ClearPeer(u8, u16),
    CreatePort(u8, u16),
    CreateSwitch(u8),
    RemoveSwitch(u8),
    RenameSwitch(u8, u8),
    RenamePort(u8, u16, u16),
    /// Path `a → b`, its ingress ports, and whether `a:port` is an edge.
    Query(u8, u8, u16),
}

fn arb_topo_op() -> impl Strategy<Value = TopoOp> {
    // The selector weighs the kinds: link edits and queries dominate.
    (0u8..16, 0u8..5, 1u16..=4, 0u8..5, 1u16..=4).prop_map(|(k, a, p, b, q)| match k {
        0..=2 => TopoOp::SetPeer(a, p, b, q),
        3 | 4 => TopoOp::ClearPeer(a, p),
        5 => TopoOp::CreatePort(a, p),
        6 => TopoOp::CreateSwitch(a),
        7 => TopoOp::RemoveSwitch(a),
        8 => TopoOp::RenameSwitch(a, b),
        9 => TopoOp::RenamePort(a, p, q),
        _ => TopoOp::Query(a, b, p),
    })
}

/// How the view's owner is confined.
#[derive(Debug, Clone, Copy)]
enum ViewMode {
    /// Unconfined: every watch registers, nothing is dropped.
    Watched,
    /// A notify queue quota of 0: every event to the view is tail-dropped.
    TailDrop,
    /// A 2-watch budget: most per-switch watches fail with `EMFILE`.
    Emfile,
}

/// A line `s0 - s1 - s2 - s3` (port 2 up, port 1 down, ports 3 spare) and
/// a view over it owned by uid 7, confined per `mode`.
fn view_fixture(mode: ViewMode) -> (YancFs, yanc_apps::TopologyView) {
    let y = YancFs::init(Arc::new(Filesystem::new()), "/net").unwrap();
    for i in 0..4u64 {
        y.create_switch(&format!("s{i}"), i + 1, 0, 0, 0, 1)
            .unwrap();
        for p in 1..=3 {
            y.create_port(&format!("s{i}"), p, "02:00:00:00:00:01", 0, 0)
                .unwrap();
        }
    }
    for i in 0..3 {
        y.set_peer(&format!("s{i}"), 2, &format!("s{}", i + 1), 1)
            .unwrap();
        y.set_peer(&format!("s{}", i + 1), 1, &format!("s{i}"), 2)
            .unwrap();
    }
    let limits = match mode {
        ViewMode::Watched => AppLimits::unlimited(),
        ViewMode::TailDrop => AppLimits {
            notify_queue_max: Some(0),
            ..AppLimits::unlimited()
        },
        ViewMode::Emfile => AppLimits {
            max_watches: Some(2),
            ..AppLimits::unlimited()
        },
    };
    y.filesystem().set_app_limits(Uid(7), limits);
    let view = yanc_apps::TopologyView::new(y.with_creds(Credentials::user(7, 7)));
    (y, view)
}

fn apply_topo_op(y: &YancFs, op: &TopoOp) {
    let s = |i: u8| format!("s{i}");
    let fs = y.filesystem();
    // Ops may fail (a missing port, a name taken); the law is about the
    // view agreeing with the tree whatever state they leave.
    match *op {
        TopoOp::SetPeer(a, p, b, q) => drop(y.set_peer(&s(a), p, &s(b), q)),
        TopoOp::ClearPeer(a, p) => drop(y.clear_peer(&s(a), p)),
        TopoOp::CreatePort(a, p) => drop(y.create_port(&s(a), p, "02:00:00:00:00:02", 0, 0)),
        TopoOp::CreateSwitch(a) => drop(y.create_switch(&s(a), 0x100 + u64::from(a), 0, 0, 0, 1)),
        TopoOp::RemoveSwitch(a) => drop(y.remove_switch(&s(a))),
        TopoOp::RenameSwitch(a, b) => drop(fs.rename(
            y.switch_dir(&s(a)).as_str(),
            y.switch_dir(&s(b)).as_str(),
            y.creds(),
        )),
        TopoOp::RenamePort(a, p, q) => drop(fs.rename(
            y.port_dir(&s(a), p).as_str(),
            y.port_dir(&s(a), q).as_str(),
            y.creds(),
        )),
        TopoOp::Query(..) => {}
    }
}

/// Check one query against the fresh walk; `false` when the walk itself
/// failed (no reference to compare with).
fn view_agrees(y: &YancFs, v: &mut yanc_apps::TopologyView, a: u8, b: u8, p: u16) -> bool {
    let (from, to) = (format!("s{a}"), format!("s{b}"));
    let Ok(want) = walk_path(y, &from, &to) else {
        return false;
    };
    let got = v.shortest_path(&from, &to);
    assert_eq!(got, want, "path {from} -> {to}");
    if let Some(hops) = &got {
        let want_in: Vec<(String, u16)> = hops
            .iter()
            .filter_map(|(sw, port)| y.peer(sw, *port).unwrap())
            .collect();
        assert_eq!(v.ingress_ports(hops), want_in, "ingress along {hops:?}");
    }
    let want_edge = matches!(y.peer(&from, p), Ok(None));
    assert_eq!(v.is_edge(&from, p), want_edge, "edge-ness of {from}:{p}");
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The view never answers from a stale walk: after any interleaving of
    // link, port and switch changes (renames included), its path, ingress
    // ports and edge-ness equal a fresh BFS over `topology()` — whether
    // its watches see every event, lose them all to a queue quota, or
    // could not be registered.
    #[test]
    fn topology_view_equals_a_fresh_walk(
        ops in proptest::collection::vec(arb_topo_op(), 1..40),
        mode in prop_oneof![Just(ViewMode::Watched), Just(ViewMode::TailDrop), Just(ViewMode::Emfile)],
    ) {
        let (y, mut v) = view_fixture(mode);
        for op in &ops {
            apply_topo_op(&y, op);
            if let TopoOp::Query(a, b, p) = *op {
                view_agrees(&y, &mut v, a, b, p);
            }
        }
    }
}

/// The `IN_Q_OVERFLOW` rule, explicitly: every event to the view is
/// tail-dropped, so only the hub's drop counter says the links changed.
#[test]
fn topology_view_rewalks_after_a_tail_drop() {
    let (y, mut v) = view_fixture(ViewMode::TailDrop);
    assert!(view_agrees(&y, &mut v, 0, 3, 1));
    assert!(view_agrees(&y, &mut v, 0, 3, 1));
    assert_eq!(v.rebuilds(), 1, "nothing changed, nothing dropped");
    y.clear_peer("s1", 2).unwrap();
    assert!(y.filesystem().notify().dropped_events() > 0);
    assert!(view_agrees(&y, &mut v, 0, 3, 1));
    assert_eq!(v.shortest_path("s0", "s3"), None);
    assert_eq!(v.rebuilds(), 2);
}

/// The `EMFILE` rule, explicitly: with a watch budget too small to cover
/// every switch, the view never trusts a walk and re-walks per query.
#[test]
fn topology_view_without_its_watches_rewalks_every_query() {
    let (y, mut v) = view_fixture(ViewMode::Emfile);
    assert!(view_agrees(&y, &mut v, 0, 3, 1));
    let walks = v.rebuilds();
    y.clear_peer("s2", 2).unwrap(); // s2's ports/ is unwatched
    assert!(view_agrees(&y, &mut v, 0, 3, 1));
    assert_eq!(v.shortest_path("s0", "s3"), None);
    assert!(v.rebuilds() > walks);
    assert_eq!(y.filesystem().notify().watches_of(7), 2);
}

// ---------------------------------------------------------------------
// Batched reads ≡ per-file reads (DESIGN.md §16)
// ---------------------------------------------------------------------

/// One entry `e<i>` of the directory the batch reads from.
#[derive(Debug, Clone)]
enum BatchNode {
    /// A file: mode, owner (uid = gid), an optional named-user ACL entry.
    File(u16, u32, Option<(u32, u8)>),
    /// A directory (mode, owner) holding one file `x` (mode).
    Dir(u16, u32, u16),
    /// A symlink to this target.
    Link(&'static str),
}

/// The names a batch reads, relative to `/t/d`.
const BATCH_NAMES: [&str; 13] = [
    "e0",
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "e0/x",
    "e1/x",
    "e2/x",
    "missing",
    "../other/secret",
    "e3/../e0",
    "",
];

/// Mostly the modes a tree really holds, sometimes any nine bits.
fn arb_mode(usual: [u16; 3]) -> impl Strategy<Value = u16> {
    prop_oneof![Just(usual[0]), Just(usual[1]), Just(usual[2]), 0u16..0o1000]
}

fn arb_owner() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(1001), Just(1002)]
}

fn arb_batch_node() -> impl Strategy<Value = BatchNode> {
    prop_oneof![
        (
            arb_mode([0o644, 0o640, 0o600]),
            arb_owner(),
            proptest::option::of((prop_oneof![Just(1001u32), Just(1003)], 0u8..8)),
        )
            .prop_map(|(m, o, acl)| BatchNode::File(m, o, acl)),
        (
            arb_mode([0o755, 0o750, 0o700]),
            arb_owner(),
            arb_mode([0o644, 0o640, 0o600])
        )
            .prop_map(|(m, o, x)| BatchNode::Dir(m, o, x)),
        // Targets: siblings (possibly itself: ELOOP), through a sibling,
        // missing, and a file elsewhere reached by `..` or an absolute path.
        (0usize..12).prop_map(|i| BatchNode::Link(BATCH_NAMES[i])),
        Just(BatchNode::Link("/t/other/secret")),
    ]
}

/// `/t/d/e<i>` per `nodes` plus `/t/other/secret`, with the two
/// directories' modes and owners applied last.
fn batch_fixture(nodes: &[BatchNode], d: (u16, u32), other: u16) -> Filesystem {
    use yanc_vfs::{Acl, Gid, Uid};
    let fs = Filesystem::new();
    let root = Credentials::root();
    let own = |p: &str, uid: u32, mode: u16| {
        fs.chown(p, Some(Uid(uid)), Some(Gid(uid)), &root).unwrap();
        fs.chmod(p, Mode(mode), &root).unwrap();
    };
    fs.mkdir_all("/t/d", Mode(0o755), &root).unwrap();
    fs.mkdir_all("/t/other", Mode(0o755), &root).unwrap();
    fs.write_file("/t/other/secret", b"s3cret", &root).unwrap();
    own("/t/other/secret", 1002, 0o640);
    for (i, n) in nodes.iter().enumerate() {
        let p = format!("/t/d/e{i}");
        match n {
            BatchNode::File(mode, uid, acl) => {
                fs.write_file(&p, format!("body {i}").as_bytes(), &root)
                    .unwrap();
                own(&p, *uid, *mode);
                if let Some((who, perms)) = acl {
                    let mut a = Acl::new();
                    a.set_user(Uid(*who), *perms);
                    a.set_mask(0o7);
                    fs.set_acl(&p, Some(a), &root).unwrap();
                }
            }
            BatchNode::Dir(mode, uid, x_mode) => {
                fs.mkdir(&p, Mode(0o755), &root).unwrap();
                let x = format!("{p}/x");
                fs.write_file(&x, format!("x in {i}").as_bytes(), &root)
                    .unwrap();
                own(&x, *uid, *x_mode);
                own(&p, *uid, *mode);
            }
            BatchNode::Link(target) => fs.symlink(target, &p, &root).unwrap(),
        }
    }
    own("/t/d", d.1, d.0);
    own("/t/other", 1002, other);
    fs
}

fn batch_creds(i: usize) -> Credentials {
    match i {
        0 => Credentials::root(),
        1 => Credentials::user(1001, 1001),
        2 => Credentials::user(1002, 1002),
        3 => Credentials::user(1003, 1002), // in the group of 1002's files
        _ => Credentials::user(1004, 1004),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    // `read_batch_at` is `read_file` per entry, in one charged syscall:
    // on success the bytes are identical; on failure the errno is the
    // one `read_file` gives for the first failing entry. So a batch can
    // never return bytes `read_file` refuses for the same credentials.
    #[test]
    fn read_batch_at_equals_per_file_reads(
        nodes in proptest::collection::vec(arb_batch_node(), 2..7),
        d_mode in arb_mode([0o755, 0o751, 0o710]),
        d_owner in arb_owner(),
        other_mode in prop_oneof![Just(0o755u16), Just(0o750), Just(0o700)],
        who in 0usize..5,
        picks in proptest::collection::vec(0usize..BATCH_NAMES.len(), 0..10),
    ) {
        let fs = batch_fixture(&nodes, (d_mode, d_owner), other_mode);
        let creds = batch_creds(who);
        let rels: Vec<&str> = picks.iter().map(|&i| BATCH_NAMES[i]).collect();
        let per_file: Vec<Result<Vec<u8>, yanc_vfs::Errno>> = rels
            .iter()
            .map(|r| fs.read_file(&format!("/t/d/{r}"), &creds).map_err(|e| e.errno))
            .collect();
        // The anchor is opened as root: the law is about the entries, and
        // `/` and `/t` are traversable for everyone.
        let dir = fs.open_dir("/t/d", &Credentials::root()).unwrap();
        let before = fs.counters().snapshot();
        let batch = fs.read_batch_at(dir, &rels, &creds).map_err(|e| e.errno);
        prop_assert_eq!(fs.counters().snapshot().since(&before).total(), 1);
        let want = match per_file.iter().position(Result::is_err) {
            Some(i) => Err(per_file[i].clone().unwrap_err()),
            None => Ok(per_file.iter().map(|r| r.clone().unwrap()).collect::<Vec<_>>()),
        };
        prop_assert_eq!(batch, want, "rels {:?} as {:?}", rels, creds);
        // The entries `read_file` accepts, batched alone, read the same bytes.
        let (ok_rels, ok_bodies): (Vec<&str>, Vec<Vec<u8>>) = rels
            .iter()
            .zip(per_file)
            .filter_map(|(r, b)| Some((*r, b.ok()?)))
            .unzip();
        prop_assert_eq!(fs.read_batch_at(dir, &ok_rels, &creds).map_err(|e| e.errno), Ok(ok_bodies));
        fs.close(dir, &Credentials::root()).unwrap();
    }
}
