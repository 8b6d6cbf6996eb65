//! The topology discovery daemon (paper §4.3).
//!
//! "A topology application will handle LLDP messages for discovery and
//! create symbolic links which connect source to destination ports."
//!
//! The daemon is an ordinary yanc application: it installs an
//! LLDP-to-controller flow on every switch (through flow files), emits LLDP
//! probes through each switch's `packet_out` file, and when a probe shows
//! up as a packet-in on a neighbouring switch, records the link as a `peer`
//! symlink. Everything it knows, it knows through the file system.

use std::collections::{HashMap, HashSet, VecDeque};

use yanc::{EventSubscription, FlowSpec, YancFs};
use yanc_openflow::{port_no, Action, FlowMatch};
use yanc_packet::{EtherType, EthernetFrame, LldpPacket, MacAddr};
use yanc_vfs::{EventKind, EventMask, VPath, WatchGuard};

/// The discovery daemon.
pub struct TopologyDaemon {
    yfs: YancFs,
    sub: EventSubscription,
    /// Switches we've already provisioned with the LLDP capture flow.
    provisioned: HashSet<String>,
    /// Whether a probe round has run since start/reload (the supervised
    /// event loop probes lazily on its first slice).
    probed: bool,
    /// Links created so far (for idempotence/metrics).
    pub links_found: usize,
}

impl TopologyDaemon {
    /// Subscribe as `topod`.
    pub fn new(yfs: YancFs) -> yanc::YancResult<Self> {
        let sub = yfs.subscribe_events("topod")?;
        Ok(TopologyDaemon {
            yfs,
            sub,
            provisioned: HashSet::new(),
            probed: false,
            links_found: 0,
        })
    }

    /// Ensure every switch captures LLDP to the controller, then emit one
    /// LLDP probe out of every port of every switch.
    pub fn probe(&mut self) -> yanc::YancResult<()> {
        self.probed = true;
        for sw in self.yfs.list_switches()? {
            if !self.provisioned.contains(&sw) {
                let spec = FlowSpec {
                    m: FlowMatch {
                        dl_type: Some(EtherType::LLDP.0),
                        ..Default::default()
                    },
                    actions: vec![Action::out(port_no::CONTROLLER)],
                    priority: 65000,
                    ..Default::default()
                };
                self.yfs.write_flow(&sw, "lldp_capture", &spec)?;
                self.provisioned.insert(sw.clone());
            }
            for port in self.yfs.list_ports(&sw)? {
                let frame = yanc_packet::build_lldp(
                    MacAddr::from_seed(0x11dd_0000 | u64::from(port)),
                    &sw,
                    &port.to_string(),
                );
                let line = format!(
                    "buffer=none in_port={} out={} data={}\n",
                    port_no::NONE,
                    port,
                    yanc::hex_encode(&frame)
                );
                let path = self.yfs.switch_dir(&sw).join("packet_out");
                self.yfs.filesystem().append_file(
                    path.as_str(),
                    line.as_bytes(),
                    self.yfs.creds(),
                )?;
            }
        }
        Ok(())
    }

    /// Consume pending packet-ins; LLDP ones become `peer` symlinks.
    /// Returns whether any progress was made.
    pub fn run_once(&mut self) -> bool {
        let mut worked = false;
        for rec in self.sub.drain_all() {
            worked = true;
            let eth = match EthernetFrame::parse(&rec.data) {
                Ok(e) => e,
                Err(_) => continue,
            };
            if eth.ethertype != EtherType::LLDP {
                continue;
            }
            let lldp = match LldpPacket::parse(&eth.payload) {
                Ok(l) => l,
                Err(_) => continue,
            };
            let src_port: u16 = match lldp.port_id.parse() {
                Ok(p) => p,
                Err(_) => continue,
            };
            // The probe left (lldp.chassis_id, src_port) and arrived at
            // (rec.switch, rec.in_port): that's a link; record both ends.
            if self
                .yfs
                .set_peer(&rec.switch, rec.in_port, &lldp.chassis_id, src_port)
                .is_ok()
            {
                let _ = self
                    .yfs
                    .set_peer(&lldp.chassis_id, src_port, &rec.switch, rec.in_port);
                self.links_found += 1;
            }
        }
        worked
    }
}

impl yanc::YancApp for TopologyDaemon {
    fn name(&self) -> &str {
        "topod"
    }

    /// One supervised slice: probe lazily on the first slice after a
    /// start/restart/reload (so a resurrected daemon rediscovers the
    /// fabric), then drain packet-ins.
    fn run_once(&mut self) -> yanc::YancResult<bool> {
        if !self.probed {
            self.probe()?;
            return Ok(true);
        }
        Ok(TopologyDaemon::run_once(self))
    }

    /// Ready until the first probe has run (a restarted daemon must
    /// rediscover the fabric even with no events queued), then
    /// level-triggered on the packet-in subscription.
    fn ready(&self) -> bool {
        !self.probed || self.sub.ready()
    }

    /// `SIGHUP`: forget which switches are provisioned and re-probe.
    fn reload(&mut self) -> yanc::YancResult<()> {
        self.provisioned.clear();
        self.probed = false;
        Ok(())
    }
}

/// What a port's `peer` entry says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Peer {
    /// No `peer` symlink: a host-facing (edge) port.
    Edge,
    /// A link to `(node, port)`.
    Link(usize, u16),
    /// A `peer` symlink that does not name a port: neither an edge nor a
    /// link, so no host is learned there and no path or flood uses it.
    Malformed,
}

/// The fabric's links as of the last walk of `/net`, kept valid by notify
/// watches the way the dcache keeps resolved names valid (DESIGN.md §15).
///
/// Every query drains the watches first and walks `/net` again only when
/// something could have changed: an event on a switch directory, a port
/// directory or a `peer` link; a notify tail-drop since the last walk (a
/// lost event, inotify's `IN_Q_OVERFLOW`); or a watch that could not be
/// registered (`EMFILE`), in which case the view never trusts a walk and
/// re-walks on every query. The watches are one path watch on `switches/`
/// and one `ports/` subtree watch per switch, owned by the view's
/// credentials; flow files, counters and port config never wake it.
pub struct TopologyView {
    yfs: YancFs,
    switches_dir: VPath,
    /// Path watch on `switches/`: switches created, removed or renamed.
    switches_watch: Option<WatchGuard>,
    /// Subtree watch on each switch's `ports/`: port dirs and `peer` links.
    port_watches: HashMap<String, WatchGuard>,
    /// Node names: the listed switches in `readdir` order, then switches
    /// named by a `peer` link but absent from `switches/`.
    names: Vec<String>,
    ids: HashMap<String, usize>,
    /// Listed switches (a prefix of `names`).
    listed: usize,
    /// Per node, its ports in ascending order.
    ports: Vec<Vec<(u16, Peer)>>,
    /// Whether the last walk still describes `/net`.
    clean: bool,
    /// `dropped_events()` when the last walk started.
    dropped: u64,
    rebuilds: usize,
    malformed: usize,
}

impl TopologyView {
    /// A view over `yfs`'s fabric. Nothing is read or watched until the
    /// first query.
    pub fn new(yfs: YancFs) -> Self {
        TopologyView {
            switches_dir: yfs.switches_dir(),
            yfs,
            switches_watch: None,
            port_watches: HashMap::new(),
            names: Vec::new(),
            ids: HashMap::new(),
            listed: 0,
            ports: Vec::new(),
            clean: false,
            dropped: 0,
            rebuilds: 0,
            malformed: 0,
        }
    }

    /// Walks of `/net` so far.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// `peer` links the last walk skipped because they name no port.
    pub fn malformed_links(&self) -> usize {
        self.malformed
    }

    /// Drop the watches and the cached links: the next query walks `/net`.
    pub fn invalidate(&mut self) {
        self.switches_watch = None;
        self.port_watches.clear();
        self.clean = false;
    }

    /// Consume queued events, marking the view stale if any of them (or a
    /// tail-drop) could have changed the links. Cheap when nothing is
    /// queued; the owner calls it every slice so the queues stay short.
    pub fn drain(&mut self) {
        if self.yfs.filesystem().notify().dropped_events() != self.dropped {
            self.clean = false;
        }
        if let Some(w) = &self.switches_watch {
            if w.receiver().try_iter().count() > 0 {
                self.clean = false;
            }
        }
        for w in self.port_watches.values() {
            for ev in w.receiver().try_iter() {
                if touches_links(&self.switches_dir, &ev.path) {
                    self.clean = false;
                }
            }
        }
    }

    fn refresh(&mut self) {
        self.drain();
        if !self.clean {
            self.rebuild();
        }
    }

    /// Walk `/net` (1 + #switches `readdir`s, one `readlink` per port).
    /// Watches are registered before the walk reads what they cover, so a
    /// change racing the walk is seen by the next query.
    fn rebuild(&mut self) {
        self.rebuilds += 1;
        self.clean = true;
        let fs = self.yfs.filesystem().clone();
        self.dropped = fs.notify().dropped_events();
        // What is queued now is covered by this walk.
        for w in self.switches_watch.iter().chain(self.port_watches.values()) {
            w.receiver().try_iter().for_each(drop);
        }
        let mask = EventMask::CHILDREN
            .or(EventMask::only(EventKind::MovedFrom))
            .or(EventMask::only(EventKind::MovedTo));
        let creds = self.yfs.creds().clone();
        if self.switches_watch.is_none() {
            let dir = self.switches_dir.as_str();
            self.switches_watch = fs.watch(dir).mask(mask).as_creds(&creds).register().ok();
            self.clean &= self.switches_watch.is_some();
        }
        let switches = self.yfs.list_switches().unwrap_or_else(|_| {
            self.clean = false;
            Vec::new()
        });
        self.ids = switches
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i))
            .collect();
        self.port_watches.retain(|sw, _| self.ids.contains_key(sw));
        for sw in &switches {
            if !self.port_watches.contains_key(sw) {
                let dir = self.switches_dir.join(sw).join("ports");
                match fs
                    .watch(dir.as_str())
                    .subtree()
                    .mask(mask)
                    .as_creds(&creds)
                    .register()
                {
                    Ok(w) => {
                        self.port_watches.insert(sw.clone(), w);
                    }
                    Err(_) => self.clean = false,
                }
            }
        }
        self.listed = switches.len();
        self.names = switches;
        self.ports = vec![Vec::new(); self.listed];
        self.malformed = 0;
        for id in 0..self.listed {
            let sw = self.names[id].clone();
            let mut ports = Vec::new();
            for port in self.yfs.list_ports(&sw).unwrap_or_default() {
                let peer = match self.yfs.peer(&sw, port) {
                    Ok(None) => Peer::Edge,
                    Ok(Some((psw, pport))) => Peer::Link(self.node(psw), pport),
                    Err(_) => {
                        self.malformed += 1;
                        Peer::Malformed
                    }
                };
                ports.push((port, peer));
            }
            self.ports[id] = ports;
        }
    }

    /// The node id of `name`, adding it (with no ports) if unknown.
    fn node(&mut self, name: String) -> usize {
        if let Some(&id) = self.ids.get(&name) {
            return id;
        }
        let id = self.names.len();
        self.ids.insert(name.clone(), id);
        self.names.push(name);
        self.ports.push(Vec::new());
        id
    }

    fn peer_of(&self, sw: &str, port: u16) -> Option<Peer> {
        let ports = &self.ports[*self.ids.get(sw)?];
        let i = ports.binary_search_by_key(&port, |(p, _)| *p).ok()?;
        Some(ports[i].1)
    }

    /// BFS shortest path between two switches over the `peer` links.
    /// Returns hops as `(switch, egress port)` ending with the hop out of
    /// `to`'s predecessor — the ports that wire a path `from → … → to`.
    /// Neighbours are visited in port order, so paths are deterministic.
    /// Empty when `from == to`; `None` when `to` is unreachable.
    pub fn shortest_path(&mut self, from: &str, to: &str) -> Option<Vec<(String, u16)>> {
        if from == to {
            return Some(Vec::new());
        }
        self.refresh();
        let (&from, &to) = (self.ids.get(from)?, self.ids.get(to)?);
        let mut prev: Vec<Option<(usize, u16)>> = vec![None; self.names.len()];
        let mut seen = vec![false; self.names.len()];
        seen[from] = true;
        let mut q = VecDeque::from([from]);
        while let Some(cur) = q.pop_front() {
            if cur == to {
                let mut hops = Vec::new();
                let mut node = to;
                while let Some((p, port)) = prev[node] {
                    hops.push((self.names[p].clone(), port));
                    node = p;
                }
                hops.reverse();
                return Some(hops);
            }
            for &(port, peer) in &self.ports[cur] {
                if let Peer::Link(nbr, _) = peer {
                    if !seen[nbr] {
                        seen[nbr] = true;
                        prev[nbr] = Some((cur, port));
                        q.push_back(nbr);
                    }
                }
            }
        }
        None
    }

    /// The ingress port on each switch along a path: for consecutive hops
    /// the packet enters hop `i+1` on the peer port of hop `i`'s egress.
    /// A hop whose egress is no longer a link is skipped, so a result
    /// shorter than `hops` means the fabric changed under the path.
    pub fn ingress_ports(&mut self, hops: &[(String, u16)]) -> Vec<(String, u16)> {
        self.refresh();
        hops.iter()
            .filter_map(|(sw, port)| match self.peer_of(sw, *port)? {
                Peer::Link(id, pport) => Some((self.names[id].clone(), pport)),
                _ => None,
            })
            .collect()
    }

    /// Whether `sw:port` faces hosts: it has no `peer` symlink (a port the
    /// fabric does not list has none either). A malformed `peer` is not
    /// an edge.
    pub fn is_edge(&mut self, sw: &str, port: u16) -> bool {
        self.refresh();
        matches!(self.peer_of(sw, port), None | Some(Peer::Edge))
    }

    /// Every listed port without a `peer` symlink, switches in `readdir`
    /// order and ports ascending: where a flood toward hosts goes.
    pub fn edge_ports(&mut self) -> Vec<(String, u16)> {
        self.refresh();
        let mut out = Vec::new();
        for (name, ports) in self.names.iter().zip(&self.ports).take(self.listed) {
            for (port, peer) in ports {
                if *peer == Peer::Edge {
                    out.push((name.clone(), *port));
                }
            }
        }
        out
    }
}

/// Whether an event under `switches/<sw>/ports` can change the links: the
/// `ports` dir itself, a port dir, or a port's `peer` link.
fn touches_links(switches: &VPath, path: &VPath) -> bool {
    let Some(rel) = path.strip_prefix(switches) else {
        return true;
    };
    let comps: Vec<&str> = rel.split('/').collect();
    match comps.as_slice() {
        [_, "ports", _, last] => *last == "peer",
        [_, "ports", _, _, ..] => false,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use yanc_vfs::Filesystem;

    fn yfs_with_line(n: usize) -> YancFs {
        // line: sw0 -p2- sw1 -p2- sw2 … (port1 faces down, port2 faces up)
        let y = YancFs::init(Arc::new(Filesystem::new()), "/net").unwrap();
        for i in 0..n {
            let name = format!("s{i}");
            y.create_switch(&name, i as u64, 0, 0, 0, 1).unwrap();
            for p in 1..=3u16 {
                y.create_port(&name, p, "02:00:00:00:00:01", 0, 0).unwrap();
            }
        }
        for i in 0..n - 1 {
            y.set_peer(&format!("s{i}"), 2, &format!("s{}", i + 1), 1)
                .unwrap();
            y.set_peer(&format!("s{}", i + 1), 1, &format!("s{i}"), 2)
                .unwrap();
        }
        y
    }

    #[test]
    fn bfs_on_line() {
        let y = yfs_with_line(4);
        let mut v = TopologyView::new(y);
        let path = v.shortest_path("s0", "s3").unwrap();
        assert_eq!(
            path,
            vec![
                ("s0".to_string(), 2),
                ("s1".to_string(), 2),
                ("s2".to_string(), 2)
            ]
        );
        assert_eq!(
            v.ingress_ports(&path),
            vec![
                ("s1".to_string(), 1),
                ("s2".to_string(), 1),
                ("s3".to_string(), 1)
            ]
        );
        assert_eq!(v.shortest_path("s2", "s2").unwrap(), vec![]);
        assert!(v.is_edge("s0", 1) && !v.is_edge("s0", 2));
        assert_eq!(v.edge_ports().len(), 4 * 3 - 2 * 3);
        assert_eq!(v.rebuilds(), 1);
    }

    #[test]
    fn bfs_unreachable() {
        let y = yfs_with_line(2);
        let mut v = TopologyView::new(y.clone());
        assert!(v.shortest_path("s0", "s1").is_some());
        y.create_switch("island", 99, 0, 0, 0, 1).unwrap();
        assert_eq!(v.shortest_path("s0", "island"), None);
        assert_eq!(v.rebuilds(), 2, "a new switch invalidates the view");
    }

    #[test]
    fn bfs_picks_shorter_branch() {
        let y = yfs_with_line(3); // s0-s1-s2
        let mut v = TopologyView::new(y.clone());
        assert_eq!(v.shortest_path("s0", "s2").unwrap().len(), 2);
        // Add a direct s0<->s2 link on port 3: the view sees the new peers.
        y.set_peer("s0", 3, "s2", 3).unwrap();
        y.set_peer("s2", 3, "s0", 3).unwrap();
        let path = v.shortest_path("s0", "s2").unwrap();
        assert_eq!(path, vec![("s0".to_string(), 3)]);
        assert_eq!(v.rebuilds(), 2);
    }

    #[test]
    fn flow_and_counter_writes_do_not_invalidate() {
        let y = yfs_with_line(3);
        let mut v = TopologyView::new(y.clone());
        v.shortest_path("s0", "s2").unwrap();
        y.write_flow("s1", "f", &FlowSpec::default()).unwrap();
        y.write_counter(&y.port_dir("s1", 2), "rx_packets", 7)
            .unwrap();
        y.set_port_down("s1", 3, true).unwrap();
        v.shortest_path("s0", "s2").unwrap();
        assert_eq!(v.rebuilds(), 1);
        y.create_port("s1", 4, "02:00:00:00:00:04", 0, 0).unwrap();
        assert!(v.is_edge("s1", 4));
        assert_eq!(v.rebuilds(), 2);
    }

    #[test]
    fn malformed_peer_is_skipped_and_counted() {
        // The schema hook refuses such a `peer` at symlink time; a rename
        // puts one in place anyway.
        let y = yfs_with_line(3);
        let dir = y.port_dir("s2", 3);
        let fs = y.filesystem();
        fs.symlink("/nowhere", dir.join("peer.new").as_str(), y.creds())
            .unwrap();
        fs.rename(
            dir.join("peer.new").as_str(),
            dir.join("peer").as_str(),
            y.creds(),
        )
        .unwrap();
        assert!(y.topology().is_err());
        let mut v = TopologyView::new(y);
        assert_eq!(v.shortest_path("s0", "s2").unwrap().len(), 2);
        assert_eq!(v.malformed_links(), 1);
        assert!(!v.is_edge("s2", 3), "a malformed peer is not an edge");
        assert!(!v.edge_ports().contains(&("s2".to_string(), 3)));
    }
}
