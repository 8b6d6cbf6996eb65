//! A single-process runtime wiring the simulated network, the yanc file
//! system and one driver per switch, with deterministic pumping.
//!
//! Examples, tests and benchmarks all use this: build a topology, attach
//! drivers, then alternate `pump()` (deliver frames, run drivers) until
//! quiescent. Applications remain plain file-system programs — they never
//! see the runtime.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use yanc::{YancError, YancFs, YancResult};
use yanc_dataplane::Network;
use yanc_openflow::Version;
use yanc_vfs::{Errno, Filesystem, PollSet};

use crate::driver::{DriverReadiness, DriverState, OpenFlowDriver};

/// Atomic mirror of [`yanc_dataplane::NetStats`], refreshed at the end of
/// every [`Runtime::pump`] so proc render closures (which cannot borrow the
/// mutably-owned `Network`) read consistent figures. Shared with the
/// parallel executor ([`crate::par::ParRuntime`]), which has the same
/// borrow problem on its coordinator thread.
#[derive(Debug, Default)]
pub(crate) struct SharedNetStats {
    frames_delivered: AtomicU64,
    control_deliveries: AtomicU64,
    events: AtomicU64,
}

impl SharedNetStats {
    /// Refresh the mirror from the network's live counters.
    pub(crate) fn sync_from(&self, s: &yanc_dataplane::NetStats) {
        self.frames_delivered
            .store(s.frames_delivered, Ordering::Relaxed);
        self.control_deliveries
            .store(s.control_deliveries, Ordering::Relaxed);
        self.events.store(s.events, Ordering::Relaxed);
    }

    /// Expose the mirror under `<proc>/dataplane/{events,frames_delivered,
    /// control_deliveries}`.
    pub(crate) fn register_proc(self: &Arc<Self>, yfs: &YancFs) -> yanc::YancResult<()> {
        let base = yfs.proc_dir().join("dataplane");
        let fs = yfs.filesystem();
        type Getter = fn(&SharedNetStats) -> &AtomicU64;
        let counters: [(&str, Getter); 3] = [
            ("events", |s| &s.events),
            ("frames_delivered", |s| &s.frames_delivered),
            ("control_deliveries", |s| &s.control_deliveries),
        ];
        for (file, get) in counters {
            let st = self.clone();
            fs.proc_file(base.join(file).as_str(), move || {
                format!("{}\n", get(&st).load(Ordering::Relaxed))
            })?;
        }
        Ok(())
    }
}

/// Scheduler counters for the event-driven pump, rendered at
/// `/net/.proc/driver/sched` (same discipline as the supervisor's
/// skip-non-ready app scheduling): how often drivers were dispatched vs
/// skipped, and how many whole pumps found nothing to do at all.
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Ready drivers dispatched (`run_once` called).
    pub runs: AtomicU64,
    /// Drivers skipped because their readiness probe reported no work.
    pub skips: AtomicU64,
    /// `pump()` calls that found a fully idle system: zero iterations,
    /// zero driver sweeps — the idle-fabric-costs-nothing guarantee.
    pub idle_pumps: AtomicU64,
    /// Poll-set rebuilds after the driver set changed.
    pub rebuilds: AtomicU64,
}

impl SchedStats {
    pub(crate) fn render(&self) -> String {
        format!(
            "runs {}\nskips {}\nidle_pumps {}\nrebuilds {}\n",
            self.runs.load(Ordering::Relaxed),
            self.skips.load(Ordering::Relaxed),
            self.idle_pumps.load(Ordering::Relaxed),
            self.rebuilds.load(Ordering::Relaxed),
        )
    }
}

/// Poll-set bookkeeping shared by the serial [`Runtime`] and the parallel
/// [`crate::par::ParRuntime`]: one readiness probe per driver registered
/// in a vfs poll set, plus the token→driver-index map a scan needs to
/// attribute readiness back to drivers.
///
/// The identity check runs **every sweep**, not just at pump entry: a
/// driver attached mid-pump (a reattach fired from a worker thread, a
/// staged test injection) shifts or extends the driver vector, and a
/// poll set built at pump entry would keep reporting through the *old*
/// token map — at best attributing readiness to the wrong driver, at
/// worst dropping the new driver's edge entirely so the pump quiesces
/// with work still queued. Re-checking per sweep is free when nothing
/// changed (length compare + pairwise `Arc::ptr_eq`).
pub(crate) struct PollBook {
    poll: Option<PollSet>,
    probes: Vec<Arc<DriverReadiness>>,
    index: HashMap<u64, usize>,
}

impl PollBook {
    pub(crate) fn new() -> Self {
        PollBook {
            poll: None,
            probes: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Rebuild iff the driver set changed since the last call (detected by
    /// probe identity, not tracked by mutation — callers mutate driver
    /// vectors directly). Counted in [`SchedStats::rebuilds`].
    pub(crate) fn refresh(
        &mut self,
        yfs: &YancFs,
        probes: Vec<Arc<DriverReadiness>>,
        dpids: &[u64],
        sched: &SchedStats,
    ) {
        let unchanged = self.poll.is_some()
            && self.probes.len() == probes.len()
            && probes
                .iter()
                .zip(&self.probes)
                .all(|(a, b)| Arc::ptr_eq(a, b));
        if unchanged {
            return;
        }
        let poll = yfs.filesystem().poll_create(yfs.creds());
        self.index.clear();
        for (i, (p, dpid)) in probes.iter().zip(dpids).enumerate() {
            let p = p.clone();
            let token = poll.add_probe(&format!("driver/dpid{dpid:x}"), move || p.pending());
            self.index.insert(token.0, i);
        }
        self.probes = probes;
        self.poll = Some(poll);
        sched.rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// One free readiness scan: `ready[i]` is whether driver `i` has
    /// queued work. The scan rotates the poll set's fairness cursor but
    /// the result is index-addressed, so dispatch order stays the
    /// driver-vector order — deterministic across runs.
    pub(crate) fn scan(&self, n_drivers: usize) -> Vec<bool> {
        let mut ready = vec![false; n_drivers];
        if let Some(p) = &self.poll {
            for ev in p.poll_ready(n_drivers) {
                if let Some(&i) = self.index.get(&ev.token.0) {
                    if i < n_drivers {
                        ready[i] = true;
                    }
                }
            }
        }
        ready
    }
}

/// Network + file system + drivers, pumped together.
pub struct Runtime {
    /// The simulated network.
    pub net: Network,
    /// Per-switch drivers.
    pub drivers: Vec<OpenFlowDriver>,
    /// The yanc file tree.
    pub yfs: YancFs,
    shared_stats: Arc<SharedNetStats>,
    sched: Arc<SchedStats>,
    /// Readiness sources for the current driver set: one probe per driver
    /// in a vfs poll set, scanned free per sweep (the kernel walking its
    /// run queue). Rebuilt whenever the driver set changes.
    book: PollBook,
}

impl Runtime {
    /// A fresh runtime with an empty network and an initialized `/net`.
    pub fn new() -> Self {
        let fs = Arc::new(Filesystem::new());
        let yfs = YancFs::init(fs, "/net").expect("init /net");
        Runtime {
            net: Network::new(),
            drivers: Vec::new(),
            yfs,
            shared_stats: Arc::new(SharedNetStats::default()),
            sched: Arc::new(SchedStats::default()),
            book: PollBook::new(),
        }
    }

    /// A runtime sharing an existing filesystem (for namespace / DFS
    /// experiments where several runtimes see one tree).
    pub fn with_fs(fs: Arc<Filesystem>) -> Self {
        let yfs = YancFs::init(fs, "/net").expect("init /net");
        Runtime {
            net: Network::new(),
            drivers: Vec::new(),
            yfs,
            shared_stats: Arc::new(SharedNetStats::default()),
            sched: Arc::new(SchedStats::default()),
            book: PollBook::new(),
        }
    }

    /// The event-driven scheduler's counters (also rendered at
    /// `/net/.proc/driver/sched` once introspection is on).
    pub fn sched_stats(&self) -> Arc<SchedStats> {
        self.sched.clone()
    }

    /// Mount `/net/.proc` (via [`YancFs::enable_introspection`]) and expose
    /// dataplane aggregates plus per-driver state beneath it. Drivers that
    /// attach later register themselves as part of their handshake.
    pub fn enable_introspection(&mut self) -> yanc::YancResult<()> {
        self.yfs.enable_introspection()?;
        self.shared_stats.register_proc(&self.yfs)?;
        let sched = self.sched.clone();
        self.yfs.filesystem().proc_file(
            self.yfs.proc_dir().join("driver").join("sched").as_str(),
            move || sched.render(),
        )?;
        self.sync_shared_stats();
        for d in &self.drivers {
            d.register_proc();
        }
        Ok(())
    }

    fn sync_shared_stats(&self) {
        self.shared_stats.sync_from(&self.net.stats);
    }

    /// Add a switch to the network and attach a driver speaking
    /// `driver_version`. Returns the yanc switch name (`sw<dpid:hex>`).
    pub fn add_switch_with_driver(
        &mut self,
        dpid: u64,
        n_ports: u16,
        n_tables: u8,
        switch_versions: Vec<Version>,
        driver_version: Version,
    ) -> String {
        let name = format!("sw{dpid:x}");
        self.net
            .add_switch(dpid, &name, n_ports, n_tables, switch_versions);
        let handle = self.net.attach_controller(dpid);
        self.drivers.push(OpenFlowDriver::new(
            driver_version,
            self.yfs.clone(),
            handle,
        ));
        name
    }

    /// Re-attach a switch to a fresh driver (protocol upgrade, §4.1): the
    /// old driver is dropped, the switch re-handshakes.
    pub fn swap_driver(&mut self, dpid: u64, driver_version: Version) {
        self.drivers
            .retain(|d| d.switch_name.as_deref() != Some(format!("sw{dpid:x}").as_str()));
        self.net.detach_controller(dpid);
        let handle = self.net.attach_controller(dpid);
        self.drivers.push(OpenFlowDriver::new(
            driver_version,
            self.yfs.clone(),
            handle,
        ));
    }

    /// Drivers currently in [`DriverState::Failed`], as
    /// `(dpid, version offered by the switch)` pairs.
    pub fn failed_drivers(&self) -> Vec<(u64, Option<u8>)> {
        self.drivers
            .iter()
            .filter(|d| d.state() == DriverState::Failed)
            .map(|d| (d.dpid(), d.offered_version()))
            .collect()
    }

    /// Supervised recovery from failed version negotiation: detach every
    /// [`DriverState::Failed`] driver and attach a replacement speaking the
    /// best version we implement that the switch offered (the switch then
    /// re-handshakes and the new driver resyncs fs flows, counted in its
    /// `resyncs`). Returns the number of re-attachments; a switch whose
    /// offer we cannot satisfy stays failed.
    pub fn reattach_failed(&mut self) -> usize {
        let mut reattached = 0;
        for (dpid, offered) in self.failed_drivers() {
            let offered = match offered {
                Some(v) => v,
                None => continue,
            };
            let version = if offered >= Version::V1_3.wire() {
                Version::V1_3
            } else if offered >= Version::V1_0.wire() {
                Version::V1_0
            } else {
                continue;
            };
            self.drivers
                .retain(|d| !(d.dpid() == dpid && d.state() == DriverState::Failed));
            self.net.detach_controller(dpid);
            let handle = self.net.attach_controller(dpid);
            self.drivers
                .push(OpenFlowDriver::new(version, self.yfs.clone(), handle));
            reattached += 1;
        }
        reattached
    }

    /// Schedule a deterministic control-channel fault on `dpid`'s driver
    /// (frames dropped / pair reordered on its next `run_once`). Returns
    /// whether a driver for that dpid exists.
    pub fn inject_channel_fault(&mut self, dpid: u64, drop_frames: u32, reorder: bool) -> bool {
        let mut hit = false;
        for d in &mut self.drivers {
            if d.dpid() == dpid {
                d.inject_channel_fault(drop_frames, reorder);
                hit = true;
            }
        }
        hit
    }

    /// Rebuild the readiness poll set iff the driver set changed since the
    /// last sweep (tests mutate `drivers` directly, so this is detected by
    /// identity, not tracked by mutation). One probe per driver; the set
    /// registers in the vfs pollset registry like any app's.
    fn refresh_poll(&mut self) {
        let probes: Vec<Arc<DriverReadiness>> =
            self.drivers.iter().map(|d| d.readiness()).collect();
        let dpids: Vec<u64> = self.drivers.iter().map(|d| d.dpid()).collect();
        self.book.refresh(&self.yfs, probes, &dpids, &self.sched);
    }

    /// Pump network and drivers until nothing moves, event-driven: each
    /// sweep dispatches only drivers whose readiness probes report queued
    /// work (free scans — the kernel consulting its run queue), and a
    /// fully idle system costs **zero** iterations. Scheduling decisions
    /// are counted in [`SchedStats`] / `/net/.proc/driver/sched`.
    ///
    /// The poll-set identity check runs per sweep, not per pump: drivers
    /// attached while the pump is in flight (supervised reattach, a test's
    /// staged injection) get their readiness edges scanned on the very
    /// next sweep instead of being silently dropped until the next pump.
    ///
    /// Returns the number of sweeps, or a `Busy` (`EAGAIN`) error if the
    /// system fails to quiesce within a budget that scales with the
    /// driver count — mutually-feeding drivers are reported, not panicked
    /// over.
    pub fn pump(&mut self) -> YancResult<u32> {
        let mut iterations: u32 = 0;
        loop {
            self.refresh_poll();
            let budget = 10_000 + 64 * self.drivers.len() as u64;
            let net_events = if self.net.pending_events() > 0 {
                self.net.pump()
            } else {
                0
            };
            // Scan *after* the network moved: frames it just delivered
            // make drivers ready in this sweep, not the next.
            let ready = self.book.scan(self.drivers.len());
            if net_events == 0 && !ready.iter().any(|&r| r) {
                if iterations == 0 {
                    self.sched.idle_pumps.fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
            for (i, d) in self.drivers.iter_mut().enumerate() {
                if ready[i] {
                    self.sched.runs.fetch_add(1, Ordering::Relaxed);
                    d.run_once();
                } else {
                    self.sched.skips.fetch_add(1, Ordering::Relaxed);
                }
            }
            iterations += 1;
            if u64::from(iterations) >= budget {
                self.sync_shared_stats();
                return Err(YancError::busy(
                    Errno::EAGAIN,
                    "runtime failed to quiesce within its sweep budget",
                ));
            }
        }
        self.sync_shared_stats();
        Ok(iterations)
    }

    /// Advance virtual time (expiring flow timeouts) and pump.
    pub fn advance(&mut self, seconds: u64) -> YancResult<u32> {
        self.net.advance(seconds);
        self.pump()
    }

    /// Ask every driver to refresh stats counters, then pump.
    pub fn poll_stats(&mut self) -> YancResult<u32> {
        for d in &mut self.drivers {
            d.poll_stats();
        }
        self.pump()
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl crate::ControlRuntime for Runtime {
    fn yfs(&self) -> &YancFs {
        &self.yfs
    }

    fn network(&mut self) -> &mut Network {
        &mut self.net
    }

    fn add_switch_with_driver(
        &mut self,
        dpid: u64,
        n_ports: u16,
        n_tables: u8,
        switch_versions: Vec<Version>,
        driver_version: Version,
    ) -> String {
        Runtime::add_switch_with_driver(
            self,
            dpid,
            n_ports,
            n_tables,
            switch_versions,
            driver_version,
        )
    }

    fn pump(&mut self) -> YancResult<u32> {
        Runtime::pump(self)
    }

    fn advance(&mut self, seconds: u64) -> YancResult<u32> {
        Runtime::advance(self, seconds)
    }

    fn poll_stats(&mut self) -> YancResult<u32> {
        Runtime::poll_stats(self)
    }

    fn reattach_failed(&mut self) -> usize {
        Runtime::reattach_failed(self)
    }

    fn inject_channel_fault(&mut self, dpid: u64, drop_frames: u32, reorder: bool) -> bool {
        Runtime::inject_channel_fault(self, dpid, drop_frames, reorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use yanc::{FlowSpec, PacketInRecord};
    use yanc_openflow::{port_no, Action, FlowMatch};

    fn ip(s: &str) -> std::net::Ipv4Addr {
        s.parse().unwrap()
    }

    fn two_host_rt(version: Version) -> (Runtime, String, u64, u64) {
        let mut rt = Runtime::new();
        let name = rt.add_switch_with_driver(0xa, 4, 2, vec![version], version);
        let h1 = rt.net.add_host("h1", ip("10.0.0.1"));
        let h2 = rt.net.add_host("h2", ip("10.0.0.2"));
        rt.net.attach_host(h1, (0xa, 1), None);
        rt.net.attach_host(h2, (0xa, 2), None);
        rt.pump().unwrap();
        (rt, name, h1, h2)
    }

    #[test]
    fn handshake_materializes_switch_in_fs() {
        for v in [Version::V1_0, Version::V1_3] {
            let (rt, name, _, _) = two_host_rt(v);
            assert_eq!(name, "swa");
            assert!(rt.drivers[0].ready());
            assert_eq!(rt.yfs.list_switches().unwrap(), vec!["swa"]);
            assert_eq!(rt.yfs.switch_dpid("swa").unwrap(), 0xa);
            // Ports materialized in both protocol flavours.
            assert_eq!(rt.yfs.list_ports("swa").unwrap(), vec![1, 2, 3, 4]);
            // Protocol recorded.
            let proto = rt
                .yfs
                .filesystem()
                .read_to_string("/net/switches/swa/protocol", rt.yfs.creds())
                .unwrap();
            assert_eq!(proto, v.to_string());
        }
    }

    #[test]
    fn flow_written_to_fs_reaches_switch_and_forwards() {
        let (mut rt, name, h1, _h2) = two_host_rt(Version::V1_0);
        let spec = FlowSpec {
            m: FlowMatch::any(),
            actions: vec![Action::out(port_no::FLOOD)],
            ..Default::default()
        };
        rt.yfs.write_flow(&name, "flood", &spec).unwrap();
        rt.pump().unwrap();
        assert_eq!(rt.net.switches[&0xa].flow_count(), 1);
        rt.net.host_ping(h1, ip("10.0.0.2"), 1);
        rt.pump().unwrap();
        assert_eq!(rt.net.hosts[&h1].ping_replies, vec![(ip("10.0.0.2"), 1)]);
    }

    #[test]
    fn uncommitted_flow_not_installed_until_version_bump() {
        let (mut rt, name, _h1, _h2) = two_host_rt(Version::V1_3);
        // Write field files WITHOUT committing (mkdir creates version=0).
        let fs = rt.yfs.filesystem().clone();
        let creds = rt.yfs.creds().clone();
        fs.mkdir(
            "/net/switches/swa/flows/partial",
            yanc_vfs::Mode::DIR_DEFAULT,
            &creds,
        )
        .unwrap();
        fs.write_file(
            "/net/switches/swa/flows/partial/match.dl_type",
            b"0x0800",
            &creds,
        )
        .unwrap();
        fs.write_file(
            "/net/switches/swa/flows/partial/action.out",
            b"flood",
            &creds,
        )
        .unwrap();
        rt.pump().unwrap();
        assert_eq!(
            rt.net.switches[&0xa].flow_count(),
            0,
            "no commit, no install"
        );
        // Commit: bump version.
        fs.write_file("/net/switches/swa/flows/partial/version", b"1", &creds)
            .unwrap();
        rt.pump().unwrap();
        assert_eq!(rt.net.switches[&0xa].flow_count(), 1);
        let _ = name;
    }

    #[test]
    fn flow_delete_removes_from_switch() {
        let (mut rt, name, _h1, _h2) = two_host_rt(Version::V1_0);
        let spec = FlowSpec {
            m: FlowMatch {
                tp_dst: Some(22),
                ..Default::default()
            },
            actions: vec![Action::out(2)],
            priority: 77,
            ..Default::default()
        };
        rt.yfs.write_flow(&name, "ssh", &spec).unwrap();
        rt.pump().unwrap();
        assert_eq!(rt.net.switches[&0xa].flow_count(), 1);
        rt.yfs.delete_flow(&name, "ssh").unwrap();
        rt.pump().unwrap();
        assert_eq!(rt.net.switches[&0xa].flow_count(), 0);
    }

    #[test]
    fn flow_deleted_and_rewritten_within_one_batch_is_installed() {
        // One drained batch holds the first commit, the Delete and the
        // second commit. The Delete removes the entry the first sync
        // installed, so the second commit must sync again.
        let (mut rt, name, _h1, _h2) = two_host_rt(Version::V1_0);
        let spec = |tp_dst| FlowSpec {
            m: FlowMatch {
                tp_dst: Some(tp_dst),
                ..Default::default()
            },
            actions: vec![Action::out(2)],
            priority: 77,
            ..Default::default()
        };
        rt.yfs.write_flow(&name, "ssh", &spec(22)).unwrap();
        rt.yfs.delete_flow(&name, "ssh").unwrap();
        rt.yfs.write_flow(&name, "ssh", &spec(2222)).unwrap();
        rt.pump().unwrap();
        let table = rt.net.switches[&0xa].table(0).unwrap();
        let installed: Vec<Option<u16>> = table.iter().map(|e| e.m.tp_dst).collect();
        assert_eq!(installed, vec![Some(2222)]);
    }

    #[test]
    fn packet_in_lands_in_event_buffers() {
        let (mut rt, _name, h1, _h2) = two_host_rt(Version::V1_3);
        let sub = rt.yfs.subscribe_events("router").unwrap();
        rt.net.host_ping(h1, ip("10.0.0.2"), 1); // table miss
        rt.pump().unwrap();
        let pkts: Vec<PacketInRecord> = sub.drain_all();
        assert!(!pkts.is_empty());
        assert_eq!(pkts[0].switch, "swa");
        assert_eq!(pkts[0].in_port, 1);
        assert_eq!(pkts[0].reason, "no_match");
    }

    #[test]
    fn port_down_file_write_reaches_switch() {
        let (mut rt, name, _h1, _h2) = two_host_rt(Version::V1_0);
        rt.yfs.set_port_down(&name, 2, true).unwrap();
        rt.pump().unwrap();
        assert!(rt.net.switches[&0xa].ports[&2].config_down);
        rt.yfs.set_port_down(&name, 2, false).unwrap();
        rt.pump().unwrap();
        assert!(!rt.net.switches[&0xa].ports[&2].config_down);
    }

    #[test]
    fn goto_table_flow_errors_on_v10_driver_but_works_on_v13() {
        // The capability difference the paper's driver section promises.
        let (mut rt, name, _h1, _h2) = two_host_rt(Version::V1_0);
        let spec = FlowSpec {
            m: FlowMatch::any(),
            goto_table: Some(1),
            ..Default::default()
        };
        rt.yfs.write_flow(&name, "multi", &spec).unwrap();
        rt.pump().unwrap();
        assert_eq!(rt.net.switches[&0xa].flow_count(), 0);
        let err = rt
            .yfs
            .filesystem()
            .read_to_string("/net/switches/swa/flows/multi/error", rt.yfs.creds())
            .unwrap();
        assert!(err.contains("goto_table"), "error file explains: {err}");

        let (mut rt13, name13, _h1, _h2) = two_host_rt(Version::V1_3);
        rt13.yfs.write_flow(&name13, "multi", &spec).unwrap();
        rt13.pump().unwrap();
        assert_eq!(rt13.net.switches[&0xa].flow_count(), 1);
        assert!(!rt13
            .yfs
            .filesystem()
            .exists("/net/switches/swa/flows/multi/error", rt13.yfs.creds()));
    }

    #[test]
    fn flow_timeout_removes_fs_directory() {
        let (mut rt, name, _h1, _h2) = two_host_rt(Version::V1_3);
        let spec = FlowSpec {
            m: FlowMatch::any(),
            actions: vec![Action::out(2)],
            hard_timeout: 5,
            ..Default::default()
        };
        rt.yfs.write_flow(&name, "temp", &spec).unwrap();
        rt.pump().unwrap();
        assert_eq!(rt.net.switches[&0xa].flow_count(), 1);
        assert!(rt
            .yfs
            .list_flows(&name)
            .unwrap()
            .contains(&"temp".to_string()));
        rt.advance(10).unwrap();
        assert_eq!(rt.net.switches[&0xa].flow_count(), 0);
        assert!(
            rt.yfs.list_flows(&name).unwrap().is_empty(),
            "FlowRemoved cleaned the fs"
        );
    }

    #[test]
    fn stats_polling_fills_counters() {
        let (mut rt, name, h1, _h2) = two_host_rt(Version::V1_0);
        let spec = FlowSpec {
            m: FlowMatch::any(),
            actions: vec![Action::out(port_no::FLOOD)],
            ..Default::default()
        };
        rt.yfs.write_flow(&name, "flood", &spec).unwrap();
        rt.pump().unwrap();
        rt.net.host_ping(h1, ip("10.0.0.2"), 1);
        rt.pump().unwrap();
        rt.poll_stats().unwrap();
        let port_dir = rt.yfs.port_dir(&name, 1);
        assert!(rt.yfs.read_counter(&port_dir, "rx_packets") > 0);
        let flow_dir = rt.yfs.flow_dir(&name, "flood");
        assert!(rt.yfs.read_counter(&flow_dir, "packets") > 0);
    }

    #[test]
    fn packet_out_file_interface() {
        let (mut rt, name, _h1, h2) = two_host_rt(Version::V1_0);
        // Craft a frame and packet-out it via the file interface.
        let frame = yanc_packet::build_udp(
            yanc_packet::MacAddr::from_seed(99),
            rt.net.hosts[&h2].mac,
            ip("10.0.0.9"),
            ip("10.0.0.2"),
            1234,
            5678,
            Bytes::from_static(b"hello"),
        );
        let line = format!(
            "buffer=none in_port=controller out=2 data={}\n",
            yanc::hex_encode(&frame)
        );
        // Fix in_port token: numeric required.
        let line = line.replace(
            "in_port=controller",
            &format!("in_port={}", port_no::CONTROLLER),
        );
        rt.yfs
            .filesystem()
            .append_file(
                &format!("/net/switches/{name}/packet_out"),
                line.as_bytes(),
                rt.yfs.creds(),
            )
            .unwrap();
        rt.pump().unwrap();
        assert_eq!(rt.net.hosts[&h2].udp_received.len(), 1);
        assert_eq!(rt.net.hosts[&h2].udp_received[0].dst_port, 5678);
    }

    #[test]
    fn live_protocol_upgrade() {
        // E6: a switch is upgraded 1.0 → 1.3 under the same fs tree; flows
        // written to the fs keep flowing after the swap.
        let mut rt = Runtime::new();
        let name = rt.add_switch_with_driver(0xb, 2, 2, vec![Version::V1_0], Version::V1_0);
        rt.pump().unwrap();
        assert!(rt.drivers[0].ready());
        let spec = FlowSpec {
            m: FlowMatch::any(),
            actions: vec![Action::out(2)],
            ..Default::default()
        };
        rt.yfs.write_flow(&name, "f", &spec).unwrap();
        rt.pump().unwrap();
        assert_eq!(rt.net.switches[&0xb].flow_count(), 1);

        // Firmware upgrade: switch now speaks both, re-attach a 1.3 driver.
        rt.net
            .switches
            .get_mut(&0xb)
            .unwrap()
            .set_supported(vec![Version::V1_0, Version::V1_3]);
        rt.swap_driver(0xb, Version::V1_3);
        rt.pump().unwrap();
        let d = rt.drivers.last().unwrap();
        assert!(d.ready());
        assert_eq!(d.version, Version::V1_3);
        assert_eq!(rt.net.switches[&0xb].negotiated(), Some(Version::V1_3));
        // The new driver re-synced the existing fs flows into the switch.
        assert_eq!(rt.net.switches[&0xb].flow_count(), 1);
        // And multi-table flows now work.
        let multi = FlowSpec {
            m: FlowMatch::any(),
            goto_table: Some(1),
            priority: 9,
            ..Default::default()
        };
        rt.yfs.write_flow(&name, "multi", &multi).unwrap();
        rt.pump().unwrap();
        assert_eq!(rt.net.switches[&0xb].flow_count(), 2);
        // The fs shows the new protocol.
        let proto = rt
            .yfs
            .filesystem()
            .read_to_string("/net/switches/swb/protocol", rt.yfs.creds())
            .unwrap();
        assert_eq!(proto, "OpenFlow 1.3");
    }

    #[test]
    fn introspection_exposes_driver_and_dataplane_state() {
        let (mut rt, name, h1, _h2) = two_host_rt(Version::V1_0);
        rt.enable_introspection().unwrap();
        let spec = FlowSpec {
            m: FlowMatch::any(),
            actions: vec![Action::out(port_no::FLOOD)],
            ..Default::default()
        };
        rt.yfs.write_flow(&name, "flood", &spec).unwrap();
        rt.pump().unwrap();
        rt.net.host_ping(h1, ip("10.0.0.2"), 1);
        rt.pump().unwrap();
        let read = |p: &str| {
            rt.yfs
                .filesystem()
                .read_to_string(p, rt.yfs.creds())
                .unwrap()
                .trim()
                .to_string()
        };
        assert_eq!(read("/net/.proc/drivers/swa/protocol"), "OpenFlow 1.0");
        assert_eq!(read("/net/.proc/drivers/swa/ready"), "1");
        assert_eq!(
            read("/net/.proc/drivers/swa/flow_mods")
                .parse::<u64>()
                .unwrap(),
            rt.drivers[0]
                .stats()
                .flow_mods
                .load(std::sync::atomic::Ordering::Relaxed)
        );
        assert!(
            read("/net/.proc/drivers/swa/msgs_tx")
                .parse::<u64>()
                .unwrap()
                > 0
        );
        assert!(read("/net/.proc/drivers/swa/rtt").contains("count="));
        assert!(
            read("/net/.proc/dataplane/events").parse::<u64>().unwrap() > 0,
            "pump() mirrors NetStats into the proc tree"
        );
        assert_eq!(
            read("/net/.proc/dataplane/frames_delivered")
                .parse::<u64>()
                .unwrap(),
            rt.net.stats.frames_delivered
        );
    }

    #[test]
    fn idle_pump_costs_zero_iterations() {
        let (mut rt, _name, _h1, _h2) = two_host_rt(Version::V1_0);
        rt.pump().unwrap(); // quiesce fully
        let sched = rt.sched_stats();
        let idle_before = sched.idle_pumps.load(Ordering::Relaxed);
        let runs_before = sched.runs.load(Ordering::Relaxed);
        let sweeps = rt.pump().unwrap();
        assert_eq!(sweeps, 0, "idle system must cost zero sweeps");
        assert_eq!(sched.idle_pumps.load(Ordering::Relaxed), idle_before + 1);
        assert_eq!(
            sched.runs.load(Ordering::Relaxed),
            runs_before,
            "no driver dispatched on an idle pump"
        );
    }

    #[test]
    fn sched_counters_render_in_proc() {
        let (mut rt, name, h1, _h2) = two_host_rt(Version::V1_0);
        rt.enable_introspection().unwrap();
        rt.yfs
            .write_flow(
                &name,
                "flood",
                &FlowSpec {
                    m: FlowMatch::any(),
                    actions: vec![Action::out(port_no::FLOOD)],
                    ..Default::default()
                },
            )
            .unwrap();
        rt.pump().unwrap();
        rt.net.host_ping(h1, ip("10.0.0.2"), 1);
        rt.pump().unwrap();
        rt.pump().unwrap(); // one guaranteed idle pump
        let text = rt
            .yfs
            .filesystem()
            .read_to_string("/net/.proc/driver/sched", rt.yfs.creds())
            .unwrap();
        let field = |k: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(k).map(|v| v.trim().parse().unwrap()))
                .unwrap_or_else(|| panic!("{k} missing from {text}"))
        };
        assert!(field("runs ") > 0, "{text}");
        assert!(field("idle_pumps ") > 0, "{text}");
        assert!(field("rebuilds ") > 0, "{text}");
    }

    #[test]
    fn segmented_stats_reassemble_and_land() {
        // Force every stats reply into 1-entry multipart segments: the
        // driver must reassemble the stream before landing counters.
        let (mut rt, name, h1, _h2) = two_host_rt(Version::V1_3);
        rt.net.switches.get_mut(&0xa).unwrap().set_stats_page(1);
        rt.yfs
            .write_flow(
                &name,
                "flood",
                &FlowSpec {
                    m: FlowMatch::any(),
                    actions: vec![Action::out(port_no::FLOOD)],
                    ..Default::default()
                },
            )
            .unwrap();
        rt.pump().unwrap();
        rt.net.host_ping(h1, ip("10.0.0.2"), 1);
        rt.pump().unwrap();
        rt.poll_stats().unwrap();
        // All four ports' stats arrived as four REPLY_MORE-chained parts
        // and still landed: per-port counters exist for every port.
        for p in 1..=4u16 {
            let dir = rt.yfs.port_dir(&name, p);
            assert!(
                rt.yfs.filesystem().exists(
                    dir.join("counters").join("rx_packets").as_str(),
                    rt.yfs.creds()
                ),
                "port {p} counters missing"
            );
        }
        let port_dir = rt.yfs.port_dir(&name, 1);
        assert!(rt.yfs.read_counter(&port_dir, "rx_packets") > 0);
        let flow_dir = rt.yfs.flow_dir(&name, "flood");
        assert!(rt.yfs.read_counter(&flow_dir, "packets") > 0);
    }

    #[test]
    fn wrong_version_driver_fails_cleanly() {
        let mut rt = Runtime::new();
        // Switch speaks only 1.0; driver insists on 1.3.
        rt.add_switch_with_driver(0xc, 2, 1, vec![Version::V1_0], Version::V1_3);
        rt.pump().unwrap();
        assert_eq!(rt.drivers[0].state(), crate::driver::DriverState::Failed);
        assert!(rt.yfs.list_switches().unwrap().is_empty());
    }
}
