//! The system under test, reached only through public calls, plus the
//! counter snapshots the per-layer report is built from.
//!
//! Untraced, [`World::pump`] is `Runtime::pump` and [`World::poll_stats`]
//! is `Runtime::poll_stats`. Traced, the benchmark runs its own sweep loop
//! that mirrors `Runtime::pump` call for call (network first, then ready
//! drivers in index order) so it can put a span around each layer call.
//! Apps run after the pump in both modes.

use std::sync::atomic::Ordering;

use yanc::{YancError, YancFs, YancResult};
use yanc_apps::RouterDaemon;
use yanc_driver::Runtime;
use yanc_harness::Topo;
use yanc_vfs::{CounterSnapshot, Errno};

use crate::trace::{Layer, Tracer};

/// A fabric, its runtime and the apps that run on it.
pub struct World {
    /// The runtime (network, drivers, `/net`).
    pub rt: Runtime,
    /// The fabric's switches and hosts.
    pub topo: Topo,
    /// The reactive router, when the workload runs one.
    pub router: Option<RouterDaemon>,
    /// Span recorder; `None` in the untraced run.
    pub tracer: Option<Tracer>,
}

impl World {
    /// Open a span (no-op untraced).
    pub fn enter(&mut self, layer: Layer) {
        if let Some(t) = &mut self.tracer {
            t.enter(layer);
        }
    }

    /// Close the innermost span (no-op untraced).
    pub fn exit(&mut self) {
        if let Some(t) = &mut self.tracer {
            t.exit();
        }
    }

    /// Tag following spans with an op id (no-op untraced).
    pub fn set_op(&mut self, op: u64) {
        if let Some(t) = &mut self.tracer {
            t.set_op(op);
        }
    }

    /// Run `f` against `/net` inside a `core` span.
    pub fn core<T>(&mut self, f: impl FnOnce(&YancFs) -> T) -> T {
        self.enter(Layer::Core);
        let out = f(&self.rt.yfs);
        self.exit();
        out
    }

    /// Pump network and drivers until quiescent; returns the sweep count.
    pub fn pump(&mut self) -> YancResult<u32> {
        let Some(tr) = self.tracer.as_mut() else {
            return self.rt.pump();
        };
        let rt = &mut self.rt;
        // Same quiescence budget and sweep structure as `Runtime::pump`.
        let budget = 10_000 + 64 * rt.drivers.len() as u64;
        let mut sweeps: u32 = 0;
        loop {
            let net_events = if rt.net.pending_events() > 0 {
                tr.enter(Layer::Dataplane);
                let n = rt.net.pump();
                tr.exit();
                n
            } else {
                0
            };
            let ready: Vec<bool> = rt
                .drivers
                .iter()
                .map(|d| d.readiness().pending() > 0)
                .collect();
            if net_events == 0 && !ready.contains(&true) {
                break;
            }
            for (d, &r) in rt.drivers.iter_mut().zip(&ready) {
                if r {
                    tr.enter(Layer::Driver);
                    d.run_once();
                    tr.exit();
                }
            }
            sweeps += 1;
            if u64::from(sweeps) >= budget {
                return Err(YancError::busy(
                    Errno::EAGAIN,
                    "traced pump failed to quiesce within its sweep budget",
                ));
            }
        }
        Ok(sweeps)
    }

    /// Run each app once; returns whether any did work.
    pub fn run_apps(&mut self) -> bool {
        let Some(router) = self.router.as_mut() else {
            return false;
        };
        match self.tracer.as_mut() {
            None => router.run_once(),
            Some(tr) => {
                tr.enter(Layer::Apps);
                let worked = router.run_once();
                tr.exit();
                worked
            }
        }
    }

    /// One closed-loop step: pump, then apps. Returns whether anything
    /// moved.
    pub fn step(&mut self) -> YancResult<bool> {
        let sweeps = self.pump()?;
        let apps = self.run_apps();
        Ok(sweeps > 0 || apps)
    }

    /// Step until two consecutive steps find nothing to do.
    pub fn settle(&mut self) -> YancResult<()> {
        let mut idle = 0;
        while idle < 2 {
            if self.step()? {
                idle = 0;
            } else {
                idle += 1;
            }
        }
        Ok(())
    }

    /// `Runtime::poll_stats`, then apps until quiet.
    pub fn poll_stats(&mut self) -> YancResult<()> {
        if self.tracer.is_none() {
            self.rt.poll_stats()?;
        } else {
            self.enter(Layer::StatsPoll);
            self.enter(Layer::Driver);
            for d in &mut self.rt.drivers {
                d.poll_stats();
            }
            self.exit();
            let res = self.pump();
            self.exit();
            res?;
        }
        self.settle()
    }

    /// Snapshot every public counter the per-layer report uses.
    pub fn counts(&self) -> Counts {
        let fs = self.rt.yfs.filesystem();
        let dc = fs.dcache_stats();
        let rp = fs.readpath_stats();
        let sched = self.rt.sched_stats();
        let mut c = Counts {
            syscalls: fs.counters().snapshot(),
            notify_delivered: fs.notify().delivered_events(),
            notify_dropped: fs.notify().dropped_events(),
            watches: fs.notify().watch_count() as u64,
            dcache_hits: dc.hits + dc.negative_hits,
            dcache_misses: dc.misses,
            readpath_hits: rp.optimistic_hits,
            readpath_fallbacks: rp.fallbacks,
            lock_acquisitions: fs.lock_acquisitions(),
            sched_runs: sched.runs.load(Ordering::Relaxed),
            sched_skips: sched.skips.load(Ordering::Relaxed),
            frames: self.rt.net.stats.frames_delivered,
            control_msgs: self.rt.net.stats.control_deliveries,
            paths: 0,
            floods: 0,
            msgs_rx: 0,
            msgs_tx: 0,
            flow_mods: 0,
            packet_ins: 0,
        };
        for d in &self.rt.drivers {
            let s = d.stats();
            c.msgs_rx += s.msgs_rx.load(Ordering::Relaxed);
            c.msgs_tx += s.msgs_tx.load(Ordering::Relaxed);
            c.flow_mods += s.flow_mods.load(Ordering::Relaxed);
            c.packet_ins += s.packet_ins.load(Ordering::Relaxed);
        }
        if let Some(r) = &self.router {
            c.paths = r.paths_installed as u64;
            c.floods = r.floods as u64;
        }
        c
    }

    /// Content digest of the whole tree (names, modes, owners, bytes).
    pub fn digest(&self) -> u64 {
        self.rt.yfs.filesystem().content_digest()
    }
}

/// Cumulative public counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Charged vfs syscalls, per kind.
    pub syscalls: CounterSnapshot,
    /// Notify events enqueued to watches.
    pub notify_delivered: u64,
    /// Notify events dropped by queue quotas.
    pub notify_dropped: u64,
    /// Live watches (a level, not a counter).
    pub watches: u64,
    /// Dentry-cache hits, negative hits included.
    pub dcache_hits: u64,
    /// Dentry-cache misses.
    pub dcache_misses: u64,
    /// Lock-free read-path hits.
    pub readpath_hits: u64,
    /// Lock-free read-path fallbacks to the locked path.
    pub readpath_fallbacks: u64,
    /// Shard-lock acquisitions.
    pub lock_acquisitions: u64,
    /// Drivers dispatched by `Runtime::pump`.
    pub sched_runs: u64,
    /// Drivers skipped by `Runtime::pump`.
    pub sched_skips: u64,
    /// Data frames delivered by the network.
    pub frames: u64,
    /// Controller→switch messages delivered by the network.
    pub control_msgs: u64,
    /// Router paths installed.
    pub paths: u64,
    /// Router floods.
    pub floods: u64,
    /// OpenFlow messages received by drivers.
    pub msgs_rx: u64,
    /// OpenFlow messages sent by drivers.
    pub msgs_tx: u64,
    /// Flow-mods sent by drivers.
    pub flow_mods: u64,
    /// Packet-ins received by drivers.
    pub packet_ins: u64,
}
