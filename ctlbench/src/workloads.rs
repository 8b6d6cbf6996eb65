//! The three closed-loop workloads. One client thread drives each: it
//! issues an op, waits for it to complete, checks it, then issues the next.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::time::Instant;

use yanc::{FlowSpec, YancResult};
use yanc_apps::RouterDaemon;
use yanc_driver::Runtime;
use yanc_harness::{build_fabric, record_topology};
use yanc_openflow::{Action, FlowMatch, Ipv4Prefix, Version};

use crate::check::{self, ExpectedEntry, SwitchTruth};
use crate::rng::Rng;
use crate::trace::{Layer, Tracer};
use crate::world::{Counts, World};

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Reactive flow setup through the router (§8's end-to-end path).
    Reactive,
    /// Proactive flow install/modify/delete through `/net`, no apps.
    FlowChurn,
    /// Stats polling and counter reads over installed paths.
    StatsMonitor,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::Reactive,
        Workload::FlowChurn,
        Workload::StatsMonitor,
    ];

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Reactive => "reactive",
            Workload::FlowChurn => "flow_churn",
            Workload::StatsMonitor => "stats_monitor",
        }
    }
}

/// Sizes of one workload's inputs.
#[derive(Debug, Clone)]
pub struct Params {
    /// Fat-tree arity.
    pub k: u16,
    /// `flow_churn`: flow slots per switch (bounds the live set).
    pub slots: usize,
    /// `stats_monitor`: proactive flows per switch, so flow-stats replies
    /// span more than one 64-entry multipart page.
    pub proactive_flows: usize,
    /// `stats_monitor`: pings per round.
    pub pings_per_round: usize,
}

impl Params {
    /// The benchmark's sizes.
    pub fn standard(w: Workload) -> Params {
        Params {
            k: if w == Workload::FlowChurn { 16 } else { 8 },
            slots: 8,
            proactive_flows: 72,
            pings_per_round: 16,
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn small() -> Params {
        Params {
            k: 4,
            slots: 4,
            proactive_flows: 72,
            pings_per_round: 4,
        }
    }
}

/// When the timed phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much wall time.
    Seconds(f64),
    /// After exactly this many ops.
    Ops(u64),
}

/// Op bookkeeping for one timed phase.
pub struct Recorder {
    stop: Stop,
    /// When the first step began.
    start: Option<Instant>,
    /// Ops completed.
    pub ops: u64,
    /// Failed checks.
    pub failed: u64,
    /// Per-op wall latency, ms.
    pub latencies_ms: Vec<f64>,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Stats polls issued.
    pub polls: u64,
    /// `(seconds since start, ops completed)` at each window boundary.
    pub marks: Vec<(f64, u64)>,
    /// Wall seconds spent inside this run's steps.
    pub busy_s: f64,
    /// `(ops, VmHWM in MiB)` read when the op count reached [`MIN_OPS`].
    pub rss_mb: Option<(u64, f64)>,
}

/// Fewest ops a run is sized to complete, so the printed p99 has ten
/// samples beyond it. `peak_rss_mb` is read when the op count reaches it:
/// state grows with the ops done, and a fixed count keeps a faster build
/// from reading a higher peak only because it did more work.
pub const MIN_OPS: u64 = 1000;

/// Shortest throughput window: `ops_per_s` is the median over windows, so
/// a burst of host noise moves one window, not the whole figure.
pub const WINDOW_S: f64 = 1.0;

impl Recorder {
    fn new(stop: Stop) -> Self {
        Recorder {
            stop,
            start: None,
            ops: 0,
            failed: 0,
            latencies_ms: Vec::new(),
            failures: Vec::new(),
            polls: 0,
            marks: vec![(0.0, 0)],
            busy_s: 0.0,
            rss_mb: None,
        }
    }

    /// Close a throughput window if [`WINDOW_S`] has passed since the
    /// last one closed. Called after every step: one op, or one whole
    /// `stats_monitor` round.
    fn tick(&mut self) {
        let now = self.elapsed();
        let &(last, _) = self.marks.last().expect("marks start non-empty");
        if now - last >= WINDOW_S {
            self.marks.push((now, self.ops));
        }
    }

    /// Ops per second in each closed window that ends by op `upto`.
    pub fn window_rates(&self, upto: u64) -> Vec<f64> {
        self.marks
            .windows(2)
            .filter(|w| w[1].1 <= upto)
            .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0))
            .collect()
    }

    fn elapsed(&self) -> f64 {
        self.start.map_or(0.0, |t| t.elapsed().as_secs_f64())
    }

    fn more(&self) -> bool {
        match self.stop {
            Stop::Seconds(s) => self.elapsed() < s,
            Stop::Ops(n) => self.ops < n,
        }
    }

    /// Whether a multi-op round may issue another op. Timed runs finish
    /// every round they start, so an exact replay of the same op count
    /// runs the same rounds.
    fn round_may_continue(&self) -> bool {
        match self.stop {
            Stop::Seconds(_) => true,
            Stop::Ops(n) => self.ops < n,
        }
    }

    fn begin_op(&mut self, w: &mut World) -> Instant {
        w.set_op(self.ops + 1);
        w.enter(Layer::Op);
        Instant::now()
    }

    fn end_op(&mut self, w: &mut World, t0: Instant) {
        self.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        w.exit();
        w.set_op(0);
        self.ops += 1;
        if self.ops == MIN_OPS {
            self.rss_mb = Some((self.ops, crate::report::peak_rss_mb()));
        }
    }

    /// Count a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Everything one pass (set-up plus timed phase) measured.
pub struct Pass {
    /// The workload.
    pub workload: Workload,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Charged syscalls of the last set-up.
    pub setup_syscalls: u64,
    /// Switches in the fabric.
    pub switches: usize,
    /// Ops, failures and latencies of the timed phase.
    pub rec: Recorder,
    /// Wall seconds spent in the timed phase's steps.
    pub timed_s: f64,
    /// Counters at the start of the timed phase.
    pub before: Counts,
    /// Counters at its end.
    pub after: Counts,
    /// `content_digest()` once everything settled after the timed phase.
    pub digest: u64,
    /// Spans, when traced.
    pub tracer: Option<Tracer>,
}

enum State {
    Reactive(Reactive),
    FlowChurn(FlowChurn),
    StatsMonitor(StatsMonitor),
}

/// A workload that is set up and runs its timed phase one step at a time
/// (one op, or one whole `stats_monitor` round), so two runs can be
/// interleaved.
pub struct Run {
    workload: Workload,
    world: World,
    state: State,
    /// Op bookkeeping of the timed phase.
    pub rec: Recorder,
    setup_s: Vec<f64>,
    setup_syscalls: u64,
    before: Counts,
}

impl Run {
    /// Set up `setups` times (keeping the last). Set-up failures are
    /// errors; op failures are counted in [`Run::rec`].
    pub fn setup(
        w: Workload,
        p: &Params,
        seed: u64,
        stop: Stop,
        setups: usize,
        traced: bool,
    ) -> Result<Run, String> {
        let mut setup_s = Vec::new();
        let mut current = None;
        for _ in 0..setups.max(1) {
            drop(current.take()); // free the previous fabric before building the next
            let t0 = Instant::now();
            let built = match w {
                Workload::Reactive => {
                    Reactive::setup(p, seed).map(|(w, s)| (w, State::Reactive(s)))
                }
                Workload::FlowChurn => {
                    FlowChurn::setup(p, seed).map(|(w, s)| (w, State::FlowChurn(s)))
                }
                Workload::StatsMonitor => {
                    StatsMonitor::setup(p, seed).map(|(w, s)| (w, State::StatsMonitor(s)))
                }
            }
            .map_err(|e| format!("{} set-up failed: {e}", w.name()))?;
            setup_s.push(t0.elapsed().as_secs_f64());
            current = Some(built);
        }
        let (mut world, state) = current.expect("at least one set-up ran");
        let setup_syscalls = world.rt.yfs.filesystem().counters().total();
        let before = world.counts();
        if traced {
            world.tracer = Some(Tracer::new(world.rt.yfs.filesystem().clone()));
        }
        Ok(Run {
            workload: w,
            world,
            state,
            rec: Recorder::new(stop),
            setup_s,
            setup_syscalls,
            before,
        })
    }

    /// Run one step unless the stop condition is met. Returns whether a
    /// step ran.
    pub fn step(&mut self) -> bool {
        self.rec.start.get_or_insert_with(Instant::now);
        if !self.rec.more() {
            return false;
        }
        let t0 = Instant::now();
        let (w, rec) = (&mut self.world, &mut self.rec);
        let ran = match &mut self.state {
            State::Reactive(s) => s.step(w, rec),
            State::FlowChurn(s) => s.step(w, rec),
            State::StatsMonitor(s) => s.step(w, rec),
        };
        rec.busy_s += t0.elapsed().as_secs_f64();
        rec.tick();
        ran
    }

    /// End the timed phase: snapshot the counters, settle, run the
    /// end-of-run checks and take the digest.
    pub fn finish(mut self) -> Pass {
        let after = self.world.counts();
        let tracer = self.world.tracer.take();
        let mut rec = self.rec;
        if let Err(e) = self.world.settle() {
            rec.fail(format!("final settle: {e}"));
        }
        match &self.state {
            State::Reactive(_) => {}
            State::FlowChurn(s) => s.finish(&self.world, &mut rec),
            State::StatsMonitor(s) => s.finish(&mut rec),
        }
        Pass {
            workload: self.workload,
            setup_s: self.setup_s,
            setup_syscalls: self.setup_syscalls,
            switches: self.world.topo.switches.len(),
            timed_s: rec.busy_s,
            rec,
            before: self.before,
            after,
            digest: self.world.digest(),
            tracer,
        }
    }
}

impl Pass {
    /// Ops the latency and throughput figures cover. On `reactive` every
    /// op installs paths for a new host pair, and ops get slower as the
    /// tables grow, so its figures cover the first [`MIN_OPS`] ops only: a
    /// faster build is not timed on larger tables. The other workloads'
    /// state is bounded, and their figures cover the whole run.
    pub fn measured_ops(&self) -> u64 {
        match self.workload {
            Workload::Reactive => self.rec.ops.min(MIN_OPS),
            Workload::FlowChurn | Workload::StatsMonitor => self.rec.ops,
        }
    }

    /// Latencies of the [`Pass::measured_ops`] ops, ms, ascending.
    pub fn measured_latencies(&self) -> Vec<f64> {
        let mut v = self.rec.latencies_ms[..self.measured_ops() as usize].to_vec();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Set up, run the timed phase to its stop condition, and finish.
pub fn run_pass(
    w: Workload,
    p: &Params,
    seed: u64,
    stop: Stop,
    setups: usize,
    traced: bool,
) -> Result<Pass, String> {
    let mut run = Run::setup(w, p, seed, stop, setups, traced)?;
    while run.step() {}
    Ok(run.finish())
}

/// A k-ary fat tree on the serial runtime, no apps, with its links
/// recorded in `/net` (what topology discovery would find).
pub fn fabric(k: u16) -> World {
    let mut rt = Runtime::new();
    let topo = build_fabric(&mut rt, k, Version::V1_3);
    record_topology(&mut rt);
    World {
        rt,
        topo,
        router: None,
        tracer: None,
    }
}

/// [`fabric`] running the router, where every host `i` has pinged host
/// `i+1` once, so the router knows where every host is. Returns the world
/// and the host pairs `(min, max)` that now have paths.
pub fn routed_fabric(k: u16) -> YancResult<(World, Vec<(usize, usize)>)> {
    let mut w = fabric(k);
    w.router = Some(RouterDaemon::new(w.rt.yfs.clone())?);
    w.settle()?;
    let n = w.topo.hosts.len();
    let mut pairs = Vec::with_capacity(n);
    for a in 0..n {
        let b = (a + 1) % n;
        let (src, _) = w.topo.hosts[a];
        let (_, dst) = w.topo.hosts[b];
        w.rt.net.host_ping(src, dst, 1);
        w.settle()?;
        if !check::reply_arrived(&w.rt.net.hosts[&src], dst, 1) {
            return Err(yanc::YancError::parse(
                "warm-up ping",
                format!("h{a}->h{b} got no reply"),
            ));
        }
        pairs.push((a.min(b), a.max(b)));
    }
    Ok((w, pairs))
}

/// Send a ping and step the world until the reply reaches the source.
/// Returns whether it did.
fn ping(w: &mut World, src: u64, dst: Ipv4Addr, seq: u16) -> YancResult<bool> {
    const MAX_STEPS: usize = 10_000;
    w.rt.net.host_ping(src, dst, seq);
    for _ in 0..MAX_STEPS {
        let moved = w.step()?;
        if check::reply_arrived(&w.rt.net.hosts[&src], dst, seq) {
            return Ok(true);
        }
        if !moved {
            return Ok(false);
        }
    }
    Ok(false)
}

// ---------------------------------------------------------------------------
// reactive
// ---------------------------------------------------------------------------

/// One op: a ping between a host pair not yet used in the run. Every host
/// is the destination equally often: destinations come in seeded rounds
/// that visit each host once, sources are drawn at random. Costs that
/// depend on the destination (e.g. one host whose pings the router
/// floods) then weigh the same in every run instead of varying with the
/// draw.
struct Reactive {
    rng: Rng,
    used: HashSet<(usize, usize)>,
    n_hosts: usize,
    /// Destinations left in the current round.
    dsts: Vec<usize>,
}

impl Reactive {
    fn setup(p: &Params, seed: u64) -> YancResult<(World, Self)> {
        let (w, pairs) = routed_fabric(p.k)?;
        let n_hosts = w.topo.hosts.len();
        let s = Reactive {
            rng: Rng::new(seed, 1),
            used: pairs.into_iter().collect(),
            n_hosts,
            dsts: Vec::new(),
        };
        Ok((w, s))
    }

    fn next_pair(&mut self) -> Option<(usize, usize)> {
        let n = self.n_hosts;
        if self.used.len() >= n * (n - 1) / 2 {
            return None;
        }
        loop {
            if self.dsts.is_empty() {
                // Next round: a seeded permutation of every host.
                self.dsts = (0..n).collect();
                for i in (1..n).rev() {
                    let j = self.rng.below(i + 1);
                    self.dsts.swap(i, j);
                }
            }
            let b = self.dsts.pop().expect("refilled above");
            let free: Vec<usize> = (0..n)
                .filter(|&a| a != b && !self.used.contains(&(a.min(b), a.max(b))))
                .collect();
            if free.is_empty() {
                continue; // every pair with this host is used up
            }
            let a = free[self.rng.below(free.len())];
            self.used.insert((a.min(b), a.max(b)));
            return Some((a, b));
        }
    }

    /// One op. Returns false once every host pair is used.
    fn step(&mut self, w: &mut World, rec: &mut Recorder) -> bool {
        let Some((a, b)) = self.next_pair() else {
            return false;
        };
        let (src, _) = w.topo.hosts[a];
        let (_, dst) = w.topo.hosts[b];
        // Warm-up pings used seq 1.
        let seq = (rec.ops % 60_000 + 2) as u16;
        let t0 = rec.begin_op(w);
        let res = ping(w, src, dst, seq);
        rec.end_op(w, t0);
        match res {
            Ok(true) => {}
            Ok(false) => rec.fail(format!("h{a}->h{b} seq {seq}: no echo reply")),
            Err(e) => rec.fail(format!("h{a}->h{b} seq {seq}: {e}")),
        }
        true
    }
}

// ---------------------------------------------------------------------------
// flow_churn
// ---------------------------------------------------------------------------

/// One op: install, modify or delete one flow on a random switch. Each
/// switch has `slots` flow slots, so the live set is bounded; a slot's
/// flow always has the same match and priority, a modify changes its
/// output port.
struct FlowChurn {
    rng: Rng,
    k: u16,
    names: Vec<String>,
    dpids: Vec<u64>,
    /// `live[switch][slot]` = output port of the installed flow.
    live: Vec<Vec<Option<u16>>>,
}

fn churn_match(slot: usize) -> (FlowMatch, u16) {
    let m = FlowMatch {
        dl_type: Some(0x0800),
        nw_dst: Some(Ipv4Prefix::host(Ipv4Addr::new(10, 200, slot as u8, 1))),
        ..FlowMatch::any()
    };
    (m, 1000 + slot as u16)
}

fn churn_spec(slot: usize, port: u16) -> FlowSpec {
    let (m, priority) = churn_match(slot);
    FlowSpec {
        m,
        actions: vec![Action::out(port)],
        priority,
        ..Default::default()
    }
}

fn churn_name(slot: usize) -> String {
    format!("churn{slot}")
}

impl FlowChurn {
    fn setup(p: &Params, seed: u64) -> YancResult<(World, Self)> {
        let mut w = fabric(p.k);
        let names: Vec<String> = w.topo.switches.iter().map(|d| format!("sw{d:x}")).collect();
        let dpids = w.topo.switches.clone();
        // Warm-up: start from the live set's steady state, where two
        // thirds of the slots hold a flow (see `run`).
        let mut rng = Rng::new(seed, 2);
        let mut live = vec![vec![None; p.slots]; names.len()];
        for (s, sw) in names.iter().enumerate() {
            for (j, slot) in live[s].iter_mut().enumerate() {
                if rng.chance(2, 3) {
                    let port = 1 + rng.below(p.k as usize) as u16;
                    w.rt.yfs
                        .write_flow(sw, &churn_name(j), &churn_spec(j, port))?;
                    *slot = Some(port);
                }
            }
        }
        w.settle()?;
        let s = FlowChurn {
            rng: Rng::new(seed, 3),
            k: p.k,
            names,
            dpids,
            live,
        };
        for i in 0..s.names.len() {
            if let Err(e) = s.check_switch(&w, i) {
                return Err(yanc::YancError::parse("warm-up flows", e));
            }
        }
        Ok((w, s))
    }

    fn expected(&self, s: usize) -> Vec<ExpectedEntry> {
        self.live[s]
            .iter()
            .enumerate()
            .filter_map(|(j, port)| {
                let (m, priority) = churn_match(j);
                port.map(|p| ExpectedEntry {
                    m,
                    priority,
                    actions: vec![Action::out(p)],
                })
            })
            .collect()
    }

    fn check_switch(&self, w: &World, s: usize) -> Result<(), String> {
        let sw = &w.rt.net.switches[&self.dpids[s]];
        let table = sw.table(0).ok_or("switch has no table 0")?;
        check::table_matches(table, &self.expected(s))
            .map_err(|e| format!("{}: {e}", self.names[s]))
    }

    /// One op.
    fn step(&mut self, w: &mut World, rec: &mut Recorder) -> bool {
        let n = self.names.len();
        let k = self.k as usize;
        let s = self.rng.below(n);
        let j = self.rng.below(self.live[s].len());
        let sw = self.names[s].clone();
        let name = churn_name(j);
        // Empty slot: install. Full slot: modify or delete, evenly.
        // A slot is full two thirds of the time in steady state.
        let new = match self.live[s][j] {
            None => Some(1 + self.rng.below(k) as u16),
            // Any other port in 1..=k.
            Some(p) if self.rng.chance(1, 2) => {
                Some(((p as usize + self.rng.below(k - 1)) % k + 1) as u16)
            }
            Some(_) => None,
        };
        let spec = new.map(|port| churn_spec(j, port));
        let t0 = rec.begin_op(w);
        let res = w.core(|y| match &spec {
            Some(spec) => y.write_flow(&sw, &name, spec).map(|_| ()),
            None => y.delete_flow(&sw, &name),
        });
        let res = res.and_then(|()| w.pump().map(|_| ()));
        rec.end_op(w, t0);
        self.live[s][j] = new;
        if let Err(e) = res {
            rec.fail(format!("{sw}/{name}: {e}"));
        } else if let Err(e) = self.check_switch(w, s) {
            rec.fail(e);
        }
        true
    }

    /// End of run: the hardware holds exactly the live set, and the flow
    /// files on every switch are exactly the model.
    fn finish(&self, w: &World, rec: &mut Recorder) {
        let hw: usize = self
            .dpids
            .iter()
            .map(|d| w.rt.net.switches[d].flow_count())
            .sum();
        let live: usize = self.live.iter().flatten().filter(|p| p.is_some()).count();
        if hw != live {
            rec.fail(format!("hardware holds {hw} flows, live set {live}"));
        }
        let y = &w.rt.yfs;
        for (s, sw) in self.names.iter().enumerate() {
            let mut names = match y.list_flows(sw) {
                Ok(n) => n,
                Err(e) => return rec.fail(format!("{sw}: list flows: {e}")),
            };
            names.sort();
            let mut want: Vec<String> = (0..self.live[s].len())
                .filter(|&j| self.live[s][j].is_some())
                .map(churn_name)
                .collect();
            want.sort();
            if names != want {
                return rec.fail(format!("{sw}: flow files {names:?}, model {want:?}"));
            }
            for (j, port) in self.live[s].iter().enumerate() {
                let Some(port) = port else { continue };
                match y.read_flow(sw, &churn_name(j)) {
                    Ok(f) if f.m == churn_match(j).0 && f.actions == vec![Action::out(*port)] => {}
                    Ok(f) => return rec.fail(format!("{sw}/churn{j}: fs holds {f:?}")),
                    Err(e) => return rec.fail(format!("{sw}/churn{j}: {e}")),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// stats_monitor
// ---------------------------------------------------------------------------

/// Rounds of: pings over installed paths, one stats poll, then one op per
/// switch, which reads that switch's whole counter set.
struct StatsMonitor {
    rng: Rng,
    pairs: Vec<(usize, usize)>,
    names: Vec<String>,
    dpids: Vec<u64>,
    /// Per switch: flow name → (match, priority).
    flow_keys: Vec<HashMap<String, (FlowMatch, u16)>>,
    pings_per_round: usize,
    seq: u16,
    nonzero_seen: bool,
}

impl StatsMonitor {
    fn setup(p: &Params, seed: u64) -> YancResult<(World, Self)> {
        let (mut w, pairs) = routed_fabric(p.k)?;
        let names: Vec<String> = w.topo.switches.iter().map(|d| format!("sw{d:x}")).collect();
        let dpids = w.topo.switches.clone();
        // Proactive UDP flows that pings never match: they only make the
        // flow tables (and so the flow-stats replies) long.
        let mut rng = Rng::new(seed, 4);
        for sw in &names {
            for j in 0..p.proactive_flows {
                let spec = FlowSpec {
                    m: FlowMatch {
                        dl_type: Some(0x0800),
                        nw_proto: Some(17),
                        tp_dst: Some(5000 + j as u16),
                        ..FlowMatch::any()
                    },
                    actions: vec![Action::out(1 + rng.below(p.k as usize) as u16)],
                    priority: 100 + j as u16,
                    ..Default::default()
                };
                w.rt.yfs.write_flow(sw, &format!("mon{j}"), &spec)?;
            }
        }
        w.settle()?;
        // The rounds ping each warm-up pair from its lower-numbered host.
        // Ping every pair that way once now, so the rounds only use paths
        // that are already installed.
        for &(a, b) in &pairs {
            let (src, _) = w.topo.hosts[a];
            let (_, dst) = w.topo.hosts[b];
            w.rt.net.host_ping(src, dst, 1);
            w.settle()?;
        }
        // One poll so every counter file exists before the timed phase.
        w.poll_stats()?;
        let mut flow_keys = Vec::with_capacity(names.len());
        for sw in &names {
            let mut keys = HashMap::new();
            for f in w.rt.yfs.list_flows(sw)? {
                let spec = w.rt.yfs.read_flow(sw, &f)?;
                keys.insert(f, (spec.m, spec.priority));
            }
            flow_keys.push(keys);
        }
        let s = StatsMonitor {
            rng: Rng::new(seed, 5),
            pairs,
            names,
            dpids,
            flow_keys,
            pings_per_round: p.pings_per_round,
            seq: 1,
            nonzero_seen: false,
        };
        Ok((w, s))
    }

    /// One round: pings, one poll, then one op per switch.
    fn step(&mut self, w: &mut World, rec: &mut Recorder) -> bool {
        w.enter(Layer::Round);
        self.seq = self.seq % 60_000 + 1;
        let mut sent = Vec::with_capacity(self.pings_per_round);
        for _ in 0..self.pings_per_round {
            let (a, b) = self.pairs[self.rng.below(self.pairs.len())];
            let (src, _) = w.topo.hosts[a];
            let (_, dst) = w.topo.hosts[b];
            w.rt.net.host_ping(src, dst, self.seq);
            sent.push((a, b, src, dst));
        }
        let settled = w.settle();
        let polled = settled.and_then(|()| w.poll_stats());
        rec.polls += 1;
        let truth: Vec<SwitchTruth> = self
            .dpids
            .iter()
            .map(|d| SwitchTruth::of(&w.rt.net.switches[d]))
            .collect();
        w.exit();
        if let Err(e) = polled {
            rec.fail(format!("round {}: {e}", rec.polls));
        }
        for (a, b, src, dst) in sent {
            if !check::reply_arrived(&w.rt.net.hosts[&src], dst, self.seq) {
                rec.fail(format!("h{a}->h{b} seq {}: no echo reply", self.seq));
            }
        }
        let mut nonzero = false;
        for (s, sw) in self.names.iter().enumerate() {
            if !rec.round_may_continue() {
                break;
            }
            let t0 = rec.begin_op(w);
            let read = w.core(|y| check::read_counter_set(y, sw));
            rec.end_op(w, t0);
            let verdict = read.map_err(|e| e.to_string()).and_then(|set| {
                nonzero |= set.max_value() > 0;
                check::counters_match(&set, &truth[s], &self.flow_keys[s])
            });
            if let Err(e) = verdict {
                rec.fail(format!("{sw}: {e}"));
            }
        }
        self.nonzero_seen |= nonzero;
        true
    }

    fn finish(&self, rec: &mut Recorder) {
        if rec.ops > 0 && !self.nonzero_seen {
            rec.fail("every counter read back was zero".into());
        }
    }
}
