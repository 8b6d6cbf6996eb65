//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer (the program itself carries no spans). Each span keeps its
//! name, start, end, parent and op id plus the charged syscalls that
//! happened inside it; everything stays in memory until the run ends.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use yanc_vfs::Filesystem;

/// The layer a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One benchmark op (root span; its self time is benchmark glue).
    Op,
    /// Work between ops that is not an op itself, e.g. the pings and the
    /// stats poll of a `stats_monitor` round (root span; glue).
    Round,
    /// `Network::pump`.
    Dataplane,
    /// `OpenFlowDriver::run_once` / `OpenFlowDriver::poll_stats`.
    Driver,
    /// `RouterDaemon::run_once`.
    Apps,
    /// `YancFs` calls the workload makes itself.
    Core,
    /// `Runtime::poll_stats`: stats requests plus the pump that lands them.
    StatsPoll,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Op,
        Layer::Round,
        Layer::Dataplane,
        Layer::Driver,
        Layer::Apps,
        Layer::Core,
        Layer::StatsPoll,
    ];

    /// Span name as written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Round => "round",
            Layer::Dataplane => "dataplane",
            Layer::Driver => "driver",
            Layer::Apps => "apps",
            Layer::Core => "core",
            Layer::StatsPoll => "stats_poll",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer covered.
    pub layer: Layer,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The op this span belongs to (ops are numbered from 1; 0 = none).
    pub op: u64,
    /// Charged vfs syscalls inside the span, children included.
    pub syscalls: u64,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus time covered by child spans), ns.
    pub self_ns: u64,
    /// Syscalls charged inside the spans, minus those inside children.
    pub self_syscalls: u64,
}

/// The recorder.
pub struct Tracer {
    fs: Arc<Filesystem>,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<(u32, u64)>,
    op: u64,
    queue_max: usize,
}

impl Tracer {
    /// A recorder charging syscalls against `fs`'s counters.
    pub fn new(fs: Arc<Filesystem>) -> Self {
        Tracer {
            fs,
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            op: 0,
            queue_max: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Tag the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, layer: Layer) {
        let id = self.spans.len() as u32;
        let sys = self.fs.counters().total();
        let start = self.now();
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent: self.stack.last().map(|&(p, _)| p),
            op: self.op,
            syscalls: 0,
        });
        self.stack.push((id, sys));
    }

    /// Close the innermost open span and sample the notify queue depth
    /// (events delivered to watches but not yet consumed).
    pub fn exit(&mut self) {
        let end = self.now();
        let (id, sys0) = self.stack.pop().expect("exit without enter");
        let sys = self.fs.counters().total();
        let s = &mut self.spans[id as usize];
        s.end = end;
        s.syscalls = sys - sys0;
        self.queue_max = self.queue_max.max(self.fs.notify().queued_events());
    }

    /// Deepest notify queue seen at any span exit.
    pub fn queue_max(&self) -> usize {
        self.queue_max
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer totals, indexed like [`Layer::ALL`].
    pub fn totals(&self) -> [LayerTotals; 7] {
        let n = self.spans.len();
        let mut child_ns = vec![0u64; n];
        let mut child_sys = vec![0u64; n];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end - s.start;
                child_sys[p as usize] += s.syscalls;
            }
        }
        let mut out = [LayerTotals::default(); 7];
        for (i, s) in self.spans.iter().enumerate() {
            let slot = Layer::ALL
                .iter()
                .position(|&l| l == s.layer)
                .expect("every layer is listed");
            let t = &mut out[slot];
            let dur = s.end - s.start;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
            t.self_syscalls += s.syscalls.saturating_sub(child_sys[i]);
        }
        out
    }

    /// Write every span as tab-separated `id name start_ns end_ns parent op
    /// syscalls` lines.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top\tsyscalls")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.layer.name(),
                s.start,
                s.end,
                s.op,
                s.syscalls
            )?;
        }
        Ok(())
    }
}
