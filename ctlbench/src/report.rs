//! Turning passes into the printed report: the run-context stamp, one
//! `name = value unit` line per metric, and the final JSON line.

use std::fmt::Write as _;

use yanc_vfs::OpKind;

use crate::trace::Layer;
use crate::workloads::{Pass, Workload};

/// The latency percentiles reported as `op_p<q>_ms`, each a
/// Harrell–Davis estimate (see [`hd_quantile`]).
pub const LATENCY_PERCENTILES: [f64; 4] = [50.0, 90.0, 95.0, 99.0];

/// The end-to-end metrics the final JSON line carries (the ones
/// `BENCHMARK.json` bounds). The others are printed only. On a shared
/// host, contention comes in phases of seconds to minutes that slow every
/// op by up to 1.7 times, and the share of a run they cover varies from
/// run to run. `op_p50_ms` and `ops_per_s` follow that share; p90 and p95
/// lie on the slow level in every run. `op_p99_ms` sits on the lump of
/// 10–30 ms host stalls that hit about 1% of ops.
pub const GATED: [&str; 4] = ["setup_s", "op_p90_ms", "op_p95_ms", "peak_rss_mb"];

/// The `vfs.<kind>_per_op` metrics reported (the kinds any workload
/// charges during its timed phase).
pub const VFS_KINDS: [OpKind; 11] = [
    OpKind::Stat,
    OpKind::Open,
    OpKind::Close,
    OpKind::Read,
    OpKind::Write,
    OpKind::Mkdir,
    OpKind::Rmdir,
    OpKind::Unlink,
    OpKind::Readdir,
    OpKind::Readlink,
    OpKind::Truncate,
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Harrell–Davis estimate of the `q` quantile (`q` in 0..1) of an
/// ascending slice: a Beta-weighted average of all order statistics
/// instead of the single one at rank `q·n`. Where the tail is lumpy (a
/// few op kinds with distinct costs) the single order statistic jumps
/// between lumps from run to run; this estimate moves smoothly.
pub fn hd_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(f64::NAN);
    }
    let nf = n as f64;
    let (a, b) = (q * (nf + 1.0), (1.0 - q) * (nf + 1.0));
    // Beta(a, b) density at each order statistic's bin midpoint, in log
    // space for stability, normalised to weights that sum to 1.
    let logw: Vec<f64> = (0..n)
        .map(|i| {
            let x = (i as f64 + 0.5) / nf;
            (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
        })
        .collect();
    let top = logw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut num, mut den) = (0.0, 0.0);
    for (x, lw) in sorted.iter().zip(&logw) {
        let w = (lw - top).exp();
        num += w * x;
        den += w;
    }
    num / den
}

/// Median of unsorted values: the middle one (the upper middle of an even
/// count). Over the three set-ups, unlike [`hd_quantile`], one stalled
/// set-up does not move it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Peak resident set (`VmHWM`) of this process, MiB; NaN where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median throughput over the pass's windows; the whole-run mean when the
/// run was too short to close a window.
pub fn ops_per_s(p: &Pass) -> f64 {
    let rates = p.rec.window_rates(p.measured_ops());
    if rates.is_empty() {
        p.rec.ops as f64 / p.timed_s
    } else {
        median(&rates)
    }
}

/// Per-op counts of the timed phase that explain an op's cost.
pub fn op_counts(p: &Pass) -> String {
    let (a, b) = (&p.before, &p.after);
    let ops = p.rec.ops.max(1) as f64;
    format!(
        "syscalls {:.1} flow_mods {:.3} packet_ins {:.3} frames {:.3} paths {:.4} floods {:.4}",
        b.syscalls.since(&a.syscalls).total() as f64 / ops,
        (b.flow_mods - a.flow_mods) as f64 / ops,
        (b.packet_ins - a.packet_ins) as f64 / ops,
        (b.frames - a.frames) as f64 / ops,
        (b.paths - a.paths) as f64 / ops,
        (b.floods - a.floods) as f64 / ops,
    )
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(p: &Pass) -> Vec<Metric> {
    let lat = p.measured_latencies();
    let mut out = vec![
        m("setup_s", median(&p.setup_s), "s"),
        m("ops_per_s", ops_per_s(p), "1/s"),
    ];
    out.extend(
        LATENCY_PERCENTILES.map(|q| m(format!("op_p{q}_ms"), hd_quantile(&lat, q / 100.0), "ms")),
    );
    out.push(m(
        "peak_rss_mb",
        p.rec.rss_mb.map_or_else(peak_rss_mb, |(_, mb)| mb),
        "MiB",
    ));
    out
}

fn per(count: u64, ops: f64) -> f64 {
    count as f64 / ops
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics: counts from the untraced pass `a`, span times
/// from the traced pass `b`, which replayed exactly `a`'s ops.
pub fn per_layer(a: &Pass, b: &Pass) -> Vec<Metric> {
    let ops = a.rec.ops.max(1) as f64;
    let (c0, c1) = (&a.before, &a.after);
    let tracer = b.tracer.as_ref().expect("pass b is traced");
    let totals = tracer.totals();
    let t = |l: Layer| totals[Layer::ALL.iter().position(|&x| x == l).expect("listed")];
    let self_ms = |l: Layer| t(l).self_ns as f64 / 1e6 / ops;
    let sys = c1.syscalls.since(&c0.syscalls);
    let sys_b = b.after.syscalls.since(&b.before.syscalls);
    let runs = c1.sched_runs - c0.sched_runs;
    let skips = c1.sched_skips - c0.sched_skips;
    let dc_hits = c1.dcache_hits - c0.dcache_hits;
    let dc_miss = c1.dcache_misses - c0.dcache_misses;
    let rp_hits = c1.readpath_hits - c0.readpath_hits;
    let rp_fall = c1.readpath_fallbacks - c0.readpath_fallbacks;
    let polls = t(Layer::StatsPoll);
    let layers_ms: f64 = [Layer::Dataplane, Layer::Driver, Layer::Apps, Layer::Core]
        .into_iter()
        .map(self_ms)
        .sum();
    let traced_ms = b.timed_s * 1e3 / ops;

    let mut out = vec![
        m("dataplane.self_ms_per_op", self_ms(Layer::Dataplane), "ms"),
        m(
            "dataplane.frames_per_op",
            per(c1.frames - c0.frames, ops),
            "count",
        ),
        m(
            "dataplane.control_msgs_per_op",
            per(c1.control_msgs - c0.control_msgs, ops),
            "count",
        ),
        m("driver.self_ms_per_op", self_ms(Layer::Driver), "ms"),
        m("driver.dispatches_per_op", per(runs, ops), "count"),
        m("driver.skip_frac", frac(skips, runs + skips), "ratio"),
        m(
            "driver.packet_ins_per_op",
            per(c1.packet_ins - c0.packet_ins, ops),
            "count",
        ),
        m(
            "driver.stats_poll_ms",
            if polls.count == 0 {
                0.0
            } else {
                polls.total_ns as f64 / 1e6 / polls.count as f64
            },
            "ms",
        ),
        m(
            "openflow.msgs_rx_per_op",
            per(c1.msgs_rx - c0.msgs_rx, ops),
            "count",
        ),
        m(
            "openflow.msgs_tx_per_op",
            per(c1.msgs_tx - c0.msgs_tx, ops),
            "count",
        ),
        m(
            "openflow.flow_mods_per_op",
            per(c1.flow_mods - c0.flow_mods, ops),
            "count",
        ),
        m("apps.self_ms_per_op", self_ms(Layer::Apps), "ms"),
        m(
            "apps.syscalls_per_op",
            per(t(Layer::Apps).self_syscalls, ops),
            "count",
        ),
        m("apps.paths_per_op", per(c1.paths - c0.paths, ops), "count"),
        m(
            "apps.floods_per_op",
            per(c1.floods - c0.floods, ops),
            "count",
        ),
        m("core.self_ms_per_op", self_ms(Layer::Core), "ms"),
        m(
            "core.syscalls_per_op",
            per(t(Layer::Core).self_syscalls, ops),
            "count",
        ),
        m("vfs.syscalls_per_op", per(sys.total(), ops), "count"),
    ];
    for k in VFS_KINDS {
        out.push(m(
            format!("vfs.{}_per_op", k.name()),
            per(sys.get(k), ops),
            "count",
        ));
    }
    out.extend([
        m(
            "vfs.notify_delivered_per_op",
            per(c1.notify_delivered - c0.notify_delivered, ops),
            "count",
        ),
        m(
            "vfs.notify_dropped",
            (c1.notify_dropped - c0.notify_dropped) as f64,
            "count",
        ),
        m("vfs.watches", c1.watches as f64, "count"),
        m("vfs.notify_queue_max", tracer.queue_max() as f64, "count"),
        m(
            "vfs.dcache_hit_frac",
            frac(dc_hits, dc_hits + dc_miss),
            "ratio",
        ),
        m(
            "vfs.readpath_hit_frac",
            frac(rp_hits, rp_hits + rp_fall),
            "ratio",
        ),
        m(
            "vfs.lock_acquisitions_per_op",
            per(c1.lock_acquisitions - c0.lock_acquisitions, ops),
            "count",
        ),
        m(
            "setup.ms_per_switch",
            a.setup_s[0] * 1e3 / a.switches as f64,
            "ms",
        ),
        m(
            "setup.syscalls_per_switch",
            a.setup_syscalls as f64 / a.switches as f64,
            "count",
        ),
        m("trace.overhead_frac", b.timed_s / a.timed_s - 1.0, "ratio"),
        m("trace.op_ms_per_op", traced_ms, "ms"),
        m("trace.glue_ms_per_op", traced_ms - layers_ms, "ms"),
        m(
            "trace.syscall_gap",
            sys_b.total() as f64 - sys.total() as f64,
            "count",
        ),
    ]);
    out
}

/// Every nonzero syscall kind of a pass's timed phase, per op (printed
/// for the reader; the JSON carries the fixed [`VFS_KINDS`] list).
pub fn syscall_mix(p: &Pass) -> String {
    let sys = p.after.syscalls.since(&p.before.syscalls);
    let ops = p.rec.ops.max(1) as f64;
    OpKind::all()
        .iter()
        .filter(|k| sys.get(**k) > 0)
        .map(|k| format!("{}={:.2}", k.name(), sys.get(*k) as f64 / ops))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The run-context stamp: host, toolchain, build profile, seed, sample
/// counts and the percentile each tail figure stands for.
pub fn context(w: Workload, seed: u64, traced: bool, p: &Pass) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"nproc\": {nproc}, \
         \"rustc\": \"{}\", \"profile\": \"{}\", \"switches\": {}, \"setup_samples\": {}, \
         \"op_samples\": {}, \"throughput_windows\": {}, \"polls\": {}, \"timed_s\": {:.3}, \
         \"rss_at_ops\": {}, \"percentiles\": {{{}}}}}",
        w.name(),
        u8::from(traced),
        env!("CTLBENCH_RUSTC"),
        env!("CTLBENCH_PROFILE"),
        p.switches,
        p.setup_s.len(),
        p.measured_ops(),
        p.rec.window_rates(p.measured_ops()).len(),
        p.rec.polls,
        p.timed_s,
        p.rec.rss_mb.map_or(p.rec.ops, |(ops, _)| ops),
        LATENCY_PERCENTILES
            .map(|q| format!("\"op_p{q}_ms\": {q}"))
            .join(", "),
    )
}

/// The final result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, mt) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN/inf: a value that could not be measured is null.
        let v = if mt.value.is_finite() {
            format!("{}", mt.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            mt.name, mt.unit
        );
    }
    s.push_str("}}");
    s
}
