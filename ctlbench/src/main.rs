//! `ctlbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`), one run sets the workload up several times
//! (reporting the median set-up time), measures for `--seconds` and prints
//! the end-to-end metrics. Traced (`--trace 1`), it sets up two fabrics
//! and runs the same ops on both for `--seconds`, alternating, one
//! untraced and one with spans around every layer call; it checks both end
//! with the same `content_digest()` and prints the per-layer metrics. The last line of
//! output is always one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

use std::process::{Command, ExitCode};

use ctlbench::report::{self, Metric};
use ctlbench::workloads::{Run, MIN_OPS};
use ctlbench::{run_pass, Params, Pass, Stop, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn print_metrics(metrics: &[Metric]) {
    for mt in metrics {
        println!("{:<32} = {:>14.6} {}", mt.name, mt.value, mt.unit);
    }
}

fn print_failures(p: &Pass, label: &str) {
    let frac = p.rec.failed as f64 / p.rec.ops.max(1) as f64;
    println!(
        "{label}: ops {} failed {} failed_frac {frac}",
        p.rec.ops, p.rec.failed
    );
    for f in &p.rec.failures {
        println!("{label}: FAILED {f}");
    }
}

fn untraced(w: Workload, a: &Args) -> Result<bool, String> {
    let p = run_pass(
        w,
        &Params::standard(w),
        a.seed,
        Stop::Seconds(a.seconds),
        SETUPS,
        false,
    )?;
    println!("# context {}", report::context(w, a.seed, false, &p));
    if p.rec.ops < MIN_OPS {
        println!(
            "# warning: {} ops < {MIN_OPS}; the printed p99 has fewer than ten samples beyond it, \
             and peak_rss_mb was read at the end of the run",
            p.rec.ops
        );
    }
    println!("# syscalls per op: {}", report::syscall_mix(&p));
    println!("# per op: {}", report::op_counts(&p));
    print_failures(&p, "run");
    let lat = p.measured_latencies();
    let slowest: Vec<f64> = lat.iter().rev().take(16).copied().collect();
    println!("# slowest ops, ms: {slowest:.2?}");
    println!(
        "# ops/s per window: {:.1?}",
        p.rec.window_rates(p.measured_ops())
    );
    let metrics = report::end_to_end(&p);
    print_metrics(&metrics);
    let gated: Vec<Metric> = metrics
        .into_iter()
        .filter(|mt| report::GATED.contains(&mt.name.as_str()))
        .collect();
    let correct = p.rec.failed == 0 && p.rec.ops > 0;
    println!(
        "{}",
        report::result_json(correct, p.rec.ops, p.rec.failed, &gated)
    );
    Ok(correct)
}

fn traced(w: Workload, a: &Args) -> Result<bool, String> {
    let params = Params::standard(w);
    let mut plain = Run::setup(w, &params, a.seed, Stop::Seconds(a.seconds), 1, false)?;
    let mut traced = Run::setup(w, &params, a.seed, Stop::Ops(u64::MAX), 1, true)?;
    // Step the two runs alternately, so drift in host speed hits both
    // alike; the traced run repeats each of the untraced run's steps.
    while plain.step() {
        traced.step();
    }
    let (base, tr) = (plain.finish(), traced.finish());
    println!("# context {}", report::context(w, a.seed, true, &base));
    print_failures(&base, "untraced");
    print_failures(&tr, "traced");
    let digest_ok = base.digest == tr.digest;
    println!(
        "# content_digest untraced {:016x} traced {:016x} ({})",
        base.digest,
        tr.digest,
        if digest_ok { "equal" } else { "DIFFERENT" }
    );
    let metrics = report::per_layer(&base, &tr);
    if let Some(gap) = metrics.iter().find(|m| m.name == "trace.syscall_gap") {
        println!(
            "# charged syscalls, traced minus untraced, over {} ops: {}",
            base.rec.ops, gap.value
        );
    }
    println!("# syscalls per op: {}", report::syscall_mix(&base));
    print_metrics(&metrics);
    match tr.tracer.as_ref().map(|t| (t, write_spans(w, a.seed, t))) {
        Some((t, Ok(path))) => println!("# {} spans written to {path}", t.spans().len()),
        Some((_, Err(e))) => println!("# spans not written: {e}"),
        None => {}
    }
    let failed = base.rec.failed + tr.rec.failed + u64::from(!digest_ok);
    let correct = failed == 0 && base.rec.ops > 0;
    println!(
        "{}",
        report::result_json(correct, base.rec.ops, failed, &metrics)
    );
    Ok(correct)
}

fn write_spans(w: Workload, seed: u64, t: &ctlbench::trace::Tracer) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}-{seed}.tsv", w.name());
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    t.write_tsv(&mut f)?;
    std::io::Write::flush(&mut f)?;
    Ok(path)
}

/// Run every workload, each in a child process of its own so each
/// `peak_rss_mb` covers one workload only.
fn all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {}", w.name());
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| e.to_string())?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ctlbench: {e}");
            eprintln!("usage: ctlbench --workload <reactive|flow_churn|stats_monitor|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let res = match (args.workload.as_str(), Workload::parse(&args.workload)) {
        ("all", _) => all(&args),
        (_, Some(w)) if args.trace => traced(w, &args),
        (_, Some(w)) => untraced(w, &args),
        (name, None) => Err(format!("unknown workload {name}")),
    };
    match res {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ctlbench: {e}");
            ExitCode::from(2)
        }
    }
}
