//! The respec benchmark: one command per workload, printing every
//! end-to-end metric (`--trace 0`) or every per-layer metric (`--trace 1`)
//! as the last line of standard output. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload port|compile_sweep|serve_mix --seed N --seconds S --trace 0|1
//! ```

mod port;
mod rec;
mod serve_mix;
mod sweep;
mod util;

use std::process::ExitCode;
use std::time::Instant;

use respec_trace::json::{self, JsonObject};

use rec::Rec;
use util::{beyond, percentile};

/// Coarsening totals every workload searches: the daemon's default
/// request ladder. Totals of 16 and 32 make single compiles take seconds
/// (lavaMD at 32×32 needs ~8 s), too long for one run to cover the set.
pub const TOTALS: [i64; 4] = respec_serve::DEFAULT_REQUEST_TOTALS;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Largest share of the traced wall time the layers may leave unclaimed.
const UNATTRIBUTED_LIMIT: f64 = 0.10;

/// What one measured phase of a workload produced.
#[derive(Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    /// When each job (port, compile or request) finished, in seconds from
    /// the start of the phase, in finishing order.
    pub done_s: Vec<f64>,
    /// Latencies of the job class the percentiles describe.
    pub job_ms: Vec<f64>,
    /// Per-layer values the workload computes itself.
    pub layer: Vec<(&'static str, f64)>,
    /// Facts printed on the details row.
    pub notes: Vec<(&'static str, String)>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Port,
    CompileSweep,
    ServeMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "port" => Some(Workload::Port),
            "compile_sweep" => Some(Workload::CompileSweep),
            "serve_mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Port => "port",
            Workload::CompileSweep => "compile_sweep",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// The tail percentile reported as `job_tail_ms`: the highest one a
    /// run's sample supports with ten samples beyond it.
    fn tail(self) -> f64 {
        match self {
            Workload::Port => 0.85,
            Workload::CompileSweep => 0.99,
            Workload::ServeMix => 0.98,
        }
    }
}

/// A workload's state between set-up and measurement.
enum Ctx {
    Port(port::Ctx),
    Sweep(sweep::Ctx),
    Serve(serve_mix::Ctx),
}

fn setup(w: Workload, rec: &Rec) -> Ctx {
    let _root = rec.span("root:setup");
    match w {
        Workload::Port => Ctx::Port(port::setup(rec)),
        Workload::CompileSweep => Ctx::Sweep(sweep::setup()),
        Workload::ServeMix => Ctx::Serve(serve_mix::setup()),
    }
}

fn measure(ctx: &Ctx, seed: u64, seconds: f64, rec: &Rec) -> Phase {
    match ctx {
        Ctx::Port(c) => {
            let _root = rec.span("root:measure");
            port::measure(c, seed, seconds, rec)
        }
        Ctx::Sweep(c) => {
            let _root = rec.span("root:measure");
            sweep::measure(c, seed, seconds, rec)
        }
        // Client threads open their own roots.
        Ctx::Serve(c) => serve_mix::measure(c, seed, seconds, rec),
    }
}

/// Sets up `SETUPS` times and keeps the last context; returns it with the
/// median set-up seconds.
fn timed_setups(w: Workload, rec: &Rec) -> (Ctx, f64) {
    let mut times = Vec::new();
    let mut ctx = None;
    for _ in 0..SETUPS {
        drop(ctx.take());
        let t = Instant::now();
        ctx = Some(setup(w, rec));
        times.push(t.elapsed().as_secs_f64());
    }
    (ctx.expect("at least one set-up"), percentile(&times, 0.5))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("no workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload port|compile_sweep|serve_mix \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut details = JsonObject::new()
        .str("row", "details")
        .str("workload", w.name())
        .u64("seed", args.seed)
        .f64("seconds", args.seconds)
        .bool("trace", args.trace)
        .str("git_revision", &util::git_revision())
        .u64(
            "host_cores",
            std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        )
        .u64("tune_parallelism", port::TUNE_PARALLELISM as u64)
        .u64("serve_workers", serve_mix::WORKERS as u64)
        .u64("serve_clients", serve_mix::CLIENTS as u64)
        .u64("setups", SETUPS as u64);
    let phase;
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    if !args.trace {
        let quiet = Rec::new(false);
        let (ctx, setup_s) = timed_setups(w, &quiet);
        phase = measure(&ctx, args.seed, args.seconds, &quiet);
        drop(ctx);
        let n = phase.job_ms.len();
        metrics = vec![
            ("setup_s", setup_s, "s"),
            (
                "jobs_per_s",
                phase.attempted as f64 / phase.elapsed_s,
                "1/s",
            ),
            ("job_p50_ms", percentile(&phase.job_ms, 0.5), "ms"),
            ("job_tail_ms", percentile(&phase.job_ms, w.tail()), "ms"),
            ("peak_rss_mb", util::peak_rss_mb(), "MB"),
        ];
        details = details
            .u64("job_samples", n as u64)
            .f64("tail_percentile", w.tail())
            .u64("samples_beyond_tail", beyond(n, w.tail()) as u64);
    } else {
        // A shorter untraced phase, then the traced one, over the same
        // seed and so the same jobs in the same order: the ratio of the
        // times both took to finish the jobs they share is the tracing
        // overhead. Per-layer numbers come from the traced phase only.
        let quiet = Rec::new(false);
        let (ctx, _) = timed_setups(w, &quiet);
        let untraced = measure(&ctx, args.seed, args.seconds / 2.0, &quiet);
        drop(ctx);
        let rec = Rec::new(true);
        let (ctx, _) = timed_setups(w, &rec);
        phase = measure(&ctx, args.seed, args.seconds, &rec);
        drop(ctx);
        let shared = untraced.done_s.len().min(phase.done_s.len());
        let overhead = if shared == 0 {
            1.0
        } else {
            phase.done_s[shared - 1] / untraced.done_s[shared - 1]
        };
        attempted += untraced.attempted;
        failed += untraced.failed;
        let times = rec.self_times();
        let layers = layer_metrics(&rec, &times, &phase, overhead);
        for (name, value) in layers {
            metrics.push((name, value, layer_unit(name)));
        }
        let gate = times.unattributed_s <= UNATTRIBUTED_LIMIT * times.wall_s;
        if !gate {
            eprintln!(
                "attribution gate failed: {:.3} s of {:.3} s unattributed",
                times.unattributed_s, times.wall_s
            );
        }
        correct &= gate;
        details = details
            .f64("traced_wall_s", times.wall_s)
            .f64("attributed_s", times.attributed_s)
            .f64("unattributed_s", times.unattributed_s)
            .bool("attribution_gate", gate)
            .u64("untraced_jobs", untraced.attempted)
            .u64("traced_jobs", phase.attempted)
            .u64("overhead_shared_jobs", shared as u64);
    }
    for (name, value) in &phase.notes {
        details = details.str(name, value);
    }
    attempted += phase.attempted;
    failed += phase.failed;
    details = details.u64("attempted", attempted).u64("failed", failed);
    println!("{}", details.finish());
    correct &= failed == 0 && attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}

/// `{"name":{"value":v,"unit":"u"},…}`
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(&mut out, name);
        out.push_str(":{\"value\":");
        json::write_f64(&mut out, *value);
        out.push_str(",\"unit\":");
        json::write_str(&mut out, unit);
        out.push('}');
    }
    out.push('}');
    out
}

fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("per_s") {
        "1/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.contains("_ms") {
        "ms"
    } else if name.ends_with("ratio") || name.ends_with("geomean") {
        "ratio"
    } else {
        "count"
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers a workload
/// does not reach read 0.
fn layer_metrics(
    rec: &Rec,
    times: &rec::SelfTimes,
    phase: &Phase,
    overhead: f64,
) -> Vec<(&'static str, f64)> {
    let t = |name: &str| times.by_name.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| rec.count(name);
    let own = |name: &str| {
        phase
            .layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("frontend.busy_s", t("frontend.busy")),
        ("frontend.calls", c("frontend.calls")),
        ("opt.coarsen_s", t("opt.coarsen")),
        ("opt.optimize_s", t("opt.optimize")),
        ("opt.cpu_lower_s", t("opt.cpu_lower")),
        ("opt.rewrites", c("opt.rewrites")),
        ("opt.coarsen_rejected", c("opt.coarsen_rejected")),
        ("analyze.gate_s", t("analyze.gate")),
        ("analyze.gate_rejected", c("analyze.gate_rejected")),
        ("ir.verify_s", t("ir.verify")),
        ("ir.hash_s", t("ir.hash")),
        ("ir.ops_out", c("ir.ops_out")),
        ("backend.compile_s", t("backend.compile")),
        ("backend.calls", c("backend.calls")),
        ("backend.spilling", c("backend.spilling")),
        ("tune.wall_s", t("tune.wall")),
        ("tune.prepare_s", c("tune.prepare_s")),
        ("tune.compile_s", c("tune.compile_s")),
        ("tune.measure_s", c("tune.measure_s")),
        ("tune.pool_overhead_s", c("tune.pool_overhead_s")),
        ("tune.candidates", c("tune.candidates")),
        ("tune.runner_calls", c("tune.runner_calls")),
        (
            "tune.dedup_ratio",
            ratio(c("tune.runner_calls"), c("tune.candidates")),
        ),
        ("tune.speedup_geomean", own("tune.speedup_geomean")),
        ("sim.busy_s", t("sim.busy")),
        ("sim.runs", c("sim.runs")),
        ("sim.launches", c("sim.launches")),
        ("sim.warp_issues", c("sim.warp_issues")),
        (
            "sim.issues_per_s",
            ratio(c("sim.warp_issues"), t("sim.busy")),
        ),
        ("rodinia.reference_s", t("rodinia.reference")),
        ("rodinia.verify_s", t("rodinia.verify")),
        ("cache.hit_ratio", own("cache.hit_ratio")),
        ("cache.replays", own("cache.replays")),
        ("serve.request_s", t("serve.request")),
        ("serve.cold_ms_p50", own("serve.cold_ms_p50")),
        ("serve.queue_ms_p50", own("serve.queue_ms_p50")),
        ("serve.queue_ms_p99", own("serve.queue_ms_p99")),
        ("serve.tune_ms_p50", own("serve.tune_ms_p50")),
        ("serve.wire_ms_p50", own("serve.wire_ms_p50")),
        ("serve.wire_ms_p99", own("serve.wire_ms_p99")),
        ("serve.coalesced_ratio", own("serve.coalesced_ratio")),
        ("serve.rejected", own("serve.rejected")),
        ("wall_s", times.wall_s),
        ("unattributed_s", times.unattributed_s),
        ("trace_overhead_ratio", overhead),
        (
            "fail_ratio",
            ratio(phase.failed as f64, phase.attempted as f64),
        ),
    ]
}
