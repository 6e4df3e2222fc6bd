//! `port`: the paper's loop for one developer porting an app. Each job
//! takes one (Rodinia app, target) pair from CUDA source to a verified,
//! tuned winner: frontend → optimize → Combined sweep through the pooled
//! tuner → run the winner → compare against the sequential reference.

use std::sync::Arc;
use std::time::Instant;

use respec_bench::filtered_kernel_seconds;
use respec_ir::{Function, Module};
use respec_rodinia::{all_apps_sized, max_abs_err, App, Workload};
use respec_sim::{targets, GpuSim, SimError, TargetModel};
use respec_trace::Trace;
use respec_tune::{candidate_configs, tune_kernel_pooled, Strategy, TuneOptions};

use crate::rec::Rec;
use crate::util::{geomean, Rng};
use crate::Phase;

pub const TARGETS: [&str; 3] = ["a100", "mi210", "cpu-desktop8"];

/// Tuner worker count; the engine's result is identical at any count.
pub const TUNE_PARALLELISM: usize = 2;

pub struct Ctx {
    apps: Vec<Box<dyn App>>,
    references: Vec<Vec<f64>>,
    targets: Vec<Arc<dyn TargetModel>>,
}

pub fn setup(rec: &Rec) -> Ctx {
    let apps = all_apps_sized(Workload::Small);
    let references = apps
        .iter()
        .map(|app| {
            let _s = rec.span("rodinia.reference");
            app.reference()
        })
        .collect();
    let targets = TARGETS
        .iter()
        .map(|name| targets::by_name(name).expect("registry target"))
        .collect();
    Ctx {
        apps,
        references,
        targets,
    }
}

/// Rounds over every (app, target) pair in a seeded order, stopping at the
/// first round boundary after `seconds`, so every run ports each pair the
/// same number of times and the seed changes only the order.
pub fn measure(ctx: &Ctx, seed: u64, seconds: f64, rec: &Rec) -> Phase {
    let mut pairs: Vec<(usize, usize)> = (0..ctx.apps.len())
        .flat_map(|a| (0..ctx.targets.len()).map(move |t| (a, t)))
        .collect();
    let mut rng = Rng::new(seed, 1);
    let mut phase = Phase::default();
    let mut speedups = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut pairs);
        for &(a, t) in &pairs {
            let job = Instant::now();
            let outcome = port_one(ctx, a, t, rec);
            phase.job_ms.push(job.elapsed().as_secs_f64() * 1e3);
            phase.done_s.push(start.elapsed().as_secs_f64());
            phase.attempted += 1;
            match outcome {
                Ok(speedup) => speedups.push(speedup),
                Err(e) => {
                    phase.failed += 1;
                    eprintln!("port failure: {e}");
                }
            }
        }
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
        .layer
        .push(("tune.speedup_geomean", geomean(&speedups)));
    phase
}

/// One port; returns the winner's simulated speedup over the identity
/// candidate.
fn port_one(ctx: &Ctx, a: usize, t: usize, rec: &Rec) -> Result<f64, String> {
    let app = ctx.apps[a].as_ref();
    let target = ctx.targets[t].as_ref();
    let label = format!("{}@{}", app.name(), TARGETS[t]);
    let mut module = {
        let _s = rec.span("frontend.busy");
        rec.add("frontend.calls", 1.0);
        respec_frontend::compile_cuda(app.source(), &app.specs())
            .map_err(|e| format!("{label}: frontend: {e}"))?
    };
    {
        let _s = rec.span("opt.optimize");
        for func in module.functions_mut() {
            let rewrites = respec_opt::optimize(func);
            rec.add("opt.rewrites", rewrites as f64);
        }
    }
    let kernel = app.main_kernel();
    let func = module
        .function(kernel)
        .ok_or_else(|| format!("{label}: main kernel missing"))?
        .clone();
    let options = TuneOptions::with_parallelism(TUNE_PARALLELISM);
    let result = {
        let _s = rec.span("tune.wall");
        let launches = respec_ir::kernel::analyze_function(&func)
            .map_err(|e| format!("{label}: kernel shape: {e}"))?;
        let configs =
            candidate_configs(Strategy::Combined, &crate::TOTALS, &launches[0].block_dims);
        tune_kernel_pooled(
            &func,
            target,
            &configs,
            &options,
            || runner(app, &module, target, kernel, rec),
            &Trace::disabled(),
        )
        .map_err(|e| format!("{label}: tune: {e}"))?
    };
    if rec.enabled() {
        let (s, p) = (&result.stats, &result.timings);
        rec.add("tune.prepare_s", p.prepare_seconds);
        rec.add("tune.compile_s", p.compile_seconds);
        rec.add("tune.measure_s", p.measure_seconds);
        rec.add("tune.pool_overhead_s", p.pool_overhead_seconds);
        rec.add("tune.candidates", result.candidates.len() as f64);
        rec.add("tune.runner_calls", s.runner_calls as f64);
    }
    let speedup = result
        .speedup_vs_identity()
        .ok_or_else(|| format!("{label}: identity candidate was not measured"))?;
    if speedup.is_nan() || speedup < 1.0 {
        return Err(format!("{label}: winner slower than identity ({speedup})"));
    }
    module.add_function(result.best);
    let (out, _) = run_app(app, &module, target, rec).map_err(|e| format!("{label}: run: {e}"))?;
    let _s = rec.span("rodinia.verify");
    check_output(app, &out, &ctx.references[a]).map_err(|e| format!("{label}: {e}"))?;
    Ok(speedup)
}

/// Output check: the tuned app's output must match the sequential
/// reference within the app's tolerance.
pub fn check_output(app: &dyn App, out: &[f64], reference: &[f64]) -> Result<(), String> {
    let err = max_abs_err(out, reference);
    if err > app.tolerance() {
        return Err(format!(
            "output mismatch: max abs err {err:.3e} > tolerance {:.1e}",
            app.tolerance()
        ));
    }
    Ok(())
}

/// Runs the whole app on a fresh simulator inside a `sim.busy` span.
fn run_app(
    app: &dyn App,
    module: &Module,
    target: &dyn TargetModel,
    rec: &Rec,
) -> Result<(Vec<f64>, GpuSim), SimError> {
    let _s = rec.span("sim.busy");
    let mut sim = GpuSim::for_model(target);
    let out = app.run(&mut sim, module)?;
    if rec.enabled() {
        rec.add("sim.runs", 1.0);
        rec.add("sim.launches", sim.launch_log.len() as f64);
        rec.add("sim.warp_issues", sim.total_stats().total_issues() as f64);
    }
    Ok((out, sim))
}

/// The tuner's measurement runner: the candidate dropped into the app's
/// module, the whole app run, the main kernel's filtered time reported —
/// the same objective the serve daemon tunes against.
fn runner<'a>(
    app: &'a dyn App,
    module: &'a Module,
    target: &'a dyn TargetModel,
    kernel: &'a str,
    rec: &'a Rec,
) -> impl FnMut(&Function, u32) -> Result<f64, SimError> + 'a {
    move |version, _regs| {
        let mut m = module.clone();
        m.add_function(version.clone());
        let (_, sim) = run_app(app, &m, target, rec)?;
        Ok(filtered_kernel_seconds(&sim, kernel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbed_output_is_a_failure() {
        let ctx = setup(&Rec::new(false));
        let (app, reference) = (ctx.apps[0].as_ref(), &ctx.references[0]);
        assert!(check_output(app, reference, reference).is_ok());
        let mut perturbed = reference.clone();
        perturbed[0] += 10.0 * app.tolerance();
        assert!(check_output(app, &perturbed, reference).is_err());
        assert!(check_output(app, &reference[1..], reference).is_err());
    }

    #[test]
    fn one_port_verifies() {
        let ctx = setup(&Rec::new(false));
        let nn = ctx.apps.iter().position(|a| a.name() == "nn").unwrap();
        let speedup = port_one(&ctx, nn, 0, &Rec::new(false)).unwrap();
        assert!(speedup >= 1.0);
    }
}
