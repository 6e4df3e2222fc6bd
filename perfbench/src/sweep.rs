//! `compile_sweep`: the compiler's own cost, with nothing simulated. Each
//! job compiles one candidate version of one app's main kernel for one
//! target: frontend → coarsen → optimize → (CPU) lower → analysis gate →
//! verify → structural hash → backend.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use respec_analyze::{introduced_errors, Baseline};
use respec_opt::{CoarsenConfig, CpuLoweringParams};
use respec_rodinia::{all_apps_with_gemm, App, Workload};
use respec_sim::{targets, TargetKind, TargetModel};
use respec_tune::{candidate_configs, Strategy};

use crate::rec::Rec;
use crate::util::Rng;
use crate::Phase;

struct AppEntry {
    app: Box<dyn App>,
    /// Analyzer findings of the uncoarsened kernel: a candidate fails the
    /// gate only on errors this baseline lacks.
    baseline: Baseline,
    configs: Vec<CoarsenConfig>,
}

pub struct Ctx {
    apps: Vec<AppEntry>,
    targets: Vec<Arc<dyn TargetModel>>,
}

pub fn setup() -> Ctx {
    let apps = all_apps_with_gemm(Workload::Small)
        .into_iter()
        .map(|app| {
            let module = respec_frontend::compile_cuda(app.source(), &app.specs())
                .expect("bundled app compiles");
            let func = module.function(app.main_kernel()).expect("main kernel");
            let launches = respec_ir::kernel::analyze_function(func).expect("kernel shape");
            AppEntry {
                baseline: Baseline::of(func),
                configs: candidate_configs(
                    Strategy::Combined,
                    &crate::TOTALS,
                    &launches[0].block_dims,
                ),
                app,
            }
        })
        .collect();
    let targets = targets::TARGET_NAMES
        .iter()
        .map(|name| targets::by_name(name).expect("registry target"))
        .collect();
    Ctx { apps, targets }
}

/// What one compile decided. Illegal configurations and gate rejections
/// are decided outcomes, not failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compiled {
    Illegal,
    GateRejected,
    /// Structural hash of the final IR and the worst launch's registers.
    Version {
        hash: u64,
        regs: u32,
    },
}

/// Rounds over every job in a seeded order, stopping at the first round
/// boundary after `seconds`, so every run compiles each job equally often.
/// A job compiled twice in one run must give the same hash and registers.
pub fn measure(ctx: &Ctx, seed: u64, seconds: f64, rec: &Rec) -> Phase {
    let mut jobs: Vec<(usize, usize, usize)> = Vec::new();
    for (a, entry) in ctx.apps.iter().enumerate() {
        for t in 0..ctx.targets.len() {
            jobs.extend((0..entry.configs.len()).map(|c| (a, t, c)));
        }
    }
    let mut rng = Rng::new(seed, 2);
    let mut phase = Phase::default();
    let mut seen: HashMap<(usize, usize, usize), Compiled> = HashMap::new();
    let mut digest = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut jobs);
        for &(a, t, c) in &jobs {
            let entry = &ctx.apps[a];
            let job = Instant::now();
            let outcome = compile_one(entry, ctx.targets[t].as_ref(), entry.configs[c], rec);
            phase.job_ms.push(job.elapsed().as_secs_f64() * 1e3);
            phase.done_s.push(start.elapsed().as_secs_f64());
            phase.attempted += 1;
            let checked = outcome.and_then(|o| check_repeat(&mut seen, (a, t, c), o));
            match checked {
                Ok(Some(Compiled::Version { hash, regs })) => {
                    digest = digest.wrapping_add(hash ^ u64::from(regs).rotate_left(32));
                }
                Ok(_) => {}
                Err(e) => {
                    phase.failed += 1;
                    eprintln!(
                        "compile failure: {} {} on {}: {e}",
                        entry.app.name(),
                        entry.configs[c],
                        targets::TARGET_NAMES[t]
                    );
                }
            }
        }
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
        .notes
        .push(("version_digest", format!("{digest:016x}")));
    phase.notes.push(("distinct_jobs", seen.len().to_string()));
    phase
}

/// Output check: a job compiled again in the same run must decide the same
/// way, down to the hash and registers. Returns the outcome the first time
/// a job is seen, so the caller digests each job once.
fn check_repeat(
    seen: &mut HashMap<(usize, usize, usize), Compiled>,
    job: (usize, usize, usize),
    outcome: Compiled,
) -> Result<Option<Compiled>, String> {
    match seen.insert(job, outcome) {
        None => Ok(Some(outcome)),
        Some(first) if first == outcome => Ok(None),
        Some(first) => Err(format!("{outcome:?} differs from the first {first:?}")),
    }
}

/// One candidate through the whole compile path. `Err` is a failure: a
/// version that reached the verifier and was rejected by it.
fn compile_one(
    entry: &AppEntry,
    target: &dyn TargetModel,
    config: CoarsenConfig,
    rec: &Rec,
) -> Result<Compiled, String> {
    let app = entry.app.as_ref();
    let mut func = {
        let _s = rec.span("frontend.busy");
        rec.add("frontend.calls", 1.0);
        let module =
            respec_frontend::compile_cuda(app.source(), &app.specs()).map_err(|e| e.to_string())?;
        module
            .function(app.main_kernel())
            .ok_or("main kernel missing")?
            .clone()
    };
    {
        let _s = rec.span("opt.coarsen");
        if !config.is_identity() {
            let legal = respec_opt::coarsen_precheck(&func, config)
                .and_then(|()| respec_opt::coarsen_function(&mut func, config));
            if legal.is_err() {
                rec.add("opt.coarsen_rejected", 1.0);
                return Ok(Compiled::Illegal);
            }
        }
    }
    {
        let _s = rec.span("opt.optimize");
        rec.add("opt.rewrites", respec_opt::optimize(&mut func) as f64);
    }
    if target.kind() == TargetKind::Cpu {
        let _s = rec.span("opt.cpu_lower");
        let lanes = i64::from(target.exec_width());
        respec_opt::lower_function_to_cpu(&mut func, &CpuLoweringParams { lanes });
    }
    let launches = {
        let _s = rec.span("analyze.gate");
        let Ok(launches) = respec_ir::kernel::analyze_function(&func) else {
            rec.add("analyze.gate_rejected", 1.0);
            return Ok(Compiled::GateRejected);
        };
        let report = respec_analyze::analyze_function(&func);
        if !introduced_errors(&entry.baseline, &report).is_empty() {
            rec.add("analyze.gate_rejected", 1.0);
            return Ok(Compiled::GateRejected);
        }
        launches
    };
    {
        let _s = rec.span("ir.verify");
        respec_ir::verify_function(&func).map_err(|e| format!("{config}: verify: {e}"))?;
    }
    let hash = {
        let _s = rec.span("ir.hash");
        if rec.enabled() {
            let ops: u64 = respec_opt::op_census(&func).values().sum();
            rec.add("ir.ops_out", ops as f64);
        }
        respec_ir::structural_hash(&func)
    };
    let _s = rec.span("backend.compile");
    let mut regs = 0;
    for launch in &launches {
        let report = respec_backend::compile_launch(&func, launch, target.max_regs_per_thread());
        rec.add("backend.calls", 1.0);
        if report.spills() {
            rec.add("backend.spilling", 1.0);
        }
        regs = regs.max(report.regs_per_thread);
    }
    Ok(Compiled::Version { hash, regs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_version_verifies_and_repeats_exactly() {
        let ctx = setup();
        let entry = &ctx.apps[0];
        let target = ctx.targets[0].as_ref();
        let rec = Rec::new(false);
        let first = compile_one(entry, target, entry.configs[1], &rec).unwrap();
        assert!(matches!(first, Compiled::Version { .. }));
        let mut seen = HashMap::new();
        assert_eq!(check_repeat(&mut seen, (0, 0, 1), first), Ok(Some(first)));
        let again = compile_one(entry, target, entry.configs[1], &rec).unwrap();
        assert_eq!(check_repeat(&mut seen, (0, 0, 1), again), Ok(None));
    }

    #[test]
    fn perturbed_version_is_a_failure() {
        let mut seen = HashMap::new();
        let v = Compiled::Version { hash: 7, regs: 32 };
        check_repeat(&mut seen, (0, 0, 0), v).unwrap();
        let perturbed = Compiled::Version { hash: 7, regs: 33 };
        assert!(check_repeat(&mut seen, (0, 0, 0), perturbed).is_err());
        assert!(check_repeat(&mut seen, (0, 0, 0), Compiled::Illegal).is_err());
    }
}
