//! GPU-sim ↔ CPU-sim differential.
//!
//! The GPU-to-CPU lowering is a pure scheduling transformation: barriers
//! become loop fission, the thread loop becomes SIMD-lane-strided tiles,
//! shared memory becomes core-local scratch — but every output element is
//! still produced by the same arithmetic on the same inputs in the same
//! barrier-delimited phase order. So for every Rodinia app the lowered
//! module must produce *bit-identical* outputs on the CPU projection of
//! the simulator, and the lowered IR must pass the static race/divergence
//! gate (the fission is only legal because the kernels are race-free).

use respec::opt::{coarsen_function, lower_module_to_cpu, CpuLoweringParams};
use respec::sim::TargetModel;
use respec::{targets, CoarsenConfig, ExecMode, GpuSim};
use respec_bench::{compiled_module, Pipeline};
use respec_rodinia::{all_apps_sized, Workload};

#[test]
fn every_app_is_bit_identical_on_gpu_and_cpu_sims() {
    for app in all_apps_sized(Workload::Small) {
        let module = compiled_module(app.as_ref(), Pipeline::PolygeistNoOpt);
        let mut gpu_sim = GpuSim::new(targets::a100());
        let gpu_out = app.run(&mut gpu_sim, &module).expect("gpu run");
        for cpu in targets::all_cpu_targets() {
            let lowered = lower_module_to_cpu(
                &module,
                &CpuLoweringParams {
                    lanes: i64::from(cpu.exec_width()),
                },
            );
            let mut cpu_sim = GpuSim::for_model(&cpu);
            let cpu_out = app.run(&mut cpu_sim, &lowered).expect("cpu run");
            let ctx = format!("{} on {}", app.name(), cpu.name());
            assert_eq!(
                gpu_out.len(),
                cpu_out.len(),
                "output length diverged: {ctx}"
            );
            for (i, (g, c)) in gpu_out.iter().zip(&cpu_out).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    c.to_bits(),
                    "output[{i}] diverged: {ctx} (gpu {g}, cpu {c})"
                );
            }
        }
    }
}

/// The lowering's SIMD-lane tile loops start each lane at its own offset,
/// so warps run them with per-lane induction variables: scalar and warp
/// execution must agree bit for bit on every lowered (and coarsened) app,
/// launch by launch, on both CPU targets.
#[test]
fn lowered_apps_are_bit_identical_across_execution_modes() {
    let shapes = [[1, 1], [2, 2]].map(|[b, t]| CoarsenConfig {
        block: [b, 1, 1],
        thread: [t, 1, 1],
    });
    for app in all_apps_sized(Workload::Small) {
        let base = compiled_module(app.as_ref(), Pipeline::PolygeistNoOpt);
        let name = app.main_kernel().to_string();
        for cfg in shapes {
            let mut module = base.clone();
            let mut func = module.function(&name).expect("main kernel").clone();
            if coarsen_function(&mut func, cfg).is_err() {
                continue; // shape illegal for this kernel
            }
            module.add_function(func);
            for cpu in targets::all_cpu_targets() {
                let lanes = i64::from(cpu.exec_width());
                let lowered = lower_module_to_cpu(&module, &CpuLoweringParams { lanes });
                let run = |mode: ExecMode| {
                    let mut sim = GpuSim::for_model(&cpu);
                    sim.set_exec_mode(mode);
                    let out = app.run(&mut sim, &lowered).expect("cpu run");
                    (out, sim.launch_log)
                };
                let (scalar_out, scalar_log) = run(ExecMode::Scalar);
                let (warp_out, warp_log) = run(ExecMode::WarpVectorized);
                let ctx = format!("{} {cfg:?} on {}", app.name(), cpu.name());
                assert_eq!(scalar_log.len(), warp_log.len(), "launch count: {ctx}");
                for (s, w) in scalar_log.iter().zip(&warp_log) {
                    assert_eq!(
                        s.seconds.to_bits(),
                        w.seconds.to_bits(),
                        "{}: {ctx}",
                        s.kernel
                    );
                    assert_eq!(s.stats, w.stats, "{}: {ctx}", s.kernel);
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&scalar_out), bits(&warp_out), "outputs: {ctx}");
            }
        }
    }
}

#[test]
fn reduced_cpu_tuning_sweep_elects_a_valid_winner() {
    let totals = [1, 2];
    for app in all_apps_sized(Workload::Small).into_iter().take(3) {
        for cpu in targets::all_cpu_targets() {
            let (module, result) = respec_bench::tuned_module_with(
                app.as_ref(),
                &cpu,
                respec::Strategy::Combined,
                &totals,
                &respec::TuneOptions::serial(),
            );
            let ctx = format!("{} on {}", app.name(), cpu.name());
            let result = result.unwrap_or_else(|| panic!("no winner: {ctx}"));
            assert!(result.best_seconds > 0.0, "winner unmeasured: {ctx}");
            assert!(
                result.candidates.iter().any(|c| c.seconds.is_some()),
                "nothing measured: {ctx}"
            );
            // The installed winner (the lowered tiled form) still drives the
            // whole app correctly on the CPU simulator.
            let mut sim = GpuSim::for_model(&cpu);
            app.run(&mut sim, &module)
                .unwrap_or_else(|e| panic!("tuned module fails: {ctx}: {e:?}"));
        }
    }
}

#[test]
fn lowered_modules_pass_the_race_and_divergence_gate() {
    let cpu = targets::cpu_desktop8();
    let params = CpuLoweringParams {
        lanes: i64::from(cpu.exec_width()),
    };
    for app in all_apps_sized(Workload::Small) {
        let module = compiled_module(app.as_ref(), Pipeline::PolygeistNoOpt);
        let lowered = lower_module_to_cpu(&module, &params);
        for func in lowered.functions() {
            respec::ir::verify_function(func).unwrap_or_else(|e| {
                panic!("{}/{}: lowered IR invalid: {e}", app.name(), func.name())
            });
        }
        let report = respec::analyze::analyze_module(&lowered);
        let errors: Vec<_> = report.errors().collect();
        assert!(
            errors.is_empty(),
            "{}: lowered module fails the gate: {:?}",
            app.name(),
            errors
        );
    }
}
