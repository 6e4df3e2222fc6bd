//! Interpreter throughput microbenchmark: warp-level instruction issues
//! retired per host second, scalar vs warp-vectorized execution, per
//! Rodinia app. Both modes execute the identical instruction stream (the
//! counters are part of the equivalence contract), so the speedup column
//! isolates the interpreter's own dispatch cost.
//!
//! Run with `cargo bench --bench interp_throughput`. Pass `--json` to
//! also write the machine-readable baseline to `BENCH_interp.json`;
//! `--large` uses paper-scale workloads, `--repeats N` averages over N
//! timed runs per mode (default 3, after one untimed warm-up).

use respec_rodinia::Workload;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload = if args.iter().any(|a| a == "--large") {
        Workload::Large
    } else {
        Workload::Small
    };
    let repeats = args
        .iter()
        .position(|a| a == "--repeats")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);

    let rows = respec_bench::interp_throughput_data(workload, repeats);

    println!("== interp_throughput: warp-level issues per host second ==");
    println!(
        "{:<16} {:>12} {:>14} {:>14} {:>10}",
        "app", "issues", "scalar ops/s", "warp ops/s", "speedup"
    );
    for r in &rows {
        println!(
            "{:<16} {:>12} {:>14.0} {:>14.0} {:>9.2}x",
            r.app,
            r.total_issues,
            r.scalar_ops_per_sec(),
            r.warp_ops_per_sec(),
            r.speedup(),
        );
    }
    let speedups: Vec<f64> = rows.iter().map(|r| r.speedup()).collect();
    println!("geomean speedup: {:.2}x", respec_bench::geomean(&speedups));

    if args.iter().any(|a| a == "--json") {
        // cargo runs benches with the package directory as cwd; anchor the
        // baseline at the workspace root so successive PRs overwrite one file.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .join("BENCH_interp.json");
        let env = respec_bench::RunEnv::capture(repeats);
        let lines = respec_bench::jsonout::interp_throughput_lines(&rows, &env);
        std::fs::write(&path, &lines).expect("write BENCH_interp.json");
        println!("\nwrote {} ({} rows)", path.display(), rows.len());
    }
}
