//! `recnmp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a run manifest, the workload definition, every metric with its
//! unit, the fingerprint of the simulated outputs, and as its last line
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when the run could not produce its metrics, 2 on bad usage.

use std::process::{Command, ExitCode};

use recnmp_perfbench::workloads::{self, Size};
use recnmp_perfbench::{measure, num, HELD_OUT_SEED};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: recnmp-perfbench --workload <sls-batch|serve-cached|fleet-faults|serve-tiered> \
     --seed <n> --seconds <1-600> --trace <0|1>";

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| bad("expected 1 to 600"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds is required".to_string());
    }
    Ok(args)
}

/// The output of `program args`, trimmed, if it ran and succeeded.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // All load comes from this process, on a pool of at most two workers
    // and never more than the machine's cores.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = workloads::workers(&args.workload, nproc);
    if let Err(e) = recnmp_exec::set_global_workers(workers) {
        eprintln!("cannot pin the worker pool: {e}");
        return ExitCode::from(2);
    }
    let commit = command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    println!(
        "manifest {{\"commit\": {}, \"rustc\": {}, \"profile\": {}, \"workers\": {}, \"nproc\": {nproc}, \
         \"workload\": {}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \
         \"trace\": {}, \"cache_state\": {}}}",
        json_str(&commit),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        workers,
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(workloads::cache_state(&args.workload)),
    );
    println!("workload {}", args.workload);
    for line in workloads::describe(&args.workload) {
        println!("{line}");
    }

    let run = measure(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
        workers,
    );

    let walls: Vec<String> = run.walls.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "passes: {} untraced (wall s: {}), {} traced; CPU time stolen by the hypervisor: {}",
        run.passes.0,
        walls.join(", "),
        run.passes.1,
        run.steal_frac
            .map_or("unknown".to_string(), |f| format!("{:.1}%", 100.0 * f))
    );
    for (name, unit, value) in &run.metrics {
        let note = match *name {
            "sim_speedup_vs_host" => {
                "  model unvalidated against hardware; paper references only: \
                 9.8x memory-latency speedup, 4.2x throughput"
            }
            _ => "",
        };
        println!("  {name:<28} {value:>16.6} {unit}{note}");
    }
    if let Some((_, percentiles, info)) = &run.first {
        for line in info {
            println!("{line}");
        }
        for p in percentiles {
            println!(
                "  {:<28} {:>16.6} simulated us over {} samples, {} beyond it",
                p.metric, p.us, p.samples, p.beyond
            );
        }
    }
    let failed_frac = run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "  {:<28} {:>16.6} fraction ({} of {} operations)",
        "failed_frac", failed_frac, run.failed, run.attempted
    );
    for f in &run.failures {
        println!("  FAILED: {f}");
    }
    if let Some((fp, ..)) = &run.first {
        println!("fingerprint {}", fp.json());
    }
    if run.metrics.is_empty() {
        eprintln!("{}: no pass completed", args.workload);
        return ExitCode::from(1);
    }
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
