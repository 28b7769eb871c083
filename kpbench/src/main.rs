//! `kpbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]`
//!
//! Generates the workload's inputs from the seed (in a child process, which
//! also computes the reference counts), measures the workload for the given
//! seconds, and prints human-readable lines followed by one JSON result
//! line. Exits 1 on a wrong result or a failed run, 2 on a usage error.

use kpbench::inputs::{read_refs, write_inputs, Plan, Size, Workload};
use kpbench::measure::Report;
use kpbench::service::PROBE_LIMIT;
use kpbench::sys::{nproc, provenance, CountingAlloc};
use kpbench::trace::{Group, Tracer};
use kpbench::{engine, service};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Where runs keep their generated inputs and span files, relative to the
/// directory the benchmark runs from.
const WORK_DIR: &str = ".kpbench_work";

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    /// Child mode: generate the inputs into this directory and exit.
    gen_into: Option<PathBuf>,
}

fn usage(msg: &str) -> String {
    format!(
        "{msg}\nusage: kpbench --workload <branch-heavy|seed-heavy|service-routed> \
         --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]"
    )
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::BranchHeavy,
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        gen_into: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(&format!("{flag} needs a value")))?;
        let bad = || usage(&format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                opts.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            "--gen-into" => opts.gen_into = Some(PathBuf::from(value)),
            _ => return Err(usage(&format!("unknown flag {flag}"))),
        }
    }
    opts.workload = workload.ok_or_else(|| usage("--workload is required"))?;
    Ok(opts)
}

/// Generates the inputs in a child process, so neither generation nor the
/// reference counts touch the measured process's clocks or peak memory.
fn generate(opts: &Opts, dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let size = match opts.size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    };
    let status = Command::new(exe)
        .args(["--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--size", size])
        .arg("--gen-into")
        .arg(dir)
        .status()
        .map_err(|e| format!("input generator: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("input generator exited with {status}"))
    }
}

fn run(opts: &Opts, dir: &Path, report: &mut Report) -> Result<(), String> {
    let plan = Plan::new(opts.workload, opts.seed, opts.size);
    generate(opts, dir)?;
    let refs = read_refs(dir, plan.graphs.len())?;
    for (g, spec) in plan.graphs.iter().enumerate() {
        let p = plan.params(g);
        report.note(format!(
            "input g{g}: {} seed offset {} (k={}, q={}) reference count {}",
            spec.recipe.name(),
            spec.offset,
            p.k,
            p.q,
            refs[g]
        ));
    }
    if !opts.trace {
        return match opts.workload {
            Workload::BranchHeavy | Workload::SeedHeavy => {
                engine::run(&plan, &refs, dir, opts.seconds, report)
            }
            Workload::ServiceRouted => service::run(&plan, &refs, dir, opts.seconds, report),
        };
    }
    let mut tr = Tracer::new();
    let stores = engine::traced(&plan, &refs, dir, &mut tr, report)?;
    let limit = (opts.workload != Workload::ServiceRouted).then_some(PROBE_LIMIT);
    service::traced(&plan, &refs, dir, &stores, limit, &mut tr, report)?;
    for group in [
        Group::Replay,
        Group::Probe,
        Group::Setup,
        Group::Engine,
        Group::Service,
    ] {
        report
            .notes
            .extend(tr.render_table(group).lines().map(String::from));
    }
    let share = |names: &[&str]| {
        let table = tr.table(Group::Replay);
        let total: u64 = table.values().map(|r| r.2).sum();
        let part: u64 = table
            .iter()
            .filter(|(n, _)| names.iter().any(|p| n.starts_with(p)))
            .map(|(_, r)| r.2)
            .sum();
        100.0 * part as f64 / total.max(1) as f64
    };
    report.note(format!(
        "regime: branch {:.2}% and seed+graph.row {:.2}% of replay self time",
        share(&["branch"]),
        share(&["seed.", "graph.row"])
    ));
    let spans = PathBuf::from(WORK_DIR).join(format!(
        "spans-{}-seed{}.tsv",
        opts.workload.name(),
        opts.seed
    ));
    tr.write(&spans, &provenance())
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    report.note(format!(
        "spans: {} ({} spans)",
        spans.display(),
        tr.spans.len()
    ));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &opts.gen_into {
        let plan = Plan::new(opts.workload, opts.seed, opts.size);
        return match write_inputs(&plan, dir, nproc()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let dir = PathBuf::from(WORK_DIR).join(format!(
        "{}-{}-{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    let mut report = Report::default();
    report.note(format!(
        "kpbench workload={} seed={} seconds={} trace={} {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        provenance()
    ));
    let outcome = run(&opts, &dir, &mut report);
    let _ = std::fs::remove_dir_all(&dir);
    for line in &report.notes {
        println!("{line}");
    }
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    for why in &report.wrong {
        eprintln!("wrong result: {why}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
