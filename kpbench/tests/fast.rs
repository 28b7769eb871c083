//! Fast mode: every workload, untraced and traced, end to end on tiny
//! generated graphs.

use kpbench::inputs::{Recipe, Size};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Counts that must repeat exactly between two traced runs of one seed.
const EXACT: [&str; 10] = [
    "graph.row_calls",
    "prepare.reduced_n",
    "seed.build_calls",
    "seed.built",
    "subtask.tasks",
    "subtask.r1_pruned",
    "branch.calls",
    "branch.ub_pruned",
    "sink.reports",
    "stream.lines",
];

const WORKLOADS: [&str; 3] = ["branch-heavy", "seed-heavy", "service-routed"];

/// A fresh directory for one test's runs.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("kpbench-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the benchmark in `dir` on tiny inputs; returns stdout.
fn kpbench(dir: &Path, workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_kpbench"))
        .current_dir(dir)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.3", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `name -> (value, unit)` from the result line (the last line).
fn result_metrics(stdout: &str) -> BTreeMap<String, (f64, String)> {
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    let body = &last[last.find("\"metrics\": {").unwrap() + 12..];
    body.split("}, ")
        .map(|entry| {
            let entry = entry.trim_end_matches('}');
            let (name, rest) = entry.split_once("\": {\"value\": ").unwrap();
            let (value, unit) = rest.split_once(", \"unit\": \"").unwrap();
            (
                name.trim_start_matches('"').to_string(),
                (
                    value.parse().unwrap(),
                    unit.trim_end_matches('"').to_string(),
                ),
            )
        })
        .collect()
}

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .unwrap();
    let start = text.find(&format!("\"{section}\": [")).unwrap();
    let end = start + text[start..].find(']').unwrap();
    text[start..end]
        .lines()
        .filter_map(|l| {
            let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
            let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
            Some((name.to_string(), unit.to_string()))
        })
        .collect()
}

fn assert_prints_declared(
    metrics: &BTreeMap<String, (f64, String)>,
    section: &str,
    workload: &str,
) {
    let want = declared(section);
    assert!(!want.is_empty());
    for (name, unit) in &want {
        let (value, got_unit) = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(got_unit, unit, "{workload}: unit of {name}");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    assert_eq!(
        metrics.len(),
        want.len(),
        "{workload}: undeclared metrics printed"
    );
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let dir = scratch("metrics");
    for w in WORKLOADS {
        let plain = result_metrics(&kpbench(&dir, w, 3, false));
        assert_prints_declared(&plain, "end_to_end", w);
        for name in ["wall_s", "peak_heap_mb", "job_p50_ms", "jobs_per_s"] {
            assert!(plain[name].0 > 0.0, "{w}: {name} = {}", plain[name].0);
        }
        let traced = result_metrics(&kpbench(&dir, w, 3, true));
        assert_prints_declared(&traced, "per_layer", w);
    }
}

/// Parses a span file: `(name, start, end, parent)` per span.
fn spans(path: &Path) -> Vec<(String, u64, u64, Option<usize>)> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .skip(2)
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            (
                f[1].to_string(),
                f[2].parse().unwrap(),
                f[3].parse().unwrap(),
                f[4].parse().ok(),
            )
        })
        .collect()
}

#[test]
fn spans_nest_and_children_fit_in_their_parent() {
    let dir = scratch("spans");
    for w in WORKLOADS {
        let out = kpbench(&dir, w, 5, true);
        assert!(out.contains("layer table (replay)"), "{w}: no layer table");
        assert!(out.contains("regime: branch"), "{w}: no regime line");
        let spans = spans(&dir.join(format!(".kpbench_work/spans-{w}-seed5.tsv")));
        assert!(
            spans.iter().any(|s| s.0 == "branch"),
            "{w}: no branch spans"
        );
        let mut child_time = vec![0u64; spans.len()];
        for (name, start, end, parent) in &spans {
            assert!(start <= end, "{w}: {name} ends before it starts");
            if let Some(p) = *parent {
                let (pname, pstart, pend, _) = &spans[p];
                assert!(
                    pstart <= start && end <= pend,
                    "{w}: {name} [{start}, {end}] outside {pname} [{pstart}, {pend}]"
                );
                child_time[p] += end - start;
            }
        }
        for (i, (name, start, end, _)) in spans.iter().enumerate() {
            assert!(
                child_time[i] <= end - start,
                "{w}: children of {name} exceed it"
            );
        }
    }
}

#[test]
fn exact_counts_repeat_across_runs() {
    let dir = scratch("exact");
    for w in WORKLOADS {
        let a = result_metrics(&kpbench(&dir, w, 7, true));
        let b = result_metrics(&kpbench(&dir, w, 7, true));
        for name in EXACT {
            assert_eq!(a[name].0, b[name].0, "{w}: {name} differs between runs");
        }
        assert!(
            a["branch.calls"].0 > 0.0 && a["sink.reports"].0 > 0.0,
            "{w}: no work"
        );
    }
}

#[test]
fn default_seed_reproduces_the_registry_recipes() {
    for recipe in [
        Recipe::AsSkitter,
        Recipe::Enwiki,
        Recipe::SocPokec,
        Recipe::WikiVote,
        Recipe::Jazz,
    ] {
        let registry = kplex_datasets::by_name(recipe.name()).unwrap().generate();
        assert!(
            recipe.generate(0, Size::Full) == registry,
            "{} differs",
            recipe.name()
        );
        assert!(
            recipe.generate(1, Size::Full) != registry,
            "{} ignores the seed",
            recipe.name()
        );
    }
}
