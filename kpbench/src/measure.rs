//! The measured loop shared by every workload, and the run's report.

use crate::inputs::{Class, JobSpec, Plan};
use crate::sys::{cpu_seconds, median, peak_rss_mb, quantile, HeapPeak};
use std::collections::BTreeMap;
use std::time::Instant;

/// Minimum samples a percentile needs beyond it before it is reported.
const TAIL_SAMPLES: usize = 10;

/// Set-up repeats at least this often, and for at least [`SETUP_MIN_S`].
const SETUP_REPS: usize = 5;

/// Minimum total seconds spent repeating set-up, so a set-up of a few
/// milliseconds still gets a steady median.
const SETUP_MIN_S: f64 = 2.0;

/// Repeats `setup` (tearing the previous result down first) at least
/// [`SETUP_REPS`] times and [`SETUP_MIN_S`] seconds, reports the median
/// time as `setup_s`, and returns the last result.
pub fn repeat_setup<T, E>(
    report: &mut Report,
    mut setup: impl FnMut() -> Result<T, E>,
    mut teardown: impl FnMut(T),
) -> Result<T, E> {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_S {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    report.metric("setup_s", median(&times), "s");
    report.note(format!("set-up repeated {} times", times.len()));
    Ok(last.expect("set-up ran at least once"))
}

/// One completed job.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// The job.
    pub job: JobSpec,
    /// Start (or `SUBMIT`) to last result, seconds.
    pub latency_s: f64,
    /// Start (or `SUBMIT`) to first result, seconds.
    pub first_s: Option<f64>,
    /// Results the job delivered.
    pub results: u64,
}

/// How one job ended.
pub enum Outcome {
    /// Finished with the reference count.
    Done(Sample),
    /// Refused, answered `ERR`, or ended in a state other than `done`.
    Failed(String),
    /// Finished with a wrong result: a correctness failure.
    Wrong(String),
}

/// Everything a run prints.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Jobs attempted: the measured rounds' jobs, or every job a traced
    /// run runs.
    pub attempted: u64,
    /// Jobs that failed or were refused.
    pub failed: u64,
    /// Correctness failures; any entry makes the run fail.
    pub wrong: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every output matched its reference.
    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// The result object: one JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The median of `value` over the samples of each distinct job (graph and
/// store), averaged over the jobs. A round mixes jobs whose latencies sit
/// far apart; a plain median over the mixture would land between two of
/// them and jump whenever one moves.
fn per_job_median(samples: &[Sample], value: impl Fn(&Sample) -> Option<f64>) -> f64 {
    let mut by_job: BTreeMap<(usize, &str), Vec<f64>> = BTreeMap::new();
    for s in samples {
        if let Some(v) = value(s) {
            by_job
                .entry((s.job.graph, s.job.store.label()))
                .or_default()
                .push(v);
        }
    }
    by_job.values().map(|v| median(v)).sum::<f64>() / by_job.len().max(1) as f64
}

/// Runs whole rounds of the plan's job list, each in its seed-shuffled
/// order, until `seconds` have passed (at least one round), then adds the
/// end-to-end metrics every workload reports. Stops at the first wrong
/// result.
pub fn measure_rounds(
    plan: &Plan,
    seconds: f64,
    report: &mut Report,
    mut run: impl FnMut(JobSpec) -> Outcome,
) {
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let heap = HeapPeak::start();
    let start = Instant::now();
    'rounds: for round in 0.. {
        let (t0, c0) = (Instant::now(), cpu_seconds());
        for job in plan.round_order(round) {
            report.attempted += 1;
            match run(job) {
                Outcome::Done(s) => samples.push(s),
                Outcome::Failed(why) => {
                    report.failed += 1;
                    report.note(format!("failed job: {why}"));
                }
                Outcome::Wrong(why) => {
                    report.wrong.push(why);
                    break 'rounds;
                }
            }
        }
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(cpu_seconds() - c0);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let total = start.elapsed().as_secs_f64();
    let peak_heap_mb = heap.finish();
    if samples.is_empty() || !report.correct() {
        report.note("no job completed".into());
        return;
    }
    // Latencies describe the small service jobs, or every engine job;
    // stream throughput describes the stream jobs, or every job.
    let of_class = |class: Class| -> Vec<Sample> {
        let of: Vec<Sample> = samples
            .iter()
            .copied()
            .filter(|s| s.job.class == class)
            .collect();
        if of.is_empty() {
            samples.clone()
        } else {
            of
        }
    };
    let small = of_class(Class::Small);
    let stream = of_class(Class::Stream);
    let stream_results: u64 = stream.iter().map(|s| s.results).sum();
    let stream_time: f64 = stream.iter().map(|s| s.latency_s).sum();

    report.metric("wall_s", median(&walls), "s");
    report.metric("cpu_s", median(&cpus), "s");
    report.metric("peak_heap_mb", peak_heap_mb, "MiB");
    report.metric(
        "first_result_ms",
        per_job_median(&small, |s| s.first_s) * 1e3,
        "ms",
    );
    report.metric(
        "job_p50_ms",
        per_job_median(&small, |s| Some(s.latency_s)) * 1e3,
        "ms",
    );
    report.metric("jobs_per_s", samples.len() as f64 / total, "1/s");

    let failed_ratio = report.failed as f64 / report.attempted as f64;
    report.note(format!(
        "rounds={} jobs={} failed_ratio={failed_ratio} measured_s={total:.3} \
         stream_results_per_s={} peak_rss_mb={}",
        walls.len(),
        samples.len(),
        stream_results as f64 / stream_time,
        peak_rss_mb()
    ));
    let latencies: Vec<f64> = small.iter().map(|s| s.latency_s * 1e3).collect();
    let p90_beyond = latencies.len() / 10;
    if p90_beyond >= TAIL_SAMPLES {
        report.note(format!(
            "job_p90_ms={} over {} samples ({p90_beyond} beyond it)",
            quantile(&latencies, 0.9),
            latencies.len()
        ));
    } else {
        report.note(format!(
            "job_p90_ms not reported: {} samples leave {p90_beyond} beyond p90, fewer than {TAIL_SAMPLES}",
            latencies.len()
        ));
    }
}
