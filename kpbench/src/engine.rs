//! Engine-side measurement: loading the inputs into the program's stores,
//! the measured parallel-engine jobs of `branch-heavy` and `seed-heavy`,
//! and the traced run's sequential layer replay and engine calls.

use crate::inputs::{edge_list_path, kpx_path, JobSpec, Plan, Store};
use crate::measure::{measure_rounds, repeat_setup, Outcome, Report, Sample};
use crate::sys::{cpu_seconds, nproc};
use crate::trace::{Group, Tracer};
use kplex_core::{
    collect_subtasks, enumerate_count, prepare, AlgoConfig, CountSink, MapSink, PairMatrix, Params,
    PlexSink, SearchStats, Searcher, SeedBuilder, SinkFlow,
};
use kplex_graph::{io, CoreDecomposition, GraphStore, StoreBackend, StoreKind, VertexId};
use kplex_parallel::{run_parallel_prepared, EngineOptions, SchedEvent, SchedMetrics};
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The run's graphs, resident in the program's stores.
pub struct Stores {
    csr: Vec<StoreBackend>,
    mmap: Vec<Option<StoreBackend>>,
}

impl Stores {
    /// The store job `job` reads.
    pub fn get(&self, graph: usize, store: Store) -> &StoreBackend {
        match store {
            Store::Csr => &self.csr[graph],
            Store::Mmap => self.mmap[graph].as_ref().expect("mmap store opened"),
        }
    }
}

/// Runs `f` inside a span named `name` when a tracer is given.
fn spanned<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = tr.as_mut().map(|t| t.open(name));
    let out = f();
    if let (Some(t), Some(id)) = (tr.as_mut(), id) {
        t.close(id, &[]);
    }
    out
}

/// Loads every edge list of `plan` into a CSR store and, where `mmap` is
/// set, converts it to `.kpx` and opens the mapped store. With a tracer,
/// each step is a span.
pub fn load(
    plan: &Plan,
    dir: &Path,
    mmap: bool,
    mut tr: Option<&mut Tracer>,
) -> Result<Stores, String> {
    let mut stores = Stores {
        csr: Vec::new(),
        mmap: Vec::new(),
    };
    for g in 0..plan.graphs.len() {
        if let Some(t) = tr.as_mut() {
            t.job(format!("load-g{g}"), Group::Setup);
        }
        let (graph, _) = spanned(&mut tr, "graph.load", || {
            io::read_edge_list(edge_list_path(dir, g))
        })
        .map_err(|e| e.to_string())?;
        let mapped = if mmap {
            let m = spanned(&mut tr, "graph.open_mmap", || {
                StoreBackend::open_mmap(kpx_path(dir, g))
            })
            .map_err(|e| e.to_string())?;
            Some(m)
        } else {
            None
        };
        stores
            .csr
            .push(StoreBackend::from_graph(graph, StoreKind::Csr));
        stores.mmap.push(mapped);
    }
    Ok(stores)
}

/// Counts results and stamps the first one.
#[derive(Default)]
struct FirstSink {
    count: u64,
    first: Option<Instant>,
}

impl PlexSink for FirstSink {
    fn report(&mut self, _vertices: &[VertexId]) -> SinkFlow {
        if self.first.is_none() {
            self.first = Some(Instant::now());
        }
        self.count += 1;
        SinkFlow::Continue
    }
}

/// One engine job: prepare the store, run the parallel engine with a
/// counting sink. Returns `(count, latency s, first result s, stats)`.
fn engine_job(
    store: &StoreBackend,
    params: Params,
    opts: &EngineOptions,
) -> (u64, f64, Option<f64>, SearchStats) {
    let t0 = Instant::now();
    let prep = prepare(store, params);
    let (sinks, stats) =
        run_parallel_prepared(&prep, params, &AlgoConfig::ours(), opts, FirstSink::default);
    let latency = t0.elapsed().as_secs_f64();
    let count = sinks.iter().map(|s| s.count).sum();
    let first = sinks
        .iter()
        .filter_map(|s| s.first)
        .min()
        .map(|f| f.duration_since(t0).as_secs_f64());
    (count, latency, first, stats)
}

/// The measured run of an engine workload.
pub fn run(
    plan: &Plan,
    refs: &[u64],
    dir: &Path,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let mmap = plan.uses(Store::Mmap);
    let stores = repeat_setup(report, || load(plan, dir, mmap, None), drop)?;
    let opts = EngineOptions::with_threads(nproc());
    measure_rounds(plan, seconds, report, |job: JobSpec| {
        let (count, latency_s, first_s, _) = engine_job(
            stores.get(job.graph, job.store),
            plan.params(job.graph),
            &opts,
        );
        if count != refs[job.graph] {
            return Outcome::Wrong(format!(
                "graph {} ({}) gave {count} plexes, reference {}",
                job.graph,
                job.store.label(),
                refs[job.graph]
            ));
        }
        Outcome::Done(Sample {
            job,
            latency_s,
            first_s,
            results: count,
        })
    });
    Ok(())
}

/// A [`GraphStore`] that counts and times every `row` call.
struct RowClock<'a> {
    inner: &'a StoreBackend,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl<'a> RowClock<'a> {
    fn new(inner: &'a StoreBackend) -> Self {
        RowClock {
            inner,
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// `(calls, nanos)` since the last take.
    fn take(&self) -> (u64, u64) {
        // ordering: single-threaded counters; Relaxed suffices.
        (
            self.calls.swap(0, Ordering::Relaxed),
            self.nanos.swap(0, Ordering::Relaxed),
        )
    }
}

impl GraphStore for RowClock<'_> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }
    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }
    fn degree(&self, v: VertexId) -> usize {
        self.inner.degree(v)
    }
    fn row<'b>(&'b self, v: VertexId, scratch: &'b mut Vec<VertexId>) -> &'b [VertexId] {
        let t = Instant::now();
        let row = self.inner.row(v, scratch);
        // ordering: statistics only.
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        row
    }
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.inner.has_edge(u, v)
    }
    fn kind(&self) -> StoreKind {
        self.inner.kind()
    }
    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }
    fn degeneracy_order(&self) -> CoreDecomposition {
        self.inner.degeneracy_order()
    }
}

/// A sink wrapper that counts and times every `report` call.
struct ClockSink<'a, S> {
    inner: S,
    calls: &'a Cell<u64>,
    nanos: &'a Cell<u64>,
}

impl<S: PlexSink> PlexSink for ClockSink<'_, S> {
    fn report(&mut self, vertices: &[VertexId]) -> SinkFlow {
        let t = Instant::now();
        let flow = self.inner.report(vertices);
        self.nanos
            .set(self.nanos.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        flow
    }
}

fn row_span(store: Store) -> &'static str {
    match store {
        Store::Csr => "graph.row.csr",
        Store::Mmap => "graph.row.mmap",
    }
}

/// Counts of one sequential replay.
#[derive(Default)]
struct Replayed {
    count: u64,
    stats: SearchStats,
    reduced_n: u64,
    build_calls: u64,
    built: u64,
}

/// The sequential pipeline of `kplex_core::enumerate`, with a span around
/// every layer call: `prepare`, `seed.build` per attempted seed,
/// `subtask` (pair matrix + sub-task split) and `branch` (every
/// `run_task` of one seed) per built seed, with row and sink calls summed
/// into summary spans. With `search` unset it stops after seed building.
fn replay(
    tr: &mut Tracer,
    store: &StoreBackend,
    row: &'static str,
    params: Params,
    search: bool,
) -> Replayed {
    let cfg = AlgoConfig::ours();
    let mut out = Replayed::default();
    let job = tr.open("job");
    let input = RowClock::new(store);
    let id = tr.open("prepare");
    let prep = prepare(&input, params);
    let (calls, nanos) = input.take();
    tr.close(id, &[(row, calls, nanos)]);
    out.reduced_n = prep.graph.num_vertices() as u64;
    if prep.graph.num_vertices() >= params.q {
        let rows = RowClock::new(&prep.graph);
        let mut builder = SeedBuilder::new(prep.graph.num_vertices());
        let mut counter = CountSink::default();
        let (sink_calls, sink_nanos) = (Cell::new(0), Cell::new(0));
        let mut sink = ClockSink {
            inner: MapSink::new(&mut counter, &prep.map),
            calls: &sink_calls,
            nanos: &sink_nanos,
        };
        for &sv in &prep.decomp.order {
            let id = tr.open("seed.build");
            let seed = builder.build(&rows, &prep.decomp, sv, params, &cfg);
            let (calls, nanos) = rows.take();
            tr.close(id, &[(row, calls, nanos)]);
            out.build_calls += 1;
            let Some(seed) = seed else { continue };
            out.built += 1;
            if !search {
                continue;
            }
            out.stats.seed_graphs += 1;
            out.stats.seed_pruned_vertices += seed.pruned_vertices;
            let id = tr.open("subtask");
            let pairs = cfg.use_r2.then(|| PairMatrix::build(&seed, params));
            let tasks = collect_subtasks(&seed, params, &cfg, pairs.as_ref(), &mut out.stats);
            tr.close(id, &[]);
            let id = tr.open("branch");
            let mut searcher = Searcher::new(&seed, params, &cfg, pairs.as_ref());
            for t in &tasks {
                searcher.run_task(t.p(), t.c(), t.x(), &mut sink);
            }
            out.stats.merge(&searcher.stats);
            tr.close(
                id,
                &[("sink", sink_calls.replace(0), sink_nanos.replace(0))],
            );
        }
        drop(sink);
        out.count = counter.count;
    }
    tr.close(job, &[]);
    out
}

/// Parked time per worker, from the scheduler hook's timestamps.
struct ParkClock {
    since: Vec<Mutex<Option<Instant>>>,
    nanos: AtomicU64,
}

/// The traced run's engine layers: loads the inputs (spans), replays each
/// job of one round sequentially untraced and then traced, probes seed
/// construction on any store the workload's jobs leave unused, and runs
/// each job through the engine at `nproc` threads with scheduler hook and
/// counters. Returns the loaded stores.
pub fn traced(
    plan: &Plan,
    refs: &[u64],
    dir: &Path,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<Stores, String> {
    let stores = load(plan, dir, true, Some(tr))?;
    // A round holds each (graph, store) pair once.
    let jobs: Vec<(usize, Store)> = plan.round.iter().map(|j| (j.graph, j.store)).collect();

    // Untraced sequential baseline, then the traced replay of the same jobs.
    let mut untraced_s = 0.0;
    let mut baseline = Vec::new();
    for &(g, store) in &jobs {
        report.attempted += 1;
        let t0 = Instant::now();
        let (count, stats) =
            enumerate_count(stores.get(g, store), plan.params(g), &AlgoConfig::ours());
        untraced_s += t0.elapsed().as_secs_f64();
        if count != refs[g] {
            report.wrong.push(format!(
                "sequential count {count} on graph {g}, reference {}",
                refs[g]
            ));
        }
        baseline.push((count, stats));
    }
    let mut traced_s = 0.0;
    let mut total = Replayed::default();
    for (&(g, store), (count, stats)) in jobs.iter().zip(&baseline) {
        tr.job(format!("g{g}-{}", store.label()), Group::Replay);
        let t0 = Instant::now();
        let r = replay(
            tr,
            stores.get(g, store),
            row_span(store),
            plan.params(g),
            true,
        );
        traced_s += t0.elapsed().as_secs_f64();
        if r.count != *count || r.stats != *stats {
            report.wrong.push(format!(
                "traced replay of graph {g} ({}) gave {} plexes / {:?}, untraced {count} / {stats:?}",
                store.label(),
                r.count,
                r.stats.kernel_fingerprint()
            ));
        }
        total.count += r.count;
        total.reduced_n += r.reduced_n;
        total.build_calls += r.build_calls;
        total.built += r.built;
        total.stats.merge(&r.stats);
    }
    for store in [Store::Csr, Store::Mmap] {
        if plan.uses(store) {
            continue;
        }
        for g in 0..plan.graphs.len() {
            tr.job(format!("g{g}-{}-seeds", store.label()), Group::Probe);
            replay(
                tr,
                stores.get(g, store),
                row_span(store),
                plan.params(g),
                false,
            );
        }
    }

    let seq_s = |name| tr.self_s(Group::Replay, name);
    let row_s = |store: Store| {
        tr.self_s(Group::Replay, row_span(store)) + tr.self_s(Group::Probe, row_span(store))
    };
    let row_calls: u64 = [Store::Csr, Store::Mmap]
        .iter()
        .map(|&s| tr.calls(Group::Replay, row_span(s)) + tr.calls(Group::Probe, row_span(s)))
        .sum();
    report.metric("trace.overhead", traced_s / untraced_s - 1.0, "ratio");
    report.metric(
        "graph.load_s",
        tr.table(Group::Setup).values().map(|r| r.2).sum::<u64>() as f64 / 1e9,
        "s",
    );
    report.metric("graph.row_calls", row_calls as f64, "count");
    report.metric("graph.row_s.csr", row_s(Store::Csr), "s");
    report.metric("graph.row_s.mmap", row_s(Store::Mmap), "s");
    report.metric("prepare.s", seq_s("prepare"), "s");
    report.metric("prepare.reduced_n", total.reduced_n as f64, "count");
    report.metric("seed.build_calls", total.build_calls as f64, "count");
    report.metric("seed.built", total.built as f64, "count");
    report.metric("seed.build_s", seq_s("seed.build"), "s");
    report.metric(
        "seed.built_ratio",
        total.built as f64 / total.build_calls.max(1) as f64,
        "ratio",
    );
    report.metric("subtask.s", seq_s("subtask"), "s");
    report.metric("subtask.tasks", total.stats.subtasks as f64, "count");
    report.metric("subtask.r1_pruned", total.stats.r1_pruned as f64, "count");
    report.metric("branch.s", seq_s("branch"), "s");
    report.metric("branch.calls", total.stats.branch_calls as f64, "count");
    report.metric("branch.ub_pruned", total.stats.ub_pruned as f64, "count");
    report.metric(
        "branch.outputs_per_call",
        total.stats.outputs as f64 / total.stats.branch_calls.max(1) as f64,
        "ratio",
    );
    report.metric(
        "sink.reports",
        tr.calls(Group::Replay, "sink") as f64,
        "count",
    );
    report.metric("sink.s", seq_s("sink"), "s");
    report.note(format!(
        "sequential replay: untraced {untraced_s:.3} s, traced {traced_s:.3} s, {} plexes",
        total.count
    ));

    traced_engine(plan, refs, &stores, &jobs, untraced_s, tr, report);
    Ok(stores)
}

/// Engine calls of the traced run: each distinct job at `nproc` threads
/// with scheduler counters and a parking hook. `sequential_s` is the same
/// jobs' single-threaded time (the untraced sequential enumerator).
fn traced_engine(
    plan: &Plan,
    refs: &[u64],
    stores: &Stores,
    jobs: &[(usize, Store)],
    sequential_s: f64,
    tr: &mut Tracer,
    report: &mut Report,
) {
    let threads = nproc();
    let (mut wall_n, mut cpu_n) = (0.0, 0.0);
    let metrics = Arc::new(SchedMetrics::default());
    let parked = Arc::new(ParkClock {
        since: (0..threads).map(|_| Mutex::new(None)).collect(),
        nanos: AtomicU64::new(0),
    });
    let hook_clock = parked.clone();
    let mut opts = EngineOptions::with_threads(threads);
    opts.metrics = Some(metrics.clone());
    opts.sched_hook = Some(Arc::new(move |ev| {
        let slot = |w: usize| hook_clock.since[w].lock().expect("park clock lock");
        match ev {
            SchedEvent::Parking(w) => *slot(w) = Some(Instant::now()),
            SchedEvent::Unparked(w) => {
                if let Some(t) = slot(w).take() {
                    // ordering: statistics only.
                    hook_clock
                        .nanos
                        .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            }
            _ => {}
        }
    }));
    for &(g, store) in jobs {
        report.attempted += 1;
        tr.job(format!("g{g}-{}", store.label()), Group::Engine);
        let id = tr.open("engine.run");
        let c0 = cpu_seconds();
        let (count, latency, _, _) = engine_job(stores.get(g, store), plan.params(g), &opts);
        cpu_n += cpu_seconds() - c0;
        wall_n += latency;
        tr.close(id, &[]);
        if count != refs[g] {
            report.wrong.push(format!(
                "engine count {count} at {threads} threads on graph {g}, reference {}",
                refs[g]
            ));
        }
    }
    report.metric(
        "engine.utilization",
        cpu_n / (threads as f64 * wall_n),
        "ratio",
    );
    report.metric(
        "engine.efficiency_1t",
        sequential_s / (threads as f64 * wall_n),
        "ratio",
    );
    report.metric("sched.steals", metrics.steals() as f64, "count");
    report.metric(
        "sched.injector_steals",
        metrics.injector_steals() as f64,
        "count",
    );
    report.metric("sched.parks", metrics.parks() as f64, "count");
    // ordering: read after every engine call joined its workers.
    report.metric(
        "sched.parked_s",
        parked.nanos.load(Ordering::Relaxed) as f64 / 1e9,
        "s",
    );
}
