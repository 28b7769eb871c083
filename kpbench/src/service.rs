//! Service-side measurement: an in-process kplexd behind an in-process
//! kplexr, driven through the public `Client` over loopback TCP.

use crate::engine::Stores;
use crate::inputs::{edge_list_path, Class, JobSpec, Plan, Store};
use crate::measure::{measure_rounds, repeat_setup, Outcome, Report, Sample};
use crate::sys::{median, nproc};
use crate::trace::{Group, Tracer};
use kplex_core::verify_results;
use kplex_service::protocol::render_plex_line;
use kplex_service::{
    Client, ClientError, JobId, Router, RouterConfig, RouterHandle, Server, ServerConfig,
    ServerHandle, SubmitArgs,
};
use std::path::Path;
use std::time::Instant;

/// `PING`s per path in the traced run.
const PINGS: usize = 15;

/// Result cap of the traced run's service jobs on the engine workloads,
/// whose full result sets are far larger than a service job streams.
pub const PROBE_LIMIT: u64 = 1000;

/// Result cap (`SUBMIT limit=`) of a stream job. The jazz recipe returns
/// 15.6k–39k plexes over generator seeds, so capping every stream below
/// that range moves the same bytes, and holds the same results in kplexd,
/// whatever the seed.
pub const STREAM_CAP: u64 = 15_000;

/// One kplexd (one runner, jobs at `nproc` threads) behind one kplexr.
struct Cluster {
    server: ServerHandle,
    router: RouterHandle,
}

impl Cluster {
    fn start(graphs: usize) -> Result<Cluster, String> {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            runners: 1,
            cache_cap: graphs,
            default_threads: nproc(),
            retain_terminal: 1,
            ..ServerConfig::default()
        })
        .and_then(Server::spawn)
        .map_err(|e| format!("kplexd: {e}"))?;
        let router = Router::bind(&RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: vec![server.addr().to_string()],
            ..RouterConfig::default()
        })
        .and_then(Router::spawn)
        .map_err(|e| format!("kplexr: {e}"))?;
        Ok(Cluster { server, router })
    }

    fn client(&self, routed: bool) -> Result<Client, String> {
        let addr = if routed {
            self.router.addr()
        } else {
            self.server.addr()
        };
        Client::connect(addr).map_err(|e| e.to_string())
    }

    fn stop(self) {
        self.router.shutdown();
        self.server.shutdown();
    }
}

/// One job as the client saw it; times are seconds since its `SUBMIT`.
struct Remote {
    submit_s: f64,
    first_s: Option<f64>,
    last_s: Option<f64>,
    latency_s: f64,
    results: u64,
    bytes: u64,
    plexes: Vec<Vec<u32>>,
    id: JobId,
    t0: Instant,
}

/// The `SUBMIT` of a job on graph `g` (its server-local edge-list file),
/// and the result count the job must return. A job returns every plex, or
/// the first `probe` in the traced run's probe, or the first
/// [`STREAM_CAP`] for a stream job.
fn submission(
    plan: &Plan,
    refs: &[u64],
    dir: &Path,
    g: usize,
    probe: Option<u64>,
) -> (SubmitArgs, u64) {
    let params = plan.params(g);
    let limit = probe.or((plan.class_of(g) == Class::Stream).then_some(STREAM_CAP));
    let args = SubmitArgs {
        path: Some(edge_list_path(dir, g).to_string_lossy().into_owned()),
        k: params.k,
        q: params.q,
        threads: Some(nproc()),
        limit,
        ..SubmitArgs::default()
    };
    (args, limit.map_or(refs[g], |l| l.min(refs[g])))
}

/// Submits, streams to `END`, and checks the job against `expected`
/// results. With `detail`, also keeps the plexes, their NDJSON byte count
/// and the last result's time.
fn remote_job(
    client: &mut Client,
    args: &SubmitArgs,
    expected: u64,
    detail: bool,
) -> Result<Remote, Outcome> {
    let failed = |e: ClientError| Outcome::Failed(e.to_string());
    let t0 = Instant::now();
    let id = client.submit(args).map_err(failed)?;
    let submit_s = t0.elapsed().as_secs_f64();
    let (mut first_s, mut last_s, mut results, mut bytes) = (None, None, 0u64, 0u64);
    let mut plexes = Vec::new();
    let end = client
        .stream(id, |seq, plex| {
            if first_s.is_none() {
                first_s = Some(t0.elapsed().as_secs_f64());
            }
            results += 1;
            if detail {
                last_s = Some(t0.elapsed().as_secs_f64());
                bytes += render_plex_line(id, seq, &plex).len() as u64 + 1;
                plexes.push(plex);
            }
        })
        .map_err(failed)?;
    let latency_s = t0.elapsed().as_secs_f64();
    let state = end.get("state").map_or("-", String::as_str);
    if state != "done" {
        return Err(Outcome::Failed(format!("job {id} ended {state}")));
    }
    let reported: Option<u64> = end.get("results").and_then(|r| r.parse().ok());
    if results != expected || reported != Some(results) {
        return Err(Outcome::Wrong(format!(
            "job {id} on {:?} streamed {results} plexes (END results={reported:?}), reference {expected}",
            args.path
        )));
    }
    Ok(Remote {
        submit_s,
        first_s,
        last_s,
        latency_s,
        results,
        bytes,
        plexes,
        id,
        t0,
    })
}

/// Starts a cluster and fills its cache cold: one routed job per graph.
/// Returns the cluster, a routed client, and the cold jobs.
fn cold_start(
    plan: &Plan,
    refs: &[u64],
    dir: &Path,
    probe: Option<u64>,
) -> Result<(Cluster, Client, Vec<Remote>), Outcome> {
    let cluster = Cluster::start(plan.graphs.len()).map_err(Outcome::Failed)?;
    let mut client = cluster.client(true).map_err(Outcome::Failed)?;
    let mut cold = Vec::new();
    for g in 0..plan.graphs.len() {
        let (args, expected) = submission(plan, refs, dir, g, probe);
        cold.push(remote_job(&mut client, &args, expected, false)?);
    }
    Ok((cluster, client, cold))
}

/// A set-up step that did not finish: a wrong result is recorded as a
/// correctness failure (the run then reports it); anything else ends the run.
fn setup_failed(o: Outcome, report: &mut Report) -> Result<(), String> {
    match o {
        Outcome::Wrong(why) => {
            report.wrong.push(why);
            Ok(())
        }
        Outcome::Failed(why) => Err(format!("service set-up failed: {why}")),
        Outcome::Done(_) => Err("service set-up failed".into()),
    }
}

/// The measured run of `service-routed`: repeated cold starts (their
/// median is `setup_s`; the last cluster stays up), then rounds of routed
/// jobs from one closed-loop client.
pub fn run(
    plan: &Plan,
    refs: &[u64],
    dir: &Path,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let started = repeat_setup(
        report,
        || cold_start(plan, refs, dir, None).map(|(cluster, client, _)| (cluster, client)),
        |(cluster, client)| {
            drop(client);
            cluster.stop();
        },
    );
    let (cluster, mut client) = match started {
        Ok(live) => live,
        Err(o) => return setup_failed(o, report),
    };
    measure_rounds(plan, seconds, report, |job: JobSpec| {
        let (args, expected) = submission(plan, refs, dir, job.graph, None);
        match remote_job(&mut client, &args, expected, false) {
            Ok(r) => Outcome::Done(Sample {
                job,
                latency_s: r.latency_s,
                first_s: r.first_s,
                results: r.results,
            }),
            Err(o) => o,
        }
    });
    drop(client);
    cluster.stop();
    Ok(())
}

/// Reads one numeric `STATS` field.
fn stat(fields: &std::collections::BTreeMap<String, String>, key: &str) -> f64 {
    fields.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// Median round trip of [`PINGS`] pings, in milliseconds.
fn ping_ms(client: &mut Client) -> Result<f64, String> {
    client.ping().map_err(|e| e.to_string())?;
    let mut rtt = Vec::new();
    for _ in 0..PINGS {
        let t0 = Instant::now();
        client.ping().map_err(|e| e.to_string())?;
        rtt.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&rtt))
}

/// The traced run's service layers, on every workload: ping round trips
/// direct and routed, a cold cache fill, then each distinct job warm,
/// routed and direct. On `service-routed` the warm jobs are one round of
/// its job list; on the engine workloads they are one job per graph capped
/// at `probe` results. The streamed plexes of every routed stream job are
/// checked with `verify_results`.
pub fn traced(
    plan: &Plan,
    refs: &[u64],
    dir: &Path,
    stores: &Stores,
    probe: Option<u64>,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let (cluster, mut routed, cold) = match cold_start(plan, refs, dir, probe) {
        Ok(started) => started,
        Err(o) => return setup_failed(o, report),
    };
    let cold_fill_s = cold.iter().map(|r| r.latency_s).sum::<f64>();
    tr.job("cold-fill".into(), Group::Service);
    for r in &cold {
        tr.record(
            "service.cold_job",
            r.t0,
            r.t0 + std::time::Duration::from_secs_f64(r.latency_s),
        );
    }
    let mut direct = cluster.client(false)?;
    let rtt_direct = ping_ms(&mut direct)?;
    let rtt_routed = ping_ms(&mut routed)?;

    let warm: Vec<JobSpec> = if probe.is_none() {
        plan.round.clone()
    } else {
        (0..plan.graphs.len())
            .map(|graph| JobSpec {
                graph,
                store: Store::Csr,
                class: Class::Stream,
            })
            .collect()
    };
    let (mut submit, mut overhead, mut hop) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lines, mut bytes, mut stream_s) = (0u64, 0u64, 0.0);
    for job in &warm {
        // One routed and one direct job.
        report.attempted += 2;
        let g = job.graph;
        let (args, expected) = submission(plan, refs, dir, g, probe);
        tr.job(
            format!("g{g}-{:?}", job.class).to_lowercase(),
            Group::Service,
        );
        let id = tr.open("service.job");
        let r = match remote_job(&mut routed, &args, expected, true) {
            Ok(r) => r,
            Err(o) => {
                tr.close(id, &[]);
                return setup_failed(o, report);
            }
        };
        let at = |s: f64| r.t0 + std::time::Duration::from_secs_f64(s);
        tr.record("protocol.submit", r.t0, at(r.submit_s));
        if let (Some(first), Some(last)) = (r.first_s, r.last_s) {
            tr.record("stream", at(first), at(last));
            stream_s += last - first;
        }
        tr.close(id, &[]);
        submit.push(r.submit_s * 1e3);
        lines += r.results;
        bytes += r.bytes;
        let status = routed.status(r.id).map_err(|e| e.to_string())?;
        overhead.push(r.latency_s * 1e3 - stat(&status, "elapsed-ms"));
        if job.class == Class::Stream {
            let violations = verify_results(stores.get(g, Store::Csr), args.k, args.q, &r.plexes);
            if let Some(v) = violations.first() {
                report.wrong.push(format!(
                    "graph {g}: {} violations, first: {v}",
                    violations.len()
                ));
            }
        }
        match remote_job(&mut direct, &args, expected, false) {
            Ok(d) => hop.push((r.latency_s - d.latency_s) * 1e3),
            Err(o) => return setup_failed(o, report),
        }
    }
    let stats = direct.stats().map_err(|e| e.to_string())?;
    let lookups =
        stat(&stats, "cache-hits") + stat(&stats, "cache-misses") + stat(&stats, "cache-coalesced");
    drop((direct, routed));
    cluster.stop();

    report.metric(
        "cache.hit_ratio",
        stat(&stats, "cache-hits") / lookups.max(1.0),
        "ratio",
    );
    report.metric("cache.cold_fill_s", cold_fill_s, "s");
    report.metric("protocol.rtt_direct_ms", rtt_direct, "ms");
    report.metric("protocol.rtt_routed_ms", rtt_routed, "ms");
    report.metric("protocol.submit_ms", median(&submit), "ms");
    report.metric("server.overhead_ms", median(&overhead), "ms");
    report.metric("router.hop_ms", median(&hop), "ms");
    report.metric("stream.lines", lines as f64, "count");
    report.metric("stream.bytes", bytes as f64, "bytes");
    report.metric("stream.s", stream_s, "s");
    Ok(())
}
