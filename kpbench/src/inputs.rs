//! Workload inputs: the dataset registry's generator recipes with a seed
//! offset, each workload's job list, and the files a run hands the program.
//!
//! Offset 0 reproduces a registry recipe exactly (`kplex_datasets`), so the
//! default seed runs the graphs the rest of the repository knows by name.

use kplex_core::{enumerate_count, AlgoConfig, Params};
use kplex_graph::gen::{self, PlantedPlexConfig, RmatConfig};
use kplex_graph::{io, CsrGraph};
use std::path::{Path, PathBuf};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Search-bound: the branch kernel does almost all the work.
    BranchHeavy,
    /// Construction-bound: seed building and row decode do the work.
    SeedHeavy,
    /// Client → kplexr → kplexd jobs: latency and streaming.
    ServiceRouted,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::BranchHeavy,
        Workload::SeedHeavy,
        Workload::ServiceRouted,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BranchHeavy => "branch-heavy",
            Workload::SeedHeavy => "seed-heavy",
            Workload::ServiceRouted => "service-routed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Input variants one run covers. Work per graph varies with the
    /// generator seed: skitter's branch calls spread 2.2M–4.0M (15%
    /// coefficient of variation) and jazz's plex count 17k–33k. Covering
    /// several variants keeps a run's total work steady across seeds.
    pub fn variants(self) -> u64 {
        match self {
            Workload::BranchHeavy => 8,
            Workload::SeedHeavy => 4,
            Workload::ServiceRouted => 4,
        }
    }

    /// The graphs of one variant, each with its jobs in one round.
    fn recipes(self) -> &'static [(Recipe, &'static [(Store, Class)])] {
        use {Class::*, Store::*};
        match self {
            Workload::BranchHeavy => &[(Recipe::AsSkitter, &[(Csr, Engine)])],
            Workload::SeedHeavy => &[(Recipe::Enwiki, &[(Csr, Engine), (Mmap, Engine)])],
            Workload::ServiceRouted => &[
                (Recipe::SocPokec, &[(Csr, Small)]),
                (Recipe::WikiVote, &[(Csr, Small)]),
                (Recipe::Jazz, &[(Csr, Stream)]),
            ],
        }
    }
}

/// Input scale: the registry recipes, or tiny stand-ins for the
/// benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The registry recipes.
    Full,
    /// Graphs of a few hundred vertices, enumerated in milliseconds.
    Tiny,
}

/// A dataset-registry generator recipe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recipe {
    /// RMAT internet topology plus planted and organic communities.
    AsSkitter,
    /// Wikipedia-like power-law graph, 24k vertices.
    Enwiki,
    /// Large social graph, 12k vertices.
    SocPokec,
    /// Small who-votes-on-whom graph.
    WikiVote,
    /// Small dense collaboration graph.
    Jazz,
}

impl Recipe {
    /// The registry name of the dataset this recipe generates.
    pub fn name(self) -> &'static str {
        match self {
            Recipe::AsSkitter => "as-skitter",
            Recipe::Enwiki => "enwiki-2021",
            Recipe::SocPokec => "soc-pokec",
            Recipe::WikiVote => "wiki-vote",
            Recipe::Jazz => "jazz",
        }
    }

    /// The (k, q) the benchmark enumerates this graph with.
    pub fn params(self, size: Size) -> Params {
        let (k, q) = match (self, size) {
            (_, Size::Tiny) => (2, 8),
            (Recipe::AsSkitter, _) => (2, 16),
            (Recipe::Enwiki | Recipe::SocPokec, _) => (2, 12),
            (Recipe::WikiVote, _) => (3, 9),
            (Recipe::Jazz, _) => (2, 5),
        };
        Params::new(k, q).expect("q >= 2k - 1")
    }

    /// Generates the graph. Every generator seed of the registry recipe is
    /// shifted by `offset`.
    pub fn generate(self, offset: u64, size: Size) -> CsrGraph {
        let s = |base: u64| base.wrapping_add(offset);
        let rmat = |scale, edge_factor, seed| {
            gen::rmat(
                RmatConfig {
                    scale,
                    edge_factor,
                    ..RmatConfig::default()
                },
                seed,
            )
        };
        match (self, size) {
            (Recipe::AsSkitter, Size::Full) => {
                plant_mixed(rmat(13, 6, s(0xA00B)), 16, 10, 14, 3, s(0xB00B))
            }
            (Recipe::Enwiki, Size::Full) => plant_mixed(
                gen::powerlaw_cluster(24_000, 9, 0.45, s(0xA00C)),
                40,
                10,
                15,
                3,
                s(0xB00C),
            ),
            (Recipe::SocPokec, Size::Full) => plant_mixed(
                gen::powerlaw_cluster(12_000, 8, 0.40, s(0xA00A)),
                24,
                9,
                14,
                3,
                s(0xB00A),
            ),
            (Recipe::WikiVote, Size::Full) => plant_mixed(
                gen::powerlaw_cluster(2400, 7, 0.55, s(0xA002)),
                14,
                9,
                13,
                2,
                s(0xB002),
            ),
            (Recipe::Jazz, Size::Full) => {
                plant_mixed(gen::gnp(200, 0.10, s(0xA001)), 8, 9, 13, 2, s(0xB001))
            }
            (_, Size::Tiny) => plant_mixed(gen::gnp(120, 0.08, s(0xA001)), 4, 8, 10, 2, s(0xB001)),
        }
    }
}

/// The registry's `plant_mixed`: near-cliques, looser planted plexes and
/// dense organic blobs on top of a background graph.
fn plant_mixed(
    bg: CsrGraph,
    count: usize,
    lo: usize,
    hi: usize,
    miss_hi: usize,
    seed: u64,
) -> CsrGraph {
    let plant = |bg: &CsrGraph, count, missing, seed| {
        let cfg = PlantedPlexConfig {
            count,
            size_lo: lo,
            size_hi: hi,
            missing,
            overlap: false,
        };
        gen::planted_plexes(bg, &cfg, seed).0
    };
    let tight = count.div_ceil(2);
    let g = plant(&bg, tight, 1, seed);
    let g = plant(&g, count - tight, miss_hi.clamp(2, 3), seed ^ 0x5EED);
    gen::dense_blobs(&g, count, hi, hi + 5, 0.82, seed ^ 0xB10B)
}

/// One generated graph of a run.
#[derive(Clone, Copy, Debug)]
pub struct GraphSpec {
    /// The generator recipe.
    pub recipe: Recipe,
    /// Seed offset applied to the recipe.
    pub offset: u64,
}

/// Which store a job's graph is read through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Store {
    /// In-RAM CSR.
    Csr,
    /// The mmap'd `.kpx` file (prepared into compressed rows).
    Mmap,
}

impl Store {
    /// Label used in metric names and reports.
    pub fn label(self) -> &'static str {
        match self {
            Store::Csr => "csr",
            Store::Mmap => "mmap",
        }
    }
}

/// What a job is, for the metrics that look at one class only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A job run through the parallel engine in this process.
    Engine,
    /// A short service job (latency).
    Small,
    /// A service job that streams many results (bytes).
    Stream,
}

/// One job of a round.
#[derive(Clone, Copy, Debug)]
pub struct JobSpec {
    /// Index into [`Plan::graphs`].
    pub graph: usize,
    /// The store the graph is read through.
    pub store: Store,
    /// Job class.
    pub class: Class,
}

/// A run's inputs and its fixed job list (one round).
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload seed.
    pub seed: u64,
    /// Input scale.
    pub size: Size,
    /// The graphs the run generates.
    pub graphs: Vec<GraphSpec>,
    /// One round: every job of the fixed list, in canonical order.
    pub round: Vec<JobSpec>,
}

impl Plan {
    /// The plan of `workload` under `seed`: [`Workload::variants`] copies
    /// of the workload's graphs, variant `v` at offset `variants·seed + v`.
    pub fn new(workload: Workload, seed: u64, size: Size) -> Plan {
        let variants = workload.variants();
        let mut graphs = Vec::new();
        let mut round = Vec::new();
        for v in 0..variants {
            let offset = seed.wrapping_mul(variants).wrapping_add(v);
            for &(recipe, jobs) in workload.recipes() {
                let graph = graphs.len();
                graphs.push(GraphSpec { recipe, offset });
                round.extend(jobs.iter().map(|&(store, class)| JobSpec {
                    graph,
                    store,
                    class,
                }));
            }
        }
        Plan {
            seed,
            size,
            graphs,
            round,
        }
    }

    /// The job list of round `round`, shuffled by the workload seed.
    pub fn round_order(&self, round: u64) -> Vec<JobSpec> {
        let mut jobs = self.round.clone();
        let mut rng = crate::sys::SplitMix(self.seed ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.shuffle(&mut jobs);
        jobs
    }

    /// Parameters of graph `g`.
    pub fn params(&self, g: usize) -> Params {
        self.graphs[g].recipe.params(self.size)
    }

    /// The class of the jobs on graph `g` (one class per graph).
    pub fn class_of(&self, g: usize) -> Class {
        self.round
            .iter()
            .find(|j| j.graph == g)
            .expect("every graph has a job")
            .class
    }

    /// Whether any job reads through the mmap store.
    pub fn uses(&self, store: Store) -> bool {
        self.round.iter().any(|j| j.store == store)
    }
}

/// The edge-list file of graph `g` in `dir`.
pub fn edge_list_path(dir: &Path, g: usize) -> PathBuf {
    dir.join(format!("g{g}.txt"))
}

/// The `.kpx` file of graph `g` in `dir`.
pub fn kpx_path(dir: &Path, g: usize) -> PathBuf {
    dir.join(format!("g{g}.kpx"))
}

fn refs_path(dir: &Path) -> PathBuf {
    dir.join("refs.tsv")
}

/// Generates every graph of `plan` into `dir` as an edge list, reads it
/// back, converts that to a `.kpx` file, and counts its maximal k-plexes
/// with the sequential enumerator, so the reference describes exactly what
/// the program receives. Graphs are handled on up to `threads` threads, one
/// graph per thread at a time; the counts land in `refs.tsv`.
pub fn write_inputs(plan: &Plan, dir: &Path, threads: usize) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let counts: Vec<std::sync::Mutex<Option<u64>>> = plan
        .graphs
        .iter()
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let work = || -> Result<(), String> {
        loop {
            // ordering: a plain work-claiming ticket; results travel through
            // the mutexes, which synchronise on their own.
            let g = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some(spec) = plan.graphs.get(g) else {
                return Ok(());
            };
            let path = edge_list_path(dir, g);
            let graph = spec.recipe.generate(spec.offset, plan.size);
            let file =
                std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            io::write_edge_list(&graph, file).map_err(|e| e.to_string())?;
            let (graph, _) = io::read_edge_list(&path).map_err(|e| e.to_string())?;
            kplex_graph::write_kpx(&graph, kpx_path(dir, g)).map_err(|e| e.to_string())?;
            let (count, _) =
                enumerate_count(&graph, spec.recipe.params(plan.size), &AlgoConfig::ours());
            *counts[g].lock().expect("no reference thread panicked") = Some(count);
        }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.clamp(1, plan.graphs.len()))
            .map(|_| s.spawn(work))
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("reference thread panicked"))
    })?;
    let lines: String = counts
        .iter()
        .enumerate()
        .map(|(g, c)| {
            let c = c
                .lock()
                .expect("no reference thread panicked")
                .expect("every graph counted");
            format!("{g}\t{c}\n")
        })
        .collect();
    std::fs::write(refs_path(dir), lines).map_err(|e| e.to_string())
}

/// Reads the reference counts [`write_inputs`] left in `dir`.
pub fn read_refs(dir: &Path, graphs: usize) -> Result<Vec<u64>, String> {
    let text = std::fs::read_to_string(refs_path(dir)).map_err(|e| e.to_string())?;
    let refs: Vec<u64> = text
        .lines()
        .map(|l| {
            l.split('\t')
                .nth(1)
                .and_then(|c| c.parse().ok())
                .ok_or_else(|| format!("bad reference line {l:?}"))
        })
        .collect::<Result<_, _>>()?;
    if refs.len() != graphs {
        return Err(format!(
            "{} reference counts for {graphs} graphs",
            refs.len()
        ));
    }
    Ok(refs)
}
