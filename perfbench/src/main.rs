//! The ibis end-to-end benchmark: one process runs one workload, checks
//! every output against the full data, and prints one JSON result line.
//!
//!     ibis-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--work <dir>] [--spans <file>]
//!
//! Workloads: `ingest_heat3d`, `serve_hot`, `serve_corr`, `serve_cold`
//! (see README.md). With `--trace 0` the result holds the end-to-end
//! metrics; with `--trace 1` the run also replays its ingest and its
//! queries at every layer boundary and reports per-layer metrics.

mod cpu;
mod ingest;
mod loadgen;
mod serve;
mod stats;
mod trace;

use ingest::{dir_bytes, durable_run, replay_ingest, IngestLayers, IngestRun, Recorded, Tap};
use serve::{
    bin_ids, correlation_entry, measure, random_region, random_span, replay_serve, subset_entry,
    uniform_sequence, zipf_sequence, Backend, Entry, FullData, Mix64, ServeLayers, ServeRun,
    Serving,
};
use stats::{median, Tally};
use trace::Tracer;

use ibis_analysis::Metric;
use ibis_core::{Binner, BitmapIndex, RowOrder};
use ibis_datagen::{Heat3D, Heat3DConfig, OceanConfig, OceanModel, Simulation, StepOutput};
use ibis_insitu::{
    run_pipeline, CoreAllocation, LocalDisk, MachineModel, PipelineConfig, Reduction,
    RobustnessConfig, ScalingModel, ShardedStore, ShardedWriter, Store,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Threads of every compute pool (simulation, index build).
const CORES: usize = 2;
/// Heat3D edge length.
const HEAT_EDGE: usize = 96;
/// Heat3D steps per ingest run, and steps kept (one in four).
const HEAT_STEPS: usize = 100;
const HEAT_KEEP: usize = HEAT_STEPS / 4;
/// Heat3D steps of the set-up's warm-up ingest.
const HEAT_WARMUP: usize = 16;
/// Share of `--seconds` that `ingest_heat3d` ingests for; queries on the
/// stored steps take the rest.
const HEAT_INGEST_SHARE: f64 = 0.6;
/// Ocean grid (lon × lat × depth), steps simulated, and steps kept by the
/// flat store's selection.
const OCEAN_GRID: (usize, usize, usize) = (64, 64, 8);
const OCEAN_STEPS: usize = 36;
const OCEAN_KEEP: usize = OCEAN_STEPS / 4;
/// Share of `--seconds` that the serving workloads spend on further
/// Ocean ingests (beyond their set-ups'), so that the ingest tail rests on
/// several windows of steps; serving takes the rest.
const OCEAN_INGEST_SHARE: f64 = 0.25;
/// Bins per Ocean variable.
const OCEAN_BINS: usize = 32;
/// Shards of the `serve_cold` store.
const COLD_SHARDS: usize = 2;
/// Cache budgets: the flat stores' catalogs fit; `serve_cold`'s budget is
/// well below its decoded working set.
const HOT_BUDGET: u64 = 256 << 20;
const COLD_BUDGET: u64 = 512 << 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Highest cache hit ratio `serve_cold` may see and still measure misses.
const COLD_HIT_CEILING: f64 = 0.5;
/// Salts that give each random stream of a run its own sequence from the
/// one `--seed`: Heat3D's queries, the Ocean catalogs, the request order.
const SALT_QUERIES: u64 = 0x4845_4154;
const SALT_CATALOG: u64 = 0x4F43_4541;
const SALT_SEQUENCE: u64 = 0x5345_5155;
/// Accepted range of `trace.coverage`, per path.
const SERVE_COVERAGE: (f64, f64) = (0.8, 1.2);
const INGEST_COVERAGE: (f64, f64) = (0.5, 1.05);
/// How far below zero a serving layer's self time may read, as a share of
/// the untraced round trip, before the split is taken as wrong rather than
/// noisy. Serving coverage is the traced over the untraced round trip
/// whenever nothing is clamped, so this gate is what checks the split.
const NEG_SELF_SHARE: f64 = 0.1;

/// The load on a server: an open loop of `requests` at `rate_hz` on one
/// connection, a closed loop on one for `closed`, and `replay` requests
/// in the traced replay. Each rate is fixed at a quarter or less of the
/// open loop's one-connection capacity, measured when the benchmark was
/// written: low enough that a host running at half speed for a while does
/// not push the loop into queueing and multiply its latency.
struct Load {
    rate_hz: f64,
    requests: usize,
    closed: Duration,
    replay: usize,
}

impl Load {
    /// `open` of `seconds` open-loop at `rate_hz`, the rest closed.
    fn split(seconds: f64, open: f64, rate_hz: f64, replay: usize) -> Load {
        Load {
            rate_hz,
            requests: (seconds * open * rate_hz) as usize,
            closed: Duration::from_secs_f64(seconds * (1.0 - open)),
            replay,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?
            .parse::<f64>()
            .map_err(|_| format!("--{k} must be a number"))
    };
    let seconds = num("seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        work: kv
            .get("work")
            .map_or_else(|| PathBuf::from("perfbench/work"), PathBuf::from),
        spans: kv.get("spans").map(PathBuf::from),
    })
}

/// Everything one run measured and checked.
#[derive(Default)]
struct Outcome {
    tally: Tally,
    /// Output checks that failed (each also counted in `tally`).
    wrong: Vec<String>,
    /// Validity gates that failed.
    invalid: Vec<String>,
    setup_s: Vec<f64>,
    /// Process CPU seconds of each set-up.
    setup_cpu_s: Vec<f64>,
    ingest: Vec<IngestRun>,
    /// Durable bytes per raw element of the store that is served.
    store_bytes_per_elem: f64,
    serve: Option<ServeRun>,
    ingest_layers: Option<(IngestLayers, f64)>,
    serve_layers: Option<ServeLayers>,
    /// Which path `trace.*` describes: true for ingest.
    ingest_primary: bool,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.record(ok);
        if !ok {
            self.wrong.push(what());
        }
    }

    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.invalid.push(what());
        }
    }

    /// Counts every ingested step as an attempt, checks that every run of
    /// the seed kept the same `keep` steps, and returns them.
    fn record_ingest(&mut self, keep: usize) -> Vec<usize> {
        let selected = self.ingest[0].selected.clone();
        let mut failed = 0;
        for run in &self.ingest {
            self.tally
                .record_many(run.step_s.len() as u64, run.failed_steps);
            failed += run.failed_steps;
        }
        if failed > 0 {
            self.wrong.push(format!("{failed} ingest steps failed"));
        }
        let same = self.ingest.iter().all(|r| r.selected == selected);
        self.check(same, || "runs of one seed kept different steps".into());
        self.gate(selected.len() == keep, || {
            format!("kept {} steps, not {keep}", selected.len())
        });
        selected
    }
}

fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("clear {}: {e}", path.display()))?;
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("mkdir: {e}"))?;
    }
    Ok(path.to_path_buf())
}

/// Whole durable runs of `sim()` with `cfg`, each into a fresh directory
/// named `{name}-{r}` and added to `runs`, until `budget_s` has passed (at
/// least one run). Returns the directory of the last run; the others are
/// removed.
fn timed_ingests<S: Simulation>(
    args: &Args,
    runs: &mut Vec<IngestRun>,
    name: &str,
    budget_s: f64,
    cfg: &PipelineConfig,
    sim: impl Fn() -> S,
) -> Result<PathBuf, String> {
    let t0 = Instant::now();
    let mut last_dir: Option<PathBuf> = None;
    let mut r = 0;
    while last_dir.is_none() || t0.elapsed().as_secs_f64() < budget_s {
        let dir = fresh_dir(&args.work.join(format!("{name}-{r}")))?;
        cpu::sample_reference();
        runs.push(durable_run(sim(), cfg, &dir)?);
        if let Some(prev) = last_dir.replace(dir) {
            std::fs::remove_dir_all(&prev).map_err(|e| format!("clean: {e}"))?;
        }
        r += 1;
    }
    last_dir.ok_or_else(|| "no ingest ran".into())
}

fn pipeline(
    steps: usize,
    keep: usize,
    binners: Vec<Binner>,
    reduction: Reduction,
) -> PipelineConfig {
    PipelineConfig {
        machine: MachineModel::xeon32(),
        cores: CORES,
        allocation: CoreAllocation::Shared,
        reduction,
        steps,
        select_k: keep,
        metric: Metric::ConditionalEntropy,
        binners,
        per_step_precision: None,
        row_order: RowOrder::Identity,
        queue_capacity: 2,
        sim_scaling: ScalingModel::heat3d(),
        robustness: RobustnessConfig::default(),
    }
}

fn heat3d_config(seed: u64) -> Heat3DConfig {
    Heat3DConfig {
        nx: HEAT_EDGE,
        ny: HEAT_EDGE,
        nz: HEAT_EDGE,
        // The seed shifts the source's modulation period: the same physics
        // and value range, a different sequence of steps.
        source_period: 36.0 + (seed % 9) as f64,
        ..Heat3DConfig::default()
    }
}

fn heat3d_binner() -> Binner {
    Binner::precision(-1.0, 101.0, 0)
}

/// The Ocean model is the same for every seed (its eddies set how well
/// the fields compress, so reseeding them would move the store's size by
/// more than any bound); the seed picks where in time the run starts.
fn ocean_config() -> OceanConfig {
    OceanConfig {
        nlon: OCEAN_GRID.0,
        nlat: OCEAN_GRID.1,
        ndepth: OCEAN_GRID.2,
        ..OceanConfig::default()
    }
}

/// One fixed-width binner per Ocean variable, fitted to the first step
/// with a 10% margin on each side (values outside clamp to the edge bins).
fn ocean_binners(first: &StepOutput) -> Vec<Binner> {
    first
        .fields
        .iter()
        .map(|f| {
            let (lo, hi) = f
                .data
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let margin = ((hi - lo) * 0.1).max(1e-6);
            Binner::fixed_width(lo - margin, hi + margin, OCEAN_BINS)
        })
        .collect()
}

/// The open loop's lateness and backlog must not grow: in its last
/// quarter the generator's median lateness may exceed the first quarter's
/// by at most 1 ms, and the median backlog may be at most twice the first
/// quarter's plus 8. Medians, so a passing stall is not read as growth.
fn generator_steady(run: &ServeRun) -> Result<(), String> {
    let late = run.lateness_ms();
    let q = late.len() / 4;
    if q == 0 {
        return Err("open loop too short".into());
    }
    let (l1, l4) = (
        median(&late[..q]).unwrap_or(0.0),
        median(&late[late.len() - q..]).unwrap_or(0.0),
    );
    let b: Vec<f64> = run.backlog().iter().map(|&x| x as f64).collect();
    let (b1, b4) = (
        median(&b[..q]).unwrap_or(0.0),
        median(&b[b.len() - q..]).unwrap_or(0.0),
    );
    if l4 > l1 + 1.0 {
        return Err(format!(
            "generator lateness grew from {l1:.3} to {l4:.3} ms"
        ));
    }
    if b4 > 2.0 * b1 + 8.0 {
        return Err(format!("backlog grew from {b1} to {b4}"));
    }
    Ok(())
}

/// Counts the serving run's answers against its attempts and applies the
/// generator gate.
fn account_serving(out: &mut Outcome, run: &ServeRun) {
    let mut bad = 0;
    for o in &run.open {
        out.tally
            .record_many(o.due.len() as u64, o.wrong + o.missing());
        bad += o.wrong + o.missing();
    }
    for c in &run.closed {
        out.tally
            .record_many(c.completed + c.missing, c.wrong + c.missing);
        bad += c.wrong + c.missing;
    }
    if bad > 0 {
        out.wrong
            .push(format!("{bad} served answers wrong or missing"));
    }
    let sheds = run.stats.shed
        + run.stats.deadline_admission
        + run.stats.deadline_dequeue
        + run.stats.deadline_execution
        + run.stats.failed;
    if sheds > 0 {
        out.wrong
            .push(format!("{sheds} requests shed, late or failed"));
    }
    if let Err(e) = generator_steady(run) {
        out.invalid.push(e);
    }
}

/// Measures `serving` under `load`, with `before_round` run ahead of each
/// round (see [`measure`]), then in a traced run replays the requests.
#[allow(clippy::too_many_arguments)]
fn serve_load(
    out: &mut Outcome,
    backend: &Backend,
    serving: Serving,
    catalog: &[Entry],
    seq: &[usize],
    load: &Load,
    before_round: &mut dyn FnMut() -> Result<(), String>,
    tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let run = measure(
        &serving,
        catalog,
        seq,
        load.rate_hz,
        load.closed,
        before_round,
    )?;
    serving.stop();
    account_serving(out, &run);
    if let Some(tracer) = tracer {
        let layers = replay_serve(backend, catalog, &seq[..load.replay.min(seq.len())], tracer)?;
        out.check(layers.wrong == 0, || {
            format!("{} replayed answers wrong", layers.wrong)
        });
        out.serve_layers = Some(layers);
    }
    out.serve = Some(run);
    Ok(())
}

fn ingest_heat3d(args: &Args, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome {
        ingest_primary: true,
        ..Outcome::default()
    };
    let cfg = heat3d_config(args.seed);
    let pcfg = pipeline(
        HEAT_STEPS,
        HEAT_KEEP,
        vec![heat3d_binner()],
        Reduction::Bitmaps,
    );
    // Set-up: a short warm-up ingest (thread pool, allocator, page cache)
    // into a scratch store, as a deployment pays once before its run.
    let warm = pipeline(HEAT_WARMUP, 2, vec![heat3d_binner()], Reduction::Bitmaps);
    for r in 0..SETUPS {
        cpu::sample_reference();
        let (t0, c0) = (Instant::now(), cpu::process_s());
        let dir = fresh_dir(&args.work.join(format!("heat-warm-{r}")))?;
        durable_run(Heat3D::new(cfg.clone()), &warm, &dir)?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clean: {e}"))?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.setup_cpu_s.push(cpu::process_s() - c0);
    }
    // Measure: whole durable runs until the time is up.
    let last_dir = timed_ingests(
        args,
        &mut out.ingest,
        "heat",
        args.seconds * HEAT_INGEST_SHARE,
        &pcfg,
        || Heat3D::new(cfg.clone()),
    )?;
    let selected = out.record_ingest(HEAT_KEEP);
    let last = out.ingest.last().expect("one ingest ran");
    out.store_bytes_per_elem = last.store_bytes as f64 / last.stored_elems.max(1) as f64;

    // Check: the store is clean, each kept index equals the scalar build
    // of its step, and a full-data run selects the same steps. The same
    // pass bins the kept steps for the queries' full-data answers.
    let mut store = Store::open(&last_dir).map_err(|e| format!("open: {e}"))?;
    let fsck = store.fsck();
    out.check(fsck.is_clean(), || format!("fsck: {fsck:?}"));
    let store = Arc::new(store);
    let seen = Arc::new(Mutex::new((FullData::default(), Vec::new())));
    let tap: Tap = {
        let (store, seen, keep) = (Arc::clone(&store), Arc::clone(&seen), selected.clone());
        Box::new(move |o: &StepOutput| {
            if !keep.contains(&o.step) {
                return;
            }
            let (f, binner) = (&o.fields[0], heat3d_binner());
            let want = BitmapIndex::build_scalar(&f.data, binner.clone());
            let ok = store.get(o.step, f.name).is_ok_and(|got| {
                got.len() == want.len()
                    && got.binner() == want.binner()
                    && got.bins() == want.bins()
            });
            let mut seen = seen.lock().expect("check lock poisoned");
            let ids = Arc::new(bin_ids(&f.data, &binner));
            seen.0.bins.insert((o.step, f.name.to_string()), ids);
            seen.0.binners.insert(f.name.to_string(), binner);
            seen.1.push((o.step, ok));
        })
    };
    let full = pipeline(
        HEAT_STEPS,
        HEAT_KEEP,
        vec![heat3d_binner()],
        Reduction::FullData,
    );
    let (sim, _) = ingest::TimedSim::new(Heat3D::new(cfg.clone()), Some(tap));
    let disk = LocalDisk::new(MachineModel::xeon32().disk_bw);
    let report = run_pipeline(sim, &full, &disk).map_err(|e| format!("full-data run: {e}"))?;
    let mut full_sel = report.selected.clone();
    full_sel.sort_unstable();
    out.check(full_sel == selected, || {
        format!("bitmaps kept {selected:?}, full data {full_sel:?}")
    });
    let (data, checked) = std::mem::take(&mut *seen.lock().expect("check lock poisoned"));
    out.check(checked.len() == selected.len(), || {
        "not every kept step was checked".into()
    });
    for (step, ok) in checked {
        out.check(ok, || {
            format!("stored index of step {step} differs from build_scalar")
        });
    }

    // Analysis on the stored bitmaps alone: subset queries over the socket.
    let mut rng = Mix64(args.seed ^ SALT_QUERIES);
    let n = HEAT_EDGE.pow(3) as u64;
    let mut catalog = Vec::new();
    for &step in &selected {
        for w in 0..16 {
            let span = random_span(&mut rng, 103, 20);
            let region = (w % 2 == 1).then(|| random_region(&mut rng, n, n / 4));
            catalog.push(subset_entry(&data, step, "temperature", span, region));
        }
    }
    // The rest of the run's time: queries, apart from the ingest's time.
    let load = Load::split(args.seconds * (1.0 - HEAT_INGEST_SHARE), 0.5, 400.0, 600);
    let seq = uniform_sequence(&mut rng, catalog.len(), load.requests);
    let backend = Backend::Flat(last_dir.clone(), HOT_BUDGET);
    let serving = Serving::start(&backend, &catalog)?;
    let mut tracer = tracer;
    serve_load(
        &mut out,
        &backend,
        serving,
        &catalog,
        &seq,
        &load,
        &mut || Ok(()),
        tracer.as_deref_mut(),
    )?;

    if let Some(tracer) = tracer {
        let dir = fresh_dir(&args.work.join("heat-replay"))?;
        let t0 = Instant::now();
        let layers = replay_ingest(
            Heat3D::new(cfg),
            HEAT_STEPS,
            &[heat3d_binner()],
            Some((HEAT_KEEP, Metric::ConditionalEntropy)),
            &MachineModel::xeon32().pool(CORES),
            &dir,
            tracer,
        )?;
        let wall = t0.elapsed().as_secs_f64();
        out.check(layers.selected == selected, || {
            "replay kept other steps".into()
        });
        out.ingest_layers = Some((layers, wall));
    }
    Ok(out)
}

/// Writes every index of the flat store at `flat` into a fresh
/// [`COLD_SHARDS`]-shard store at `dir` through `ShardedWriter`.
fn reshard(flat: &Path, dir: &Path) -> Result<(), String> {
    let store = Store::open(flat).map_err(|e| format!("open: {e}"))?;
    let mut writer =
        ShardedWriter::create(dir, COLD_SHARDS).map_err(|e| format!("create shards: {e}"))?;
    for step in store.steps() {
        for var in store.variables(step) {
            let index = store.get(step, var).map_err(|e| format!("get: {e}"))?;
            writer
                .put(step, var, &index)
                .map_err(|e| format!("sharded put: {e}"))?;
        }
    }
    writer
        .finish()
        .map(drop)
        .map_err(|e| format!("sharded finish: {e}"))
}

/// Builds a serving workload's catalog from the full data of the kept steps.
type CatalogOf<'a> = &'a dyn Fn(&FullData, &[usize], &mut Mix64) -> Vec<Entry>;

/// What an Ocean set-up leaves for the serving measurement.
struct OceanSetup {
    backend: Backend,
    catalog: Vec<Entry>,
    serving: Serving,
}

/// The binned full data of the kept steps of a recording.
fn full_data(rec: &Recorded, binners: &[Binner], keep: &[usize]) -> FullData {
    let mut data = FullData::default();
    for out in rec.steps().iter().filter(|o| keep.contains(&o.step)) {
        for (f, b) in out.fields.iter().zip(binners) {
            data.binners.insert(f.name.to_string(), b.clone());
            data.bins.insert(
                (out.step, f.name.to_string()),
                Arc::new(bin_ids(&f.data, b)),
            );
        }
    }
    data
}

/// The set-up of every serving workload, run [`SETUPS`] times on the same
/// recorded Ocean steps: ingest them durably with selection into a flat
/// store (for `sharded`, then copy the kept steps into a sharded store),
/// build the catalog with its full-data answers, and start a warmed server.
fn ocean_setups(
    args: &Args,
    out: &mut Outcome,
    rec: &Recorded,
    binners: &[Binner],
    sharded: bool,
    catalog_of: CatalogOf<'_>,
) -> Result<OceanSetup, String> {
    let mut last: Option<OceanSetup> = None;
    for r in 0..SETUPS {
        if let Some(prev) = last.take() {
            prev.serving.stop();
        }
        cpu::sample_reference();
        let (t0, c0) = (Instant::now(), cpu::process_s());
        let dir = fresh_dir(&args.work.join(format!("ocean-{r}")))?;
        let flat = dir.join("flat");
        let pcfg = pipeline(
            OCEAN_STEPS,
            OCEAN_KEEP,
            binners.to_vec(),
            Reduction::Bitmaps,
        );
        let mut run = durable_run(rec.replay(), &pcfg, &flat)?;
        let backend = if sharded {
            let shards = dir.join("shards");
            reshard(&flat, &shards)?;
            run.store_bytes = dir_bytes(&shards).map_err(|e| format!("size store: {e}"))?;
            Backend::Sharded(shards, COLD_BUDGET)
        } else {
            Backend::Flat(flat, HOT_BUDGET)
        };
        let data = full_data(rec, binners, &run.selected);
        let mut rng = Mix64(args.seed ^ SALT_CATALOG);
        let catalog = catalog_of(&data, &run.selected, &mut rng);
        let serving = Serving::start(&backend, &catalog)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.setup_cpu_s.push(cpu::process_s() - c0);
        if r > 0 {
            let prev = args.work.join(format!("ocean-{}", r - 1));
            std::fs::remove_dir_all(prev).map_err(|e| format!("clean: {e}"))?;
        }
        out.store_bytes_per_elem = run.store_bytes as f64 / run.stored_elems.max(1) as f64;
        out.ingest.push(run);
        last = Some(OceanSetup {
            backend,
            catalog,
            serving,
        });
    }
    let setup = last.ok_or("no set-up ran")?;
    let fsck_clean = match &setup.backend {
        Backend::Flat(dir, _) => Store::open(dir).map(|mut s| s.fsck().is_clean()),
        Backend::Sharded(dir, _) => {
            ShardedStore::open(dir).map(|mut s| s.fsck().iter().all(|f| f.is_clean()))
        }
    };
    out.check(fsck_clean.is_ok_and(|c| c), || {
        "store fsck not clean".into()
    });
    Ok(setup)
}

/// Replays the Ocean ingest at every ingest boundary into a flat store, as
/// the measured ingest writes it; returns the layers and the replay's wall
/// time. For a sharded workload the copy into shards, part of its set-up,
/// is timed after the replay as a span of its own.
fn replay_ocean(
    args: &Args,
    rec: &Recorded,
    binners: &[Binner],
    sharded: bool,
    tracer: &mut Tracer,
) -> Result<(IngestLayers, f64), String> {
    let dir = fresh_dir(&args.work.join("ocean-replay"))?;
    let pool = MachineModel::xeon32().pool(CORES);
    let t0 = Instant::now();
    let layers = replay_ingest(
        rec.replay(),
        OCEAN_STEPS,
        binners,
        Some((OCEAN_KEEP, Metric::ConditionalEntropy)),
        &pool,
        &dir,
        tracer,
    )?;
    let wall = t0.elapsed().as_secs_f64();
    if sharded {
        let shards = fresh_dir(&args.work.join("ocean-replay-shards"))?;
        let (r, _) = tracer.time(OCEAN_STEPS as u64, "setup.reshard", None, || {
            reshard(&dir, &shards)
        });
        r?;
    }
    Ok((layers, wall))
}

const PAIRS: [(&str, &str); 4] = [
    ("temperature", "salinity"),
    ("temperature", "oxygen"),
    ("salinity", "density"),
    ("temperature", "density"),
];

fn serving_workload(args: &Args, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let n = (OCEAN_GRID.0 * OCEAN_GRID.1 * OCEAN_GRID.2) as u64;
    let serve_s = args.seconds * (1.0 - OCEAN_INGEST_SHARE);
    let (sharded, load) = match args.workload.as_str() {
        "serve_hot" => (false, Load::split(serve_s, 0.5, 1200.0, 2000)),
        "serve_corr" => (false, Load::split(serve_s, 0.5, 200.0, 600)),
        // A cold request costs about 1 ms of CPU and its cost moves most
        // from round to round, so its closed loop gets more of the time.
        _ => (true, Load::split(serve_s, 0.35, 250.0, 1000)),
    };
    let corr = args.workload == "serve_corr";
    let catalog_of = move |data: &FullData, steps: &[usize], rng: &mut Mix64| -> Vec<Entry> {
        let vars: Vec<String> = data.binners.keys().cloned().collect();
        let mut cat = Vec::new();
        for &step in steps {
            if corr {
                for pair in PAIRS {
                    for w in 0..9 {
                        let span = random_span(rng, OCEAN_BINS, 8);
                        let region = (w % 3 == 2).then(|| random_region(rng, n, n / 2));
                        cat.push(correlation_entry(data, step, pair, span, region));
                    }
                }
            } else if sharded {
                // Half the queries are local to one shard's rows.
                for var in &vars {
                    for _ in 0..2 {
                        let span = random_span(rng, OCEAN_BINS, 6);
                        cat.push(subset_entry(data, step, var, span, None));
                        let half = n / COLD_SHARDS as u64;
                        let shard = rng.below(COLD_SHARDS) as u64;
                        let r = random_region(rng, half, half / 4);
                        let span = random_span(rng, OCEAN_BINS, 6);
                        let region = shard * half + r.start..shard * half + r.end;
                        cat.push(subset_entry(data, step, var, span, Some(region)));
                    }
                }
            } else {
                for var in &vars {
                    for w in 0..4 {
                        let span = random_span(rng, OCEAN_BINS, 6);
                        let region = (w % 2 == 1).then(|| random_region(rng, n, n / 8));
                        cat.push(subset_entry(data, step, var, span, region));
                    }
                }
            }
        }
        cat
    };
    // The inputs: Ocean steps generated once, starting `seed % 4` steps in.
    let skip = (args.seed % 4) as usize;
    let rec = Recorded::record(OceanModel::new(ocean_config()), skip, OCEAN_STEPS);
    let binners = ocean_binners(&rec.steps()[0]);
    let setup = ocean_setups(args, &mut out, &rec, &binners, sharded, &catalog_of)?;
    let mut rng = Mix64(args.seed ^ SALT_SEQUENCE);
    let seq = if args.workload == "serve_hot" {
        zipf_sequence(&mut rng, setup.catalog.len(), load.requests)
    } else {
        uniform_sequence(&mut rng, setup.catalog.len(), load.requests)
    };
    let mut tracer = tracer;
    let OceanSetup {
        backend,
        catalog,
        serving,
    } = setup;
    // Ahead of each serving round, more ingest runs like the set-ups', for
    // the round's share of the ingest time: the ingest samples then span
    // the run, as the serving ones do. Every set-up and measured run counts.
    let pcfg = pipeline(OCEAN_STEPS, OCEAN_KEEP, binners.clone(), Reduction::Bitmaps);
    let budget = args.seconds * OCEAN_INGEST_SHARE / serve::ROUNDS as f64;
    let mut measured = Vec::new();
    let mut round = 0;
    let mut ingest_round = || -> Result<(), String> {
        let name = format!("ocean-ingest-{round}");
        round += 1;
        let dir = timed_ingests(args, &mut measured, &name, budget, &pcfg, || rec.replay())?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clean: {e}"))
    };
    serve_load(
        &mut out,
        &backend,
        serving,
        &catalog,
        &seq,
        &load,
        &mut ingest_round,
        tracer.as_deref_mut(),
    )?;
    out.ingest.extend(measured);
    out.record_ingest(OCEAN_KEEP);
    if let Some(tracer) = tracer {
        let (layers, wall) = replay_ocean(args, &rec, &binners, sharded, tracer)?;
        out.check(layers.selected == out.ingest[0].selected, || {
            "replay kept other steps".into()
        });
        out.ingest_layers = Some((layers, wall));
    }
    // Validity of the cache regime each workload is meant to measure.
    if let Some(run) = &out.serve {
        let (ratio, misses, evictions) = (run.hit_ratio(), run.misses(), run.evictions());
        if sharded {
            out.invalid.extend(
                [
                    (ratio <= COLD_HIT_CEILING)
                        .then_some(())
                        .ok_or(format!("hit ratio {ratio:.3} above {COLD_HIT_CEILING}")),
                    (evictions > 0)
                        .then_some(())
                        .ok_or("no evictions".to_string()),
                ]
                .into_iter()
                .filter_map(Result::err),
            );
        } else if misses > 0 {
            out.invalid
                .push(format!("{misses} cache misses after warm-up"));
        }
    }
    Ok(out)
}

fn fmt_metric(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        finite(value)
    )
}

fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A tail percentile (the median over windows, see
/// [`stats::windowed_tail`]), or the sample maximum with the run marked
/// invalid when too few samples lie beyond it.
fn tail_or_max(out: &mut Vec<String>, what: &str, values: &[f64], p: f64) -> f64 {
    stats::windowed_tail(values, p).unwrap_or_else(|| {
        out.push(format!(
            "{what}: {} samples leave fewer than {} beyond p{}",
            values.len(),
            stats::MIN_BEYOND,
            (p * 100.0).round()
        ));
        values.iter().copied().fold(0.0, f64::max)
    })
}

/// The end-to-end metrics. Every timing metric is in the process's CPU
/// time (see [`cpu`]); the wall-time figures of the same run are printed
/// for the record, not reported, because on a shared virtual machine they
/// follow the host's other tenants as much as the program.
fn end_to_end(out: &Outcome) -> Vec<String> {
    let ms = |f: fn(&IngestRun) -> &Vec<f64>| -> Vec<f64> {
        out.ingest
            .iter()
            .flat_map(|r| f(r).iter().map(|s| s * 1e3))
            .collect()
    };
    let (steps, cpu_steps) = (ms(|r| &r.step_s), ms(|r| &r.step_cpu_s));
    // Raw MB per CPU second of each ingest run; their median, so that a run
    // that met a slow stretch of the host does not set the figure.
    let run_mb_s: Vec<f64> = out
        .ingest
        .iter()
        .map(|r| r.raw_bytes as f64 / 1e6 / r.step_cpu_s.iter().sum::<f64>())
        .collect();
    let mb_s = median(&run_mb_s).unwrap_or(0.0);
    let serve = out.serve.clone().expect("every workload serves");
    let lat = serve.latency_ms();
    let wall_tail = |v: &[f64], p| stats::windowed_tail(v, p).unwrap_or(f64::NAN);
    println!(
        "perfbench: wall time, for the record: {} ingest steps p50 {:.3} ms p90 {:.3} ms; \
         {} latencies p50 {:.3} ms p95 {:.3} ms pooled p99 {:.3} ms; closed loop {:.0}/s; \
         set-up {:.3} s",
        steps.len(),
        median(&steps).unwrap_or(f64::NAN),
        wall_tail(&steps, 0.90),
        lat.len(),
        median(&lat).unwrap_or(f64::NAN),
        wall_tail(&lat, 0.95),
        stats::tail_percentile(&lat, 0.99).unwrap_or(f64::NAN),
        serve.capacity_qps(),
        median(&out.setup_s).unwrap_or(f64::NAN),
    );
    let refs = cpu::reference_samples();
    let scale = cpu::speed_scale(&refs);
    let cpu_p50 = median(&cpu_steps).unwrap_or(0.0);
    let cpu_setup = median(&out.setup_cpu_s).unwrap_or(0.0);
    println!(
        "perfbench: CPU time as measured: ingest step p50 {cpu_p50:.3} ms, {mb_s:.3} MB/s; \
         {:.1} us per query; set-ups {:.3?} s; {} reference samples, mean {:.3} ms, \
         speed scale {scale:.4}",
        serve.closed_cpu_us(),
        out.setup_cpu_s,
        refs.len(),
        stats::mean(&refs) * 1e3,
    );
    vec![
        fmt_metric("ingest_cpu_ms_p50", cpu_p50 * scale, "ms"),
        fmt_metric("ingest_mb_per_cpu_s", mb_s / scale, "MB/s"),
        fmt_metric("store_bytes_per_elem", out.store_bytes_per_elem, "B/elem"),
        fmt_metric("query_cpu_us", serve.closed_cpu_us() * scale, "us"),
        fmt_metric("op_ok_frac", out.tally.ok_frac(), "fraction"),
        fmt_metric("setup_s", cpu_setup * scale, "s"),
    ]
}

fn per_layer(out: &mut Outcome) -> Vec<String> {
    let (il, replay_wall) = out
        .ingest_layers
        .clone()
        .expect("traced run replays ingest");
    let sl = out
        .serve_layers
        .clone()
        .expect("traced run replays serving");
    let serve = out.serve.clone().expect("every workload serves");
    let steps: Vec<f64> = out.ingest.iter().flat_map(|r| r.step_s.clone()).collect();
    let step_mean = stats::mean(&steps);
    let ingest_cov = il.attributed_s() / step_mean;
    let serve_cov = sl.attributed_s() / sl.untraced_s;
    let (coverage, tolerance, overhead) = if out.ingest_primary {
        // The ingest replay times every layer call; the tracer's own cost
        // is the replay's wall time beyond its spans.
        let spans = il.datagen_s * il.steps as f64 + il.attributed_s() * il.steps as f64;
        (ingest_cov, INGEST_COVERAGE, replay_wall / spans - 1.0)
    } else {
        (serve_cov, SERVE_COVERAGE, sl.socket_s / sl.untraced_s - 1.0)
    };
    let negative: Vec<String> = sl
        .self_times()
        .iter()
        .filter(|(_, t)| *t < 0.0)
        .map(|(layer, t)| format!("{layer} {:.1} us", t * 1e6))
        .collect();
    println!(
        "perfbench: {} negative serving self times clamped to 0 {negative:?}",
        negative.len()
    );
    for (layer, t) in sl.self_times() {
        if t < -NEG_SELF_SHARE * sl.untraced_s {
            out.invalid.push(format!(
                "{layer} self time {:.1} us is below -{NEG_SELF_SHARE} of the {:.1} us round trip",
                t * 1e6,
                sl.untraced_s * 1e6
            ));
        }
    }
    if !(tolerance.0..=tolerance.1).contains(&coverage) {
        out.invalid.push(format!(
            "trace coverage {coverage:.3} outside [{}, {}]",
            tolerance.0, tolerance.1
        ));
    }
    let us = 1e6;
    let lateness = serve.lateness_ms();
    let mut invalid = std::mem::take(&mut out.invalid);
    let late_p99 = tail_or_max(&mut invalid, "lateness", &lateness, 0.99);
    out.invalid = invalid;
    let st = serve.stats;
    vec![
        fmt_metric("datagen.step_ms", il.datagen_s * 1e3, "ms"),
        fmt_metric("core.build_ms", il.build_s * 1e3, "ms"),
        fmt_metric(
            "core.index_bytes_per_elem",
            il.index_bytes_per_elem,
            "B/elem",
        ),
        fmt_metric("analysis.metric_ms", il.metric_s * 1e3, "ms"),
        fmt_metric(
            "store.put_ms_p50",
            median(&il.put_s).unwrap_or(0.0) * 1e3,
            "ms",
        ),
        fmt_metric(
            "store.put_ms_max",
            il.put_s.iter().copied().fold(0.0, f64::max) * 1e3,
            "ms",
        ),
        fmt_metric("store.finish_ms", il.finish_s * 1e3, "ms"),
        fmt_metric(
            "pipeline.residual_ms",
            (step_mean - il.attributed_s()) * 1e3,
            "ms",
        ),
        fmt_metric("socket.self_us", sl.socket_self_s() * us, "us"),
        fmt_metric("serving.self_us", sl.serving_self_s() * us, "us"),
        fmt_metric("serving.shed", st.shed as f64, "count"),
        fmt_metric(
            "serving.deadline",
            (st.deadline_admission + st.deadline_dequeue + st.deadline_execution) as f64,
            "count",
        ),
        fmt_metric("serving.queue_peak", st.queue_peak as f64, "count"),
        fmt_metric("serving.coalesce_hits", st.coalesce_hits as f64, "count"),
        fmt_metric("engine.parse_us", sl.parse_s * us, "us"),
        fmt_metric("engine.self_us", sl.engine_self_s() * us, "us"),
        fmt_metric("shard.fanout", sl.fanout, "shards"),
        fmt_metric("cache.hit_ratio", serve.hit_ratio(), "fraction"),
        fmt_metric("cache.get_hit_us", sl.get_hit_s * us, "us"),
        fmt_metric("cache.get_miss_us", sl.get_miss_s * us, "us"),
        fmt_metric("cache.evictions", serve.evictions() as f64, "count"),
        fmt_metric(
            "cache.resident_mb",
            serve.cache_end.resident_bytes as f64 / 1e6,
            "MB",
        ),
        fmt_metric("store.load_us", sl.load_s * us, "us"),
        fmt_metric("store.load_bytes", sl.load_bytes, "B"),
        fmt_metric("query.eval_us", sl.eval_s * us, "us"),
        fmt_metric("query.corr_ms", sl.corr_s * 1e3, "ms"),
        fmt_metric("loadgen.lateness_ms_p99", late_p99, "ms"),
        fmt_metric("trace.coverage", coverage, "fraction"),
        fmt_metric("trace.overhead", overhead, "fraction"),
    ]
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("mkdir work: {e}"))?;
    let mut tracer = args.trace.then(Tracer::default);
    let mut out = match args.workload.as_str() {
        "ingest_heat3d" => ingest_heat3d(args, tracer.as_mut())?,
        "serve_hot" | "serve_corr" | "serve_cold" => serving_workload(args, tracer.as_mut())?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let metrics = if args.trace {
        per_layer(&mut out)
    } else {
        end_to_end(&out)
    };
    if let (Some(tracer), Some(path)) = (&tracer, &args.spans) {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("write spans: {e}"))?;
    }
    for w in &out.wrong {
        eprintln!("perfbench: wrong output: {w}");
    }
    for w in &out.invalid {
        eprintln!("perfbench: invalid run: {w}");
    }
    println!(
        "perfbench: {} seed {} valid {} obs {}",
        args.workload,
        args.seed,
        out.invalid.is_empty(),
        ibis_obs::ENABLED
    );
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.wrong.is_empty() && out.invalid.is_empty(),
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.work);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
