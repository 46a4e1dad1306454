//! The ingest side: a simulation wrapper that times every `step()`, the
//! untraced durable ingest run, and the traced replay that
//! times each ingest layer through its public functions.

use crate::cpu;
use crate::stats::ibis_step_times;
use crate::trace::Tracer;
use ibis_analysis::selection::fixed_intervals;
use ibis_analysis::{Metric, StepSummary, VarSummary};
use ibis_core::{build_index_parallel, Binner};
use ibis_datagen::{Simulation, StepOutput};
use ibis_insitu::{run_durable, PipelineConfig, StoreWriter};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Called with every step's output, inside the timed simulation call.
pub type Tap = Box<dyn FnMut(&StepOutput) + Send>;

/// When each `step()` returned and how long it ran, in wall seconds since
/// the wrapper's origin and in the process's CPU seconds.
#[derive(Debug, Default, Clone)]
pub struct StepLog {
    /// Return time of each `step()` call.
    pub returns: Vec<f64>,
    /// Time spent inside each `step()` call.
    pub sim: Vec<f64>,
    /// Process CPU time at each `step()` return.
    pub returns_cpu: Vec<f64>,
    /// Process CPU time spent inside each `step()` call.
    pub sim_cpu: Vec<f64>,
}

/// A simulation wrapper owned by the benchmark: times each `step()` and
/// lets a tap see the output. The tap runs inside the timed call, so its
/// cost is charged to the simulation, which the ibis time excludes.
pub struct TimedSim<S> {
    inner: S,
    origin: Instant,
    log: Arc<Mutex<StepLog>>,
    tap: Option<Tap>,
}

impl<S: Simulation> TimedSim<S> {
    /// Wraps `inner`; the log's times count from now.
    pub fn new(inner: S, tap: Option<Tap>) -> (Self, Arc<Mutex<StepLog>>) {
        let log = Arc::new(Mutex::new(StepLog::default()));
        let sim = TimedSim {
            inner,
            origin: Instant::now(),
            log: Arc::clone(&log),
            tap,
        };
        (sim, log)
    }
}

impl<S: Simulation> Simulation for TimedSim<S> {
    fn step(&mut self) -> StepOutput {
        let (t0, c0) = (Instant::now(), cpu::process_s());
        let out = self.inner.step();
        if let Some(tap) = &mut self.tap {
            tap(&out);
        }
        let (t1, c1) = (Instant::now(), cpu::process_s());
        let mut log = self.log.lock().expect("step log lock poisoned");
        log.sim.push((t1 - t0).as_secs_f64());
        log.returns.push((t1 - self.origin).as_secs_f64());
        log.sim_cpu.push(c1 - c0);
        log.returns_cpu.push(c1);
        out
    }

    fn num_elements(&self) -> usize {
        self.inner.num_elements()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }

    fn grid_dims(&self) -> Option<[usize; 3]> {
        self.inner.grid_dims()
    }
}

/// Steps generated once and replayed: every set-up of a run ingests the
/// same inputs without paying for the simulation again.
pub struct Recorded {
    steps: Arc<Vec<StepOutput>>,
    next: usize,
    name: &'static str,
    dims: Option<[usize; 3]>,
}

impl Recorded {
    /// Runs `sim` for `skip + n` steps and keeps the last `n`, numbered
    /// from 0 as a run that starts there would number them.
    pub fn record<S: Simulation>(mut sim: S, skip: usize, n: usize) -> Recorded {
        let mut steps = sim.run(skip + n).split_off(skip);
        for (i, s) in steps.iter_mut().enumerate() {
            s.step = i;
        }
        Recorded {
            name: sim.name(),
            dims: sim.grid_dims(),
            steps: Arc::new(steps),
            next: 0,
        }
    }

    /// The recorded outputs.
    pub fn steps(&self) -> &[StepOutput] {
        &self.steps
    }

    /// A replay from the first step.
    pub fn replay(&self) -> Recorded {
        Recorded {
            steps: Arc::clone(&self.steps),
            next: 0,
            name: self.name,
            dims: self.dims,
        }
    }
}

impl Simulation for Recorded {
    fn step(&mut self) -> StepOutput {
        let out = self.steps[self.next % self.steps.len()].clone();
        self.next += 1;
        out
    }

    fn num_elements(&self) -> usize {
        self.steps[0].fields.first().map_or(0, |f| f.data.len())
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn grid_dims(&self) -> Option<[usize; 3]> {
        self.dims
    }
}

/// What one untraced ingest run measured.
#[derive(Debug, Default, Clone)]
pub struct IngestRun {
    /// Ibis time of each step, in wall seconds.
    pub step_s: Vec<f64>,
    /// Ibis time of each step, in the process's CPU seconds.
    pub step_cpu_s: Vec<f64>,
    /// Raw bytes the simulation produced.
    pub raw_bytes: u64,
    /// Steps kept in the store, ascending.
    pub selected: Vec<usize>,
    /// Raw elements the kept steps hold (all variables).
    pub stored_elems: u64,
    /// Bytes of every file in the finished store directory.
    pub store_bytes: u64,
    /// Steps that did not complete cleanly.
    pub failed_steps: u64,
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Runs `sim` through `run_durable` into the fresh directory `dir`.
pub fn durable_run<S: Simulation>(
    sim: S,
    cfg: &PipelineConfig,
    dir: &Path,
) -> Result<IngestRun, String> {
    let fields_elems = sim.num_elements() as u64;
    let (sim, log) = TimedSim::new(sim, None);
    let origin = sim.origin;
    let report = run_durable(sim, cfg, dir).map_err(|e| format!("run_durable: {e}"))?;
    let (end, end_cpu) = (origin.elapsed().as_secs_f64(), cpu::process_s());
    let log = log.lock().expect("step log lock poisoned").clone();
    let nvars = (report.raw_bytes_per_step / 8 / fields_elems.max(1)).max(1);
    let mut selected = report.selected.clone();
    selected.sort_unstable();
    Ok(IngestRun {
        step_s: ibis_step_times(&log.returns, &log.sim, end),
        step_cpu_s: ibis_step_times(&log.returns_cpu, &log.sim_cpu, end_cpu),
        raw_bytes: report.raw_bytes_per_step * report.steps as u64,
        stored_elems: selected.len() as u64 * nvars * fields_elems,
        selected,
        store_bytes: dir_bytes(dir).map_err(|e| format!("size store: {e}"))?,
        failed_steps: report
            .step_outcomes
            .iter()
            .filter(|o| !o.is_completed())
            .count() as u64,
    })
}

/// Per-layer ingest numbers from the traced replay.
#[derive(Debug, Default, Clone)]
pub struct IngestLayers {
    /// Simulation time per step, in seconds.
    pub datagen_s: f64,
    /// `build_index_parallel` time per step (all fields), in seconds.
    pub build_s: f64,
    /// In-memory index bytes per raw element.
    pub index_bytes_per_elem: f64,
    /// `StepSummary::metric` time per step, amortised over all steps.
    pub metric_s: f64,
    /// `put` time of each kept step (all fields), in seconds.
    pub put_s: Vec<f64>,
    /// `finish` time, in seconds.
    pub finish_s: f64,
    /// Steps the replayed selection kept, ascending.
    pub selected: Vec<usize>,
    /// Steps replayed.
    pub steps: usize,
}

impl IngestLayers {
    /// Ibis time per step the replay attributes to named layers.
    pub fn attributed_s(&self) -> f64 {
        let per_step = |total: f64| total / self.steps.max(1) as f64;
        self.build_s
            + self.metric_s
            + per_step(self.put_s.iter().sum::<f64>())
            + per_step(self.finish_s)
    }
}

/// Writes every variable of a bitmap summary under its step.
fn put_summary(
    writer: &mut StoreWriter,
    summary: &StepSummary,
    names: &[&'static str],
) -> Result<(), String> {
    for (var, name) in summary.vars.iter().zip(names) {
        let VarSummary::Bitmap(idx) = var else {
            return Err("replay builds bitmap summaries only".into());
        };
        writer
            .put(summary.step, name, idx)
            .map_err(|e| format!("replay put: {e}"))?;
    }
    Ok(())
}

/// Replays an ingest step by step, timing each layer at its public
/// boundary: the simulation, `build_index_parallel` per field,
/// `StepSummary::metric` for every comparison the streaming selection
/// makes (when `select` gives the K to keep and the metric), `put` for each
/// kept step and the final `finish`, into a fresh flat store at `dir` as
/// `run_durable` writes it.
pub fn replay_ingest<S: Simulation>(
    mut sim: S,
    steps: usize,
    binners: &[Binner],
    select: Option<(usize, Metric)>,
    pool: &rayon::ThreadPool,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<IngestLayers, String> {
    let mut writer = StoreWriter::create(dir).map_err(|e| format!("create: {e}"))?;
    let intervals = match select {
        Some((k, _)) if k > 1 => fixed_intervals(steps, k - 1),
        _ => Vec::new(),
    };
    let mut out = IngestLayers {
        steps,
        ..IngestLayers::default()
    };
    let (mut datagen, mut build, mut metric, mut index_bytes, mut elems) = (0.0, 0.0, 0.0, 0, 0);
    let mut prev: Option<StepSummary> = None;
    let mut buffer: Vec<StepSummary> = Vec::new();
    let mut cur = 0;
    for i in 0..steps {
        let id = i as u64;
        let (step, t) = tracer.time(id, "datagen.step", None, || pool.install(|| sim.step()));
        datagen += t;
        let names: Vec<&'static str> = step.fields.iter().map(|f| f.name).collect();
        let mut vars = Vec::with_capacity(step.fields.len());
        for (f, binner) in step.fields.iter().zip(binners) {
            let (idx, t) = tracer.time(id, "core.build", Some("pipeline.step"), || {
                pool.install(|| build_index_parallel(&f.data, binner.clone()))
            });
            build += t;
            index_bytes += idx.size_bytes();
            elems += f.data.len();
            vars.push(VarSummary::Bitmap(idx));
        }
        let summary = StepSummary { step: i, vars };
        let Some((_, m)) = select else {
            let (r, t) = tracer.time(id, "store.put", Some("pipeline.step"), || {
                put_summary(&mut writer, &summary, &names)
            });
            r?;
            out.put_s.push(t);
            out.selected.push(i);
            continue;
        };
        if prev.is_none() {
            let (r, t) = tracer.time(id, "store.put", Some("pipeline.step"), || {
                put_summary(&mut writer, &summary, &names)
            });
            r?;
            out.put_s.push(t);
            out.selected.push(i);
            prev = Some(summary);
        } else {
            buffer.push(summary);
        }
        // Close every interval that ends with this step, as the streaming
        // selector does: the candidate farthest from the last kept step wins
        // (the first one on ties).
        while intervals.get(cur).is_some_and(|iv| i + 1 >= iv.end) {
            cur += 1;
            let Some(p) = prev.as_ref() else { break };
            let mut best: Option<(usize, f64)> = None;
            for (pos, s) in buffer.iter().enumerate() {
                let (score, t) = tracer.time(id, "analysis.metric", Some("pipeline.step"), || {
                    s.metric(p, m)
                });
                metric += t;
                if best.is_none_or(|(_, b)| score > b) {
                    best = Some((pos, score));
                }
            }
            if let Some((pos, _)) = best {
                let winner = buffer.swap_remove(pos);
                let (r, t) = tracer.time(id, "store.put", Some("pipeline.step"), || {
                    put_summary(&mut writer, &winner, &names)
                });
                r?;
                out.put_s.push(t);
                out.selected.push(winner.step);
                prev = Some(winner);
            }
            buffer.clear();
        }
    }
    let (r, t) = tracer.time(steps as u64, "store.finish", Some("pipeline.run"), || {
        writer
            .finish()
            .map(drop)
            .map_err(|e| format!("replay finish: {e}"))
    });
    r?;
    out.finish_s = t;
    let n = steps.max(1) as f64;
    out.datagen_s = datagen / n;
    out.build_s = build / n;
    out.metric_s = metric / n;
    out.index_bytes_per_elem = index_bytes as f64 / elems.max(1) as f64;
    out.selected.sort_unstable();
    Ok(out)
}
