//! The serving side: query catalogs with answers computed by scanning the
//! full data, the socket server under open- and closed-loop load, and the
//! traced replay that times each serving layer at its public boundary.

use crate::cpu;
use crate::loadgen::{closed_loop, open_loop, ClosedLoop, OpenLoopLog};
use crate::trace::Tracer;
use ibis_analysis::{
    correlation_query_ml, evaluate_ml_shard, finish_correlation, CorrelationPartial, SubsetQuery,
};
use ibis_core::{Binner, MultiLevelIndex};
use ibis_insitu::engine::{parse_batch, render_answers};
use ibis_insitu::{
    shard_cuts, CacheStats, CachedStore, EngineBackend, QueryAnswer, QueryEngine, QueryRequest,
    QueryServer, ServeConfig, ServeStats, ShardedEngine, ShardedStore, SocketServer, Store,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Worker threads of every server the benchmark starts.
pub const WORKERS: usize = 2;

/// Rounds of open- then closed-loop load in one measurement.
pub const ROUNDS: usize = 8;
/// Connections of the closed loop: one, so that a request's CPU time does
/// not depend on how the scheduler interleaves two in flight.
const CLOSED_CONNS: usize = 1;

/// splitmix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Mix64(pub u64);

impl Mix64 {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// `n` catalog positions drawn with weight `1/rank` (zipf, exponent 1).
pub fn zipf_sequence(rng: &mut Mix64, catalog_len: usize, n: usize) -> Vec<usize> {
    let mut acc = 0.0;
    let cum: Vec<f64> = (0..catalog_len)
        .map(|i| {
            acc += 1.0 / (i + 1) as f64;
            acc
        })
        .collect();
    (0..n)
        .map(|_| {
            let x = rng.unit() * acc;
            cum.partition_point(|&c| c < x).min(catalog_len - 1)
        })
        .collect()
}

/// `n` catalog positions drawn uniformly.
pub fn uniform_sequence(rng: &mut Mix64, catalog_len: usize, n: usize) -> Vec<usize> {
    (0..n).map(|_| rng.below(catalog_len)).collect()
}

/// Bin ids of one variable at one step, the full data as the scans see it.
pub type BinIds = Arc<Vec<u8>>;

/// The full data of every stored `(step, variable)`, binned.
#[derive(Debug, Default, Clone)]
pub struct FullData {
    /// Bin ids by `(step, variable)`.
    pub bins: BTreeMap<(usize, String), BinIds>,
    /// The binner of each variable.
    pub binners: BTreeMap<String, Binner>,
}

/// Bins `data` with `binner` into one byte per element.
pub fn bin_ids(data: &[f64], binner: &Binner) -> Vec<u8> {
    assert!(binner.nbins() <= 256, "bin ids must fit a byte");
    data.iter().map(|&v| binner.bin_of(v) as u8).collect()
}

/// A value window covering whole bins `lo..=hi`: from the middle of bin
/// `lo` to the middle of bin `hi`, so it touches exactly those bins.
fn window(binner: &Binner, bins: Range<usize>) -> (f64, f64) {
    let mid = |b: usize| {
        let (lo, hi) = binner.bin_range(b);
        (lo + hi) / 2.0
    };
    (mid(bins.start), mid(bins.end - 1))
}

/// One catalog query: the request, its socket frame, and the answer the
/// full-data scan gives.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The typed request.
    pub request: QueryRequest,
    /// The request as one socket frame, newline included.
    pub frame: String,
    /// The full-data answer.
    pub expected: QueryAnswer,
    /// The full-data answer as the server renders it.
    pub expected_line: String,
}

impl Entry {
    fn new(request: QueryRequest, query_json: String, expected: QueryAnswer) -> Entry {
        let expected_line = render_answers(&[Ok(expected.clone())]);
        Entry {
            request,
            frame: format!("{{\"queries\": [{query_json}]}}\n"),
            expected,
            expected_line,
        }
    }

    /// `(step, variable)` pairs the request reads.
    fn reads(&self) -> Vec<(usize, &str)> {
        match &self.request {
            QueryRequest::Subset { step, variable, .. } => vec![(*step, variable.as_str())],
            QueryRequest::Correlation {
                step, var_a, var_b, ..
            } => vec![(*step, var_a.as_str()), (*step, var_b.as_str())],
        }
    }

    fn region(&self) -> Option<Range<u64>> {
        match &self.request {
            QueryRequest::Subset { query, .. } => query.position_range.clone(),
            QueryRequest::Correlation { query_a, .. } => query_a.position_range.clone(),
        }
    }
}

fn region_json(region: &Option<Range<u64>>) -> String {
    region.as_ref().map_or_else(String::new, |r| {
        format!(", \"region\": [{}, {}]", r.start, r.end)
    })
}

/// A subset query on `(step, var)` over bins `span`, optionally in
/// `region`, answered by scanning the full data.
pub fn subset_entry(
    data: &FullData,
    step: usize,
    var: &str,
    span: Range<usize>,
    region: Option<Range<u64>>,
) -> Entry {
    let binner = &data.binners[var];
    let ids = &data.bins[&(step, var.to_string())];
    let rows = region.clone().unwrap_or(0..ids.len() as u64);
    let selected = ids[rows.start as usize..rows.end as usize]
        .iter()
        .filter(|&&b| span.contains(&usize::from(b)))
        .count() as u64;
    let (lo, hi) = window(binner, span);
    let mut query = SubsetQuery::value(lo, hi);
    if let Some(r) = &region {
        query = query.with_region(r.clone());
    }
    let json = format!(
        "{{\"kind\": \"subset\", \"step\": {step}, \"variable\": \"{var}\", \
         \"value_range\": [{lo}, {hi}]{}}}",
        region_json(&region)
    );
    Entry::new(
        QueryRequest::Subset {
            step,
            variable: var.to_string(),
            query,
        },
        json,
        QueryAnswer::Subset {
            selected,
            of: ids.len() as u64,
        },
    )
}

/// A correlation query on `(step, a, b)` with `a` restricted to bins
/// `span`, optionally in `region`, answered from joint counts of the full
/// data through the same finisher the engine uses.
pub fn correlation_entry(
    data: &FullData,
    step: usize,
    (a, b): (&str, &str),
    span: Range<usize>,
    region: Option<Range<u64>>,
) -> Entry {
    let (ba, bb) = (&data.binners[a], &data.binners[b]);
    let ids_a = &data.bins[&(step, a.to_string())];
    let ids_b = &data.bins[&(step, b.to_string())];
    let nb = bb.nbins();
    let mut p = CorrelationPartial::zero(ba.nbins(), nb);
    let rows = region.clone().unwrap_or(0..ids_a.len() as u64);
    for r in rows.start as usize..rows.end as usize {
        let (x, y) = (usize::from(ids_a[r]), usize::from(ids_b[r]));
        if span.contains(&x) {
            p.selected += 1;
            p.joint[x * nb + y] += 1;
            p.counts_a[x] += 1;
            p.counts_b[y] += 1;
        }
    }
    let (lo, hi) = window(ba, span);
    let mut query_a = SubsetQuery::value(lo, hi);
    let mut query_b = SubsetQuery::all();
    if let Some(r) = &region {
        query_a = query_a.with_region(r.clone());
        query_b = query_b.with_region(r.clone());
    }
    let json = format!(
        "{{\"kind\": \"correlation\", \"step\": {step}, \"var_a\": \"{a}\", \"var_b\": \"{b}\", \
         \"value_a\": [{lo}, {hi}]{}}}",
        region_json(&region)
    );
    Entry::new(
        QueryRequest::Correlation {
            step,
            var_a: a.to_string(),
            var_b: b.to_string(),
            query_a,
            query_b,
        },
        json,
        QueryAnswer::Correlation(finish_correlation(ba, bb, &p)),
    )
}

/// A span of `width` whole bins at a random position. The width is fixed
/// so that a query's cost varies with the data, not with the seed.
pub fn random_span(rng: &mut Mix64, nbins: usize, width: usize) -> Range<usize> {
    let width = width.min(nbins);
    let lo = rng.below(nbins - width + 1);
    lo..lo + width
}

/// A random region of `len` rows inside `0..n`.
pub fn random_region(rng: &mut Mix64, n: u64, len: u64) -> Range<u64> {
    let lo = rng.below((n - len + 1) as usize) as u64;
    lo..lo + len
}

/// Which engine serves a store, and its cache budget in bytes.
#[derive(Debug, Clone)]
pub enum Backend {
    /// A flat store behind `QueryEngine`.
    Flat(PathBuf, u64),
    /// A sharded store behind `ShardedEngine` (the budget is split evenly
    /// across shards).
    Sharded(PathBuf, u64),
}

impl Backend {
    /// A fresh engine with this backend's budget.
    pub fn engine(&self) -> Result<EngineBackend, String> {
        Ok(match self {
            Backend::Flat(dir, budget) => {
                EngineBackend::Single(QueryEngine::new(CachedStore::new(
                    Store::open(dir).map_err(|e| format!("open store: {e}"))?,
                    *budget,
                )))
            }
            Backend::Sharded(dir, budget) => EngineBackend::Sharded(
                ShardedEngine::open(dir, *budget).map_err(|e| format!("open shards: {e}"))?,
            ),
        })
    }
}

/// Runs every catalog query once on `engine`, after one unrestricted query
/// per stored `(step, variable)` so a sharded engine learns every row cut;
/// returns how many answers differed from the full-data scan.
pub fn warm(engine: &EngineBackend, catalog: &[Entry]) -> u64 {
    let mut seen = std::collections::BTreeSet::new();
    for e in catalog {
        for (step, var) in e.reads() {
            if seen.insert((step, var.to_string())) {
                let _ = engine.run(&QueryRequest::Subset {
                    step,
                    variable: var.to_string(),
                    query: SubsetQuery::all(),
                });
            }
        }
    }
    catalog
        .iter()
        .filter(|e| engine.run(&e.request).as_ref() != Ok(&e.expected))
        .count() as u64
}

/// A warmed server behind a loopback socket.
pub struct Serving {
    server: Arc<QueryServer>,
    socket: SocketServer,
}

impl Serving {
    /// Opens a fresh engine, warms it with `catalog` and starts the server
    /// and its socket. Fails when a warm-up answer is wrong.
    pub fn start(backend: &Backend, catalog: &[Entry]) -> Result<Serving, String> {
        let engine = backend.engine()?;
        let wrong = warm(&engine, catalog);
        if wrong > 0 {
            return Err(format!(
                "{wrong} warm-up answers differ from the full-data scan"
            ));
        }
        let cfg = ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        };
        let server = Arc::new(QueryServer::start(engine, cfg).map_err(|e| format!("serve: {e}"))?);
        let socket = SocketServer::bind(Arc::clone(&server), "127.0.0.1:0")
            .map_err(|e| format!("bind: {e}"))?;
        Ok(Serving { server, socket })
    }

    /// Stops the socket and drains the server.
    pub fn stop(self) {
        self.socket.stop();
        self.server.shutdown();
    }
}

/// What the untraced serving measurement saw.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// The open loop's log, per round.
    pub open: Vec<OpenLoopLog>,
    /// The closed loop's totals, per round.
    pub closed: Vec<ClosedLoop>,
    /// Process CPU seconds each round's closed loop used, client included.
    pub closed_cpu_s: Vec<f64>,

    /// Server counters at the end.
    pub stats: ServeStats,
    /// Cache counters after warm-up.
    pub cache_warm: CacheStats,
    /// Cache counters at the end.
    pub cache_end: CacheStats,
}

impl ServeRun {
    /// Open-loop latencies of every round, in ms, in send order.
    pub fn latency_ms(&self) -> Vec<f64> {
        self.open.iter().flat_map(OpenLoopLog::latency_ms).collect()
    }

    /// How late the generator sent each request, in ms, in send order.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.open
            .iter()
            .flat_map(OpenLoopLog::lateness_ms)
            .collect()
    }

    /// Requests outstanding at each send, in send order.
    pub fn backlog(&self) -> Vec<usize> {
        self.open.iter().flat_map(|o| o.backlog.clone()).collect()
    }

    /// Closed-loop capacity: the median of the rounds' throughputs, so one
    /// slow stretch of the host does not set it.
    pub fn capacity_qps(&self) -> f64 {
        let qps: Vec<f64> = self.closed.iter().map(ClosedLoop::qps).collect();
        crate::stats::median(&qps).unwrap_or(0.0)
    }

    /// Process CPU microseconds per answered closed-loop request, client
    /// included: the median over the rounds. Each round opens its own
    /// connection, whose threads the scheduler places anew, and a round
    /// placed badly costs up to 20% more per request.
    pub fn closed_cpu_us(&self) -> f64 {
        let per_round: Vec<f64> = self
            .closed
            .iter()
            .zip(&self.closed_cpu_s)
            .map(|(c, s)| s * 1e6 / c.completed.max(1) as f64)
            .collect();
        crate::stats::median(&per_round).unwrap_or(0.0)
    }

    /// Cache hits over lookups after warm-up.
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.cache_end.hits - self.cache_warm.hits;
        let misses = self.cache_end.misses - self.cache_warm.misses;
        hits as f64 / (hits + misses).max(1) as f64
    }

    /// Cache misses after warm-up.
    pub fn misses(&self) -> u64 {
        self.cache_end.misses - self.cache_warm.misses
    }

    /// Cache evictions after warm-up.
    pub fn evictions(&self) -> u64 {
        self.cache_end.evictions - self.cache_warm.evictions
    }
}

/// [`ROUNDS`] rounds, each `before_round()` (other measured work, with the
/// server idle), then an open loop over the round's share of `seq` at
/// `rate_hz` on one connection, then a closed loop on [`CLOSED_CONNS`]
/// connection for its share of `closed`, each loop after a sample of the
/// reference work: every figure then rests on slices spread across the
/// run, not on one stretch of the host's time.
pub fn measure(
    serving: &Serving,
    catalog: &[Entry],
    seq: &[usize],
    rate_hz: f64,
    closed: Duration,
    before_round: &mut dyn FnMut() -> Result<(), String>,
) -> Result<ServeRun, String> {
    let addr = serving.socket.local_addr();
    let frames: Vec<String> = seq.iter().map(|&i| catalog[i].frame.clone()).collect();
    let cache_warm = serving.server.engine().cache_stats();
    let mut run = ServeRun {
        open: Vec::with_capacity(ROUNDS),
        closed: Vec::with_capacity(ROUNDS),
        closed_cpu_s: Vec::with_capacity(ROUNDS),
        stats: ServeStats::default(),
        cache_warm,
        cache_end: cache_warm,
    };
    let share = frames.len().div_ceil(ROUNDS);
    for (r, chunk) in frames.chunks(share).enumerate() {
        before_round()?;
        cpu::sample_reference();
        let check = |k: usize, line: &str| line == catalog[seq[r * share + k]].expected_line;
        run.open
            .push(open_loop(addr, chunk, rate_hz, &check).map_err(|e| format!("open loop: {e}"))?);
        let check = |k: usize, line: &str| line == catalog[seq[k]].expected_line;
        cpu::sample_reference();
        let c0 = cpu::process_s();
        run.closed.push(
            closed_loop(addr, &frames, CLOSED_CONNS, closed / ROUNDS as u32, &check)
                .map_err(|e| format!("closed loop: {e}"))?,
        );
        run.closed_cpu_s.push(cpu::process_s() - c0);
    }
    run.stats = serving.server.stats();
    run.cache_end = serving.server.engine().cache_stats();
    Ok(run)
}

/// Per-request layer times from the traced serving replay, in seconds.
#[derive(Debug, Default, Clone)]
pub struct ServeLayers {
    /// Untraced socket round trip, mean.
    pub untraced_s: f64,
    /// Traced socket round trip, mean.
    pub socket_s: f64,
    /// `QueryServer::handle_frame`, mean.
    pub frame_s: f64,
    /// `parse_batch`, mean.
    pub parse_s: f64,
    /// Engine `run`, mean.
    pub engine_s: f64,
    /// `CachedStore::get` time per request (all reads of its slowest shard).
    pub cache_s: f64,
    /// Mean `get` time of hits.
    pub get_hit_s: f64,
    /// Mean `get` time of misses.
    pub get_miss_s: f64,
    /// `Store::load_bitmap` time per request (its slowest shard).
    pub load_per_req_s: f64,
    /// Mean `Store::load_bitmap` time per load.
    pub load_s: f64,
    /// Mean decoded bytes per load.
    pub load_bytes: f64,
    /// Subset evaluation time per subset request (its slowest shard).
    pub eval_s: f64,
    /// Correlation time per correlation request.
    pub corr_s: f64,
    /// Query-function time per request (both kinds, slowest shard).
    pub query_per_req_s: f64,
    /// Shards each request touched, mean.
    pub fanout: f64,
    /// Replayed answers that differed from the full-data scan.
    pub wrong: u64,
}

impl ServeLayers {
    /// Self time of the socket front end.
    pub fn socket_self_s(&self) -> f64 {
        self.socket_s - self.frame_s
    }

    /// Self time of the serving shell: admission, queueing, hand-off.
    pub fn serving_self_s(&self) -> f64 {
        self.frame_s - self.parse_s - self.engine_s
    }

    /// Self time of the engine: planning, shard fan-out and merge.
    pub fn engine_self_s(&self) -> f64 {
        self.engine_s - self.cache_s - self.query_per_req_s
    }

    /// Self time of the cache: lookup, insert, evict.
    pub fn cache_self_s(&self) -> f64 {
        self.cache_s - self.load_per_req_s
    }

    /// Every layer's self time, by layer, before clamping. Self times are
    /// differences of adjacent boundaries, so without clamping they sum to
    /// `socket_s` exactly.
    pub fn self_times(&self) -> [(&'static str, f64); 7] {
        [
            ("socket", self.socket_self_s()),
            ("serving", self.serving_self_s()),
            ("parse", self.parse_s),
            ("engine", self.engine_self_s()),
            ("cache", self.cache_self_s()),
            ("load", self.load_per_req_s),
            ("query", self.query_per_req_s),
        ]
    }

    /// Layer self times (negative ones as zero) summed: the round trip the
    /// trace accounts for.
    pub fn attributed_s(&self) -> f64 {
        self.self_times().iter().map(|(_, t)| t.max(0.0)).sum()
    }
}

/// Requests per replay block: every boundary replays a block before the
/// next block starts, so a slow stretch of the host slows all boundaries
/// alike, while one boundary's work does not evict another's from the CPU
/// caches between every request.
const REPLAY_BLOCK: usize = 50;

/// One connection's round trips, timed per request (`tracer`) or only as a
/// total (`None`).
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(serving: &Serving) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(serving.socket.local_addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            reader,
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends `frame` and reads the answer; `None` when the connection fails.
    fn round_trip(&mut self, frame: &str) -> Option<&str> {
        self.line.clear();
        let ok = self.writer.write_all(frame.as_bytes()).is_ok()
            && self.reader.read_line(&mut self.line).is_ok_and(|r| r > 0);
        ok.then(|| self.line.trim_end())
    }
}

/// Replays `seq` in blocks. Each block passes every boundary in turn —
/// socket round trips untraced and traced, `handle_frame`, `parse_batch`,
/// engine `run`, `CachedStore::get`, `Store::load_bitmap` for each miss,
/// the query functions — and each boundary has its own fresh warmed
/// engine with the backend's budget, so cache state evolves alike at every
/// boundary. The untraced and traced socket passes alternate which goes
/// first, so their difference is the tracing's own cost.
pub fn replay_serve(
    backend: &Backend,
    catalog: &[Entry],
    seq: &[usize],
    tracer: &mut Tracer,
) -> Result<ServeLayers, String> {
    let n = seq.len();
    let mut out = ServeLayers::default();
    let per_req = |total: f64| total / n.max(1) as f64;
    let frames: Vec<String> = seq.iter().map(|&i| catalog[i].frame.clone()).collect();
    let check = |k: usize, line: &str| line == catalog[seq[k]].expected_line;

    let plain = Serving::start(backend, catalog)?;
    let traced = Serving::start(backend, catalog)?;
    let (mut plain_conn, mut traced_conn) = (Conn::open(&plain)?, Conn::open(&traced)?);
    let server = {
        let engine = backend.engine()?;
        warm(&engine, catalog);
        let cfg = ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        };
        QueryServer::start(engine, cfg).map_err(|e| format!("serve: {e}"))?
    };
    let engine = backend.engine()?;
    warm(&engine, catalog);
    let (caches, stores) = shard_caches(backend)?;
    for e in catalog {
        for (step, var) in e.reads() {
            for (s, c) in caches.iter().enumerate() {
                c.get(var, step)
                    .map_err(|e| format!("warm shard {s}: {e}"))?;
            }
        }
    }
    let (step0, var0) = catalog[0].reads()[0];
    let mut n_rows = 0;
    for c in &caches {
        n_rows += c
            .get(var0, step0)
            .map_err(|e| format!("get: {e}"))?
            .low()
            .len();
    }
    let cuts = shard_cuts(n_rows, caches.len());
    let resident = shard_caches(backend)?.0;
    if resident.len() > 1 && seq.iter().any(|&i| catalog[i].reads().len() > 1) {
        return Err("the replay times correlations on flat stores only".into());
    }
    let lookups = |e: &EngineBackend| -> Vec<u64> {
        match e {
            EngineBackend::Single(q) => vec![q.cache_stats().hits + q.cache_stats().misses],
            EngineBackend::Sharded(s) => s
                .shard_caches()
                .iter()
                .map(|c| c.stats().hits + c.stats().misses)
                .collect(),
        }
    };
    let wanted = |e: &Entry| -> Vec<usize> {
        match e.region() {
            Some(r) if caches.len() > 1 => (0..caches.len())
                .filter(|&s| cuts[s] < r.end && cuts[s + 1] > r.start)
                .collect(),
            _ => (0..caches.len()).collect(),
        }
    };

    let mut untraced_t = 0.0;
    let mut touched = 0usize;
    let (mut hit_t, mut hits, mut miss_t, mut misses) = (0.0, 0usize, 0.0, 0usize);
    let (mut load_t, mut load_bytes) = (0.0, 0usize);
    // Per request and shard: `get`, `load_bitmap` and query-function time.
    // The engine runs a request's shards side by side, so each request is
    // charged the times of its slowest shard, not their sum.
    let mut shard_t = vec![vec![[0.0f64; 3]; caches.len()]; n];
    let ids: Vec<usize> = (0..n).collect();
    for (b, block) in ids.chunks(REPLAY_BLOCK).enumerate() {
        for pass in 0..2 {
            if (pass + b) % 2 == 0 {
                let t0 = std::time::Instant::now();
                for &k in block {
                    let ok = plain_conn
                        .round_trip(&frames[k])
                        .is_some_and(|l| check(k, l));
                    out.wrong += u64::from(!ok);
                }
                untraced_t += t0.elapsed().as_secs_f64();
            } else {
                for &k in block {
                    let (ok, t) = tracer.time(k as u64, "socket.round_trip", None, || {
                        traced_conn
                            .round_trip(&frames[k])
                            .is_some_and(|l| check(k, l))
                    });
                    out.socket_s += t;
                    out.wrong += u64::from(!ok);
                }
            }
        }
        for &k in block {
            let body = frames[k].trim_end();
            let (resp, t) = tracer.time(
                k as u64,
                "serving.handle_frame",
                Some("socket.round_trip"),
                || server.handle_frame(body),
            );
            out.frame_s += t;
            out.wrong += u64::from(!check(k, &resp));
        }
        for &k in block {
            let body = frames[k].trim_end();
            let (parsed, t) = tracer.time(
                k as u64,
                "engine.parse",
                Some("serving.handle_frame"),
                || parse_batch(body),
            );
            out.parse_s += t;
            out.wrong += u64::from(parsed.map(|p| p.len()) != Ok(1));
        }
        for &k in block {
            let e = &catalog[seq[k]];
            let before = lookups(&engine);
            let (ans, t) =
                tracer.time(k as u64, "engine.run", Some("serving.handle_frame"), || {
                    engine.run(&e.request)
                });
            out.engine_s += t;
            out.wrong += u64::from(ans.as_ref() != Ok(&e.expected));
            touched += before
                .iter()
                .zip(lookups(&engine))
                .filter(|(b, a)| *a > **b)
                .count();
        }
        for &k in block {
            let e = &catalog[seq[k]];
            for s in wanted(e) {
                for (step, var) in e.reads() {
                    let before = caches[s].stats().misses;
                    let (r, t) = tracer.time(k as u64, "cache.get", Some("engine.run"), || {
                        caches[s].get(var, step)
                    });
                    r.map_err(|e| format!("cache get: {e}"))?;
                    shard_t[k][s][0] += t;
                    if caches[s].stats().misses == before {
                        hit_t += t;
                        hits += 1;
                        continue;
                    }
                    miss_t += t;
                    misses += 1;
                    let (idx, t) =
                        tracer.time(k as u64, "store.load_bitmap", Some("cache.get"), || {
                            stores[s].load_bitmap(var, step)
                        });
                    load_bytes += idx.map_err(|e| format!("load: {e}"))?.size_bytes();
                    load_t += t;
                    shard_t[k][s][1] += t;
                }
            }
        }
        for &k in block {
            let e = &catalog[seq[k]];
            match &e.request {
                QueryRequest::Subset {
                    step,
                    variable,
                    query,
                } => {
                    for s in wanted(e) {
                        let ml = resident[s]
                            .get(variable, *step)
                            .map_err(|e| format!("resident get: {e}"))?;
                        let (r, t) =
                            tracer.time(k as u64, "query.evaluate", Some("engine.run"), || {
                                evaluate_shard(query, &ml, &cuts, s)
                            });
                        r?;
                        shard_t[k][s][2] += t;
                    }
                }
                QueryRequest::Correlation {
                    step,
                    var_a,
                    var_b,
                    query_a,
                    query_b,
                } => {
                    let a = resident[0]
                        .get(var_a, *step)
                        .map_err(|e| format!("get: {e}"))?;
                    let b = resident[0]
                        .get(var_b, *step)
                        .map_err(|e| format!("get: {e}"))?;
                    let (r, t) =
                        tracer.time(k as u64, "query.correlation", Some("engine.run"), || {
                            correlation_query_ml(&a, &b, query_a, query_b)
                        });
                    r.map_err(|e| format!("correlation: {e}"))?;
                    shard_t[k][0][2] += t;
                }
            }
        }
    }
    drop((plain_conn, traced_conn));
    plain.stop();
    traced.stop();
    server.shutdown();

    let (mut crit_load_t, mut eval_t, mut evals, mut corr_t, mut corrs) =
        (0.0, 0.0, 0usize, 0.0, 0usize);
    for (k, per_shard) in shard_t.iter().enumerate() {
        let slowest = per_shard
            .iter()
            .copied()
            .max_by(|a, b| (a[0] + a[2]).total_cmp(&(b[0] + b[2])))
            .unwrap_or_default();
        out.cache_s += slowest[0];
        crit_load_t += slowest[1];
        if catalog[seq[k]].reads().len() > 1 {
            corr_t += slowest[2];
            corrs += 1;
        } else {
            eval_t += slowest[2];
            evals += 1;
        }
    }
    out.untraced_s = per_req(untraced_t);
    out.fanout = touched as f64 / n.max(1) as f64;
    out.get_hit_s = hit_t / hits.max(1) as f64;
    out.get_miss_s = miss_t / misses.max(1) as f64;
    out.load_s = load_t / misses.max(1) as f64;
    out.load_bytes = load_bytes as f64 / misses.max(1) as f64;
    out.load_per_req_s = per_req(crit_load_t);
    out.eval_s = eval_t / evals.max(1) as f64;
    out.corr_s = corr_t / corrs.max(1) as f64;
    out.query_per_req_s = per_req(eval_t + corr_t);
    out.socket_s = per_req(out.socket_s);
    out.frame_s = per_req(out.frame_s);
    out.parse_s = per_req(out.parse_s);
    out.engine_s = per_req(out.engine_s);
    out.cache_s = per_req(out.cache_s);
    Ok(out)
}

/// Evaluates `query` on shard `s` (the whole index when unsharded).
fn evaluate_shard(
    query: &SubsetQuery,
    ml: &MultiLevelIndex,
    cuts: &[u64],
    s: usize,
) -> Result<u64, String> {
    let global = cuts[cuts.len() - 1];
    let sel = if cuts.len() == 2 {
        query.evaluate_ml(ml)
    } else {
        evaluate_ml_shard(query, ml, cuts[s]..cuts[s + 1], global, None)
    };
    sel.map(|v| v.count_ones())
        .map_err(|e| format!("evaluate: {e}"))
}

/// Fresh per-shard caches (one for a flat store) with the backend's
/// budget split as the engine splits it, and the stores behind them.
fn shard_caches(backend: &Backend) -> Result<(Vec<CachedStore>, Vec<Store>), String> {
    let open = || -> Result<Vec<Store>, ibis_insitu::IbisError> {
        match backend {
            Backend::Flat(dir, _) => Ok(vec![Store::open(dir)?]),
            Backend::Sharded(dir, _) => Ok(ShardedStore::open(dir)?.into_shards()),
        }
    };
    let stores = open().map_err(|e| format!("open: {e}"))?;
    let budget = match backend {
        Backend::Flat(_, b) | Backend::Sharded(_, b) => *b / stores.len() as u64,
    };
    let caches = stores
        .into_iter()
        .map(|s| CachedStore::new(s, budget))
        .collect();
    Ok((caches, open().map_err(|e| format!("open: {e}"))?))
}
