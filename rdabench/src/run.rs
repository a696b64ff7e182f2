//! One run of one workload: set up (several times, keeping the last),
//! then whole rounds of client calls until the measured time is over,
//! checking every answer against the oracle.

use crate::clock::process_cpu;
use crate::data::Model;
use crate::oracle::{Key, Oracle};
use crate::request::{Kind, Request};
use crate::rng::Rng;
use crate::stats::{quantile, tail_ok, Metric};
use crate::trace::Tracer;
use crate::workload::{Sampler, Workload};
use rda_core::{
    AccessPlan, DirectAccess, Engine, OrderSpec, PlanError, Policy, RankedAnswers, WindowBuf,
};
use rda_db::{relation_encode_count, Database, Snapshot, SnapshotStore};
use rda_query::classify::{classify, Problem};
use rda_serve::{Cursor, PageOutcome, Prepared, ServeError, Server, ServerConfig, Session, Token};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Instance size factor (1.0 in the benchmark; tests shrink it).
    pub scale: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Where the snapshot store and the span file go.
    pub scratch: PathBuf,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The counts over the first `count_rounds` rounds: fixed by the
    /// seed, whatever the run length or the host.
    pub counts: Vec<(&'static str, u64)>,
}

/// The program under test, set up: a cold-opened engine over a
/// persisted base, the mutation mirror, and the benchmark's model.
struct World {
    model: Model,
    db: Database,
    parent: Arc<Snapshot>,
    store: SnapshotStore,
    engine: Arc<Engine>,
}

/// A served plan's cursors: `start` (rank 0), `tok` (the latest token
/// of any rank, for random pages and batches) and `stream`, each with
/// the generation it was stamped at.
struct Cursors {
    start: (Token, u64),
    tok: (Token, u64),
    stream: (Token, u64),
    stream_rank: u64,
    last_key: Option<Key>,
    len: u64,
}

impl Cursors {
    fn new(p: &Prepared) -> Cursors {
        let t = (p.token.clone(), p.generation);
        Cursors {
            start: t.clone(),
            tok: t.clone(),
            stream: t,
            stream_rank: 0,
            last_key: None,
            len: p.len,
        }
    }
}

#[derive(Clone, Copy)]
enum PageKind {
    Stream,
    Page,
    Batch,
}

/// Oracles per request, rebuilt when a relation they read changes. The
/// served plans' oracles stay; of the others only the latest is kept,
/// so the benchmark's own memory does not grow into `peak_rss_mb`.
struct Oracles {
    built: HashMap<usize, (u64, Box<dyn Oracle>)>,
    served: Vec<usize>,
}

impl Oracles {
    fn get(&mut self, i: usize, req: &Request, m: &Model) -> Option<&dyn Oracle> {
        let version = m.version_of(&req.rels);
        if self.built.get(&i).is_none_or(|(v, _)| *v != version) {
            let served = &self.served;
            self.built.retain(|&k, _| k == i || served.contains(&k));
            let o = req.oracle(m)?;
            self.built.insert(i, (version, o));
        }
        self.built.get(&i).map(|(_, o)| o.as_ref())
    }
}

struct Counts {
    stats: rda_serve::StatsSnapshot,
    encodes: u64,
    resumed: u64,
    carried: u64,
}

struct Run<'w, 's> {
    w: &'w Workload,
    opt: &'w Options,
    world: World,
    session: Session<'s>,
    server: &'s Server,
    tr: Tracer,
    cursors: Vec<Cursors>,
    oracles: Oracles,
    /// Last plan seen per request, to tell a cache hit from a build in
    /// the traced replay.
    plans: HashMap<usize, Weak<AccessPlan>>,
    attempted: u64,
    failed: u64,
    correct: bool,
    session_calls: u64,
    /// CPU seconds spent in `Session` calls and write batches.
    busy: f64,
    /// Wall-clock length of the measured phase.
    phase_s: f64,
    /// Peak RSS after the first `count_rounds` rounds: a fixed amount of
    /// work, so a slower host running fewer rounds does not read as
    /// smaller memory.
    rss_mb: f64,
    page: Timings,
    batch: Timings,
    prepare: Timings,
    advance: Timings,
    resumed: u64,
    carried: u64,
    op_id: u64,
    replay_buf: WindowBuf,
}

/// What one call cost: wall-clock time on the client, and CPU time of
/// the whole process (client, worker and build fan-out; time spent
/// waiting for a CPU is not in it).
#[derive(Clone, Copy)]
struct Cost {
    end: Instant,
    wall: Duration,
    cpu: f64,
}

struct Lap {
    start: Instant,
    cpu: f64,
}

impl Lap {
    fn start() -> Lap {
        let cpu = process_cpu();
        Lap {
            start: Instant::now(),
            cpu,
        }
    }

    fn stop(&self) -> Cost {
        let end = Instant::now();
        Cost {
            end,
            wall: end - self.start,
            cpu: process_cpu() - self.cpu,
        }
    }
}

/// Costs of one kind of call, in seconds.
#[derive(Default)]
struct Timings {
    cpu: Vec<f64>,
    wall: Vec<f64>,
}

impl Timings {
    fn push(&mut self, c: Cost) {
        self.cpu.push(c.cpu);
        self.wall.push(c.wall.as_secs_f64());
    }
}

fn ints(buf: &WindowBuf, i: usize) -> Vec<i64> {
    buf.row(i)
        .iter()
        .map(|v| v.as_int().expect("benchmark values are integers"))
        .collect()
}

/// A window served from rank `start`: the right number of rows, every
/// row an answer, keys non-decreasing (also across the previous page of
/// a stream, `prev`), and the first and last rows equal to the
/// oracle's answers at their ranks. Returns the last key.
fn check_window(
    o: &dyn Oracle,
    buf: &WindowBuf,
    start: u64,
    asked: u64,
    prev: Option<&Key>,
) -> Result<Option<Key>, String> {
    let expect = asked.min(o.len().saturating_sub(start));
    if buf.len() as u64 != expect {
        return Err(format!(
            "{} rows at {start}, oracle says {expect}",
            buf.len()
        ));
    }
    let mut last = prev.cloned();
    for i in 0..buf.len() {
        let row = ints(buf, i);
        if !o.is_answer(&row) {
            return Err(format!("row {row:?} is not an answer"));
        }
        let key = o.order().key(&row);
        if last.as_ref().is_some_and(|l| key < *l) {
            return Err(format!(
                "row {row:?} out of order at rank {}",
                start + i as u64
            ));
        }
        last = Some(key);
    }
    for i in [0, buf.len().saturating_sub(1)] {
        if i < buf.len() {
            let rank = start + i as u64;
            let key = o.order().key(&ints(buf, i));
            if o.key_at(rank).as_ref() != Some(&key) {
                return Err(format!(
                    "rank {rank}: got key {key:?}, oracle {:?}",
                    o.key_at(rank)
                ));
            }
        }
    }
    Ok(last)
}

/// A batch: one row per in-range rank, in the requested order, each an
/// answer; sampled rows equal the oracle's; rows sorted by their ranks
/// have non-decreasing keys.
fn check_batch(o: &dyn Oracle, buf: &WindowBuf, ranks: &[u64]) -> Result<(), String> {
    let ranks: Vec<u64> = ranks.iter().copied().filter(|&r| r < o.len()).collect();
    if buf.len() != ranks.len() {
        return Err(format!("{} rows for {} ranks", buf.len(), ranks.len()));
    }
    let mut keyed = Vec::with_capacity(ranks.len());
    for (i, &rank) in ranks.iter().enumerate() {
        let row = ints(buf, i);
        if !o.is_answer(&row) {
            return Err(format!("row {row:?} is not an answer"));
        }
        keyed.push((rank, o.order().key(&row)));
    }
    let n = keyed.len();
    for i in [0, n / 2, n.saturating_sub(1)] {
        if i < n && o.key_at(keyed[i].0).as_ref() != Some(&keyed[i].1) {
            return Err(format!("batch rank {}: key {:?}", keyed[i].0, keyed[i].1));
        }
    }
    keyed.sort();
    if keyed.windows(2).any(|p| p[1].1 < p[0].1) {
        return Err("batch rows disagree with their ranks' order".to_string());
    }
    Ok(())
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn prepare(s: &mut Session<'_>, req: &Request) -> Result<Prepared, ServeError> {
    s.prepare(&req.q, req.order.clone(), &req.fds, Policy::Reject)
}

/// Generate, freeze, persist and cold-open the instance.
fn build_world(w: &Workload, opt: &Options, dir: &Path, tr: &mut Tracer) -> World {
    let model = w.instance(opt.seed, opt.scale);
    let db = model.database();
    let (snap, t) = tr.time("db.freeze", None, 0, || db.freeze());
    tr.sample("db.freeze_ms", t * 1e3);
    let _ = std::fs::remove_dir_all(dir);
    SnapshotStore::create(dir, &snap).expect("persist the base snapshot");
    drop(snap);
    let (engine, t) = tr.time("db.open", None, 0, || Engine::open(dir));
    tr.sample("db.open_ms", t * 1e3);
    let engine = Arc::new(engine.expect("open the persisted base"));
    let parent = engine.snapshot();
    World {
        model,
        db: parent.database().clone(),
        store: SnapshotStore::open(dir).expect("reattach the store"),
        parent,
        engine,
    }
}

/// The snapshot store's directory, removed however the run ends.
struct StoreDir(PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(w: &Workload, opt: &Options) -> Outcome {
    let mut tr = Tracer::new(opt.trace);
    let dir = StoreDir(
        opt.scratch
            .join(format!("store-{}-{}", w.name, std::process::id())),
    );
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let mut setup_s = Vec::new();
    let (world, server, warm) = loop {
        let t0 = Instant::now();
        let world = build_world(w, opt, &dir.0, &mut tr);
        let server = Server::new(Arc::clone(&world.engine), config.clone());
        let warm: Vec<Prepared> = {
            let mut s = server.session();
            w.served
                .iter()
                .map(|&i| prepare(&mut s, &w.requests[i]).expect("served plans prepare"))
                .collect()
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() >= opt.setups {
            break (world, server, warm);
        }
    };
    let mut run = Run {
        w,
        opt,
        world,
        session: server.session(),
        server: &server,
        tr,
        cursors: warm.iter().map(Cursors::new).collect(),
        oracles: Oracles {
            built: HashMap::new(),
            served: w.served.clone(),
        },
        plans: HashMap::new(),
        attempted: 0,
        failed: 0,
        correct: true,
        session_calls: 0,
        busy: 0.0,
        phase_s: 0.0,
        rss_mb: 0.0,
        page: Timings::default(),
        batch: Timings::default(),
        prepare: Timings::default(),
        advance: Timings::default(),
        resumed: 0,
        carried: 0,
        op_id: 0,
        replay_buf: WindowBuf::new(),
    };
    for (k, p) in warm.iter().enumerate() {
        let req = &w.requests[w.served[k]];
        run.check_prepared(w.served[k], req, p);
    }
    let counts = run.measure();
    let span_file = opt.scratch.join(format!("trace-{}.jsonl", w.name));
    let outcome = run.finish(&setup_s, counts, &span_file);
    drop(server);
    outcome
}

impl Run<'_, '_> {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("failed operation: {what}");
        }
    }

    fn wrong(&mut self, what: String) {
        if self.correct {
            eprintln!("wrong answer: {what}");
        }
        self.correct = false;
    }

    fn counts_now(&self) -> Counts {
        Counts {
            stats: self.server.stats(),
            encodes: relation_encode_count(),
            resumed: self.resumed,
            carried: self.carried,
        }
    }

    /// Whole rounds until the measured time is over (and at least
    /// `count_rounds`); returns the counts over the first
    /// `count_rounds` rounds as `(at start, at count_rounds)`.
    fn measure(&mut self) -> (Counts, Counts) {
        let begin = self.counts_now();
        let mut at_k = None;
        let begin_at = Instant::now();
        let deadline = begin_at + Duration::from_secs_f64(self.opt.seconds);
        let mut sampler: Sampler = self.w.sampler();
        let mut round = 0usize;
        loop {
            let mut rng = Rng::stream(self.opt.seed, (1 << 32) | round as u64);
            for _ in 0..self.w.page_ops {
                self.page_op(&mut rng);
            }
            let requests = if round.is_multiple_of(self.w.request_every) {
                self.w.requests_per_round
            } else {
                0
            };
            for _ in 0..requests {
                let r = sampler.draw(self.w, &mut rng);
                self.request_op(r, &mut rng);
            }
            self.write_op(&mut rng, round);
            round += 1;
            if round == self.w.count_rounds {
                at_k = Some(self.counts_now());
                self.rss_mb = peak_rss_mb();
            }
            if at_k.is_some() && Instant::now() >= deadline {
                break;
            }
        }
        self.phase_s = begin_at.elapsed().as_secs_f64();
        (begin, at_k.expect("count_rounds reached"))
    }

    fn next_id(&mut self) -> u64 {
        self.op_id += 1;
        self.op_id
    }

    fn check_prepared(&mut self, i: usize, req: &Request, p: &Prepared) -> bool {
        if Some(p.backend) != req.kind.backend() {
            self.fail(format!("{}: routed to {}", req.label, p.backend));
            return false;
        }
        if p.generation != self.world.model.generation {
            self.fail(format!("{}: generation {}", req.label, p.generation));
            return false;
        }
        let model = &self.world.model;
        let len = self.oracles.get(i, req, model).map(|o| o.len());
        if len != Some(p.len) {
            self.wrong(format!("{}: len {} oracle {len:?}", req.label, p.len));
        }
        true
    }

    fn page_op(&mut self, rng: &mut Rng) {
        let w = self.w;
        let k = rng.below(w.served.len() as u64) as usize;
        let pick = rng.below(w.mix.iter().sum());
        let kind = if pick < w.mix[0] {
            PageKind::Stream
        } else if pick < w.mix[0] + w.mix[1] {
            PageKind::Page
        } else {
            PageKind::Batch
        };
        let ri = w.served[k];
        let req = &w.requests[ri];
        let c = &self.cursors[k];
        let len = c.len;
        let (tok, tok_gen) = match kind {
            PageKind::Stream => c.stream.clone(),
            _ => c.tok.clone(),
        };
        let start = match kind {
            PageKind::Stream => c.stream_rank,
            _ => rng.below(len.max(1)),
        };
        let ranks: Vec<u64> = match kind {
            PageKind::Batch => (0..w.batch_ranks).map(|_| rng.below(len.max(1))).collect(),
            _ => Vec::new(),
        };
        let expect_stale = self.world.model.version_of(&req.rels) > tok_gen;
        let id = self.next_id();
        let lap = Lap::start();
        let res = match kind {
            PageKind::Stream => self.session.stream_next(&tok, w.stream_rows),
            PageKind::Page => self.session.page(&tok, start, w.page_rows),
            PageKind::Batch => self.session.page_batch(&tok, &ranks),
        };
        let cost = lap.stop();
        self.attempted += 1;
        self.session_calls += 1;
        self.busy += cost.cpu;
        let name = match kind {
            PageKind::Stream => "op.stream_next",
            PageKind::Page => "op.page",
            PageKind::Batch => "op.page_batch",
        };
        let root = self.tr.span(name, lap.start, cost.end, None, id);
        let out = match res {
            Err(ServeError::CursorStale(_)) if expect_stale => {
                self.reprepare(k, ri, Some(cost));
                return;
            }
            Err(e) => {
                self.fail(format!("{}: {e}", req.label));
                self.reprepare(k, ri, None);
                return;
            }
            Ok(out) => out,
        };
        if expect_stale {
            self.fail(format!("{}: stale cursor served", req.label));
        }
        match kind {
            PageKind::Batch => self.batch.push(cost),
            _ => self.page.push(cost),
        }
        self.check_outcome(&out, tok_gen, &req.label);
        let model = &self.world.model;
        let oracle = self
            .oracles
            .get(ri, req, model)
            .expect("served plans have oracles");
        let rows = self.session.rows();
        let c = &mut self.cursors[k];
        let checked = match kind {
            PageKind::Stream => {
                let r = check_window(oracle, rows, start, w.stream_rows, c.last_key.as_ref());
                if let Ok(last) = &r {
                    c.stream_rank += rows.len() as u64;
                    c.last_key = last.clone();
                    match &out.next {
                        Some(next) => c.stream = (next.clone(), out.generation),
                        None => {
                            c.stream = c.start.clone();
                            c.stream_rank = 0;
                            c.last_key = None;
                        }
                    }
                }
                r.map(|_| ())
            }
            PageKind::Page => check_window(oracle, rows, start, w.page_rows, None).map(|_| ()),
            PageKind::Batch => check_batch(oracle, rows, &ranks),
        };
        if let (PageKind::Page | PageKind::Batch, Some(next)) = (kind, &out.next) {
            c.tok = (next.clone(), out.generation);
        }
        if let Err(e) = checked {
            self.wrong(format!("{}: {e}", req.label));
        }
        if self.tr.enabled {
            let (rows, ranks) = match kind {
                PageKind::Stream => (w.stream_rows, vec![start]),
                PageKind::Page => (w.page_rows, vec![start]),
                PageKind::Batch => (w.page_rows, ranks),
            };
            self.replay_page(ri, &tok, kind, rows, &ranks, &out, cost.wall, root, id);
        }
    }

    /// Resumption bookkeeping every page reply must satisfy.
    fn check_outcome(&mut self, out: &PageOutcome, tok_gen: u64, label: &str) {
        let now = self.world.model.generation;
        if out.generation != now {
            self.fail(format!("{label}: served generation {}", out.generation));
        }
        if out.resumed != (tok_gen < now) {
            self.fail(format!(
                "{label}: resumed = {} for a cursor of {tok_gen}",
                out.resumed
            ));
        }
        self.resumed += out.resumed as u64;
    }

    /// The client's answer to a stale cursor: prepare again. The page
    /// call that reported the cursor stale, `stale`, counts into this
    /// prepare's cost: the server builds the new generation's plan
    /// before it checks the cursor, so that call pays the build and the
    /// prepare after it hits the cache. Timing both as one keeps the
    /// metric still when that work moves between the two calls.
    fn reprepare(&mut self, k: usize, ri: usize, stale: Option<Cost>) {
        let w = self.w;
        let req = &w.requests[ri];
        let id = self.next_id();
        if let Some(p) = self.timed_prepare(ri, req, id, stale) {
            if self.check_prepared(ri, req, &p) {
                self.cursors[k] = Cursors::new(&p);
            }
        }
    }

    /// `Session::prepare`, timed and counted, with the traced replay;
    /// `before` is a call already spent on this request.
    fn timed_prepare(
        &mut self,
        ri: usize,
        req: &Request,
        id: u64,
        before: Option<Cost>,
    ) -> Option<Prepared> {
        let lap = Lap::start();
        let res = prepare(&mut self.session, req);
        let mut cost = lap.stop();
        self.attempted += 1;
        self.session_calls += 1;
        self.busy += cost.cpu;
        let root = self.tr.span("op.prepare", lap.start, cost.end, None, id);
        if let Some(b) = before {
            cost.wall += b.wall;
            cost.cpu += b.cpu;
        }
        match (req.kind, res) {
            (Kind::Intractable, Err(ServeError::Plan(PlanError::Intractable { .. }))) => None,
            (Kind::Intractable, other) => {
                self.fail(format!(
                    "{}: expected Intractable, got {other:?}",
                    req.label
                ));
                None
            }
            (_, Err(e)) => {
                self.fail(format!("{}: {e}", req.label));
                None
            }
            (_, Ok(p)) => {
                self.prepare.push(cost);
                if self.tr.enabled {
                    self.replay_prepare(ri, req, root, id);
                }
                Some(p)
            }
        }
    }

    fn request_op(&mut self, ri: usize, rng: &mut Rng) {
        let w = self.w;
        let req = &w.requests[ri];
        let id = self.next_id();
        let prepared = self.timed_prepare(ri, req, id, None);
        if req.kind == Kind::Intractable {
            return;
        }
        let Some(p) = prepared else { return };
        if !self.check_prepared(ri, req, &p) {
            return;
        }
        for _ in 0..w.follow_ups {
            self.follow_up(ri, &p, false, rng);
            self.follow_up(ri, &p, true, rng);
        }
    }

    /// A short page or batch on a freshly prepared plan.
    fn follow_up(&mut self, ri: usize, p: &Prepared, batch: bool, rng: &mut Rng) {
        let w = self.w;
        let req = &w.requests[ri];
        let rows = if req.kind.is_selection() {
            w.selection_rows
        } else {
            w.follow_rows
        };
        let offset = rng.below(p.len.max(1));
        let ranks: Vec<u64> = if batch {
            (0..rows).map(|_| rng.below(p.len.max(1))).collect()
        } else {
            Vec::new()
        };
        let id = self.next_id();
        let lap = Lap::start();
        let res = if batch {
            self.session.page_batch(&p.token, &ranks)
        } else {
            self.session.page(&p.token, offset, rows)
        };
        let cost = lap.stop();
        self.attempted += 1;
        self.session_calls += 1;
        self.busy += cost.cpu;
        let name = if batch { "op.page_batch" } else { "op.page" };
        let root = self.tr.span(name, lap.start, cost.end, None, id);
        let out = match res {
            Ok(out) => out,
            Err(e) => {
                self.fail(format!("{}: follow-up {e}", req.label));
                return;
            }
        };
        if batch {
            self.batch.push(cost);
        } else {
            self.page.push(cost);
        }
        self.check_outcome(&out, p.generation, &req.label);
        let model = &self.world.model;
        let oracle = self
            .oracles
            .get(ri, req, model)
            .expect("tractable requests have oracles");
        let checked = if batch {
            check_batch(oracle, self.session.rows(), &ranks)
        } else {
            check_window(oracle, self.session.rows(), offset, rows, None).map(|_| ())
        };
        if let Err(e) = checked {
            self.wrong(format!("{}: {e}", req.label));
        }
        if self.tr.enabled {
            let kind = if batch {
                PageKind::Batch
            } else {
                PageKind::Page
            };
            let tok = p.token.clone();
            let start_ranks = if batch { ranks } else { vec![offset] };
            self.replay_page(
                ri,
                &tok,
                kind,
                rows,
                &start_ranks,
                &out,
                cost.wall,
                root,
                id,
            );
        }
    }

    /// One write batch: from its `freeze_delta` until the engine serves
    /// the new generation. `SnapshotStore::freeze_delta` is the first
    /// two steps; they are called one by one to time each.
    fn write_op(&mut self, rng: &mut Rng, round: usize) {
        let batches = self.w.write_batches(&self.world.model, rng, round);
        let world = &mut self.world;
        world.model.apply(&batches, &mut world.db);
        self.op_id += 1;
        let id = self.op_id;
        let tr = &mut self.tr;
        let lap = Lap::start();
        let root = tr.open("op.write", lap.start, id);
        let parent = Arc::clone(&world.parent);
        let (child, t_freeze) = tr.time("db.freeze_delta", root, id, || {
            parent.freeze_delta(&mut world.db)
        });
        let (path, t_append) = tr.time("db.append_delta", root, id, || {
            world.store.append_delta(&parent, &child)
        });
        let (carried, t_advance) = tr.time("core.advance", root, id, || {
            world.engine.advance(Arc::clone(&child))
        });
        let cost = lap.stop();
        tr.close(root, cost.end);
        tr.sample("db.freeze_delta_ms", t_freeze * 1e3);
        tr.sample("db.append_delta_ms", t_append * 1e3);
        tr.sample("core.advance_us", t_advance * 1e6);
        let user: u64 = batches.iter().map(|b| b.user_bytes()).sum();
        let delta_bytes = path.map(|p| std::fs::metadata(p).map(|m| m.len()));
        world.parent = child;
        let served = world.engine.generation();
        let dict_len = world.parent.dict().len();
        self.attempted += 1;
        self.busy += cost.cpu;
        self.advance.push(cost);
        self.carried += carried as u64;
        match delta_bytes {
            Ok(Ok(bytes)) => self
                .tr
                .sample("db.delta_bytes_per_user_byte", bytes as f64 / user as f64),
            other => self.fail(format!("append_delta: {other:?}")),
        }
        let model = &self.world.model;
        let (generation, model_dict) = (model.generation, model.dict.len());
        if served != generation {
            self.fail(format!(
                "engine serves generation {served}, oracle {generation}"
            ));
        }
        if dict_len != model_dict {
            self.wrong(format!("dictionary holds {dict_len}, oracle {model_dict}"));
        }
    }

    /// Replay a served page outside the server with the same token,
    /// ranks and plan, timing each step the worker takes.
    #[allow(clippy::too_many_arguments)]
    fn replay_page(
        &mut self,
        ri: usize,
        tok: &Token,
        kind: PageKind,
        rows: u64,
        ranks: &[u64],
        out: &PageOutcome,
        session_dt: Duration,
        root: Option<u32>,
        id: u64,
    ) {
        let w = self.w;
        let req = &w.requests[ri];
        let engine = Arc::clone(&self.world.engine);
        let tr = &mut self.tr;
        let (cursor, t_dec) = tr.time("replay.token_decode", root, id, || {
            Cursor::decode(tok).expect("valid token")
        });
        let (plan, t_look) = tr.time("replay.plan_lookup", root, id, || {
            engine.prepare(&req.q, req.order.clone(), &req.fds, Policy::Reject)
        });
        let plan = plan.expect("served plans prepare");
        let buf = &mut self.replay_buf;
        let (n, t_fill) = match kind {
            PageKind::Batch => tr.time("replay.batch_fill", root, id, || {
                plan.access_batch_into(ranks, buf)
            }),
            PageKind::Stream | PageKind::Page => {
                let start = match kind {
                    PageKind::Stream => cursor.next_rank,
                    _ => ranks[0],
                };
                tr.time("replay.window_fill", root, id, || {
                    plan.window_into(start..start.saturating_add(rows), buf)
                })
            }
        };
        let t_enc = match &out.next {
            Some(next) => {
                let c = Cursor::decode(next).expect("served token decodes");
                tr.time("replay.token_encode", root, id, || c.encode()).1
            }
            None => 0.0,
        };
        if n > 0 {
            let metric = match kind {
                PageKind::Batch => "core.batch_ns_per_rank",
                _ => "core.window_ns_per_row",
            };
            tr.sample(metric, t_fill * 1e9 / n as f64);
        }
        tr.sample("serve.token_decode_us", t_dec * 1e6);
        tr.sample("core.plan_lookup_us", t_look * 1e6);
        if out.next.is_some() {
            tr.sample("serve.token_encode_us", t_enc * 1e6);
        }
        tr.sample("serve.token_bytes", tok.len() as f64);
        let steps = t_dec + t_look + t_fill + t_enc;
        tr.sample("serve.handoff_us", (session_dt.as_secs_f64() - steps) * 1e6);
    }

    /// Replay a prepare: classification, the cache hit, and, when the
    /// session's prepare built (the plan changed), an uncached build of
    /// the same request by backend.
    fn replay_prepare(&mut self, ri: usize, req: &Request, root: Option<u32>, id: u64) {
        let engine = Arc::clone(&self.world.engine);
        let tr = &mut self.tr;
        let (da, sel) = match &req.order {
            OrderSpec::Lex(v) => (
                Problem::DirectAccessLex(v.clone()),
                Problem::SelectionLex(v.clone()),
            ),
            OrderSpec::Sum(_) => (Problem::DirectAccessSum, Problem::SelectionSum),
        };
        let ((), t_classify) = tr.time("replay.classify", root, id, || {
            std::hint::black_box(classify(&req.q, &req.fds, &da));
            if matches!(req.kind, Kind::SelLex | Kind::SelSum | Kind::Intractable) {
                std::hint::black_box(classify(&req.q, &req.fds, &sel));
            }
        });
        tr.sample("query.classify_us", t_classify * 1e6);
        let (plan, t_look) = tr.time("replay.plan_lookup", root, id, || {
            engine.prepare(&req.q, req.order.clone(), &req.fds, Policy::Reject)
        });
        tr.sample("core.plan_lookup_us", t_look * 1e6);
        let plan = plan.expect("prepared once already");
        let built = self
            .plans
            .insert(ri, Arc::downgrade(&plan))
            .is_none_or(|old| !std::ptr::eq(old.as_ptr(), Arc::as_ptr(&plan)));
        if !built {
            return;
        }
        let uncached = || {
            engine
                .prepare_uncached(&req.q, req.order.clone(), &req.fds, Policy::Reject)
                .expect("prepared once already")
        };
        match req.kind {
            Kind::Lex | Kind::Sum | Kind::Fd => {
                let metric = match req.kind {
                    Kind::Lex => "core.build_ms.lex",
                    Kind::Sum => "core.build_ms.sum",
                    _ => "core.build_ms.fd",
                };
                let (_, t) = tr.time("replay.build", root, id, uncached);
                tr.sample(metric, t * 1e3);
            }
            Kind::SelLex | Kind::SelSum => {
                let fresh = uncached();
                let (len, t) = tr.time("replay.selection_len", root, id, || fresh.len());
                tr.sample("core.selection_len_ms", t * 1e3);
                let k = len / 2;
                let (_, t) = tr.time("replay.select_once", root, id, || match fresh.answers() {
                    RankedAnswers::SelectionLex(h) => h.select_once(k).is_some(),
                    RankedAnswers::SelectionSum(h) => h.select_once(k).is_some(),
                    _ => false,
                });
                let metric = if req.kind == Kind::SelLex {
                    "orderstat.select_ms.lex"
                } else {
                    "orderstat.select_ms.sum"
                };
                tr.sample(metric, t * 1e3);
            }
            Kind::Intractable => {}
        }
    }

    fn finish(self, setup_s: &[f64], (begin, at_k): (Counts, Counts), span_file: &Path) -> Outcome {
        let d = |f: fn(&rda_serve::StatsSnapshot) -> u64| f(&at_k.stats) - f(&begin.stats);
        let counts = vec![
            ("serve.pages", d(|s| s.pages)),
            ("serve.batch_pages", d(|s| s.batch_pages)),
            ("serve.prepares", d(|s| s.prepares)),
            ("serve.stale_cursors", d(|s| s.stale_cursors)),
            ("serve.rows", d(|s| s.rows)),
            ("serve.resumed_pages", at_k.resumed - begin.resumed),
            ("core.plans_carried", at_k.carried - begin.carried),
            ("db.encode_count", at_k.encodes - begin.encodes),
            ("db.generations", self.w.count_rounds as u64),
        ];
        let mut metrics = Vec::new();
        let m = |name, value, unit| Metric { name, value, unit };
        if self.opt.trace {
            let tr = &self.tr;
            for (name, unit) in [
                ("serve.handoff_us", "us"),
                ("serve.token_decode_us", "us"),
                ("serve.token_encode_us", "us"),
                ("serve.token_bytes", "B"),
                ("core.plan_lookup_us", "us"),
                ("core.window_ns_per_row", "ns"),
                ("core.batch_ns_per_rank", "ns"),
                ("core.build_ms.lex", "ms"),
                ("core.build_ms.sum", "ms"),
                ("core.build_ms.fd", "ms"),
                ("core.selection_len_ms", "ms"),
                ("core.advance_us", "us"),
                ("orderstat.select_ms.lex", "ms"),
                ("orderstat.select_ms.sum", "ms"),
                ("query.classify_us", "us"),
                ("db.freeze_ms", "ms"),
                ("db.open_ms", "ms"),
                ("db.freeze_delta_ms", "ms"),
                ("db.append_delta_ms", "ms"),
                ("db.delta_bytes_per_user_byte", "ratio"),
            ] {
                metrics.push(m(name, tr.median(name).unwrap_or(0.0), unit));
            }
            for &(name, value) in &counts {
                metrics.push(m(name, value as f64, "count"));
            }
            metrics.push(m(
                "db.dict_len",
                self.world.parent.dict().len() as f64,
                "count",
            ));
            // The short calls, and client-side wall-clock latency: host
            // contention moves them as much as the program does, so they
            // are reported here, without a bound.
            for (name, v, q, scale, unit) in [
                ("cpu.page_p50_us", &self.page.cpu, 0.5, 1e6, "us"),
                ("cpu.page_p99_us", &self.page.cpu, 0.99, 1e6, "us"),
                ("cpu.batch_p50_us", &self.batch.cpu, 0.5, 1e6, "us"),
                ("cpu.batch_p99_us", &self.batch.cpu, 0.99, 1e6, "us"),
                ("wall.page_p50_us", &self.page.wall, 0.5, 1e6, "us"),
                ("wall.page_p99_us", &self.page.wall, 0.99, 1e6, "us"),
                ("wall.batch_p50_us", &self.batch.wall, 0.5, 1e6, "us"),
                ("wall.prepare_p50_ms", &self.prepare.wall, 0.5, 1e3, "ms"),
                ("wall.advance_p50_ms", &self.advance.wall, 0.5, 1e3, "ms"),
            ] {
                metrics.push(m(name, quantile(v, q) * scale, unit));
            }
            metrics.push(m("trace.calls_per_wall_s", self.calls_per_wall_s(), "1/s"));
            if let Err(e) = tr.write_spans(span_file) {
                eprintln!("could not write spans to {}: {e}", span_file.display());
            }
        } else {
            for (what, t, q) in [
                ("prepare", &self.prepare, 0.90),
                ("advance", &self.advance, 0.90),
            ] {
                if !tail_ok(t.cpu.len(), q) {
                    let n = t.cpu.len();
                    eprintln!(
                        "warning: {n} {what} samples leave no tail at p{}",
                        q * 100.0
                    );
                }
            }
            let p = |t: &Timings, q: f64, scale: f64| quantile(&t.cpu, q) * scale;
            metrics = vec![
                m("setup_s", quantile(setup_s, 0.5), "s"),
                m(
                    "ops_per_cpu_s",
                    self.session_calls as f64 / self.busy,
                    "1/s",
                ),
                m("prepare_cpu_p50_ms", p(&self.prepare, 0.5, 1e3), "ms"),
                m("prepare_cpu_p90_ms", p(&self.prepare, 0.9, 1e3), "ms"),
                m("advance_cpu_p50_ms", p(&self.advance, 0.5, 1e3), "ms"),
                m("advance_cpu_p90_ms", p(&self.advance, 0.9, 1e3), "ms"),
                m("peak_rss_mb", self.rss_mb, "MB"),
            ];
        }
        for (what, t) in [
            ("page", &self.page),
            ("batch", &self.batch),
            ("prepare", &self.prepare),
            ("advance", &self.advance),
        ] {
            let deciles = |v: &[f64], scale: f64| -> String {
                let d: Vec<String> = (1..10)
                    .map(|d| format!("{:.1}", quantile(v, d as f64 / 10.0) * scale))
                    .collect();
                d.join(" ")
            };
            eprintln!(
                "{what}: {} calls; deciles in us, cpu {} | wall {}",
                t.cpu.len(),
                deciles(&t.cpu, 1e6),
                deciles(&t.wall, 1e6)
            );
        }
        eprintln!(
            "calls per wall second of the measured phase: {:.1}",
            self.calls_per_wall_s()
        );
        Outcome {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            counts,
        }
    }

    /// `Session` calls per second of the whole measured phase, checking
    /// (and in a traced run, replays) included.
    fn calls_per_wall_s(&self) -> f64 {
        self.session_calls as f64 / self.phase_s
    }
}
