//! The three workloads: their instances, the plans the client pages,
//! the prepare requests it issues, and the write schedule.
//!
//! Every workload runs the same round: `page_ops` page-type calls on
//! the plans prepared in set-up, prepare calls (each followed by short
//! pages and batches on the new plan), then one write batch. Sizes and
//! shares differ, so each workload loads a different layer; every
//! workload still issues every kind of call, so every metric has
//! samples on it.

use crate::data::{distinct_rows, Model, Rel, Row, WriteBatch};
use crate::oracle::WeightFn;
use crate::request::{self as rq, Request};
use crate::rng::{Rng, Zipf};
use std::collections::BTreeMap;

/// Values `i * step` for `i` in `0..count`.
#[derive(Clone, Copy)]
pub struct Dom {
    pub count: u64,
    pub step: i64,
}

impl Dom {
    const fn new(count: u64, step: i64) -> Dom {
        Dom { count, step }
    }

    fn draw(self, rng: &mut Rng) -> i64 {
        rng.below(self.count) as i64 * self.step
    }
}

#[derive(Clone, Copy)]
pub enum RowDraw {
    /// Independent uniform columns.
    Grid(Dom, Dom),
    /// One row `(i * step, (i * mul) % modulus)` per `i` of the domain:
    /// the second column is a function of the first, for FD requests.
    Function(Dom, i64, i64),
}

pub struct RelSpec {
    pub name: &'static str,
    pub rows: usize,
    pub draw: RowDraw,
}

impl RelSpec {
    fn generate(&self, rng: &mut Rng, scale: f64) -> Rel {
        match self.draw {
            RowDraw::Grid(a, b) => {
                let n = ((self.rows as f64 * scale) as usize).max(4);
                distinct_rows(rng, n, |g| (a.draw(g), b.draw(g)))
            }
            RowDraw::Function(a, mul, modulus) => {
                Rel::from_rows((0..a.count as i64).map(|i| (i * a.step, (i * mul) % modulus)))
            }
        }
    }
}

/// One relation's share of a write batch: `rows` deletes and `rows`
/// inserts. With `fresh`, inserted rows carry a value the dictionary
/// has never held in their second column, alternately inside its range
/// (the dictionary rebases) and past its top (it extends).
pub struct WriteSpec {
    pub rel: &'static str,
    pub rows: usize,
    pub fresh: bool,
}

/// How a round picks its prepare requests from `population`.
pub enum Draw {
    /// In order, round after round.
    Rotate,
    /// Every 100 draws take exactly `per_100[g]` members of group `g`, in
    /// a fixed order; each member is drawn by Zipf(`s`) over a fixed
    /// permutation of its group.
    Groups { per_100: [usize; 6], s: f64 },
}

pub struct Workload {
    pub name: &'static str,
    pub rels: Vec<RelSpec>,
    pub requests: Vec<Request>,
    /// Requests prepared in set-up and paged by the client.
    pub served: Vec<usize>,
    pub page_ops: usize,
    /// Weights of `stream_next`, `page` and `page_batch` among page ops.
    pub mix: [u64; 3],
    pub stream_rows: u64,
    pub page_rows: u64,
    pub batch_ranks: usize,
    /// Groups of prepare requests, by index into `requests`.
    pub population: Vec<Vec<usize>>,
    pub requests_per_round: usize,
    /// Requests are issued on every `request_every`-th round only.
    pub request_every: usize,
    pub draw: Draw,
    /// Short page-and-batch pairs after each prepare, and their rows or
    /// ranks (`selection_rows` on selection backends).
    pub follow_ups: usize,
    pub follow_rows: u64,
    pub selection_rows: u64,
    pub writes: Vec<Vec<WriteSpec>>,
    /// Rounds over which the fixed counts are taken.
    pub count_rounds: usize,
}

pub const NAMES: [&str; 3] = ["read_pages", "prepare_mix", "write_mix"];

pub fn by_name(name: &str) -> Option<Workload> {
    match name {
        "read_pages" => Some(read_pages()),
        "prepare_mix" => Some(prepare_mix()),
        "write_mix" => Some(write_mix()),
        _ => None,
    }
}

/// Sizes on the `2^20 x 1024` grid keep `x + y` distinct for the sum
/// orders, so the sum oracle's ranks are exact.
const X: Dom = Dom::new(1 << 20, 1024);
const Y: Dom = Dom::new(100, 1);
const Z: Dom = Dom::new(1 << 30, 1);

/// Tiny side relations for the side requests: `u + v + w` is distinct
/// per 2-path answer (`u` in steps of `2^20`, `v` of `2^10`, `w < 2^10`),
/// so selection-sum never meets a tie.
fn side_rels() -> Vec<RelSpec> {
    let v = Dom::new(20, 1024);
    vec![
        RelSpec {
            name: "P",
            rows: 300,
            draw: RowDraw::Grid(Dom::new(1024, 1 << 20), v),
        },
        RelSpec {
            name: "Q",
            rows: 300,
            draw: RowDraw::Grid(v, Dom::new(1024, 1)),
        },
        RelSpec {
            name: "G",
            rows: 0,
            draw: RowDraw::Function(v, 7, 1000),
        },
    ]
}

/// One request of each backend over the side relations.
fn side_requests() -> Vec<Request> {
    vec![
        rq::lex_path2("P", "Q", false),
        rq::sum_cover("P", "Q", WeightFn::default(), 0),
        rq::fd_lex("P", "G"),
        rq::sel_lex("P", "Q", false),
        rq::sel_sum("P", "Q", WeightFn::default(), 0),
    ]
}

fn side_writes(main: Option<(&'static str, usize)>) -> Vec<WriteSpec> {
    let mut w: Vec<WriteSpec> = main
        .map(|(rel, rows)| WriteSpec {
            rel,
            rows,
            fresh: true,
        })
        .into_iter()
        .collect();
    for rel in ["P", "Q"] {
        w.push(WriteSpec {
            rel,
            rows: 15,
            fresh: false,
        });
    }
    w
}

/// Read-mostly serving of three plans over a 2-path with ~16M answers
/// (arenas far larger than L2). Writes touch only the side relations,
/// so every served plan is carried and every cursor resumes.
pub fn read_pages() -> Workload {
    let mut rels = vec![
        RelSpec {
            name: "R",
            rows: 40_000,
            draw: RowDraw::Grid(X, Y),
        },
        RelSpec {
            name: "S",
            rows: 40_000,
            draw: RowDraw::Grid(Y, Z),
        },
    ];
    rels.extend(side_rels());
    let mut requests = vec![
        rq::lex_path2("R", "S", false),
        rq::lex_path2("R", "S", true),
        rq::sum_cover("R", "S", WeightFn::default(), 0),
    ];
    requests.extend(side_requests());
    Workload {
        name: "read_pages",
        rels,
        requests,
        served: vec![0, 1, 2],
        page_ops: 250,
        mix: [2, 1, 1],
        stream_rows: 64,
        page_rows: 64,
        batch_ranks: 256,
        population: vec![(3..8).collect()],
        requests_per_round: 1,
        request_every: 1,
        draw: Draw::Rotate,
        follow_ups: 1,
        follow_rows: 16,
        selection_rows: 2,
        writes: vec![side_writes(None)],
        count_rounds: 20,
    }
}

/// Serving beside writes: batches alternate between `S`, which the two
/// lex plans read (their cursors go stale and the client re-prepares),
/// and `U`, which no served plan reads (plans carry, cursors resume).
/// The sum and FD plans read `R` and `F` only, so they always resume.
pub fn write_mix() -> Workload {
    let mut rels = vec![
        RelSpec {
            name: "R",
            rows: 20_000,
            draw: RowDraw::Grid(X, Y),
        },
        RelSpec {
            name: "S",
            rows: 12_000,
            draw: RowDraw::Grid(Y, Z),
        },
        RelSpec {
            name: "U",
            rows: 12_000,
            draw: RowDraw::Grid(Z, Z),
        },
        RelSpec {
            name: "F",
            rows: 0,
            draw: RowDraw::Function(Y, 37, 1000),
        },
    ];
    rels.extend(side_rels());
    let mut requests = vec![
        rq::lex_path2("R", "S", false),
        rq::lex_path2("R", "S", true),
        rq::sum_cover("R", "F", WeightFn::default(), 0),
        rq::fd_lex("R", "F"),
    ];
    requests.extend(side_requests());
    Workload {
        name: "write_mix",
        rels,
        requests,
        served: vec![0, 1, 2, 3],
        page_ops: 100,
        mix: [2, 1, 1],
        stream_rows: 64,
        page_rows: 64,
        batch_ranks: 256,
        population: vec![(4..9).collect()],
        requests_per_round: 1,
        // On every other round only: one side prepare per two rounds
        // keeps the re-prepares of the served plans the median prepare.
        request_every: 2,
        draw: Draw::Rotate,
        follow_ups: 1,
        follow_rows: 16,
        selection_rows: 2,
        writes: vec![side_writes(Some(("S", 100))), side_writes(Some(("U", 100)))],
        count_rounds: 20,
    }
}

/// Prepare-heavy traffic: a request population larger than the plan
/// cache, drawn Zipf-skewed, over eight relations of 5-20k rows, with a
/// write to one of them every round.
pub fn prepare_mix() -> Workload {
    const MAIN: [&str; 8] = ["R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7"];
    let d = Dom::new(1000, 1);
    let mut rels: Vec<RelSpec> = MAIN
        .iter()
        .enumerate()
        .map(|(i, &name)| RelSpec {
            name,
            rows: 5_000 + i * 2_000,
            draw: RowDraw::Grid(d, d),
        })
        .collect();
    rels.push(RelSpec {
        name: "F0",
        rows: 0,
        draw: RowDraw::Function(d, 37, 1000),
    });
    rels.push(RelSpec {
        name: "F1",
        rows: 0,
        draw: RowDraw::Function(d, 101, 997),
    });
    let v = Dom::new(20, 1024);
    for (name, draw) in [
        ("L0", RowDraw::Grid(Dom::new(1024, 1 << 20), v)),
        ("L1", RowDraw::Grid(Dom::new(1024, 1 << 20), v)),
        ("M0", RowDraw::Grid(v, Dom::new(1024, 1))),
        ("M1", RowDraw::Grid(v, Dom::new(1024, 1))),
    ] {
        rels.push(RelSpec {
            name,
            rows: 300,
            draw,
        });
    }

    // The population is fixed (it is the workload); the seed picks the
    // Zipf ranking over it.
    let mut pick = Rng::new(0x5eed);
    let mut requests = Vec::new();
    let group = |requests: &mut Vec<Request>, reqs: Vec<Request>| -> Vec<usize> {
        let start = requests.len();
        requests.extend(reqs);
        (start..requests.len()).collect()
    };
    let mut lex = Vec::new();
    for (i, r) in MAIN.iter().enumerate() {
        for (j, s) in MAIN.iter().enumerate() {
            if i != j {
                lex.push(rq::lex_path2(r, s, false));
                lex.push(rq::lex_path2(r, s, true));
            }
        }
    }
    for _ in 0..24 {
        let t = pick.permutation(8);
        lex.push(rq::lex_path3(MAIN[t[0]], MAIN[t[1]], MAIN[t[2]]));
    }
    for _ in 0..16 {
        let t = pick.permutation(8);
        lex.push(rq::lex_star(MAIN[t[0]], MAIN[t[1]], MAIN[t[2]]));
    }
    let mut sum = Vec::new();
    for v in 0..2 {
        for _ in 0..16 {
            let t = pick.permutation(8);
            let mut w = WeightFn::default();
            for k in 0..8 {
                w.overrides
                    .insert((1, pick.below(1000) as i64), 500 + 100 * v as i64 + k);
            }
            sum.push(rq::sum_cover(MAIN[t[0]], MAIN[t[1]], w, v));
        }
    }
    let mut fd = Vec::new();
    for r in MAIN {
        for f in ["F0", "F1"] {
            fd.push(rq::fd_lex(r, f));
        }
    }
    let mut sel_lex = Vec::new();
    let mut sel_sum = Vec::new();
    for l in ["L0", "L1"] {
        for m in ["M0", "M1"] {
            sel_lex.push(rq::sel_lex(l, m, false));
            sel_lex.push(rq::sel_lex(l, m, true));
            for v in 0..2 {
                // Re-weigh `y` by a permutation of its own values: still
                // distinct sums, a different order.
                let mut w = WeightFn::default();
                let perm = pick.permutation(20);
                for (i, &p) in perm.iter().enumerate() {
                    w.overrides.insert((1, i as i64 * 1024), p as i64 * 1024);
                }
                sel_sum.push(rq::sel_sum(l, m, w, v));
            }
        }
    }
    let mut bad = Vec::new();
    for i in 0..8 {
        bad.push(rq::intractable_projection(MAIN[i], MAIN[(i + 3) % 8]));
    }
    for i in 0..4 {
        bad.push(rq::intractable_cycle(
            MAIN[i],
            MAIN[i + 2],
            MAIN[(i + 5) % 8],
        ));
    }
    let population = vec![
        group(&mut requests, lex),
        group(&mut requests, sum),
        group(&mut requests, fd),
        group(&mut requests, sel_lex),
        group(&mut requests, sel_sum),
        group(&mut requests, bad),
    ];
    // Seven of the eight relations take writes in turn: an odd number
    // of equally frequent write sizes puts the median write inside one.
    let writes = MAIN[..7]
        .iter()
        .map(|&rel| {
            vec![WriteSpec {
                rel,
                rows: 100,
                fresh: false,
            }]
        })
        .collect();
    Workload {
        name: "prepare_mix",
        rels,
        requests,
        served: Vec::new(),
        page_ops: 0,
        mix: [0, 0, 0],
        stream_rows: 0,
        page_rows: 0,
        batch_ranks: 0,
        population,
        requests_per_round: 3,
        request_every: 1,
        draw: Draw::Groups {
            per_100: [62, 15, 10, 5, 5, 3],
            s: 1.0,
        },
        // Four pairs per prepare: enough pages and batches in a run for
        // a p99 with ten samples beyond it. Only the first page after a
        // prepare finds the plan cold, so the median page is a warm one.
        follow_ups: 4,
        follow_rows: 16,
        selection_rows: 2,
        writes,
        count_rounds: 20,
    }
}

impl Workload {
    /// Generate the instance for `seed` (`scale` shrinks it for tests).
    pub fn instance(&self, seed: u64, scale: f64) -> Model {
        let mut rels = BTreeMap::new();
        for (i, spec) in self.rels.iter().enumerate() {
            let mut rng = Rng::stream(seed, 100 + i as u64);
            rels.insert(spec.name.to_string(), spec.generate(&mut rng, scale));
        }
        Model::new(rels)
    }

    /// The write batches of round `round`: deletes of present rows and
    /// inserts of absent ones. Inserted values come from present rows of
    /// the same column, so the dictionary stays as it is, except for
    /// `fresh` columns: one visit in three of the write rotation puts
    /// their new values inside the dictionary's range (it rebases), the
    /// other two past its top (it extends).
    pub fn write_batches(&self, m: &Model, rng: &mut Rng, round: usize) -> Vec<WriteBatch> {
        let specs = &self.writes[round % self.writes.len()];
        let beyond = !(round / self.writes.len()).is_multiple_of(3);
        specs
            .iter()
            .map(|w| {
                let present = m.rel(w.rel).rows();
                let rows = w.rows.min(present.len() / 2);
                let deletes = m.pick_rows(rng, w.rel, rows);
                let mut inserts: Vec<Row> = Vec::with_capacity(rows);
                let mut fresh_v = None;
                let any = |rng: &mut Rng| present[rng.below(present.len() as u64) as usize];
                while inserts.len() < rows {
                    let second = if w.fresh {
                        // A handful of fresh values per batch, each shared
                        // by several rows.
                        if fresh_v.is_none() || rng.below(8) == 0 {
                            fresh_v = Some(m.fresh_value(rng, beyond));
                        }
                        fresh_v.expect("set above")
                    } else {
                        any(rng).1
                    };
                    let row = (any(rng).0, second);
                    if !m.rel(w.rel).contains(&row) && !inserts.contains(&row) {
                        inserts.push(row);
                    }
                }
                WriteBatch {
                    rel: w.rel.to_string(),
                    deletes,
                    inserts,
                }
            })
            .collect()
    }

    /// The request sampler. Its group order and Zipf ranking are the same
    /// for every seed (the seed draws the members), so the group mix, the
    /// popular requests, and with them the hit rate and the build mix, do
    /// not vary by seed.
    pub fn sampler(&self) -> Sampler {
        let mut rng = Rng::new(0x2a);
        let perms = self
            .population
            .iter()
            .map(|g| rng.permutation(g.len()).into_iter().map(|i| g[i]).collect())
            .collect();
        let (slots, zipfs) = match &self.draw {
            Draw::Rotate => (Vec::new(), Vec::new()),
            Draw::Groups { per_100, s } => {
                let slots: Vec<usize> = (0..per_100.len())
                    .flat_map(|g| std::iter::repeat_n(g, per_100[g]))
                    .collect();
                let order = rng.permutation(slots.len());
                let zipfs = self
                    .population
                    .iter()
                    .map(|g| Zipf::new(g.len(), *s))
                    .collect();
                (order.into_iter().map(|i| slots[i]).collect(), zipfs)
            }
        };
        Sampler {
            perms,
            slots,
            zipfs,
            next: 0,
        }
    }
}

pub struct Sampler {
    perms: Vec<Vec<usize>>,
    /// The group of each of 100 consecutive draws.
    slots: Vec<usize>,
    zipfs: Vec<Zipf>,
    next: usize,
}

impl Sampler {
    pub fn draw(&mut self, w: &Workload, rng: &mut Rng) -> usize {
        let n = self.next;
        self.next += 1;
        match &w.draw {
            Draw::Rotate => {
                let g = &w.population[0];
                g[n % g.len()]
            }
            Draw::Groups { .. } => {
                let gi = self.slots[n % self.slots.len()];
                self.perms[gi][self.zipfs[gi].sample(rng)]
            }
        }
    }
}
