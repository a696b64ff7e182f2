//! Prepare requests: what the client asks the engine for, which backend
//! the paper's dichotomy names for it, and how the oracle answers it.

use crate::data::Model;
use crate::oracle::{self, Chain, Oracle, Order, Sorted, Star, WeightFn};
use rda_core::{Backend, OrderSpec, Weights};
use rda_query::{parser::parse, Cq, FdSet};

/// The request's class under the dichotomy, which fixes the backend the
/// engine must route it to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Lexicographic order without a disruptive trio on a free-connex
    /// query (Theorem 4.1): native lex direct access.
    Lex,
    /// Sum order whose free variables one atom covers (Theorem 5.1).
    Sum,
    /// Lexicographic order made tractable by an FD (Section 8).
    Fd,
    /// Lexicographic order with a disruptive trio: selection only
    /// (Theorem 6.1).
    SelLex,
    /// Sum order over a full acyclic query with fmh = 2: selection only
    /// (Theorem 7.3).
    SelSum,
    /// Not free-connex, or cyclic: neither, so `Policy::Reject` refuses.
    Intractable,
}

impl Kind {
    pub fn backend(self) -> Option<Backend> {
        match self {
            Kind::Lex | Kind::Fd => Some(Backend::LexDirectAccess),
            Kind::Sum => Some(Backend::SumDirectAccess),
            Kind::SelLex => Some(Backend::SelectionLex),
            Kind::SelSum => Some(Backend::SelectionSum),
            Kind::Intractable => None,
        }
    }

    pub fn is_selection(self) -> bool {
        matches!(self, Kind::SelLex | Kind::SelSum)
    }
}

/// How the oracle computes a request's answers from the model.
#[derive(Clone)]
enum Spec {
    /// A path under its own order; `(relation, reversed)` per step and
    /// the head position of each order position.
    Chain(Vec<(String, bool)>, Vec<usize>),
    Star(Vec<String>),
    /// Brute force over the 2-path `Q(x, y, z) :- r(x, y), s(y, z)`.
    Path2(String, String, Order),
    Cover(String, String, WeightFn),
    Fd(String, String),
    None,
}

#[derive(Clone)]
pub struct Request {
    pub label: String,
    pub q: Cq,
    pub order: OrderSpec,
    pub fds: FdSet,
    pub kind: Kind,
    /// Relations the query reads.
    pub rels: Vec<String>,
    spec: Spec,
}

impl Request {
    fn new(label: String, src: &str, kind: Kind, rels: &[&str], spec: Spec) -> Request {
        let q = parse(src).expect("benchmark queries parse");
        Request {
            label,
            order: OrderSpec::Lex(Vec::new()),
            fds: FdSet::empty(),
            kind,
            rels: rels.iter().map(|r| r.to_string()).collect(),
            q,
            spec,
        }
    }

    fn lex(mut self, names: &[&str]) -> Request {
        self.order = OrderSpec::lex(&self.q, names);
        self
    }

    fn sum(mut self, w: &WeightFn) -> Request {
        let mut weights = Weights::identity();
        for (&(pos, value), &weight) in &w.overrides {
            weights.set(self.q.free()[pos], value, weight as f64);
        }
        self.order = OrderSpec::sum(weights);
        self
    }

    pub fn oracle(&self, m: &Model) -> Option<Box<dyn Oracle>> {
        Some(match &self.spec {
            Spec::Chain(steps, head) => {
                let steps: Vec<_> = steps.iter().map(|(r, rev)| (m.rel(r), *rev)).collect();
                Box::new(Chain::new(&steps, head.clone()))
            }
            Spec::Star(leaves) => {
                let leaves: Vec<_> = leaves.iter().map(|r| m.rel(r)).collect();
                Box::new(Star::new(&leaves))
            }
            Spec::Path2(r, s, order) => Box::new(Sorted::new(
                oracle::path2_answers(m.rel(r), m.rel(s)),
                order.clone(),
            )),
            Spec::Cover(r, s, w) => Box::new(Sorted::new(
                oracle::cover_answers(m.rel(r), m.rel(s)),
                Order::Sum(w.clone()),
            )),
            Spec::Fd(r, f) => Box::new(Sorted::new(
                oracle::fd_answers(m.rel(r), m.rel(f)),
                Order::Lex(vec![0, 1]),
            )),
            Spec::None => return None,
        })
    }
}

/// `Q(x, y, z) :- r(x, y), s(y, z)` by `x, y, z`, or by `z, y, x` when
/// `reversed`.
pub fn lex_path2(r: &str, s: &str, reversed: bool) -> Request {
    let src = format!("Q(x, y, z) :- {r}(x, y), {s}(y, z)");
    let (spec, order) = if reversed {
        let steps = vec![(s.to_string(), true), (r.to_string(), true)];
        (Spec::Chain(steps, vec![2, 1, 0]), ["z", "y", "x"])
    } else {
        let steps = vec![(r.to_string(), false), (s.to_string(), false)];
        (Spec::Chain(steps, vec![0, 1, 2]), ["x", "y", "z"])
    };
    let label = format!("lex2:{r}.{s}:{}", order.concat());
    Request::new(label, &src, Kind::Lex, &[r, s], spec).lex(&order)
}

/// `Q(a, b, c, d) :- r(a, b), s(b, c), t(c, d)` by `a, b, c, d`.
pub fn lex_path3(r: &str, s: &str, t: &str) -> Request {
    let src = format!("Q(a, b, c, d) :- {r}(a, b), {s}(b, c), {t}(c, d)");
    let steps = [r, s, t].iter().map(|n| (n.to_string(), false)).collect();
    let spec = Spec::Chain(steps, vec![0, 1, 2, 3]);
    Request::new(
        format!("lex3:{r}.{s}.{t}"),
        &src,
        Kind::Lex,
        &[r, s, t],
        spec,
    )
    .lex(&["a", "b", "c", "d"])
}

/// `Q(x, a, b, c) :- r(x, a), s(x, b), t(x, c)` by `x, a, b, c`.
pub fn lex_star(r: &str, s: &str, t: &str) -> Request {
    let src = format!("Q(x, a, b, c) :- {r}(x, a), {s}(x, b), {t}(x, c)");
    let spec = Spec::Star(vec![r.to_string(), s.to_string(), t.to_string()]);
    Request::new(
        format!("star:{r}.{s}.{t}"),
        &src,
        Kind::Lex,
        &[r, s, t],
        spec,
    )
    .lex(&["x", "a", "b", "c"])
}

/// `Q(x, y) :- r(x, y), s(y, z)` by the sum of the head's weights.
pub fn sum_cover(r: &str, s: &str, w: WeightFn, variant: usize) -> Request {
    let src = format!("Q(x, y) :- {r}(x, y), {s}(y, z)");
    let spec = Spec::Cover(r.to_string(), s.to_string(), w.clone());
    let label = format!("sum:{r}.{s}:w{variant}");
    Request::new(label, &src, Kind::Sum, &[r, s], spec).sum(&w)
}

/// `Q(x, z) :- r(x, y), f(y, z)` by `x, z` under the FD `f: y -> z`:
/// not free-connex without the FD, free-connex with it (Example 8.3).
pub fn fd_lex(r: &str, f: &str) -> Request {
    let src = format!("Q(x, z) :- {r}(x, y), {f}(y, z)");
    let spec = Spec::Fd(r.to_string(), f.to_string());
    let mut req = Request::new(format!("fd:{r}.{f}"), &src, Kind::Fd, &[r, f], spec);
    req.fds = FdSet::parse(&req.q, &[(f, "y", "z")]);
    req.lex(&["x", "z"])
}

/// The 2-path by `x, z, y` (or `z, x, y`): `y` after both of its
/// non-adjacent neighbours is a disruptive trio, so only selection.
pub fn sel_lex(r: &str, s: &str, z_first: bool) -> Request {
    let src = format!("Q(x, y, z) :- {r}(x, y), {s}(y, z)");
    let (names, pos) = if z_first {
        (["z", "x", "y"], vec![2, 0, 1])
    } else {
        (["x", "z", "y"], vec![0, 2, 1])
    };
    let spec = Spec::Path2(r.to_string(), s.to_string(), Order::Lex(pos));
    let label = format!("sellex:{r}.{s}:{}", names.concat());
    Request::new(label, &src, Kind::SelLex, &[r, s], spec).lex(&names)
}

/// The full 2-path by sum: direct access is 3SUM-hard, selection is
/// tractable (fmh = 2).
pub fn sel_sum(r: &str, s: &str, w: WeightFn, variant: usize) -> Request {
    let src = format!("Q(x, y, z) :- {r}(x, y), {s}(y, z)");
    let spec = Spec::Path2(r.to_string(), s.to_string(), Order::Sum(w.clone()));
    let label = format!("selsum:{r}.{s}:w{variant}");
    Request::new(label, &src, Kind::SelSum, &[r, s], spec).sum(&w)
}

/// `Q(x, z) :- r(x, y), s(y, z)` by `x, z`: not free-connex, so neither
/// direct access nor selection.
pub fn intractable_projection(r: &str, s: &str) -> Request {
    let src = format!("Q(x, z) :- {r}(x, y), {s}(y, z)");
    Request::new(
        format!("proj:{r}.{s}"),
        &src,
        Kind::Intractable,
        &[r, s],
        Spec::None,
    )
    .lex(&["x", "z"])
}

/// The triangle by `x, y, z`: cyclic, so neither.
pub fn intractable_cycle(r: &str, s: &str, t: &str) -> Request {
    let src = format!("Q(x, y, z) :- {r}(x, y), {s}(y, z), {t}(z, x)");
    let label = format!("cycle:{r}.{s}.{t}");
    Request::new(label, &src, Kind::Intractable, &[r, s, t], Spec::None).lex(&["x", "y", "z"])
}
