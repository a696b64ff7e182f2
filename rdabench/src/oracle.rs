//! The benchmark's independent oracle, computed from the generated rows
//! with none of the program's code: counts and rank descents for the
//! lexicographic paths and stars, sorted brute force for the small
//! cases, and membership of every returned row in the input.
//!
//! Rows are in head order. A *key* is what the requested order sorts
//! by: the head values in order position for a lexicographic order
//! (unique per answer, so an equal key is an equal row), or the total
//! weight for a sum order (ties may come back in any order, so only the
//! weight at a rank is pinned down).

use crate::data::{Rel, Row};
use std::collections::{BTreeMap, HashMap, HashSet};

pub type Key = Vec<i64>;

/// Integer weights: every value weighs itself unless overridden per
/// (head position, value). Sums of such weights are exact in `f64`.
#[derive(Clone, Debug, Default)]
pub struct WeightFn {
    pub overrides: HashMap<(usize, i64), i64>,
}

impl WeightFn {
    pub fn weight(&self, row: &[i64]) -> i64 {
        row.iter()
            .enumerate()
            .map(|(p, &v)| self.overrides.get(&(p, v)).copied().unwrap_or(v))
            .sum()
    }
}

#[derive(Clone, Debug)]
pub enum Order {
    /// Head positions, most significant first.
    Lex(Vec<usize>),
    Sum(WeightFn),
}

impl Order {
    pub fn key(&self, row: &[i64]) -> Key {
        match self {
            Order::Lex(pos) => pos.iter().map(|&p| row[p]).collect(),
            Order::Sum(w) => vec![w.weight(row)],
        }
    }
}

pub trait Oracle {
    fn len(&self) -> u64;
    fn is_answer(&self, row: &[i64]) -> bool;
    fn key_at(&self, rank: u64) -> Option<Key>;
    fn order(&self) -> &Order;
}

/// One join step of a path: the relation oriented from the earlier
/// variable of the order to the later one.
struct Step {
    adj: HashMap<i64, Vec<i64>>,
    pairs: HashSet<Row>,
}

impl Step {
    fn new(rel: &Rel, reversed: bool) -> Step {
        let pairs = rel
            .rows()
            .iter()
            .map(|&(a, b)| if reversed { (b, a) } else { (a, b) })
            .collect();
        Step {
            adj: rel.adjacency(reversed).into_iter().collect(),
            pairs,
        }
    }
}

/// Prefix sums over the sorted first variable: `(value, end of its
/// rank block)`.
fn blocks(counts: impl Iterator<Item = (i64, u64)>) -> (Vec<(i64, u64)>, u64) {
    let mut total = 0;
    let top = counts
        .filter(|&(_, c)| c > 0)
        .map(|(v, c)| {
            total += c;
            (v, total)
        })
        .collect();
    (top, total)
}

fn find_block(top: &[(i64, u64)], rank: u64) -> (i64, u64) {
    let i = top.partition_point(|&(_, end)| end <= rank);
    let start = if i == 0 { 0 } else { top[i - 1].1 };
    (top[i].0, rank - start)
}

/// A path query `v0 - v1 - ... - vk` under the lexicographic order
/// `v0, v1, ..., vk`: count-and-descend over per-value completion
/// counts (the number of answers extending a value at each position).
pub struct Chain {
    steps: Vec<Step>,
    /// `counts[i][v]`: completions from value `v` at position `i + 1`.
    counts: Vec<HashMap<i64, u64>>,
    top: Vec<(i64, u64)>,
    total: u64,
    order: Order,
}

impl Chain {
    /// `steps[i]` joins order position `i` to `i + 1`; `head_pos[i]` is
    /// the head position of order position `i`.
    pub fn new(steps: &[(&Rel, bool)], head_pos: Vec<usize>) -> Chain {
        assert_eq!(steps.len() + 1, head_pos.len());
        let steps: Vec<Step> = steps.iter().map(|&(r, rev)| Step::new(r, rev)).collect();
        let k = steps.len();
        let mut counts: Vec<HashMap<i64, u64>> = vec![HashMap::new(); k];
        for i in (1..k).rev() {
            let c: HashMap<i64, u64> = steps[i]
                .adj
                .iter()
                .map(|(&a, next)| (a, next.iter().map(|b| completions(&counts, i, *b)).sum()))
                .collect();
            counts[i - 1] = c;
        }
        let mut firsts: Vec<(i64, u64)> = steps[0]
            .adj
            .iter()
            .map(|(&a, next)| (a, next.iter().map(|b| completions(&counts, 0, *b)).sum()))
            .collect();
        firsts.sort_unstable();
        let (top, total) = blocks(firsts.into_iter());
        Chain {
            steps,
            counts,
            top,
            total,
            order: Order::Lex(head_pos),
        }
    }
}

/// Completions from value `b` at order position `i + 1` (1 at the end).
fn completions(counts: &[HashMap<i64, u64>], i: usize, b: i64) -> u64 {
    if i + 1 == counts.len() {
        1
    } else {
        counts[i].get(&b).copied().unwrap_or(0)
    }
}

impl Oracle for Chain {
    fn len(&self) -> u64 {
        self.total
    }

    fn is_answer(&self, row: &[i64]) -> bool {
        let Order::Lex(pos) = &self.order else {
            unreachable!()
        };
        self.steps
            .iter()
            .enumerate()
            .all(|(i, s)| s.pairs.contains(&(row[pos[i]], row[pos[i + 1]])))
    }

    fn key_at(&self, rank: u64) -> Option<Key> {
        if rank >= self.total {
            return None;
        }
        let (mut v, mut r) = find_block(&self.top, rank);
        let mut key = vec![v];
        for (i, step) in self.steps.iter().enumerate() {
            for &b in &step.adj[&v] {
                let c = completions(&self.counts, i, b);
                if r < c {
                    v = b;
                    break;
                }
                r -= c;
            }
            key.push(v);
        }
        Some(key)
    }

    fn order(&self) -> &Order {
        &self.order
    }
}

/// A star `x - a1, x - a2, ...` under the order `x, a1, a2, ...`: the
/// answers of one centre value number the product of its degrees, and
/// a rank inside that block is a mixed-radix number over the sorted
/// leaf lists.
pub struct Star {
    leaves: Vec<Step>,
    top: Vec<(i64, u64)>,
    total: u64,
    order: Order,
}

impl Star {
    pub fn new(leaves: &[&Rel]) -> Star {
        let leaves: Vec<Step> = leaves.iter().map(|r| Step::new(r, false)).collect();
        let mut centres: Vec<(i64, u64)> = leaves[0]
            .adj
            .keys()
            .map(|&x| {
                let c = leaves
                    .iter()
                    .map(|l| l.adj.get(&x).map_or(0, |v| v.len() as u64))
                    .product();
                (x, c)
            })
            .collect();
        centres.sort_unstable();
        let (top, total) = blocks(centres.into_iter());
        let order = Order::Lex((0..=leaves.len()).collect());
        Star {
            leaves,
            top,
            total,
            order,
        }
    }
}

impl Oracle for Star {
    fn len(&self) -> u64 {
        self.total
    }

    fn is_answer(&self, row: &[i64]) -> bool {
        self.leaves
            .iter()
            .enumerate()
            .all(|(i, l)| l.pairs.contains(&(row[0], row[i + 1])))
    }

    fn key_at(&self, rank: u64) -> Option<Key> {
        if rank >= self.total {
            return None;
        }
        let (x, mut r) = find_block(&self.top, rank);
        let mut tail = Vec::with_capacity(self.leaves.len());
        for leaf in self.leaves.iter().rev() {
            let list = &leaf.adj[&x];
            tail.push(list[(r % list.len() as u64) as usize]);
            r /= list.len() as u64;
        }
        tail.push(x);
        tail.reverse();
        Some(tail)
    }

    fn order(&self) -> &Order {
        &self.order
    }
}

/// Brute force: every answer, sorted by key.
pub struct Sorted {
    keys: Vec<Key>,
    answers: HashSet<Vec<i64>>,
    order: Order,
}

impl Sorted {
    pub fn new(answers: impl IntoIterator<Item = Vec<i64>>, order: Order) -> Sorted {
        let answers: HashSet<Vec<i64>> = answers.into_iter().collect();
        let mut keys: Vec<Key> = answers.iter().map(|a| order.key(a)).collect();
        keys.sort_unstable();
        Sorted {
            keys,
            answers,
            order,
        }
    }
}

impl Oracle for Sorted {
    fn len(&self) -> u64 {
        self.keys.len() as u64
    }

    fn is_answer(&self, row: &[i64]) -> bool {
        self.answers.contains(row)
    }

    fn key_at(&self, rank: u64) -> Option<Key> {
        self.keys.get(rank as usize).cloned()
    }

    fn order(&self) -> &Order {
        &self.order
    }
}

/// `Q(x, y, z) :- R(x, y), S(y, z)` by hash join.
pub fn path2_answers(r: &Rel, s: &Rel) -> Vec<Vec<i64>> {
    let s_adj = s.adjacency(false);
    r.rows()
        .iter()
        .flat_map(|&(x, y)| {
            s_adj
                .get(&y)
                .into_iter()
                .flatten()
                .map(move |&z| vec![x, y, z])
        })
        .collect()
}

/// `Q(x, y) :- R(x, y), S(y, z)`: the rows of `R` whose `y` has a
/// partner in `S` (its `S`-degree is non-zero).
pub fn cover_answers(r: &Rel, s: &Rel) -> Vec<Vec<i64>> {
    let s_keys: HashSet<i64> = s.rows().iter().map(|&(y, _)| y).collect();
    r.rows()
        .iter()
        .filter(|(_, y)| s_keys.contains(y))
        .map(|&(x, y)| vec![x, y])
        .collect()
}

/// `Q(x, z) :- R(x, y), F(y, z)` where `F` is a function of `y`.
pub fn fd_answers(r: &Rel, f: &Rel) -> Vec<Vec<i64>> {
    let f_map: BTreeMap<i64, i64> = f.rows().iter().copied().collect();
    r.rows()
        .iter()
        .filter_map(|&(x, y)| f_map.get(&y).map(|&z| vec![x, z]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use rda_db::Database;
    use rda_query::parser::parse;

    fn small(rng: &mut Rng, n: usize, d: u64) -> Rel {
        crate::data::distinct_rows(rng, n, |g| (g.below(d) as i64, g.below(d) as i64))
    }

    fn db(rels: &[(&str, &Rel)]) -> Database {
        let mut db = Database::new();
        for (name, r) in rels {
            db.add(r.relation(name));
        }
        db
    }

    fn baseline(q: &str, db: &Database) -> Vec<Vec<i64>> {
        let q = parse(q).unwrap();
        rda_baseline::all_answers(&q, db)
            .iter()
            .map(|t| t.iter().map(|v| v.as_int().unwrap()).collect())
            .collect()
    }

    /// Every rank of `o` in order, checked against the baseline's answer
    /// set sorted by the same key.
    fn agrees(o: &dyn Oracle, mut expected: Vec<Vec<i64>>) {
        expected.sort_unstable_by_key(|a| o.order().key(a));
        assert_eq!(o.len(), expected.len() as u64);
        for (k, a) in expected.iter().enumerate() {
            assert!(o.is_answer(a), "{a:?}");
            assert_eq!(o.key_at(k as u64).unwrap(), o.order().key(a), "rank {k}");
        }
        assert_eq!(o.key_at(o.len()), None);
    }

    #[test]
    fn chain_matches_baseline_on_two_and_three_paths() {
        let mut rng = Rng::new(5);
        for _ in 0..4 {
            let (r, s, t) = (
                small(&mut rng, 30, 8),
                small(&mut rng, 30, 8),
                small(&mut rng, 20, 8),
            );
            let d = db(&[("R", &r), ("S", &s), ("T", &t)]);
            let fwd = Chain::new(&[(&r, false), (&s, false)], vec![0, 1, 2]);
            agrees(&fwd, baseline("Q(x, y, z) :- R(x, y), S(y, z)", &d));
            let rev = Chain::new(&[(&s, true), (&r, true)], vec![2, 1, 0]);
            agrees(&rev, baseline("Q(x, y, z) :- R(x, y), S(y, z)", &d));
            let p3 = Chain::new(&[(&r, false), (&s, false), (&t, false)], vec![0, 1, 2, 3]);
            agrees(
                &p3,
                baseline("Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)", &d),
            );
        }
    }

    #[test]
    fn star_matches_baseline() {
        let mut rng = Rng::new(6);
        let (r, s, t) = (
            small(&mut rng, 25, 6),
            small(&mut rng, 25, 6),
            small(&mut rng, 25, 6),
        );
        let d = db(&[("R", &r), ("S", &s), ("T", &t)]);
        let star = Star::new(&[&r, &s, &t]);
        agrees(
            &star,
            baseline("Q(x, a, b, c) :- R(x, a), S(x, b), T(x, c)", &d),
        );
    }

    #[test]
    fn brute_force_matches_baseline() {
        let mut rng = Rng::new(7);
        let (r, s) = (small(&mut rng, 40, 9), small(&mut rng, 40, 9));
        let f = Rel::from_rows((0..9).map(|y| (y, (y * 5) % 7)));
        let d = db(&[("R", &r), ("S", &s), ("F", &f)]);
        let lex = Sorted::new(path2_answers(&r, &s), Order::Lex(vec![0, 2, 1]));
        agrees(&lex, baseline("Q(x, y, z) :- R(x, y), S(y, z)", &d));
        let mut w = WeightFn::default();
        w.overrides.insert((1, 3), 100);
        let sum = Sorted::new(path2_answers(&r, &s), Order::Sum(w.clone()));
        agrees(&sum, baseline("Q(x, y, z) :- R(x, y), S(y, z)", &d));
        let cover = Sorted::new(cover_answers(&r, &s), Order::Sum(w));
        agrees(&cover, baseline("Q(x, y) :- R(x, y), S(y, z)", &d));
        let fd = Sorted::new(fd_answers(&r, &f), Order::Lex(vec![0, 1]));
        agrees(&fd, baseline("Q(x, z) :- R(x, y), F(y, z)", &d));
    }
}
