//! The benchmark's own copy of the data: every relation is binary over
//! integers, kept as a row set the oracle reads and the write schedule
//! mutates in lock step with the program's `Database`.

use crate::rng::Rng;
use rda_db::{Database, Relation, Tuple, Value};
use std::collections::{BTreeMap, HashMap, HashSet};

pub type Row = (i64, i64);

/// A row set with deterministic order (inserts append, deletes swap
/// the last row into the gap), so seeded picks repeat across runs.
#[derive(Clone, Default)]
pub struct Rel {
    rows: Vec<Row>,
    pos: HashMap<Row, usize>,
}

impl Rel {
    pub fn from_rows(rows: impl IntoIterator<Item = Row>) -> Rel {
        let mut rel = Rel::default();
        for r in rows {
            rel.insert(r);
        }
        rel
    }

    pub fn insert(&mut self, r: Row) -> bool {
        if self.pos.contains_key(&r) {
            return false;
        }
        self.pos.insert(r, self.rows.len());
        self.rows.push(r);
        true
    }

    pub fn remove(&mut self, r: &Row) -> bool {
        let Some(i) = self.pos.remove(r) else {
            return false;
        };
        self.rows.swap_remove(i);
        if i < self.rows.len() {
            self.pos.insert(self.rows[i], i);
        }
        true
    }

    pub fn contains(&self, r: &Row) -> bool {
        self.pos.contains_key(r)
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Sorted adjacency lists from one column to the other.
    pub fn adjacency(&self, reversed: bool) -> BTreeMap<i64, Vec<i64>> {
        let mut adj: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for &(a, b) in &self.rows {
            let (from, to) = if reversed { (b, a) } else { (a, b) };
            adj.entry(from).or_default().push(to);
        }
        for list in adj.values_mut() {
            list.sort_unstable();
        }
        adj
    }

    pub fn relation(&self, name: &str) -> Relation {
        let tuples = self.rows.iter().map(|&(a, b)| pair_tuple(a, b)).collect();
        Relation::from_tuples(name, 2, tuples)
    }
}

pub fn pair_tuple(a: i64, b: i64) -> Tuple {
    Tuple::new(vec![Value::int(a), Value::int(b)])
}

/// `n` distinct rows drawn by `draw`.
pub fn distinct_rows(rng: &mut Rng, n: usize, mut draw: impl FnMut(&mut Rng) -> Row) -> Rel {
    let mut rel = Rel::default();
    while rel.len() < n {
        rel.insert(draw(rng));
    }
    rel
}

/// One write batch: deletes then inserts on one relation.
#[derive(Clone)]
pub struct WriteBatch {
    pub rel: String,
    pub deletes: Vec<Row>,
    pub inserts: Vec<Row>,
}

impl WriteBatch {
    /// Bytes of user data the batch changes: two `i64`s per row.
    pub fn user_bytes(&self) -> u64 {
        16 * (self.deletes.len() + self.inserts.len()) as u64
    }
}

/// The relations plus what the oracle needs to predict the program's
/// behaviour across generations: the generation counter, the
/// generation at which each relation last changed, and the set of
/// values the dictionary holds (it only ever grows).
pub struct Model {
    pub rels: BTreeMap<String, Rel>,
    pub generation: u64,
    pub changed_at: HashMap<String, u64>,
    pub dict: HashSet<i64>,
    lo: i64,
    hi: i64,
}

impl Model {
    pub fn new(rels: BTreeMap<String, Rel>) -> Model {
        let dict = rels
            .values()
            .flat_map(|r| r.rows().iter().flat_map(|&(a, b)| [a, b]))
            .collect::<HashSet<i64>>();
        let lo = *dict.iter().min().expect("non-empty instance");
        let hi = *dict.iter().max().expect("non-empty instance");
        Model {
            rels,
            generation: 0,
            changed_at: HashMap::new(),
            dict,
            lo,
            hi,
        }
    }

    pub fn rel(&self, name: &str) -> &Rel {
        &self.rels[name]
    }

    pub fn database(&self) -> Database {
        let mut db = Database::new();
        for (name, rel) in &self.rels {
            db.add(rel.relation(name));
        }
        db
    }

    /// The latest generation at which any of `rels` changed.
    pub fn version_of(&self, rels: &[String]) -> u64 {
        rels.iter()
            .map(|r| self.changed_at.get(r).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    /// Apply one write's batches to the model (one generation) and
    /// record them as mutations of `db`.
    pub fn apply(&mut self, batches: &[WriteBatch], db: &mut Database) {
        self.generation += 1;
        for batch in batches {
            let rel = self
                .rels
                .get_mut(&batch.rel)
                .expect("batch names a relation");
            for r in &batch.deletes {
                assert!(rel.remove(r), "deletes name present rows");
                db.delete_from(&batch.rel, &pair_tuple(r.0, r.1));
            }
            for r in &batch.inserts {
                assert!(rel.insert(*r), "inserts name absent rows");
                db.insert_into(&batch.rel, pair_tuple(r.0, r.1));
                for v in [r.0, r.1] {
                    self.dict.insert(v);
                    self.lo = self.lo.min(v);
                    self.hi = self.hi.max(v);
                }
            }
            self.changed_at.insert(batch.rel.clone(), self.generation);
        }
    }

    /// A value the dictionary does not hold yet: strictly inside its
    /// range (`beyond == false`, the Rebased case) or past its top (the
    /// Extended case).
    pub fn fresh_value(&self, rng: &mut Rng, beyond: bool) -> i64 {
        let (lo, hi) = (self.lo, self.hi);
        if beyond {
            return hi + 1 + rng.below(1 << 10) as i64;
        }
        loop {
            let v = lo + 1 + rng.below((hi - lo - 1).max(1) as u64) as i64;
            if !self.dict.contains(&v) && v < hi {
                return v;
            }
        }
    }

    /// `n` seeded rows currently in `rel`, without repeats.
    pub fn pick_rows(&self, rng: &mut Rng, rel: &str, n: usize) -> Vec<Row> {
        let rows = self.rel(rel).rows();
        let mut picked = HashSet::new();
        let mut out = Vec::with_capacity(n);
        while out.len() < n.min(rows.len()) {
            let r = rows[rng.below(rows.len() as u64) as usize];
            if picked.insert(r) {
                out.push(r);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_keeps_set_semantics() {
        let mut r = Rel::from_rows([(1, 2), (1, 2), (3, 4)]);
        assert_eq!(r.len(), 2);
        assert!(r.remove(&(1, 2)));
        assert!(!r.remove(&(1, 2)));
        assert!(r.contains(&(3, 4)));
        assert_eq!(r.rows(), &[(3, 4)]);
    }

    #[test]
    fn fresh_values_are_new_and_placed() {
        let mut rels = BTreeMap::new();
        rels.insert("R".to_string(), Rel::from_rows([(0, 100), (50, 7)]));
        let m = Model::new(rels);
        let mut rng = Rng::new(1);
        let inside = m.fresh_value(&mut rng, false);
        assert!(inside > 0 && inside < 100 && !m.dict.contains(&inside));
        assert!(m.fresh_value(&mut rng, true) > 100);
    }
}
