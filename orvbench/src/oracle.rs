//! The oracle: what every workload query must return, computed in closed
//! form from the grid and `orv_bds::scalar_value` by nested loops. It
//! shares nothing with the execution path: no chunk is read, no extractor,
//! batch, join or operator of the program runs here.

use crate::queries::{Class, Query, TOPK};
use orv_bds::scalar_value;
use orv_types::{Record, Value};

/// One typed cell of an expected row.
#[derive(Clone, Copy)]
enum Cell {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
}

impl From<Value> for Cell {
    fn from(v: Value) -> Self {
        match v {
            Value::I32(x) => Cell::I32(x),
            Value::I64(x) => Cell::I64(x),
            Value::F32(x) => Cell::F32(x),
            Value::F64(x) => Cell::F64(x),
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of one row: type tags and exact bit patterns, in column order.
fn row_hash(cells: impl IntoIterator<Item = Cell>) -> u64 {
    cells.into_iter().fold(0x9E37_79B9_7F4A_7C15, |h, c| {
        let (tag, bits) = match c {
            Cell::I32(x) => (1u64, x as u32 as u64),
            Cell::I64(x) => (2, x as u64),
            Cell::F32(x) => (3, x.to_bits() as u64),
            Cell::F64(x) => (4, x.to_bits()),
        };
        mix(h ^ mix(bits.wrapping_add(tag << 56)))
    })
}

/// Fold row hashes into a result checksum: a wrapping sum, so row order
/// does not matter — except for `TopkWin`, whose answer *is* an order, so
/// there each row's position is hashed in.
struct Fold {
    ordered: bool,
    n: u64,
    sum: u64,
}

impl Fold {
    fn new(class: Class) -> Self {
        Fold {
            ordered: class == Class::TopkWin,
            n: 0,
            sum: 0,
        }
    }

    fn push(&mut self, row: u64) {
        let h = if self.ordered { mix(row ^ self.n) } else { row };
        self.sum = self.sum.wrapping_add(h);
        self.n += 1;
    }
}

/// Checksum of rows the program returned for a query of `class`.
pub fn checksum_of(class: Class, rows: &[Record]) -> u64 {
    let mut fold = Fold::new(class);
    for r in rows {
        fold.push(row_hash(r.values().iter().map(|&v| Cell::from(v))));
    }
    fold.sum
}

/// Expected results over datasets `t1` (seed `seed_t1`, scalar `oilp`) and
/// `t2` (seed `seed_t2`, scalar `wp`).
pub struct Oracle {
    pub seed_t1: u64,
    pub seed_t2: u64,
}

impl Oracle {
    fn oilp(&self, x: u64, y: u64) -> f32 {
        scalar_value(self.seed_t1, 0, [x, y, 0])
    }

    fn wp(&self, x: u64, y: u64) -> f32 {
        scalar_value(self.seed_t2, 0, [x, y, 0])
    }

    /// Number of rows the query must return.
    pub fn rows(&self, q: &Query) -> u64 {
        let w = &q.window;
        match q.class {
            Class::AggWin => w.width(),
            Class::TopkWin => (w.width() * w.height()).min(TOPK as u64),
            _ => w.width() * w.height(),
        }
    }

    /// Checksum of the rows the query must return.
    pub fn checksum(&self, q: &Query) -> u64 {
        let w = &q.window;
        let mut fold = Fold::new(q.class);
        let xy = |x: u64, y: u64| [Cell::I32(x as i32), Cell::I32(y as i32), Cell::I32(0)];
        match q.class {
            Class::ScanFull | Class::ScanWin | Class::Slab => {
                for x in w.x0..=w.x1 {
                    for y in w.y0..=w.y1 {
                        let cells = xy(x, y).into_iter().chain([Cell::F32(self.oilp(x, y))]);
                        fold.push(row_hash(cells));
                    }
                }
            }
            Class::JoinView | Class::JoinDirect | Class::JoinWin => {
                for x in w.x0..=w.x1 {
                    for y in w.y0..=w.y1 {
                        let scalars = [Cell::F32(self.oilp(x, y)), Cell::F32(self.wp(x, y))];
                        fold.push(row_hash(xy(x, y).into_iter().chain(scalars)));
                    }
                }
            }
            Class::AggWin => {
                for x in w.x0..=w.x1 {
                    // Every scalar is k/2^24, so the f64 sum is exact in
                    // any order and AVG has one right answer.
                    let sum: f64 = (w.y0..=w.y1).map(|y| self.oilp(x, y) as f64).sum();
                    let n = w.height();
                    fold.push(row_hash([
                        Cell::I32(x as i32),
                        Cell::I64(n as i64),
                        Cell::F64(sum / n as f64),
                    ]));
                }
            }
            Class::TopkWin => {
                let mut all: Vec<(f32, u64, u64)> = Vec::new();
                for x in w.x0..=w.x1 {
                    for y in w.y0..=w.y1 {
                        all.push((self.wp(x, y), x, y));
                    }
                }
                // `wp` descending; equal `wp` keeps (x, y) ascending, the
                // order a stable sort of the join's output leaves.
                all.sort_by(|a, b| b.0.total_cmp(&a.0).then((a.1, a.2).cmp(&(b.1, b.2))));
                for &(wp, x, y) in all.iter().take(TOPK) {
                    fold.push(row_hash([
                        Cell::I32(x as i32),
                        Cell::I32(y as i32),
                        Cell::F32(wp),
                    ]));
                }
            }
        }
        fold.sum
    }
}
