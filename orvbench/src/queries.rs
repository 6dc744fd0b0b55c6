//! The query classes the workloads send, drawn from a seeded PRNG. Tables
//! are `t1(x, y, z, oilp)` and `t2(x, y, z, wp)` over one `g × g × 1` grid,
//! and `v1 = t1 JOIN t2 ON (x, y, z)`.

/// splitmix64: the one PRNG of the benchmark (dataset seeds and windows).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` far below 2^64, so the modulo bias is nil).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// `SELECT * FROM t1`
    ScanFull,
    /// `SELECT * FROM v1`
    JoinView,
    /// `SELECT * FROM t1 JOIN t2 ON (x, y, z)`
    JoinDirect,
    /// `SELECT * FROM t1` over a 64×64 window
    ScanWin,
    /// `SELECT * FROM v1` over a 32×32 window
    JoinWin,
    /// `SELECT x, COUNT(*), AVG(oilp) FROM t1 … GROUP BY x` over 64×64
    AggWin,
    /// `SELECT x, y, wp FROM v1 … ORDER BY wp DESC LIMIT 10` over 32×32
    TopkWin,
    /// `SELECT * FROM t1 WHERE x IN [x0, x0+w-1]`, `w` chosen for 65 536 rows
    Slab,
}

pub const TOPK: usize = 10;
pub const SLAB_ROWS: u64 = 65_536;

/// An inclusive coordinate window (z is always 0).
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub x0: u64,
    pub x1: u64,
    pub y0: u64,
    pub y1: u64,
}

impl Window {
    pub fn width(&self) -> u64 {
        self.x1 - self.x0 + 1
    }

    pub fn height(&self) -> u64 {
        self.y1 - self.y0 + 1
    }
}

#[derive(Clone, Debug)]
pub struct Query {
    pub class: Class,
    pub window: Window,
    pub sql: String,
}

impl Class {
    /// The name the per-class serving metrics carry.
    pub fn slug(self) -> &'static str {
        match self {
            Class::ScanFull => "scan_full",
            Class::JoinView => "join_view",
            Class::JoinDirect => "join_direct",
            Class::ScanWin => "scan_win",
            Class::JoinWin => "join_win",
            Class::AggWin => "agg_win",
            Class::TopkWin => "topk_win",
            Class::Slab => "slab",
        }
    }

    /// Draw one query of this class over a `grid × grid` dataset.
    pub fn draw(self, grid: u64, rng: &mut Rng) -> Query {
        let full = Window {
            x0: 0,
            x1: grid - 1,
            y0: 0,
            y1: grid - 1,
        };
        let mut square = |side: u64| {
            let x0 = rng.below(grid - side + 1);
            let y0 = rng.below(grid - side + 1);
            Window {
                x0,
                x1: x0 + side - 1,
                y0,
                y1: y0 + side - 1,
            }
        };
        let (window, sql) = match self {
            Class::ScanFull => (full, "SELECT * FROM t1".to_string()),
            Class::JoinView => (full, "SELECT * FROM v1".to_string()),
            Class::JoinDirect => (full, "SELECT * FROM t1 JOIN t2 ON (x, y, z)".to_string()),
            Class::ScanWin => {
                let w = square(64);
                (w, format!("SELECT * FROM t1 WHERE {}", where_xy(&w)))
            }
            Class::JoinWin => {
                let w = square(32);
                (w, format!("SELECT * FROM v1 WHERE {}", where_xy(&w)))
            }
            Class::AggWin => {
                let w = square(64);
                let sql = format!(
                    "SELECT x, COUNT(*), AVG(oilp) FROM t1 WHERE {} GROUP BY x",
                    where_xy(&w)
                );
                (w, sql)
            }
            Class::TopkWin => {
                let w = square(32);
                let sql = format!(
                    "SELECT x, y, wp FROM v1 WHERE {} ORDER BY wp DESC LIMIT {TOPK}",
                    where_xy(&w)
                );
                (w, sql)
            }
            Class::Slab => {
                let width = (SLAB_ROWS / grid).max(1);
                let x0 = rng.below(grid - width + 1);
                let w = Window {
                    x0,
                    x1: x0 + width - 1,
                    ..full
                };
                (
                    w,
                    format!("SELECT * FROM t1 WHERE x IN [{}, {}]", w.x0, w.x1),
                )
            }
        };
        Query {
            class: self,
            window,
            sql,
        }
    }
}

fn where_xy(w: &Window) -> String {
    format!("x IN [{}, {}] AND y IN [{}, {}]", w.x0, w.x1, w.y0, w.y1)
}
