//! Seeded inputs: table rows and statement streams.
//!
//! Everything the engine sees is made here from the `--seed` argument.
//! Sizes and mix ratios are constants: they are the same on both commits
//! of a comparison and are never read from the environment. A stream is
//! endless; the driver draws from it until the run's time is up, so the
//! first `k` statements of a stream depend on the seed alone.

use std::fmt::Write as _;

use rfv_testkit::Rng;

#[cfg(test)]
use crate::check::Fnv;

/// One statement of a workload's stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Read { class: &'static str, sql: String },
    Write(Write),
}

/// A write, by the public entry point it goes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Write {
    /// `Database::execute` of an `INSERT` / `UPDATE` touching `rows` rows.
    Sql { sql: String, rows: u64 },
    /// `Database::sequence_update`.
    SeqUpdate {
        table: &'static str,
        pos: i64,
        val: f64,
    },
    /// `Database::sequence_append_bulk`.
    AppendBulk { table: &'static str, vals: Vec<f64> },
}

impl Write {
    pub fn rows(&self) -> u64 {
        match self {
            Write::Sql { rows, .. } => *rows,
            Write::SeqUpdate { .. } => 1,
            Write::AppendBulk { vals, .. } => vals.len() as u64,
        }
    }
}

/// A statement stream.
pub trait OpGen {
    fn next_op(&mut self) -> Op;
}

/// An amount with two decimals in `[1, 1000)`: its SQL text is exact.
pub fn amount(rng: &mut Rng) -> f64 {
    (100 + rng.u64_below(99_900)) as f64 / 100.0
}

pub fn amounts(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| amount(rng)).collect()
}

/// A row of the `sales` / `ticks` fact tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Fact {
    pub pos: i64,
    pub region: i64,
    pub month: i64,
    pub cust: i64,
    pub amount: f64,
}

pub const REGIONS: i64 = 16;
pub const MONTHS: i64 = 24;

pub fn facts(rng: &mut Rng, first_pos: i64, n: usize, custs: i64) -> Vec<Fact> {
    (0..n)
        .map(|i| Fact {
            pos: first_pos + i as i64,
            region: rng.i64_in(0, REGIONS - 1),
            month: rng.i64_in(1, MONTHS),
            cust: rng.i64_in(1, custs),
            amount: amount(rng),
        })
        .collect()
}

/// Rows per `INSERT … VALUES` statement during set-up.
pub const LOAD_BATCH: usize = 500;

pub fn insert_facts_sql(table: &str, rows: &[Fact]) -> String {
    let mut s = format!("INSERT INTO {table} VALUES ");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}({}, {}, {}, {}, {:.2})",
            r.pos, r.region, r.month, r.cust, r.amount
        );
    }
    s
}

/// `INSERT` of `(pos, val)` rows at positions `first_pos..`.
pub fn insert_seq_sql(table: &str, first_pos: i64, vals: &[f64]) -> String {
    let mut s = format!("INSERT INTO {table} VALUES ");
    for (i, v) in vals.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}({}, {v:.2})", first_pos + i as i64);
    }
    s
}

fn frame(l: i64, h: i64) -> String {
    format!("ROWS BETWEEN {l} PRECEDING AND {h} FOLLOWING")
}

// ---------------------------------------------------------------------------
// report_scan
// ---------------------------------------------------------------------------

pub const SCAN_ROWS: usize = 40_000;
pub const SCAN_CUSTS: i64 = 5_000;
/// Reads between two refresh inserts, and rows per refresh insert on
/// `sales` and on `ticks`: either table grows by about a twentieth in a
/// run, so a run's last block scans little more than its first.
pub const REFRESH_EVERY: u64 = 8;
pub const SCAN_REFRESH_ROWS: usize = 8;
pub const WINDOW_REFRESH_ROWS: usize = 4;

/// The refresh trickle of the two fact tables: after every
/// [`REFRESH_EVERY`] reads, one `INSERT` of `rows` new rows.
struct Refresh {
    rng: Rng,
    table: &'static str,
    rows: usize,
    next_pos: i64,
    since_write: u64,
}

impl Refresh {
    fn new(rng: Rng, table: &'static str, loaded: usize, rows: usize) -> Self {
        Refresh {
            rng,
            table,
            rows,
            next_pos: loaded as i64 + 1,
            since_write: 0,
        }
    }

    /// The insert, when one is due; otherwise counts the read about to be
    /// drawn.
    fn due(&mut self) -> Option<Op> {
        if self.since_write < REFRESH_EVERY {
            self.since_write += 1;
            return None;
        }
        self.since_write = 0;
        let rows = facts(&mut self.rng, self.next_pos, self.rows, SCAN_CUSTS);
        self.next_pos += self.rows as i64;
        Some(Op::Write(Write::Sql {
            sql: insert_facts_sql(self.table, &rows),
            rows: self.rows as u64,
        }))
    }
}

/// Ten-statement cycle: 6 hash join + GROUP BY, 3 filter + top-100,
/// 1 filter + 2-key GROUP BY. The shares are unequal on purpose: top-100
/// is the cheapest class and the 2-key GROUP BY the dearest, so the median
/// sits a third of the way into the join class and p95 on the median of
/// the GROUP BY class — not in the tail of a class, where two engine
/// threads on a shared host scatter most. Every statement carries a
/// literal no other statement has (the base drawn from the seed, plus 1e-6
/// per statement of its class), so the plan and result caches miss by
/// construction while the selectivity — amounts have two decimals — stays
/// what the base gives.
pub struct ScanGen {
    refresh: Refresh,
    bases: [f64; 3],
    counts: [u64; 3],
    reads: u64,
}

/// 0 = 2-key GROUP BY, 1 = top-100, 2 = join.
const SCAN_CYCLE: [usize; 10] = [2, 1, 2, 2, 0, 2, 1, 2, 1, 2];

impl ScanGen {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5ca9);
        let bases = [
            100.0 + rng.u64_below(10_000) as f64 / 1e3,
            900.0 + rng.u64_below(5_000) as f64 / 1e3,
            870.0 + rng.u64_below(10_000) as f64 / 1e3,
        ];
        ScanGen {
            refresh: Refresh::new(rng, "sales", SCAN_ROWS, SCAN_REFRESH_ROWS),
            bases,
            counts: [0; 3],
            reads: 0,
        }
    }
}

impl OpGen for ScanGen {
    fn next_op(&mut self) -> Op {
        if let Some(insert) = self.refresh.due() {
            return insert;
        }
        let class = SCAN_CYCLE[(self.reads % 10) as usize];
        self.reads += 1;
        let lit = self.bases[class] + self.counts[class] as f64 * 1e-6;
        self.counts[class] += 1;
        let (class, sql) = match class {
            0 => (
                "agg",
                format!(
                    "SELECT region, month, COUNT(*) AS c, SUM(amount) AS s, MIN(amount) AS lo, \
                     MAX(amount) AS hi FROM sales WHERE amount > {lit:.6} \
                     GROUP BY region, month ORDER BY region, month"
                ),
            ),
            1 => (
                "topk",
                format!(
                    "SELECT pos, cust, amount FROM sales WHERE amount > {lit:.6} \
                     ORDER BY amount DESC, pos LIMIT 100"
                ),
            ),
            _ => (
                "join",
                format!(
                    "SELECT d.segment, COUNT(*) AS c, SUM(s.amount) AS t FROM sales s \
                     JOIN dim_cust d ON s.cust = d.cust WHERE s.amount > {lit:.6} \
                     GROUP BY d.segment ORDER BY d.segment"
                ),
            ),
        };
        Op::Read { class, sql }
    }
}

// ---------------------------------------------------------------------------
// report_window
// ---------------------------------------------------------------------------

pub const WINDOW_ROWS: usize = 10_000;

/// Ten-statement cycle: 3 small-frame SUM, 4 wide SUM+MIN+MAX, 2 real
/// sorts, 1 three-`OVER` statement, cheapest class first. The shares are
/// unequal on purpose: the median sits on the median of the wide-frame
/// class and p95 on the median of the three-`OVER` class, not on a
/// boundary between two classes or in the tail of one.
pub struct WindowGen {
    refresh: Refresh,
    offsets: [u64; 4],
    counts: [u64; 4],
    reads: u64,
}

const WINDOW_CYCLE: [usize; 10] = [0, 1, 2, 1, 0, 1, 3, 1, 2, 0];

impl WindowGen {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x71d0);
        let offsets = [0; 4].map(|_| rng.u64_below(1_000));
        WindowGen {
            refresh: Refresh::new(rng, "ticks", WINDOW_ROWS, WINDOW_REFRESH_ROWS),
            offsets,
            counts: [0; 4],
            reads: 0,
        }
    }
}

impl OpGen for WindowGen {
    fn next_op(&mut self) -> Op {
        if let Some(insert) = self.refresh.due() {
            return insert;
        }
        let class = WINDOW_CYCLE[(self.reads % 10) as usize];
        self.reads += 1;
        let i = (self.offsets[class] + self.counts[class]) as i64;
        self.counts[class] += 1;
        let (class, sql) = match class {
            0 => (
                "small",
                format!(
                    "SELECT pos, SUM(amount) OVER (ORDER BY pos {}) AS s FROM ticks",
                    frame(1 + i % 50, (i / 50) % 50)
                ),
            ),
            1 => {
                let f = frame(500 + i % 64, 500 + (i / 64) % 64);
                (
                    "wide",
                    format!(
                        "SELECT pos, SUM(amount) OVER (ORDER BY pos {f}) AS s, \
                         MIN(amount) OVER (ORDER BY pos {f}) AS lo, \
                         MAX(amount) OVER (ORDER BY pos {f}) AS hi FROM ticks"
                    ),
                )
            }
            2 => (
                "sort",
                format!(
                    "SELECT pos, SUM(amount) OVER (ORDER BY amount, pos {}) AS s FROM ticks",
                    frame(1 + i % 50, (i / 50) % 50)
                ),
            ),
            _ => {
                let f = frame(2 + i % 2_000, 0);
                (
                    "multi",
                    format!(
                        "SELECT pos, \
                         SUM(amount) OVER (PARTITION BY region ORDER BY pos {f}) AS a, \
                         SUM(amount) OVER (PARTITION BY region, cust ORDER BY pos {f}) AS b, \
                         SUM(amount) OVER (PARTITION BY region ORDER BY month, pos {f}) AS c \
                         FROM ticks"
                    ),
                )
            }
        };
        Op::Read { class, sql }
    }
}

// ---------------------------------------------------------------------------
// view_derive
// ---------------------------------------------------------------------------

pub const DERIVE_ROWS: usize = 300;
pub const DERIVE_PARTS: i64 = 8;
pub const DERIVE_PART_ROWS: usize = 50;
/// Reads between two `sequence_update`s of `seq`.
pub const DERIVE_UPDATE_EVERY: u64 = 7;

/// 20-statement cycle: 18 cheap derivations and 2 SUM/AVG frames that
/// rewrite to a relational pattern (3 SUM to 1 AVG): a tenth of the reads,
/// so p95 sits on the median of the pattern class. Every statement has
/// its own output alias (statement number and the seed's low bits, which
/// also keeps the warm-up stream's statements apart from the measured
/// ones), so no two share a cache key.
pub struct DeriveGen {
    rng: Rng,
    tag: u64,
    offset: u64,
    reads: u64,
    cheap: u64,
    pattern: u64,
    since_write: u64,
}

/// Positions of the pattern statements within the cycle.
const DERIVE_CYCLE: u64 = 20;
const DERIVE_PATTERN_SLOTS: [u64; 2] = [4, 14];

impl DeriveGen {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0xde71);
        let offset = rng.u64_below(400);
        DeriveGen {
            rng,
            tag: seed & 0xffff,
            offset,
            reads: 0,
            cheap: 0,
            pattern: 0,
            since_write: 0,
        }
    }
}

impl OpGen for DeriveGen {
    fn next_op(&mut self) -> Op {
        if self.since_write == DERIVE_UPDATE_EVERY {
            self.since_write = 0;
            return Op::Write(Write::SeqUpdate {
                table: "seq",
                pos: self.rng.i64_in(1, DERIVE_ROWS as i64),
                val: amount(&mut self.rng),
            });
        }
        self.since_write += 1;
        let k = format!("{}_{}", self.reads, self.tag);
        let slot = self.reads % DERIVE_CYCLE;
        self.reads += 1;
        let over = |agg: &str, f: String| format!("SELECT pos, {agg}(val) OVER (ORDER BY pos {f})");
        if DERIVE_PATTERN_SLOTS.contains(&slot) {
            let i = (self.offset + self.pattern) as i64;
            let agg = if self.pattern % 4 == 3 { "AVG" } else { "SUM" };
            self.pattern += 1;
            // l ≥ 3, so the frame never equals the (2,1) view's own.
            let f = frame(3 + i % 20, (i / 20) % 20);
            return Op::Read {
                class: "pattern",
                sql: format!("{} AS p{k} FROM seq", over(agg, f)),
            };
        }
        let i = (self.offset + self.cheap) as i64;
        let kind = self.cheap % 7;
        self.cheap += 1;
        let (class, sql) = match kind {
            0 => (
                "exact",
                format!("{} AS e{k} FROM seq", over("SUM", frame(2, 1))),
            ),
            1 => (
                "cumulative",
                format!(
                    "{} AS d{k} FROM seq_c",
                    over("SUM", frame(1 + i % 30, (i / 30) % 30))
                ),
            ),
            2 => (
                "count",
                format!(
                    "{} AS c{k} FROM seq",
                    over("COUNT", frame(1 + i % 30, (i / 30) % 30))
                ),
            ),
            // The (2,2) MAX view covers frames up to Δl, Δh ≤ w = 5.
            3 => (
                "coverage",
                format!(
                    "{} AS m{k} FROM seq",
                    over("MAX", frame(2 + i % 6, 2 + (i / 6) % 6))
                ),
            ),
            4 => (
                "partitioned",
                format!(
                    "SELECT region, pos, SUM(val) OVER (PARTITION BY region ORDER BY pos {}) \
                     AS q{k} FROM pseq",
                    frame(1 + i % 10, (i / 10) % 10)
                ),
            ),
            5 => (
                "reduction",
                format!(
                    "SELECT region, pos, SUM(val) OVER (ORDER BY region, pos {}) AS r{k} FROM pseq",
                    frame(1 + i % 10, (i / 10) % 10)
                ),
            ),
            // No MIN view exists: the rewriter must fall back.
            _ => (
                "fallback",
                format!(
                    "{} AS f{k} FROM seq",
                    over("MIN", frame(1 + i % 30, (i / 30) % 30))
                ),
            ),
        };
        Op::Read { class, sql }
    }
}

// ---------------------------------------------------------------------------
// short_stmt
// ---------------------------------------------------------------------------

pub const SHORT_ROWS: usize = 1_000;
pub const SHORT_GROUPS: i64 = 16;
pub const SHORT_DASHBOARDS: usize = 20;
/// Statements between two single-row `UPDATE`s.
pub const SHORT_UPDATE_EVERY: u64 = 1_000;

/// Ten-statement cycle, so the shares are exact in any stretch of the
/// stream — the 200 warm-up reads that make up most of this workload's
/// set-up included (drawn at random, their mix moved `setup_s` by a
/// quarter from seed to seed); which dashboard and which row is seeded.
/// 30 % of reads repeat one of 20 fixed dashboard statements (the only
/// statements in the benchmark a result cache can serve); the rest carry
/// a literal of their own: 40 % indexed point lookups, 20 % three-row-frame
/// windows over `id <= 200`, 10 % 16-group aggregates (cheapest class
/// first: the median sits on the median of the point lookups, p95 on that
/// of the aggregates). One single-row `UPDATE` every 1 000 statements
/// invalidates by generation.
pub struct ShortGen {
    rng: Rng,
    dashboards: Vec<String>,
    reads: u64,
    since_write: u64,
}

/// D = dashboard, P = point lookup, W = window, G = 16-group aggregate.
const SHORT_CYCLE: &[u8; 10] = b"DPWPDGPWPD";

impl ShortGen {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5407);
        let dashboards = (0..SHORT_DASHBOARDS)
            .map(|d| {
                let floor = rng.u64_below(2_000);
                match d % 4 {
                    0 => format!(
                        "SELECT grp, COUNT(*) AS c, SUM(bal) AS s FROM acct \
                         WHERE bal > {floor}.5 GROUP BY grp ORDER BY grp"
                    ),
                    1 => format!(
                        "SELECT id, bal FROM acct WHERE bal > {}.5 ORDER BY bal DESC, id LIMIT 10",
                        3_000 + floor
                    ),
                    2 => format!(
                        "SELECT grp, MIN(bal) AS lo, MAX(bal) AS hi FROM acct \
                         WHERE id > {floor} GROUP BY grp ORDER BY grp",
                        floor = floor % 500
                    ),
                    _ => format!(
                        "SELECT COUNT(*) AS c, SUM(bal) AS s FROM acct WHERE grp = {}",
                        floor as i64 % SHORT_GROUPS
                    ),
                }
            })
            .collect();
        ShortGen {
            rng,
            dashboards,
            reads: 0,
            since_write: 0,
        }
    }
}

impl OpGen for ShortGen {
    fn next_op(&mut self) -> Op {
        if self.since_write == SHORT_UPDATE_EVERY {
            self.since_write = 0;
            return Op::Write(Write::Sql {
                sql: format!(
                    "UPDATE acct SET bal = {:.2} WHERE id = {}",
                    amount(&mut self.rng) * 5.0,
                    self.rng.i64_in(1, SHORT_ROWS as i64)
                ),
                rows: 1,
            });
        }
        self.since_write += 1;
        let k = self.reads;
        self.reads += 1;
        // No stored balance is negative, so `bal > -1.<k>` keeps every row
        // while making the statement text one of a kind.
        let unique = format!("-1.{k:09}");
        let (class, sql) = match SHORT_CYCLE[(k % 10) as usize] {
            b'D' => {
                let d = self.rng.usize_in(0, SHORT_DASHBOARDS - 1);
                ("dashboard", self.dashboards[d].clone())
            }
            b'P' => (
                "point",
                format!(
                    "SELECT id, grp, bal FROM acct WHERE id = {} AND bal > {unique}",
                    self.rng.i64_in(1, SHORT_ROWS as i64)
                ),
            ),
            b'G' => (
                "group",
                format!(
                    "SELECT grp, COUNT(*) AS c, SUM(bal) AS s FROM acct WHERE bal > {unique} \
                     GROUP BY grp ORDER BY grp"
                ),
            ),
            _ => (
                "window",
                format!(
                    "SELECT id, SUM(bal) OVER (ORDER BY id ROWS BETWEEN 1 PRECEDING AND \
                     1 FOLLOWING) AS s FROM acct WHERE id <= 200 AND bal > {unique}"
                ),
            ),
        };
        Op::Read { class, sql }
    }
}

// ---------------------------------------------------------------------------
// ingest_maintain
// ---------------------------------------------------------------------------

pub const MAINTAIN_ROWS: usize = 10_000;
pub const MAINTAIN_INSERT_ROWS: usize = 10;
/// Rows of the widest view's tail a read statement fetches, at least.
pub const MAINTAIN_TAIL: i64 = 100;

/// Twenty-statement cycle over `seq` under four views: 5 point updates,
/// 1 multi-row `INSERT`, 14 reads of a view tail (a write costs twelve
/// reads, so fewer reads would leave p95 too few samples to block).
/// Updates outnumber inserts 5:1, so the write median is a point update
/// and the write p95 a multi-row insert — and the table grows by under a
/// tenth during a run (maintenance is O(n) per statement today, so growth
/// is drift).
pub struct MaintainGen {
    rng: Rng,
    step: u64,
    reads: u64,
    n: i64,
}

const MAINTAIN_CYCLE: &[u8; 20] = b"URRRURRIRRURRRURRURR";

impl MaintainGen {
    pub fn new(seed: u64) -> Self {
        MaintainGen {
            rng: Rng::new(seed ^ 0x1a9e),
            step: 0,
            reads: 0,
            n: MAINTAIN_ROWS as i64,
        }
    }
}

impl OpGen for MaintainGen {
    fn next_op(&mut self) -> Op {
        let kind = MAINTAIN_CYCLE[(self.step % 20) as usize];
        self.step += 1;
        match kind {
            b'U' => Op::Write(Write::SeqUpdate {
                table: "seq",
                pos: self.rng.i64_in(1, self.n),
                val: amount(&mut self.rng),
            }),
            b'I' => {
                let vals = amounts(&mut self.rng, MAINTAIN_INSERT_ROWS);
                let sql = insert_seq_sql("seq", self.n + 1, &vals);
                self.n += vals.len() as i64;
                Op::Write(Write::Sql {
                    sql,
                    rows: MAINTAIN_INSERT_ROWS as u64,
                })
            }
            // Every tenth read fetches a whole view body (writes fall
            // between any two of them, so none is a result-cache hit): a
            // tenth of the reads at twice the cost, so p95 sits inside
            // that class and not in the tail of the other.
            _ if self.reads % 10 == 9 => {
                self.reads += 1;
                Op::Read {
                    class: "body",
                    sql: "SELECT pos, val FROM mv_narrow ORDER BY pos".to_string(),
                }
            }
            // Up to three reads follow one another; each asks for a tail of
            // its own length, so none is served from the result cache.
            _ => {
                self.reads += 1;
                Op::Read {
                    class: "tail",
                    sql: format!(
                        "SELECT pos, val FROM mv_wide WHERE pos > {} ORDER BY pos",
                        self.n - MAINTAIN_TAIL - (self.step % 4) as i64
                    ),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ingest_storm
// ---------------------------------------------------------------------------

pub const STORM_ROWS: usize = 20_000;
pub const STORM_APPEND_ROWS: usize = 100;
/// The writer's schedule: one bulk append due every this many ms.
pub const STORM_PERIOD_MS: u64 = 200;
pub const STORM_SLICE: i64 = 8_000;

/// The open-loop writer's stream: bulk appends at the tail of `seq`.
pub struct StormWriteGen {
    rng: Rng,
}

impl StormWriteGen {
    pub fn new(seed: u64) -> Self {
        StormWriteGen {
            rng: Rng::new(seed ^ 0x5707),
        }
    }
}

impl OpGen for StormWriteGen {
    fn next_op(&mut self) -> Op {
        Op::Write(Write::AppendBulk {
            table: "seq",
            vals: amounts(&mut self.rng, STORM_APPEND_ROWS),
        })
    }
}

/// The closed-loop reader's stream: a window over a slice of the rows
/// loaded at set-up. The writer only appends past them, so a slice's
/// result does not depend on how far the writer has got. Every tenth
/// slice is twice as long: a tenth of the reads at twice the cost, so p95
/// sits inside that class and not in the tail of the other.
pub struct StormReadGen {
    rng: Rng,
    reads: u64,
}

impl StormReadGen {
    pub fn new(seed: u64) -> Self {
        StormReadGen {
            rng: Rng::new(seed ^ 0x57ea),
            reads: 0,
        }
    }
}

impl OpGen for StormReadGen {
    fn next_op(&mut self) -> Op {
        let k = self.reads as i64;
        self.reads += 1;
        let (class, len) = if k % 10 == 9 {
            ("long_slice", 2 * STORM_SLICE)
        } else {
            ("slice", STORM_SLICE)
        };
        let lo = self.rng.i64_in(1, STORM_ROWS as i64 - len);
        Op::Read {
            class,
            sql: format!(
                "SELECT pos, SUM(val) OVER (ORDER BY pos {}) AS s FROM seq \
                 WHERE pos >= {lo} AND pos < {}",
                frame(1 + k % 40, (k / 40) % 40),
                lo + len
            ),
        }
    }
}

// ---------------------------------------------------------------------------

/// The statement stream of `workload` (the reader's, for `ingest_storm`).
pub fn stream(workload: &str, seed: u64) -> Option<Box<dyn OpGen>> {
    Some(match workload {
        "report_scan" => Box::new(ScanGen::new(seed)),
        "report_window" => Box::new(WindowGen::new(seed)),
        "view_derive" => Box::new(DeriveGen::new(seed)),
        "short_stmt" => Box::new(ShortGen::new(seed)),
        "ingest_maintain" => Box::new(MaintainGen::new(seed)),
        "ingest_storm" => Box::new(StormReadGen::new(seed)),
        _ => return None,
    })
}

/// Hash of the first `count` statements of a workload's stream.
#[cfg(test)]
pub fn stream_hash(workload: &str, seed: u64, count: usize) -> Option<u64> {
    let mut gen = stream(workload, seed)?;
    let mut h = Fnv::default();
    for _ in 0..count {
        h.bytes(format!("{:?}", gen.next_op()).as_bytes());
    }
    Some(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKLOADS;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in WORKLOADS {
            let a = stream_hash(w.name, 7, 300).unwrap();
            assert_eq!(a, stream_hash(w.name, 7, 300).unwrap(), "{}", w.name);
            assert_ne!(a, stream_hash(w.name, 8, 300).unwrap(), "{}", w.name);
        }
        assert!(stream_hash("no_such_workload", 7, 1).is_none());
    }

    #[test]
    fn same_seed_same_rows() {
        let rows = |seed| facts(&mut Rng::new(seed), 1, 50, SCAN_CUSTS);
        assert_eq!(rows(3), rows(3));
        assert_ne!(rows(3), rows(4));
        assert_eq!(amounts(&mut Rng::new(3), 50), amounts(&mut Rng::new(3), 50));
        assert_ne!(amounts(&mut Rng::new(3), 50), amounts(&mut Rng::new(4), 50));
    }

    #[test]
    fn uncacheable_streams_never_repeat_a_read() {
        for name in ["report_scan", "report_window", "view_derive"] {
            let mut gen = stream(name, 11).unwrap();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..2_000 {
                if let Op::Read { sql, .. } = gen.next_op() {
                    assert!(seen.insert(sql.clone()), "{name} repeats: {sql}");
                }
            }
        }
    }

    #[test]
    fn mixes_keep_their_shares() {
        let mut gen = ShortGen::new(5);
        let (mut dash, mut reads, mut writes) = (0u32, 0u32, 0u32);
        for _ in 0..20_020 {
            match gen.next_op() {
                Op::Read { class, .. } => {
                    reads += 1;
                    dash += u32::from(class == "dashboard");
                }
                Op::Write(_) => writes += 1,
            }
        }
        assert_eq!(writes, 20);
        assert_eq!((dash, reads), (6_000, 20_000));

        let mut gen = DeriveGen::new(5);
        let mut pattern = 0;
        let mut n = 0;
        while n < 2_000 {
            if let Op::Read { class, .. } = gen.next_op() {
                n += 1;
                pattern += u32::from(class == "pattern");
            }
        }
        assert_eq!(pattern, 200);
    }
}
