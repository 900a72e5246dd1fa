//! Incremental maintenance of materialized sequence data (§2.3).
//!
//! A materialized sliding-window view must be synchronized when the base
//! sequence changes. The paper gives per-operation rules showing that the
//! changes stay *local*: with window size `w = l + h + 1`,
//!
//! * **update** at `k` touches the `w` positions `k−h ..= k+l`;
//! * **insert** at `k` shifts positions `> k` right by one and recomputes
//!   only a `w`-sized neighbourhood around `k`;
//! * **delete** at `k` shifts positions `> k` left and recomputes the same
//!   neighbourhood.
//!
//! Every edit shape — a point update, an update set, an append run, a
//! mid-sequence insert or delete, each op of an interleaved batch — is one
//! `Edit` in post-edit coordinates, and one rule per view class patches
//! the stored sequence **in place** from a `RawWindow` onto the edited
//! neighbourhood, reporting the stored positions it changed. Each rule is a
//! local restart of what `materialize` does, so a maintained interval holds
//! the bits a rematerialization of that interval would; every rule is
//! property-tested against full rematerialization, and the returned
//! [`MaintenanceStats`] let callers verify the locality claim by counting.

use std::collections::BTreeSet;
use std::ops::Range;

use rfv_types::{Result, RfvError};

use crate::sequence::{check_extent, roll_extrema, roll_sums, CompleteSequence};
use crate::view::ViewData;

/// How much work a maintenance operation performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceStats {
    /// Positions whose value was recomputed.
    pub recomputed: usize,
    /// Positions whose value was only *moved* (insert/delete shifts).
    pub shifted: usize,
    /// Operations that were folded into a shared batch region instead of
    /// paying for their own maintenance pass (always 0 on the per-op path).
    pub coalesced: usize,
}

impl MaintenanceStats {
    /// Fold another operation's stats into this one.
    pub fn merge(&mut self, other: MaintenanceStats) {
        self.recomputed += other.recomputed;
        self.shifted += other.shifted;
        self.coalesced += other.coalesced;
    }
}

/// A window onto the raw sequence *after* an edit: ascending, disjoint
/// `(first position, values)` pieces. Like the paper's header/trailer
/// convention it reads 0 outside `1..=n` — and wherever else it has no
/// piece, so whoever builds it supplies every position the rules will read
/// ([`Edit::raw_reads`]).
#[derive(Debug, Clone)]
pub(crate) struct RawWindow<'a>(pub Vec<(i64, &'a [f64])>);

impl<'a> RawWindow<'a> {
    /// The special case of a full vector: positions `1..=raw.len()`.
    pub fn whole(raw: &'a [f64]) -> Self {
        RawWindow(vec![(1, raw)])
    }

    /// The raw value at position `p`; 0 where the window has none.
    #[inline]
    pub fn at(&self, p: i64) -> f64 {
        let after = self.0.partition_point(|(first, _)| *first <= p);
        let Some((first, vals)) = after.checked_sub(1).map(|i| self.0[i]) else {
            return 0.0;
        };
        vals.get((p - first) as usize).copied().unwrap_or(0.0)
    }
}

/// `spans`, ascending by start, with the empty ones dropped and those that
/// touch or overlap merged.
fn merged(spans: impl IntoIterator<Item = (i64, i64)>) -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = Vec::new();
    for (lo, hi) in spans {
        match out.last_mut() {
            Some((_, prev)) if lo <= *prev + 1 => *prev = (*prev).max(hi),
            _ if lo <= hi => out.push((lo, hi)),
            _ => {}
        }
    }
    out
}

/// One edit of the raw sequence, described in **post-edit coordinates**.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Edit {
    /// Ascending, disjoint runs `(a, b)` of raw positions that hold a new
    /// value. The site of a deletion at `k` is the empty run `(k, k − 1)`.
    pub runs: Vec<(i64, i64)>,
    /// How much the sequence grew there (`> 0`: the single run is new) or
    /// shrank (`< 0`: at the single run's site); 0 for updates.
    pub grew: i64,
    /// Sequence length after the edit.
    pub n: i64,
    /// The batch ops this edit stands for, as indexes into the batch.
    pub ops: Range<usize>,
}

impl Edit {
    /// The runs of raw positions the rules read to patch views whose
    /// windows reach at most `reach = l + h` positions: every changed run
    /// widened by `reach` on both sides — through to the end of the
    /// sequence when `to_end` (a cumulative view re-sums its suffix) —
    /// clipped to `1..=n` and merged.
    pub fn raw_reads(&self, reach: i64, to_end: bool) -> Vec<(i64, i64)> {
        let hi = |b: i64| {
            if to_end {
                self.n
            } else {
                (b + reach).min(self.n)
            }
        };
        merged(self.runs.iter().map(|&(a, b)| ((a - reach).max(1), hi(b))))
    }
}

/// What one rule did to one view: the stored positions whose value changed
/// (ascending, disjoint, inside the view's new extent — what a mirror of
/// the sequence has to rewrite) and the work it took.
pub(crate) type Patch = (Vec<(i64, i64)>, MaintenanceStats);

/// Patch a simple view's sequence in place for `edit`, reading the edited
/// raw sequence through `raw`. Cannot fail: the caller has validated the
/// edit and the extent ([`check_extent`]) before anything was written.
pub(crate) fn patch_view(data: &mut ViewData, raw: &RawWindow, edit: &Edit) -> Patch {
    match data {
        ViewData::Sum(seq) => patch_sum(seq, raw, edit),
        // The raw values the interval's windows reach, gathered once.
        ViewData::MinMax(seq) => {
            let (l, h, max) = (seq.l(), seq.h(), seq.is_max());
            patch_sliding((l, h), seq.parts_mut(), edit, |cells, lo| {
                let first = (lo - l).max(1);
                let last = (lo + cells.len() as i64 - 1 + h).min(edit.n);
                let vals: Vec<f64> = (first..=last).map(|p| raw.at(p)).collect();
                roll_extrema(cells, lo, (l, h), (first, &vals), max);
            })
        }
        // Every `c̃_i` from the first changed position on holds a changed
        // value: the running sum restarts there and runs to the end.
        ViewData::CumulativeSum(seq) => {
            let a = edit.runs.first().map_or(edit.n + 1, |r| r.0);
            seq.restart_at(a, (a..=edit.n).map(|p| raw.at(p)));
            let stats = MaintenanceStats {
                recomputed: (edit.n - a + 1).max(0) as usize,
                shifted: 0,
                coalesced: edit.ops.len().saturating_sub(1),
            };
            (merged([(a, edit.n)]), stats)
        }
        // §6 reporting functions are rematerialized, never patched.
        ViewData::PartitionedSum(_) => Patch::default(),
    }
}

/// The sliding-window rule shared by SUM and MIN/MAX. The stored vector is
/// spliced where the sequence grew or shrank (positions behind the edit
/// keep their values and move), each run `(a, b)` marks the stored
/// positions `a−h ..= b+l` — the windows that contain a changed raw value —
/// overlapping marks merge, and `recompute(cells, lo)` fills the cells of
/// one merged interval starting at position `lo`.
fn patch_sliding<T: Clone + Default>(
    (l, h): (i64, i64),
    (n, values): (&mut i64, &mut Vec<T>),
    edit: &Edit,
    mut recompute: impl FnMut(&mut [T], i64),
) -> Patch {
    let (first, last) = (1 - h, edit.n + l);
    let site = edit.runs.first().map_or(1, |r| r.0);
    // Old position `site + l` is the first whose window lies wholly behind
    // the edit: it and its successors move by `grew`.
    let at = (site + l - first) as usize;
    if edit.grew > 0 {
        values.splice(at..at, vec![T::default(); edit.grew as usize]);
    } else if edit.grew < 0 {
        values.drain(at..at + (-edit.grew) as usize);
    }
    *n = edit.n;
    let marks = edit
        .runs
        .iter()
        .map(|&(a, b)| ((a - h).max(first), (b + l).min(last)));
    let mut intervals = merged(marks);
    let mut stats = MaintenanceStats {
        coalesced: edit.ops.len().saturating_sub(intervals.len().max(1)),
        ..MaintenanceStats::default()
    };
    for &(lo, hi) in &intervals {
        recompute(
            &mut values[(lo - first) as usize..=(hi - first) as usize],
            lo,
        );
        stats.recomputed += (hi - lo + 1) as usize;
    }
    if edit.grew != 0 {
        // Everything from the edit's neighbourhood to the end changed place.
        intervals = merged([((site - h).max(first), last)]);
        let moved: i64 = intervals.iter().map(|(lo, hi)| hi - lo + 1).sum();
        stats.shifted = moved as usize - stats.recomputed;
    }
    (intervals, stats)
}

fn patch_sum(seq: &mut CompleteSequence, raw: &RawWindow, edit: &Edit) -> Patch {
    let (l, h) = (seq.l(), seq.h());
    patch_sliding((l, h), seq.parts_mut(), edit, |cells, lo| {
        roll_sums(cells, lo, (l, h), |p| raw.at(p))
    })
}

fn check_pos(what: &str, k: i64, max: i64) -> Result<()> {
    if (1..=max).contains(&k) {
        return Ok(());
    }
    Err(RfvError::execution(format!(
        "{what} position {k} out of range 1..={max}"
    )))
}

/// Apply the §2.3 **update rule**: raw value at position `k` becomes
/// `new_val`. Both the raw data and the materialized view are updated.
pub fn update(
    seq: &mut CompleteSequence,
    raw: &mut Vec<f64>,
    k: i64,
    new_val: f64,
) -> Result<MaintenanceStats> {
    MaintBatch::from_iter([BatchOp::Update { k, val: new_val }]).apply(seq, raw)
}

/// Apply the §2.3 **insert rule**: a new raw value is inserted *at*
/// position `k` (`1 ≤ k ≤ n+1`); existing positions `≥ k` shift right.
pub fn insert(
    seq: &mut CompleteSequence,
    raw: &mut Vec<f64>,
    k: i64,
    val: f64,
) -> Result<MaintenanceStats> {
    MaintBatch::from_iter([BatchOp::Insert { k, val }]).apply(seq, raw)
}

/// Apply the §2.3 **delete rule**: the raw value at position `k` is
/// removed; positions `> k` shift left. Returns the removed value.
pub fn delete(
    seq: &mut CompleteSequence,
    raw: &mut Vec<f64>,
    k: i64,
) -> Result<(f64, MaintenanceStats)> {
    let removed = usize::try_from(k - 1)
        .ok()
        .and_then(|i| raw.get(i).copied());
    let stats = MaintBatch::from_iter([BatchOp::Delete { k }]).apply(seq, raw)?;
    Ok((removed.expect("apply validated the position"), stats))
}

/// One entry in a [`MaintBatch`]. Positions use **sequential semantics**:
/// each op sees the sequence as left by the ops before it in the batch
/// (an `Insert { k: n + 1 }` followed by `Insert { k: n + 2 }` is an
/// append run of two).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchOp {
    /// Replace the raw value at position `k`.
    Update { k: i64, val: f64 },
    /// Insert a raw value at position `k`, shifting positions `≥ k` right.
    Insert { k: i64, val: f64 },
    /// Remove the raw value at position `k`, shifting positions `> k` left.
    Delete { k: i64 },
}

/// A coalesced run of INSERT/UPDATE/DELETE deltas against one base
/// sequence. Instead of paying one §2.3 maintenance pass per row, the
/// batch turns into as few `Edit`s as its shape allows and each
/// materialized view is patched **once per contiguous delta region**.
#[derive(Debug, Clone, Default)]
pub struct MaintBatch {
    ops: Vec<BatchOp>,
}

impl FromIterator<BatchOp> for MaintBatch {
    fn from_iter<I: IntoIterator<Item = BatchOp>>(ops: I) -> Self {
        MaintBatch {
            ops: ops.into_iter().collect(),
        }
    }
}

impl MaintBatch {
    pub fn new() -> Self {
        MaintBatch::default()
    }

    pub fn push(&mut self, op: BatchOp) {
        self.ops.push(op);
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub fn ops(&self) -> &[BatchOp] {
        &self.ops
    }

    /// True when every op appends at the successive tail positions
    /// `n+1 ..= n+m` of a sequence currently holding `n` rows — the shape
    /// bulk loads take, and the one with the cheapest batched plan.
    pub fn is_append_run(&self, n: i64) -> bool {
        let at_tail = |(j, op): (usize, &BatchOp)| matches!(op, BatchOp::Insert { k, .. } if *k == n + 1 + j as i64);
        !self.ops.is_empty() && self.ops.iter().enumerate().all(at_tail)
    }

    fn is_update_set(&self) -> bool {
        (self.ops.iter()).all(|op| matches!(op, BatchOp::Update { .. }))
    }

    /// True when the batch will coalesce into one edit rather than fall
    /// back to per-op application.
    pub fn coalesces(&self, n: i64) -> bool {
        self.is_update_set() || self.is_append_run(n)
    }

    /// Validate every op's position against sequential semantics without
    /// touching any data — callers use this to reject a bad batch *before*
    /// mutating anything, so base and views succeed or fail together.
    /// Returns the largest length the sequence reaches on the way.
    pub fn validate(&self, n: i64) -> Result<i64> {
        let (mut sim_n, mut peak) = (n, n);
        for op in &self.ops {
            match *op {
                BatchOp::Update { k, .. } => check_pos("update", k, sim_n)?,
                BatchOp::Insert { k, .. } => {
                    check_pos("insert", k, sim_n + 1)?;
                    sim_n += 1;
                }
                BatchOp::Delete { k } => {
                    check_pos("delete", k, sim_n)?;
                    sim_n -= 1;
                }
            }
            peak = peak.max(sim_n);
        }
        Ok(peak)
    }

    /// The batch as [`Edit`]s against a sequence of `n` values, to be
    /// applied in order: one for an append run (`m + l + h` positions
    /// recomputed per view) or an update set (the runs are the updated
    /// positions, the last value wins, and each view merges the overlapping
    /// `[k−h, k+l]` neighbourhoods); one per op for interleaved edits, where
    /// positions shift under later ops and coalescing would be unsound. The
    /// batch must [`validate`](Self::validate) at `n`.
    pub(crate) fn edits(&self, n: i64) -> Vec<Edit> {
        let m = self.ops.len();
        if self.is_append_run(n) {
            return vec![Edit {
                runs: vec![(n + 1, n + m as i64)],
                grew: m as i64,
                n: n + m as i64,
                ops: 0..m,
            }];
        }
        if m > 0 && self.is_update_set() {
            let updated: BTreeSet<i64> = (self.ops.iter())
                .filter_map(|op| match op {
                    BatchOp::Update { k, .. } => Some(*k),
                    _ => None,
                })
                .collect();
            return vec![Edit {
                runs: merged(updated.into_iter().map(|k| (k, k))),
                grew: 0,
                n,
                ops: 0..m,
            }];
        }
        let mut len = n;
        let edit = |(i, op): (usize, &BatchOp)| {
            let (run, grew) = match *op {
                BatchOp::Update { k, .. } => ((k, k), 0),
                BatchOp::Insert { k, .. } => ((k, k), 1),
                BatchOp::Delete { k } => ((k, k - 1), -1),
            };
            len += grew;
            Edit {
                runs: vec![run],
                grew,
                n: len,
                ops: i..i + 1,
            }
        };
        self.ops.iter().enumerate().map(edit).collect()
    }

    /// Apply the whole batch to one materialized sequence and its raw
    /// data. Equivalent to applying each op through
    /// [`update`]/[`insert`]/[`delete`] in order (exactly so for integer
    /// data; within float tolerance otherwise), but touches each affected
    /// window region once per batch instead of once per row. A batch that
    /// does not validate changes nothing.
    pub fn apply(
        &self,
        seq: &mut CompleteSequence,
        raw: &mut Vec<f64>,
    ) -> Result<MaintenanceStats> {
        let n = raw.len() as i64;
        check_extent(self.validate(n)?, seq.l(), seq.h())?;
        let mut stats = MaintenanceStats::default();
        for edit in self.edits(n) {
            for op in &self.ops[edit.ops.clone()] {
                match *op {
                    BatchOp::Update { k, val } => raw[(k - 1) as usize] = val,
                    BatchOp::Insert { k, val } => raw.insert((k - 1) as usize, val),
                    BatchOp::Delete { k } => {
                        raw.remove((k - 1) as usize);
                    }
                }
            }
            stats.merge(patch_sum(seq, &RawWindow::whole(raw), &edit).1);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_testkit::{check, gen, SeqOp};

    /// An append run of `vals`, as the batch it is.
    fn append_bulk(
        seq: &mut CompleteSequence,
        raw: &mut Vec<f64>,
        vals: &[f64],
    ) -> Result<MaintenanceStats> {
        let tail = raw.len() as i64 + 1..;
        let batch: MaintBatch = (tail.zip(vals))
            .map(|(k, &val)| BatchOp::Insert { k, val })
            .collect();
        batch.apply(seq, raw)
    }

    /// An update set of `(position, value)` pairs, as the batch it is.
    fn update_bulk(
        seq: &mut CompleteSequence,
        raw: &mut Vec<f64>,
        updates: &[(i64, f64)],
    ) -> Result<MaintenanceStats> {
        let batch: MaintBatch = (updates.iter())
            .map(|&(k, val)| BatchOp::Update { k, val })
            .collect();
        batch.apply(seq, raw)
    }

    fn assert_consistent(seq: &CompleteSequence, raw: &[f64]) {
        let fresh = CompleteSequence::materialize(raw, seq.l(), seq.h()).unwrap();
        for k in seq.first_pos()..=seq.last_pos() {
            assert!(
                (seq.get(k) - fresh.get(k)).abs() < 1e-6,
                "position {k}: incremental {} vs recomputed {}",
                seq.get(k),
                fresh.get(k)
            );
        }
        assert_eq!(seq.n(), fresh.n());
        assert_eq!(seq.last_pos(), fresh.last_pos());
    }

    #[test]
    fn update_is_local_and_correct() {
        let mut raw = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut seq = CompleteSequence::materialize(&raw, 2, 1).unwrap();
        let stats = update(&mut seq, &mut raw, 3, 10.0).unwrap();
        assert_consistent(&seq, &raw);
        // w = l + h + 1 = 4 positions touched.
        assert_eq!(stats.recomputed, 4);
        assert_eq!(stats.shifted, 0);
    }

    #[test]
    fn update_at_boundaries() {
        let mut raw = vec![1.0, 2.0, 3.0];
        let mut seq = CompleteSequence::materialize(&raw, 1, 1).unwrap();
        update(&mut seq, &mut raw, 1, -5.0).unwrap();
        assert_consistent(&seq, &raw);
        update(&mut seq, &mut raw, 3, 7.0).unwrap();
        assert_consistent(&seq, &raw);
    }

    #[test]
    fn update_out_of_range_errors() {
        let mut raw = vec![1.0];
        let mut seq = CompleteSequence::materialize(&raw, 1, 1).unwrap();
        assert!(update(&mut seq, &mut raw, 0, 1.0).is_err());
        assert!(update(&mut seq, &mut raw, 2, 1.0).is_err());
    }

    #[test]
    fn insert_in_middle() {
        let mut raw = vec![1.0, 2.0, 3.0, 4.0];
        let mut seq = CompleteSequence::materialize(&raw, 2, 1).unwrap();
        let stats = insert(&mut seq, &mut raw, 3, 99.0).unwrap();
        assert_eq!(raw, vec![1.0, 2.0, 99.0, 3.0, 4.0]);
        assert_consistent(&seq, &raw);
        assert_eq!(stats.recomputed as i64, seq.window_size());
    }

    #[test]
    fn insert_at_both_ends() {
        let mut raw = vec![5.0, 6.0];
        let mut seq = CompleteSequence::materialize(&raw, 1, 2).unwrap();
        insert(&mut seq, &mut raw, 1, 4.0).unwrap();
        assert_consistent(&seq, &raw);
        insert(&mut seq, &mut raw, 4, 7.0).unwrap();
        assert_eq!(raw, vec![4.0, 5.0, 6.0, 7.0]);
        assert_consistent(&seq, &raw);
    }

    #[test]
    fn delete_returns_removed_value() {
        let mut raw = vec![1.0, 2.0, 3.0];
        let mut seq = CompleteSequence::materialize(&raw, 1, 1).unwrap();
        let (removed, _) = delete(&mut seq, &mut raw, 2).unwrap();
        assert_eq!(removed, 2.0);
        assert_eq!(raw, vec![1.0, 3.0]);
        assert_consistent(&seq, &raw);
    }

    #[test]
    fn delete_until_empty() {
        let mut raw = vec![1.0, 2.0];
        let mut seq = CompleteSequence::materialize(&raw, 1, 1).unwrap();
        delete(&mut seq, &mut raw, 1).unwrap();
        delete(&mut seq, &mut raw, 1).unwrap();
        assert_eq!(seq.n(), 0);
        assert_consistent(&seq, &raw);
        assert!(delete(&mut seq, &mut raw, 1).is_err());
    }

    /// Differential test (§2.3): a random UPDATE/INSERT/DELETE stream,
    /// checking the incrementally-maintained view against a full
    /// recomputation from the raw data after *every* operation.
    #[test]
    fn random_operation_sequences_stay_consistent() {
        check(
            "random_operation_sequences_stay_consistent",
            |rng| {
                let initial = gen::int_values(1, 20)(rng);
                let ops = gen::seq_ops(25)(rng);
                let (l, h) = gen::window(4)(rng);
                (initial, ops, l, h)
            },
            |&(ref initial, ref ops, l, h)| {
                let mut raw = initial.clone();
                let mut seq = CompleteSequence::materialize(&raw, l, h).unwrap();
                for op in ops {
                    let n = raw.len() as i64;
                    match *op {
                        SeqOp::Update { pos_seed, val } if n > 0 => {
                            let k = 1 + (pos_seed as i64 % n);
                            update(&mut seq, &mut raw, k, val).unwrap();
                        }
                        SeqOp::Insert { pos_seed, val } => {
                            let k = 1 + (pos_seed as i64 % (n + 1));
                            insert(&mut seq, &mut raw, k, val).unwrap();
                        }
                        SeqOp::Delete { pos_seed } if n > 0 => {
                            let k = 1 + (pos_seed as i64 % n);
                            delete(&mut seq, &mut raw, k).unwrap();
                        }
                        _ => {}
                    }
                    assert_consistent(&seq, &raw);
                }
            },
        );
    }

    /// The locality claim: update touches exactly
    /// min(k+l, n+l) − max(k−h, 1−h) + 1 ≤ w positions.
    #[test]
    fn update_work_is_bounded_by_window_size() {
        check(
            "update_work_is_bounded_by_window_size",
            |rng| {
                let n = rng.i64_in(1, 29);
                let k = 1 + rng.i64_in(0, 29) % n;
                let (l, h) = gen::window(4)(rng);
                (n, k, l, h)
            },
            |&(n, k, l, h)| {
                if k < 1 || k > n {
                    return; // shrinker broke the position invariant
                }
                let mut raw: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let mut seq = CompleteSequence::materialize(&raw, l, h).unwrap();
                let stats = update(&mut seq, &mut raw, k, 42.0).unwrap();
                assert!(stats.recomputed as i64 <= seq.window_size());
            },
        );
    }

    /// Apply `ops` one at a time through the per-op rules — the oracle the
    /// batched path must agree with.
    fn apply_row_at_a_time(
        seq: &mut CompleteSequence,
        raw: &mut Vec<f64>,
        ops: &[BatchOp],
    ) -> MaintenanceStats {
        let mut stats = MaintenanceStats::default();
        for op in ops {
            match *op {
                BatchOp::Update { k, val } => stats.merge(update(seq, raw, k, val).unwrap()),
                BatchOp::Insert { k, val } => stats.merge(insert(seq, raw, k, val).unwrap()),
                BatchOp::Delete { k } => stats.merge(delete(seq, raw, k).unwrap().1),
            }
        }
        stats
    }

    #[test]
    fn batch_append_run_is_one_pass_and_correct() {
        let mut raw = vec![1.0, 2.0, 3.0];
        let mut seq = CompleteSequence::materialize(&raw, 2, 1).unwrap();
        let mut batch = MaintBatch::new();
        for (j, v) in [10.0, 20.0, 30.0, 40.0].iter().enumerate() {
            batch.push(BatchOp::Insert {
                k: 4 + j as i64,
                val: *v,
            });
        }
        let stats = batch.apply(&mut seq, &mut raw).unwrap();
        assert_eq!(raw, vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 40.0]);
        assert_consistent(&seq, &raw);
        // m + l + h = 4 + 2 + 1 recomputed, nothing shifted, m−1 coalesced.
        assert_eq!(stats.recomputed, 7);
        assert_eq!(stats.shifted, 0);
        assert_eq!(stats.coalesced, 3);
    }

    #[test]
    fn batch_append_beats_row_at_a_time_on_work() {
        let raw0: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        let vals: Vec<f64> = (1..=20).map(|i| -(i as f64)).collect();
        let (l, h) = (3, 2);

        let mut raw_batch = raw0.clone();
        let mut seq_batch = CompleteSequence::materialize(&raw_batch, l, h).unwrap();
        let batch_stats = append_bulk(&mut seq_batch, &mut raw_batch, &vals).unwrap();

        let mut raw_row = raw0.clone();
        let mut seq_row = CompleteSequence::materialize(&raw_row, l, h).unwrap();
        let ops: Vec<BatchOp> = vals
            .iter()
            .enumerate()
            .map(|(j, v)| BatchOp::Insert {
                k: 51 + j as i64,
                val: *v,
            })
            .collect();
        let row_stats = apply_row_at_a_time(&mut seq_row, &mut raw_row, &ops);

        assert_eq!(raw_batch, raw_row);
        assert_consistent(&seq_batch, &raw_batch);
        assert_consistent(&seq_row, &raw_row);
        // 20 + 3 + 2 = 25 batched vs 20·(3+2+1) = 120 row-at-a-time.
        assert_eq!(batch_stats.recomputed, 25);
        assert_eq!(row_stats.recomputed, 120);
        assert!(batch_stats.recomputed < row_stats.recomputed);
    }

    #[test]
    fn batch_update_set_merges_overlapping_neighbourhoods() {
        let mut raw: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let mut seq = CompleteSequence::materialize(&raw, 1, 1).unwrap();
        let mut batch = MaintBatch::new();
        // Positions 5 and 6 overlap ([4,6] and [5,7] merge); 15 is far
        // away; 5 updated twice (last wins).
        batch.push(BatchOp::Update { k: 5, val: 100.0 });
        batch.push(BatchOp::Update { k: 15, val: -3.0 });
        batch.push(BatchOp::Update { k: 6, val: 200.0 });
        batch.push(BatchOp::Update { k: 5, val: 300.0 });
        let stats = batch.apply(&mut seq, &mut raw).unwrap();
        assert_eq!(raw[4], 300.0);
        assert_eq!(raw[5], 200.0);
        assert_eq!(raw[14], -3.0);
        assert_consistent(&seq, &raw);
        // Two merged intervals ([4,7] and [14,16]) from four ops.
        assert_eq!(stats.recomputed, 4 + 3);
        assert_eq!(stats.coalesced, 2);
    }

    #[test]
    fn batch_interleaved_edits_fall_back_to_per_op_rules() {
        let raw0 = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let ops = vec![
            BatchOp::Insert { k: 2, val: 9.0 },
            BatchOp::Delete { k: 4 },
            BatchOp::Update { k: 1, val: 7.0 },
        ];
        let mut batch = MaintBatch::new();
        for op in &ops {
            batch.push(*op);
        }

        let mut raw_batch = raw0.clone();
        let mut seq_batch = CompleteSequence::materialize(&raw_batch, 2, 1).unwrap();
        let stats = batch.apply(&mut seq_batch, &mut raw_batch).unwrap();

        let mut raw_row = raw0.clone();
        let mut seq_row = CompleteSequence::materialize(&raw_row, 2, 1).unwrap();
        apply_row_at_a_time(&mut seq_row, &mut raw_row, &ops);

        assert_eq!(raw_batch, raw_row);
        assert_consistent(&seq_batch, &raw_batch);
        // Fallback coalesces nothing.
        assert_eq!(stats.coalesced, 0);
    }

    #[test]
    fn batch_errors_leave_position_validation_intact() {
        let mut raw = vec![1.0, 2.0];
        let mut seq = CompleteSequence::materialize(&raw, 1, 1).unwrap();
        let mut batch = MaintBatch::new();
        batch.push(BatchOp::Update { k: 9, val: 0.0 });
        batch.push(BatchOp::Delete { k: 1 });
        assert!(batch.apply(&mut seq, &mut raw).is_err());
        assert!(update_bulk(&mut seq, &mut raw, &[(0, 1.0)]).is_err());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut raw = vec![1.0, 2.0];
        let mut seq = CompleteSequence::materialize(&raw, 1, 1).unwrap();
        let stats = MaintBatch::new().apply(&mut seq, &mut raw).unwrap();
        assert_eq!(stats, MaintenanceStats::default());
        assert_eq!(append_bulk(&mut seq, &mut raw, &[]).unwrap().recomputed, 0);
        assert_consistent(&seq, &raw);
    }

    /// Differential property: for a random batch, the batched path, the
    /// row-at-a-time path, and a full rematerialization all agree.
    #[test]
    fn random_batches_match_row_at_a_time_and_remat() {
        check(
            "random_batches_match_row_at_a_time_and_remat",
            |rng| {
                let initial = gen::int_values(0, 15)(rng);
                let ops = gen::seq_ops(12)(rng);
                let (l, h) = gen::window(3)(rng);
                // Bias towards the coalescible shapes half the time.
                let shape = rng.i64_in(0, 2);
                (initial, ops, l, h, shape)
            },
            |&(ref initial, ref ops, l, h, shape)| {
                let mut raw_row = initial.clone();
                let mut batch = MaintBatch::new();
                {
                    // Resolve the generated ops into concrete in-range
                    // positions with sequential semantics.
                    let mut n = raw_row.len() as i64;
                    for op in ops {
                        match *op {
                            SeqOp::Update { pos_seed, val } if n > 0 && shape != 0 => {
                                let k = 1 + (pos_seed as i64 % n);
                                batch.push(BatchOp::Update { k, val });
                            }
                            SeqOp::Insert { pos_seed, val } => {
                                let k = if shape == 0 {
                                    n + 1 // force an append run
                                } else {
                                    1 + (pos_seed as i64 % (n + 1))
                                };
                                batch.push(BatchOp::Insert { k, val });
                                n += 1;
                            }
                            SeqOp::Delete { pos_seed } if n > 0 && shape == 2 => {
                                let k = 1 + (pos_seed as i64 % n);
                                batch.push(BatchOp::Delete { k });
                                n -= 1;
                            }
                            _ => {}
                        }
                    }
                }

                let mut raw_batch = raw_row.clone();
                let mut seq_batch = CompleteSequence::materialize(&raw_batch, l, h).unwrap();
                let batch_stats = batch.apply(&mut seq_batch, &mut raw_batch).unwrap();

                let mut seq_row = CompleteSequence::materialize(&raw_row, l, h).unwrap();
                apply_row_at_a_time(&mut seq_row, &mut raw_row, batch.ops());

                assert_eq!(raw_batch, raw_row, "raw data diverged");
                assert_consistent(&seq_batch, &raw_batch);
                for k in seq_batch.first_pos()..=seq_batch.last_pos() {
                    assert!(
                        (seq_batch.get(k) - seq_row.get(k)).abs() < 1e-6,
                        "position {k}: batched {} vs row-at-a-time {}",
                        seq_batch.get(k),
                        seq_row.get(k)
                    );
                }
                // Coalescing never exceeds ops − 1 passes worth of credit.
                assert!(batch_stats.coalesced < batch.len().max(1));
            },
        );
    }
}
