//! Incremental maintenance of materialized sequence data (§2.3).
//!
//! A materialized sliding-window view must be synchronized when the base
//! sequence changes. The paper gives per-operation rules showing that the
//! changes stay *local*: with window size `w = l + h + 1`,
//!
//! * **update** at `k` touches the `w` positions `k−h ..= k+l`
//!   (`x̃_i' = x̃_i − x_k + x_k'`);
//! * **insert** at `k` shifts positions `> k` right by one and recomputes
//!   only a `w`-sized neighbourhood around `k`;
//! * **delete** at `k` shifts positions `> k` left and recomputes the same
//!   neighbourhood.
//!
//! Every rule is property-tested against full rematerialization. The
//! functions return [`MaintenanceStats`] so callers (and the ablation
//! bench) can verify the locality claim quantitatively.

use rfv_types::{Result, RfvError};

use crate::sequence::{window_sum, CompleteSequence};

/// How much work a maintenance operation performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceStats {
    /// Positions whose value was recomputed or adjusted arithmetically.
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

/// Apply the §2.3 **update rule**: raw value at position `k` becomes
/// `new_val`. Both the raw data and the materialized view are updated.
pub fn update(
    seq: &mut CompleteSequence,
    raw: &mut [f64],
    k: i64,
    new_val: f64,
) -> Result<MaintenanceStats> {
    let n = raw.len() as i64;
    if !(1..=n).contains(&k) {
        return Err(RfvError::execution(format!(
            "update position {k} out of range 1..={n}"
        )));
    }
    let old = raw[(k - 1) as usize];
    raw[(k - 1) as usize] = new_val;
    let delta = new_val - old;
    let (l, h) = (seq.l(), seq.h());
    // Affected view positions: those whose window [i−l, i+h] contains k,
    // i.e. i ∈ [k−h, k+l] — clipped to the stored range.
    let lo = (k - h).max(seq.first_pos());
    let hi = (k + l).min(seq.last_pos());
    let first = seq.first_pos();
    let values = seq.values_mut();
    for i in lo..=hi {
        values[(i - first) as usize] += delta;
    }
    Ok(MaintenanceStats {
        recomputed: (hi - lo + 1).max(0) as usize,
        shifted: 0,
        coalesced: 0,
    })
}

/// Apply the §2.3 **insert rule**: a new raw value is inserted *at*
/// position `k` (`1 ≤ k ≤ n+1`); existing positions `≥ k` shift right.
pub fn insert(
    seq: &mut CompleteSequence,
    raw: &mut Vec<f64>,
    k: i64,
    val: f64,
) -> Result<MaintenanceStats> {
    let n = raw.len() as i64;
    if !(1..=n + 1).contains(&k) {
        return Err(RfvError::execution(format!(
            "insert position {k} out of range 1..={}",
            n + 1
        )));
    }
    raw.insert((k - 1) as usize, val);
    let new_n = n + 1;
    let (l, h) = (seq.l(), seq.h());
    let first = seq.first_pos(); // unchanged: 1 − h
    let new_last = new_n + l;

    // Build the new value vector:
    //   i < k−h      : x̃_i unchanged,
    //   k−h ≤ i ≤ k+l : recomputed locally over the new raw data,
    //   i > k+l      : x̃'_i = x̃_{i−1} (pure shift).
    let mut values = Vec::with_capacity((new_last - first + 1) as usize);
    let mut stats = MaintenanceStats::default();
    for i in first..=new_last {
        if i < k - h {
            values.push(seq.get(i));
        } else if i <= k + l {
            values.push(window_sum(raw, i - l, i + h));
            stats.recomputed += 1;
        } else {
            values.push(seq.get(i - 1));
            stats.shifted += 1;
        }
    }
    seq.replace(new_n, values);
    Ok(stats)
}

/// Apply the §2.3 **delete rule**: the raw value at position `k` is
/// removed; positions `> k` shift left. Returns the removed value.
pub fn delete(
    seq: &mut CompleteSequence,
    raw: &mut Vec<f64>,
    k: i64,
) -> Result<(f64, MaintenanceStats)> {
    let n = raw.len() as i64;
    if !(1..=n).contains(&k) {
        return Err(RfvError::execution(format!(
            "delete position {k} out of range 1..={n}"
        )));
    }
    let removed = raw.remove((k - 1) as usize);
    let new_n = n - 1;
    let (l, h) = (seq.l(), seq.h());
    let first = seq.first_pos();
    let new_last = new_n + l;

    let mut values = Vec::with_capacity((new_last - first + 1).max(0) as usize);
    let mut stats = MaintenanceStats::default();
    for i in first..=new_last {
        if i < k - h {
            values.push(seq.get(i));
        } else if i <= k + l {
            values.push(window_sum(raw, i - l, i + h));
            stats.recomputed += 1;
        } else {
            values.push(seq.get(i + 1));
            stats.shifted += 1;
        }
    }
    seq.replace(new_n, values);
    Ok((removed, stats))
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

/// How a batch will be applied, decided once per (batch, sequence) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchPlan {
    /// Every op is an `Insert` at the successive tail positions
    /// `n+1 ..= n+m`: one pipelined recompute of `m + l + h` positions.
    AppendRun,
    /// Every op is an `Update` at an existing position: dedup last-wins,
    /// merge the overlapping `[k−h, k+l]` neighbourhoods, one pipelined
    /// recompute per merged interval.
    UpdateSet,
    /// Interleaved mid-sequence edits where coalescing is unsound
    /// (positions shift under later ops): apply the §2.3 per-op rules
    /// sequentially.
    Fallback,
}

/// A coalesced run of INSERT/UPDATE/DELETE deltas against one base
/// sequence. Instead of paying one §2.3 maintenance pass per row, the
/// batch classifies itself (see [`BatchPlan`]) and applies each
/// materialized view's rule **once per contiguous delta region**.
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
        !self.ops.is_empty() && self.classify(n) == BatchPlan::AppendRun
    }

    /// The appended values when the batch [is an append
    /// run](Self::is_append_run) at `n`, `None` otherwise.
    pub fn append_run(&self, n: i64) -> Option<Vec<f64>> {
        self.is_append_run(n).then(|| {
            self.ops
                .iter()
                .filter_map(|op| match op {
                    BatchOp::Insert { val, .. } => Some(*val),
                    _ => None,
                })
                .collect()
        })
    }

    /// True when the batch will coalesce into region passes rather than
    /// fall back to per-op application.
    pub fn coalesces(&self, n: i64) -> bool {
        self.classify(n) != BatchPlan::Fallback
    }

    /// Validate every op's position against sequential semantics without
    /// touching any data — callers use this to reject a bad batch *before*
    /// mutating the base table, so base and views succeed or fail together.
    pub fn validate(&self, n: i64) -> Result<()> {
        let mut sim_n = n;
        for op in &self.ops {
            match *op {
                BatchOp::Update { k, .. } => {
                    if !(1..=sim_n).contains(&k) {
                        return Err(RfvError::execution(format!(
                            "update position {k} out of range 1..={sim_n}"
                        )));
                    }
                }
                BatchOp::Insert { k, .. } => {
                    if !(1..=sim_n + 1).contains(&k) {
                        return Err(RfvError::execution(format!(
                            "insert position {k} out of range 1..={}",
                            sim_n + 1
                        )));
                    }
                    sim_n += 1;
                }
                BatchOp::Delete { k } => {
                    if !(1..=sim_n).contains(&k) {
                        return Err(RfvError::execution(format!(
                            "delete position {k} out of range 1..={sim_n}"
                        )));
                    }
                    sim_n -= 1;
                }
            }
        }
        Ok(())
    }

    fn classify(&self, n: i64) -> BatchPlan {
        let append_run = self
            .ops
            .iter()
            .enumerate()
            .all(|(j, op)| matches!(op, BatchOp::Insert { k, .. } if *k == n + 1 + j as i64));
        if append_run {
            return BatchPlan::AppendRun;
        }
        let update_set = self
            .ops
            .iter()
            .all(|op| matches!(op, BatchOp::Update { k, .. } if (1..=n).contains(k)));
        if update_set {
            BatchPlan::UpdateSet
        } else {
            BatchPlan::Fallback
        }
    }

    /// Apply the whole batch to one materialized sequence and its raw
    /// data. Equivalent to applying each op through
    /// [`update`]/[`insert`]/[`delete`] in order (exactly so for integer
    /// data; within float tolerance otherwise), but touches each affected
    /// window region once per batch instead of once per row.
    pub fn apply(
        &self,
        seq: &mut CompleteSequence,
        raw: &mut Vec<f64>,
    ) -> Result<MaintenanceStats> {
        if self.ops.is_empty() {
            return Ok(MaintenanceStats::default());
        }
        let n = raw.len() as i64;
        match self.classify(n) {
            BatchPlan::AppendRun => append_bulk(seq, raw, &self.append_run(n).unwrap_or_default()),
            BatchPlan::UpdateSet => {
                let updates: Vec<(i64, f64)> = self
                    .ops
                    .iter()
                    .map(|op| match op {
                        BatchOp::Update { k, val } => (*k, *val),
                        _ => unreachable!("UpdateSet contains only updates"),
                    })
                    .collect();
                update_bulk(seq, raw, &updates)
            }
            BatchPlan::Fallback => {
                let mut stats = MaintenanceStats::default();
                for op in &self.ops {
                    match *op {
                        BatchOp::Update { k, val } => {
                            stats.merge(update(seq, raw, k, val)?);
                        }
                        BatchOp::Insert { k, val } => {
                            stats.merge(insert(seq, raw, k, val)?);
                        }
                        BatchOp::Delete { k } => {
                            stats.merge(delete(seq, raw, k)?.1);
                        }
                    }
                }
                Ok(stats)
            }
        }
    }
}

/// Raw value at 1-based position `p`, or 0 outside `1..=n` (the paper's
/// convention for header/trailer windows).
#[inline]
fn raw_at(raw: &[f64], p: i64) -> f64 {
    if p >= 1 && p <= raw.len() as i64 {
        raw[(p - 1) as usize]
    } else {
        0.0
    }
}

/// Batched §2.3 **append rule**: `vals` lands at the tail positions
/// `n+1 ..= n+m`. No stored position shifts (appends only grow the tail),
/// and the only windows that see new data are `[n+1−h, n+m+l]` — one
/// pipelined recompute of `m + l + h` positions per batch, versus
/// `m · (l + h + 1)` position recomputes row-at-a-time.
pub fn append_bulk(
    seq: &mut CompleteSequence,
    raw: &mut Vec<f64>,
    vals: &[f64],
) -> Result<MaintenanceStats> {
    if vals.is_empty() {
        return Ok(MaintenanceStats::default());
    }
    let n = raw.len() as i64;
    let m = vals.len() as i64;
    let (l, h) = (seq.l(), seq.h());
    let first = seq.first_pos();
    let new_n = n + m;
    let new_last = new_n + l;
    if new_last - first + 1 > crate::sequence::MAX_MATERIALIZED_EXTENT {
        return Err(RfvError::derivation(format!(
            "bulk append of {m} rows would grow the ({l},{h}) sequence to \
             {} stored positions (max {})",
            new_last - first + 1,
            crate::sequence::MAX_MATERIALIZED_EXTENT
        )));
    }
    raw.extend_from_slice(vals);

    // Positions below n+1−h never see an appended value; everything from
    // there to the new trailer is recomputed in one pipelined pass, the
    // same sliding recurrence `materialize` uses.
    let lo = (n + 1 - h).max(first);
    let mut values = Vec::with_capacity((new_last - first + 1) as usize);
    for i in first..lo {
        values.push(seq.get(i));
    }
    let mut wsum = window_sum(raw, lo - l, lo + h);
    let mut recomputed = 0usize;
    for i in lo..=new_last {
        values.push(wsum);
        wsum += raw_at(raw, i + 1 + h) - raw_at(raw, i - l);
        recomputed += 1;
    }
    seq.replace(new_n, values);
    Ok(MaintenanceStats {
        recomputed,
        shifted: 0,
        coalesced: (m - 1) as usize,
    })
}

/// Batched §2.3 **update rule**: point updates against existing positions.
/// Duplicate positions dedup last-wins, the affected `[k−h, k+l]`
/// neighbourhoods are merged where they overlap, and each merged interval
/// is recomputed in one pipelined pass.
pub fn update_bulk(
    seq: &mut CompleteSequence,
    raw: &mut [f64],
    updates: &[(i64, f64)],
) -> Result<MaintenanceStats> {
    if updates.is_empty() {
        return Ok(MaintenanceStats::default());
    }
    let n = raw.len() as i64;
    let mut last_wins: std::collections::BTreeMap<i64, f64> = std::collections::BTreeMap::new();
    for &(k, val) in updates {
        if !(1..=n).contains(&k) {
            return Err(RfvError::execution(format!(
                "update position {k} out of range 1..={n}"
            )));
        }
        last_wins.insert(k, val);
    }
    for (&k, &val) in &last_wins {
        raw[(k - 1) as usize] = val;
    }

    let (l, h) = (seq.l(), seq.h());
    let (first, last) = (seq.first_pos(), seq.last_pos());
    // Merge the per-update neighbourhoods [k−h, k+l] (sorted by k, so a
    // single forward sweep suffices) into disjoint recompute intervals.
    let mut intervals: Vec<(i64, i64)> = Vec::new();
    for &k in last_wins.keys() {
        let (lo, hi) = ((k - h).max(first), (k + l).min(last));
        match intervals.last_mut() {
            Some((_, prev_hi)) if lo <= *prev_hi + 1 => *prev_hi = (*prev_hi).max(hi),
            _ => intervals.push((lo, hi)),
        }
    }

    let mut recomputed = 0usize;
    for &(lo, hi) in &intervals {
        let mut wsum = window_sum(raw, lo - l, lo + h);
        for i in lo..=hi {
            let idx = (i - first) as usize;
            seq.values_mut()[idx] = wsum;
            wsum += raw_at(raw, i + 1 + h) - raw_at(raw, i - l);
            recomputed += 1;
        }
    }
    Ok(MaintenanceStats {
        recomputed,
        shifted: 0,
        coalesced: updates.len() - intervals.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_testkit::{check, gen, SeqOp};

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
