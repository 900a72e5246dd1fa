//! Physical operators.
//!
//! The executor is deliberately a *materializing* engine: every operator
//! consumes fully materialized child output and produces a `Vec<Row>`.
//! That matches what the paper's experiments measure — plan shape
//! (self join with/without an index, disjunctive vs. union predicates,
//! native window operator) dominates runtime, not pipelining overheads.
//!
//! The window operator ([`physical::PhysicalPlan::Window`]) implements the
//! paper's reporting functions natively with two evaluation strategies:
//! the naive per-row scan of the frame and the pipelined incremental
//! evaluation of §2.2 (`x̃_k = x̃_{k−1} + x_{k+h} − x_{k−l−1}`), plus a
//! monotonic-deque evaluator for MIN/MAX which the paper classifies as
//! non-retractable.

mod aggregate;
mod filter;
mod join;
mod mem;
pub mod opmetrics;
pub mod physical;
mod scan;
pub mod sched;
pub mod window;

pub use filter::OrderFound;
pub use opmetrics::{ExecCounters, ExecProbe, OpMetrics};
pub use physical::{JoinType, PhysicalPlan, SortKey};
pub use sched::{ParStats, SchedMetrics, WorkerStat, DEFAULT_PARALLEL_THRESHOLD};
pub use window::{
    FrameBound, SequenceSource, SequenceSources, WindowExprSpec, WindowFrame, WindowFuncKind,
    WindowMode, MAX_FRAME_OFFSET,
};
