//! Physical expression trees and aggregate accumulators.
//!
//! Expressions here are *bound*: column references are positional indexes
//! into the input row, resolved by the planner. Evaluation follows SQL
//! three-valued logic (see `rfv_types::Value` for the arithmetic rules).
//!
//! The aggregate module provides the SUM/COUNT/AVG/MIN/MAX accumulators the
//! paper builds on (§2.1 fixes `F_A` to these), including *retractable*
//! accumulators used by the pipelined sliding-window evaluator (§2.2).

pub mod agg;
mod expr;
mod fold;

pub use agg::{Accumulator, AggFunc, AvgAcc, CountAcc, RetractAccumulator, SumAcc, TypedRetract};
pub use expr::{BinaryOp, Expr, ScalarFn, UnaryOp};
pub use fold::fold_constants;
