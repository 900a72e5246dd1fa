//! Query planning: binder (AST → logical plan), logical optimizer, and
//! physical planner (logical plan → executable operators, with index-aware
//! join selection — the knob the paper's Table 1 turns).

mod binder;
mod logical;
mod optimizer;
mod physical_planner;

pub use binder::Binder;
pub use logical::LogicalPlan;
pub use optimizer::optimize;
pub use physical_planner::{plan_physical, PhysicalPlanner, WindowSources};
