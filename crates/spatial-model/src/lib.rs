//! # Spatial Computer Model simulator
//!
//! This crate implements the machine abstraction used throughout the paper
//! *Energy-Optimal and Low-Depth Algorithmic Primitives for Spatial Dataflow
//! Architectures* (Gianinazzi et al., IPDPS 2025): an unbounded number of
//! processing elements (PEs) with constant-sized memory arranged on a
//! Cartesian 2D grid. Sending a message from PE `(i, j)` to PE `(x, y)` has
//! distance `|x - i| + |y - j|` (Manhattan metric). Three cost metrics are
//! tracked **exactly** while algorithms execute on real data:
//!
//! * **energy** — the sum of the distances of all messages sent (total
//!   network load);
//! * **depth** — the longest chain of dependent messages (a measure of
//!   parallelism);
//! * **distance** — the largest total distance along any chain of dependent
//!   messages (wire latency of the critical path).
//!
//! Because each metric obeys a simple DAG recurrence
//! (`depth(v) = 1 + max(depth(deps))`,
//! `distance(v) = len(edge) + max(distance(deps))`), every value carries its
//! own critical [`Path`] and the machine keeps a global watermark, so the
//! reported numbers are the exact model costs of the executed message DAG,
//! not estimates.
//!
//! ## Quick example
//!
//! ```
//! use spatial_model::{Machine, Coord};
//!
//! let mut m = Machine::new();
//! let a = m.place(Coord::new(0, 0), 5i64);
//! let b = m.place(Coord::new(3, 4), 7i64);
//! // Move `b` next to `a` (one message of distance 3 + 4 = 7)…
//! let b_moved = m.send_owned(b, Coord::new(0, 0));
//! // …and combine the two locally (local compute is free in the model).
//! let sum = a.zip_with(&b_moved, |x, y| x + y);
//! assert_eq!(*sum.value(), 12);
//! assert_eq!(m.report().energy, 7);
//! assert_eq!(m.report().depth, 1);
//! assert_eq!(sum.path().distance, 7);
//! ```

pub mod batch;
pub mod cancel;
pub mod coord;
pub mod cost;
pub mod error;
pub mod fault;
pub mod grid;
pub mod guard;
pub mod kernels;
pub mod machine;
pub mod memory;
pub mod path;
pub mod profile;
pub mod svg;
pub mod trace;
pub mod value;
pub mod zorder;

pub use batch::BatchPattern;
pub use cancel::CancelToken;
pub use coord::Coord;
pub use cost::Cost;
pub use error::{BudgetMetric, SpatialError};
pub use fault::{FaultPlan, FaultPlanBuilder};
pub use grid::SubGrid;
pub use guard::ModelGuard;
pub use machine::Machine;
pub use memory::MemMeter;
pub use path::Path;
pub use profile::{
    builtin_profiles, profile_by_name, CostProfile, ModelExact, ProfileError, ProfileWeights,
    ProfiledCost, SimtLike, SystolicLike, WseLike,
};
pub use trace::{MsgRecord, Trace};
pub use value::Tracked;

/// Compile-time thread-safety audit.
///
/// The supervised batch runner moves whole simulations across worker
/// threads: a [`Machine`] (with its fault state, guard, meters and trace)
/// is constructed on one thread, driven there, and its results shipped
/// back. These assertions make that soundness a property checked by the
/// compiler on every build — adding a non-`Send` field (an `Rc`, a raw
/// pointer, a thread-local handle) to any of these types fails compilation
/// here, not at 2 a.m. in a runner deadlock.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Machine>();
    assert_send::<Cost>();
    // The profile handle is a `&'static dyn CostProfile` (the trait requires
    // `Sync`), so a profiled machine still crosses worker threads freely.
    assert_send::<ProfiledCost>();
    assert_send_sync::<profile::ProfileHandle>();
    assert_send::<FaultPlan>();
    assert_send::<SpatialError>();
    assert_send::<ModelGuard>();
    assert_send::<MemMeter>();
    assert_send::<Trace>();
    assert_send::<Tracked<i64>>();
    // The token crosses threads by design (watchdog on one side, machine on
    // the other), so it must be fully shareable.
    assert_send_sync::<CancelToken>();
};
