//! `tap-bench`: the repo's benchmark of real TAP transfers. See `README.md`
//! beside this crate for what is measured and why.

pub mod adapter;
pub mod alloc;
pub mod bench;
pub mod compare;
pub mod json;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
