//! # kpbench
//!
//! The repository's benchmark: three workloads generated from a seed, run
//! through the layers' public entry points with every output checked, and
//! a traced run that attributes time to each layer. See `README.md` in this
//! directory for how to run it and read its output.

pub mod engine;
pub mod inputs;
pub mod measure;
pub mod service;
pub mod sys;
pub mod trace;
