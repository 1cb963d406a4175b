//! `parabench`: the repository's one benchmark. See `README.md` beside
//! this package for the protocol, every metric and workload by name, and
//! the measurements that justify them.

pub mod cli;
pub mod corpus;
pub mod harness;
pub mod host;
pub mod json;
pub mod procfs;
pub mod replay;
pub mod sample;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod traced;
