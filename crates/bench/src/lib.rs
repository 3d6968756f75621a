//! # deltacfs-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! DeltaCFS paper's evaluation (§IV) and the design-choice ablations.
//! Each experiment is a plain function returning structured rows, which
//! the `repro` binary (`cargo run -p deltacfs-bench --release --bin repro
//! -- all`) prints as paper-style tables and `repro check` turns into
//! pass/fail claims.
//!
//! Absolute numbers differ from the paper (different hardware, simulated
//! substrate); the claims that reproduce are the *shapes*: who wins, by
//! roughly what factor, and where the crossovers fall. `EXPERIMENTS.md`
//! at the repository root records paper-vs-measured for every row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod experiments;
pub mod table;
