//! The determinism matrix's entry-point rows past the 32-base word. The
//! narrow rows of `determinism.rs` take every single-word fast path; a
//! build at k > 32 takes the multi-word canonical cursor and replay
//! instead, and one at p > 32 the deque minimizer scan and brute-force
//! split routing. Production keeps those paths for exactly these
//! lengths, so they must hold under every entry point, roster, thread
//! count and partition budget the narrow rows do: each row reproduces
//! the reference run at its own k and p, which equals
//! `baselines::reference_graph` (see [`matrix`]).

mod common;
#[macro_use]
mod matrix;

use matrix::*;

/// k = 33: the first width past one word, under the single-word
/// minimizer scan.
mod k33 {
    use super::*;
    entry_rows!(.at(33, P));
}

/// k = 40, p = 33: both lengths past one word, so a minimizer window
/// holds eight k-mers.
mod k40_p33 {
    use super::*;
    entry_rows!(.at(40, 33));
}
