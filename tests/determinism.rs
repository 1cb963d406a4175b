//! The determinism matrix. ParaHash hands each partition to whichever
//! processor is idle, so it is correct only if every way of running it
//! writes the same bytes. Each row below names one way — entry point,
//! roster, CPU threads, partition and table budgets, worker processes and
//! their transfer mode, failpoint spec — and must reproduce one in-process
//! reference run (two-phase `run`, CPU-only, no budgets): its graph,
//! every `sub-*.dbg` byte, and the outcome its journal records. A new
//! axis is a row. The rows, their corpus and their check live in
//! [`matrix`]; `wide_word_determinism.rs` runs the entry-point rows again
//! past the 32-base word.

mod common;
#[macro_use]
mod matrix;

use common::{DELAY, DROP, GARBLE};
use matrix::*;

/// Worker 1 dies on its first lease, or holds it in silence for eight
/// times its idle deadline — 100 ms heartbeats, eviction after 600 ms,
/// and the finished build kills it.
const KILL_WORKER_1: &str = "shard.worker1.lease=abort@1";
const STALL_WORKER_1: &str = "shard.worker1.lease=io-error@1";
const STALL_DEADLINES: Env =
    &[("PARAHASH_SHARD_HEARTBEAT_MS", "100"), ("PARAHASH_SHARD_TIMEOUT_MS", "600")];

entry_rows!();

rows! {
    // Out-of-core Step 2: a table budget that sub-splits every partition,
    // both handoffs.
    split_run_t1: Row { threads: 1, ..BASE }.split(),
    split_run_t4: Row { threads: 4, ..BASE }.split(),
    split_run_t8: Row { threads: 8, ..BASE }.split(),
    split_fused_t1: Row { entry: Fused, threads: 1, ..BASE }.split(),
    split_fused_t4: Row { entry: Fused, threads: 4, ..BASE }.split(),
    split_fused_t8: Row { entry: Fused, threads: 8, ..BASE }.split(),

    // Step 2 on worker processes in either transfer mode, with and without
    // splitting inside the workers.
    shard_fs_w1: sharded(Fs, 1),
    shard_fs_w2: sharded(Fs, 2),
    shard_fs_w4: sharded(Fs, 4),
    shard_fs_w2_split: sharded(Fs, 2).split(),
    shard_wire_w1: sharded(Wire, 1),
    shard_wire_w2: sharded(Wire, 2),
    shard_wire_w4: sharded(Wire, 4),
    shard_wire_w2_split: sharded(Wire, 2).split(),
    shard_wire_w1_64k: sharded(Wire, 1).table_budget(64 << 10),
    shard_wire_w2_64k: sharded(Wire, 2).table_budget(64 << 10),
    shard_wire_w4_64k: sharded(Wire, 4).table_budget(64 << 10),

    // A worker lost on its first lease — dead, or evicted as hung — costs
    // a re-lease, never a byte.
    kill_fs_w2: sharded(Fs, 2).failpoints(KILL_WORKER_1, &[]),
    kill_wire_w2: sharded(Wire, 2).failpoints(KILL_WORKER_1, &[]),
    stall_fs_w2: sharded(Fs, 2).failpoints(STALL_WORKER_1, STALL_DEADLINES),

    // Dropped frames cost a reconnect, delayed ones a wait, garbled ones
    // die at the CRC and cost their lease no attempt — never the result:
    // every row completes.
    drop_fs_w1: sharded(Fs, 1).net(DROP),
    drop_fs_w2: sharded(Fs, 2).net(DROP),
    drop_fs_w4: sharded(Fs, 4).net(DROP),
    drop_fs_w2_split: sharded(Fs, 2).split().net(DROP),
    drop_wire_w1: sharded(Wire, 1).net(DROP),
    drop_wire_w2: sharded(Wire, 2).net(DROP),
    drop_wire_w4: sharded(Wire, 4).net(DROP),
    drop_wire_w2_split: sharded(Wire, 2).split().net(DROP),
    delay_fs_w1: sharded(Fs, 1).net(DELAY),
    delay_fs_w2: sharded(Fs, 2).net(DELAY),
    delay_fs_w4: sharded(Fs, 4).net(DELAY),
    delay_fs_w2_split: sharded(Fs, 2).split().net(DELAY),
    delay_wire_w1: sharded(Wire, 1).net(DELAY),
    delay_wire_w2: sharded(Wire, 2).net(DELAY),
    delay_wire_w4: sharded(Wire, 4).net(DELAY),
    delay_wire_w2_split: sharded(Wire, 2).split().net(DELAY),
    garble_fs_w1: sharded(Fs, 1).net(GARBLE),
    garble_fs_w2: sharded(Fs, 2).net(GARBLE),
    garble_fs_w4: sharded(Fs, 4).net(GARBLE),
    garble_fs_w2_split: sharded(Fs, 2).split().net(GARBLE),
    garble_wire_w1: sharded(Wire, 1).net(GARBLE),
    garble_wire_w2: sharded(Wire, 2).net(GARBLE),
    garble_wire_w4: sharded(Wire, 4).net(GARBLE),
    garble_wire_w2_split: sharded(Wire, 2).split().net(GARBLE),
}
