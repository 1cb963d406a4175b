//! Co-processing and pipelining — §III-E and §IV of the paper.
//!
//! Both ParaHash steps process a stream of partitions through three
//! stages: *input* (disk → memory + parse), *compute* (an idle CPU or GPU
//! consumes one partition and produces one output partition) and *output*
//! (format + memory → disk). This crate provides:
//!
//! * [`SharedCounterQueue`] — the paper's input/output queues built on
//!   shared counters (`srv`/`cns` for the input side, `prd`/`wrt` for the
//!   output side): producers reserve a position with a fetch-add and
//!   publish with a per-slot ready flag; consumers claim queuing ids with
//!   a fetch-add on the head counter.
//! * [`run_pipeline`] — the one scheduler: an input thread drains a feed
//!   queue, one driver thread per [`hetsim::Device`] claims inputs, the
//!   calling thread drains outputs, and all three overlap. Its modes are
//!   arguments, not entry points. The feed is a
//!   [`SharedCounterQueue::filled`] batch or a stream that grows while
//!   the run consumes it. Every
//!   driver pops one shared queue, so faster processors simply claim
//!   more — the dynamic distribution of Fig 11. Fig 12's non-pipelined
//!   baseline is the sum of the report's stage times.
//! * [`CancelToken`] — the fail-fast layer: the first fatal error (or a
//!   stage panic, via the scheduler's drop guard) closes the feed and
//!   every internal queue, so all workers and the upstream feeder drain
//!   promptly instead of grinding through the remaining partitions.
//! * [`ThrottledIo`] — a token-metered byte channel that realises the
//!   paper's two regimes on any machine: unthrottled ≈ the memory-cached
//!   file of Case 1, a bandwidth cap ≈ the disk-bound Case 2.
//! * [`perfmodel`] — Eq. 1 and Eq. 2 estimators used by Fig 13 / Fig 14
//!   and by the step reports, evaluated after a run, never steering one.
//! * [`RetryPolicy`] — bounded retry with exponential backoff for
//!   transient I/O inside [`ThrottledIo`], with a fault-injection hook for
//!   the failure-injection test suite.
//! * [`commit`] — the atomic artifact commit protocol (tmp + fsync +
//!   rename + dir fsync) shared by every durable file the pipeline writes.
//! * [`failpoint`] — deterministic named crash/fault injection sites used
//!   by the crash-recovery suite (see `docs/RECOVERY.md`).
//! * [`crc`] — the one table-driven CRC-32 behind partition frames,
//!   journal records, subgraph trailers and the shard wire frames.

mod cancel;
pub mod commit;
pub mod crc;
pub mod failpoint;
mod io;
pub mod perfmodel;
mod queue;
mod scheduler;
pub mod shard;

pub use cancel::CancelToken;
pub use io::{FaultHook, IoMode, IoOp, RetryPolicy, ThrottledIo};
pub use queue::SharedCounterQueue;
pub use scheduler::{run_pipeline, DeviceShare, PipelineReport, Roster, Seat, Span, Stage};
