use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hetsim::Device;
use parking_lot::Mutex;

use crate::{CancelToken, SharedCounterQueue};

/// Which pipeline stage a [`Span`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Stage 1: reading/parsing an input partition.
    Input,
    /// Stage 2: a device consuming a partition and producing an output.
    Compute,
    /// Stage 3: formatting/writing an output partition.
    Output,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Input => write!(f, "input"),
            Stage::Compute => write!(f, "compute"),
            Stage::Output => write!(f, "output"),
        }
    }
}

/// One timed event on the pipeline's timeline (offsets are relative to
/// the run start). The full span list reconstructs the paper's Fig 5
/// "time line for pipelined co-processing".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Which stage the event belongs to.
    pub stage: Stage,
    /// Worker identity: `"io"` for the input/output threads, the device
    /// name for compute.
    pub worker: String,
    /// Partition index the event processed.
    pub partition: usize,
    /// Offset of the event start from the run start.
    pub start: Duration,
    /// Offset of the event end from the run start.
    pub end: Duration,
}

/// How much of a run one device ended up doing — the raw material of the
/// paper's Fig 11 (workload distribution follows processing speed).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceShare {
    /// Device name.
    pub name: String,
    /// Partitions this device claimed and processed.
    pub partitions: usize,
    /// Work units inside those partitions (reads in Step 1, k-mers in
    /// Step 2) as reported by the process callback.
    pub work_units: u64,
    /// Wall-clock the device spent in its compute callback (including its
    /// metered transfers).
    pub busy: Duration,
}

/// Timing summary of one pipelined run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// End-to-end wall-clock of the run.
    pub elapsed: Duration,
    /// Time the input stage spent producing partitions.
    pub input_time: Duration,
    /// Time the output stage spent consuming results.
    pub output_time: Duration,
    /// Per-device shares, in the order devices were passed.
    pub shares: Vec<DeviceShare>,
    /// Partitions processed in total.
    pub partitions: usize,
    /// Timeline of every stage event, for Fig-5-style visualisation.
    pub spans: Vec<Span>,
    /// Whether the run was cancelled before all partitions flowed through
    /// (fail-fast abort). When `true`, stage counts are partial.
    pub cancelled: bool,
}

impl PipelineReport {
    /// Total work units across devices.
    pub fn total_work(&self) -> u64 {
        self.shares.iter().map(|s| s.work_units).sum()
    }

    /// Fraction of the work each device did (parallel to `shares`).
    pub fn work_fractions(&self) -> Vec<f64> {
        let total = self.total_work().max(1) as f64;
        self.shares.iter().map(|s| s.work_units as f64 / total).collect()
    }

    /// The *ideal* fractions if work were split exactly proportionally to
    /// measured per-device speed (work_units / busy seconds) — the dotted
    /// line of Fig 11's right panel.
    pub fn ideal_fractions(&self) -> Vec<f64> {
        let speeds: Vec<f64> = self
            .shares
            .iter()
            .map(|s| {
                let secs = s.busy.as_secs_f64();
                if secs == 0.0 {
                    0.0
                } else {
                    s.work_units as f64 / secs
                }
            })
            .collect();
        let total: f64 = speeds.iter().sum();
        if total == 0.0 {
            return vec![0.0; speeds.len()];
        }
        speeds.iter().map(|s| s / total).collect()
    }
}

/// Every queue a run can block on, plus the run's cancel token. Each
/// stage thread holds one: [`close_if_cancelled`](Self::close_if_cancelled)
/// is how the first observer of the token releases all blocked peers
/// (the upstream feeder included), and dropping it during a panic unwind
/// does the same after latching the token — so a dying stage drains the
/// run instead of deadlocking it, and the thread scope's join then
/// re-propagates the panic.
struct Shutdown<'a, T, I, O> {
    feed: &'a SharedCounterQueue<T>,
    work: &'a SharedCounterQueue<I>,
    done: &'a SharedCounterQueue<O>,
    cancel: &'a CancelToken,
}

impl<T, I, O> Shutdown<'_, T, I, O> {
    fn close_if_cancelled(&self) {
        if self.cancel.is_cancelled() {
            self.feed.close();
            self.work.close();
            self.done.close();
        }
    }
}

impl<T, I, O> Drop for Shutdown<'_, T, I, O> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.cancel.cancel();
            self.close_if_cancelled();
        }
    }
}

/// The paper's three-stage pipeline (§III-E) — the one scheduler both
/// ParaHash steps, in every mode, run through:
///
/// * an **input thread** pops work descriptors from `feed` and drives
///   `produce(t) -> (partition_index, input)` (stage 1: disk read +
///   parse);
/// * **one driver thread per device** claims inputs and runs
///   `process(device, index, input) -> (output, work_units)` (stage 2);
///   work units feed the Fig 11 accounting;
/// * the **calling thread** claims results in completion order and runs
///   `consume(index, output)` (stage 3: format + disk write).
///
/// **The feed.** Its capacity is an *upper bound* on the stream length.
/// A batch run hands over [`SharedCounterQueue::filled`]; a streaming run
/// may push descriptors while the pipeline is already consuming earlier
/// ones, then call [`SharedCounterQueue::finish`]. Either way the input stage drains the
/// feed and finishes its own queues, and the last driver out finishes the
/// output queue, so the run ends without knowing the stream length up
/// front. [`PipelineReport::partitions`] counts the items consumed.
///
/// **Dispatch.** Every driver pops the one work queue, so an idle
/// processor simply claims more often — the paper's dynamic work stealing
/// (Fig 11): the split follows relative speed by construction. "Don't
/// offload" is a roster without a GPU.
///
/// **Cancellation.** Any thread may call [`CancelToken::cancel`]
/// (typically a stage callback that hit a fatal error). Every stage
/// checks the token at its loop boundary; the first to observe it closes
/// the feed and every internal queue, so the upstream feeder is released
/// too. Remaining partitions are abandoned and the report has
/// [`PipelineReport::cancelled`] set.
///
/// # Panics
///
/// Panics if `devices` is empty or if any stage callback panics (after
/// releasing every blocked thread, the feeder included).
pub fn run_pipeline<T, I, O, FP, FC, FO>(
    feed: &SharedCounterQueue<T>,
    devices: &[Arc<dyn Device>],
    cancel: &CancelToken,
    mut produce: FP,
    process: FC,
    mut consume: FO,
) -> PipelineReport
where
    T: Send,
    I: Send,
    O: Send,
    FP: FnMut(T) -> (usize, I) + Send,
    FC: Fn(&dyn Device, usize, I) -> (O, u64) + Sync,
    FO: FnMut(usize, O),
{
    assert!(!devices.is_empty(), "co-processing needs at least one device");
    let started = Instant::now();
    let bound = feed.capacity();
    let work: SharedCounterQueue<(usize, I)> = SharedCounterQueue::new(bound);
    let done: SharedCounterQueue<(usize, O, usize, u64, Duration)> = SharedCounterQueue::new(bound);
    let shutdown = || Shutdown { feed, work: &work, done: &done, cancel };

    let spans: Mutex<Vec<Span>> = Mutex::new(Vec::with_capacity(3 * bound));
    let record = |stage: Stage, worker: &str, partition: usize, t0: Instant| {
        spans.lock().push(Span {
            stage,
            worker: worker.to_owned(),
            partition,
            start: t0 - started,
            end: started.elapsed(),
        });
    };

    let mut input_time = Duration::ZERO;
    let mut output_time = Duration::ZERO;
    let mut shares: Vec<DeviceShare> = devices
        .iter()
        .map(|d| DeviceShare { name: d.name().to_owned(), partitions: 0, work_units: 0, busy: Duration::ZERO })
        .collect();
    let mut consumed = 0usize;
    // Drivers still running; the last one out finishes the output queue.
    let active = AtomicUsize::new(devices.len());

    std::thread::scope(|s| {
        let (work, done, active, record, process) = (&work, &done, &active, &record, &process);

        // Stage 1: input, fed by the upstream queue.
        let input = s.spawn(move || {
            let shutdown = shutdown();
            let mut spent = Duration::ZERO;
            while !cancel.is_cancelled() {
                let Some(t) = feed.pop() else { break };
                let t0 = Instant::now();
                let (index, item) = produce(t);
                spent += t0.elapsed();
                record(Stage::Input, "io", index, t0);
                work.push((index, item));
            }
            // Graceful: published items drain, blocked drivers wake.
            work.finish();
            shutdown.close_if_cancelled();
            spent
        });

        // Stage 2: one driver per device, all claiming from the one queue.
        for (dev_idx, device) in devices.iter().enumerate() {
            s.spawn(move || {
                let shutdown = shutdown();
                while !cancel.is_cancelled() {
                    let Some((index, item)) = work.pop() else { break };
                    if cancel.is_cancelled() {
                        break;
                    }
                    let t0 = Instant::now();
                    let (output, units) = process(device.as_ref(), index, item);
                    let busy = t0.elapsed();
                    record(Stage::Compute, device.name(), index, t0);
                    done.push((index, output, dev_idx, units, busy));
                }
                if active.fetch_sub(1, Ordering::AcqRel) == 1 {
                    done.finish();
                }
                shutdown.close_if_cancelled();
            });
        }

        // Stage 3: output, on this thread (the scope owner).
        let shutdown = shutdown();
        while let Some((index, output, dev_idx, units, busy)) = done.pop() {
            let t0 = Instant::now();
            consume(index, output);
            output_time += t0.elapsed();
            record(Stage::Output, "io", index, t0);
            let share = &mut shares[dev_idx];
            share.partitions += 1;
            share.work_units += units;
            share.busy += busy;
            consumed += 1;
            if cancel.is_cancelled() {
                break;
            }
        }
        shutdown.close_if_cancelled();
        input_time = input.join().expect("input stage panicked");
    });

    let mut spans = spans.into_inner();
    spans.sort_by_key(|s| s.start);
    PipelineReport {
        elapsed: started.elapsed(),
        input_time,
        output_time,
        shares,
        partitions: consumed,
        spans,
        cancelled: cancel.is_cancelled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{CpuDevice, SimGpuConfig, SimGpuDevice, TransferModel};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn cpu() -> Arc<dyn Device> {
        Arc::new(CpuDevice::new("cpu0"))
    }

    fn slow_gpu(cost_us: u64) -> Arc<dyn Device> {
        Arc::new(SimGpuDevice::new(
            "gpu0",
            SimGpuConfig {
                sm_count: 2,
                warp_size: 4,
                transfer: TransferModel::instant(),
                compute_cost_per_item: Duration::from_micros(cost_us),
                ..Default::default()
            },
        ))
    }

    /// How the work descriptors reach the pipeline.
    #[derive(Debug, Clone, Copy)]
    enum Feed {
        /// A batch: `SharedCounterQueue::filled`, finished before the run.
        Filled,
        /// Pushed by an upstream thread while the pipeline is already
        /// running — the fused-mode shape.
        Concurrent,
        /// Finished well short of the feed's capacity.
        Short,
        /// Finished with nothing in it.
        Empty,
    }

    const FEEDS: [Feed; 4] = [Feed::Filled, Feed::Concurrent, Feed::Short, Feed::Empty];
    /// Items in every non-empty feed.
    const N: usize = 24;

    impl Feed {
        fn items(self) -> usize {
            if matches!(self, Feed::Empty) { 0 } else { N }
        }

        /// Builds the feed and runs `body` against it. A `Concurrent`
        /// feeder that does not `finish` never ends the stream on its
        /// own: only the pipeline closing the feed (cancel or panic) can
        /// release whoever pops it.
        fn with<R>(self, finish: bool, body: impl FnOnce(&SharedCounterQueue<usize>) -> R) -> R {
            match self {
                Feed::Filled => body(&SharedCounterQueue::filled(0..N)),
                Feed::Empty => body(&SharedCounterQueue::filled(0..0)),
                Feed::Short => {
                    let feed = SharedCounterQueue::new(N + 40);
                    for i in 0..N {
                        feed.push(i);
                    }
                    feed.finish();
                    body(&feed)
                }
                Feed::Concurrent => {
                    let feed = Arc::new(SharedCounterQueue::new(N));
                    let feeder = std::thread::spawn({
                        let feed = Arc::clone(&feed);
                        move || {
                            for i in 0..N {
                                std::thread::sleep(Duration::from_micros(100));
                                feed.push(i);
                            }
                            if finish {
                                feed.finish();
                            }
                        }
                    });
                    let ran = body(&feed);
                    feeder.join().expect("feeder panicked");
                    ran
                }
            }
        }
    }

    /// Which callback misbehaves, and how.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        None,
        CancelInProcess,
        CancelInConsume,
        PanicInProduce,
        PanicInProcess,
        PanicInConsume,
    }

    struct Ran {
        report: PipelineReport,
        /// `(index, output)` pairs the output stage saw.
        seen: Vec<(usize, usize)>,
        processed: usize,
        feed_closed: bool,
    }

    /// One run of one table cell over `[cpu, gpu]`: every stage sleeps
    /// `stage`, produce maps `i -> i * 10`, process adds one, and `fault`
    /// fires on the first item its stage handles.
    fn run_cell(feed: Feed, fault: Fault, stage: Duration) -> Ran {
        let cancel = CancelToken::new();
        let seen = Mutex::new(Vec::new());
        let processed = AtomicUsize::new(0);
        let (report, feed_closed) = feed.with(fault == Fault::None, |queue| {
            let report = run_pipeline(
                queue,
                &[cpu(), slow_gpu(0)],
                &cancel,
                |i| {
                    assert!(fault != Fault::PanicInProduce, "injected input panic");
                    std::thread::sleep(stage);
                    (i, i * 10)
                },
                |_, _, v| {
                    assert!(fault != Fault::PanicInProcess, "injected compute panic");
                    processed.fetch_add(1, Ordering::Relaxed);
                    if fault == Fault::CancelInProcess {
                        cancel.cancel();
                    }
                    std::thread::sleep(stage);
                    (v + 1, 1u64)
                },
                |idx, out| {
                    assert!(fault != Fault::PanicInConsume, "injected output panic");
                    if fault == Fault::CancelInConsume {
                        cancel.cancel();
                    }
                    std::thread::sleep(stage);
                    seen.lock().push((idx, out));
                },
            );
            (report, queue.is_closed())
        });
        Ran { report, seen: seen.into_inner(), processed: processed.into_inner(), feed_closed }
    }

    /// The whole scheduler contract, checked once per feed shape.
    #[test]
    fn every_feed_shape_honours_the_contract() {
        for feed in FEEDS {
            let cell = format!("{feed:?}");
            let n = feed.items();
            clean_run(feed, n, &cell);
            if n == 0 {
                continue; // nothing flows, so no callback can misbehave
            }
            for fault in [Fault::CancelInProcess, Fault::CancelInConsume] {
                let ran = run_cell(feed, fault, Duration::from_micros(200));
                assert!(ran.report.cancelled, "{cell} {fault:?}");
                assert!(ran.feed_closed, "{cell} {fault:?}: cancel must release the feeder");
                assert!(ran.processed < n, "{cell} {fault:?}: processed {}", ran.processed);
                assert!(ran.seen.len() < n, "{cell} {fault:?}: consumed {}", ran.seen.len());
            }
            for fault in [Fault::PanicInProduce, Fault::PanicInProcess, Fault::PanicInConsume] {
                let result = catch_unwind(AssertUnwindSafe(|| run_cell(feed, fault, Duration::ZERO)));
                assert!(result.is_err(), "{cell} {fault:?} must propagate, not hang");
            }
        }
    }

    fn clean_run(feed: Feed, n: usize, cell: &str) {
        let Ran { report, mut seen, .. } = run_cell(feed, Fault::None, Duration::from_millis(1));

        // Every item consumed exactly once, with the right output.
        seen.sort_unstable();
        assert_eq!(seen, (0..n).map(|i| (i, i * 10 + 1)).collect::<Vec<_>>(), "{cell}");
        assert_eq!(report.partitions, n, "{cell}");
        assert_eq!(report.total_work(), n as u64, "{cell}");
        assert!(!report.cancelled, "{cell}");

        // Both devices pop the one queue, so both steal.
        let claimed: Vec<usize> = report.shares.iter().map(|s| s.partitions).collect();
        assert_eq!(claimed.iter().sum::<usize>(), n, "{cell}");
        assert!(n == 0 || claimed.iter().all(|&c| c > 0), "{cell}: both steal: {claimed:?}");

        // Spans: every stage saw every partition once, in causal order,
        // inside the run window.
        for stage in [Stage::Input, Stage::Compute, Stage::Output] {
            let mut parts: Vec<usize> =
                report.spans.iter().filter(|s| s.stage == stage).map(|s| s.partition).collect();
            parts.sort_unstable();
            assert_eq!(parts, (0..n).collect::<Vec<_>>(), "{cell} stage {stage}");
        }
        for s in &report.spans {
            assert!(s.end >= s.start, "{cell}");
            assert!(s.end <= report.elapsed + Duration::from_millis(5), "{cell}");
        }
        for i in 0..n {
            let at = |stage: Stage| {
                report.spans.iter().find(|s| s.stage == stage && s.partition == i).unwrap()
            };
            assert!(at(Stage::Input).end <= at(Stage::Compute).end, "{cell}");
            assert!(at(Stage::Compute).end <= at(Stage::Output).end, "{cell}");
        }

        // Input, compute and output overlap: the run is well under the
        // sum of its stages (the Fig 12 comparison).
        let stages: Duration = report.input_time
            + report.output_time
            + report.shares.iter().map(|s| s.busy).sum::<Duration>();
        assert!(
            n == 0 || report.elapsed < stages.mul_f64(0.75),
            "{cell}: pipelined {:?} vs stage sum {stages:?}",
            report.elapsed
        );
    }

    #[test]
    fn faster_device_claims_more() {
        // CPU processes instantly; GPU pays 2 ms per item (4 items/partition).
        let report = run_pipeline(
            &SharedCounterQueue::filled(0..24usize),
            &[cpu(), slow_gpu(2000)],
            &CancelToken::new(),
            |i| (i, i),
            |d, _, v| {
                d.execute(4, &|_| {});
                (v, 4u64)
            },
            |_, _| {},
        );
        let cpu_share = &report.shares[0];
        let gpu_share = &report.shares[1];
        assert!(
            cpu_share.partitions > gpu_share.partitions,
            "work stealing should favour the fast device: cpu={} gpu={}",
            cpu_share.partitions,
            gpu_share.partitions
        );
    }

    #[test]
    fn work_fractions_sum_to_one() {
        let report = run_pipeline(
            &SharedCounterQueue::filled(0..10usize),
            &[cpu(), cpu()],
            &CancelToken::new(),
            |i| (i, i),
            |_, _, v| (v, 3u64),
            |_, _| {},
        );
        let fracs = report.work_fractions();
        assert!((fracs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let ideal = report.ideal_fractions();
        assert_eq!(ideal.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn no_devices_panics() {
        run_pipeline(
            &SharedCounterQueue::filled(0..1usize),
            &[],
            &CancelToken::new(),
            |i| (i, i),
            |_, _, v: usize| (v, 0u64),
            |_, _| {},
        );
    }
}
