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
    work: &'a SharedCounterQueue<(usize, I)>,
    done: &'a SharedCounterQueue<Delivery<O>>,
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

/// One output on its way to the output stage: which seat produced it,
/// the work units it reported and how long it kept the seat busy.
struct Delivery<O> {
    index: usize,
    output: O,
    seat: usize,
    units: u64,
    busy: Duration,
}

/// Who holds a seat: the drivers still claiming, and the name of every
/// seat ever taken, in seat order (the devices first).
struct Seats {
    active: usize,
    /// Whether a driver may still join: false once the work queue
    /// drained, or the last driver left.
    open: bool,
    names: Vec<String>,
}

/// The processors of one pipelined run ([`Roster::run`]): the devices it
/// starts with, one driver thread each, and drivers that
/// [`join`](Roster::join) while it runs — a worker process's connection,
/// say. Every driver claims from the run's one work queue, so a joiner is
/// one more idle processor under the paper's rule (Fig 11), and the last
/// driver out, joiner or device, ends the output stage.
pub struct Roster<'a, I, O> {
    devices: &'a [Arc<dyn Device>],
    cancel: &'a CancelToken,
    started: Instant,
    work: SharedCounterQueue<(usize, I)>,
    done: SharedCounterQueue<Delivery<O>>,
    seats: Mutex<Seats>,
    spans: Mutex<Vec<Span>>,
}

impl<'a, I: Send, O: Send> Roster<'a, I, O> {
    /// The roster of a run of at most `bound` items over `devices`, whose
    /// report times start now.
    pub fn new(devices: &'a [Arc<dyn Device>], cancel: &'a CancelToken, bound: usize) -> Self {
        let names = devices.iter().map(|d| d.name().to_owned()).collect();
        Roster {
            devices,
            cancel,
            started: Instant::now(),
            work: SharedCounterQueue::new(bound),
            done: SharedCounterQueue::new(bound),
            seats: Mutex::new(Seats { active: devices.len(), open: true, names }),
            spans: Mutex::new(Vec::with_capacity(3 * bound)),
        }
    }

    /// A seat for a driver named `name` — before or during the run — or
    /// `None` once the work queue drained, the run was cancelled or every
    /// driver left: there is nothing left to claim. The driver claims and
    /// delivers through the seat; dropping it leaves the roster.
    pub fn join(&self, name: impl Into<String>) -> Option<Seat<'_, 'a, I, O>> {
        let mut seats = self.seats.lock();
        if !seats.open || self.cancel.is_cancelled() {
            return None;
        }
        let name = name.into();
        seats.active += 1;
        seats.names.push(name.clone());
        Some(self.seat(seats.names.len() - 1, name))
    }

    /// The paper's three-stage pipeline (§III-E) — the one scheduler both
    /// ParaHash steps, in every mode, run through:
    ///
    /// * an **input thread** pops work descriptors from `feed` and drives
    ///   `produce(t) -> (partition_index, input)` (stage 1: disk read +
    ///   parse);
    /// * **one driver thread per device** claims inputs and runs
    ///   `process(device, index, input) -> (output, work_units)` (stage 2),
    ///   beside whatever drivers [`join`](Self::join); work units feed the
    ///   Fig 11 accounting;
    /// * the **calling thread** claims results in completion order and runs
    ///   `consume(index, output)` (stage 3: format + disk write).
    ///
    /// **The feed** is full before the run starts
    /// ([`SharedCounterQueue::filled`]). The input stage drains it and
    /// finishes the work queue; the last driver out finishes the output
    /// queue. [`PipelineReport::partitions`] counts the items consumed;
    /// its shares are the devices', in order, then each joiner's. A
    /// roster runs once.
    ///
    /// **Dispatch.** Every driver pops the one work queue, so an idle
    /// processor simply claims more often — the paper's dynamic work
    /// stealing (Fig 11): the split follows relative speed by construction.
    /// "Don't offload" is a roster without a GPU.
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
    /// Panics if the roster has no device, if `feed` holds more than its
    /// bound, or if any stage callback panics (after releasing every
    /// blocked thread, the feeder included).
    pub fn run<T, FP, FC, FO>(
        &self,
        feed: &SharedCounterQueue<T>,
        mut produce: FP,
        process: FC,
        mut consume: FO,
    ) -> PipelineReport
    where
        T: Send,
        FP: FnMut(T) -> (usize, I) + Send,
        FC: Fn(&dyn Device, usize, I) -> (O, u64) + Sync,
        FO: FnMut(usize, O),
    {
        assert!(!self.devices.is_empty(), "co-processing needs at least one device");
        assert!(feed.capacity() <= self.work.capacity(), "the feed outgrows the roster's bound");
        let cancel = self.cancel;
        let shutdown = || Shutdown { feed, work: &self.work, done: &self.done, cancel };
        let mut input_time = Duration::ZERO;
        let mut output_time = Duration::ZERO;
        // Per seat: partitions, work units, busy time.
        let mut tally: Vec<(usize, u64, Duration)> = Vec::new();
        let mut consumed = 0usize;

        std::thread::scope(|s| {
            let process = &process;
            // Stage 1: input, fed by the upstream queue.
            let input = s.spawn(move || {
                let shutdown = shutdown();
                let mut spent = Duration::ZERO;
                while !cancel.is_cancelled() {
                    let Some(t) = feed.pop() else { break };
                    let t0 = Instant::now();
                    let (index, item) = produce(t);
                    spent += t0.elapsed();
                    self.record(Stage::Input, "io", index, t0);
                    self.work.push((index, item));
                }
                // Graceful: published items drain, blocked drivers wake.
                self.work.finish();
                shutdown.close_if_cancelled();
                spent
            });

            // Stage 2: one driver per device, in the seats `new` kept.
            for (index, device) in self.devices.iter().enumerate() {
                let mut seat = self.seat(index, device.name().to_owned());
                s.spawn(move || {
                    let shutdown = shutdown();
                    while let Some((index, item)) = seat.claim() {
                        let (output, units) = process(device.as_ref(), index, item);
                        seat.deliver(index, output, units);
                    }
                    drop(seat);
                    shutdown.close_if_cancelled();
                });
            }

            // Stage 3: output, on this thread (the scope owner).
            let shutdown = shutdown();
            while let Some(Delivery { index, output, seat, units, busy }) = self.done.pop() {
                let t0 = Instant::now();
                consume(index, output);
                output_time += t0.elapsed();
                self.record(Stage::Output, "io", index, t0);
                if tally.len() <= seat {
                    tally.resize(seat + 1, (0, 0, Duration::ZERO));
                }
                let (partitions, work_units, spent) = &mut tally[seat];
                *partitions += 1;
                *work_units += units;
                *spent += busy;
                consumed += 1;
                if cancel.is_cancelled() {
                    break;
                }
            }
            shutdown.close_if_cancelled();
            input_time = input.join().expect("input stage panicked");
        });

        let mut spans = std::mem::take(&mut *self.spans.lock());
        spans.sort_by_key(|s| s.start);
        let names = self.seats.lock().names.clone();
        tally.resize(names.len(), (0, 0, Duration::ZERO));
        let shares = names
            .into_iter()
            .zip(tally)
            .map(|(name, (partitions, work_units, busy))| DeviceShare { name, partitions, work_units, busy })
            .collect();
        PipelineReport {
            elapsed: self.started.elapsed(),
            input_time,
            output_time,
            shares,
            partitions: consumed,
            spans,
            cancelled: cancel.is_cancelled(),
        }
    }
}

impl<'a, I, O> Roster<'a, I, O> {
    fn seat(&self, index: usize, name: String) -> Seat<'_, 'a, I, O> {
        Seat { roster: self, index, name, claimed_at: Instant::now() }
    }

    fn record(&self, stage: Stage, worker: &str, partition: usize, t0: Instant) {
        self.spans.lock().push(Span {
            stage,
            worker: worker.to_owned(),
            partition,
            start: t0 - self.started,
            end: self.started.elapsed(),
        });
    }
}

/// A driver's place on a [`Roster`]: it [`claim`](Seat::claim)s the next
/// item of the run's work queue and [`deliver`](Seat::deliver)s its output
/// to the output stage. Dropping the seat leaves the roster; the last
/// driver out finishes the output queue — also when it leaves because the
/// run was cancelled, or unwinds from a panic, which cancels the run.
pub struct Seat<'r, 'a, I, O> {
    roster: &'r Roster<'a, I, O>,
    index: usize,
    name: String,
    claimed_at: Instant,
}

impl<I, O> Seat<'_, '_, I, O> {
    /// The next item, or `None` once the work queue drained or the run
    /// was cancelled.
    pub fn claim(&mut self) -> Option<(usize, I)> {
        let roster = self.roster;
        if roster.cancel.is_cancelled() {
            return None;
        }
        let Some(item) = roster.work.pop() else {
            roster.seats.lock().open = false;
            return None;
        };
        if roster.cancel.is_cancelled() {
            return None;
        }
        self.claimed_at = Instant::now();
        Some(item)
    }

    /// Hands the output of item `index` — the last one claimed — to the
    /// output stage, with the work units it took.
    pub fn deliver(&mut self, index: usize, output: O, units: u64) {
        let roster = self.roster;
        let busy = self.claimed_at.elapsed();
        roster.record(Stage::Compute, &self.name, index, self.claimed_at);
        roster.done.push(Delivery { index, output, seat: self.index, units, busy });
    }
}

impl<I, O> Drop for Seat<'_, '_, I, O> {
    fn drop(&mut self) {
        let roster = self.roster;
        if std::thread::panicking() {
            roster.cancel.cancel();
        }
        if roster.cancel.is_cancelled() {
            roster.work.close();
            roster.done.close();
        }
        let mut seats = roster.seats.lock();
        seats.active -= 1;
        if seats.active == 0 {
            seats.open = false;
            roster.done.finish();
        }
    }
}

/// [`Roster::run`] over `devices` alone: the run nothing joins.
///
/// # Panics
///
/// As [`Roster::run`].
pub fn run_pipeline<T, I, O, FP, FC, FO>(
    feed: &SharedCounterQueue<T>,
    devices: &[Arc<dyn Device>],
    cancel: &CancelToken,
    produce: FP,
    process: FC,
    consume: FO,
) -> PipelineReport
where
    T: Send,
    I: Send,
    O: Send,
    FP: FnMut(T) -> (usize, I) + Send,
    FC: Fn(&dyn Device, usize, I) -> (O, u64) + Sync,
    FO: FnMut(usize, O),
{
    Roster::new(devices, cancel, feed.capacity()).run(feed, produce, process, consume)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{CpuDevice, SimGpuConfig, SimGpuDevice, TransferModel};
    use std::sync::atomic::{AtomicUsize, Ordering};
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

    /// How the work descriptors reach the pipeline: always full before
    /// the run starts.
    #[derive(Debug, Clone, Copy)]
    enum Feed {
        /// A batch: `SharedCounterQueue::filled`.
        Filled,
        /// Finished well short of the feed's capacity.
        Short,
        /// Finished with nothing in it.
        Empty,
    }

    const FEEDS: [Feed; 3] = [Feed::Filled, Feed::Short, Feed::Empty];
    /// Items in every non-empty feed.
    const N: usize = 24;

    impl Feed {
        fn items(self) -> usize {
            if matches!(self, Feed::Empty) { 0 } else { N }
        }

        fn queue(self) -> SharedCounterQueue<usize> {
            match self {
                Feed::Filled => SharedCounterQueue::filled(0..N),
                Feed::Empty => SharedCounterQueue::filled(0..0),
                Feed::Short => {
                    let feed = SharedCounterQueue::new(N + 40);
                    for i in 0..N {
                        feed.push(i);
                    }
                    feed.finish();
                    feed
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
        let queue = feed.queue();
        let report = run_pipeline(
            &queue,
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
        let feed_closed = queue.is_closed();
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
    /// A roster of one CPU over `0..n`, and a scope in which `side` plays
    /// a driver that joins it: `run`'s report, and what `side` returned.
    /// The device's first item waits at `gate` twice — for `side` to
    /// arrive, then for it to pass its second `gate.wait()` — so `side`
    /// acts mid-run, before the device can drain the queue.
    fn with_joiner<R: Send>(
        n: usize,
        gate: &std::sync::Barrier,
        side: impl FnOnce(&Roster<'_, usize, usize>) -> R + Send,
    ) -> (PipelineReport, R) {
        let (devices, cancel) = ([cpu()], CancelToken::new());
        let roster = Roster::new(&devices, &cancel, n);
        let feed = SharedCounterQueue::filled(0..n);
        let first = std::sync::atomic::AtomicBool::new(true);
        std::thread::scope(|s| {
            let joiner = s.spawn(|| side(&roster));
            let report = roster.run(
                &feed,
                |i| (i, i),
                |_, _, v| {
                    if first.swap(false, Ordering::Relaxed) {
                        gate.wait();
                        gate.wait();
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    (v + 1, 1)
                },
                |_, _| {},
            );
            (report, joiner.join().expect("the joiner panicked"))
        })
    }

    /// A driver that joins once the run is under way claims from the same
    /// queue: every item is consumed once, and the joiner's share — listed
    /// after the devices' — holds what it claimed.
    #[test]
    fn a_device_that_joins_mid_run_claims_work() {
        let gate = std::sync::Barrier::new(2);
        let (report, claimed) = with_joiner(N, &gate, |roster| {
            gate.wait();
            let mut seat = roster.join("late").expect("the device holds the queue open");
            gate.wait();
            let mut claimed = 0;
            while let Some((index, v)) = seat.claim() {
                seat.deliver(index, v + 1, 1);
                claimed += 1;
            }
            claimed
        });
        assert!(claimed > 0, "the joiner claimed nothing");
        assert_eq!(report.partitions, N);
        let names: Vec<&str> = report.shares.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["cpu0", "late"]);
        assert_eq!(report.shares[1].partitions, claimed);
        assert_eq!(report.total_work(), N as u64);
        let late = report.spans.iter().filter(|s| s.stage == Stage::Compute && s.worker == "late");
        assert_eq!(late.count(), claimed, "a compute span per item the joiner delivered");
    }

    /// A driver may leave after one item: the devices build the rest, and
    /// nothing is lost or built twice.
    #[test]
    fn a_device_that_leaves_after_one_item() {
        let gate = std::sync::Barrier::new(2);
        let (report, ()) = with_joiner(N, &gate, |roster| {
            gate.wait();
            let mut seat = roster.join("brief").unwrap();
            gate.wait();
            let (index, v) = seat.claim().expect("the device holds all but its first item back");
            seat.deliver(index, v + 1, 1);
        });
        assert_eq!(report.partitions, N);
        assert_eq!(report.shares.iter().map(|s| s.partitions).collect::<Vec<_>>(), [N - 1, 1]);
        assert!(!report.cancelled);
    }

    /// Once the work queue drained — here, after the run — a join is
    /// refused: the driver has nothing to claim and must say `finished`.
    #[test]
    fn a_join_after_the_queue_drained_is_refused() {
        let (devices, cancel) = ([cpu()], CancelToken::new());
        let roster: Roster<'_, usize, usize> = Roster::new(&devices, &cancel, 4);
        let report = roster.run(&SharedCounterQueue::filled(0..4), |i| (i, i), |_, _, v| (v, 1), |_, _| {});
        assert_eq!(report.partitions, 4);
        assert!(roster.join("too late").is_none());
    }

    /// The last driver out finishes the output queue whichever way it
    /// leaves: a joiner that holds one item while the device drains the
    /// rest, and leaves once the output stage consumed them by cancelling
    /// the run — or by panicking — still ends it, and a panic cancels it.
    #[test]
    fn the_last_driver_out_finishes_the_output_under_cancel_and_panic() {
        for panics in [false, true] {
            let (devices, cancel) = ([cpu()], CancelToken::new());
            let roster: Roster<'_, usize, usize> = Roster::new(&devices, &cancel, N);
            let feed = SharedCounterQueue::filled(0..N);
            let held = std::sync::Barrier::new(2);
            let drained = std::sync::Barrier::new(2);
            let first = std::sync::atomic::AtomicBool::new(true);
            let ran = catch_unwind(AssertUnwindSafe(|| {
                std::thread::scope(|s| {
                    s.spawn(|| {
                        let mut seat = roster.join("last").unwrap();
                        let claimed = seat.claim();
                        held.wait();
                        // Once the output stage consumed the device's items.
                        drained.wait();
                        assert!(claimed.is_some() && !panics, "injected joiner panic");
                        cancel.cancel();
                    });
                    let mut consumed = 0;
                    let report = roster.run(
                        &feed,
                        |i| (i, i),
                        |_, _, v| {
                            // The device's first item waits for the joiner's.
                            if first.swap(false, Ordering::Relaxed) {
                                held.wait();
                            }
                            (v, 1)
                        },
                        |_, _| {
                            consumed += 1;
                            if consumed == N - 1 {
                                drained.wait();
                            }
                        },
                    );
                    assert!(report.cancelled, "panics={panics}");
                    assert_eq!(report.partitions, N - 1, "panics={panics}: the joiner's item is lost");
                })
            }));
            assert_eq!(ran.is_err(), panics, "a joiner's panic propagates");
            assert!(cancel.is_cancelled());
        }
    }
}
