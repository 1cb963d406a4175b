//! The traced run: the body of the `parabench trace` child process.
//!
//! One more child per workload, after the untraced samples. It makes a
//! real build at the workload's thread count (first, in a process as
//! fresh as a sample's, so `trace.overhead_share` compares like with
//! like), one at `cpu_threads(1)`, the layer replay, and a few priced
//! calls whose cost hides inside another layer or behind the page cache.
//! Its spans go to `<work-dir>/events.json`; its metrics to stdout.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use hashgraph::ConcurrentDbgTable;
use parahash::{Fingerprint, JournalEvent, RunJournal, RunReport, StepReport};
use pipeline::SharedCounterQueue;

use crate::corpus::{graph_digest, Fnv};
use crate::json::{obj, Value};
use crate::replay::{replay, Replayed};
use crate::sample::{prepare, timed_build, SampleArgs, Timed};
use crate::spec::{Mode, K, P, PARTITIONS, PER_LAYER};
use crate::trace::{self, Tracer};

type Error = Box<dyn std::error::Error + Send + Sync>;

/// Commits and journal appends made to price the disk.
const DISK_REPS: usize = 16;
/// Push/pop pairs timed for `pipeline.queue.handoff_ns`.
const QUEUE_PAIRS: usize = 100_000;

/// The whole `parabench trace` child: one JSON object with the
/// per-layer metrics, the digests of every graph it built, and the
/// traced build's `build_s`.
pub fn run_trace(args: &SampleArgs) -> Value {
    match trace_inner(args) {
        Ok(v) => v,
        Err(e) => obj([
            ("ok", Value::from(false)),
            ("error", Value::from(e.to_string())),
        ]),
    }
}

/// A real build in `<work-dir>/<tag>` under a span named `tag`, its
/// scheduler spans attached as lanes.
fn traced_build(
    t: &mut Tracer,
    args: &SampleArgs,
    tag: &str,
    mode: Mode,
    threads: usize,
    workers: usize,
) -> Result<Timed, Error> {
    let args = SampleArgs {
        work_dir: args.work_dir.join(tag),
        ..args.clone()
    };
    let input = prepare(&args)?;
    let config = args.config(threads, workers)?;
    t.span(tag, |t| -> Result<Timed, Error> {
        let started = Instant::now();
        let timed = timed_build(mode, config, &input)?;
        let (t0, t1) = (t.at_us(started), t.at_us(Instant::now()));
        let report = &timed.outcome.report;
        // A step's spans are offsets from that step's own start, which
        // the report does not place inside the build: Step 1 starts with
        // the build; Step 2 starts with it when fused and ends with it
        // when two-phase.
        let fused = matches!(mode, Mode::FusedFastq | Mode::FusedReads | Mode::BoundedMem);
        let step2_t0 = match fused {
            true => t0,
            false => t1 - report.step2.pipeline.elapsed.as_secs_f64() * 1e6,
        };
        for (step, base, first_lane) in [(&report.step1, t0, 1u32), (&report.step2, step2_t0, 4u32)]
        {
            for span in &step.pipeline.spans {
                let lane = first_lane
                    + match span.stage {
                        pipeline::Stage::Input => 0,
                        pipeline::Stage::Compute => 1,
                        pipeline::Stage::Output => 2,
                    };
                t.annotate(
                    &format!(
                        "step{}.{}.{}[{}]",
                        step.step, span.stage, span.worker, span.partition
                    ),
                    lane,
                    base + span.start.as_secs_f64() * 1e6,
                    base + span.end.as_secs_f64() * 1e6,
                );
            }
        }
        Ok(timed)
    })
}

fn trace_inner(args: &SampleArgs) -> Result<Value, Error> {
    let mode = args.workload.mode;
    let (threads, workers) = args.shape();
    let mut t = Tracer::new(&format!("trace:{}", args.workload.name));
    let mut digests = Vec::new();
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();

    let tn = traced_build(&mut t, args, "build_tn", mode, threads, workers)?;
    digests.push(graph_digest(&tn.outcome.graph));
    report_metrics(&mut metrics, &tn.outcome.report);
    let tn_build_s = tn.build_s;
    drop(tn);

    // The plain single-threaded, in-process build the replay models.
    let t1 = traced_build(&mut t, args, "build_t1", mode, 1, 0)?;
    digests.push(graph_digest(&t1.outcome.graph));
    metrics.insert("trace.e2e_t1_s".into(), t1.build_s);
    metrics.insert(
        "pipeline.scheduler.speedup_tN_over_t1".into(),
        t1.build_s / tn_build_s,
    );
    drop(t1);

    if mode == Mode::Sharded {
        // Same compute threads, no processes: what sharding costs.
        let inproc = traced_build(
            &mut t,
            args,
            "build_inproc",
            Mode::TwoPhaseFastq,
            threads * workers,
            0,
        )?;
        digests.push(graph_digest(&inproc.outcome.graph));
        let sharded = metrics["parahash.step2.elapsed_s"];
        let plain = inproc.outcome.report.step2.pipeline.elapsed.as_secs_f64();
        metrics.insert("parahash.shard.overhead_s".into(), sharded - plain);
    }

    let replay_args = SampleArgs {
        work_dir: args.work_dir.join("replay"),
        ..args.clone()
    };
    let input = prepare(&replay_args)?;
    let config = replay_args.config(1, 0)?;
    let replayed = replay(&mut t, mode, &config, &input)?;
    digests.push(graph_digest(&replayed.graph));
    drop(input);

    t.span("priced", |t| {
        priced(t, &args.work_dir.join("priced"), &replayed, mode)
    })?;
    drop(replayed);

    let spans = t.finish();
    trace::check_well_formed(&spans)?;
    let replay_root = spans
        .iter()
        .position(|s| s.name == "replay")
        .expect("the replay ran");
    let (seconds, counts) = trace::totals(&spans, &(0..spans.len()).collect::<Vec<_>>());
    for (name, value) in &seconds {
        metrics.insert(format!("{name}_s"), *value);
    }
    for (&name, value) in &counts {
        metrics.insert(name.to_owned(), *value);
    }
    let (replay_seconds, _) = trace::totals(&spans, &trace::subtree(&spans, replay_root));
    let glue = replay_seconds.get("replay").copied().unwrap_or(0.0);
    let layers_sum: f64 = replay_seconds.values().sum::<f64>() - glue;
    metrics.insert("trace.replay_glue_s".into(), glue);
    metrics.insert("trace.layers_sum_s".into(), layers_sum);
    metrics.insert(
        "trace.unattributed_share".into(),
        1.0 - layers_sum / metrics["trace.e2e_t1_s"],
    );
    let ops = metrics
        .get("hashgraph.build.insertions")
        .copied()
        .unwrap_or(0.0)
        + metrics
            .get("hashgraph.build.updates")
            .copied()
            .unwrap_or(0.0);
    if ops > 0.0 {
        metrics.insert(
            "hashgraph.build.insert_share".into(),
            metrics["hashgraph.build.insertions"] / ops,
        );
    }
    // Priced per-operation numbers are reported per operation.
    for (name, span, reps, scale) in [
        (
            "pipeline.commit.disk_us_per_file",
            "priced.commit",
            DISK_REPS,
            1e6,
        ),
        (
            "parahash.journal.disk_us_per_append",
            "priced.journal",
            DISK_REPS,
            1e6,
        ),
        (
            "pipeline.queue.handoff_ns",
            "priced.queue",
            QUEUE_PAIRS,
            1e9,
        ),
    ] {
        metrics.insert(
            name.into(),
            seconds.get(span).copied().unwrap_or(0.0) * scale / reps as f64,
        );
    }

    fs::create_dir_all(&args.work_dir)?;
    let mut events = fs::File::create(args.work_dir.join("events.json"))?;
    events.write_all(trace::chrome_events(&spans).to_json().as_bytes())?;

    // Exactly the listed names, 0 where the layer did nothing.
    let listed = PER_LAYER.iter().map(|m| {
        (
            m.name,
            Value::from(metrics.get(m.name).copied().unwrap_or(0.0)),
        )
    });
    Ok(obj([
        ("ok", Value::from(true)),
        ("traced_build_s", Value::from(tn_build_s)),
        (
            "digests",
            Value::Arr(digests.into_iter().map(Value::from).collect()),
        ),
        ("metrics", obj(listed)),
    ]))
}

/// The `RunReport` fields of the build at the workload's thread count.
fn report_metrics(metrics: &mut BTreeMap<String, f64>, report: &RunReport) {
    let mut step = |name: &str, s: &StepReport| {
        let mut put = |what: &str, value: f64| {
            metrics.insert(format!("parahash.{name}.{what}"), value);
        };
        put("elapsed_s", s.pipeline.elapsed.as_secs_f64());
        put("input_s", s.pipeline.input_time.as_secs_f64());
        put("output_s", s.pipeline.output_time.as_secs_f64());
        put("cpu_compute_s", s.cpu_compute.as_secs_f64());
        put("eq1_s", s.eq1_estimate().as_secs_f64());
        put("model_accuracy", s.model_accuracy());
    };
    step("step1", &report.step1);
    step("step2", &report.step2);
    metrics.insert("parahash.step2.resizes".into(), report.step2.resizes as f64);
    metrics.insert(
        "parahash.step2.sub_splits".into(),
        report.step2.sub_splits.len() as f64,
    );
    let steps = [&report.step1, &report.step2];
    let elapsed: f64 = steps.iter().map(|s| s.pipeline.elapsed.as_secs_f64()).sum();
    let busy: f64 = steps.iter().map(|s| s.cpu_compute.as_secs_f64()).sum();
    let staged: f64 = steps
        .iter()
        .flat_map(|s| &s.pipeline.spans)
        .map(|span| span.end.saturating_sub(span.start).as_secs_f64())
        .sum();
    if elapsed > 0.0 {
        metrics.insert("hetsim.cpu.busy_share".into(), busy / elapsed);
        metrics.insert("pipeline.scheduler.stage_overlap".into(), staged / elapsed);
    }
}

/// Calls whose cost the replay's spans cannot show: CRC framing (inside
/// the sinks' appends), a cold pool's table allocations, the canonical
/// `write_graph`, the disk under a commit and a journal append, a queue
/// handoff, a process spawn.
fn priced(t: &mut Tracer, dir: &Path, replayed: &Replayed, mode: Mode) -> Result<(), Error> {
    fs::create_dir_all(dir)?;
    t.span("hashgraph.store.write_graph", |_| {
        hashgraph::write_graph(&replayed.graph, Fnv::default())
    })?;
    t.span("msp.frame.append", |_| {
        let payload = vec![0x5a_u8; msp::DEFAULT_FRAME_TARGET];
        let mut framed = Vec::with_capacity(payload.len() + msp::FRAME_HEADER_LEN);
        for _ in 0..replayed.partition_bytes.div_ceil(payload.len() as u64) {
            framed.clear();
            msp::append_frame(&mut framed, &payload);
            std::hint::black_box(&framed);
        }
    });
    t.span("hashgraph.table.alloc", |_| {
        for &capacity in &replayed.capacities {
            std::hint::black_box(ConcurrentDbgTable::new(capacity, K));
        }
    });
    let mut sizes = replayed.subgraph_sizes.clone();
    sizes.sort_unstable();
    let file = vec![0xa5_u8; sizes.get(sizes.len() / 2).copied().unwrap_or(1 << 16)];
    t.span("priced.commit", |_| {
        (0..DISK_REPS)
            .try_for_each(|i| pipeline::commit::commit_bytes(&dir.join(format!("file-{i}")), &file))
    })?;
    let fingerprint = Fingerprint {
        k: K,
        p: P,
        partitions: PARTITIONS,
        input_digest: 0,
    };
    let journal = RunJournal::create(dir, fingerprint)?;
    t.span("priced.journal", |_| {
        (0..DISK_REPS).try_for_each(|i| journal.append(&JournalEvent::SubgraphCommitted(i)))
    })?;
    t.span("priced.queue", |_| {
        let queue = SharedCounterQueue::new(QUEUE_PAIRS);
        for i in 0..QUEUE_PAIRS {
            queue.push(i);
            std::hint::black_box(queue.pop());
        }
    });
    if mode == Mode::Sharded {
        // Spawn-to-exit of a worker with nothing to do.
        t.span("parahash.shard.spawn", |_| -> Result<(), Error> {
            let status = Command::new(std::env::current_exe()?)
                .arg("noop")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .status()?;
            status
                .success()
                .then_some(())
                .ok_or_else(|| "the idle child failed".into())
        })?;
    }
    Ok(())
}
