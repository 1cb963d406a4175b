//! Co-processing and pipelining studies: Figs 11–14.

use std::time::Duration;

use parahash::{run_step1, run_step2, StepReport};
use pipeline::perfmodel::eq2_ideal_coprocessing;
use pipeline::{IoMode, ThrottledIo};

use crate::exp::{header, paper_note};
use crate::fmt::{secs, Table};
use crate::workloads::{self, Setup};

/// Runs both steps under `setup`/`io_mode`, returning the two step
/// reports.
fn run_both(
    data: &datagen::ProfileData,
    setup: Setup,
    io_mode: IoMode,
    tag: &str,
) -> (StepReport, StepReport) {
    let ph = workloads::runner(tag, setup, 64, io_mode);
    let io = ThrottledIo::new(io_mode);
    let (manifest, s1) = run_step1(ph.config(), &data.reads, &io).expect("step1 runs");
    let (_, s2) = run_step2(ph.config(), &manifest, &io).expect("step2 runs");
    workloads::cleanup(&ph);
    (s1, s2)
}

/// Fig 11: workload distribution across co-processors — per-device
/// elapsed time and real vs ideal work shares, for the two-phase steps
/// and for Step 2 of the fused flow (same roster, same work queue, fed
/// in one burst when Step 1 seals).
pub fn fig11(scale: f64) {
    header("Fig 11", "workload distribution with CPU+1GPU co-processing");
    let data = workloads::chr14(scale);
    let (s1, s2) = run_both(&data, Setup::CpuOneGpu, IoMode::Unthrottled, "f11");
    let fused = {
        let ph = workloads::runner("f11-fused", Setup::CpuOneGpu, 64, IoMode::Unthrottled);
        let outcome = ph.run_fused(&data.reads).expect("fused run");
        workloads::cleanup(&ph);
        outcome.report.step2
    };
    let mut t = Table::new(&[
        "step",
        "device",
        "busy (s)",
        "partitions",
        "work share",
        "ideal share",
    ]);
    for (label, report) in
        [("Step 1 (reads)", &s1), ("Step 2 (vertices)", &s2), ("Step 2, fused (vertices)", &fused)]
    {
        let real = report.pipeline.work_fractions();
        let ideal = report.pipeline.ideal_fractions();
        for (i, share) in report.pipeline.shares.iter().enumerate() {
            t.row_owned(vec![
                label.into(),
                share.name.clone(),
                secs(share.busy),
                share.partitions.to_string(),
                format!("{:.1}%", 100.0 * real[i]),
                format!("{:.1}%", 100.0 * ideal[i]),
            ]);
        }
    }
    print!("{}", t.render());
    paper_note(
        "Per-processor elapsed times are close to each other in both steps (no straggler), \
         and the real work share tracks the share predicted from each processor's \
         measured speed — more closely in Step 2, where the CPU does less input/output \
         parsing on the side.",
    );
}

/// Fig 12: accumulated non-pipelined stage times vs the pipelined elapsed
/// time, for both steps and both datasets.
pub fn fig12(scale: f64) {
    header("Fig 12", "stage breakdown (sum) vs pipelined elapsed");
    let mut t = Table::new(&[
        "dataset",
        "step",
        "input (s)",
        "compute (s)",
        "output (s)",
        "stage sum (s)",
        "pipelined (s)",
        "saving",
    ]);
    for (data, io_mode) in [
        (workloads::chr14(scale), IoMode::Unthrottled),
        (workloads::bumblebee(scale), workloads::case2_io()),
    ] {
        let (s1, s2) = run_both(&data, Setup::CpuOnly, io_mode, "f12");
        for (label, r) in [("Step 1", &s1), ("Step 2", &s2)] {
            let compute = r.cpu_compute.max(r.gpu_compute);
            let sum = r.pipeline.input_time + compute + r.pipeline.output_time;
            let saving = 1.0 - r.pipeline.elapsed.as_secs_f64() / sum.as_secs_f64().max(1e-9);
            t.row_owned(vec![
                data.profile.name.into(),
                label.into(),
                secs(r.pipeline.input_time),
                secs(compute),
                secs(r.pipeline.output_time),
                secs(sum),
                secs(r.pipeline.elapsed),
                format!("{:.0}%", 100.0 * saving),
            ]);
        }
    }
    print!("{}", t.render());
    paper_note(
        "Pipelining significantly beats the accumulated stage times when I/O does not \
         dominate (Chr14); when I/O dominates (Bumblebee) the elapsed time is roughly \
         halved because input and output overlap each other and hide the computation.",
    );
}

/// Fig 13: real vs Eq.-2-estimated elapsed time per step under Case 1
/// (`T_IO ≪ min{T_CPU, T_GPU}`, unthrottled I/O) for the five processor
/// configurations.
pub fn fig13(scale: f64) {
    header("Fig 13", "real vs estimated (Eq. 2), Case 1: memory-cached input");
    let data = workloads::chr14(scale);
    // Baselines: best CPU-only and single-GPU-only per-step elapsed.
    let (cpu1, cpu2) = run_both(&data, Setup::CpuOnly, IoMode::Unthrottled, "f13-cpu");
    let (gpu1, gpu2) = run_both(&data, Setup::OneGpu, IoMode::Unthrottled, "f13-gpu");
    let base = [
        (cpu1.pipeline.elapsed, gpu1.pipeline.elapsed),
        (cpu2.pipeline.elapsed, gpu2.pipeline.elapsed),
    ];
    let estimate = |setup: Setup, step: usize| -> Duration {
        let (cpu_t, gpu_t) = base[step];
        match setup {
            Setup::CpuOnly => cpu_t,
            Setup::OneGpu => gpu_t,
            Setup::TwoGpu => eq2_ideal_coprocessing(None, gpu_t, 2),
            Setup::CpuOneGpu => eq2_ideal_coprocessing(Some(cpu_t), gpu_t, 1),
            Setup::CpuTwoGpu => eq2_ideal_coprocessing(Some(cpu_t), gpu_t, 2),
        }
    };
    let mut t = Table::new(&[
        "config",
        "step1 real (s)",
        "step1 est (s)",
        "step2 real (s)",
        "step2 est (s)",
    ]);
    for setup in Setup::ALL {
        let (s1, s2) = match setup {
            Setup::CpuOnly => (cpu1.clone(), cpu2.clone()),
            Setup::OneGpu => (gpu1.clone(), gpu2.clone()),
            other => run_both(&data, other, IoMode::Unthrottled, &format!("f13-{}", other.label())),
        };
        t.row_owned(vec![
            setup.label().into(),
            secs(s1.pipeline.elapsed),
            secs(estimate(setup, 0)),
            secs(s2.pipeline.elapsed),
            secs(estimate(setup, 1)),
        ]);
    }
    print!("{}", t.render());
    paper_note(
        "With I/O negligible, elapsed time falls as processors are added, tracking the \
         Eq.-2 ideal (combined rate = sum of individual rates); offloading to more \
         devices keeps improving performance. Note: on a single-core host the CPU and \
         'GPU' devices share the same silicon, so co-processing gains are bounded by \
         the overlap of metered transfer/sleep time with compute rather than by true \
         parallel speedup.",
    );
}

/// Fig 14: real vs Eq.-1-estimated elapsed time per step under Case 2
/// (`T_IO > max{T_CPU, T_GPU}`, throttled I/O).
pub fn fig14(scale: f64) {
    header("Fig 14", "real vs estimated (Eq. 1), Case 2: disk-bound input");
    let data = workloads::bumblebee(scale);
    let mut t = Table::new(&[
        "config",
        "step",
        "max compute (s)",
        "max io (s)",
        "real (s)",
        "eq1 est (s)",
        "regime",
    ]);
    for setup in Setup::ALL {
        let (s1, s2) = run_both(&data, setup, workloads::case2_io(), &format!("f14-{}", setup.label()));
        for (label, r) in [("1", &s1), ("2", &s2)] {
            let c = r.components();
            t.row_owned(vec![
                setup.label().into(),
                label.into(),
                secs(c.cpu_compute.max(c.gpu)),
                secs(c.input.max(c.output)),
                secs(r.pipeline.elapsed),
                secs(r.eq1_estimate()),
                format!("{:?}", r.regime()),
            ]);
        }
    }
    print!("{}", t.render());
    paper_note(
        "When disk bandwidth dominates, the real elapsed time approaches the input/output \
         time for every processor configuration (Eq. 1's max term is T_IO) — adding \
         compute devices no longer helps; Step 2 is almost pure I/O.",
    );
}
