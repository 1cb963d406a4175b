//! Fig 5 (the paper's pipelined co-processing schematic) rendered from a
//! *real* run's span trace, plus the machine-word counting ablation.

use std::time::Duration;

use baselines::CounterBuilder;
use parahash::{run_step1, run_step2};
use pipeline::{IoMode, Span, Stage, ThrottledIo};

use crate::exp::{header, paper_note};
use crate::fmt::{count, secs, Table};
use crate::workloads::{self, Setup, K};

/// Renders spans as a text Gantt chart, one row per worker lane.
fn render_gantt(spans: &[Span], elapsed: Duration, width: usize) -> String {
    let mut lanes: Vec<String> = Vec::new();
    for s in spans {
        let lane = format!("{:7} {}", s.worker, s.stage);
        if !lanes.contains(&lane) {
            lanes.push(lane);
        }
    }
    lanes.sort();
    let total = elapsed.as_secs_f64().max(1e-9);
    let mut out = String::new();
    for lane in &lanes {
        let mut row = vec![b'.'; width];
        for s in spans {
            if format!("{:7} {}", s.worker, s.stage) != *lane {
                continue;
            }
            let a = ((s.start.as_secs_f64() / total) * width as f64) as usize;
            let b = ((s.end.as_secs_f64() / total) * width as f64).ceil() as usize;
            let glyph = match s.stage {
                Stage::Input => b'i',
                Stage::Compute => b'#',
                Stage::Output => b'o',
            };
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *cell = glyph;
            }
        }
        out.push_str(&format!("{lane:18} |{}|\n", String::from_utf8(row).expect("ascii")));
    }
    out.push_str(&format!("{:18}  0s {:>width$}\n", "", format!("{:.3}s", total), width = width - 3));
    out
}

/// Fig 5: the real pipelined timeline of a co-processed Step 2.
pub fn fig5(scale: f64) {
    header("Fig 5", "pipelined co-processing timeline (real span trace)");
    let data = workloads::chr14(scale);
    let io_mode = IoMode::Throttled { bytes_per_sec: 3_000_000 };
    let ph = workloads::runner("f5", Setup::CpuOneGpu, 24, io_mode);
    let io = ThrottledIo::new(io_mode);
    let (manifest, _) = run_step1(ph.config(), &data.reads, &io).expect("step1 runs");
    let (_, report) = run_step2(ph.config(), &manifest, &io).expect("step2 runs");
    workloads::cleanup(&ph);
    print!("{}", render_gantt(&report.pipeline.spans, report.pipeline.elapsed, 100));
    println!("(i = partition input, # = compute on the named device, o = partition output)");
    paper_note(
        "The paper's Fig 5 schematic: input transfer, per-processor consuming/producing, \
         and output transfer overlap in steady state — each lane is busy concurrently \
         rather than taking turns; processors claim partitions as they go idle.",
    );
}

/// §III-D ablations: (a) the Step-1 kernel split — offsets-only on the
/// device, memory movement on the host — vs scanning *and* encoding whole
/// superkmers on the device; (b) the SIMT lockstep penalty of the Step-2
/// hash kernel (divergent probe walks) vs the regular Step-1 scan kernel.
pub fn ablation(scale: f64) {
    header("ablation", "§III-D design choices: kernel split and warp divergence");
    let data = workloads::chr14(scale);
    let scanner = msp::SuperkmerScanner::new(K, workloads::P).expect("valid params");

    // (a) Split vs whole-scan Step-1 kernel on a GPU device, built from
    // the calls Step 1 itself makes (`scan_runs_into` on the device +
    // `encode_superkmer_slice` on the host is its SimGpu path; scan and
    // encode in one pass is its CPU path). Records go to one buffer per
    // work item or one host buffer — routing is the same on both sides.
    let gpu_cfg = workloads::experiment_gpu();
    let reads = &data.reads;
    let encode_run = |read: &dna::PackedSeq, first: usize, last: usize, out: &mut Vec<u8>| {
        let left = first.checked_sub(1).map(|i| read.base(i));
        let right = (last + K < read.len()).then(|| read.base(last + K));
        msp::encode_superkmer_slice(read, first, last, K, left, right, out);
    };
    let time_kernel = |split: bool| -> std::time::Duration {
        let gpu = hetsim::SimGpuDevice::new("abl", gpu_cfg);
        // Per-worker scan state, checked out per work item like Step 1's
        // staging shards, so neither variant allocates per read.
        let shards: parking_lot::Mutex<Vec<(msp::MinimizerCursor, Vec<u8>)>> = Default::default();
        let checkout = || shards.lock().pop().unwrap_or_else(|| (scanner.cursor(), Vec::new()));
        let t0 = std::time::Instant::now();
        let encoded = if split {
            // Offsets on the device (fixed-size output per run)...
            let boundaries: Vec<parking_lot::Mutex<Vec<(usize, usize, dna::Kmer)>>> =
                (0..reads.len()).map(|_| parking_lot::Mutex::new(Vec::new())).collect();
            hetsim::Device::execute(&gpu, reads.len(), &|i| {
                let (mut cursor, records) = checkout();
                scanner.scan_runs_into(reads[i].seq(), &mut cursor, &mut boundaries[i].lock());
                shards.lock().push((cursor, records));
            });
            // ...irregular record movement on the host.
            let mut records = Vec::new();
            for (read, runs) in reads.iter().zip(&boundaries) {
                for &(first, last, _) in runs.lock().iter() {
                    encode_run(read.seq(), first, last, &mut records);
                }
            }
            records.len()
        } else {
            hetsim::Device::execute(&gpu, reads.len(), &|i| {
                let (mut cursor, mut records) = checkout();
                let read = reads[i].seq();
                scanner.scan_runs(read, &mut cursor, |first, last, _| {
                    encode_run(read, first, last, &mut records);
                });
                shards.lock().push((cursor, records));
            });
            shards.into_inner().iter().map(|(_, records)| records.len()).sum()
        };
        assert!(encoded > 0);
        t0.elapsed()
    };
    let whole = time_kernel(false);
    let split = time_kernel(true);

    // (b) Lockstep penalty, computed deterministically from per-item work
    // weights (wall-clock lane timing — hetsim's `track_divergence` — is
    // valid on an idle many-core host but drowns in preemption noise on a
    // loaded single-core CI box). A lockstep warp costs max-lane × lanes;
    // useful work is the lane sum.
    fn lockstep_penalty(weights: &[u64], warp: usize) -> f64 {
        let mut ideal = 0u64;
        let mut useful = 0u64;
        for w in weights.chunks(warp) {
            ideal += w.iter().max().copied().unwrap_or(0) * w.len() as u64;
            useful += w.iter().sum::<u64>();
        }
        ideal as f64 / useful.max(1) as f64
    }
    // Scan kernel: one read per lane, cost ∝ read length (uniform).
    let scan_weights: Vec<u64> = reads.iter().map(|r| r.len() as u64).collect();
    // Hash kernel: one superkmer per lane, cost ∝ kmers inserted (its
    // probe-walk length) — variable, the §III-D divergence source.
    let part = workloads::partitions(reads, workloads::P, 1);
    let hash_weights: Vec<u64> = workloads::indexed(&part, workloads::P)[0]
        .iter()
        .map(|record| record.kmer_count() as u64)
        .collect();
    let warp = gpu_cfg.warp_size;

    let mut t = Table::new(&["measurement", "value"]);
    t.row_owned(vec!["step-1 whole scan on device (s)".into(), secs(whole)]);
    t.row_owned(vec!["step-1 split: offsets on device + host movement (s)".into(), secs(split)]);
    t.row_owned(vec![
        "scan-kernel lockstep penalty (uniform lanes)".into(),
        format!("{:.2}x", lockstep_penalty(&scan_weights, warp)),
    ]);
    t.row_owned(vec![
        "hash-kernel lockstep penalty (divergent probe walks)".into(),
        format!("{:.2}x", lockstep_penalty(&hash_weights, warp)),
    ]);
    print!("{}", t.render());
    paper_note(
        "§III-D: the paper offloads only the regular-output part of Step 1 (superkmer \
         ids/offsets) to the GPU because irregular memory movement suits the CPU, and it \
         observes that hashing kernels suffer thread divergence (probe walks of different \
         lengths within a warp). The hash kernel's lockstep penalty should visibly exceed \
         the scan kernel's.",
    );
}

/// Counting ablation: the machine-word lock-free CAS counter (Jellyfish
/// family, §II related work) vs the multi-word graph table.
pub fn counting(scale: f64) {
    header("counting", "machine-word CAS counter vs multi-word graph table (§II)");
    let data = workloads::chr14(scale);
    let threads = workloads::cpu_threads();

    let t0 = std::time::Instant::now();
    let (distinct, total, _) = CounterBuilder::new(K, threads).count(&data.reads).expect("k<=31");
    let counter_time = t0.elapsed();

    let parts = workloads::partitions(&data.reads, workloads::P, 16);
    let parts = workloads::indexed(&parts, workloads::P);
    let t0 = std::time::Instant::now();
    let mut graph_distinct = 0usize;
    for part in &parts {
        let table = hashgraph::ConcurrentDbgTable::new(workloads::roomy_capacity(part), K);
        hashgraph::build_subgraph_with(&table, part, threads).expect("build");
        graph_distinct += hashgraph::VertexTable::distinct(&table);
    }
    let table_time = t0.elapsed();

    let mut t = Table::new(&["system", "output", "distinct", "occurrences", "time (s)"]);
    t.row_owned(vec![
        "lock-free CAS counter (k<=31 only)".into(),
        "<kmer, count>".into(),
        count(distinct as u64),
        count(total),
        secs(counter_time),
    ]);
    t.row_owned(vec![
        "state-transfer graph table".into(),
        "<kmer, count, 8 edge weights>".into(),
        count(graph_distinct as u64),
        count(total),
        secs(table_time),
    ]);
    print!("{}", t.render());
    assert_eq!(distinct, graph_distinct, "both structures must agree on distinct vertices");
    paper_note(
        "Machine-word CAS counters (Jellyfish-style) are fast but cannot exceed k=31 or \
         record adjacency — they count vertices, not graphs (§I/§II). The state-transfer \
         table pays a modest overhead to produce the full De Bruijn graph with edge \
         multiplicities; both agree exactly on the distinct-vertex count.",
    );
}
