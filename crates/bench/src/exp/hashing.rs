//! Step-2 (concurrent hashing) studies: Figs 7–10 and the §III-C lock
//! statistics.

use std::time::Instant;

use hashgraph::{
    build_subgraph_with, ConcurrentDbgTable, ContentionStats, MutexDbgTable, VertexTable,
};
use parahash::StepReport;
use pipeline::IoMode;

use crate::exp::{header, paper_note};
use crate::fmt::{count, loglog_slope, secs, Table};
use crate::workloads::{self, Setup, K};

/// Shared harness: builds the graph on `setup`'s roster with `partitions`
/// partitions and returns the build's Step-2 report — its elapsed time
/// and each device's meters over Step 2 alone.
fn step2_report(
    data: &datagen::ProfileData,
    partitions: usize,
    setup: Setup,
    tag: &str,
) -> StepReport {
    let ph = workloads::runner(tag, setup, partitions, IoMode::Unthrottled);
    let outcome = ph.run(&data.reads).expect("build runs");
    workloads::cleanup(&ph);
    outcome.report.step2
}

/// Fig 7: CPU hashing vs GPU hashing time as the number of partitions
/// (and therefore the hash table size) varies. The CPU is the roster
/// every build runs ([`Setup::CpuOnly`]): one device per core, each
/// building whole partitions.
pub fn fig7(scale: f64) {
    header("Fig 7", "CPU hashing vs GPU hashing time vs number of partitions");
    let data = workloads::chr14(scale);
    let mut t = Table::new(&["# partitions", "CPU hashing (s)", "GPU hashing (s)"]);
    for n in [16usize, 32, 64, 128, 256] {
        let cpu = step2_report(&data, n, Setup::CpuOnly, &format!("f7c{n}"));
        let gpu = step2_report(&data, n, Setup::OneGpu, &format!("f7g{n}"));
        t.row_owned(vec![n.to_string(), secs(cpu.pipeline.elapsed), secs(gpu.pipeline.elapsed)]);
    }
    print!("{}", t.render());
    paper_note(
        "Both CPU and GPU hashing get faster as partitions increase (smaller tables = \
         better locality); the gap between them approaches the host-device transfer time \
         beyond 16 partitions — a 20-core CPU and one K40 are comparable on random-access \
         hashing.",
    );
}

/// Fig 8: GPU hashing time broken into compute and host↔device transfer.
pub fn fig8(scale: f64) {
    header("Fig 8", "GPU hashing time breakdown (compute vs transfer)");
    let data = workloads::chr14(scale);
    let mut t = Table::new(&["# partitions", "GPU total (s)", "kernel (s)", "transfer (s)"]);
    for n in [16usize, 32, 64, 128, 256] {
        let step2 = step2_report(&data, n, Setup::OneGpu, &format!("f8-{n}"));
        let m = &step2.device_metrics[0];
        t.row_owned(vec![
            n.to_string(),
            secs(step2.pipeline.elapsed),
            secs(m.busy),
            secs(m.transfer_time),
        ]);
    }
    print!("{}", t.render());
    paper_note(
        "Transfer time stays ~constant across partition counts (total bytes moved is \
         fixed) while kernel time falls with smaller tables; at many partitions the \
         CPU-GPU gap in Fig 7 is roughly this transfer time.",
    );
}

/// Fig 9: concurrent CPU hashing scalability with thread count.
pub fn fig9(scale: f64) {
    header("Fig 9", "CPU hashing scalability vs threads (log-log fit)");
    let data = workloads::chr14(scale);
    // One partitioning and indexing pass, reused for every thread count;
    // what is timed is the table plus the production replay
    // (`build_subgraph_with`: one `ReplayPipeline` per thread chunk).
    let parts = workloads::partitions(&data.reads, workloads::P, 64);
    let parts = workloads::indexed(&parts, workloads::P);
    let mut t = Table::new(&["threads", "hashing time (s)"]);
    let mut points = Vec::new();
    for threads in [1usize, 2, 4, 6, 8, 12, 16, 20] {
        let t0 = Instant::now();
        for part in &parts {
            let table = ConcurrentDbgTable::new(workloads::roomy_capacity(part), K);
            build_subgraph_with(&table, part, threads).expect("build succeeds");
        }
        let elapsed = t0.elapsed();
        points.push((threads as f64, elapsed.as_secs_f64()));
        t.row_owned(vec![threads.to_string(), secs(elapsed)]);
    }
    print!("{}", t.render());
    let slope = loglog_slope(&points[1..]).unwrap_or(f64::NAN);
    println!("log-log slope (threads >= 2): {slope:.3}");
    let cores = workloads::cpu_threads();
    println!("(this machine has {cores} core(s); ideal slope −1 needs >= 20 cores)");
    paper_note(
        "On the 20-core host the fitted slope a ≈ −1 (x·y constant): near-linear \
         scalability despite shared-table contention. On a machine with fewer cores the \
         curve flattens once threads exceed cores.",
    );
}

/// Fig 10: CPU hashing vs the SOAP strategy with time breakdown
/// (read data vs insertion/update); 20 partitions, P = K.
pub fn fig10(scale: f64) {
    header("Fig 10", "CPU hashing vs SOAP, phase breakdown (20 partitions, P=K)");
    let data = workloads::chr14(scale);
    let threads = workloads::cpu_threads();
    // P = K: superkmer runs carry single canonical kmers, so partitions
    // hold (nearly) raw kmers — the apples-to-apples setting vs SOAP.
    let parts = workloads::partitions(&data.reads, K, 20);

    // ParaHash side, phased like SOAP. "Read data": bring each partition
    // in for replay — Step 2's validating index pass over its records.
    // "Insertion/Update": the production replay, which decodes records
    // and probes the shared table in one software-pipelined pass (there
    // is no materialised <vertex, edge> pair list to time separately).
    let t0 = Instant::now();
    let indexed = workloads::indexed(&parts, K);
    let read_data = t0.elapsed();

    let t0 = Instant::now();
    for part in &indexed {
        let table = ConcurrentDbgTable::new(workloads::roomy_capacity(part), K);
        build_subgraph_with(&table, part, threads).expect("build succeeds");
    }
    let insert = t0.elapsed();

    // SOAP side.
    use baselines::DbgBuilder as _;
    let (_, soap_report) = baselines::SoapBuilder::new(K, threads)
        .build(&data.reads)
        .expect("soap builds");

    let mut t = Table::new(&["system", "read data (s)", "insertion/update (s)", "total (s)"]);
    t.row_owned(vec![
        "ParaHash concurrent hashing".into(),
        secs(read_data),
        secs(insert),
        secs(read_data + insert),
    ]);
    t.row_owned(vec![
        "SOAP local tables".into(),
        secs(soap_report.phases[0].1),
        secs(soap_report.phases[1].1),
        secs(soap_report.elapsed),
    ]);
    print!("{}", t.render());
    println!("(ParaHash decodes records inside insertion/update: the production replay fuses the two)");
    paper_note(
        "ParaHash is faster on both phases: accessing <vertex, edge> pairs (partitioned, \
         cache-friendly reads vs SOAP's every-thread-scans-all-kmers) and insert/update \
         (one shared table with partial locks vs per-thread tables).",
    );
}

/// §III-C lock statistics: the state-transfer mechanism locks only
/// insertions, ~20 % of operations.
pub fn lockstats(scale: f64) {
    header("lockstats", "state-transfer partial locking vs full locking (§III-C)");
    let mut t = Table::new(&[
        "dataset",
        "operations",
        "insertions (locked)",
        "updates (lock-free)",
        "locked fraction",
        "reduction",
        "full-lock acquisitions",
    ]);
    for data in workloads::datasets(scale) {
        let parts = workloads::partitions(&data.reads, workloads::P, 16);
        let mut stats = ContentionStats::default();
        let mut full_locks = 0u64;
        for part in &workloads::indexed(&parts, workloads::P) {
            let table = ConcurrentDbgTable::new(workloads::roomy_capacity(part), K);
            build_subgraph_with(&table, part, 4).expect("build succeeds");
            stats.merge(&table.contention());
            let mutex_table = MutexDbgTable::new(workloads::roomy_capacity(part), K);
            build_subgraph_with(&mutex_table, part, 4).expect("build succeeds");
            full_locks += mutex_table.contention().lock_waits;
        }
        t.row_owned(vec![
            data.profile.name.into(),
            count(stats.operations()),
            count(stats.insertions),
            count(stats.updates),
            format!("{:.1}%", 100.0 * stats.locked_fraction()),
            format!("{:.1}%", 100.0 * stats.lock_reduction()),
            count(full_locks),
        ]);
    }
    print!("{}", t.render());
    paper_note(
        "Distinct vertices are ~1/5 of all kmer occurrences, so state transfer locks only \
         ~20% of operations — an ~80% reduction versus locking every access (the \
         full-lock column counts what a lock-everything table actually acquires).",
    );
}
