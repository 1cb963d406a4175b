//! The determinism matrix's rows and their check, shared by the suites
//! that run it: `determinism.rs` at the corpus's narrow k-mer and
//! minimizer lengths, `wide_word_determinism.rs` past the 32-base word.
//!
//! A row names one way to build the corpus — entry point, roster, CPU
//! threads, partition and table budgets, worker processes and their
//! transfer mode, failpoint spec, k and p — and must reproduce one in-process
//! reference run at its k and p (two-phase `run`, CPU-only, no budgets):
//! its graph, every `sub-*.dbg` byte, and the outcome its journal
//! records. The reference itself must equal `baselines::reference_graph`,
//! which walks `PackedSeq::kmers` and `Kmer::canonical` and so shares no
//! fast path with ParaHash.
//!
//! Every row builds one repeat-rich corpus ([`corpus`]): a genome with
//! 30 % repeats, sequenced at 5× coverage off both strands with errors,
//! so k-mers recur across reads and partitions and edge multiplicities
//! exceed one — the concurrent count merges where a thread or handoff
//! race would show.
//!
//! A row whose environment must reach other processes — failpoints armed
//! in the parent *and* its workers, shortened shard deadlines — runs as a
//! child of its test binary with that environment set on the `Command`
//! ([`common::rerun_in_child`]), and checks itself there.

// Each suite uses a subset.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Mutex;

use crate::common::{self, TIGHT_TABLE_BUDGET};
use datagen::{GenomeSpec, Sequencer, SequencingSpec};
use dna::SeqRead;
use hashgraph::DeBruijnGraph;
use hetsim::SimGpuConfig;
use parahash::{JournalState, ParaHash, RunJournal, RunOutcome, StepReport};

pub use Entry::{FastqStreaming, Fused, FusedFastq, Run};
pub use Roster::{Cpu, CpuGpu, Gpu};
pub use Transfer::{Fs, Wire};

/// The corpus's default minimizer length, and its partition count.
pub const P: usize = 7;
pub const PARTITIONS: usize = 12;

/// The matrix's read set at k-mer length `k`: a 3 kb genome, 30 %
/// repeats, reads at 5× coverage, half reverse-strand, Poisson(1) errors
/// per read. Reads are 80 bp up to k = 32 and 150 bp beyond, so a wide
/// k-mer recurs as often as a narrow one does.
pub fn corpus(k: usize) -> Vec<SeqRead> {
    let genome = GenomeSpec::new(3_000).seed(42).repeat_fraction(0.3).generate();
    let spec = SequencingSpec {
        read_len: if k <= 32 { 80 } else { 150 },
        coverage: 5.0,
        lambda: 1.0,
        reverse_strand_prob: 0.5,
        seed: 42,
    };
    Sequencer::new(spec).sequence(&genome)
}

/// Which public entry point builds the row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Entry {
    /// Two-phase over reads in memory.
    Run,
    /// Two-phase over a FASTQ file.
    FastqStreaming,
    /// Fused over reads in memory.
    Fused,
    /// Fused over a FASTQ file.
    FusedFastq,
}

/// Which processors claim work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Roster {
    Cpu,
    CpuGpu,
    /// `no_cpu()` + one simulated GPU: the thread count is moot.
    Gpu,
}

/// How partition bytes move between the parent and its worker
/// processes, which connect over loopback TCP either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transfer {
    /// Spawned children without `listen`: workers share the filesystem.
    Fs,
    /// `listen("127.0.0.1:0")`: workers are diskless and payloads ship
    /// both ways.
    Wire,
}

#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub entry: Entry,
    pub roster: Roster,
    pub threads: usize,
    /// `partition_memory_budget`; `None` keeps the default.
    pub partition_budget: Option<u64>,
    /// `table_memory_budget`; `None` keeps the default (never split).
    pub table_budget: Option<u64>,
    /// Step-2 worker processes; 0 builds Step 2 in process.
    pub workers: usize,
    pub transfer: Transfer,
    /// `PARAHASH_FAILPOINTS` of every process of the run; `""` for none.
    pub failpoints: &'static str,
    /// Shard deadlines short enough for the failpoints to play out in
    /// test time.
    pub deadlines: Env,
    /// The k-mer and minimizer lengths; the row's reference is built at
    /// the same two.
    pub k: usize,
    pub p: usize,
}

/// Environment variables a row adds.
pub type Env = &'static [(&'static str, &'static str)];

pub const BASE: Row = Row {
    entry: Run,
    roster: Cpu,
    threads: 2,
    partition_budget: None,
    table_budget: None,
    workers: 0,
    transfer: Fs,
    failpoints: "",
    deadlines: &[],
    k: common::K,
    p: P,
};

/// Partition budgets of the fused rows: every partition spills, the
/// overflow spills, nothing spills.
pub const SPILL: u64 = 0;
pub const TINY: u64 = 1024;
pub const HUGE: u64 = u64::MAX;

pub fn fused(roster: Roster, threads: usize, partition_budget: u64) -> Row {
    Row { entry: Fused, roster, threads, partition_budget: Some(partition_budget), ..BASE }
}

pub fn fused_fastq(partition_budget: u64) -> Row {
    Row { entry: FusedFastq, partition_budget: Some(partition_budget), ..BASE }
}

pub fn sharded(transfer: Transfer, workers: usize) -> Row {
    Row { workers, transfer, ..BASE }
}

impl Row {
    pub fn table_budget(self, bytes: u64) -> Row {
        Row { table_budget: Some(bytes), ..self }
    }

    pub fn split(self) -> Row {
        self.table_budget(TIGHT_TABLE_BUDGET)
    }

    pub fn failpoints(self, spec: &'static str, deadlines: Env) -> Row {
        Row { failpoints: spec, deadlines, ..self }
    }

    pub fn net(self, spec: &'static str) -> Row {
        self.failpoints(spec, common::NET_DEADLINES)
    }

    /// The same row at k-mer length `k` and minimizer length `p`.
    pub fn at(self, k: usize, p: usize) -> Row {
        Row { k, p, ..self }
    }

    /// The environment the row's processes need beyond this one's.
    fn env(&self) -> Vec<(&'static str, &'static str)> {
        let mut env = self.deadlines.to_vec();
        if !self.failpoints.is_empty() {
            env.push(("PARAHASH_FAILPOINTS", self.failpoints));
        }
        env
    }

    /// Builds the corpus in `dir` the row's way.
    fn run(&self, dir: &Path) -> parahash::Result<(ParaHash, RunOutcome)> {
        // Small input batches, so Step 1 interleaves many across threads.
        let mut b = common::builder(dir)
            .k(self.k)
            .p(self.p)
            .partitions(PARTITIONS)
            .read_batch_bytes(1024)
            .cpu_threads(self.threads)
            .workers(self.workers);
        b = match self.roster {
            Cpu => b,
            CpuGpu => b.sim_gpu(SimGpuConfig::default()),
            Gpu => b.no_cpu().sim_gpu(SimGpuConfig::default()),
        };
        if let Some(bytes) = self.partition_budget {
            b = b.partition_memory_budget(bytes);
        }
        if let Some(bytes) = self.table_budget {
            b = b.table_memory_budget(bytes);
        }
        if self.transfer == Wire {
            // Port 0: the kernel picks a free port; spawned workers get
            // the resolved address through their environment.
            b = b.listen("127.0.0.1:0");
        }
        let ph = ParaHash::new(b.build().expect("valid config")).unwrap();
        let reads = corpus(self.k);
        let fastq = dir.with_extension("fastq");
        if matches!(self.entry, FastqStreaming | FusedFastq) {
            let mut w = dna::FastqWriter::new(std::fs::File::create(&fastq).unwrap());
            for r in &reads {
                w.write_record(r).unwrap();
            }
            w.into_inner().unwrap().sync_all().unwrap();
        }
        let outcome = match self.entry {
            Run => ph.run(&reads),
            FastqStreaming => ph.run_fastq_streaming(&fastq),
            Fused => ph.run_fused(&reads),
            FusedFastq => ph.run_fused_fastq(&fastq),
        };
        let _ = std::fs::remove_file(&fastq);
        Ok((ph, outcome?))
    }
}

/// What every row must reproduce.
struct Reference {
    graph: DeBruijnGraph,
    subgraphs: BTreeMap<String, Vec<u8>>,
    journal: JournalState,
}

/// The reference at `k` and `p`, built once per process.
fn reference(k: usize, p: usize) -> &'static Reference {
    static REFERENCES: Mutex<BTreeMap<(usize, usize), &'static Reference>> =
        Mutex::new(BTreeMap::new());
    // Held while building, so each reference is built once.
    let mut references = REFERENCES.lock().unwrap_or_else(|e| e.into_inner());
    references.entry((k, p)).or_insert_with(|| {
        let dir = common::fresh_dir(&format!("det-reference-k{k}-p{p}"));
        let (_, outcome) = BASE.at(k, p).run(&dir).expect("reference run");
        let distinct = outcome.graph.distinct_vertices();
        assert!(distinct > 100, "corpus too small to be meaningful");
        let occurrences = outcome.graph.total_kmer_occurrences();
        assert!(occurrences > 2 * distinct as u64, "k-mers must recur: {occurrences}/{distinct}");
        let oracle = baselines::reference_graph(&corpus(k), k);
        assert_eq!(outcome.graph, oracle, "k={k} p={p}: the reference run against the oracle");
        let reference = Reference {
            graph: outcome.graph,
            subgraphs: common::subgraph_bytes(&dir),
            journal: RunJournal::replay(&dir).unwrap(),
        };
        let _ = std::fs::remove_dir_all(&dir);
        Box::leak(Box::new(reference))
    })
}

/// Runs row `name` — its test path — in a child when its environment
/// asks for one, and checks it against the reference at its k and p.
pub fn check(name: &str, row: Row) {
    if !row.env().is_empty() && common::rerun_in_child(name, &row.env()) {
        return;
    }
    let reference = reference(row.k, row.p);
    let dir = common::fresh_dir(&name.replace("::", "-"));
    let (ph, outcome) = row.run(&dir).unwrap_or_else(|e| panic!("{name}: {e}"));

    assert_eq!(outcome.graph, reference.graph, "{name}: graph");
    assert_eq!(common::subgraph_bytes(&dir), reference.subgraphs, "{name}: sub-*.dbg bytes");
    let step2 = &outcome.report.step2;
    assert!(step2.quarantined.is_empty(), "{name}: {:?}", step2.quarantined);
    let journal = RunJournal::replay(&dir).unwrap();
    let outcome_of = |j: &JournalState| (j.committed.clone(), j.quarantined.clone(), j.complete);
    assert_eq!(outcome_of(&journal), outcome_of(&reference.journal), "{name}: journal");

    // Sub-splits: the journal's records are the report's (which is sorted
    // by partition), and exactly a table budget makes them.
    let mut journaled = journal.sub_splits.clone();
    journaled.sort_unstable();
    assert_eq!(journaled, step2.sub_splits, "{name}: journaled sub-splits");
    match row.table_budget {
        None => assert!(step2.sub_splits.is_empty(), "{name}: split without a budget"),
        Some(TIGHT_TABLE_BUDGET) => assert!(!step2.sub_splits.is_empty(), "{name}: no split"),
        Some(_) => {}
    }
    // And each is written as its partition settles: right before that
    // partition's `subgraph-committed`, in the run's journal and in every
    // journal a worker kept.
    let worker_dirs = (0..row.workers).map(|w| dir.join(format!("worker-{w}")));
    for journal_dir in std::iter::once(dir.clone()).chain(worker_dirs) {
        let Ok(bytes) = std::fs::read(RunJournal::path_in(&journal_dir)) else { continue };
        let records: Vec<&str> = msp::walk_frames(&bytes, None)
            .map(|frame| std::str::from_utf8(frame.unwrap().1).unwrap())
            .collect();
        for (at, record) in records.iter().enumerate() {
            let Some(split) = record.strip_prefix("sub-split ") else { continue };
            let committed = format!("subgraph-committed {}", split.split(' ').next().unwrap());
            let next = records.get(at + 1).copied();
            assert_eq!(next, Some(committed.as_str()), "{name}: {journal_dir:?} after `{record}`");
        }
    }

    // Every partition claimed once, by a processor of the roster: one of
    // the parent's devices or, sharded, a worker connection.
    let claimed: usize = step2.pipeline.shares.iter().map(|s| s.partitions).sum();
    assert_eq!(claimed, PARTITIONS, "{name}");
    if row.workers == 0 {
        let (cpu, gpu) = (!step2.cpu_compute.is_zero(), !step2.gpu_compute.is_zero());
        match row.roster {
            Cpu => assert!(cpu && !gpu, "{name}: a CPU-only roster"),
            CpuGpu => {}
            Gpu => assert!(gpu && !cpu, "{name}: a GPU-only roster"),
        }
    } else {
        // The parent's lease log: real worker ids, each partition leased
        // at most once — a lease that does not come back is built by the
        // parent, never leased again.
        let ids = journal.leases.iter().all(|&(w, _)| w < row.workers);
        assert!(ids, "{name}: {:?}", journal.leases);
        let leased: BTreeSet<usize> = journal.leases.iter().map(|&(_, p)| p).collect();
        assert_eq!(leased.len(), journal.leases.len(), "{name}: {:?}", journal.leases);
        if row.failpoints.starts_with("shard.worker") {
            lost_lease(name, row, &dir, &journal, step2);
        }
        // A worker that was leased anything journals it on the parent's
        // filesystem; a wire worker is diskless.
        for &(w, _) in &journal.leases {
            let kept = RunJournal::exists(&dir.join(format!("worker-{w}")));
            assert_eq!(kept, row.transfer == Fs, "{name}: worker {w}'s journal");
        }
    }

    if matches!(row.entry, Fused | FusedFastq) {
        // The resident-byte budget holds, and decides what reaches disk.
        let budget = ph.config().partition_memory_budget();
        let peak = outcome.report.step1.peak_resident_store_bytes;
        assert!(peak <= budget, "{name}: resident peak {peak} over budget {budget}");
        let spilled = (0..PARTITIONS)
            .filter(|i| dir.join("superkmers").join(format!("part-{i:05}.skm")).exists())
            .count();
        let what = format!("{name}: {peak} bytes resident, {spilled} partitions spilled");
        match budget {
            SPILL => assert!(peak == 0 && spilled > 0, "{what}"),
            TINY => assert!(peak > 0 && spilled > 0, "{what}"),
            _ => {
                assert!(peak > 0 && spilled == 0, "{what}");
                assert!(journal.sealed.is_empty(), "{name}: sealed {:?}", journal.sealed);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The kill and stall rows: worker 1 was leased a partition at its first
/// claim — the parent starts Step 2 only once every spawned worker has
/// claimed — and lost that lease, which the parent then built and
/// committed. A killed worker dies at the lease, so it holds that one
/// lease and committed nothing; a stalled one held the lease past the
/// heartbeat deadline, the span its connection spent on the partition.
fn lost_lease(name: &str, row: Row, dir: &Path, journal: &JournalState, step2: &StepReport) {
    let mine: Vec<usize> = journal.leases.iter().filter(|&&(w, _)| w == 1).map(|&(_, p)| p).collect();
    let Some(&lost) = mine.first() else { panic!("{name}: worker 1 was never leased: {:?}", journal.leases) };
    assert!(journal.committed.contains(&lost), "{name}: the parent committed {lost}");
    let held = step2
        .pipeline
        .spans
        .iter()
        .find(|s| s.stage == pipeline::Stage::Compute && s.worker == "worker1" && s.partition == lost)
        .unwrap_or_else(|| panic!("{name}: no span of worker 1's lease of {lost}"));
    if row.failpoints.ends_with("abort@1") {
        assert_eq!(mine, [lost], "{name}: a dead worker is leased nothing more");
        let own = dir.join("worker-1");
        if row.transfer == Fs {
            let commits = RunJournal::replay(&own).unwrap().committed;
            assert!(commits.is_empty(), "{name}: worker 1 died before building: {commits:?}");
        }
    } else {
        let deadline = row.deadlines.iter().find(|(var, _)| *var == "PARAHASH_SHARD_TIMEOUT_MS");
        let deadline_ms: u64 = deadline.expect("a stall row sets the deadline").1.parse().unwrap();
        let waited = held.end - held.start;
        assert!(waited.as_millis() >= u128::from(deadline_ms), "{name}: held {waited:?}");
    }
}

/// One `#[test]` per row, named after it.
macro_rules! rows {
    ($($name:ident: $row:expr,)*) => {$(
        #[test]
        fn $name() {
            // The test's path below the crate root, as `--exact` wants it.
            let path = concat!(module_path!(), "::", stringify!($name));
            $crate::matrix::check(path.split_once("::").unwrap().1, $row);
        }
    )*};
}

/// The entry-point rows: every entry point, and the fused build under
/// every roster, CPU thread count and partition budget — each row
/// followed by `$adapt`, the tokens that place it (`.at(k, p)`).
macro_rules! entry_rows {
    ($($adapt:tt)*) => {
        rows! {
            two_phase: BASE $($adapt)*,

            // Fused ≡ two-phase, whoever claims the partitions, however
            // many CPU threads, wherever the partition bytes wait.
            fused_cpu_t1_spill: fused(Cpu, 1, SPILL) $($adapt)*,
            fused_cpu_t1_tiny: fused(Cpu, 1, TINY) $($adapt)*,
            fused_cpu_t1_huge: fused(Cpu, 1, HUGE) $($adapt)*,
            fused_cpu_t2_spill: fused(Cpu, 2, SPILL) $($adapt)*,
            fused_cpu_t2_tiny: fused(Cpu, 2, TINY) $($adapt)*,
            fused_cpu_t2_huge: fused(Cpu, 2, HUGE) $($adapt)*,
            fused_cpu_t4_spill: fused(Cpu, 4, SPILL) $($adapt)*,
            fused_cpu_t4_tiny: fused(Cpu, 4, TINY) $($adapt)*,
            fused_cpu_t4_huge: fused(Cpu, 4, HUGE) $($adapt)*,
            fused_cpu_t8_spill: fused(Cpu, 8, SPILL) $($adapt)*,
            fused_cpu_t8_tiny: fused(Cpu, 8, TINY) $($adapt)*,
            fused_cpu_t8_huge: fused(Cpu, 8, HUGE) $($adapt)*,
            fused_cpugpu_t1_spill: fused(CpuGpu, 1, SPILL) $($adapt)*,
            fused_cpugpu_t1_tiny: fused(CpuGpu, 1, TINY) $($adapt)*,
            fused_cpugpu_t1_huge: fused(CpuGpu, 1, HUGE) $($adapt)*,
            fused_cpugpu_t2_spill: fused(CpuGpu, 2, SPILL) $($adapt)*,
            fused_cpugpu_t2_tiny: fused(CpuGpu, 2, TINY) $($adapt)*,
            fused_cpugpu_t2_huge: fused(CpuGpu, 2, HUGE) $($adapt)*,
            fused_cpugpu_t4_spill: fused(CpuGpu, 4, SPILL) $($adapt)*,
            fused_cpugpu_t4_tiny: fused(CpuGpu, 4, TINY) $($adapt)*,
            fused_cpugpu_t4_huge: fused(CpuGpu, 4, HUGE) $($adapt)*,
            fused_cpugpu_t8_spill: fused(CpuGpu, 8, SPILL) $($adapt)*,
            fused_cpugpu_t8_tiny: fused(CpuGpu, 8, TINY) $($adapt)*,
            fused_cpugpu_t8_huge: fused(CpuGpu, 8, HUGE) $($adapt)*,
            fused_gpu_spill: fused(Gpu, 1, SPILL) $($adapt)*,
            fused_gpu_tiny: fused(Gpu, 1, TINY) $($adapt)*,
            fused_gpu_huge: fused(Gpu, 1, HUGE) $($adapt)*,

            // The FASTQ entry points.
            fastq_streaming: Row { entry: FastqStreaming, ..BASE } $($adapt)*,
            fused_fastq_spill: fused_fastq(SPILL) $($adapt)*,
            fused_fastq_tiny: fused_fastq(TINY) $($adapt)*,
            fused_fastq_huge: fused_fastq(HUGE) $($adapt)*,
        }
    };
}
