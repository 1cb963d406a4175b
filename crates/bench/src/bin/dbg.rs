//! `dbg` — a small end-user CLI over the ParaHash library:
//!
//! ```text
//! dbg build <reads.fastq> --out <graph.dbg> [-k 27] [-p 11] [--partitions 64]
//!           [--gpus n] [--work-dir dir] [--workers n] [--listen addr:port]
//!           [--table-memory-budget bytes] [--out-of-core]
//!     Construct the De Bruijn graph of a FASTQ file and store it.
//!     `--workers n` shards Step 2 across n child processes (this same
//!     binary, re-exec'ed); `--listen addr:port` additionally admits
//!     remote workers (see `dbg worker`) with no token asked — bind it
//!     to a trusted interface — and ships every worker its partition
//!     payloads over the wire; `--table-memory-budget` caps each
//!     partition's hash table, aborting over-budget partitions unless
//!     `--out-of-core` lets them build via sub-partitioning.
//!
//! dbg worker --connect <addr:port> [--id n]
//!     Join a remote parent's shard cluster: claim partition leases,
//!     build them in memory from the shipped bytes, stream the subgraphs
//!     back (nothing is written to this machine's disk).
//!     Run one per machine (or more) against the parent's `--listen`
//!     address; exits when the parent finishes the run.
//!
//! dbg stats <graph.dbg> [--spectrum]
//!     Print graph statistics (and the multiplicity spectrum). Here and
//!     below `<graph.dbg>` is any vertex-run container: a stored graph or
//!     one `subgraphs/sub-NNNNN.dbg` of a library run's work directory.
//!
//! dbg unitigs <graph.dbg> --out <contigs.fasta> [--min-count c] [--clean]
//!     Error-filter, optionally tip-clip/bubble-pop, compact unitigs, and
//!     write them as FASTA contigs.
//!
//! dbg diff <a.dbg> <b.dbg>
//!     Compare two stored graphs; exit 0 when identical, 1 when they
//!     differ (printing a summary of the differences).
//! ```

use std::io::BufWriter;
use std::path::Path;

use dna::{FastaWriter, SeqRead};
use hashgraph::{
    clip_tips, load_graph, pop_bubbles, save_graph, unitigs_with, DeBruijnGraph, Spectrum,
    StoreError,
};
use parahash::{ParaHash, ParaHashConfig};
use pipeline::commit;

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

fn parse_args(takes_value: &[&str]) -> Args {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut switches = std::collections::HashSet::new();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
            if takes_value.contains(&name) {
                i += 1;
                let v = argv.get(i).unwrap_or_else(|| die(&format!("--{name} needs a value")));
                flags.insert(name.to_string(), v.clone());
            } else {
                switches.insert(name.to_string());
            }
        } else {
            positional.push(a.clone());
        }
        i += 1;
    }
    Args { positional, flags, switches }
}

fn main() {
    // A `--workers n` build re-execs this binary as its Step-2 workers
    // (run token, parent address and worker id travel through the
    // environment, never argv); serve the lease loop and exit before
    // parsing anything.
    if parahash::worker_from_env().unwrap_or_else(|e| die(&format!("shard worker failed: {e}"))) {
        return;
    }
    let args = parse_args(&[
        "out",
        "k",
        "p",
        "partitions",
        "gpus",
        "work-dir",
        "min-count",
        "workers",
        "table-memory-budget",
        "listen",
        "connect",
        "id",
    ]);
    match args.positional.first().map(String::as_str) {
        Some("build") => build(&args),
        Some("stats") => stats(&args),
        Some("unitigs") => unitigs_cmd(&args),
        Some("diff") => diff(&args),
        Some("worker") => worker(&args),
        _ => die("usage: dbg <build|stats|unitigs|diff|worker> ... (see the binary's doc comment)"),
    }
}

fn worker(args: &Args) {
    let addr = args
        .flags
        .get("connect")
        .unwrap_or_else(|| die("worker: --connect <addr:port> required"));
    let id = num(args, "id", std::process::id() as usize);
    eprintln!("joining shard cluster at {addr} as worker {id}");
    parahash::run_remote_worker(addr, id)
        .unwrap_or_else(|e| die(&format!("remote worker failed: {e}")));
    eprintln!("worker {id} finished");
}

fn num<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> T {
    match args.flags.get(name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| die(&format!("--{name}: cannot parse {v:?}"))),
    }
}

fn build(args: &Args) {
    let input = args.positional.get(1).unwrap_or_else(|| die("build: missing <reads.fastq>"));
    let out = args.flags.get("out").unwrap_or_else(|| die("build: --out <graph.dbg> required"));
    let k = num(args, "k", 27usize);
    let p = num(args, "p", 11usize);
    let partitions = num(args, "partitions", 64usize);
    let gpus = num(args, "gpus", 0usize);
    let workers = num(args, "workers", 0usize);
    let table_budget = num(args, "table-memory-budget", 0u64);
    let work_dir = args
        .flags
        .get("work-dir")
        .cloned()
        .unwrap_or_else(|| std::env::temp_dir().join("parahash-dbg-cli").display().to_string());
    // Only a work dir this command owns — the default one, or one that did
    // not exist yet — is deleted after the build: a directory the user
    // named may hold the input, or anything else.
    let owned = !args.flags.contains_key("work-dir") || !Path::new(&work_dir).exists();

    let mut builder = ParaHashConfig::builder().k(k).p(p).partitions(partitions).work_dir(&work_dir);
    for _ in 0..gpus {
        builder = builder.sim_gpu(hetsim::SimGpuConfig::default());
    }
    builder = builder.workers(workers).out_of_core(args.switches.contains("out-of-core"));
    if let Some(listen) = args.flags.get("listen") {
        builder = builder.listen(listen.clone());
    }
    if table_budget > 0 {
        builder = builder.table_memory_budget(table_budget);
    }
    let config = builder.build().unwrap_or_else(|e| die(&format!("bad configuration: {e}")));
    let ph = ParaHash::new(config).unwrap_or_else(|e| die(&format!("cannot start: {e}")));
    eprintln!("building k={k} p={p} partitions={partitions} gpus={gpus} workers={workers} from {input}");
    let outcome = ph
        .run_fastq_streaming(input)
        .unwrap_or_else(|e| die(&format!("construction failed: {e}")));
    eprintln!("{}", outcome.report.summary());
    store_graph(&outcome.graph, Path::new(out))
        .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    eprintln!("graph stored in {out}");
    if owned {
        let _ = std::fs::remove_dir_all(&work_dir);
    }
}

/// Stores `graph` at `out` the way every other artifact is committed:
/// streamed to `out`'s `*.tmp` staging name, then promoted (fsync, rename,
/// directory fsync). A crash leaves a `*.tmp`; a failed write removes it;
/// neither leaves a torn file at the final name.
fn store_graph(graph: &DeBruijnGraph, out: &Path) -> Result<(), StoreError> {
    let tmp = commit::tmp_path(out);
    let stored = save_graph(graph, &tmp).and_then(|()| Ok(commit::commit_staged(&tmp, out)?));
    if stored.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    stored
}

fn stats(args: &Args) {
    let path = args.positional.get(1).unwrap_or_else(|| die("stats: missing <graph.dbg>"));
    let graph = load_graph(path).unwrap_or_else(|e| die(&format!("cannot load {path}: {e}")));
    println!("k                  : {}", graph.k());
    println!("distinct vertices  : {}", graph.distinct_vertices());
    println!("kmer occurrences   : {}", graph.total_kmer_occurrences());
    println!("duplicate vertices : {}", graph.duplicate_vertices());
    println!("edge multiplicity  : {}", graph.total_edge_multiplicity());
    println!("approx memory      : {} bytes", graph.approx_bytes());
    let spectrum = Spectrum::of(&graph);
    if let Some(peak) = spectrum.coverage_peak() {
        println!("coverage peak      : {peak}");
    }
    if let Some(th) = spectrum.error_threshold() {
        println!(
            "error threshold    : {th} ({:.1}% of vertices below)",
            100.0 * spectrum.error_fraction()
        );
    }
    if args.switches.contains("spectrum") {
        println!("\nmultiplicity  vertices");
        for (m, &n) in spectrum.histogram().iter().enumerate() {
            if n > 0 {
                println!("{m:>12}  {n}");
            }
        }
    }
}

fn unitigs_cmd(args: &Args) {
    let path = args.positional.get(1).unwrap_or_else(|| die("unitigs: missing <graph.dbg>"));
    let out = args.flags.get("out").unwrap_or_else(|| die("unitigs: --out <contigs.fasta> required"));
    let mut graph = load_graph(path).unwrap_or_else(|e| die(&format!("cannot load {path}: {e}")));
    let k = graph.k();

    let min_count = match args.flags.get("min-count") {
        Some(v) => v.parse().unwrap_or_else(|_| die("--min-count: not a number")),
        None => Spectrum::of(&graph).error_threshold().unwrap_or(1),
    };
    let removed = graph.filter_min_count(min_count);
    eprintln!("multiplicity filter (>= {min_count}) removed {removed} vertices");

    if args.switches.contains("clean") {
        let tips = clip_tips(&mut graph, 2 * k);
        let bubbles = pop_bubbles(&mut graph, 3 * k);
        eprintln!("cleaning removed {tips} tip vertices, {bubbles} bubble vertices");
    }

    let mut contigs = unitigs_with(&graph, min_count);
    contigs.sort_by_key(|u| std::cmp::Reverse(u.len()));
    let file = std::fs::File::create(out).unwrap_or_else(|e| die(&format!("cannot create {out}: {e}")));
    let mut w = FastaWriter::new(BufWriter::new(file));
    for (i, u) in contigs.iter().enumerate() {
        let id = format!("unitig_{i} len={} kmers={} mean_cov={:.1}", u.len(), u.vertices(), u.mean_count());
        w.write_record(&SeqRead::new(id, u.seq().clone()))
            .unwrap_or_else(|e| die(&format!("write failed: {e}")));
    }
    w.into_inner().unwrap_or_else(|e| die(&format!("flush failed: {e}")));
    let total: usize = contigs.iter().map(|u| u.len()).sum();
    eprintln!("wrote {} unitigs ({} bp) to {out}", contigs.len(), total);
}

fn diff(args: &Args) {
    let (pa, pb) = match (&args.positional.get(1), &args.positional.get(2)) {
        (Some(a), Some(b)) => (a.as_str(), b.as_str()),
        _ => die("diff: expected <a.dbg> <b.dbg>"),
    };
    let a = load_graph(pa).unwrap_or_else(|e| die(&format!("cannot load {pa}: {e}")));
    let b = load_graph(pb).unwrap_or_else(|e| die(&format!("cannot load {pb}: {e}")));
    if a.k() != b.k() {
        println!("k differs: {} vs {}", a.k(), b.k());
        std::process::exit(1);
    }
    if a == b {
        println!("graphs are identical ({} vertices)", a.distinct_vertices());
        return;
    }
    let only_a = a.iter().filter(|(k, _)| b.get(k).is_none()).count();
    let only_b = b.iter().filter(|(k, _)| a.get(k).is_none()).count();
    let differing = a
        .iter()
        .filter(|(k, v)| b.get(k).is_some_and(|w| w != *v))
        .count();
    println!("graphs differ:");
    println!("  vertices only in {pa}: {only_a}");
    println!("  vertices only in {pb}: {only_b}");
    println!("  shared vertices with different counts/edges: {differing}");
    std::process::exit(1);
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> DeBruijnGraph {
        let reads = [SeqRead::from_ascii("r", b"ACGTTGCATGGACCAGTTACGGATCAGGCATT")];
        baselines::reference_graph(&reads, 9)
    }

    #[test]
    fn store_graph_promotes_a_complete_file_and_leaves_no_staging() {
        let dir = std::env::temp_dir().join(format!("dbg-store-ok-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("graph.dbg");
        let g = graph();
        store_graph(&g, &out).unwrap();
        assert_eq!(load_graph(&out).unwrap(), g);
        assert!(!commit::tmp_path(&out).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The staging name is a symlink to `/dev/full`, so the write itself
    /// fails with ENOSPC — the disk-full case a plain `File::create` at
    /// the final name turned into a torn `graph.dbg`.
    #[test]
    #[cfg(target_os = "linux")]
    fn failed_write_leaves_no_file_at_the_final_name() {
        let dir = std::env::temp_dir().join(format!("dbg-store-full-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("graph.dbg");
        std::os::unix::fs::symlink("/dev/full", commit::tmp_path(&out)).unwrap();
        assert!(matches!(store_graph(&graph(), &out), Err(StoreError::Io(_))));
        assert!(!out.exists(), "nothing may appear at the final name");
        assert!(!commit::tmp_path(&out).exists(), "the staging name is cleaned up");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
