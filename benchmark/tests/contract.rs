//! The benchmark's own promises: seeded corpora, the oracle check, the
//! arithmetic behind the tables and `compare`, and the names it emits
//! against the names `BENCHMARK.json` lists.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use parabench::cli::contract_line;
use parabench::corpus::Corpus;
use parabench::harness::{self, Plan, Sample, WorkloadResult};
use parabench::json::{self, Value};
use parabench::spec::{self, Better, CorpusKind, END_TO_END, PER_LAYER, WORKLOADS};
use parabench::stats::{verdict, Summary, Verdict};

/// A scratch directory under `<benchmark>/out`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = harness::out_dir().join(format!("test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn same_seed_same_corpus_other_seed_other_corpus() {
    let dir = Scratch::new("seed");
    let generate = |seed| Corpus::generate(CorpusKind::Chr14, seed, 0.02, &dir.0).unwrap();
    let (a, b, c) = (generate(7), generate(7), generate(8));
    assert_eq!(a.fastq_digest, b.fastq_digest);
    assert_eq!(a.graph_digest, b.graph_digest);
    assert_ne!(a.fastq_digest, c.fastq_digest);
    assert_ne!(a.graph_digest, c.graph_digest);
    assert!(a.kmers > a.distinct && a.distinct > 0);
}

#[test]
fn a_wrong_digest_is_a_failed_sample_without_timing() {
    let line = |digest: &str| {
        format!(
            r#"{{"ok": true, "build_s": 1.5, "cpu_s": 2.0, "io_write_bytes": 10, "peak_rss_mib": 3.0, "digest": "{digest}"}}"#
        )
    };
    let good = Sample::from_child(&line("abc"), "abc");
    let bad = Sample::from_child(&line("abd"), "abc");
    assert!(good.error.is_none());
    assert!(bad
        .error
        .as_deref()
        .is_some_and(|e| e.contains("differs from the oracle")));
    assert!(Sample::from_child("not json", "abc").error.is_some());
    assert!(
        Sample::from_child(r#"{"ok": false, "error": "boom"}"#, "abc")
            .error
            .is_some()
    );

    let result = WorkloadResult {
        workload: &WORKLOADS[0],
        kmers: 3_000,
        // Sample 0 is the warm-up.
        samples: vec![good.clone(), good, bad],
        layers: Vec::new(),
    };
    assert_eq!(result.failed(), 1);
    assert_eq!(result.values("build_s"), vec![1.5]);
    assert_eq!(result.values("kmers_per_s"), vec![2_000.0]);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1.0, 2.0, 4.0, 7.0, 11.0], n=4) == [1.5, 4.0, 9.0]
    let s = Summary::of(&[7.0, 1.0, 11.0, 4.0, 2.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 9.0));
    assert_eq!((s.min, s.max, s.n), (1.0, 11.0, 5));
    assert!((s.spread() - 7.5 / 4.0).abs() < 1e-12);
    // statistics.quantiles([3.0, 1.0, 2.0, 4.0], n=4) == [1.25, 2.5, 3.75]
    let s = Summary::of(&[3.0, 1.0, 2.0, 4.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = Summary::of(&ten).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    assert!(Summary::of(&[]).is_none());
    assert_eq!(Summary::of(&[5.0]).unwrap().spread(), 0.0);
}

#[test]
fn compare_applies_the_bound_and_admits_what_it_cannot_resolve() {
    let tight = |centre: f64| Summary::of(&[centre * 0.99, centre, centre * 1.01]).unwrap();
    let base = tight(100.0);
    // Steady runs: the bound decides.
    assert_eq!(
        verdict(&base, &tight(105.0), Better::Lower, 0.10),
        Verdict::Ok
    );
    assert_eq!(
        verdict(&base, &tight(115.0), Better::Lower, 0.10),
        Verdict::Regressed
    );
    assert_eq!(
        verdict(&base, &tight(85.0), Better::Lower, 0.10),
        Verdict::Ok
    );
    assert_eq!(
        verdict(&base, &tight(85.0), Better::Higher, 0.10),
        Verdict::Regressed
    );
    // Spread wider than the bound and the runs overlap: unresolved, even
    // when the medians sit within the bound.
    let wide = Summary::of(&[80.0, 100.0, 130.0]).unwrap();
    assert_eq!(
        verdict(&base, &wide, Better::Lower, 0.10),
        Verdict::Unresolved
    );
    // Wide but disjoint: order decides.
    let wide_worse = Summary::of(&[150.0, 200.0, 260.0]).unwrap();
    let wide_better = Summary::of(&[20.0, 40.0, 60.0]).unwrap();
    assert_eq!(
        verdict(&base, &wide_worse, Better::Lower, 0.10),
        Verdict::Regressed
    );
    assert_eq!(
        verdict(&base, &wide_better, Better::Lower, 0.10),
        Verdict::Ok
    );
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names(list: &Value) -> Vec<String> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_owned())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_spec() {
    let file = benchmark_json();
    assert_eq!(
        names(file.get("workloads").unwrap()),
        WORKLOADS.map(|w| w.name)
    );
    for (listed, w) in file
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .zip(&WORKLOADS)
    {
        assert_eq!(listed.get("why").unwrap().as_str(), Some(w.why));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    let listed = file.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (listed, m) in listed.iter().zip(&END_TO_END) {
        assert_eq!(listed.get("name").unwrap().as_str(), Some(m.name));
        assert_eq!(listed.get("unit").unwrap().as_str(), Some(m.unit));
        assert_eq!(
            listed.get("better").unwrap().as_str(),
            Some(m.better.as_str())
        );
        assert_eq!(listed.get("bound").unwrap().as_f64(), Some(m.bound));
        assert!(m.bound <= 0.25);
    }
    let listed = file.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), PER_LAYER.len());
    assert!(PER_LAYER.len() <= 128);
    for (listed, m) in listed.iter().zip(&PER_LAYER) {
        assert_eq!(listed.get("name").unwrap().as_str(), Some(m.name));
        assert_eq!(listed.get("unit").unwrap().as_str(), Some(m.unit));
        assert_eq!(
            listed.get("better").unwrap().as_str(),
            Some(m.better.as_str())
        );
    }
    let all: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );
    assert_eq!(file.get("paths").unwrap().as_arr().unwrap().len(), 1);
}

/// Every workload end to end at a fiftieth of the size: two samples
/// each, then the traced runs. Checks what the harness emits against
/// what `BENCHMARK.json` lists, and that the workloads separate the
/// layers the way the README's interaction table predicts.
#[test]
fn every_workload_emits_exactly_the_listed_metrics() {
    harness::set_child_exe(PathBuf::from(env!("CARGO_BIN_EXE_parabench")));
    let dir = Scratch::new("e2e");
    let plan = Plan {
        workloads: WORKLOADS.iter().collect(),
        seed: 5,
        seconds: 0.0,
        scale: 0.02,
        max_samples: Some(2),
        setup_reps: 1,
    };
    let setup = harness::set_up(&dir.0, &plan).unwrap();
    assert_eq!(
        setup.crashed.as_ref().map(|(_, committed)| *committed),
        Some(32)
    );
    let host = parabench::host::record(plan.seed, plan.scale, &dir.0, &setup);
    let mut results = harness::measure(&dir.0, &setup, &plan);
    harness::trace_workloads(&dir.0, &setup, &host, &dir.0, &mut results);

    let file = benchmark_json();
    let listed_e2e: BTreeSet<String> = names(file.get("end_to_end").unwrap()).into_iter().collect();
    let listed_layers: BTreeSet<String> =
        names(file.get("per_layer").unwrap()).into_iter().collect();
    let emitted_workloads: Vec<&str> = results.iter().map(|r| r.workload.name).collect();
    assert_eq!(emitted_workloads, names(file.get("workloads").unwrap()));

    let layer = |workload: &str, metric: &str| -> f64 {
        let result = results
            .iter()
            .find(|r| r.workload.name == workload)
            .unwrap();
        assert!(spec::per_layer(metric).is_some(), "{metric} is not listed");
        result.layer(metric)
    };
    for result in &results {
        let name = result.workload.name;
        assert_eq!(
            result.failed(),
            0,
            "{name}: a sample failed or mismatched the oracle"
        );
        assert_eq!(result.samples.len(), 2, "{name}");
        for (trace, listed) in [(false, &listed_e2e), (true, &listed_layers)] {
            let line = contract_line(result, &setup, trace);
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct").unwrap().as_bool(), Some(true), "{name}");
            let emitted: BTreeSet<String> = line
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(&emitted, listed, "{name}, trace {trace}");
        }
        for m in END_TO_END.iter().filter(|m| m.name != "setup_s") {
            assert!(
                result.median(m.name) > 0.0,
                "{name}: {} must never be 0",
                m.name
            );
        }

        // The trace file: host record, metrics, and a span tree the
        // child already verified as well formed.
        let trace_file = dir.0.join(format!("trace-{name}.json"));
        let trace = json::parse(&std::fs::read_to_string(trace_file).unwrap()).unwrap();
        assert!(trace.get("host").unwrap().get("nproc").is_some());
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").unwrap().as_str() == Some("replay")));
        assert!(events
            .iter()
            .all(|e| e.get("dur").unwrap().as_f64().unwrap() >= 0.0));
        assert!(layer(name, "trace.e2e_t1_s") > 0.0 && layer(name, "trace.layers_sum_s") > 0.0);
    }

    // Disk handoff only where partitions round-trip through files.
    for metric in [
        "msp.writer.append_s",
        "msp.writer.finish_s",
        "msp.reader.load_s",
    ] {
        assert_eq!(layer("fused_fastq", metric), 0.0, "{metric}");
        assert!(layer("two_phase_fastq", metric) > 0.0, "{metric}");
    }
    // No ingest where the reads are in memory, nor on a resume that
    // skips Step 1.
    for metric in [
        "dna.input.map_s",
        "dna.fastq.parse_s",
        "dna.fastq.records",
        "dna.simd.pack_s",
    ] {
        assert_eq!(layer("distinct_reads", metric), 0.0, "{metric}");
        assert_eq!(layer("resume_half", metric), 0.0, "{metric}");
        assert!(layer("fused_fastq", metric) > 0.0, "{metric}");
    }
    // Spill and sub-split only under the budgets; sharding only with
    // workers.
    for w in &WORKLOADS {
        for metric in [
            "msp.subsplit.split_s",
            "msp.subsplit.fanout_sum",
            "msp.store.spills",
        ] {
            assert_eq!(
                layer(w.name, metric) > 0.0,
                w.name == "bounded_mem",
                "{}: {metric}",
                w.name
            );
        }
        assert_eq!(
            layer(w.name, "parahash.shard.spawn_s") > 0.0,
            w.name == "sharded_w2",
            "{}",
            w.name
        );
        assert_eq!(
            layer(w.name, "parahash.shard.overhead_s") != 0.0,
            w.name == "sharded_w2",
            "{}",
            w.name
        );
    }
    // Hits against inserts.
    assert!(layer("distinct_reads", "hashgraph.build.insert_share") > 0.5);
    assert!(layer("fused_fastq", "hashgraph.build.insert_share") < 0.2);
    // The resume reads what the others write.
    assert!(layer("resume_half", "parahash.step2.decode_subgraph_s") > 0.0);
    assert!(layer("resume_half", "parahash.journal.replay_s") > 0.0);
    assert_eq!(
        layer("fused_fastq", "parahash.step2.decode_subgraph_s"),
        0.0
    );
    assert_eq!(layer("resume_half", "pipeline.commit.files"), 32.0);
    assert_eq!(layer("fused_fastq", "pipeline.commit.files"), 64.0);
}

#[test]
fn every_listed_workload_and_metric_resolves() {
    for w in &WORKLOADS {
        assert_eq!(spec::workload(w.name), Some(w));
    }
    assert!(spec::workload("nope").is_none());
    assert!(spec::end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
    assert!(spec::per_layer("trace.unattributed_share").is_some());
}
