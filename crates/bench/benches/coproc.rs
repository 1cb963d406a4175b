//! Model-driven co-processing benchmarks.
//!
//! **`coproc/*`** — one fused construction (CPU roster + one simulated
//! GPU) per split policy: the full static sweep `static:0.00` …
//! `static:1.00` plus the §IV Eq. 2 online autotuner. The acceptance
//! criterion this group tracks: `auto` lands within ~10 % of the best
//! static split without being told the device balance in advance.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use datagen::{GenomeSpec, Sequencer, SequencingSpec};
use dna::SeqRead;
use hetsim::SimGpuConfig;
use parahash::{ParaHash, ParaHashConfig, SplitPolicy};
use pipeline::IoMode;

const K: usize = 27;
const P: usize = 11;
const PARTS: usize = 16;

fn corpus() -> Vec<SeqRead> {
    let genome = GenomeSpec::new(40_000).seed(13).repeat_fraction(0.2).generate();
    Sequencer::new(SequencingSpec {
        read_len: 101,
        coverage: 4.0,
        seed: 13,
        ..Default::default()
    })
    .sequence(&genome)
}

fn runner(dir: &str, split: SplitPolicy) -> ParaHash {
    let config = ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(PARTS)
        .cpu_threads(4)
        .sim_gpu(SimGpuConfig::default())
        .split(split)
        .partition_memory_budget(u64::MAX)
        .io_mode(IoMode::Unthrottled)
        .work_dir(std::env::temp_dir().join(dir))
        .build()
        .unwrap();
    let _ = std::fs::remove_dir_all(config.work_dir());
    ParaHash::new(config).unwrap()
}

fn bench_coproc(c: &mut Criterion) {
    let reads = corpus();
    let total_kmers: u64 = reads.iter().map(|r| (r.len() - K + 1) as u64).sum();

    let mut g = c.benchmark_group("coproc");
    g.sample_size(10);
    g.throughput(Throughput::Elements(total_kmers));

    for frac in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        g.bench_function(format!("static/{frac:.2}"), |b| {
            let ph = runner(&format!("parahash-bench-coproc-s{:03}", (frac * 100.0) as u32),
                SplitPolicy::Static(frac));
            b.iter(|| ph.run_fused(&reads).unwrap().graph.distinct_vertices());
            let _ = std::fs::remove_dir_all(ph.config().work_dir());
        });
    }
    g.bench_function("auto", |b| {
        let ph = runner("parahash-bench-coproc-auto", SplitPolicy::Auto);
        b.iter(|| ph.run_fused(&reads).unwrap().graph.distinct_vertices());
        let _ = std::fs::remove_dir_all(ph.config().work_dir());
    });
    g.finish();
}

criterion_group!(benches, bench_coproc);
criterion_main!(benches);
