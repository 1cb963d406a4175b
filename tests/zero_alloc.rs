//! The zero-allocation contracts of the hot loops: once buffers, tables
//! and indexes are warm, the Step-1 emit path, the Step-2 replay path,
//! the `TablePool` cycle and the SIMD pack + scan kernels never touch
//! the heap. Each test does its set-up outside the counted window and
//! asserts exactly zero `alloc`/`realloc` calls inside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use datagen::{GenomeSpec, Sequencer, SequencingSpec};
use dna::PackedSeq;
use hashgraph::{ConcurrentDbgTable, ReplayKernel, ReplayPipeline, TablePool, VertexTable};
use msp::{encode_superkmer_slice, PartitionRouter, PartitionSlices, SuperkmerScanner};

/// Counts `alloc`/`alloc_zeroed`/`realloc` calls (not bytes) per thread.
struct CountingAlloc;

thread_local! {
    // Per thread, so the parallel test runner's other threads cannot
    // perturb a measurement. Const-initialised and without a destructor:
    // touching it from inside `alloc` neither allocates nor races TLS
    // teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// plain thread-local integer.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many times this thread allocated inside it.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.get();
    let out = f();
    (ALLOCS.get() - before, out)
}

/// Pins the process-wide scalar gate for one test and restores it on
/// drop. Every hot path consults the gate, and an un-pinned gate answers
/// its first caller by reading the environment (an allocation), so each
/// contract test holds one of these across its counted window.
struct Kernels {
    _guard: std::sync::MutexGuard<'static, ()>,
}

impl Kernels {
    fn pin(scalar: bool) -> Kernels {
        let _guard = dna::simd::override_guard();
        dna::simd::set_force_scalar_override(Some(scalar));
        Kernels { _guard }
    }
}

impl Drop for Kernels {
    fn drop(&mut self) {
        dna::simd::set_force_scalar_override(None);
    }
}

const K: usize = 27;
const P: usize = 11;
const PARTS: usize = 16;

fn corpus() -> Vec<PackedSeq> {
    let genome = GenomeSpec::new(20_000).seed(11).repeat_fraction(0.2).generate();
    Sequencer::new(SequencingSpec { read_len: 101, coverage: 4.0, seed: 11, ..Default::default() })
        .sequence(&genome)
        .into_iter()
        .map(|r| r.into_seq())
        .collect()
}

#[test]
fn counting_allocator_is_installed() {
    // Without this, an allocator that silently failed to install would
    // turn the four contracts below into vacuous passes.
    let (allocs, _v) = counted(|| std::hint::black_box(Vec::<u8>::with_capacity(1)));
    assert_ne!(allocs, 0, "the counter must move across a heap allocation");
}

#[test]
fn step1_emit_path_does_not_allocate() {
    let _mode = Kernels::pin(false);
    let reads = corpus();
    let scanner = SuperkmerScanner::new(K, P).unwrap();
    let router = PartitionRouter::new(PARTS).unwrap();
    let mut cursor = scanner.cursor();
    let mut buffers: Vec<Vec<u8>> = vec![Vec::new(); PARTS];
    // Scan + route + encode straight from the read's packed words, as
    // `parahash`'s sharded Step-1 workers do into their staging shards.
    let mut emit_corpus = |buffers: &mut [Vec<u8>]| {
        for read in &reads {
            scanner.scan_runs(read, &mut cursor, |first, last, m| {
                let left = first.checked_sub(1).map(|j| read.base(j));
                let right = (last + K < read.len()).then(|| read.base(last + K));
                let out = &mut buffers[router.route_minimizer(&m)];
                encode_superkmer_slice(read, first, last, K, left, right, out);
            });
        }
    };
    emit_corpus(&mut buffers); // grows the buffers and the cursor once
    let staged: Vec<usize> = buffers.iter().map(Vec::len).collect();
    buffers.iter_mut().for_each(Vec::clear); // capacity retained
    let (allocs, ()) = counted(|| emit_corpus(&mut buffers));
    assert_eq!(allocs, 0, "Step-1 emit allocated over {} reads", reads.len());
    assert!(staged.iter().sum::<usize>() > 0);
    assert_eq!(buffers.iter().map(Vec::len).collect::<Vec<_>>(), staged, "warm pass diverged");
}

#[test]
fn step2_replay_path_does_not_allocate() {
    let reads = corpus();
    // The word kernel, the wide-k cursor path, and the word kernel's
    // forced-scalar twin.
    for (k, scalar) in [(K, false), (40, false), (K, true)] {
        let _mode = Kernels::pin(scalar);
        let bytes = msp::partition_in_memory(&reads, k, P, 1).unwrap().remove(0);
        let slices = PartitionSlices::index(&bytes, k, P).unwrap();
        let table = ConcurrentDbgTable::new(slices.total_kmers() * 2, k);
        let kernel = ReplayKernel::new(k);
        // A cold table, so the counted window covers insertions as well
        // as counter updates.
        let (allocs, ()) = counted(|| {
            let mut pipe = ReplayPipeline::new(kernel, &table);
            for i in 0..slices.len() {
                pipe.record_view(&slices.view(i)).unwrap();
            }
            pipe.flush().unwrap();
        });
        assert_eq!(allocs, 0, "k={k} scalar={scalar}: replay of {} records", slices.len());
        assert_eq!(table.contention().operations(), slices.total_kmers() as u64);
    }
}

#[test]
fn warm_table_pool_cycle_does_not_allocate() {
    let _mode = Kernels::pin(false);
    let kmers: Vec<dna::Kmer> = corpus()[0].kmers(K).map(|k| k.canonical().0).collect();
    let pool = TablePool::new(K);
    let cycle = || {
        let table = pool.checkout(4096);
        for kmer in &kmers {
            table.record(kmer, [Some(1), None]).unwrap();
        }
        assert!(table.distinct() > 0);
    }; // drop returns the table to its shelf
    cycle(); // the one allocation this capacity class ever needs
    let (allocs, ()) = counted(|| (0..100).for_each(|_| cycle()));
    assert_eq!(allocs, 0, "100 warm checkout → record → drop cycles");
    assert_eq!((pool.allocations(), pool.reuses()), (1, 100));
}

#[test]
fn simd_pack_and_scan_do_not_allocate() {
    let _mode = Kernels::pin(false);
    let lines: Vec<Vec<u8>> = corpus().iter().map(PackedSeq::to_ascii).collect();
    let scanner = SuperkmerScanner::new(K, P).unwrap();
    let mut cursor = scanner.cursor(); // captures the single-word fast path
    let mut seq = PackedSeq::new();
    // ASCII line → packed words → minimizer runs, one reused sequence and
    // one reused cursor, as the FASTQ ingest drives them.
    let mut pack_and_scan = || {
        let mut runs = 0usize;
        for line in &lines {
            seq.clear();
            seq.extend_from_ascii(line);
            scanner.scan_runs(&seq, &mut cursor, |_, _, _| runs += 1);
        }
        runs
    };
    let warm = pack_and_scan(); // sizes the word buffer
    let (allocs, runs) = counted(pack_and_scan);
    assert_eq!(allocs, 0, "pack + scan of {} lines with warm buffers", lines.len());
    assert!(runs > 0);
    assert_eq!(runs, warm, "warm pass diverged");
}
