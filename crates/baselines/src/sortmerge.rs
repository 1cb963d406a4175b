use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dna::{Kmer, SeqRead};
use hashgraph::{edge_slots_for, DeBruijnGraph, SubGraph, VertexData};

use crate::step1::{reference_partition, OwnedSuperkmer};
use crate::{BaselineError, BaselineReport, DbgBuilder, Result};

/// bcalm2-style partition–sort–merge builder (see the crate docs).
///
/// One minimizer partition is expanded and processed at a time, so the
/// peak working set is a single partition's `<vertex, edge>` pair list —
/// the memory frugality Table III credits bcalm2 with — at the price of an
/// `O(n log n)` sort per partition where ParaHash hashes in `O(n)`.
///
/// # Examples
///
/// ```
/// use baselines::{DbgBuilder, SortMergeBuilder};
/// use dna::SeqRead;
///
/// # fn main() -> baselines::Result<()> {
/// let reads = vec![SeqRead::from_ascii("r", b"ACGTTGCATGGACCAGTT")];
/// let (graph, _) = SortMergeBuilder::new(7, 4, 8)?.build(&reads)?;
/// assert_eq!(graph.total_kmer_occurrences(), 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SortMergeBuilder {
    k: usize,
    p: usize,
    partitions: usize,
    external: Option<(PathBuf, usize)>,
}

impl SortMergeBuilder {
    /// A sort-merge builder over `partitions` minimizer partitions.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidParams`] unless
    /// `1 ≤ p ≤ k ≤ MAX_K` and `partitions ≥ 1`.
    pub fn new(k: usize, p: usize, partitions: usize) -> Result<SortMergeBuilder> {
        if k == 0 || k > dna::MAX_K || p == 0 || p > k {
            return Err(BaselineError::InvalidParams(format!("k={k}, p={p}")));
        }
        if partitions == 0 {
            return Err(BaselineError::InvalidParams("partitions must be >= 1".into()));
        }
        Ok(SortMergeBuilder { k, p, partitions, external: None })
    }

    /// Switches to *external* sorting, as disk-based tools in this family
    /// actually operate: pairs are spilled to sorted run files of at most
    /// `run_pairs` entries in `work_dir`, then k-way merged. The in-memory
    /// working set becomes one run plus the merge heads, at the cost of
    /// writing and re-reading every pair — the multi-pass I/O overhead the
    /// paper attributes to partition-sort-merge assemblers (§II-B).
    pub fn external(mut self, work_dir: impl Into<PathBuf>, run_pairs: usize) -> SortMergeBuilder {
        self.external = Some((work_dir.into(), run_pairs.max(16)));
        self
    }

    /// Expands the `<vertex, edge-slots>` pairs of one partition.
    fn expand_pairs(&self, superkmers: &[OwnedSuperkmer]) -> Vec<(Kmer, [Option<u8>; 2])> {
        let mut pairs = Vec::new();
        for sk in superkmers {
            let core = &sk.core;
            let last = core.len() - self.k;
            for (i, kmer) in core.kmers(self.k).enumerate() {
                let left = if i > 0 { Some(core.base(i - 1)) } else { sk.left_ext };
                let right = if i < last { Some(core.base(i + self.k)) } else { sk.right_ext };
                let (canon, orient) = kmer.canonical();
                pairs.push((canon, edge_slots_for(orient, left, right)));
            }
        }
        pairs
    }

    /// Folds a sorted pair stream into merged `(vertex, data)` entries.
    fn merge_sorted<I>(pairs: I) -> Vec<(Kmer, VertexData)>
    where
        I: IntoIterator<Item = (Kmer, [Option<u8>; 2])>,
    {
        let mut entries: Vec<(Kmer, VertexData)> = Vec::new();
        for (canon, slots) in pairs {
            match entries.last_mut() {
                Some((last, data)) if *last == canon => {
                    data.count += 1;
                    for s in slots.into_iter().flatten() {
                        data.edges[s as usize] += 1;
                    }
                }
                _ => {
                    let mut data = VertexData { count: 1, edges: [0; 8] };
                    for s in slots.into_iter().flatten() {
                        data.edges[s as usize] += 1;
                    }
                    entries.push((canon, data));
                }
            }
        }
        entries
    }

    /// External-sort path: spill sorted runs to disk, k-way merge.
    fn build_partition_external(
        &self,
        superkmers: &[OwnedSuperkmer],
        work_dir: &std::path::Path,
        run_pairs: usize,
        partition_idx: usize,
    ) -> std::io::Result<(SubGraph, usize)> {
        const PAIR_BYTES: usize = 34; // 4×u64 key words + 2 slot bytes

        std::fs::create_dir_all(work_dir)?;
        // Phase 1: expand into sorted runs on disk.
        let mut run_paths = Vec::new();
        let mut run: Vec<(Kmer, [Option<u8>; 2])> = Vec::with_capacity(run_pairs);
        let mut peak = 0usize;
        let mut spill = |run: &mut Vec<(Kmer, [Option<u8>; 2])>| -> std::io::Result<()> {
            if run.is_empty() {
                return Ok(());
            }
            run.sort_by_key(|a| a.0);
            let path = work_dir.join(format!("p{partition_idx}-run{}.pairs", run_paths.len()));
            let mut w = BufWriter::new(std::fs::File::create(&path)?);
            for (kmer, slots) in run.iter() {
                for word in kmer.words() {
                    w.write_all(&word.to_le_bytes())?;
                }
                w.write_all(&[slots[0].unwrap_or(255), slots[1].unwrap_or(255)])?;
            }
            w.flush()?;
            run_paths.push(path);
            run.clear();
            Ok(())
        };
        for sk in superkmers {
            for pair in self.expand_pairs(std::slice::from_ref(sk)) {
                run.push(pair);
                peak = peak.max(run.len());
                if run.len() >= run_pairs {
                    spill(&mut run)?;
                }
            }
        }
        spill(&mut run)?;

        // Phase 2: k-way merge of the sorted runs.
        let k = self.k;
        let mut readers: Vec<BufReader<std::fs::File>> = run_paths
            .iter()
            .map(|p| std::fs::File::open(p).map(BufReader::new))
            .collect::<std::io::Result<_>>()?;
        let next_of = |r: &mut BufReader<std::fs::File>| -> std::io::Result<Option<(Kmer, [Option<u8>; 2])>> {
            let mut buf = [0u8; PAIR_BYTES];
            match r.read_exact(&mut buf) {
                Ok(()) => {
                    let mut words = [0u64; 4];
                    for (j, w) in words.iter_mut().enumerate() {
                        *w = u64::from_le_bytes(buf[j * 8..j * 8 + 8].try_into().expect("in range"));
                    }
                    let kmer = Kmer::from_words(words, k).expect("valid key");
                    let decode = |b: u8| (b != 255).then_some(b);
                    Ok(Some((kmer, [decode(buf[32]), decode(buf[33])])))
                }
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
                Err(e) => Err(e),
            }
        };
        // Min-heap over (key, run index); Reverse for smallest-first.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        type MergeHead = Reverse<(Kmer, usize, [Option<u8>; 2])>;
        let mut heap: BinaryHeap<MergeHead> = BinaryHeap::new();
        for (i, r) in readers.iter_mut().enumerate() {
            if let Some((kmer, slots)) = next_of(r)? {
                heap.push(Reverse((kmer, i, slots)));
            }
        }
        let mut merged: Vec<(Kmer, [Option<u8>; 2])> = Vec::new();
        while let Some(Reverse((kmer, i, slots))) = heap.pop() {
            merged.push((kmer, slots));
            if let Some((next, s)) = next_of(&mut readers[i])? {
                heap.push(Reverse((next, i, s)));
            }
        }
        for p in &run_paths {
            let _ = std::fs::remove_file(p);
        }
        Ok((SubGraph::new(self.k, Self::merge_sorted(merged)), peak))
    }

    /// Sort-merges one partition in memory: expand pairs, sort by vertex,
    /// merge runs.
    fn build_partition(&self, superkmers: &[OwnedSuperkmer]) -> (SubGraph, usize) {
        let mut pairs = self.expand_pairs(superkmers);
        let peak = pairs.len();
        // Sort by vertex; equal vertices become adjacent runs.
        pairs.sort_by_key(|a| a.0);
        (SubGraph::new(self.k, Self::merge_sorted(pairs)), peak)
    }
}

impl DbgBuilder for SortMergeBuilder {
    fn name(&self) -> &str {
        "sort-merge"
    }

    fn build(&self, reads: &[SeqRead]) -> Result<(DeBruijnGraph, BaselineReport)> {
        let started = Instant::now();
        let t0 = Instant::now();
        let seqs: Vec<dna::PackedSeq> = reads.iter().map(|r| r.seq().clone()).collect();
        let parts = reference_partition(&seqs, self.k, self.p, self.partitions)?;
        let partition_time = t0.elapsed();

        let mut graph = DeBruijnGraph::new(self.k);
        let mut sort_time = Duration::ZERO;
        let mut peak_pairs = 0usize;
        for (idx, part) in parts.iter().enumerate() {
            let t0 = Instant::now();
            let (sub, peak) = match &self.external {
                None => self.build_partition(part),
                Some((dir, run_pairs)) => self
                    .build_partition_external(part, dir, *run_pairs, idx)
                    .map_err(|e| {
                        BaselineError::InvalidParams(format!("external sort i/o failed: {e}"))
                    })?,
            };
            sort_time += t0.elapsed();
            peak_pairs = peak_pairs.max(peak);
            graph.absorb(sub);
        }
        // Peak: one partition's pair list (~48 B each) + the growing graph.
        let peak_bytes = peak_pairs as u64 * 48 + graph.approx_bytes() as u64;
        let report = BaselineReport {
            name: self.name().to_owned(),
            elapsed: started.elapsed(),
            peak_bytes,
            phases: vec![("partition".into(), partition_time), ("sort-merge".into(), sort_time)],
        };
        Ok((graph, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_graph;

    fn reads() -> Vec<SeqRead> {
        vec![
            SeqRead::from_ascii("a", b"ACGTTGCATGGACCAGTTACGGATCAGGCATT"),
            SeqRead::from_ascii("b", b"TGATGGATGATGGATGGTAGCATACGTTGCAT"),
            SeqRead::from_ascii("c", b"ACGTTGCATGGACCAGTTACGGATCAGGCATT"),
        ]
    }

    #[test]
    fn sort_merge_matches_reference() {
        for partitions in [1, 4, 16] {
            let (g, report) = SortMergeBuilder::new(7, 4, partitions).unwrap().build(&reads()).unwrap();
            assert_eq!(g, reference_graph(&reads(), 7), "partitions={partitions}");
            assert_eq!(report.phases.len(), 2);
        }
    }

    #[test]
    fn more_partitions_lower_peak() {
        let (_, few) = SortMergeBuilder::new(7, 4, 1).unwrap().build(&reads()).unwrap();
        let (_, many) = SortMergeBuilder::new(7, 4, 16).unwrap().build(&reads()).unwrap();
        assert!(
            many.peak_bytes <= few.peak_bytes,
            "more partitions should not increase peak ({} vs {})",
            many.peak_bytes,
            few.peak_bytes
        );
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(SortMergeBuilder::new(0, 1, 4).is_err());
        assert!(SortMergeBuilder::new(5, 6, 4).is_err());
        assert!(SortMergeBuilder::new(5, 3, 0).is_err());
    }

    #[test]
    fn external_sort_matches_in_memory() {
        let dir = std::env::temp_dir().join(format!("sm-ext-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let in_mem = SortMergeBuilder::new(7, 4, 4).unwrap();
        // Tiny runs (32 pairs) force many spill files and a real merge.
        let external = SortMergeBuilder::new(7, 4, 4).unwrap().external(&dir, 32);
        let (a, _) = in_mem.build(&reads()).unwrap();
        let (b, report) = external.build(&reads()).unwrap();
        assert_eq!(a, b, "external sort must produce the identical graph");
        assert_eq!(report.name, "sort-merge");
        // Run files are cleaned up.
        let leftovers = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftovers, 0, "run files must be deleted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn external_sort_with_multiword_keys() {
        let dir = std::env::temp_dir().join(format!("sm-ext-big-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let long = "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATGCCGGATTAACGG";
        let rs = vec![SeqRead::from_ascii("l", long.as_bytes())];
        let k = 41; // two key words
        let (a, _) = SortMergeBuilder::new(k, 15, 2).unwrap().build(&rs).unwrap();
        let (b, _) = SortMergeBuilder::new(k, 15, 2).unwrap().external(&dir, 16).build(&rs).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let (g, _) = SortMergeBuilder::new(7, 4, 4).unwrap().build(&[]).unwrap();
        assert_eq!(g.distinct_vertices(), 0);
    }
}
