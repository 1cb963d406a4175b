/// Inputs to the Property-1 graph-size estimate and the hash-table sizing
/// rule of §IV-A.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingParams {
    /// Average sequencing errors per read (λ). The paper cites λ ∈ {1, 2}
    /// for real short-read data and uses λ = 2 in its experiments.
    pub lambda: f64,
    /// Hash-table load ratio α ∈ (0, 1]; the paper uses 0.5–0.8.
    pub alpha: f64,
}

impl Default for SizingParams {
    fn default() -> SizingParams {
        SizingParams { lambda: 2.0, alpha: 0.65 }
    }
}

/// Property 1: the expected number of distinct vertices in the De Bruijn
/// graph of `n_reads` length-`read_len` reads over a genome of
/// `genome_size` bp, with Poisson(λ) errors per read, is
/// `Θ(λ/4 · L·N + Ge)`.
///
/// Each sequencing error corrupts up to K k-mers, almost all of which
/// become *new* distinct (erroneous) vertices, so errors — not the genome
/// — dominate the graph size of deep read sets.
///
/// # Examples
///
/// ```
/// use hashgraph::expected_distinct_vertices;
///
/// // Error-free input: the graph is just the genome.
/// assert_eq!(expected_distinct_vertices(0.0, 100, 1_000, 10_000), 10_000.0);
/// // λ=2: the error term λ/4·L·N dominates.
/// let v = expected_distinct_vertices(2.0, 100, 1_000, 10_000);
/// assert_eq!(v, 0.5 * 100.0 * 1_000.0 + 10_000.0);
/// ```
pub fn expected_distinct_vertices(
    lambda: f64,
    read_len: usize,
    n_reads: usize,
    genome_size: usize,
) -> f64 {
    (lambda / 4.0) * read_len as f64 * n_reads as f64 + genome_size as f64
}

/// The §IV-A hash-table sizing rule for one partition: with `n_kmers`
/// k-mer occurrences routed to the partition, allocate
/// `λ/(4α) · n_kmers` slots.
///
/// Rationale: `Σᵢ n_kmersⁱ ≈ L·N`, Property 1 bounds the distinct
/// vertices of the whole graph by `λ/4 · L·N + Ge ≈ λ/4 · L·N`, and the
/// MSP cut spreads distinct vertices proportionally to each partition's
/// k-mer count; dividing by the load ratio α leaves open-addressing
/// headroom. Compared with the naive one-slot-per-occurrence allocation
/// this halves the table at λ = 2, α = 1 — the saving the paper quotes.
///
/// The returned capacity is never below 16 (probe headroom for tiny
/// partitions).
///
/// # Examples
///
/// ```
/// use hashgraph::{table_capacity_for, SizingParams};
///
/// let cap = table_capacity_for(1_000_000, SizingParams { lambda: 2.0, alpha: 0.5 });
/// assert_eq!(cap, 1_000_000); // 2/(4·0.5) = 1.0 × n_kmers
/// ```
///
/// # Panics
///
/// Panics if `alpha` is not in `(0, 1]` or `lambda` is negative.
pub fn table_capacity_for(n_kmers: u64, params: SizingParams) -> usize {
    assert!(params.alpha > 0.0 && params.alpha <= 1.0, "load ratio α must be in (0,1]");
    assert!(params.lambda >= 0.0, "λ cannot be negative");
    let slots = (params.lambda / (4.0 * params.alpha)) * n_kmers as f64;
    (slots.ceil() as usize).max(16)
}

/// Projected size of the Property-1 table a partition of `k`-mers with
/// `n_kmers` k-mer occurrences would need, in bytes — the §IV-A capacity
/// rule, rounded up to the [`TablePool`](crate::TablePool) class Step 2
/// could check it out at, priced at [`slot_price`](crate::slot_price)
/// `(k)` a slot.
///
/// This is the out-of-core admission check: it can be computed from the
/// Step-1 manifest alone, *before* any table is allocated. The table a
/// build then checks out is at most this: Step 2 sizes it at the smaller
/// of Property 1 and the partition's collapsed k-mers over α, and a
/// table holds at most [`slot_price`](crate::slot_price)`(k)` a slot
/// however full ([`ConcurrentDbgTable::held_bytes`](crate::ConcurrentDbgTable::held_bytes))
/// — so a partition that passes the projection also fits the budget once
/// built (capacity-doubling retries on pathological inputs excepted).
///
/// # Examples
///
/// ```
/// use hashgraph::{projected_table_bytes_for, table_capacity_for, SizingParams, TablePool};
///
/// let params = SizingParams::default();
/// let slots = TablePool::capacity_class(table_capacity_for(1_000_000, params));
/// assert_eq!(projected_table_bytes_for(1_000_000, 27, params), slots as u64 * 70);
/// assert_eq!(projected_table_bytes_for(1_000_000, 101, params), slots as u64 * 76);
/// ```
///
/// # Panics
///
/// Panics if `alpha` is not in `(0, 1]` or `lambda` is negative.
pub fn projected_table_bytes_for(n_kmers: u64, k: usize, params: SizingParams) -> u64 {
    let slots = crate::TablePool::capacity_class(table_capacity_for(n_kmers, params));
    slots as u64 * crate::slot_price(k) as u64
}

/// [`projected_table_bytes_for`] at any k ≤ 96, where every slot is
/// priced at [`SLOT_BYTES`](crate::SLOT_BYTES).
///
/// # Examples
///
/// ```
/// use hashgraph::{projected_table_bytes, table_capacity_for, SizingParams, TablePool};
///
/// let params = SizingParams::default();
/// let slots = TablePool::capacity_class(table_capacity_for(1_000_000, params));
/// assert_eq!(projected_table_bytes(1_000_000, params), slots as u64 * 70);
/// ```
///
/// # Panics
///
/// Panics if `alpha` is not in `(0, 1]` or `lambda` is negative.
pub fn projected_table_bytes(n_kmers: u64, params: SizingParams) -> u64 {
    projected_table_bytes_for(n_kmers, 1, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_free_graph_is_genome_sized() {
        assert_eq!(expected_distinct_vertices(0.0, 101, 37_000, 88_000), 88_000.0);
    }

    #[test]
    fn error_term_scales_linearly_with_input() {
        let base = expected_distinct_vertices(1.0, 100, 1000, 0);
        let double_reads = expected_distinct_vertices(1.0, 100, 2000, 0);
        let double_lambda = expected_distinct_vertices(2.0, 100, 1000, 0);
        assert_eq!(double_reads, 2.0 * base);
        assert_eq!(double_lambda, 2.0 * base);
    }

    #[test]
    fn paper_scale_sanity() {
        // Human Chr14: λ≈1, L=101, N=37M, Ge=88M. Paper measured 452M
        // distinct vertices; the Θ-bound should be the right order.
        let est = expected_distinct_vertices(1.0, 101, 37_000_000, 88_000_000);
        let measured = 452_000_000.0;
        assert!(est > measured / 3.0 && est < measured * 10.0, "estimate {est} wildly off");
    }

    #[test]
    fn capacity_halves_at_lambda_two_alpha_one() {
        let naive = 1_000_000u64; // one slot per kmer occurrence
        let cap = table_capacity_for(naive, SizingParams { lambda: 2.0, alpha: 1.0 });
        assert_eq!(cap, naive as usize / 2);
    }

    #[test]
    fn capacity_has_floor() {
        assert_eq!(table_capacity_for(0, SizingParams::default()), 16);
        assert_eq!(table_capacity_for(3, SizingParams::default()), 16);
    }

    #[test]
    fn lower_alpha_means_more_headroom() {
        let tight = table_capacity_for(10_000, SizingParams { lambda: 2.0, alpha: 0.8 });
        let loose = table_capacity_for(10_000, SizingParams { lambda: 2.0, alpha: 0.5 });
        assert!(loose > tight);
    }

    #[test]
    #[should_panic(expected = "load ratio")]
    fn invalid_alpha_panics() {
        table_capacity_for(10, SizingParams { lambda: 1.0, alpha: 0.0 });
    }

    #[test]
    #[should_panic(expected = "λ cannot be negative")]
    fn negative_lambda_panics() {
        table_capacity_for(10, SizingParams { lambda: -1.0, alpha: 0.5 });
    }

    #[test]
    fn projection_matches_allocated_table() {
        // The admission check prices the Property-1 class at
        // `slot_price(k)` a slot; the table a pool checkout of that class
        // hands out costs its slot words, and a cell of its own width a
        // vertex — class rounding included in both. Full, at any α, it
        // stays within the price.
        for k in [27, 33, 96, 97, 128] {
            let pool = crate::TablePool::new(k);
            for alpha in [0.65, 1.0] {
                for n_kmers in [0u64, 3, 1_000, 97_959, 123_456] {
                    let params = SizingParams { alpha, ..SizingParams::default() };
                    let capacity = table_capacity_for(n_kmers, params);
                    let class = crate::TablePool::capacity_class(capacity);
                    let what = format!("k={k} α={alpha} n_kmers={n_kmers}");
                    let projected = projected_table_bytes_for(n_kmers, k, params);
                    assert_eq!(projected, (class * crate::slot_price(k)) as u64, "{what}");
                    if k <= 96 {
                        assert_eq!(projected, projected_table_bytes(n_kmers, params), "{what}");
                    }
                    let table = pool.checkout(capacity);
                    assert_eq!(table.held_bytes(), class * 8, "{what}");
                    let full = class * (8 + crate::cell_bytes(k));
                    assert!(full as u64 <= projected, "{what}: {full} > {projected}");
                }
            }
        }
    }

    #[test]
    fn projection_scales_with_input() {
        let params = SizingParams::default();
        let one = projected_table_bytes(1_000_000, params);
        let two = projected_table_bytes(2_000_000, params);
        assert!(two >= 2 * one - crate::SLOT_BYTES as u64 && two <= 2 * one);
    }
}
