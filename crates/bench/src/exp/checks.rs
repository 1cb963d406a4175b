//! `experiments checks` — a fast, self-verifying pass over the
//! reproduction's key claims. Each check re-measures one load-bearing
//! shape at small scale and asserts it programmatically, so regressions
//! in the reproduction (not just in the code) fail CI. Exits non-zero on
//! any failure.

use hashgraph::{projected_table_bytes, slot_bytes, table_capacity_for, SizingParams};
use msp::DistributionSummary;
use pipeline::perfmodel::Regime;
use pipeline::IoMode;

use crate::exp::header;
use crate::fmt::Table;
use crate::workloads::{self, Setup, K, P};

struct Check {
    claim: &'static str,
    detail: String,
    pass: bool,
}

fn check(claim: &'static str, pass: bool, detail: String) -> Check {
    Check { claim, detail, pass }
}

/// Runs every claim check at reduced scale; returns process exit code.
pub fn checks(scale: f64) -> i32 {
    let scale = scale * 0.3; // checks favour speed over resolution
    header("checks", "programmatic verification of the reproduction's key shapes");
    let mut results: Vec<Check> = Vec::new();
    let data = workloads::chr14(scale);
    let reference = baselines::reference_graph(&data.reads, K);

    // Table I: duplicates dominate distinct roughly 1:6 (paper: ~6).
    {
        let g = &reference;
        let ratio = g.duplicate_vertices() as f64 / g.distinct_vertices().max(1) as f64;
        results.push(check(
            "table1: duplicate:distinct ratio in the paper's regime (4..12)",
            (4.0..12.0).contains(&ratio),
            format!("ratio {ratio:.2}"),
        ));
    }

    // Table II: doubling partitions roughly halves the max table.
    {
        let table_for = |n: usize| -> u64 {
            let parts = workloads::partitions(&data.reads, P, n);
            let kms: Vec<u64> =
                workloads::indexed(&parts, P).iter().map(|s| s.total_kmers() as u64).collect();
            let summary = DistributionSummary::from_counts(&kms);
            table_capacity_for(summary.max, SizingParams::default()) as u64
        };
        let (t16, t256) = (table_for(16), table_for(256));
        let factor = t16 as f64 / t256.max(1) as f64;
        results.push(check(
            "table2: 16→256 partitions shrinks the max table ~16x (8..32)",
            (8.0..32.0).contains(&factor),
            format!("factor {factor:.1}"),
        ));
    }

    // Fig 6: larger P balances partitions and fragments superkmers.
    {
        let stats = |p: usize| {
            let parts = workloads::partitions(&data.reads, p, 32);
            let indexed = workloads::indexed(&parts, p);
            let kms: Vec<u64> = indexed.iter().map(|s| s.total_kmers() as u64).collect();
            let total_sk: u64 = indexed.iter().map(|s| s.len() as u64).sum();
            (DistributionSummary::from_counts(&kms).coefficient_of_variation(), total_sk)
        };
        let (cv5, sk5) = stats(5);
        let (cv17, sk17) = stats(17);
        results.push(check(
            "fig6: CV falls and superkmer count rises from P=5 to P=17",
            cv17 < cv5 / 2.0 && sk17 > sk5,
            format!("CV {cv5:.3}→{cv17:.3}, superkmers {sk5}→{sk17}"),
        ));
    }

    // lockstats: state transfer locks <30% of operations.
    {
        let parts = workloads::partitions(&data.reads, P, 8);
        let indexed = workloads::indexed(&parts, P);
        let mut stats = hashgraph::ContentionStats::default();
        for part in &indexed {
            let table = hashgraph::ConcurrentDbgTable::new(workloads::roomy_capacity(part), K);
            hashgraph::build_subgraph_with(&table, part, 2).expect("build");
            stats.merge(&hashgraph::VertexTable::contention(&table));
        }
        results.push(check(
            "lockstats: lock reduction exceeds 70% (paper: ~80%)",
            stats.lock_reduction() > 0.7,
            format!("reduction {:.1}%", 100.0 * stats.lock_reduction()),
        ));

        // The production build replays each distinct superkmer once,
        // weighted, into tables its cores own; its insertions and updates
        // must still be the per-occurrence counts above, so the locked
        // fraction lockstats reports is the build's.
        let ph = workloads::runner("chk-lock", Setup::CpuOnly, 8, IoMode::Unthrottled);
        let outcome = ph.run(&data.reads).expect("build");
        workloads::cleanup(&ph);
        let s2 = &outcome.report.step2;
        let build = s2.contention.expect("step 2 reports contention");
        results.push(check(
            "lockstats: the build counts every occurrence yet replays fewer k-mers",
            (build.insertions, build.updates) == (stats.insertions, stats.updates)
                && s2.replayed_kmers < build.operations(),
            format!(
                "{} ins + {} upd (per occurrence {} + {}), replayed {} of {}",
                build.insertions,
                build.updates,
                stats.insertions,
                stats.updates,
                s2.replayed_kmers,
                build.operations()
            ),
        ));

        // The same build sizes each table from its partition's distinct
        // records: none runs out of slots, and the largest is smaller
        // than the Property-1 projection admission priced for the
        // largest partition.
        let largest = indexed.iter().map(|part| part.total_kmers() as u64).max().unwrap_or(0);
        let projected = projected_table_bytes(largest, SizingParams::default());
        results.push(check(
            "sizing: tables hold every vertex without resizing, under the Property-1 projection",
            s2.resizes == 0 && s2.peak_table_bytes < projected,
            format!(
                "{} resizes, largest table {} of {} projected B ({:.2}x)",
                s2.resizes,
                s2.peak_table_bytes,
                projected,
                s2.peak_table_bytes as f64 / projected.max(1) as f64
            ),
        ));

        // The same build keeps each table's vertices in dense cells beside
        // one-word slots: its largest table holds less than that table
        // would in the paper's slot-for-slot layout (`slot_bytes(K)` a
        // slot), and the graph is unchanged.
        let slots = s2.peak_table_slots;
        let slot_layout = slots * slot_bytes(K) as u64;
        results.push(check(
            "dense: Step 2's largest table < slot_bytes(k) x its slots, graph unchanged",
            s2.peak_table_bytes < slot_layout && outcome.graph == reference,
            format!(
                "largest table {} B, {} slots at {} B = {} B ({:.2}x)",
                s2.peak_table_bytes,
                slots,
                slot_bytes(K),
                slot_layout,
                s2.peak_table_bytes as f64 / slot_layout.max(1) as f64
            ),
        ));

        // The same build's Step 1 combines each partition's identical
        // records — a superkmer and its reverse complement among them,
        // both stored in one orientation — into weighted ones before it
        // stores them: on the chr14 shape that stores under half the
        // bytes it staged, and the graph stays the reference's.
        let s1 = outcome.report.step1.step1_stats.expect("step 1 reports emit stats");
        results.push(check(
            "combining: Step 1 stores < 0.5x the bytes it staged, graph unchanged",
            2 * s1.stored_bytes < s1.staging_bytes && outcome.graph == reference,
            format!(
                "staged {} B, stored {} B ({:.2}x)",
                s1.staging_bytes,
                s1.stored_bytes,
                s1.stored_bytes as f64 / s1.staging_bytes.max(1) as f64
            ),
        ));
    }

    // orientation: Step 1 stores each superkmer in one orientation, so
    // the reads reverse complemented build the reference graph, and the
    // reads together with that copy replay exactly the k-mers the reads
    // alone do — each superkmer and its twin combine into one record.
    {
        let flipped: Vec<dna::SeqRead> =
            data.reads.iter().map(|r| dna::SeqRead::new(r.id().to_owned(), r.seq().revcomp())).collect();
        let both: Vec<dna::SeqRead> = data.reads.iter().chain(&flipped).cloned().collect();
        let build = |reads: &[dna::SeqRead]| {
            let ph = workloads::runner("chk-orient", Setup::CpuOnly, 8, IoMode::Unthrottled);
            let outcome = ph.run(reads).expect("build");
            workloads::cleanup(&ph);
            (outcome.report.step2.replayed_kmers, outcome.graph)
        };
        let (alone, _) = build(&data.reads);
        let (reversed, graph) = build(&flipped);
        let (together, _) = build(&both);
        results.push(check(
            "orientation: reads + their reverse complements replay as many k-mers, graph unchanged",
            together == alone && reversed == alone && graph == reference,
            format!("replayed {alone} (reads), {reversed} (reverse complemented), {together} (both)"),
        ));
    }

    // encoding: 2-bit records are under 0.35x of text.
    {
        let parts = workloads::partitions(&data.reads, P, 16);
        let enc: u64 = parts.iter().map(|part| part.len() as u64).sum();
        let txt: u64 = workloads::indexed(&parts, P)
            .iter()
            .flat_map(|slices| slices.iter())
            .map(|record| record.core_len() as u64 + 3)
            .sum();
        let ratio = enc as f64 / txt.max(1) as f64;
        results.push(check(
            "encoding: encoded output is ~1/4 of text (< 0.35x)",
            ratio < 0.35,
            format!("ratio {ratio:.2}"),
        ));
    }

    // Fig 11: work share tracks speed-ideal within 15 points.
    {
        let ph = workloads::runner("chk-f11", Setup::CpuOneGpu, 32, IoMode::Unthrottled);
        let s2 = ph.run(&data.reads).expect("build").report.step2;
        workloads::cleanup(&ph);
        let real = s2.pipeline.work_fractions();
        let ideal = s2.pipeline.ideal_fractions();
        let max_gap = real
            .iter()
            .zip(&ideal)
            .map(|(r, i)| (r - i).abs())
            .fold(0.0f64, f64::max);
        results.push(check(
            "fig11: work distribution within 15 points of speed-ideal",
            max_gap < 0.15,
            format!("max gap {:.1} points", 100.0 * max_gap),
        ));
    }

    // Fig 14: under throttled I/O the Eq.-1 model is accurate and the
    // regime classifier reports I/O bound.
    {
        let io_mode = workloads::case2_io();
        let ph = workloads::runner("chk-f14", Setup::CpuOnly, 32, io_mode);
        let report = ph.run(&data.reads).expect("build").report;
        let (s1, s2) = (report.step1, report.step2);
        workloads::cleanup(&ph);
        let acc1 = s1.model_accuracy();
        let acc2 = s2.model_accuracy();
        results.push(check(
            "fig14: Eq.-1 accuracy within 0.5x..2x under disk-bound I/O",
            (0.5..2.0).contains(&acc1) && (0.5..2.0).contains(&acc2),
            format!("accuracy step1 {acc1:.2}, step2 {acc2:.2}"),
        ));
        results.push(check(
            "fig14: disk-bound runs classify as IoBound/Mixed",
            s1.regime() != Regime::ComputeBound && s2.regime() != Regime::ComputeBound,
            format!("regimes {:?}/{:?}", s1.regime(), s2.regime()),
        ));
    }

    // Correctness keystone: all builders agree.
    {
        use baselines::DbgBuilder as _;
        let ph = workloads::runner("chk-eq", Setup::CpuOneGpu, 16, IoMode::Unthrottled);
        let outcome = ph.run(&data.reads).expect("run");
        workloads::cleanup(&ph);
        let (soap, _) = baselines::SoapBuilder::new(K, 2).build(&data.reads).expect("soap");
        let (sm, _) = baselines::SortMergeBuilder::new(K, P, 16)
            .expect("params")
            .build(&data.reads)
            .expect("sm");
        results.push(check(
            "all builders produce the identical graph",
            outcome.graph == reference && soap == reference && sm == reference,
            format!("{} vertices", reference.distinct_vertices()),
        ));
    }

    let mut t = Table::new(&["check", "result", "detail"]);
    let mut failures = 0;
    for c in &results {
        if !c.pass {
            failures += 1;
        }
        t.row_owned(vec![
            c.claim.to_string(),
            if c.pass { "PASS".into() } else { "FAIL".into() },
            c.detail.clone(),
        ]);
    }
    print!("{}", t.render());
    println!("\n{} checks, {} failed", results.len(), failures);
    if failures > 0 {
        1
    } else {
        0
    }
}
