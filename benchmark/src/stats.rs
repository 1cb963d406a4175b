//! Order statistics and the regression verdict `compare` applies.

use crate::spec::Better;

/// Median, extremes and quartiles of one metric's samples. With fewer
/// than 20 samples no percentile above the median has ten samples beyond
/// it, so none is reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        Some(Summary {
            n: sorted.len(),
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            q1,
            q3,
        })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// Quartiles of a sorted, non-empty slice, as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them; a single value is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// What `compare` says about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is no worse than the baseline's by more
    /// than the bound.
    Ok,
    /// Worse by more than the bound, and the spread does not explain it.
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sets of
    /// samples overlap: the data cannot say.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of the baseline median the candidate is worse (negative
/// when it is better).
pub fn worse_by(base: &Summary, cand: &Summary, better: Better) -> f64 {
    if base.median == 0.0 {
        return 0.0;
    }
    let change = (cand.median - base.median) / base.median.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Applies a metric's bound to two sample sets. Where either set's
/// spread exceeds the bound the verdict is `Unresolved` unless the sets
/// are disjoint, in which case their order decides.
pub fn verdict(base: &Summary, cand: &Summary, better: Better, bound: f64) -> Verdict {
    let worse = worse_by(base, cand, better);
    if base.spread().max(cand.spread()) <= bound {
        return if worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let (cand_all_better, cand_all_worse) = match better {
        Better::Lower => (cand.max < base.min, cand.min > base.max),
        Better::Higher => (cand.min > base.max, cand.max < base.min),
    };
    if cand_all_better {
        Verdict::Ok
    } else if cand_all_worse && worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}
