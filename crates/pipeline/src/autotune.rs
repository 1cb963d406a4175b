//! The online autotuner: the §IV performance model run as a scheduler.
//!
//! [`perfmodel`](crate::perfmodel) predicts step times from *measured*
//! component times; this module closes the loop. A [`SplitTuner`]
//! accumulates per-partition `T_cpu` / `T_gpu` / `T_io` observations
//! while a steered [`crate::run_pipeline`] is running, converts
//! the rolling rates into the Eq. 2 work split
//! ([`perfmodel::eq2_gpu_work_share`]), classifies the regime
//! ([`perfmodel::classify_regime`]), and answers the scheduler's one
//! question — *should the next partition go to the GPU queue?* — with
//! deficit rounding against the current target, so the realised split
//! tracks the target without randomness.
//!
//! The [`SplitPolicy`] escape hatches exist to *prove* the tuner changes
//! nothing but time: `static:<frac>` pins the split, `cpu` disables
//! offload entirely, and the determinism suite asserts all three produce
//! byte-identical graphs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::perfmodel::{self, Regime, StepComponents};

/// How the streaming scheduler splits partitions between the CPU and GPU
/// device classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitPolicy {
    /// Never dispatch to a GPU, even when one is in the roster.
    CpuOnly,
    /// Pin the GPU's share of partitions to a fixed fraction in `[0, 1]`.
    Static(f64),
    /// Steer the split toward the Eq. 2 optimum from rolling
    /// measurements (the default).
    Auto,
}

impl SplitPolicy {
    /// Parses the `--split` syntax: `cpu`, `auto`, or `static:<frac>`
    /// with `<frac>` in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown forms or an
    /// out-of-range fraction.
    pub fn parse(s: &str) -> Result<SplitPolicy, String> {
        match s {
            "cpu" => Ok(SplitPolicy::CpuOnly),
            "auto" => Ok(SplitPolicy::Auto),
            _ => {
                let Some(frac) = s.strip_prefix("static:") else {
                    return Err(format!(
                        "unknown split policy {s:?}: expected `cpu`, `auto`, or `static:<frac>`"
                    ));
                };
                let f: f64 = frac
                    .parse()
                    .map_err(|e| format!("bad static split fraction {frac:?}: {e}"))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(format!("static split fraction {f} outside [0, 1]"));
                }
                Ok(SplitPolicy::Static(f))
            }
        }
    }
}

impl std::fmt::Display for SplitPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitPolicy::CpuOnly => write!(f, "cpu"),
            SplitPolicy::Static(frac) => write!(f, "static:{frac:.2}"),
            SplitPolicy::Auto => write!(f, "auto"),
        }
    }
}

/// What the scheduler asks of a steering policy. Implemented by
/// [`SplitTuner`]; the trait exists so tests can inject fixed scripts.
///
/// `assign_gpu` is called from the (single) input thread, in dispatch
/// order; the `observe_*` hooks are called concurrently from the device
/// drivers and the output thread.
pub trait Steering: Sync {
    /// Whether partition `index` should be queued for the GPU class.
    fn assign_gpu(&self, index: usize) -> bool;
    /// One compute launch finished: which class ran it, the wall-clock it
    /// took, and its work units.
    fn observe_compute(&self, gpu: bool, busy: Duration, work: u64);
    /// The input stage spent `spent` materialising one partition.
    fn observe_input(&self, spent: Duration);
    /// The output stage spent `spent` absorbing one result.
    fn observe_output(&self, spent: Duration);
}

/// A frozen view of the tuner at one instant — what reports and the run
/// journal record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerSnapshot {
    /// The GPU work-share target currently steering dispatch.
    pub gpu_share: f64,
    /// Regime classification of the rolling measurements.
    pub regime: Regime,
    /// Partitions dispatched to the CPU class so far.
    pub cpu_assigned: usize,
    /// Partitions dispatched to the GPU class so far.
    pub gpu_assigned: usize,
}

/// Warm-start state recovered from a previous run's journal: the tuner
/// begins from the converged split instead of re-probing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerWarmStart {
    /// Final GPU work-share of the previous run.
    pub gpu_share: f64,
    /// Final regime of the previous run.
    pub regime: Regime,
}

/// The online autotuner (and the static-split executor — both policies
/// flow through the same deficit-rounded dispatch, so "autotuned ≡
/// static" is a measurement question, never a code-path question).
#[derive(Debug)]
pub struct SplitTuner {
    policy: SplitPolicy,
    n_gpus: usize,
    warm: Option<TunerWarmStart>,
    cpu_busy_ns: AtomicU64,
    cpu_launches: AtomicU64,
    gpu_busy_ns: AtomicU64,
    gpu_launches: AtomicU64,
    input_ns: AtomicU64,
    output_ns: AtomicU64,
    gpu_assigned: AtomicU64,
    total_assigned: AtomicU64,
}

/// The probe share used before the GPU has any measurement: give it a
/// real slice of the early partitions so Eq. 2 has a rate to work with.
const PROBE_SHARE: f64 = 0.5;

impl SplitTuner {
    /// A tuner for a roster with `n_gpus` GPU devices, optionally warm
    /// started from a previous run's recorded state.
    pub fn new(policy: SplitPolicy, n_gpus: usize, warm: Option<TunerWarmStart>) -> SplitTuner {
        SplitTuner {
            policy,
            n_gpus,
            warm,
            cpu_busy_ns: AtomicU64::new(0),
            cpu_launches: AtomicU64::new(0),
            gpu_busy_ns: AtomicU64::new(0),
            gpu_launches: AtomicU64::new(0),
            input_ns: AtomicU64::new(0),
            output_ns: AtomicU64::new(0),
            gpu_assigned: AtomicU64::new(0),
            total_assigned: AtomicU64::new(0),
        }
    }

    /// The policy this tuner executes.
    pub fn policy(&self) -> SplitPolicy {
        self.policy
    }

    /// The rolling measurements in the shape the §IV model consumes.
    /// Per-launch *mean* times (not totals), so the regime test compares
    /// steady-state stream rates the way Eq. 1 intends.
    pub fn components(&self) -> StepComponents {
        let r = Ordering::Relaxed;
        let mean = |total_ns: u64, n: u64| {
            Duration::from_nanos(total_ns.checked_div(n).unwrap_or(0))
        };
        let launches = self.cpu_launches.load(r) + self.gpu_launches.load(r);
        StepComponents {
            cpu_compute: mean(self.cpu_busy_ns.load(r), self.cpu_launches.load(r)),
            gpu: mean(self.gpu_busy_ns.load(r), self.gpu_launches.load(r)),
            input: mean(self.input_ns.load(r), launches.max(1)),
            output: mean(self.output_ns.load(r), launches.max(1)),
            partitions: launches as usize,
        }
    }

    /// Regime classification of the rolling measurements; starts from the
    /// warm-start regime until the first launches arrive.
    pub fn regime(&self) -> Regime {
        let c = self.components();
        if c.partitions == 0 {
            return self.warm.map(|w| w.regime).unwrap_or(Regime::Mixed);
        }
        perfmodel::classify_regime(&c)
    }

    /// The GPU share currently steering dispatch.
    ///
    /// * `cpu` / `static:<f>` policies: fixed (0 / `f`).
    /// * `auto`: [`perfmodel::eq2_gpu_work_share`] over the measured
    ///   per-launch rates. Until the GPU (or the CPU) has a measurement,
    ///   the warm-start share — or a 50 % probe — stands in. Under an
    ///   I/O-bound (Case 2) classification the share is halved: the disk
    ///   sets the pace, so host↔device transfers buy nothing, and the
    ///   split drifts back toward the CPU.
    pub fn target_gpu_share(&self) -> f64 {
        if self.n_gpus == 0 {
            return 0.0;
        }
        match self.policy {
            SplitPolicy::CpuOnly => 0.0,
            SplitPolicy::Static(f) => f.clamp(0.0, 1.0),
            SplitPolicy::Auto => {
                let r = Ordering::Relaxed;
                let (cl, gl) = (self.cpu_launches.load(r), self.gpu_launches.load(r));
                if gl == 0 || cl == 0 {
                    return self.warm.map(|w| w.gpu_share.clamp(0.0, 1.0)).unwrap_or(PROBE_SHARE);
                }
                let cpu = Duration::from_nanos(self.cpu_busy_ns.load(r) / cl);
                let gpu = Duration::from_nanos(self.gpu_busy_ns.load(r) / gl);
                let share = perfmodel::eq2_gpu_work_share(Some(cpu), gpu, self.n_gpus);
                if self.regime() == Regime::IoBound {
                    share * 0.5
                } else {
                    share
                }
            }
        }
    }

    /// A frozen view of the tuner for reports and the run journal.
    pub fn snapshot(&self) -> TunerSnapshot {
        let r = Ordering::Relaxed;
        let gpu = self.gpu_assigned.load(r) as usize;
        let total = self.total_assigned.load(r) as usize;
        TunerSnapshot {
            gpu_share: self.target_gpu_share(),
            regime: self.regime(),
            cpu_assigned: total - gpu,
            gpu_assigned: gpu,
        }
    }
}

impl Steering for SplitTuner {
    /// Deficit rounding: dispatch to the GPU exactly when doing so keeps
    /// the realised GPU fraction at or under the target. For a fixed
    /// target `f` over `n` dispatches this yields `round`-style pacing
    /// (`⌊f·n⌋`-ish GPU assignments, evenly interleaved), and when the
    /// target moves the realised split follows it partition by partition.
    fn assign_gpu(&self, _index: usize) -> bool {
        let target = self.target_gpu_share();
        let total = self.total_assigned.fetch_add(1, Ordering::Relaxed);
        let gpu = self.gpu_assigned.load(Ordering::Relaxed);
        let take = (gpu as f64 + 1.0) <= target * (total as f64 + 1.0) + 1e-12;
        if take {
            self.gpu_assigned.fetch_add(1, Ordering::Relaxed);
        }
        take
    }

    fn observe_compute(&self, gpu: bool, busy: Duration, _work: u64) {
        let ns = busy.as_nanos() as u64;
        if gpu {
            self.gpu_busy_ns.fetch_add(ns, Ordering::Relaxed);
            self.gpu_launches.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cpu_busy_ns.fetch_add(ns, Ordering::Relaxed);
            self.cpu_launches.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn observe_input(&self, spent: Duration) {
        self.input_ns.fetch_add(spent.as_nanos() as u64, Ordering::Relaxed);
    }

    fn observe_output(&self, spent: Duration) {
        self.output_ns.fetch_add(spent.as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(SplitPolicy::parse("cpu"), Ok(SplitPolicy::CpuOnly));
        assert_eq!(SplitPolicy::parse("auto"), Ok(SplitPolicy::Auto));
        assert_eq!(SplitPolicy::parse("static:0.25"), Ok(SplitPolicy::Static(0.25)));
        assert_eq!(SplitPolicy::parse("static:0"), Ok(SplitPolicy::Static(0.0)));
        assert_eq!(SplitPolicy::parse("static:1"), Ok(SplitPolicy::Static(1.0)));
        assert!(SplitPolicy::parse("static:1.5").is_err());
        assert!(SplitPolicy::parse("static:x").is_err());
        assert!(SplitPolicy::parse("gpu").is_err());
        assert_eq!(SplitPolicy::CpuOnly.to_string(), "cpu");
        assert_eq!(SplitPolicy::Static(0.5).to_string(), "static:0.50");
        assert_eq!(SplitPolicy::Auto.to_string(), "auto");
    }

    #[test]
    fn static_split_deficit_rounds_to_the_fraction() {
        for (frac, n, expect_gpu) in [(0.0, 40, 0), (1.0, 40, 40), (0.5, 40, 20), (0.25, 40, 10)] {
            let t = SplitTuner::new(SplitPolicy::Static(frac), 1, None);
            let gpu = (0..n).filter(|&i| t.assign_gpu(i)).count();
            assert_eq!(gpu, expect_gpu, "frac {frac}");
        }
        // Interleaving, not front-loading: a 0.5 split alternates
        // (CPU first — the deficit only opens after a CPU assignment).
        let t = SplitTuner::new(SplitPolicy::Static(0.5), 1, None);
        let picks: Vec<bool> = (0..6).map(|i| t.assign_gpu(i)).collect();
        assert_eq!(picks, [false, true, false, true, false, true]);
    }

    #[test]
    fn cpu_only_and_gpuless_rosters_never_offload() {
        let t = SplitTuner::new(SplitPolicy::CpuOnly, 2, None);
        assert!((0..16).all(|i| !t.assign_gpu(i)));
        let t = SplitTuner::new(SplitPolicy::Auto, 0, None);
        assert!((0..16).all(|i| !t.assign_gpu(i)));
    }

    #[test]
    fn auto_probes_then_tracks_eq2() {
        let t = SplitTuner::new(SplitPolicy::Auto, 1, None);
        assert_eq!(t.target_gpu_share(), PROBE_SHARE, "no measurements yet: probe");
        // GPU twice as fast as the CPU per launch → Eq. 2 share 2/3.
        t.observe_compute(false, Duration::from_millis(12), 1);
        t.observe_compute(true, Duration::from_millis(6), 1);
        assert!((t.target_gpu_share() - 2.0 / 3.0).abs() < 1e-9);
        // Dispatch now follows that target.
        let gpu = (0..300).filter(|&i| t.assign_gpu(i)).count();
        assert!((190..=210).contains(&gpu), "≈2/3 of 300, got {gpu}");
    }

    #[test]
    fn io_bound_regime_damps_the_share() {
        let t = SplitTuner::new(SplitPolicy::Auto, 1, None);
        t.observe_compute(false, Duration::from_millis(6), 1);
        t.observe_compute(true, Duration::from_millis(6), 1);
        let balanced = t.target_gpu_share();
        assert!((balanced - 0.5).abs() < 1e-9);
        // Disk slower than either processor → Case 2 → share halves.
        t.observe_input(Duration::from_millis(40));
        assert_eq!(t.regime(), Regime::IoBound);
        assert!((t.target_gpu_share() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn warm_start_seeds_share_and_regime() {
        let warm = TunerWarmStart { gpu_share: 0.8, regime: Regime::ComputeBound };
        let t = SplitTuner::new(SplitPolicy::Auto, 1, Some(warm));
        assert_eq!(t.target_gpu_share(), 0.8, "warm share replaces the probe");
        assert_eq!(t.regime(), Regime::ComputeBound);
        // Fresh measurements then take over.
        t.observe_compute(false, Duration::from_millis(10), 1);
        t.observe_compute(true, Duration::from_millis(10), 1);
        assert!((t.target_gpu_share() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn snapshot_counts_assignments() {
        let t = SplitTuner::new(SplitPolicy::Static(0.5), 1, None);
        for i in 0..10 {
            t.assign_gpu(i);
        }
        let s = t.snapshot();
        assert_eq!(s.cpu_assigned + s.gpu_assigned, 10);
        assert_eq!(s.gpu_assigned, 5);
    }
}
