//! The §IV performance model: Eq. 1 (pipelined step time) and Eq. 2
//! (ideal co-processing time), plus the Case-1/Case-2 regime test.
//!
//! These estimators take *measured* single-configuration times (e.g. the
//! best CPU-only and single-GPU-only runs) and predict co-processing and
//! pipelining outcomes; Figs 13 and 14 plot the predictions against real
//! runs.

use std::time::Duration;

/// Measured per-step component times feeding Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepComponents {
    /// CPU compute time for the step (`T_CPU_compute`): the CPU's
    /// makespan, maxed over CPU devices (one per core, running side by
    /// side) like [`gpu`](Self::gpu) is over GPUs — not their sum.
    pub cpu_compute: Duration,
    /// Total GPU time for the step: compute **plus** host↔device
    /// transfer (`T_GPU_compute + T_DH_transfer`), maxed over devices when
    /// several GPUs run.
    pub gpu: Duration,
    /// Total input-transfer time (`T_input`).
    pub input: Duration,
    /// Total output-transfer time (`T_output`).
    pub output: Duration,
    /// Number of partitions `n_i` the step processes.
    pub partitions: usize,
}

/// Which resource bounds a step (the paper's two evaluation cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Case 1: `T_IO ≪ min{T_CPU, T_GPU}` — compute bound; adding
    /// processors helps per Eq. 2.
    ComputeBound,
    /// Case 2: `T_IO ≥ max{T_CPU, T_GPU}` — the step degenerates to the
    /// disk transfer time.
    IoBound,
    /// Neither inequality holds clearly (see
    /// [`classify_regime`] for the exact boundary policy).
    Mixed,
}

/// Eq. 1: estimated elapsed time of one pipelined step.
///
/// `T_i = max{T_CPU, T_GPU, T_IO} + (T_input + T_output)/n_i`, with
/// `T_IO = (n_i − 1)/n_i · max{T_input, T_output}` — the pipeline hides
/// everything except the slowest of the three streams, plus the one
/// partition's worth of fill/drain latency at the ends.
///
/// With zero partitions the estimate is zero.
///
/// # Examples
///
/// ```
/// use pipeline::perfmodel::{eq1_step_time, StepComponents};
/// use std::time::Duration;
///
/// let c = StepComponents {
///     cpu_compute: Duration::from_secs(10),
///     gpu: Duration::from_secs(8),
///     input: Duration::from_secs(4),
///     output: Duration::from_secs(2),
///     partitions: 8,
/// };
/// // Compute dominates: ≈ 10 s + (4+2)/8 s = 10.75 s.
/// assert_eq!(eq1_step_time(&c), Duration::from_millis(10_750));
/// ```
pub fn eq1_step_time(c: &StepComponents) -> Duration {
    if c.partitions == 0 {
        return Duration::ZERO;
    }
    let n = c.partitions as f64;
    let t_io = c.input.max(c.output).mul_f64((n - 1.0) / n);
    let steady = c.cpu_compute.max(c.gpu).max(t_io);
    steady + (c.input + c.output).div_f64(n)
}

/// Eq. 2: ideal co-processed compute time given measured single-processor
/// times — processors run concurrently at their individual rates, so the
/// combined rate is the sum of rates:
/// `1 / (1/T_only_CPU + N_GPU/T_single_GPU)`.
///
/// Pass `n_gpus = 0` for a CPU-only configuration and
/// `cpu: None` for GPU-only offload.
///
/// Returns `Duration::MAX` when no processor is given.
///
/// # Examples
///
/// ```
/// use pipeline::perfmodel::eq2_ideal_coprocessing;
/// use std::time::Duration;
///
/// let cpu = Duration::from_secs(12);
/// let gpu = Duration::from_secs(6);
/// // 1/(1/12 + 2/6) = 2.4 s
/// let t = eq2_ideal_coprocessing(Some(cpu), gpu, 2);
/// assert_eq!(t, Duration::from_millis(2_400));
/// ```
pub fn eq2_ideal_coprocessing(
    cpu: Option<Duration>,
    single_gpu: Duration,
    n_gpus: usize,
) -> Duration {
    let mut rate = 0.0f64;
    if let Some(c) = cpu {
        if !c.is_zero() {
            rate += 1.0 / c.as_secs_f64();
        }
    }
    if n_gpus > 0 && !single_gpu.is_zero() {
        rate += n_gpus as f64 / single_gpu.as_secs_f64();
    }
    if rate == 0.0 {
        return Duration::MAX;
    }
    Duration::from_secs_f64(1.0 / rate)
}

/// Classifies a step into the paper's Case 1 / Case 2 regimes with a
/// slack factor of 2× on "much less than".
///
/// Boundary policy (ties are deterministic, in integer nanoseconds — no
/// float rounding):
///
/// * **Case 2 is tie-inclusive**: `T_IO ≥ max{T_CPU, T_GPU}` (and
///   `T_IO > 0`) is [`Regime::IoBound`]. Equality already means no
///   compute stream has headroom over the disk — the step degenerates to
///   the transfer time, which is the defining property of Case 2.
/// * **Case 1 is tie-exclusive**: `2·T_IO < min{T_CPU, T_GPU}` must hold
///   *strictly*, because the 2× factor stands in for the paper's
///   `T_IO ≪ min` — slack that is merely met at the boundary is not
///   "much less than".
/// * Everything else — including a step with no measurements at all — is
///   [`Regime::Mixed`].
///
/// A processor with a zero measurement (e.g. no GPU in the roster) is
/// excluded from the `min` so a CPU-only step can still classify as
/// compute bound.
pub fn classify_regime(c: &StepComponents) -> Regime {
    let t_io = c.input.max(c.output);
    let min_compute = if c.gpu.is_zero() {
        c.cpu_compute
    } else if c.cpu_compute.is_zero() {
        c.gpu
    } else {
        c.cpu_compute.min(c.gpu)
    };
    let max_compute = c.cpu_compute.max(c.gpu);
    if !t_io.is_zero() && t_io >= max_compute {
        Regime::IoBound
    } else if t_io.checked_mul(2).is_some_and(|doubled| doubled < min_compute) {
        Regime::ComputeBound
    } else {
        Regime::Mixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comps(cpu: u64, gpu: u64, input: u64, output: u64, n: usize) -> StepComponents {
        StepComponents {
            cpu_compute: Duration::from_secs(cpu),
            gpu: Duration::from_secs(gpu),
            input: Duration::from_secs(input),
            output: Duration::from_secs(output),
            partitions: n,
        }
    }

    #[test]
    fn eq1_compute_bound_case() {
        let c = comps(10, 8, 4, 2, 8);
        assert_eq!(eq1_step_time(&c), Duration::from_millis(10_750));
        // I/O (4 s) is under min-compute (8 s) but not by the 2× slack.
        assert_eq!(classify_regime(&c), Regime::Mixed);
        let clearly = comps(10, 8, 3, 2, 8);
        assert_eq!(classify_regime(&clearly), Regime::ComputeBound);
    }

    #[test]
    fn eq1_io_bound_case() {
        let c = comps(2, 1, 16, 8, 4);
        // T_IO = 3/4·16 = 12 > compute; + (16+8)/4 = 6 → 18.
        assert_eq!(eq1_step_time(&c), Duration::from_secs(18));
        assert_eq!(classify_regime(&c), Regime::IoBound);
    }

    #[test]
    fn eq1_zero_partitions() {
        assert_eq!(eq1_step_time(&comps(1, 1, 1, 1, 0)), Duration::ZERO);
    }

    #[test]
    fn eq1_single_partition_has_no_overlap() {
        // n=1: T_IO term vanishes, full input+output paid.
        let c = comps(5, 0, 3, 2, 1);
        assert_eq!(eq1_step_time(&c), Duration::from_secs(10));
    }

    #[test]
    fn eq2_matches_hand_computation() {
        let t = eq2_ideal_coprocessing(Some(Duration::from_secs(12)), Duration::from_secs(6), 1);
        assert_eq!(t, Duration::from_secs(4)); // 1/(1/12+1/6)
        let t = eq2_ideal_coprocessing(None, Duration::from_secs(6), 2);
        assert_eq!(t, Duration::from_secs(3));
        let t = eq2_ideal_coprocessing(Some(Duration::from_secs(12)), Duration::from_secs(6), 0);
        assert_eq!(t, Duration::from_secs(12));
    }

    #[test]
    fn eq2_more_gpus_never_slower() {
        let cpu = Some(Duration::from_secs(10));
        let gpu = Duration::from_secs(7);
        let mut prev = Duration::MAX;
        for n in 0..=4 {
            let t = eq2_ideal_coprocessing(cpu, gpu, n);
            assert!(t <= prev, "adding a GPU slowed the estimate");
            prev = t;
        }
    }

    #[test]
    fn eq2_no_processors_is_unbounded() {
        assert_eq!(eq2_ideal_coprocessing(None, Duration::from_secs(1), 0), Duration::MAX);
        assert_eq!(eq2_ideal_coprocessing(Some(Duration::ZERO), Duration::ZERO, 3), Duration::MAX);
    }

    #[test]
    fn regime_mixed_between_cases() {
        let c = comps(10, 8, 9, 2, 4); // io=9: not <min/2 (4), not >max (10)
        assert_eq!(classify_regime(&c), Regime::Mixed);
    }

    #[test]
    fn regime_ignores_missing_gpu() {
        let c = comps(10, 0, 1, 1, 4);
        assert_eq!(classify_regime(&c), Regime::ComputeBound);
    }

    #[test]
    fn regime_io_tie_is_io_bound() {
        // T_IO == max-compute: no compute stream has headroom over the
        // disk, so the tie belongs to Case 2 (it used to fall into Mixed
        // while a 1 ns larger T_IO flipped to IoBound).
        assert_eq!(classify_regime(&comps(10, 8, 10, 2, 4)), Regime::IoBound);
        assert_eq!(classify_regime(&comps(8, 10, 3, 10, 4)), Regime::IoBound);
        // One nanosecond of compute headroom breaks the tie back to Mixed.
        let c = StepComponents {
            cpu_compute: Duration::from_secs(10) + Duration::from_nanos(1),
            gpu: Duration::from_secs(8),
            input: Duration::from_secs(10),
            output: Duration::from_secs(2),
            partitions: 4,
        };
        assert_eq!(classify_regime(&c), Regime::Mixed);
    }

    #[test]
    fn regime_compute_tie_is_mixed() {
        // 2·T_IO == min-compute: the "much less than" slack is only met
        // at the boundary, which is not "much less" — stays Mixed.
        assert_eq!(classify_regime(&comps(10, 8, 4, 2, 8)), Regime::Mixed);
        // One nanosecond under the slack is ComputeBound; the comparison
        // is integer-exact, no float rounding at the boundary.
        let c = StepComponents {
            cpu_compute: Duration::from_secs(10),
            gpu: Duration::from_secs(8),
            input: Duration::from_secs(4) - Duration::from_nanos(1),
            output: Duration::from_secs(2),
            partitions: 8,
        };
        assert_eq!(classify_regime(&c), Regime::ComputeBound);
    }

    #[test]
    fn regime_degenerate_measurements() {
        // No measurements at all: nothing to classify.
        assert_eq!(classify_regime(&comps(0, 0, 0, 0, 4)), Regime::Mixed);
        // Pure compute, no I/O: Case 1 by definition.
        assert_eq!(classify_regime(&comps(5, 3, 0, 0, 4)), Regime::ComputeBound);
        // Pure I/O, no compute: Case 2 by definition (tie-inclusive rule;
        // this used to be Mixed because 0 > 0 never held).
        assert_eq!(classify_regime(&comps(0, 0, 7, 2, 4)), Regime::IoBound);
        // Overflow-proof: a near-MAX T_IO cannot be doubled, which must
        // read as "not compute bound", not a panic.
        let c = StepComponents {
            cpu_compute: Duration::MAX,
            gpu: Duration::MAX,
            input: Duration::MAX - Duration::from_secs(1),
            output: Duration::ZERO,
            partitions: 2,
        };
        assert_eq!(classify_regime(&c), Regime::Mixed);
    }

    #[test]
    fn eq1_fig14_scale_hand_computed() {
        // Case-2 numbers at the paper's Fig-14 scale (disk-bound
        // bumblebee runs, hundreds of seconds of I/O): Eq. 1 must
        // reproduce the hand computation exactly.
        // T_IO = (n−1)/n·max{in,out} = 15/16·960 = 900;
        // steady = max{120, 80, 900} = 900; + (960+320)/16 = 80 → 980.
        let c = comps(120, 80, 960, 320, 16);
        assert_eq!(eq1_step_time(&c), Duration::from_secs(980));
        assert_eq!(classify_regime(&c), Regime::IoBound);
        // With the I/O stream throttled away (Case 1, Fig-13 setup), the
        // same compute degenerates to max-compute + fill/drain.
        // steady = 120; + (16+8)/16 = 1.5 → 121.5.
        let c1 = comps(120, 80, 16, 8, 16);
        assert_eq!(eq1_step_time(&c1), Duration::from_millis(121_500));
        assert_eq!(classify_regime(&c1), Regime::ComputeBound);
    }

    #[test]
    fn eq2_fig13_scale_hand_computed() {
        // Fig-13-scale roster sweep: measured CPU-only 323 s and
        // single-GPU 259 s. Combined rates, hand-computed:
        //   CPU+1GPU: 1/(1/323 + 1/259) = 323·259/582  ≈ 143.728 s
        //   CPU+2GPU: 1/(1/323 + 2/259) = 323·259/905  ≈  92.437 s
        //   2GPU:     259/2             = 129.5 s
        let cpu = Duration::from_secs(323);
        let gpu = Duration::from_secs(259);
        let close = |d: Duration, secs: f64| (d.as_secs_f64() - secs).abs() < 1e-6;
        assert!(close(eq2_ideal_coprocessing(Some(cpu), gpu, 1), 323.0 * 259.0 / 582.0));
        assert!(close(eq2_ideal_coprocessing(Some(cpu), gpu, 2), 323.0 * 259.0 / 905.0));
        assert!(close(eq2_ideal_coprocessing(None, gpu, 2), 129.5));
    }
}
