use std::time::Duration;

use crate::DeviceMetrics;

/// What kind of processor a [`Device`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// The host CPU.
    Cpu,
    /// A simulated discrete accelerator (the GPU substitution).
    SimGpu,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::Cpu => write!(f, "cpu"),
            DeviceKind::SimGpu => write!(f, "sim-gpu"),
        }
    }
}

/// What one kernel launch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelReport {
    /// Data-parallel items processed.
    pub items: usize,
    /// Wall-clock time of the launch.
    pub duration: Duration,
    /// Warps executed (0 on the CPU, which has no warp granularity).
    pub warps: u64,
}

/// A processor that the co-processing scheduler can hand work to.
///
/// The contract mirrors how ParaHash uses real hardware: a *kernel* is a
/// data-parallel function over `0..items` (every index is processed
/// exactly once, in parallel, against shared state that must therefore be
/// `Sync` — e.g. the concurrent hash table); *transfers* move bytes
/// between host and device memory and cost time according to the device's
/// transfer model.
///
/// Implementations must be safe to share across the scheduler's threads.
pub trait Device: Send + Sync {
    /// Device name for reports (e.g. `cpu0`, `gpu1`).
    fn name(&self) -> &str;

    /// What this device models.
    fn kind(&self) -> DeviceKind;

    /// Number of parallel workers (1 for a CPU core, SMs for the GPU).
    fn parallelism(&self) -> usize;

    /// Runs `kernel` for every index in `0..items`, in parallel, returning
    /// timing. Blocks until all items are done.
    fn execute(&self, items: usize, kernel: &(dyn Fn(usize) + Sync)) -> KernelReport;

    /// [`execute`](Self::execute) at the device's scheduling granularity:
    /// `kernel` is handed each contiguous index *range* a single worker
    /// processes sequentially, covering `0..items` exactly once. Kernels
    /// with cheap per-batch state (a software-pipelined replay, a local
    /// accumulator) amortise it over the whole range instead of paying it
    /// per item. The default degrades to one-item ranges; devices with a
    /// coarser internal granularity (a CPU core walks the whole item space
    /// as one range) override it to expose their true chunks.
    fn execute_chunks(
        &self,
        items: usize,
        kernel: &(dyn Fn(std::ops::Range<usize>) + Sync),
    ) -> KernelReport {
        self.execute(items, &|i| kernel(i..i + 1))
    }

    /// Moves `bytes` of input into device memory, paying the transfer
    /// cost. Returns the metered duration.
    fn transfer_to_device(&self, bytes: u64) -> Duration;

    /// Moves `bytes` of results back to the host, paying the transfer
    /// cost. Returns the metered duration.
    fn transfer_from_device(&self, bytes: u64) -> Duration;

    /// Reserves device memory for a working set (e.g. a partition's hash
    /// table).
    ///
    /// # Errors
    ///
    /// Returns [`crate::HetsimError::OutOfDeviceMemory`] when the request
    /// does not fit; the host CPU never fails (host memory is accounted
    /// elsewhere).
    fn alloc(&self, bytes: u64) -> crate::Result<()>;

    /// Releases device memory reserved with [`Device::alloc`].
    fn free(&self, bytes: u64);

    /// Cumulative activity counters.
    fn metrics(&self) -> DeviceMetrics;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(DeviceKind::Cpu.to_string(), "cpu");
        assert_eq!(DeviceKind::SimGpu.to_string(), "sim-gpu");
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes(_: &dyn Device) {}
    }
}
