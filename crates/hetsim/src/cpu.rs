use std::time::Instant;

use crate::metrics::MetricsCell;
use crate::{Device, DeviceKind, DeviceMetrics, KernelReport};

/// One host CPU core as a [`Device`]: every kernel runs inline on the
/// calling thread, transfers are free (its data is already in host
/// memory) and there is no allocation limit (host memory is accounted by
/// the system-level report, not per device).
///
/// A core is the unit a roster is built from: one device per core, each
/// building its own partition, exactly as the scheduler hands partitions
/// to a GPU. Several threads sharing one partition's table — the paper's
/// concurrent kernel — is `hashgraph::build_subgraph_with`, not a device.
///
/// # Examples
///
/// ```
/// use hetsim::{CpuDevice, Device};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let cpu = CpuDevice::new("cpu0");
/// let hits = AtomicUsize::new(0);
/// let report = cpu.execute(1000, &|_| { hits.fetch_add(1, Ordering::Relaxed); });
/// assert_eq!(hits.load(Ordering::Relaxed), 1000);
/// assert_eq!(report.items, 1000);
/// assert_eq!(report.warps, 0);
/// ```
#[derive(Debug)]
pub struct CpuDevice {
    name: String,
    metrics: MetricsCell,
}

impl CpuDevice {
    /// A one-core CPU device named `name`.
    pub fn new(name: impl Into<String>) -> CpuDevice {
        CpuDevice { name: name.into(), metrics: MetricsCell::default() }
    }
}

impl Device for CpuDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::Cpu
    }

    fn parallelism(&self) -> usize {
        1
    }

    fn execute(&self, items: usize, kernel: &(dyn Fn(usize) + Sync)) -> KernelReport {
        self.execute_chunks(items, &|range| {
            for i in range {
                kernel(i);
            }
        })
    }

    /// The CPU's native granularity: one core walks the whole item space
    /// as one range.
    fn execute_chunks(
        &self,
        items: usize,
        kernel: &(dyn Fn(std::ops::Range<usize>) + Sync),
    ) -> KernelReport {
        let start = Instant::now();
        if items > 0 {
            kernel(0..items);
        }
        let duration = start.elapsed();
        self.metrics.record_kernel(items, duration, 0);
        KernelReport { items, duration, warps: 0 }
    }

    fn transfer_to_device(&self, bytes: u64) -> std::time::Duration {
        self.metrics.record_transfer(bytes, std::time::Duration::ZERO, true);
        std::time::Duration::ZERO
    }

    fn transfer_from_device(&self, bytes: u64) -> std::time::Duration {
        self.metrics.record_transfer(bytes, std::time::Duration::ZERO, false);
        std::time::Duration::ZERO
    }

    fn alloc(&self, bytes: u64) -> crate::Result<()> {
        self.metrics.reserve(bytes);
        Ok(())
    }

    fn free(&self, bytes: u64) {
        self.metrics.release(bytes);
    }

    fn metrics(&self) -> DeviceMetrics {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn every_item_processed_exactly_once() {
        let cpu = CpuDevice::new("cpu");
        for items in [0, 1, 7, 100, 1001] {
            let sum = AtomicU64::new(0);
            let r = cpu.execute(items, &|i| {
                sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
            let expected: u64 = (1..=items as u64).sum();
            assert_eq!(sum.load(Ordering::Relaxed), expected, "items={items}");
            assert_eq!(r.items, items);
        }
    }

    #[test]
    fn transfers_are_free_and_counted() {
        let cpu = CpuDevice::new("cpu");
        assert_eq!(cpu.transfer_to_device(1 << 30), std::time::Duration::ZERO);
        assert_eq!(cpu.transfer_from_device(123), std::time::Duration::ZERO);
        let m = cpu.metrics();
        assert_eq!(m.bytes_to_device, 1 << 30);
        assert_eq!(m.bytes_from_device, 123);
        assert_eq!(m.transfer_time, std::time::Duration::ZERO);
    }

    #[test]
    fn alloc_never_fails_and_tracks_peak() {
        let cpu = CpuDevice::new("cpu");
        cpu.alloc(u64::MAX / 4).unwrap();
        cpu.free(u64::MAX / 4);
        assert_eq!(cpu.metrics().peak_memory, u64::MAX / 4);
    }

    #[test]
    fn metrics_accumulate_across_kernels() {
        let cpu = CpuDevice::new("cpu");
        cpu.execute(10, &|_| {});
        cpu.execute(20, &|_| {});
        let m = cpu.metrics();
        assert_eq!(m.kernels, 2);
        assert_eq!(m.items, 30);
    }

    /// One core: the kernel runs on the caller's thread, as one range.
    #[test]
    fn a_cpu_device_is_one_core() {
        let cpu = CpuDevice::new("cpu");
        assert_eq!(cpu.parallelism(), 1);
        assert_eq!(cpu.kind(), DeviceKind::Cpu);
        assert_eq!(cpu.name(), "cpu");
        let caller = std::thread::current().id();
        let chunks = std::sync::Mutex::new(Vec::new());
        cpu.execute_chunks(500, &|range| {
            assert_eq!(std::thread::current().id(), caller);
            chunks.lock().unwrap().push(range);
        });
        assert_eq!(chunks.into_inner().unwrap(), vec![0..500]);
    }
}
