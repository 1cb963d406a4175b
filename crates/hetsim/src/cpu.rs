use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::metrics::MetricsCell;
use crate::{Device, DeviceKind, DeviceMetrics, KernelReport};

/// Host CPU cores as a [`Device`]: a fork-join pool of `threads` workers
/// with free transfers (its data is already in host memory) and no
/// allocation limit (host memory is accounted by the system-level report,
/// not per device).
///
/// A one-worker device runs each kernel inline on the calling thread: that
/// is one core, the unit a production roster is built from (one device
/// per core, each building its own partition). A multi-worker device
/// splits one kernel over scoped threads that share its data — the
/// paper's concurrent-kernel setting, kept for experiments that measure
/// it.
///
/// # Examples
///
/// ```
/// use hetsim::{CpuDevice, Device};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let cpu = CpuDevice::new("cpu0", 8);
/// let hits = AtomicUsize::new(0);
/// let report = cpu.execute(1000, &|_| { hits.fetch_add(1, Ordering::Relaxed); });
/// assert_eq!(hits.load(Ordering::Relaxed), 1000);
/// assert_eq!(report.items, 1000);
/// assert_eq!(report.warps, 0);
/// ```
#[derive(Debug)]
pub struct CpuDevice {
    name: String,
    threads: usize,
    metrics: MetricsCell,
}

impl CpuDevice {
    /// A CPU device driving `threads` worker threads per kernel
    /// (minimum 1; 1 runs every kernel on the calling thread).
    pub fn new(name: impl Into<String>, threads: usize) -> CpuDevice {
        CpuDevice { name: name.into(), threads: threads.max(1), metrics: MetricsCell::default() }
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
        self.threads
    }

    fn execute(&self, items: usize, kernel: &(dyn Fn(usize) + Sync)) -> KernelReport {
        self.execute_chunks(items, &|range| {
            for i in range {
                kernel(i);
            }
        })
    }

    /// The CPU's native granularity: each worker's load-balancing batch is
    /// handed to `kernel` as one contiguous range (single-threaded, the
    /// whole item space is one range).
    fn execute_chunks(
        &self,
        items: usize,
        kernel: &(dyn Fn(std::ops::Range<usize>) + Sync),
    ) -> KernelReport {
        let start = Instant::now();
        if items > 0 {
            if self.threads == 1 {
                kernel(0..items);
            } else {
                // Atomic work counter: threads grab batches, which keeps
                // load balanced when per-item cost is uneven (one CPU
                // thread handles a *group* of nearby items at a time, the
                // paper's CPU granularity).
                let next = AtomicUsize::new(0);
                let batch = (items / (self.threads * 8)).max(1);
                std::thread::scope(|s| {
                    for _ in 0..self.threads.min(items) {
                        s.spawn(|| loop {
                            let lo = next.fetch_add(batch, Ordering::Relaxed);
                            if lo >= items {
                                break;
                            }
                            kernel(lo..(lo + batch).min(items));
                        });
                    }
                });
            }
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
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_item_processed_exactly_once() {
        let cpu = CpuDevice::new("cpu", 4);
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
    fn single_thread_matches_multi_thread() {
        let one = CpuDevice::new("one", 1);
        let many = CpuDevice::new("many", 8);
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        one.execute(500, &|i| {
            a.fetch_add((i * i) as u64, Ordering::Relaxed);
        });
        many.execute(500, &|i| {
            b.fetch_add((i * i) as u64, Ordering::Relaxed);
        });
        assert_eq!(a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
    }

    #[test]
    fn transfers_are_free_and_counted() {
        let cpu = CpuDevice::new("cpu", 2);
        assert_eq!(cpu.transfer_to_device(1 << 30), std::time::Duration::ZERO);
        assert_eq!(cpu.transfer_from_device(123), std::time::Duration::ZERO);
        let m = cpu.metrics();
        assert_eq!(m.bytes_to_device, 1 << 30);
        assert_eq!(m.bytes_from_device, 123);
        assert_eq!(m.transfer_time, std::time::Duration::ZERO);
    }

    #[test]
    fn alloc_never_fails_and_tracks_peak() {
        let cpu = CpuDevice::new("cpu", 2);
        cpu.alloc(u64::MAX / 4).unwrap();
        cpu.free(u64::MAX / 4);
        assert_eq!(cpu.metrics().peak_memory, u64::MAX / 4);
    }

    #[test]
    fn metrics_accumulate_across_kernels() {
        let cpu = CpuDevice::new("cpu", 2);
        cpu.execute(10, &|_| {});
        cpu.execute(20, &|_| {});
        let m = cpu.metrics();
        assert_eq!(m.kernels, 2);
        assert_eq!(m.items, 30);
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        let cpu = CpuDevice::new("cpu", 0);
        assert_eq!(cpu.parallelism(), 1);
        assert_eq!(cpu.kind(), DeviceKind::Cpu);
        assert_eq!(cpu.name(), "cpu");
    }
}
