//! Simulated heterogeneous processors.
//!
//! The paper runs on two Xeon CPUs plus two Tesla K40m GPUs. This crate is
//! the documented GPU substitution (DESIGN.md §2): a [`Device`] abstraction
//! with two implementations —
//!
//! * [`CpuDevice`] — one host core: kernels run inline on the calling
//!   thread, with free (zero-cost) "transfers", since its data already
//!   lives in host memory. A roster makes every core its own device, so
//!   the scheduler hands each core whole partitions, exactly as it hands
//!   them to a GPU.
//! * [`SimGpuDevice`] — a software co-processor that mimics the properties
//!   of a discrete accelerator that the paper's design actually depends
//!   on: work arrives in **warp-granular** batches executed by a pool of
//!   streaming-multiprocessor workers, every byte in or out pays a
//!   **metered transfer** (bandwidth + latency model, enforced with real
//!   sleeps), device memory is **capacity-limited**, and per-item compute
//!   speed is tunable so experiments can reproduce the paper's relative
//!   CPU:GPU throughputs.
//!
//! The co-processing scheduler (crate `pipeline`) treats both identically,
//! which is the point: ParaHash's contributions — work-stealing partition
//! distribution and transfer/compute pipelining — are exercised unchanged.
//!
//! # Examples
//!
//! ```
//! use hetsim::{CpuDevice, Device, SimGpuConfig, SimGpuDevice};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let cpu = CpuDevice::new("cpu0");
//! let gpu = SimGpuDevice::new("gpu0", SimGpuConfig::default());
//!
//! let sum = AtomicU64::new(0);
//! for dev in [&cpu as &dyn Device, &gpu] {
//!     dev.execute(100, &|i| { sum.fetch_add(i as u64, Ordering::Relaxed); });
//! }
//! assert_eq!(sum.load(Ordering::Relaxed), 2 * (0..100).sum::<u64>());
//! ```

mod cpu;
mod device;
mod gpu;
mod metrics;
mod transfer;

pub use cpu::CpuDevice;
pub use device::{Device, DeviceKind, KernelReport};
pub use gpu::{SimGpuConfig, SimGpuDevice};
pub use metrics::DeviceMetrics;
pub use transfer::TransferModel;

/// Errors from device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HetsimError {
    /// A device-memory allocation exceeded remaining capacity.
    OutOfDeviceMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
}

impl std::fmt::Display for HetsimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HetsimError::OutOfDeviceMemory { requested, available } => write!(
                f,
                "device memory exhausted: requested {requested} bytes, {available} available"
            ),
        }
    }
}

impl std::error::Error for HetsimError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, HetsimError>;
