//! Property tests over the device abstraction: every kernel processes
//! every item exactly once, transfers are accounted byte-exactly, and the
//! two device kinds are interchangeable for correctness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use hetsim::{CpuDevice, Device, SimGpuConfig, SimGpuDevice, TransferModel};
use proptest::prelude::*;

fn gpu(sms: usize, warp: usize) -> SimGpuDevice {
    SimGpuDevice::new(
        "gpu",
        SimGpuConfig {
            sm_count: sms,
            warp_size: warp,
            transfer: TransferModel::instant(),
            compute_cost_per_item: Duration::ZERO,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cpu_kernel_touches_each_item_once(items in 0usize..500) {
        let dev = CpuDevice::new("cpu");
        let sum = AtomicU64::new(0);
        let hits = AtomicU64::new(0);
        let r = dev.execute(items, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        prop_assert_eq!(hits.load(Ordering::Relaxed), items as u64);
        prop_assert_eq!(sum.load(Ordering::Relaxed), (items as u64).saturating_sub(1) * items as u64 / 2);
        prop_assert_eq!(r.items, items);
        prop_assert_eq!(r.warps, 0);
    }

    #[test]
    fn gpu_kernel_touches_each_item_once(items in 0usize..500, sms in 1usize..5, warp in 1usize..40) {
        let dev = gpu(sms, warp);
        let hits = AtomicU64::new(0);
        let r = dev.execute(items, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        prop_assert_eq!(hits.load(Ordering::Relaxed), items as u64);
        prop_assert_eq!(r.warps as usize, items.div_ceil(warp));
    }

    #[test]
    fn transfer_byte_accounting_is_exact(sizes in prop::collection::vec(0u64..100_000, 0..10)) {
        let dev = gpu(2, 8);
        let mut expect_to = 0u64;
        let mut expect_from = 0u64;
        for (i, &s) in sizes.iter().enumerate() {
            if i % 2 == 0 {
                dev.transfer_to_device(s);
                expect_to += s;
            } else {
                dev.transfer_from_device(s);
                expect_from += s;
            }
        }
        let m = dev.metrics();
        prop_assert_eq!(m.bytes_to_device, expect_to);
        prop_assert_eq!(m.bytes_from_device, expect_from);
    }

    #[test]
    fn alloc_free_never_leaks(ops in prop::collection::vec(1u64..1000, 0..20)) {
        let dev = gpu(1, 4);
        let mut live = Vec::new();
        for (i, &bytes) in ops.iter().enumerate() {
            if i % 3 == 2 {
                if let Some(b) = live.pop() {
                    dev.free(b);
                }
            } else if dev.alloc(bytes).is_ok() {
                live.push(bytes);
            }
        }
        let outstanding: u64 = live.iter().sum();
        prop_assert_eq!(dev.memory_in_use(), outstanding);
        for b in live {
            dev.free(b);
        }
        prop_assert_eq!(dev.memory_in_use(), 0);
    }
}
