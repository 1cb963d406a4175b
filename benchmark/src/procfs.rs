//! The three `/proc/self` readings a sample reports. Linux only; a
//! missing file reads as 0, which the harness then rejects as a metric
//! that must never be 0.

use std::fs;

/// Kernel clock ticks per second (`USER_HZ`): 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process (all threads) and of the
/// children it has waited for, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, starting with field 3.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    // utime, stime, cutime, cstime are fields 14-17.
    rest.split_ascii_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum::<f64>()
        / USER_HZ
}

/// Bytes this process (and its waited-for children) passed to `write`
/// calls: `wchar` of `/proc/self/io`.
pub fn write_bytes() -> u64 {
    field("/proc/self/io", "wchar:")
}

/// Peak resident set of this process in KiB: `VmHWM` of
/// `/proc/self/status`.
pub fn peak_rss_kib() -> u64 {
    field("/proc/self/status", "VmHWM:")
}

fn field(path: &str, key: &str) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix(key))
                .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}
