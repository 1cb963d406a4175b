//! The `host` record every output file carries: a number means nothing
//! without the machine, toolchain and inputs that produced it.

use std::fs;
use std::path::Path;
use std::process::Command;

use crate::harness::{default_threads, Setup};
use crate::json::{obj, Value};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The file-system type holding `path`: the longest mount point of
/// `/proc/mounts` that is a prefix of it.
pub fn fs_type(path: &Path) -> String {
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_ascii_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind.to_owned())
}

/// Builds the record for a run over `setup`'s corpora in `work_root`.
pub fn record(seed: u64, scale: f64, work_root: &Path, setup: &Setup) -> Value {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown", |(_, v)| v.trim())
    };
    let flags: Vec<&str> = cpu_field("flags").split_ascii_whitespace().collect();
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    obj([
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        ("cpu_model", Value::from(cpu_field("model name"))),
        ("avx2", Value::from(flags.contains(&"avx2"))),
        ("sse2", Value::from(flags.contains(&"sse2"))),
        ("kernel", Value::from(kernel.trim())),
        ("workdir_fs", Value::from(fs_type(work_root))),
        ("threads", Value::from(default_threads())),
        ("seed", Value::from(seed)),
        ("scale", Value::from(scale)),
        (
            "git_rev",
            Value::from(command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", Value::from(command_line("rustc", &["-V"]))),
        (
            "corpora",
            obj(setup.corpora.iter().map(|c| (c.kind.stem(), c.to_json()))),
        ),
        (
            "resume_half_committed",
            setup
                .crashed
                .as_ref()
                .map_or(Value::Null, |(_, committed)| Value::from(*committed)),
        ),
    ])
}
