//! The `dbg` binary at its command line.

use std::path::PathBuf;
use std::process::Command;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbg-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `--work-dir` the user named, holding the input and a file of their
/// own, keeps both: the build deletes only a work dir it created.
#[test]
fn build_keeps_a_work_dir_it_did_not_create() {
    let root = fresh_dir("keep");
    let wd = root.join("wd");
    std::fs::create_dir_all(&wd).unwrap();
    let reads = wd.join("reads.fq");
    let notes = wd.join("notes.txt");
    std::fs::write(&reads, "@r\nACGTTGCATGGACCAGTTACGGATCAGGCATT\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII\n")
        .unwrap();
    std::fs::write(&notes, "mine\n").unwrap();
    let out = root.join("g.dbg");
    let built = Command::new(env!("CARGO_BIN_EXE_dbg"))
        .args(["build", reads.to_str().unwrap(), "--out", out.to_str().unwrap()])
        .args(["--work-dir", wd.to_str().unwrap(), "-k", "9", "-p", "5", "--partitions", "4"])
        .output()
        .unwrap();
    assert!(built.status.success(), "{}", String::from_utf8_lossy(&built.stderr));
    assert!(out.exists(), "the graph is stored");
    assert!(reads.exists(), "the input survives the build");
    assert_eq!(std::fs::read_to_string(&notes).unwrap(), "mine\n");
    std::fs::remove_dir_all(&root).unwrap();
}

/// A `--work-dir` that did not exist is the build's own, and goes.
#[test]
fn build_removes_a_work_dir_it_created() {
    let root = fresh_dir("own");
    let reads = root.join("reads.fq");
    std::fs::write(&reads, "@r\nACGTTGCATGGACCAGTTACGGATCAGGCATT\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII\n")
        .unwrap();
    let wd = root.join("wd");
    let out = root.join("g.dbg");
    let built = Command::new(env!("CARGO_BIN_EXE_dbg"))
        .args(["build", reads.to_str().unwrap(), "--out", out.to_str().unwrap()])
        .args(["--work-dir", wd.to_str().unwrap(), "-k", "9", "-p", "5", "--partitions", "4"])
        .output()
        .unwrap();
    assert!(built.status.success(), "{}", String::from_utf8_lossy(&built.stderr));
    assert!(out.exists(), "the graph is stored");
    assert!(!wd.exists(), "the build's own work dir is removed");
    std::fs::remove_dir_all(&root).unwrap();
}
