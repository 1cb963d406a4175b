//! Atomic artifact commits: write-tmp, fsync, rename, fsync-dir.
//!
//! Every durable artifact in the pipeline (partition files, subgraph
//! files, manifests, journals) is committed with the same protocol so
//! that a crash at *any* instant leaves either the old file, the new
//! file, or a clearly-temporary `*.tmp` that recovery ignores — never a
//! half-written file at the final name that a later run mistakes for
//! valid:
//!
//! 1. write the full contents to `<path>.tmp`
//! 2. `fsync` the tmp file (data reaches the platter before the name)
//! 3. `rename(<path>.tmp, <path>)` — atomic on POSIX within a filesystem
//! 4. `fsync` the parent directory (the rename itself is durable)
//!
//! Readers use [`is_tmp`] to skip uncommitted leftovers, and recovery
//! deletes them. Directory fsync failures on filesystems that do not
//! support it (some network/overlay mounts) are deliberately ignored —
//! the rename is still atomic, only its durability window widens.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Suffix appended to a path while its contents are being staged.
pub const TMP_SUFFIX: &str = ".tmp";

/// The staging path for `path`: same directory, `.tmp` appended to the
/// file name (`part-00001.skm` → `part-00001.skm.tmp`).
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(TMP_SUFFIX);
    path.with_file_name(name)
}

/// The staging path for `path` under a *run scope*: `.{token}.tmp`
/// appended to the file name (`part-00001.skm` →
/// `part-00001.skm.3fa9c1d2e4b50718.tmp`). Long-lived staging files
/// (partition files held open for a whole Step 1) carry their run's
/// token so [`sweep_tmp_scoped`] can reclaim one run's leftovers without
/// deleting another run's live staging in the same directory. An empty
/// token degenerates to [`tmp_path`].
pub fn tmp_path_scoped(path: &Path, token: &str) -> PathBuf {
    if token.is_empty() {
        return tmp_path(path);
    }
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".");
    name.push(token);
    name.push(TMP_SUFFIX);
    path.with_file_name(name)
}

/// Whether `path` names a staging (`*.tmp`) file left by an interrupted
/// commit. Recovery skips and deletes these.
pub fn is_tmp(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.ends_with(TMP_SUFFIX))
}

/// Whether the `*.tmp` file name carries *some* run-scope token — i.e.
/// it matches `*.{16 hex digits}.tmp`. Scoped tmps belong to a specific
/// run; unscoped ones are the short-lived [`commit_bytes`] staging that
/// lives only for the milliseconds between write and rename.
fn tmp_scope_of(name: &str) -> Option<&str> {
    let stem = name.strip_suffix(TMP_SUFFIX)?;
    let (_, token) = stem.rsplit_once('.')?;
    (token.len() == 16 && token.bytes().all(|b| b.is_ascii_hexdigit())).then_some(token)
}

/// Fsyncs `dir` so a rename inside it is durable. Errors from
/// filesystems that cannot fsync directories are ignored (see module
/// docs).
pub fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Atomically replaces `path` with `bytes`: tmp write, fsync, rename,
/// dir fsync. On error the tmp file is removed (best effort) and `path`
/// is untouched.
///
/// # Errors
///
/// Any I/O error from creating, writing, fsyncing or renaming the
/// staging file.
pub fn commit_bytes(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)
    })();
    match result {
        Ok(()) => {
            if let Some(dir) = path.parent() {
                sync_dir(dir);
            }
            Ok(())
        }
        Err(err) => {
            let _ = fs::remove_file(&tmp);
            Err(err)
        }
    }
}

/// Promotes an already-written-and-flushed staging file to its final
/// name: fsync `tmp`, rename to `path`, fsync the directory. Used when
/// the artifact was streamed to the tmp file incrementally (partition
/// spills, the graph `dbg build` stores) rather than buffered in memory.
///
/// # Errors
///
/// Any I/O error from opening/fsyncing the staging file or renaming it.
pub fn commit_staged(tmp: &Path, path: &Path) -> io::Result<()> {
    // Re-open to fsync: callers may have dropped their handle already.
    File::open(tmp)?.sync_all()?;
    fs::rename(tmp, path)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(())
}

/// One artifact staged for [`commit_batch`]: its staging file, written
/// and flushed through `file`, the handle it is fsynced through, and the
/// final name `tmp` is renamed to.
#[derive(Debug)]
pub struct Staged {
    /// The open staging file.
    pub file: File,
    /// Where it was written.
    pub tmp: PathBuf,
    /// Its final name.
    pub path: PathBuf,
}

/// Group commit: promotes every staged artifact in three passes — fsync
/// each staging file, rename each over its final name in `staged`
/// order, then fsync each distinct parent directory once — instead of
/// one fsync, rename and directory fsync per artifact
/// ([`commit_staged`]).
///
/// Each file's data is durable before any name changes, so every
/// final name that exists after a crash holds a whole file; a crash
/// mid-batch may leave the batch's first renames done and the rest
/// staged. The renames are durable only once this returns: append a
/// record of any of them only after.
///
/// # Errors
///
/// Any I/O error from fsyncing or renaming a staging file; the passes
/// stop at the first.
pub fn commit_batch(staged: &[Staged]) -> io::Result<()> {
    for s in staged {
        s.file.sync_all()?;
    }
    for s in staged {
        fs::rename(&s.tmp, &s.path)?;
    }
    let mut dirs: Vec<&Path> = staged.iter().filter_map(|s| s.path.parent()).collect();
    dirs.sort_unstable();
    dirs.dedup();
    for dir in dirs {
        sync_dir(dir);
    }
    Ok(())
}

/// Deletes every `*.tmp` staging file directly inside `dir` (leftovers
/// from a crashed commit). Returns how many were removed. Missing
/// directory counts as zero.
pub fn sweep_tmp(dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(dir) else { return 0 };
    let mut removed = 0;
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_file() && is_tmp(&p) && fs::remove_file(&p).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// [`sweep_tmp`] scoped to one run: deletes this run's scoped staging
/// files (`*.{token}.tmp`) and any *unscoped* `*.tmp` leftovers, but
/// leaves staging files scoped to **other** runs untouched — those may
/// belong to a live run sharing the output directory. Unscoped tmps are
/// safe to reclaim because only [`commit_bytes`]/[`commit_staged`] write
/// them and both rename within the same call; one that persisted is a
/// crashed commit, never live staging. Returns how many were removed;
/// missing directory counts as zero.
pub fn sweep_tmp_scoped(dir: &Path, token: &str) -> usize {
    if token.is_empty() {
        return sweep_tmp(dir);
    }
    let Ok(entries) = fs::read_dir(dir) else { return 0 };
    let mut removed = 0;
    for entry in entries.flatten() {
        let p = entry.path();
        let Some(name) = p.file_name().and_then(|n| n.to_str()) else { continue };
        if !p.is_file() || !name.ends_with(TMP_SUFFIX) {
            continue;
        }
        let foreign = tmp_scope_of(name).is_some_and(|scope| scope != token);
        if !foreign && fs::remove_file(&p).is_ok() {
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmp_path_appends_suffix() {
        let p = Path::new("/x/y/part-00001.skm");
        assert_eq!(tmp_path(p), Path::new("/x/y/part-00001.skm.tmp"));
        assert!(is_tmp(&tmp_path(p)));
        assert!(!is_tmp(p));
    }

    #[test]
    fn commit_bytes_is_visible_and_replaces() {
        let dir = std::env::temp_dir().join(format!("plcommit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("a.bin");
        commit_bytes(&target, b"one").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"one");
        commit_bytes(&target, b"two-longer").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"two-longer");
        assert!(!tmp_path(&target).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_removes_only_tmp() {
        let dir = std::env::temp_dir().join(format!("plsweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("keep.skm"), b"k").unwrap();
        std::fs::write(dir.join("drop.skm.tmp"), b"d").unwrap();
        std::fs::write(dir.join("drop2.tmp"), b"d").unwrap();
        assert_eq!(sweep_tmp(&dir), 2);
        assert!(dir.join("keep.skm").exists());
        assert!(!dir.join("drop.skm.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scoped_sweep_spares_other_runs() {
        let dir = std::env::temp_dir().join(format!("plsweep-scoped-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mine = "00c0ffee00c0ffee";
        let theirs = "deadbeefdeadbeef";
        let my_tmp = tmp_path_scoped(&dir.join("part-00000.skm"), mine);
        let their_tmp = tmp_path_scoped(&dir.join("part-00001.skm"), theirs);
        let plain_tmp = tmp_path(&dir.join("manifest.txt"));
        // A final name that merely *looks* dotted must not be mistaken
        // for a scoped tmp of another run.
        let dotted_plain = dir.join("odd.name.tmp");
        std::fs::write(&my_tmp, b"mine").unwrap();
        std::fs::write(&their_tmp, b"theirs").unwrap();
        std::fs::write(&plain_tmp, b"crashed commit").unwrap();
        std::fs::write(&dotted_plain, b"crashed commit").unwrap();
        std::fs::write(dir.join("part-00002.skm"), b"committed").unwrap();

        assert_eq!(sweep_tmp_scoped(&dir, mine), 3, "own + unscoped swept");
        assert!(!my_tmp.exists(), "own scoped staging reclaimed");
        assert!(their_tmp.exists(), "another run's live staging survives");
        assert!(!plain_tmp.exists(), "unscoped crashed commit reclaimed");
        assert!(!dotted_plain.exists(), "non-hex dotted name is unscoped");
        assert!(dir.join("part-00002.skm").exists());
        // Empty token = the legacy sweep-everything behaviour.
        assert_eq!(sweep_tmp_scoped(&dir, ""), 1);
        assert!(!their_tmp.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scoped_tmp_path_roundtrips() {
        let p = Path::new("/x/part-00001.skm");
        let scoped = tmp_path_scoped(p, "0123456789abcdef");
        assert_eq!(scoped, Path::new("/x/part-00001.skm.0123456789abcdef.tmp"));
        assert!(is_tmp(&scoped));
        assert_eq!(tmp_path_scoped(p, ""), tmp_path(p));
    }

    #[test]
    fn commit_batch_promotes_every_file() {
        let dir = std::env::temp_dir().join(format!("plbatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let staged: Vec<Staged> = ["a", "b", "c"]
            .iter()
            .map(|name| {
                let path = dir.join(name);
                let tmp = tmp_path_scoped(&path, "0123456789abcdef");
                let mut file = File::create(&tmp).unwrap();
                file.write_all(name.as_bytes()).unwrap();
                Staged { file, tmp, path }
            })
            .collect();
        commit_batch(&staged).unwrap();
        for s in &staged {
            assert!(!s.tmp.exists());
            assert_eq!(std::fs::read(&s.path).unwrap(), s.path.file_name().unwrap().as_encoded_bytes());
        }
        commit_batch(&[]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_staged_promotes() {
        let dir = std::env::temp_dir().join(format!("plstage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("b.bin");
        let tmp = tmp_path(&target);
        std::fs::write(&tmp, b"streamed").unwrap();
        commit_staged(&tmp, &target).unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"streamed");
        assert!(!tmp.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
