//! Eviction over a cache directory's one on-disk store,
//! `<dir>/stages/`: every finished job and every pipeline stage is one
//! `<key>.stage` file there ([`crate::stagecache`] writes and reads
//! them). The filesystem is the index, so a sweep is a directory listing
//! plus `stat`s — no body is ever parsed here.
//!
//! Files at the top level of the directory — the JSON job files and
//! manifest of older builds — are outside the store: no sweep lists,
//! counts or deletes them.

use crate::key::JobKey;
use std::collections::HashSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// The store subdirectory of a cache directory.
pub(crate) const STAGE_SUBDIR: &str = "stages";

/// What [`crate::Engine::prune_cache`] may evict: files above a total
/// size budget and/or older than an age bound. Unset limits prune nothing,
/// so the default policy is a no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrunePolicy {
    /// Keep total file bytes at or under this budget, evicting the oldest
    /// files first.
    pub max_bytes: Option<u64>,
    /// Evict files older than this.
    pub max_age: Option<Duration>,
}

/// What an eviction sweep did, counted in files of the `stages/` store
/// (finished jobs and stage artifacts alike).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PruneReport {
    /// Files in the store before the sweep.
    pub scanned: usize,
    /// Files deleted.
    pub removed: usize,
    /// Bytes those files occupied.
    pub freed_bytes: u64,
    /// Files left after the sweep.
    pub kept: usize,
    /// Bytes the remaining files occupy.
    pub kept_bytes: u64,
    /// Files that were over budget but skipped because they are resident
    /// in a live engine's memo.
    pub pinned: usize,
}

impl serde::Serialize for PruneReport {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("PruneReport", 6)?;
        st.serialize_field("scanned", &self.scanned)?;
        st.serialize_field("removed", &self.removed)?;
        st.serialize_field("freed_bytes", &self.freed_bytes)?;
        st.serialize_field("kept", &self.kept)?;
        st.serialize_field("kept_bytes", &self.kept_bytes)?;
        st.serialize_field("pinned", &self.pinned)?;
        st.end()
    }
}

impl fmt::Display for PruneReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pruned {} of {} entries ({} bytes freed), {} kept ({} bytes)",
            self.removed, self.scanned, self.freed_bytes, self.kept, self.kept_bytes
        )?;
        if self.pinned > 0 {
            write!(f, ", {} pinned by the live run", self.pinned)?;
        }
        Ok(())
    }
}

/// One file found in the store, as seen by the prune walk.
struct Row {
    path: PathBuf,
    /// The key parsed from the file stem; `None` for foreign files, which
    /// can never be pinned and age out like anything else.
    key: Option<JobKey>,
    bytes: u64,
    mtime: u64,
}

/// Lists the files of the store directory `dir`, oldest first: every
/// regular, non-hidden file — current `<key>.stage` files and legacy
/// `<key>.json` verify tokens alike — so stale generations age out
/// instead of accreting. Hidden (dot-prefixed) names are in-flight spill
/// temp files and stay untouched. A missing directory is an empty store.
fn scan(dir: &Path) -> Vec<Row> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut rows = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if name.starts_with('.') || path.is_dir() {
            continue;
        }
        let meta = std::fs::metadata(&path).ok();
        rows.push(Row {
            key: path.file_stem().and_then(|s| s.to_str()).and_then(JobKey::from_hex),
            bytes: meta.as_ref().map_or(0, std::fs::Metadata::len),
            mtime: meta
                .and_then(|m| m.modified().ok())
                .and_then(|t| t.duration_since(SystemTime::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_secs()),
            path,
        });
    }
    // Oldest first; name order breaks mtime ties so sweeps are
    // deterministic.
    rows.sort_by(|a, b| (a.mtime, &a.path).cmp(&(b.mtime, &b.path)));
    rows
}

/// Runs one eviction sweep over the store directory `dir`: first drops
/// files older than `max_age`, then evicts oldest-first until the
/// remainder fits in `max_bytes`. Files whose key is in `pinned` are
/// never touched — they belong to a live run.
pub(crate) fn prune(
    dir: &Path,
    policy: &PrunePolicy,
    pinned: &HashSet<JobKey>,
    now_secs: u64,
) -> io::Result<PruneReport> {
    let rows = scan(dir);
    let is_pinned = |row: &Row| row.key.is_some_and(|key| pinned.contains(&key));
    let mut evict = vec![false; rows.len()];
    let mut held = vec![false; rows.len()];
    if let Some(max_age) = policy.max_age {
        for (i, row) in rows.iter().enumerate() {
            if now_secs.saturating_sub(row.mtime) > max_age.as_secs() {
                if is_pinned(row) {
                    held[i] = true;
                } else {
                    evict[i] = true;
                }
            }
        }
    }
    if let Some(max_bytes) = policy.max_bytes {
        let mut total: u64 =
            rows.iter().zip(&evict).filter(|(_, &e)| !e).map(|(r, _)| r.bytes).sum();
        for (i, row) in rows.iter().enumerate() {
            if total <= max_bytes {
                break;
            }
            if evict[i] {
                continue;
            }
            if is_pinned(row) {
                held[i] = true;
                continue;
            }
            evict[i] = true;
            total -= row.bytes;
        }
    }

    let mut freed_bytes = 0;
    for (row, _) in rows.iter().zip(&evict).filter(|(_, &e)| e) {
        match std::fs::remove_file(&row.path) {
            Ok(()) => freed_bytes += row.bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    let removed = evict.iter().filter(|&&e| e).count();
    Ok(PruneReport {
        scanned: rows.len(),
        removed,
        freed_bytes,
        kept: rows.len() - removed,
        kept_bytes: rows.iter().zip(&evict).filter(|(_, &e)| !e).map(|(r, _)| r.bytes).sum(),
        pinned: held.iter().filter(|&&h| h).count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bittrans_persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn set_mtime(path: &Path, secs: u64) {
        let file = std::fs::File::options().write(true).open(path).unwrap();
        let time = SystemTime::UNIX_EPOCH + Duration::from_secs(secs);
        file.set_times(std::fs::FileTimes::new().set_modified(time)).unwrap();
    }

    /// Writes `<key>.stage` with a fixed-size body and the given mtime.
    fn write_file(dir: &Path, key: JobKey, mtime: u64) -> PathBuf {
        let path = dir.join(format!("{key}.stage"));
        std::fs::write(&path, "bittrans-stage 2 job ok\n").unwrap();
        set_mtime(&path, mtime);
        path
    }

    #[test]
    fn prune_evicts_oldest_first_and_respects_pins() {
        let dir = temp_dir("prune");
        let keys: Vec<JobKey> = (0u8..4).map(|i| JobKey::of_bytes(&[b'p', i])).collect();
        // keys[0] oldest … keys[3] newest.
        let paths: Vec<PathBuf> = [600u64, 700, 800, 900]
            .iter()
            .zip(&keys)
            .map(|(&mtime, &key)| write_file(&dir, key, mtime))
            .collect();
        let bytes = std::fs::metadata(&paths[0]).unwrap().len();
        // Age bound removes the two files older than 250 s; the oldest
        // of them is pinned and must survive.
        let pinned: HashSet<JobKey> = [keys[0]].into_iter().collect();
        let policy = PrunePolicy { max_age: Some(Duration::from_secs(250)), max_bytes: None };
        let report = prune(&dir, &policy, &pinned, 1000).unwrap();
        assert_eq!(report.scanned, 4);
        assert_eq!(report.removed, 1);
        assert_eq!(report.pinned, 1);
        assert_eq!(report.freed_bytes, bytes);
        assert!(paths[0].exists() && !paths[1].exists());
        // Size bound: budget for two files evicts oldest-first among the
        // unpinned (keys[2] before keys[3]); the pinned file counts once.
        let policy = PrunePolicy { max_bytes: Some(2 * bytes), max_age: None };
        let report = prune(&dir, &policy, &pinned, 1000).unwrap();
        assert_eq!(report.removed, 1);
        assert_eq!(report.pinned, 1);
        assert!(!paths[2].exists() && paths[3].exists());
        assert_eq!(report.kept, 2);
        assert_eq!(report.kept_bytes, 2 * bytes);
    }

    #[test]
    fn prune_ages_out_legacy_tokens_and_skips_temp_files() {
        let dir = temp_dir("legacy");
        let (old_key, new_key) = (JobKey::of_bytes(b"old"), JobKey::of_bytes(b"new"));
        let old = write_file(&dir, old_key, 100);
        let new = write_file(&dir, new_key, 900);
        let legacy = dir.join(format!("{}.json", JobKey::of_bytes(b"legacy")));
        let temp = dir.join(".deadbeef.tmp");
        for path in [&legacy, &temp] {
            std::fs::write(path, "{}").unwrap();
        }
        set_mtime(&legacy, 150);

        // Age pass: the old artifact and the legacy token age out; the
        // fresh artifact and the dot temp file survive.
        let policy = PrunePolicy { max_age: Some(Duration::from_secs(500)), max_bytes: None };
        let report = prune(&dir, &policy, &HashSet::new(), 1000).unwrap();
        assert_eq!(report.scanned, 3, "temp files are not scanned");
        assert_eq!(report.removed, 2);
        assert_eq!(report.kept, 1);
        assert!(report.freed_bytes > 0);
        assert!(!old.exists() && !legacy.exists());
        assert!(new.exists() && temp.exists());

        // A zero budget cannot touch a pinned file.
        let pinned: HashSet<JobKey> = [new_key].into_iter().collect();
        let policy = PrunePolicy { max_bytes: Some(0), max_age: None };
        let report = prune(&dir, &policy, &pinned, 1000).unwrap();
        assert_eq!((report.removed, report.pinned, report.kept), (0, 1, 1));
        assert!(new.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn default_policy_is_a_no_op_and_a_missing_store_is_empty() {
        let dir = temp_dir("noop");
        let path = write_file(&dir, JobKey::of_bytes(b"keep"), 1);
        let report = prune(&dir, &PrunePolicy::default(), &HashSet::new(), 1_000_000).unwrap();
        assert_eq!((report.removed, report.kept), (0, 1));
        assert!(path.exists());
        let report =
            prune(&dir.join("absent"), &PrunePolicy::default(), &HashSet::new(), 0).unwrap();
        assert_eq!(report.scanned, 0);
    }
}
