//! Collision-free scratch paths for tests and harnesses.
//!
//! `cargo test` runs tests on parallel threads of one process, and CI
//! legs run several test processes at once, so a temp-file name built
//! from a fixed string or the process id alone is shared: one test
//! deletes the file another is reading. A [`TempPath`] joins the
//! process id, the wall clock in nanoseconds and a process-wide counter,
//! and removes whatever was created at it when dropped.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A path under [`std::env::temp_dir`] that no other call, thread or
/// process shares. Nothing is created at it; whatever the caller creates
/// there — a file, or a directory and its contents — is removed on drop.
#[derive(Debug)]
pub struct TempPath(PathBuf);

impl TempPath {
    /// A fresh path whose file name starts with `tag` and ends with
    /// `suffix` (e.g. `".snap"`, or `""` for a directory).
    pub fn new(tag: &str, suffix: &str) -> TempPath {
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let count = COUNTER.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        TempPath(std::env::temp_dir().join(format!("{tag}-{pid}-{nanos}-{count}{suffix}")))
    }

    /// The path itself.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here, and a panic
        // in drop would abort an unwinding test.
        if self.0.is_dir() {
            let _ = std::fs::remove_dir_all(&self.0);
        } else {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_distinct_and_removed_on_drop() {
        let paths: Vec<TempPath> = (0..8).map(|_| TempPath::new("sapla-temp-test", ".x")).collect();
        let mut names: Vec<PathBuf> = paths.iter().map(|p| p.path().to_path_buf()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8);

        std::fs::write(&paths[0], b"x").unwrap();
        std::fs::create_dir_all(paths[1].path().join("nested")).unwrap();
        std::fs::write(paths[1].path().join("nested/file"), b"y").unwrap();
        assert!(paths[0].path().is_file() && paths[1].path().is_dir());
        drop(paths);
        assert!(names.iter().all(|n| !n.exists()));
    }
}
