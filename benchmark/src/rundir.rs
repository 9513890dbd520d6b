//! A private directory per run for snapshot and index files, removed
//! when the run ends, whether it succeeded or not.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// Where run directories are made: `tmp/` beside the running
/// executable, which is inside the build directory and so inside the
/// checkout — the benchmark writes nowhere else.
pub fn default_base() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().ok_or_else(|| std::io::Error::other("executable has no parent"))?;
    Ok(dir.join("tmp"))
}

/// A directory that no other run, process or thread shares: its name
/// joins the process id, the wall clock in nanoseconds and a
/// per-process counter, and creation fails rather than reuse a name.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create(base: &Path) -> std::io::Result<RunDir> {
        std::fs::create_dir_all(base)?;
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let count = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("run-{}-{nanos}-{count}", std::process::id()));
        std::fs::create_dir(&path)?;
        Ok(RunDir { path })
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here, and a panic
        // in drop would abort an unwinding run.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_dirs_are_distinct_and_removed_on_drop() {
        let base = default_base().unwrap();
        let dirs: Vec<RunDir> = (0..8).map(|_| RunDir::create(&base).unwrap()).collect();
        let mut paths: Vec<PathBuf> = dirs.iter().map(|d| d.file("")).collect();
        paths.sort();
        paths.dedup();
        assert_eq!(paths.len(), 8);
        std::fs::write(dirs[0].file("index.snap"), b"x").unwrap();
        let kept = dirs[0].file("");
        assert!(kept.is_dir());
        drop(dirs);
        assert!(paths.iter().all(|p| !p.exists()));
        assert!(!kept.exists());
    }

    #[test]
    fn a_failing_run_still_removes_its_directory() {
        let base = default_base().unwrap();
        let mut seen = None;
        let outcome: Result<(), String> = (|| {
            let dir = RunDir::create(&base).map_err(|e| e.to_string())?;
            seen = Some(dir.file(""));
            Err("phase failed".to_string())
        })();
        assert!(outcome.is_err());
        assert!(!seen.unwrap().exists());
    }
}
