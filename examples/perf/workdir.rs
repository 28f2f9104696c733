//! Where the harness writes: sweep caches, span files and child reports all go
//! under the Cargo target directory, which the repository ignores.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `$CARGO_TARGET_DIR/perf-work` when Cargo (or the pipeline) names a target
/// directory, else `target/perf-work` beside the manifest this binary was built from.
pub fn root() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
    }
    .join("perf-work")
}

/// Create a fresh, empty directory for one use; the caller removes it.
pub fn scratch_dir(tag: &str) -> io::Result<PathBuf> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = root().join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
