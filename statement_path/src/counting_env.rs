//! An [`Env`] over [`StdEnv`] that counts: per-call time and bytes of
//! every append, sync and atomic write, and for each file its length and
//! the length that was last made durable.
//!
//! The second part is what the durability check needs. Killing the process
//! would leave the operating system's cache intact, so the check itself
//! discards what was never flushed: [`CountingEnv::copy_synced`] copies the
//! directory, cutting every file back to its synced length.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use isql::env::{Env, StdEnv};

use crate::trace;

#[derive(Clone, Debug, Default)]
pub struct EnvCounts {
    pub append_us: Vec<f64>,
    pub append_bytes: u64,
    pub sync_us: Vec<f64>,
    pub atomic_writes: u64,
    pub atomic_bytes: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct FileState {
    len: u64,
    /// `None` until the first sync: a file that was never synced may lose
    /// its directory entry with everything in it.
    synced: Option<u64>,
}

#[derive(Debug)]
pub struct CountingEnv {
    inner: StdEnv,
    counts: Mutex<EnvCounts>,
    files: Mutex<BTreeMap<String, FileState>>,
}

impl CountingEnv {
    pub fn new(root: impl AsRef<Path>) -> io::Result<CountingEnv> {
        Ok(CountingEnv {
            inner: StdEnv::new(root)?,
            counts: Mutex::new(EnvCounts::default()),
            files: Mutex::new(BTreeMap::new()),
        })
    }

    /// The counts since the last call, leaving them at zero.
    pub fn take_counts(&self) -> EnvCounts {
        std::mem::take(&mut *self.counts.lock().expect("counting never panics"))
    }

    /// Bytes in the directory as this env wrote them.
    pub fn dir_bytes(&self) -> u64 {
        let files = self.files.lock().expect("counting never panics");
        files.values().map(|f| f.len).sum()
    }

    /// Copy the directory to `dest` as a crash would leave it: each file
    /// cut to its last synced length, never-synced files absent.
    pub fn copy_synced(&self, dest: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dest)?;
        let files = self.files.lock().expect("counting never panics");
        for (name, state) in files.iter() {
            let Some(synced) = state.synced else { continue };
            let mut bytes = self.inner.read(name)?;
            bytes.truncate(synced as usize);
            std::fs::write(dest.join(name), bytes)?;
        }
        Ok(())
    }

    fn file<R>(&self, name: &str, f: impl FnOnce(&mut FileState) -> R) -> R {
        let mut files = self.files.lock().expect("counting never panics");
        f(files.entry(name.to_string()).or_default())
    }
}

impl Env for CountingEnv {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        trace::span("env.append", || {
            let t = Instant::now();
            self.inner.append(name, data)?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            self.file(name, |f| f.len += data.len() as u64);
            let mut c = self.counts.lock().expect("counting never panics");
            c.append_us.push(us);
            c.append_bytes += data.len() as u64;
            Ok(())
        })
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        trace::span("env.sync", || {
            // Everything appended before the call is durable after it;
            // bytes another thread appends meanwhile are not counted.
            let len_before = self.file(name, |f| f.len);
            let t = Instant::now();
            self.inner.sync(name)?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            self.file(name, |f| {
                f.synced = Some(f.synced.unwrap_or(0).max(len_before))
            });
            self.counts
                .lock()
                .expect("counting never panics")
                .sync_us
                .push(us);
            Ok(())
        })
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()> {
        trace::span("env.write_atomic", || {
            self.inner.write_atomic(name, data)?;
            let len = data.len() as u64;
            self.file(name, |f| {
                *f = FileState {
                    len,
                    synced: Some(len),
                }
            });
            let mut c = self.counts.lock().expect("counting never panics");
            c.atomic_writes += 1;
            c.atomic_bytes += len;
            Ok(())
        })
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)?;
        self.files
            .lock()
            .expect("counting never panics")
            .remove(name);
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}
