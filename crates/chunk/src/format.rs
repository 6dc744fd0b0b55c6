//! Chunk storage format helpers.
//!
//! Chunks are contiguous segments of larger data files, addressed by
//! `(file, offset, len)` — the paper's "offset in data file and its size".
//! [`ChunkStore`] packs chunk bytes into per-node data files and reads them
//! back; it is the lowest layer of the BDS service. An in-memory variant
//! backs tests and the threaded runtime's fast path.

use bytes::Bytes;
use orv_types::{Error, Result};
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Address of a chunk within a node's data files.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChunkLocation {
    /// Data file name (relative to the node's data directory).
    pub file: String,
    /// Byte offset of the chunk within the file.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
}

/// Where chunk bytes live on one storage node.
pub trait ChunkStore: Send + Sync {
    /// Append a chunk to the named data file, returning its location.
    fn append(&mut self, file: &str, data: &[u8]) -> Result<ChunkLocation>;

    /// Read a chunk's bytes.
    fn read(&self, loc: &ChunkLocation) -> Result<Bytes>;

    /// Total bytes stored.
    fn total_bytes(&self) -> u64;
}

/// Chunks held in process memory — used by tests and by simulator-backed
/// runs where the disk is modelled, not exercised.
#[derive(Default, Debug)]
pub struct MemChunkStore {
    files: HashMap<String, Vec<u8>>,
}

impl MemChunkStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ChunkStore for MemChunkStore {
    fn append(&mut self, file: &str, data: &[u8]) -> Result<ChunkLocation> {
        let buf = self.files.entry(file.to_string()).or_default();
        let offset = buf.len() as u64;
        buf.extend_from_slice(data);
        Ok(ChunkLocation {
            file: file.to_string(),
            offset,
            len: data.len() as u64,
        })
    }

    fn read(&self, loc: &ChunkLocation) -> Result<Bytes> {
        let buf = self
            .files
            .get(&loc.file)
            .ok_or_else(|| Error::not_found(format!("data file `{}`", loc.file)))?;
        let end = loc
            .offset
            .checked_add(loc.len)
            .filter(|&e| e <= buf.len() as u64)
            .ok_or_else(|| {
                Error::Format(format!(
                    "chunk at {}+{} overruns data file `{}` ({} bytes)",
                    loc.offset,
                    loc.len,
                    loc.file,
                    buf.len()
                ))
            })?;
        Ok(Bytes::copy_from_slice(
            &buf[loc.offset as usize..end as usize],
        ))
    }

    fn total_bytes(&self) -> u64 {
        self.files.values().map(|b| b.len() as u64).sum()
    }
}

/// Chunks stored in real files under a directory — one file per virtual
/// table per node, as the parallel simulation writers produce them.
#[derive(Debug)]
pub struct FileChunkStore {
    dir: PathBuf,
    written: u64,
}

impl FileChunkStore {
    /// Open (creating the directory if needed).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(FileChunkStore {
            dir: dir.as_ref().to_path_buf(),
            written: 0,
        })
    }

    fn path_of(&self, file: &str) -> Result<PathBuf> {
        if file.contains('/') || file.contains("..") {
            return Err(Error::Config(format!("invalid data file name `{file}`")));
        }
        Ok(self.dir.join(file))
    }
}

impl ChunkStore for FileChunkStore {
    fn append(&mut self, file: &str, data: &[u8]) -> Result<ChunkLocation> {
        let path = self.path_of(file)?;
        #[allow(
            clippy::disallowed_types,
            reason = "chunk pages are sealed with ChunkMeta.checksum at generation and verified on every read"
        )]
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let offset = f.seek(SeekFrom::End(0))?;
        f.write_all(data)?;
        self.written += data.len() as u64;
        Ok(ChunkLocation {
            file: file.to_string(),
            offset,
            len: data.len() as u64,
        })
    }

    fn read(&self, loc: &ChunkLocation) -> Result<Bytes> {
        let path = self.path_of(&loc.file)?;
        let mut f = fs::File::open(path)
            .map_err(|e| Error::NotFound(format!("data file `{}`: {e}", loc.file)))?;
        f.seek(SeekFrom::Start(loc.offset))?;
        let mut buf = vec![0u8; loc.len as usize];
        f.read_exact(&mut buf).map_err(|e| {
            Error::Format(format!(
                "chunk at {}+{} in `{}`: {e}",
                loc.offset, loc.len, loc.file
            ))
        })?;
        Ok(Bytes::from(buf))
    }

    fn total_bytes(&self) -> u64 {
        self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn ChunkStore) {
        let a = store.append("t1.dat", b"hello").unwrap();
        let b = store.append("t1.dat", b"world!").unwrap();
        let c = store.append("t2.dat", b"xyz").unwrap();
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 5);
        assert_eq!(store.read(&a).unwrap().as_ref(), b"hello");
        assert_eq!(store.read(&b).unwrap().as_ref(), b"world!");
        assert_eq!(store.read(&c).unwrap().as_ref(), b"xyz");
        assert_eq!(store.total_bytes(), 14);
    }

    #[test]
    fn mem_store_roundtrip() {
        let mut s = MemChunkStore::new();
        exercise(&mut s);
        // Overrun detection.
        let bad = ChunkLocation {
            file: "t1.dat".into(),
            offset: 8,
            len: 100,
        };
        assert!(s.read(&bad).is_err());
        let missing = ChunkLocation {
            file: "nope".into(),
            offset: 0,
            len: 1,
        };
        assert!(s.read(&missing).is_err());
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("orv-chunkstore-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut s = FileChunkStore::open(&dir).unwrap();
        exercise(&mut s);
        // Re-open and read back.
        let s2 = FileChunkStore::open(&dir).unwrap();
        let loc = ChunkLocation {
            file: "t1.dat".into(),
            offset: 5,
            len: 6,
        };
        assert_eq!(s2.read(&loc).unwrap().as_ref(), b"world!");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_rejects_path_escape() {
        let dir = std::env::temp_dir().join(format!("orv-chunkstore-esc-{}", std::process::id()));
        let mut s = FileChunkStore::open(&dir).unwrap();
        assert!(s.append("../evil", b"x").is_err());
        assert!(s.append("a/b", b"x").is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
