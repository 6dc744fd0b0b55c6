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
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock};

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
    /// The store takes the chunk's buffer: a memory store keeps it as it
    /// is, so appending copies nothing.
    fn append(&mut self, file: &str, data: Bytes) -> Result<ChunkLocation>;

    /// Read a chunk's bytes.
    fn read(&self, loc: &ChunkLocation) -> Result<Bytes>;

    /// Total bytes stored.
    fn total_bytes(&self) -> u64;
}

/// Chunks held in process memory — used by tests and by simulator-backed
/// runs where the disk is modelled, not exercised. Each appended chunk is
/// kept as its own [`Bytes`], so a read hands out a reference to it, not
/// a copy.
#[derive(Default, Debug)]
pub struct MemChunkStore {
    /// Per data file, its chunks in append order, each at its offset.
    files: HashMap<String, Vec<(u64, Bytes)>>,
}

impl MemChunkStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The length of a data file whose chunks are `chunks`.
fn mem_file_len(chunks: &[(u64, Bytes)]) -> u64 {
    chunks.last().map_or(0, |(at, b)| at + b.len() as u64)
}

impl ChunkStore for MemChunkStore {
    fn append(&mut self, file: &str, data: Bytes) -> Result<ChunkLocation> {
        let chunks = self.files.entry(file.to_string()).or_default();
        let offset = mem_file_len(chunks);
        let len = data.len() as u64;
        chunks.push((offset, data));
        Ok(ChunkLocation {
            file: file.to_string(),
            offset,
            len,
        })
    }

    /// The chunk appended at `loc`; a location that is not exactly one
    /// appended chunk is an [`Error::Format`].
    fn read(&self, loc: &ChunkLocation) -> Result<Bytes> {
        let chunks = self
            .files
            .get(&loc.file)
            .ok_or_else(|| Error::not_found(format!("data file `{}`", loc.file)))?;
        let from = chunks.partition_point(|(at, _)| *at < loc.offset);
        let chunk = chunks[from..]
            .iter()
            .take_while(|(at, _)| *at == loc.offset)
            .find(|(_, b)| b.len() as u64 == loc.len);
        let malformed = || {
            let size = mem_file_len(chunks);
            let past_end = loc.offset.checked_add(loc.len).is_none_or(|e| e > size);
            let what = if past_end {
                "overruns"
            } else {
                "is not one appended chunk of"
            };
            Error::Format(format!(
                "chunk at {}+{} {what} data file `{}` ({size} bytes)",
                loc.offset, loc.len, loc.file
            ))
        };
        chunk.map(|(_, b)| b.clone()).ok_or_else(malformed)
    }

    fn total_bytes(&self) -> u64 {
        self.files.values().map(|c| mem_file_len(c)).sum()
    }
}

/// Chunks stored in real files under a directory — one file per virtual
/// table per node, as the parallel simulation writers produce them.
///
/// The store keeps one handle per data file and reads a chunk with one
/// positioned read. The files present at [`FileChunkStore::open`] are
/// opened read-only there, so a store over a read-only directory reads;
/// a file another store creates later is opened on its first read, and a
/// file gets a write handle on its first append.
#[derive(Debug)]
pub struct FileChunkStore {
    dir: PathBuf,
    files: RwLock<HashMap<String, DataFile>>,
    written: u64,
}

/// One open data file.
#[derive(Debug)]
struct DataFile {
    handle: Arc<fs::File>,
    writable: bool,
}

impl FileChunkStore {
    /// Open (creating the directory if needed), and every data file in it.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut files = HashMap::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let Some(name) = entry.file_name().to_str().map(str::to_string) else {
                continue;
            };
            if entry.file_type()?.is_file() {
                let handle = Arc::new(open_data_file(&entry.path(), false)?);
                let writable = false;
                files.insert(name, DataFile { handle, writable });
            }
        }
        Ok(FileChunkStore {
            dir,
            files: RwLock::new(files),
            written: 0,
        })
    }

    fn path_of(&self, file: &str) -> Result<PathBuf> {
        if file.contains('/') || file.contains("..") {
            return Err(Error::Config(format!("invalid data file name `{file}`")));
        }
        Ok(self.dir.join(file))
    }

    /// The handle of data file `file`, opened read-only if the store has
    /// none yet.
    fn handle(&self, file: &str) -> Result<Arc<fs::File>> {
        let files = self.files.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(f) = files.get(file) {
            return Ok(Arc::clone(&f.handle));
        }
        drop(files);
        let handle = open_data_file(&self.path_of(file)?, false)
            .map_err(|e| Error::NotFound(format!("data file `{file}`: {e}")))?;
        let mut files = self.files.write().unwrap_or_else(PoisonError::into_inner);
        let entry = files.entry(file.to_string()).or_insert(DataFile {
            handle: Arc::new(handle),
            writable: false,
        });
        Ok(Arc::clone(&entry.handle))
    }
}

/// Open a data file: read-only, or for appending (created if missing).
/// This is the one place chunk bytes are opened for writing.
#[allow(
    clippy::disallowed_types,
    reason = "chunk pages are sealed with ChunkMeta.checksum at generation and verified on every read"
)]
fn open_data_file(path: &Path, append: bool) -> std::io::Result<fs::File> {
    fs::OpenOptions::new()
        .read(true)
        .append(append)
        .create(append)
        .open(path)
}

impl ChunkStore for FileChunkStore {
    fn append(&mut self, file: &str, data: Bytes) -> Result<ChunkLocation> {
        let path = self.path_of(file)?;
        let files = self.files.get_mut().unwrap_or_else(PoisonError::into_inner);
        let handle = match files.get(file) {
            Some(f) if f.writable => Arc::clone(&f.handle),
            _ => {
                let handle = Arc::new(open_data_file(&path, true)?);
                let entry = DataFile {
                    handle: Arc::clone(&handle),
                    writable: true,
                };
                files.insert(file.to_string(), entry);
                handle
            }
        };
        let mut handle = &*handle;
        let offset = handle.seek(SeekFrom::End(0))?;
        handle.write_all(&data)?;
        self.written += data.len() as u64;
        Ok(ChunkLocation {
            file: file.to_string(),
            offset,
            len: data.len() as u64,
        })
    }

    fn read(&self, loc: &ChunkLocation) -> Result<Bytes> {
        let handle = self.handle(&loc.file)?;
        let mut buf = vec![0u8; loc.len as usize];
        handle.read_exact_at(&mut buf, loc.offset).map_err(|e| {
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
        let a = store
            .append("t1.dat", Bytes::copy_from_slice(b"hello"))
            .unwrap();
        let b = store
            .append("t1.dat", Bytes::copy_from_slice(b"world!"))
            .unwrap();
        let c = store
            .append("t2.dat", Bytes::copy_from_slice(b"xyz"))
            .unwrap();
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
    fn mem_store_reads_share_the_appended_chunk() {
        let mut s = MemChunkStore::new();
        s.append("t1.dat", Bytes::copy_from_slice(b"hello"))
            .unwrap();
        let b = s
            .append("t1.dat", Bytes::copy_from_slice(b"world!"))
            .unwrap();
        let (one, two) = (s.read(&b).unwrap(), s.read(&b).unwrap());
        assert_eq!(one.as_ptr(), two.as_ptr(), "a read is not a copy");
        // Appending keeps the writer's buffer: no copy on the way in.
        let chunk = b"xyz".to_vec();
        let at = chunk.as_ptr();
        let c = s.append("t2.dat", chunk.into()).unwrap();
        assert_eq!(s.read(&c).unwrap().as_ptr(), at, "an append is not a copy");
        // Inside the file but not one appended chunk: a part of one, a
        // span across two, a chunk's bytes at a shifted offset.
        for (offset, len) in [(5, 3), (6, 5), (3, 5), (0, 11), (4, 6)] {
            let file = "t1.dat".into();
            let err = s.read(&ChunkLocation { file, offset, len }).unwrap_err();
            assert!(matches!(err, Error::Format(_)), "{offset}+{len}: {err}");
        }
        let file = "t1.dat".into();
        let past = s.read(&ChunkLocation {
            file,
            offset: 11,
            len: 1,
        });
        assert!(past.unwrap_err().to_string().contains("overruns"));
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
    fn file_store_reads_what_another_store_appended_after_it_opened() {
        let dir = std::env::temp_dir().join(format!("orv-chunkstore-late-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut writer = FileChunkStore::open(&dir).unwrap();
        let early = writer
            .append("t1.dat", Bytes::copy_from_slice(b"hello"))
            .unwrap();
        let reader = FileChunkStore::open(&dir).unwrap();
        assert_eq!(reader.read(&early).unwrap().as_ref(), b"hello");
        // A file the reader opened read-only grew, and a file it has
        // never seen appeared.
        let grown = writer
            .append("t1.dat", Bytes::copy_from_slice(b"world!"))
            .unwrap();
        let fresh = writer
            .append("t2.dat", Bytes::copy_from_slice(b"xyz"))
            .unwrap();
        assert_eq!(reader.read(&grown).unwrap().as_ref(), b"world!");
        assert_eq!(reader.read(&fresh).unwrap().as_ref(), b"xyz");
        // The reader appends through a write handle of its own.
        let mut reader = reader;
        let late = reader
            .append("t1.dat", Bytes::copy_from_slice(b"!"))
            .unwrap();
        assert_eq!(late.offset, 11);
        assert_eq!(writer.read(&late).unwrap().as_ref(), b"!");
        let past = ChunkLocation {
            file: "t1.dat".into(),
            offset: 12,
            len: 1,
        };
        assert!(matches!(reader.read(&past), Err(Error::Format(_))));
        let missing = ChunkLocation {
            file: "t3.dat".into(),
            offset: 0,
            len: 1,
        };
        assert!(matches!(reader.read(&missing), Err(Error::NotFound(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_rejects_path_escape() {
        let dir = std::env::temp_dir().join(format!("orv-chunkstore-esc-{}", std::process::id()));
        let mut s = FileChunkStore::open(&dir).unwrap();
        assert!(s.append("../evil", Bytes::copy_from_slice(b"x")).is_err());
        assert!(s.append("a/b", Bytes::copy_from_slice(b"x")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
