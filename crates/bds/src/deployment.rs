//! A deployed storage cluster: per-node chunk stores + shared services.

use orv_chunk::format::ChunkStore;
use orv_chunk::{ExtractorRegistry, FileChunkStore, MemChunkStore};
use orv_metadata::MetadataService;
use orv_types::{Error, NodeId, Result};
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The storage side of a cluster: one chunk store per storage node, the
/// shared MetaData service, and the extractor registry.
///
/// Each store sits behind a `Mutex`, which also models the fact that a
/// node's single disk serializes its I/O. Stores are independent of one
/// another: dataset generation runs one writer per node, and each writer
/// holds only its own node's lock.
///
/// Clones share all state (stores, catalog, extractors): federated
/// engine shards each hold a clone and see one storage cluster.
#[derive(Clone)]
pub struct Deployment {
    stores: Vec<Arc<Mutex<Box<dyn ChunkStore>>>>,
    metadata: Arc<MetadataService>,
    registry: Arc<RwLock<ExtractorRegistry>>,
    /// Durable count of chunk reads served by any BDS instance of this
    /// deployment — shared across clones, so federated shards all feed
    /// the same tally. A warm cache hit must not move this counter.
    chunk_reads: Arc<AtomicU64>,
}

impl Deployment {
    /// `n` storage nodes with in-memory chunk stores.
    pub fn in_memory(n: usize) -> Self {
        let stores = (0..n)
            .map(|_| {
                Arc::new(Mutex::new(
                    Box::new(MemChunkStore::new()) as Box<dyn ChunkStore>
                ))
            })
            .collect();
        Deployment {
            stores,
            metadata: Arc::new(MetadataService::new()),
            registry: Arc::new(RwLock::new(ExtractorRegistry::new())),
            chunk_reads: Arc::new(AtomicU64::new(0)),
        }
    }

    /// `n` storage nodes with real on-disk stores under
    /// `root/node<k>/`.
    pub fn on_disk(root: impl AsRef<Path>, n: usize) -> Result<Self> {
        let mut stores = Vec::with_capacity(n);
        for k in 0..n {
            let store = FileChunkStore::open(root.as_ref().join(format!("node{k}")))?;
            stores.push(Arc::new(Mutex::new(Box::new(store) as Box<dyn ChunkStore>)));
        }
        Ok(Deployment {
            stores,
            metadata: Arc::new(MetadataService::new()),
            registry: Arc::new(RwLock::new(ExtractorRegistry::new())),
            chunk_reads: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Persist this deployment's catalog (tables, chunks, join indices and
    /// layout sources) to a JSON file; pair with [`Deployment::reopen`].
    pub fn save_catalog(&self, path: impl AsRef<Path>) -> Result<()> {
        self.metadata.save_json(path)
    }

    /// Reopen an on-disk deployment from its data directory and a saved
    /// catalog: no data file is touched — chunk metadata, join indices and
    /// extractors (regenerated from persisted layout sources) come back
    /// exactly as saved. This is the framework's answer to DBMS ingestion
    /// cost: restarting costs one small JSON read.
    pub fn reopen(root: impl AsRef<Path>, n: usize, catalog: impl AsRef<Path>) -> Result<Self> {
        let metadata = Arc::new(MetadataService::load_json(catalog)?);
        let registry = Arc::new(RwLock::new(ExtractorRegistry::new()));
        {
            let mut reg = registry.write();
            for (_, source, coords) in metadata.layouts() {
                let desc = orv_layout::parse_layout(&source)?;
                let coord_refs: Vec<&str> = coords.iter().map(|s| s.as_str()).collect();
                reg.register(Arc::new(orv_chunk::LayoutExtractor::generate(
                    &desc,
                    &coord_refs,
                )?));
            }
        }
        let mut stores = Vec::with_capacity(n);
        for k in 0..n {
            let store = FileChunkStore::open(root.as_ref().join(format!("node{k}")))?;
            stores.push(Arc::new(Mutex::new(Box::new(store) as Box<dyn ChunkStore>)));
        }
        Ok(Deployment {
            stores,
            metadata,
            registry,
            chunk_reads: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Number of storage nodes.
    pub fn num_storage_nodes(&self) -> usize {
        self.stores.len()
    }

    /// The chunk store of one node.
    pub fn store(&self, node: NodeId) -> Result<&Arc<Mutex<Box<dyn ChunkStore>>>> {
        self.stores
            .get(node.index())
            .ok_or_else(|| Error::not_found(format!("storage node {node}")))
    }

    /// The shared MetaData service.
    pub fn metadata(&self) -> &Arc<MetadataService> {
        &self.metadata
    }

    /// The shared extractor registry.
    pub fn registry(&self) -> &Arc<RwLock<ExtractorRegistry>> {
        &self.registry
    }

    /// Chunk reads served so far, across every BDS instance and clone of
    /// this deployment. Regression tests use this to assert that a warm
    /// cache hit performs *zero* chunk reads.
    pub fn chunk_reads(&self) -> u64 {
        self.chunk_reads.load(Ordering::Relaxed)
    }

    /// The shared read tally, for BDS instances to report into.
    pub(crate) fn chunk_read_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.chunk_reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_deployment_shape() {
        let d = Deployment::in_memory(3);
        assert_eq!(d.num_storage_nodes(), 3);
        assert!(d.store(NodeId(2)).is_ok());
        assert!(d.store(NodeId(3)).is_err());
        assert_eq!(d.metadata().num_tables(), 0);
        assert!(d.registry().read().is_empty());
    }

    #[test]
    fn on_disk_deployment_creates_dirs() {
        let root = std::env::temp_dir().join(format!("orv-deploy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let d = Deployment::on_disk(&root, 2).unwrap();
        assert_eq!(d.num_storage_nodes(), 2);
        d.store(NodeId(0))
            .unwrap()
            .lock()
            .append("t.dat", b"abc")
            .unwrap();
        assert!(root.join("node0").join("t.dat").exists());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
