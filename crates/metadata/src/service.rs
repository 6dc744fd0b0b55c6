//! The shared, thread-safe MetaData service.
//!
//! All framework services (BDS instances, QES instances, the planner) hold
//! an `Arc<MetadataService>`. Reads vastly outnumber writes once a dataset
//! is registered, so the catalog sits behind a `parking_lot::RwLock`.
//! Besides the chunk catalog, the service stores *persistent artifacts* —
//! notably precomputed page-level join indices ("The page-index can be
//! precomputed for common join attributes").

use crate::catalog::Catalog;
use orv_chunk::ChunkMeta;
use orv_types::{BoundingBox, ChunkId, Result, Schema, SubTableId, TableId};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A stored page-level join index.
type JoinIndex = Arc<Vec<(SubTableId, SubTableId)>>;

/// Lock-free usage counters for the service; exported to an
/// observability registry via [`MetadataService::publish_into`].
#[derive(Default)]
struct MdCounters {
    /// R-tree range resolutions ([`MetadataService::find_chunks`]).
    rtree_probes: AtomicU64,
    /// Catalog reads (schema/chunk/table lookups).
    catalog_lookups: AtomicU64,
    /// Precomputed join-index fetches that hit.
    join_index_hits: AtomicU64,
    /// Precomputed join-index fetches that missed.
    join_index_misses: AtomicU64,
}

/// Thread-safe MetaData service.
#[derive(Default)]
pub struct MetadataService {
    catalog: RwLock<Catalog>,
    /// Precomputed page-level join indices, keyed by
    /// `(left table, right table, join attrs)`. Ordered maps here and in
    /// `layouts`, so a saved catalog lists both in key order and its bytes
    /// do not depend on a per-process hash seed.
    join_indices: RwLock<BTreeMap<String, JoinIndex>>,
    /// Layout-description sources keyed by extractor name, with their
    /// coordinate attribute names — enough to regenerate every extractor
    /// when a persisted deployment is reopened.
    layouts: RwLock<BTreeMap<String, (String, Vec<String>)>>,
    counters: MdCounters,
}

impl MetadataService {
    /// An empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table; returns its id.
    pub fn register_table(&self, name: impl Into<String>, schema: Arc<Schema>) -> Result<TableId> {
        self.catalog.write().register_table(name, schema)
    }

    /// Register a chunk.
    pub fn register_chunk(&self, meta: ChunkMeta) -> Result<()> {
        self.catalog.write().register_chunk(meta)
    }

    /// Table id by name.
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.counters
            .catalog_lookups
            .fetch_add(1, Ordering::Relaxed);
        Ok(self.catalog.read().table_by_name(name)?.id)
    }

    /// Table name by id.
    pub fn table_name(&self, id: TableId) -> Result<String> {
        self.counters
            .catalog_lookups
            .fetch_add(1, Ordering::Relaxed);
        Ok(self.catalog.read().table(id)?.name.clone())
    }

    /// Schema of a table.
    pub fn schema(&self, id: TableId) -> Result<Arc<Schema>> {
        self.counters
            .catalog_lookups
            .fetch_add(1, Ordering::Relaxed);
        Ok(Arc::clone(&self.catalog.read().table(id)?.schema))
    }

    /// Metadata of one chunk (cloned out of the catalog).
    pub fn chunk_meta(&self, id: SubTableId) -> Result<ChunkMeta> {
        self.counters
            .catalog_lookups
            .fetch_add(1, Ordering::Relaxed);
        Ok(self
            .catalog
            .read()
            .table(id.table)?
            .chunk(id.chunk)?
            .clone())
    }

    /// Ids of all chunks of `table` overlapping `range` — the "range part
    /// of the query" resolution, via the R-tree.
    pub fn find_chunks(&self, table: TableId, range: &BoundingBox) -> Result<Vec<ChunkId>> {
        self.counters.rtree_probes.fetch_add(1, Ordering::Relaxed);
        Ok(self.catalog.read().table(table)?.find_chunks(range))
    }

    /// All chunk ids of a table.
    pub fn all_chunks(&self, table: TableId) -> Result<Vec<ChunkId>> {
        Ok(self
            .catalog
            .read()
            .table(table)?
            .chunks()
            .iter()
            .map(|m| m.chunk)
            .collect())
    }

    /// Total records of a table.
    pub fn total_records(&self, table: TableId) -> Result<u64> {
        Ok(self.catalog.read().table(table)?.total_records())
    }

    /// Number of registered tables.
    pub fn num_tables(&self) -> usize {
        self.catalog.read().num_tables()
    }

    /// Names of all registered tables, in id order.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog
            .read()
            .tables()
            .map(|t| t.name.clone())
            .collect()
    }

    /// Export all stored join indices (for persistence).
    pub(crate) fn export_join_indices(&self) -> Vec<(String, Vec<(SubTableId, SubTableId)>)> {
        self.join_indices
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.as_ref().clone()))
            .collect()
    }

    /// Import previously exported join indices (for persistence).
    pub(crate) fn import_join_indices(
        &self,
        indices: Vec<(String, Vec<(SubTableId, SubTableId)>)>,
    ) {
        let mut map = self.join_indices.write();
        for (k, v) in indices {
            map.insert(k, Arc::new(v));
        }
    }

    /// Store the DSL source of a layout (and its coordinate attribute
    /// names) so extractors can be regenerated after a restart.
    pub fn register_layout(&self, name: impl Into<String>, source: String, coords: Vec<String>) {
        self.layouts.write().insert(name.into(), (source, coords));
    }

    /// All stored layout sources as `(name, source, coords)`.
    pub fn layouts(&self) -> Vec<(String, String, Vec<String>)> {
        self.layouts
            .read()
            .iter()
            .map(|(n, (s, c))| (n.clone(), s.clone(), c.clone()))
            .collect()
    }

    /// Run `f` against the chunk metadata of a table without cloning.
    pub fn with_chunks<R>(&self, table: TableId, f: impl FnOnce(&[ChunkMeta]) -> R) -> Result<R> {
        let cat = self.catalog.read();
        Ok(f(cat.table(table)?.chunks()))
    }

    /// Store a precomputed page-level join index.
    pub fn put_join_index(
        &self,
        left: TableId,
        right: TableId,
        attrs: &[&str],
        pairs: Vec<(SubTableId, SubTableId)>,
    ) {
        let key = join_index_key(left, right, attrs);
        self.join_indices.write().insert(key, Arc::new(pairs));
    }

    /// Fetch a precomputed page-level join index, if one exists.
    pub fn get_join_index(
        &self,
        left: TableId,
        right: TableId,
        attrs: &[&str],
    ) -> Option<Arc<Vec<(SubTableId, SubTableId)>>> {
        let found = self
            .join_indices
            .read()
            .get(&join_index_key(left, right, attrs))
            .cloned();
        let counter = match found {
            Some(_) => &self.counters.join_index_hits,
            None => &self.counters.join_index_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Publish the service's usage counters into an observability
    /// registry under `md/…`. Counters add, so repeated publishes (or
    /// several services sharing one registry) merge uniformly.
    pub fn publish_into(&self, metrics: &orv_obs::MetricsRegistry) {
        let c = |name: &str, v: &AtomicU64| {
            metrics
                .counter(&format!("md/{name}"))
                .add(v.swap(0, Ordering::Relaxed));
        };
        c("rtree_probes", &self.counters.rtree_probes);
        c("catalog_lookups", &self.counters.catalog_lookups);
        c("join_index_hits", &self.counters.join_index_hits);
        c("join_index_misses", &self.counters.join_index_misses);
    }
}

fn join_index_key(left: TableId, right: TableId, attrs: &[&str]) -> String {
    format!("{left}⋈{right}:{}", attrs.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_chunk::ChunkLocation;
    use orv_types::{Interval, NodeId};

    fn service_with_table() -> (Arc<MetadataService>, TableId) {
        let svc = Arc::new(MetadataService::new());
        let schema = Arc::new(Schema::grid(&["x"], &["p"]).unwrap());
        let t = svc.register_table("T1", schema).unwrap();
        for i in 0..4u32 {
            svc.register_chunk(ChunkMeta {
                table: t,
                chunk: ChunkId(i),
                node: NodeId(i % 2),
                location: ChunkLocation {
                    file: "t1.dat".into(),
                    offset: (i * 64) as u64,
                    len: 64,
                },
                attributes: vec!["x".into(), "p".into()],
                extractors: vec!["e".into()],
                bbox: BoundingBox::from_dims([(
                    "x",
                    Interval::new(i as f64 * 10.0, i as f64 * 10.0 + 9.0),
                )]),
                num_records: 8,
                checksum: None,
            })
            .unwrap();
        }
        (svc, t)
    }

    #[test]
    fn basic_lookups() {
        let (svc, t) = service_with_table();
        assert_eq!(svc.table_id("T1").unwrap(), t);
        assert_eq!(svc.table_name(t).unwrap(), "T1");
        assert_eq!(svc.schema(t).unwrap().arity(), 2);
        assert_eq!(svc.total_records(t).unwrap(), 32);
        assert_eq!(svc.all_chunks(t).unwrap().len(), 4);
        let meta = svc.chunk_meta(SubTableId::new(t.0, 2u32)).unwrap();
        assert_eq!(meta.location.offset, 128);
        assert_eq!(svc.num_tables(), 1);
    }

    #[test]
    fn range_resolution() {
        let (svc, t) = service_with_table();
        let q = BoundingBox::from_dims([("x", Interval::new(12.0, 25.0))]);
        assert_eq!(
            svc.find_chunks(t, &q).unwrap(),
            vec![ChunkId(1), ChunkId(2)]
        );
    }

    #[test]
    fn join_index_store() {
        let (svc, t) = service_with_table();
        assert!(svc.get_join_index(t, t, &["x"]).is_none());
        let pairs = vec![(SubTableId::new(0u32, 0u32), SubTableId::new(1u32, 0u32))];
        svc.put_join_index(t, t, &["x"], pairs.clone());
        assert_eq!(*svc.get_join_index(t, t, &["x"]).unwrap(), pairs);
        // Different attrs → different key.
        assert!(svc.get_join_index(t, t, &["x", "y"]).is_none());
    }

    #[test]
    fn usage_counters_published() {
        let (svc, t) = service_with_table();
        let q = BoundingBox::from_dims([("x", Interval::new(0.0, 5.0))]);
        svc.find_chunks(t, &q).unwrap();
        svc.find_chunks(t, &q).unwrap();
        svc.schema(t).unwrap();
        assert!(svc.get_join_index(t, t, &["x"]).is_none());
        svc.put_join_index(t, t, &["x"], Vec::new());
        assert!(svc.get_join_index(t, t, &["x"]).is_some());
        let metrics = orv_obs::MetricsRegistry::new();
        svc.publish_into(&metrics);
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["md/rtree_probes"], 2);
        assert_eq!(snap.counters["md/catalog_lookups"], 1);
        assert_eq!(snap.counters["md/join_index_hits"], 1);
        assert_eq!(snap.counters["md/join_index_misses"], 1);
        // publish_into drains: a second publish adds nothing.
        svc.publish_into(&metrics);
        assert_eq!(metrics.snapshot().counters["md/rtree_probes"], 2);
    }

    #[test]
    fn concurrent_readers() {
        let (svc, t) = service_with_table();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let svc = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    let q = BoundingBox::from_dims([(
                        "x",
                        Interval::new((i % 40) as f64, (i % 40) as f64 + 1.0),
                    )]);
                    let _ = svc.find_chunks(t, &q).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
