//! Table/chunk catalog backing the MetaData service.

use crate::rtree::{RTree, Rect};
use orv_chunk::ChunkMeta;
use orv_types::{BoundingBox, ChunkId, Error, Result, Schema, TableId};
use std::collections::HashMap;
use std::sync::Arc;

/// Catalog entry for one virtual table.
pub struct TableEntry {
    /// The table's id.
    pub id: TableId,
    /// Human name (`"T1"`, `"pressure"`, ...).
    pub name: String,
    /// Schema of the virtual table.
    pub schema: Arc<Schema>,
    /// Chunk metadata, indexed by chunk id.
    chunks: Vec<ChunkMeta>,
    /// R-tree over chunk bounding boxes, on the table's coordinate
    /// attributes (in schema order); packed again whenever chunks are
    /// registered.
    index: RTree<ChunkId>,
    /// Names of the indexed coordinate attributes.
    coord_names: Vec<String>,
}

impl TableEntry {
    fn new(id: TableId, name: String, schema: Arc<Schema>) -> Self {
        let coord_names: Vec<String> = schema
            .coordinate_indices()
            .into_iter()
            .map(|i| schema.attrs()[i].name.clone())
            .collect();
        let dim = coord_names.len().max(1);
        TableEntry {
            id,
            name,
            schema,
            chunks: Vec::new(),
            index: RTree::build(dim, Vec::new()),
            coord_names,
        }
    }

    fn rect_of(&self, bbox: &BoundingBox) -> Rect {
        if self.coord_names.is_empty() {
            return Rect::point(vec![0.0]);
        }
        let ivs: Vec<_> = self.coord_names.iter().map(|n| bbox.get(n)).collect();
        Rect::from_intervals(&ivs)
    }

    /// All chunk metadata, in chunk-id order.
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.chunks
    }

    /// Metadata for one chunk.
    pub fn chunk(&self, id: ChunkId) -> Result<&ChunkMeta> {
        self.chunks
            .get(id.index())
            .ok_or_else(|| Error::not_found(format!("chunk {id} of table {}", self.name)))
    }

    /// Ids of chunks whose bounding boxes overlap `range` (on the indexed
    /// coordinate attributes), via the R-tree; chunks are then confirmed
    /// against the full box (covering scalar-attribute constraints too).
    pub fn find_chunks(&self, range: &BoundingBox) -> Vec<ChunkId> {
        let mut ids = self.index.query(&self.rect_of(range));
        ids.retain(|id| self.chunks[id.index()].bbox.overlaps(range));
        ids.sort();
        ids
    }

    /// Total records across all chunks.
    pub fn total_records(&self) -> u64 {
        self.chunks.iter().map(|c| c.num_records).sum()
    }
}

/// The full catalog: tables by id, with name lookup.
#[derive(Default)]
pub struct Catalog {
    tables: Vec<TableEntry>,
    by_name: HashMap<String, TableId>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table; returns its assigned id.
    pub fn register_table(
        &mut self,
        name: impl Into<String>,
        schema: Arc<Schema>,
    ) -> Result<TableId> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(Error::Config(format!("table `{name}` already registered")));
        }
        let id = TableId(self.tables.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.tables.push(TableEntry::new(id, name, schema));
        Ok(id)
    }

    /// Register `metas` under `table` and pack the table's R-tree once.
    /// Every meta must name `table`, and chunk ids must continue the
    /// table's in order (0, 1, 2, ...) — the generator produces them that
    /// way. On error nothing is registered.
    pub fn register_chunks(&mut self, table: TableId, metas: Vec<ChunkMeta>) -> Result<()> {
        let entry = self
            .tables
            .get_mut(table.index())
            .ok_or_else(|| Error::not_found(format!("table {table}")))?;
        for (expected, meta) in (entry.chunks.len()..).zip(&metas) {
            if meta.table != table {
                return Err(Error::Config(format!(
                    "chunk {} claims table {} but is registered under {table}",
                    meta.chunk, meta.table
                )));
            }
            if meta.chunk.index() != expected {
                return Err(Error::Config(format!(
                    "chunk {} of table {table} registered out of order (expected c{expected})",
                    meta.chunk
                )));
            }
        }
        entry.chunks.extend(metas);
        let rects = entry
            .chunks
            .iter()
            .map(|m| (entry.rect_of(&m.bbox), m.chunk))
            .collect();
        entry.index = RTree::build(entry.index.dim(), rects);
        Ok(())
    }

    /// Look up a table by id.
    pub fn table(&self, id: TableId) -> Result<&TableEntry> {
        self.tables
            .get(id.index())
            .ok_or_else(|| Error::not_found(format!("table {id}")))
    }

    /// Look up a table by name.
    pub fn table_by_name(&self, name: &str) -> Result<&TableEntry> {
        let id = self
            .by_name
            .get(name)
            .ok_or_else(|| Error::not_found(format!("table `{name}`")))?;
        self.table(*id)
    }

    /// All tables.
    pub fn tables(&self) -> impl Iterator<Item = &TableEntry> {
        self.tables.iter()
    }

    /// Number of registered tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_chunk::ChunkLocation;
    use orv_types::{Interval, NodeId};

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::grid(&["x", "y"], &["wp"]).unwrap())
    }

    fn chunk_meta(table: TableId, chunk: u32, x0: f64, y0: f64, side: f64) -> ChunkMeta {
        ChunkMeta {
            table,
            chunk: ChunkId(chunk),
            node: NodeId(0),
            location: ChunkLocation {
                file: "f".into(),
                offset: 0,
                len: 64,
            },
            attributes: vec!["x".into(), "y".into(), "wp".into()],
            extractors: vec!["e".into()],
            bbox: BoundingBox::from_dims([
                ("x", Interval::new(x0, x0 + side)),
                ("y", Interval::new(y0, y0 + side)),
            ]),
            num_records: 16,
            checksum: None,
        }
    }

    #[test]
    fn register_and_find() {
        let mut cat = Catalog::new();
        let t = cat.register_table("T1", schema()).unwrap();
        // 4×4 grid of 10-unit chunks.
        let mut metas = Vec::new();
        for gx in 0..4 {
            for gy in 0..4 {
                let id = metas.len() as u32;
                metas.push(chunk_meta(t, id, gx as f64 * 10.0, gy as f64 * 10.0, 9.0));
            }
        }
        cat.register_chunks(t, metas).unwrap();
        let entry = cat.table_by_name("T1").unwrap();
        assert_eq!(entry.chunks().len(), 16);
        assert_eq!(entry.total_records(), 256);
        // Range covering the first column of chunks (x in [0,9]).
        let q = BoundingBox::from_dims([("x", Interval::new(0.0, 9.0))]);
        let found = entry.find_chunks(&q);
        assert_eq!(found, vec![ChunkId(0), ChunkId(1), ChunkId(2), ChunkId(3)]);
        // Point query.
        let q =
            BoundingBox::from_dims([("x", Interval::point(15.0)), ("y", Interval::point(25.0))]);
        assert_eq!(entry.find_chunks(&q), vec![ChunkId(6)]);
    }

    #[test]
    fn scalar_constraints_prune_after_rtree() {
        let mut cat = Catalog::new();
        let t = cat.register_table("T1", schema()).unwrap();
        let mut m0 = chunk_meta(t, 0, 0.0, 0.0, 9.0);
        m0.bbox.set("wp", Interval::new(0.0, 0.4));
        let mut m1 = chunk_meta(t, 1, 10.0, 0.0, 9.0);
        m1.bbox.set("wp", Interval::new(0.5, 0.9));
        cat.register_chunks(t, vec![m0]).unwrap();
        // A second call appends and re-packs.
        cat.register_chunks(t, vec![m1]).unwrap();
        let entry = cat.table(t).unwrap();
        // wp constraint alone (coordinates unbounded): only chunk 1 matches.
        let q = BoundingBox::from_dims([("wp", Interval::new(0.45, 1.0))]);
        assert_eq!(entry.find_chunks(&q), vec![ChunkId(1)]);
    }

    #[test]
    fn duplicate_table_and_out_of_order_chunk_rejected() {
        let mut cat = Catalog::new();
        let t = cat.register_table("T1", schema()).unwrap();
        assert!(cat.register_table("T1", schema()).is_err());
        let m = chunk_meta(t, 5, 0.0, 0.0, 1.0);
        assert!(matches!(
            cat.register_chunks(t, vec![m]),
            Err(Error::Config(_))
        ));
        let m = chunk_meta(TableId(9), 0, 0.0, 0.0, 1.0);
        assert!(matches!(
            cat.register_chunks(TableId(9), vec![m.clone()]),
            Err(Error::NotFound(_))
        ));
        // A meta naming another table than the one it is registered under.
        assert!(matches!(
            cat.register_chunks(t, vec![m]),
            Err(Error::Config(_))
        ));
        // A bad meta anywhere in the batch registers none of it.
        let batch = vec![
            chunk_meta(t, 0, 0.0, 0.0, 1.0),
            chunk_meta(t, 2, 0.0, 0.0, 1.0),
        ];
        assert!(cat.register_chunks(t, batch).is_err());
        assert!(cat.table(t).unwrap().chunks().is_empty());
    }

    #[test]
    fn lookups_error_cleanly() {
        let cat = Catalog::new();
        assert!(cat.table(TableId(0)).is_err());
        assert!(cat.table_by_name("nope").is_err());
        assert_eq!(cat.num_tables(), 0);
    }
}
