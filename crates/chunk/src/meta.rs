//! Per-chunk metadata.
//!
//! The paper (Section 2): "Metadata information associated with each chunk
//! includes information about which table the chunk belongs to, the location
//! of the chunk in the storage system (i.e., offset in data file) and its
//! size, what attributes it contains, a list of extractors that can read and
//! parse this chunk, and the bounding box of the chunk."

use crate::format::ChunkLocation;
use orv_types::{BoundingBox, ChunkId, NodeId, TableId};

/// Everything the MetaData service records about one chunk.
#[derive(Clone, Debug)]
pub struct ChunkMeta {
    /// Which virtual table the chunk belongs to.
    pub table: TableId,
    /// Chunk id within the table.
    pub chunk: ChunkId,
    /// Storage node holding the chunk.
    pub node: NodeId,
    /// Where in that node's files the chunk bytes live.
    pub location: ChunkLocation,
    /// Attribute names the chunk contains, in layout order.
    pub attributes: Vec<String>,
    /// Names of extractors able to read this chunk (first is preferred).
    pub extractors: Vec<String>,
    /// Bounds on the chunk's attribute values.
    pub bbox: BoundingBox,
    /// Number of records (known at generation time for regular grids).
    pub num_records: u64,
    /// CRC32C of the chunk's raw bytes, computed when the chunk was
    /// written. `None` for chunks registered without one (hand-built test
    /// fixtures); reads of such chunks skip integrity verification.
    pub checksum: Option<u32>,
}

impl ChunkMeta {
    /// `(table, chunk)` identity as used in sub-table ids.
    pub fn subtable_id(&self) -> orv_types::SubTableId {
        orv_types::SubTableId {
            table: self.table,
            chunk: self.chunk,
        }
    }

    /// Chunk size in bytes (from its location record).
    pub fn size_bytes(&self) -> u64 {
        self.location.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_types::Interval;

    fn meta() -> ChunkMeta {
        ChunkMeta {
            table: TableId(1),
            chunk: ChunkId(3),
            node: NodeId(0),
            location: ChunkLocation {
                file: "t1.dat".into(),
                offset: 4096,
                len: 1024,
            },
            attributes: vec!["x".into(), "y".into(), "oilp".into()],
            extractors: vec!["reservoir_v1".into()],
            bbox: BoundingBox::from_dims([
                ("x", Interval::new(0.0, 63.0)),
                ("y", Interval::new(0.0, 63.0)),
            ]),
            num_records: 64,
            checksum: None,
        }
    }

    #[test]
    fn identity_and_attributes() {
        let m = meta();
        assert_eq!(m.subtable_id(), orv_types::SubTableId::new(1u32, 3u32));
        assert_eq!(m.size_bytes(), 1024);
    }
}
