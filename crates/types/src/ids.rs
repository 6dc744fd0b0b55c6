//! Identifier newtypes shared across services.
//!
//! The paper identifies a basic sub-table by the pair `(i, j)` where `i`
//! names the BDS (equivalently the virtual table) and `j` the chunk within
//! it. [`SubTableId`] is exactly that pair; the IJ scheduler sorts these
//! lexicographically.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        pub struct $name(pub u32);

        impl $name {
            /// Raw index value.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                $name(v as u32)
            }
        }
    };
}

id_newtype!(
    /// Identifies a virtual table (equivalently its BDS).
    TableId,
    "T"
);
id_newtype!(
    /// Identifies a chunk within its table's chunk set.
    ChunkId,
    "c"
);
id_newtype!(
    /// Identifies a cluster node (storage or compute).
    NodeId,
    "n"
);

/// Identifies a basic sub-table: the `(table, chunk)` pair of the paper.
///
/// Ordering is lexicographic on `(table, chunk)`, which is precisely the
/// order the IJ two-stage scheduler uses within a compute node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SubTableId {
    /// The virtual table / BDS this sub-table belongs to.
    pub table: TableId,
    /// The chunk the sub-table was extracted from.
    pub chunk: ChunkId,
}

impl SubTableId {
    /// Construct from raw indices.
    pub fn new(table: impl Into<TableId>, chunk: impl Into<ChunkId>) -> Self {
        SubTableId {
            table: table.into(),
            chunk: chunk.into(),
        }
    }
}

impl fmt::Display for SubTableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.table, self.chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(TableId(1).to_string(), "T1");
        assert_eq!(ChunkId(42).to_string(), "c42");
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(SubTableId::new(1u32, 42u32).to_string(), "(T1,c42)");
    }

    #[test]
    fn subtable_ordering_is_lexicographic() {
        let a = SubTableId::new(0u32, 9u32);
        let b = SubTableId::new(1u32, 0u32);
        let c = SubTableId::new(1u32, 1u32);
        assert!(a < b && b < c);
        let mut v = vec![c, a, b];
        v.sort();
        assert_eq!(v, vec![a, b, c]);
    }

    #[test]
    fn conversions_roundtrip() {
        let t: TableId = 7usize.into();
        assert_eq!(t.index(), 7);
        let c: ChunkId = 7u32.into();
        assert_eq!(c, ChunkId(7));
    }
}
