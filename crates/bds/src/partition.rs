//! Regular grid partitioning and block-cyclic chunk placement.
//!
//! The evaluation datasets are 3-D grids `[(0,0,0), (g_x, g_y, g_z))`
//! partitioned into boxes of size `(p_x, p_y, p_z)`; each box becomes one
//! chunk, and chunks are "distributed along storage nodes in a block-cyclic
//! manner".

use orv_types::{BoundingBox, Error, Interval, NodeId, Result};

/// A half-open axis-aligned region of grid points: `lo[d] <= v < hi[d]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Region {
    /// Inclusive lower corner.
    pub lo: [u64; 3],
    /// Exclusive upper corner.
    pub hi: [u64; 3],
}

impl Region {
    /// Number of grid points inside.
    pub fn num_points(&self) -> u64 {
        (0..3)
            .map(|d| self.hi[d].saturating_sub(self.lo[d]))
            .product()
    }

    /// Bounding box over the named coordinate attributes (closed bounds on
    /// actual grid points, hence `hi - 1`).
    pub fn bbox(&self, coords: &[String]) -> BoundingBox {
        BoundingBox::from_dims(coords.iter().enumerate().map(|(d, name)| {
            (
                name.clone(),
                Interval::new(
                    self.lo[d] as f64,
                    (self.hi[d].max(self.lo[d] + 1) - 1) as f64,
                ),
            )
        }))
    }

    /// Iterate all grid points in lexicographic (x, y, z) order.
    pub fn points(&self) -> impl Iterator<Item = [u64; 3]> + '_ {
        let r = *self;
        (r.lo[0]..r.hi[0]).flat_map(move |x| {
            (r.lo[1]..r.hi[1]).flat_map(move |y| (r.lo[2]..r.hi[2]).map(move |z| [x, y, z]))
        })
    }
}

/// A regular partitioning of a 3-D grid.
#[derive(Clone, Debug)]
pub struct GridPartition {
    /// Grid extent per dimension (`g`).
    pub grid: [u64; 3],
    /// Partition (chunk) size per dimension (`p`).
    pub part: [u64; 3],
}

impl GridPartition {
    /// Build and validate (`grid`, `part` positive; `part ≤ grid`).
    pub fn new(grid: [u64; 3], part: [u64; 3]) -> Result<Self> {
        for d in 0..3 {
            if grid[d] == 0 || part[d] == 0 {
                return Err(Error::Config(format!(
                    "grid/partition extents must be positive (dim {d}: grid={} part={})",
                    grid[d], part[d]
                )));
            }
            if part[d] > grid[d] {
                return Err(Error::Config(format!(
                    "partition larger than grid in dim {d} ({} > {})",
                    part[d], grid[d]
                )));
            }
        }
        Ok(GridPartition { grid, part })
    }

    /// Number of chunks per dimension (`ceil(g/p)`).
    pub fn chunks_per_dim(&self) -> [u64; 3] {
        [0, 1, 2].map(|d| self.grid[d].div_ceil(self.part[d]))
    }

    /// Total number of chunks.
    pub fn num_chunks(&self) -> u64 {
        self.chunks_per_dim().iter().product()
    }

    /// Tuples per full chunk (`c_R` / `c_S` when the partition divides the
    /// grid evenly, as in all paper experiments).
    pub fn tuples_per_chunk(&self) -> u64 {
        self.part.iter().product()
    }

    /// Total grid points (`T`).
    pub fn total_points(&self) -> u64 {
        self.grid.iter().product()
    }

    /// The chunk index triple of linear chunk id `idx` (x fastest... we use
    /// lexicographic with z fastest: idx = (cx * ny + cy) * nz + cz).
    pub fn chunk_coords(&self, idx: u64) -> [u64; 3] {
        let n = self.chunks_per_dim();
        let cz = idx % n[2];
        let cy = (idx / n[2]) % n[1];
        let cx = idx / (n[1] * n[2]);
        [cx, cy, cz]
    }

    /// Linear chunk id of a chunk index triple.
    pub fn chunk_index(&self, c: [u64; 3]) -> u64 {
        let n = self.chunks_per_dim();
        (c[0] * n[1] + c[1]) * n[2] + c[2]
    }

    /// The region of grid points covered by chunk `idx` (clipped to the
    /// grid when the partition does not divide it evenly).
    pub fn chunk_region(&self, idx: u64) -> Region {
        let c = self.chunk_coords(idx);
        let lo = [0, 1, 2].map(|d| c[d] * self.part[d]);
        let hi = [0, 1, 2].map(|d| ((c[d] + 1) * self.part[d]).min(self.grid[d]));
        Region { lo, hi }
    }

    /// Block-cyclic placement: chunk `idx` lives on storage node
    /// `idx mod n_storage`.
    pub fn node_of_chunk(&self, idx: u64, n_storage: usize) -> NodeId {
        NodeId((idx % n_storage as u64) as u32)
    }

    /// Iterate `(chunk id, region, node)` for a deployment over
    /// `n_storage` nodes.
    pub fn chunks(&self, n_storage: usize) -> impl Iterator<Item = (u64, Region, NodeId)> + '_ {
        (0..self.num_chunks())
            .map(move |i| (i, self.chunk_region(i), self.node_of_chunk(i, n_storage)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition_counts() {
        let p = GridPartition::new([64, 64, 4], [16, 32, 4]).unwrap();
        assert_eq!(p.chunks_per_dim(), [4, 2, 1]);
        assert_eq!(p.num_chunks(), 8);
        assert_eq!(p.tuples_per_chunk(), 16 * 32 * 4);
        assert_eq!(p.total_points(), 64 * 64 * 4);
    }

    #[test]
    fn chunk_indexing_roundtrips() {
        let p = GridPartition::new([8, 8, 8], [2, 4, 8]).unwrap();
        for idx in 0..p.num_chunks() {
            assert_eq!(p.chunk_index(p.chunk_coords(idx)), idx);
        }
    }

    #[test]
    fn regions_tile_the_grid_exactly() {
        let p = GridPartition::new([6, 4, 2], [2, 2, 2]).unwrap();
        let mut count = 0u64;
        for idx in 0..p.num_chunks() {
            count += p.chunk_region(idx).num_points();
        }
        assert_eq!(count, p.total_points());
        // Every point lies in exactly one chunk's region.
        for x in 0..6 {
            for y in 0..4 {
                for z in 0..2 {
                    let holders = (0..p.num_chunks()).filter(|&idx| {
                        let r = p.chunk_region(idx);
                        (0..3).all(|d| r.lo[d] <= [x, y, z][d] && [x, y, z][d] < r.hi[d])
                    });
                    assert_eq!(holders.count(), 1, "point {x},{y},{z}");
                }
            }
        }
    }

    #[test]
    fn uneven_partition_clips() {
        let p = GridPartition::new([5, 3, 1], [2, 2, 1]).unwrap();
        assert_eq!(p.chunks_per_dim(), [3, 2, 1]);
        // Last chunk along x covers only x=4.
        let last_x = p.chunk_region(p.chunk_index([2, 0, 0]));
        assert_eq!(last_x.lo[0], 4);
        assert_eq!(last_x.hi[0], 5);
        let total: u64 = (0..p.num_chunks())
            .map(|i| p.chunk_region(i).num_points())
            .sum();
        assert_eq!(total, 15);
    }

    #[test]
    fn block_cyclic_placement_balances() {
        let p = GridPartition::new([8, 8, 1], [2, 2, 1]).unwrap(); // 16 chunks
        let mut counts = [0u32; 3];
        for (_, _, node) in p.chunks(3) {
            counts[node.index()] += 1;
        }
        assert_eq!(counts.iter().sum::<u32>(), 16);
        assert!(counts.iter().all(|&c| c == 5 || c == 6));
    }

    #[test]
    fn region_bbox_and_points() {
        let r = Region {
            lo: [0, 2, 0],
            hi: [2, 4, 1],
        };
        assert_eq!(r.num_points(), 4);
        let pts: Vec<_> = r.points().collect();
        assert_eq!(pts, vec![[0, 2, 0], [0, 3, 0], [1, 2, 0], [1, 3, 0]]);
        let bb = r.bbox(&["x".into(), "y".into(), "z".into()]);
        assert_eq!(bb.get("x"), Interval::new(0.0, 1.0));
        assert_eq!(bb.get("y"), Interval::new(2.0, 3.0));
        assert_eq!(bb.get("z"), Interval::new(0.0, 0.0));
    }

    #[test]
    fn invalid_partitions_rejected() {
        assert!(GridPartition::new([0, 1, 1], [1, 1, 1]).is_err());
        assert!(GridPartition::new([4, 4, 4], [0, 1, 1]).is_err());
        assert!(GridPartition::new([4, 4, 4], [8, 1, 1]).is_err());
    }
}
