//! Synthetic oil-reservoir dataset generation.
//!
//! Mirrors the paper's Section 6 datasets: 3-D grids with coordinate
//! attributes `(x, y, z)` plus 4-byte scalar properties (`oilp`, `wp`,
//! ...), regularly partitioned into chunks, written in an
//! application-specific binary format, distributed block-cyclically over
//! storage nodes, and registered with the MetaData service.
//!
//! Scalar values are a *deterministic* function of `(seed, attribute,
//! coordinates)` — see [`scalar_value`] — so independently generated tables
//! over the same grid join verifiably: the result of `T1 ⊕_{xyz} T2` can be
//! recomputed point-wise by tests.
//!
//! Like the simulation writers it stands in for, [`generate_dataset`]
//! writes in parallel: one writer per storage node, each appending its
//! node's chunks to that node's own store. A chunk is generated, encoded,
//! sealed with its CRC and appended in one pass over its points. The
//! table's chunks are registered together once every writer has finished,
//! so a failed generation registers none of them.

use crate::deployment::Deployment;
use crate::partition::{GridPartition, Region};
use orv_chunk::format::ChunkStore;
use orv_chunk::{ChunkMeta, Extractor as _, LayoutExtractor};
use orv_cluster::{all_done, run_workers, WorkerBody};
use orv_layout::{CompiledLayout, Endian, Item, LayoutDesc, RecordOrder};
use orv_types::{ChunkId, DataType, Error, Interval, NodeId, Result, Schema, TableId, Value};
use parking_lot::Mutex;
use std::sync::Arc;

/// How scalar values vary over the grid.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ScalarModel {
    /// Independent uniform noise in `[0, 1)` per grid point (the default;
    /// every chunk's scalar bounds span almost the full range).
    Uniform,
    /// Spatially correlated "plumes": a smooth field of a few Gaussian
    /// bumps plus small noise. Chunks then carry *tight* scalar bounds, so
    /// the MetaData service can prune chunks on scalar predicates — the
    /// paper's "lower and upper bounds on coordinate and scalar attributes"
    /// become informative.
    Plume,
}

/// Specification of one synthetic table.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Table name.
    pub name: String,
    /// Grid extent `(g_x, g_y, g_z)`.
    pub grid: [u64; 3],
    /// Partition (chunk) size `(p_x, p_y, p_z)`.
    pub partition: [u64; 3],
    /// Scalar attribute names (each an `f32`, 4 bytes — as in the paper).
    pub scalars: Vec<String>,
    /// Seed for the deterministic scalar generator.
    pub seed: u64,
    /// Scalar field model.
    pub scalar_model: ScalarModel,
    /// Byte order of the chunk format.
    pub endian: Endian,
    /// Record order of the chunk format.
    pub order: RecordOrder,
    /// Header bytes per chunk.
    pub header_len: usize,
}

impl DatasetSpec {
    /// Start building a spec for table `name`.
    pub fn builder(name: impl Into<String>) -> DatasetSpecBuilder {
        DatasetSpecBuilder {
            spec: DatasetSpec {
                name: name.into(),
                grid: [16, 16, 1],
                partition: [4, 4, 1],
                scalars: vec!["v".to_string()],
                seed: 0,
                scalar_model: ScalarModel::Uniform,
                endian: Endian::Little,
                order: RecordOrder::RowMajor,
                header_len: 0,
            },
        }
    }

    /// The grid partitioning implied by this spec.
    pub fn grid_partition(&self) -> Result<GridPartition> {
        GridPartition::new(self.grid, self.partition)
    }

    /// The layout description of this table's chunk format.
    pub fn layout(&self) -> LayoutDesc {
        let mut items: Vec<Item> = ["x", "y", "z"]
            .iter()
            .map(|c| Item::Field {
                name: (*c).to_string(),
                dtype: DataType::I32,
            })
            .collect();
        items.extend(self.scalars.iter().map(|s| Item::Field {
            name: s.clone(),
            dtype: DataType::F32,
        }));
        LayoutDesc {
            name: format!("{}_layout", self.name),
            endian: self.endian,
            order: self.order,
            header_len: self.header_len,
            items,
        }
    }

    /// Record size in bytes (3 coords + scalars, 4 bytes each).
    pub fn record_size(&self) -> usize {
        (3 + self.scalars.len()) * 4
    }
}

/// Fluent builder for [`DatasetSpec`].
pub struct DatasetSpecBuilder {
    spec: DatasetSpec,
}

impl DatasetSpecBuilder {
    /// Grid extent.
    pub fn grid(mut self, g: [u64; 3]) -> Self {
        self.spec.grid = g;
        self
    }

    /// Partition (chunk) size.
    pub fn partition(mut self, p: [u64; 3]) -> Self {
        self.spec.partition = p;
        self
    }

    /// Scalar attribute names.
    pub fn scalar_attrs(mut self, names: &[&str]) -> Self {
        self.spec.scalars = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Generator seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.spec.seed = s;
        self
    }

    /// Scalar field model (uniform noise vs spatially correlated plumes).
    pub fn scalar_model(mut self, m: ScalarModel) -> Self {
        self.spec.scalar_model = m;
        self
    }

    /// Chunk-format byte order.
    pub fn endian(mut self, e: Endian) -> Self {
        self.spec.endian = e;
        self
    }

    /// Chunk-format record order.
    pub fn order(mut self, o: RecordOrder) -> Self {
        self.spec.order = o;
        self
    }

    /// Chunk-format header bytes.
    pub fn header(mut self, n: usize) -> Self {
        self.spec.header_len = n;
        self
    }

    /// Finish.
    pub fn build(self) -> DatasetSpec {
        self.spec
    }
}

/// Handle to a generated dataset.
#[derive(Clone, Debug)]
pub struct DatasetHandle {
    /// The table's id in the MetaData service.
    pub table: TableId,
    /// Table name.
    pub name: String,
    /// Schema (coords + scalars).
    pub schema: Arc<Schema>,
    /// The grid partitioning used.
    pub partition: GridPartition,
    /// The spec the dataset was generated from.
    pub spec: DatasetSpec,
}

impl DatasetHandle {
    /// Total tuples (`T` contribution of this table).
    pub fn total_tuples(&self) -> u64 {
        self.partition.total_points()
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> u64 {
        self.partition.num_chunks()
    }

    /// Tuples per (full) chunk — the cost models' `c_R`/`c_S`.
    pub fn tuples_per_chunk(&self) -> u64 {
        self.partition.tuples_per_chunk()
    }

    /// Record size in bytes — the cost models' `RS_R`/`RS_S`.
    pub fn record_size(&self) -> usize {
        self.schema.record_size()
    }
}

/// The deterministic scalar generator: a value in `[0, 1)` from
/// `(seed, attribute index, x, y, z)` via splitmix64 finalization.
pub fn scalar_value(seed: u64, attr: u64, p: [u64; 3]) -> f32 {
    let mut h = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(attr.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(p[0].wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(p[1].wrapping_mul(0x2545_F491_4F6C_DD1D))
        .wrapping_add(p[2].wrapping_mul(0xD6E8_FEB8_6659_FD93));
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    // 24 high bits → f32 in [0, 1).
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// The spatially correlated scalar generator: a smooth field of four
/// Gaussian plumes (centres and widths derived deterministically from the
/// seed) plus 5% uniform noise, normalized into `[0, 1)`.
pub fn plume_value(seed: u64, attr: u64, grid: [u64; 3], p: [u64; 3]) -> f32 {
    let unit = |k: u64| -> f64 {
        // A deterministic value in [0, 1) per (seed, attr, k).
        scalar_value(
            seed ^ 0xA5A5_5A5A_DEAD_BEEF,
            attr.wrapping_mul(31).wrapping_add(k),
            [k, 0, 0],
        ) as f64
    };
    let (gx, gy, gz) = (grid[0] as f64, grid[1] as f64, grid[2] as f64);
    let (x, y, z) = (p[0] as f64, p[1] as f64, p[2] as f64);
    let mut field = 0.0f64;
    for plume in 0..4u64 {
        let cx = unit(plume * 3) * gx;
        let cy = unit(plume * 3 + 1) * gy;
        let cz = unit(plume * 3 + 2) * gz;
        // Widths between 1/8 and 1/3 of each extent.
        let wx = gx * (0.125 + 0.2 * unit(100 + plume));
        let wy = gy * (0.125 + 0.2 * unit(200 + plume));
        let wz = (gz * (0.125 + 0.2 * unit(300 + plume))).max(1.0);
        let d2 = ((x - cx) / wx).powi(2) + ((y - cy) / wy).powi(2) + ((z - cz) / wz).powi(2);
        field += (-d2).exp();
    }
    // field ∈ (0, 4), but points typically sit under at most one plume
    // peak; clamp so a single peak saturates near 0.95, then add 5% noise.
    let noise = scalar_value(seed, attr, p) as f64 * 0.05;
    ((field / 1.2).min(0.95) + noise).min(0.999_999) as f32
}

/// Generate the dataset described by `spec` into `deployment`: write chunk
/// files, register the extractor, the table and every chunk's metadata.
///
/// One writer per storage node runs on [`orv_cluster::run_workers`]; each
/// takes its node's chunks in ascending id and appends them to its own
/// node's store, so every data file gets the same bytes at the same
/// offsets as a serial writer would give it. The chunks are registered
/// in id order once every writer has finished, so a table's chunks become
/// visible together. On failure none of them is registered (the table
/// itself stays, with no chunks; bytes already appended stay in the data
/// files, unreferenced) and the error of the first failing chunk in id
/// order is returned; a writer panic is an [`Error::Cluster`].
pub fn generate_dataset(spec: &DatasetSpec, deployment: &Deployment) -> Result<DatasetHandle> {
    let n_storage = deployment.num_storage_nodes();
    if n_storage == 0 {
        return Err(Error::Config("deployment has no storage nodes".into()));
    }
    let partition = spec.grid_partition()?;
    let layout_desc = spec.layout();
    let extractor = Arc::new(LayoutExtractor::generate(&layout_desc, &["x", "y", "z"])?);
    let schema = Arc::clone(extractor.schema());
    deployment.registry().write().register(extractor.clone());
    // Persist the layout source so a reopened deployment can regenerate
    // this extractor without the original spec.
    deployment.metadata().register_layout(
        layout_desc.name.clone(),
        layout_desc.to_source(),
        ["x", "y", "z"].iter().map(|s| s.to_string()).collect(),
    );

    let table = deployment
        .metadata()
        .register_table(spec.name.clone(), Arc::clone(&schema))?;
    let writer = ChunkWriter {
        spec,
        layout: extractor.layout(),
        file: format!("{}.dat", spec.name),
        coord_names: vec!["x".into(), "y".into(), "z".into()],
        attributes: schema.attrs().iter().map(|a| a.name.clone()).collect(),
        extractors: vec![layout_desc.name.clone()],
        table,
    };

    let mut per_node: Vec<Vec<(u64, Region)>> = vec![Vec::new(); n_storage];
    for (idx, region, node) in partition.chunks(n_storage) {
        per_node[node.index()].push((idx, region));
    }
    let writer = &writer;
    let mut workers = Vec::with_capacity(n_storage);
    for (k, chunks) in per_node.into_iter().enumerate() {
        let node = NodeId(k as u32);
        let store = deployment.store(node)?;
        let body: WorkerBody<'_, Vec<(u64, Result<ChunkMeta>)>> =
            Box::new(move || Ok(writer.write_node(node, store, &chunks)));
        workers.push((format!("storage node {k}"), body));
    }
    let mut written: Vec<_> = all_done(run_workers(workers))?
        .into_iter()
        .flatten()
        .collect();
    // A writer stops at its first error, so every chunk before the first
    // failing one in id order was written.
    written.sort_unstable_by_key(|(idx, _)| *idx);
    let metas = written
        .into_iter()
        .map(|(_, meta)| meta)
        .collect::<Result<Vec<_>>>()?;
    for meta in metas {
        deployment.metadata().register_chunk(meta)?;
    }

    Ok(DatasetHandle {
        table,
        name: spec.name.clone(),
        schema,
        partition,
        spec: spec.clone(),
    })
}

/// What every storage node's writer of one table shares.
struct ChunkWriter<'a> {
    spec: &'a DatasetSpec,
    layout: &'a CompiledLayout,
    file: String,
    coord_names: Vec<String>,
    attributes: Vec<String>,
    extractors: Vec<String>,
    table: TableId,
}

impl ChunkWriter<'_> {
    /// Write `chunks` (ascending ids, all placed on `node`) to `store`, one
    /// after another, stopping after the first that fails.
    fn write_node(
        &self,
        node: NodeId,
        store: &Mutex<Box<dyn ChunkStore>>,
        chunks: &[(u64, Region)],
    ) -> Vec<(u64, Result<ChunkMeta>)> {
        let mut written = Vec::with_capacity(chunks.len());
        for &(idx, region) in chunks {
            let meta = self.write_chunk(idx, region, node, store);
            let failed = meta.is_err();
            written.push((idx, meta));
            if failed {
                break;
            }
        }
        written
    }

    /// Generate, encode, seal and append one chunk in one pass over its
    /// points; the scalar bounds are folded as the values are generated.
    fn write_chunk(
        &self,
        idx: u64,
        region: Region,
        node: NodeId,
        store: &Mutex<Box<dyn ChunkStore>>,
    ) -> Result<ChunkMeta> {
        let spec = self.spec;
        let npoints = region.num_points() as usize;
        let mut cols: Vec<Vec<Value>> = (0..3 + spec.scalars.len())
            .map(|_| Vec::with_capacity(npoints))
            .collect();
        let mut bounds = vec![(f64::INFINITY, f64::NEG_INFINITY); spec.scalars.len()];
        for p in region.points() {
            cols[0].push(Value::I32(p[0] as i32));
            cols[1].push(Value::I32(p[1] as i32));
            cols[2].push(Value::I32(p[2] as i32));
            for (ai, (lo, hi)) in bounds.iter_mut().enumerate() {
                let v = match spec.scalar_model {
                    ScalarModel::Uniform => scalar_value(spec.seed, ai as u64, p),
                    ScalarModel::Plume => plume_value(spec.seed, ai as u64, spec.grid, p),
                };
                *lo = lo.min(f64::from(v));
                *hi = hi.max(f64::from(v));
                cols[3 + ai].push(Value::F32(v));
            }
        }
        let bytes = self.layout.encode(&cols)?;
        // Sealed before the bytes can be damaged: every read verifies
        // against this, so a flipped bit anywhere downstream is caught.
        let checksum = Some(orv_cluster::crc32c(&bytes));
        let location = store.lock().append(&self.file, bytes.into())?;

        // Bounding box: exact coordinate bounds from the region; scalar
        // bounds from the generated data.
        let mut bbox = region.bbox(&self.coord_names);
        if npoints > 0 {
            for (name, &(lo, hi)) in spec.scalars.iter().zip(&bounds) {
                bbox.set(name.clone(), Interval::new(lo, hi));
            }
        }
        Ok(ChunkMeta {
            table: self.table,
            chunk: ChunkId(idx as u32),
            node,
            location,
            attributes: self.attributes.clone(),
            extractors: self.extractors.clone(),
            bbox,
            num_records: npoints as u64,
            checksum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_value_is_deterministic_and_in_range() {
        let a = scalar_value(7, 0, [1, 2, 3]);
        let b = scalar_value(7, 0, [1, 2, 3]);
        assert_eq!(a, b);
        assert!((0.0..1.0).contains(&a));
        // Different coordinates / attrs / seeds give different values.
        assert_ne!(a, scalar_value(7, 0, [1, 2, 4]));
        assert_ne!(a, scalar_value(7, 1, [1, 2, 3]));
        assert_ne!(a, scalar_value(8, 0, [1, 2, 3]));
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let s = DatasetSpec::builder("t1")
            .grid([32, 32, 2])
            .partition([8, 8, 2])
            .scalar_attrs(&["oilp", "soil"])
            .seed(5)
            .header(16)
            .build();
        assert_eq!(s.record_size(), 20);
        assert_eq!(s.layout().items.len(), 5);
        assert_eq!(s.layout().header_len, 16);
        assert_eq!(s.grid_partition().unwrap().num_chunks(), 16);
    }

    #[test]
    fn generate_registers_everything() {
        let d = Deployment::in_memory(2);
        let spec = DatasetSpec::builder("t1")
            .grid([8, 8, 2])
            .partition([4, 4, 2])
            .scalar_attrs(&["oilp"])
            .seed(3)
            .build();
        let h = generate_dataset(&spec, &d).unwrap();
        assert_eq!(h.total_tuples(), 128);
        assert_eq!(h.num_chunks(), 4);
        assert_eq!(h.tuples_per_chunk(), 32);
        assert_eq!(h.record_size(), 16);
        let md = d.metadata();
        assert_eq!(md.total_records(h.table).unwrap(), 128);
        assert_eq!(md.all_chunks(h.table).unwrap().len(), 4);
        // Extractor registered.
        assert!(d.registry().read().get("t1_layout").is_ok());
        // Chunks spread over both nodes.
        let meta0 = md
            .chunk_meta(orv_types::SubTableId::new(h.table.0, 0u32))
            .unwrap();
        let meta1 = md
            .chunk_meta(orv_types::SubTableId::new(h.table.0, 1u32))
            .unwrap();
        assert_ne!(meta0.node, meta1.node);
    }

    #[test]
    fn plume_field_is_smooth_and_in_range() {
        let grid = [64, 64, 4];
        for p in [[0u64, 0, 0], [10, 20, 1], [63, 63, 3]] {
            let v = plume_value(9, 0, grid, p);
            assert!((0.0..1.0).contains(&v), "{v}");
        }
        // Smoothness: neighbouring points differ far less than the full
        // range (noise is capped at 5%).
        let a = plume_value(9, 0, grid, [30, 30, 2]);
        let b = plume_value(9, 0, grid, [31, 30, 2]);
        assert!((a - b).abs() < 0.2, "{a} vs {b}");
        // Deterministic.
        assert_eq!(a, plume_value(9, 0, grid, [30, 30, 2]));
    }

    #[test]
    fn plume_chunks_have_informative_scalar_bounds() {
        use orv_types::Interval;
        let d = Deployment::in_memory(1);
        let h = generate_dataset(
            &DatasetSpec::builder("t")
                .grid([64, 64, 1])
                .partition([8, 8, 1])
                .scalar_attrs(&["wp"])
                .seed(5)
                .scalar_model(ScalarModel::Plume)
                .build(),
            &d,
        )
        .unwrap();
        // Some chunk must have a wp upper bound well below 1 — i.e. a
        // scalar predicate like wp >= 0.6 prunes it.
        let mut prunable = 0;
        let mut spans = Vec::new();
        d.metadata()
            .with_chunks(h.table, |chunks| {
                for c in chunks {
                    let iv = c.bbox.get("wp");
                    spans.push(iv.length());
                    if iv.hi < 0.6 {
                        prunable += 1;
                    }
                }
            })
            .unwrap();
        assert!(prunable > 0, "plume chunks must be prunable on wp");
        // And the R-tree + bbox path actually prunes them.
        let q = orv_types::BoundingBox::from_dims([("wp", Interval::new(0.6, 1.0))]);
        let matching = d.metadata().find_chunks(h.table, &q).unwrap();
        assert!(matching.len() < h.num_chunks() as usize);
        assert!(!matching.is_empty());
        // Contrast: uniform chunks span nearly the whole range.
        let du = Deployment::in_memory(1);
        let hu = generate_dataset(
            &DatasetSpec::builder("u")
                .grid([64, 64, 1])
                .partition([8, 8, 1])
                .scalar_attrs(&["wp"])
                .seed(5)
                .build(),
            &du,
        )
        .unwrap();
        let uniform_matching = du.metadata().find_chunks(hu.table, &q).unwrap();
        assert_eq!(uniform_matching.len(), hu.num_chunks() as usize);
    }

    /// The bytes a serial writer would have stored for chunk `idx`:
    /// `layout.encode` of columns recomputed point by point.
    fn expected_chunk(spec: &DatasetSpec, layout: &CompiledLayout, idx: u64) -> Vec<u8> {
        let region = spec.grid_partition().unwrap().chunk_region(idx);
        let mut cols = vec![Vec::new(); 3 + spec.scalars.len()];
        for p in region.points() {
            for d in 0..3 {
                cols[d].push(Value::I32(p[d] as i32));
            }
            for ai in 0..spec.scalars.len() {
                cols[3 + ai].push(Value::F32(scalar_value(spec.seed, ai as u64, p)));
            }
        }
        layout.encode(&cols).unwrap()
    }

    #[test]
    fn every_writer_stores_what_a_serial_writer_would() {
        // Uneven edges (12 = 3·4, 10 = 3·3 + 1, 3 = 2 + 1): 24 chunks of
        // four sizes, so offsets are not multiples of one chunk length.
        let spec = DatasetSpec::builder("t")
            .grid([12, 10, 3])
            .partition([4, 3, 2])
            .scalar_attrs(&["oilp", "wp"])
            .seed(11)
            .build();
        let layout = CompiledLayout::compile(&spec.layout()).unwrap();
        let root = std::env::temp_dir().join(format!("orv-gen-writers-{}", std::process::id()));
        for n in [1usize, 2, 3, 5] {
            let _ = std::fs::remove_dir_all(&root);
            let on_disk = Deployment::on_disk(&root, n).unwrap();
            for d in [Deployment::in_memory(n), on_disk] {
                let h = generate_dataset(&spec, &d).unwrap();
                let metas = d.metadata().with_chunks(h.table, <[_]>::to_vec).unwrap();
                assert_eq!(metas.len(), 24);
                let mut next_offset = vec![0u64; n];
                for (i, m) in metas.iter().enumerate() {
                    assert_eq!(m.chunk.index(), i);
                    assert_eq!(m.node, h.partition.node_of_chunk(i as u64, n));
                    // Each node's file holds its chunks back to back in
                    // ascending id.
                    let at = &mut next_offset[m.node.index()];
                    assert_eq!(m.location.offset, *at, "{n} nodes, chunk {i}");
                    *at += m.location.len;
                    let bytes = d.store(m.node).unwrap().lock().read(&m.location).unwrap();
                    assert_eq!(
                        bytes.as_ref(),
                        expected_chunk(&spec, &layout, i as u64),
                        "{n} nodes, chunk {i}"
                    );
                    assert_eq!(m.checksum, Some(orv_cluster::crc32c(&bytes)));
                    assert_eq!(m.num_records, layout.row_count(bytes.len()).unwrap() as u64);
                    // The scalar bounds are a fold over the stored values.
                    let cols = layout.decode(&bytes).unwrap();
                    for (ai, name) in spec.scalars.iter().enumerate() {
                        let (lo, hi) = cols[3 + ai]
                            .to_vec()
                            .iter()
                            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                                (lo.min(v.as_f64()), hi.max(v.as_f64()))
                            });
                        assert_eq!(m.bbox.get(name), Interval::new(lo, hi), "chunk {i} {name}");
                    }
                }
                for (k, &len) in next_offset.iter().enumerate() {
                    let stored = d.store(NodeId(k as u32)).unwrap().lock().total_bytes();
                    assert_eq!(stored, len, "{n} nodes, node {k}");
                }
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn two_generations_save_equal_catalogs() {
        let row_major = |name: &str| {
            DatasetSpec::builder(name)
                .grid([16, 12, 2])
                .partition([4, 5, 2])
                .scalar_attrs(&["oilp"])
                .seed(4)
                .build()
        };
        let column_major = |name: &str| {
            DatasetSpec::builder(name)
                .grid([16, 12, 2])
                .partition([8, 3, 1])
                .scalar_attrs(&["soil", "wp"])
                .seed(5)
                .endian(Endian::Big)
                .order(RecordOrder::ColumnMajor)
                .header(24)
                .scalar_model(ScalarModel::Plume)
                .build()
        };
        let spec_pairs: [[DatasetSpec; 2]; 2] = [
            [row_major("a"), row_major("b")],
            [column_major("a"), column_major("b")],
        ];
        for specs in spec_pairs {
            let catalog = || {
                let d = Deployment::in_memory(3);
                for spec in &specs {
                    generate_dataset(spec, &d).unwrap();
                }
                d.metadata().snapshot().unwrap().to_json_value()
            };
            assert_eq!(catalog(), catalog(), "{:?}", specs[0].order);
        }
    }

    #[test]
    fn a_failed_generation_registers_no_chunk() {
        let root = std::env::temp_dir().join(format!("orv-gen-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let d = Deployment::on_disk(&root, 2).unwrap();
        // Node 1's appends fail; node 0 holds chunk 0, the first in id
        // order, which a serial writer registered before chunk 1 failed.
        std::fs::remove_dir_all(root.join("node1")).unwrap();
        let spec = DatasetSpec::builder("t").build();
        let err = generate_dataset(&spec, &d).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
        let table = d.metadata().table_id("t").unwrap();
        assert_eq!(d.metadata().all_chunks(table).unwrap(), vec![]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn duplicate_table_name_fails() {
        let d = Deployment::in_memory(1);
        let spec = DatasetSpec::builder("t1").build();
        generate_dataset(&spec, &d).unwrap();
        assert!(generate_dataset(&spec, &d).is_err());
    }
}
