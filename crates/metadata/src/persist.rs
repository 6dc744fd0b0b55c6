//! Crash-safe catalog persistence.
//!
//! "The MetaData Service stores information about chunks and may also be
//! used by other services to store persistent information." This module
//! snapshots a [`MetadataService`] — tables, chunk metadata and the
//! precomputed page-level join indices — to a JSON file and restores it,
//! rebuilding the R-trees on load. A restored deployment can answer
//! queries without re-scanning any data file.
//!
//! The catalog is the one artifact whose loss strands every dataset on
//! disk, so writes are crash-safe and reads are verified:
//!
//! * **Atomic replace** — the snapshot is written to a temp file in the
//!   same directory, fsynced, then renamed over the target. A crash
//!   mid-save leaves the previous catalog intact, never a half-written
//!   one.
//! * **Checksummed** — the file opens with a `ORVCAT1 <crc32c>` header
//!   over the JSON payload; [`MetadataService::load_json`] verifies it
//!   and reports damage as a typed [`Error::Integrity`] instead of a
//!   confusing parse error (or worse, a silently plausible catalog).
//!
//! The JSON itself is written and parsed with the workspace's own
//! dependency-free [`JsonValue`], same as the observability exports.

use crate::service::MetadataService;
use orv_chunk::{ChunkLocation, ChunkMeta};
use orv_cluster::checksum;
use orv_obs::{obj, JsonValue};
use orv_types::{
    AttrRole, Attribute, BoundingBox, ChunkId, DataType, Error, Interval, NodeId, Result, Schema,
    SubTableId, TableId,
};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// On-disk snapshot of the whole service.
pub struct CatalogSnapshot {
    /// Snapshot format version.
    pub version: u32,
    tables: Vec<TableSnapshot>,
    join_indices: Vec<(String, Vec<(SubTableId, SubTableId)>)>,
    /// Layout sources: `(extractor name, DSL source, coordinate attrs)`.
    layouts: Vec<(String, String, Vec<String>)>,
}

struct TableSnapshot {
    name: String,
    schema: Schema,
    chunks: Vec<ChunkMeta>,
}

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Header magic of the catalog file; the hex CRC32C of the payload
/// follows on the same line.
pub const CATALOG_MAGIC: &str = "ORVCAT1";

fn arr(items: impl IntoIterator<Item = JsonValue>) -> JsonValue {
    JsonValue::Array(items.into_iter().collect())
}

fn req_array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue]> {
    v.req(key)?
        .as_array()
        .ok_or_else(|| Error::Format(format!("catalog field `{key}` is not an array")))
}

fn req_strings(v: &JsonValue, key: &str) -> Result<Vec<String>> {
    req_array(v, key)?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| Error::Format(format!("catalog field `{key}` holds a non-string")))
        })
        .collect()
}

/// Bounds can be infinite; `JsonValue` writes non-finite numbers as
/// `null`, so spell them out instead.
fn bound_to_json(x: f64) -> JsonValue {
    if x.is_finite() {
        x.into()
    } else if x.is_nan() {
        "nan".into()
    } else if x > 0.0 {
        "inf".into()
    } else {
        "-inf".into()
    }
}

fn bound_from_json(v: &JsonValue) -> Result<f64> {
    match v {
        JsonValue::Number(n) => Ok(*n),
        JsonValue::String(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(Error::Format(format!("bad interval bound `{other}`"))),
        },
        other => Err(Error::Format(format!("bad interval bound `{other}`"))),
    }
}

fn schema_to_json(schema: &Schema) -> JsonValue {
    arr(schema.attrs().iter().map(|a| {
        obj([
            ("name", a.name.as_str().into()),
            ("dtype", a.dtype.name().into()),
            (
                "role",
                match a.role {
                    AttrRole::Coordinate => "coordinate".into(),
                    AttrRole::Scalar => "scalar".into(),
                },
            ),
        ])
    }))
}

fn schema_from_json(v: &JsonValue) -> Result<Schema> {
    let attrs = v
        .as_array()
        .ok_or_else(|| Error::Format("catalog schema is not an array".into()))?
        .iter()
        .map(|a| {
            let dtype_name = a.req_str("dtype")?;
            let dtype = DataType::parse(dtype_name)
                .ok_or_else(|| Error::Format(format!("unknown dtype `{dtype_name}`")))?;
            let role = match a.req_str("role")? {
                "coordinate" => AttrRole::Coordinate,
                "scalar" => AttrRole::Scalar,
                other => return Err(Error::Format(format!("unknown attr role `{other}`"))),
            };
            Ok(Attribute {
                name: a.req_str("name")?.to_string(),
                dtype,
                role,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Schema::new(attrs)
}

fn bbox_to_json(bbox: &BoundingBox) -> JsonValue {
    JsonValue::Object(
        bbox.bounded_attrs()
            .map(|(name, iv)| {
                (
                    name.to_string(),
                    arr([bound_to_json(iv.lo), bound_to_json(iv.hi)]),
                )
            })
            .collect(),
    )
}

fn bbox_from_json(v: &JsonValue) -> Result<BoundingBox> {
    let dims = v
        .as_object()
        .ok_or_else(|| Error::Format("catalog bbox is not an object".into()))?;
    let mut bbox = BoundingBox::unbounded();
    for (name, bounds) in dims {
        let pair = bounds
            .as_array()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| Error::Format(format!("bbox dim `{name}` is not a [lo, hi] pair")))?;
        bbox.set(
            name.clone(),
            Interval::new(bound_from_json(&pair[0])?, bound_from_json(&pair[1])?),
        );
    }
    Ok(bbox)
}

fn chunk_to_json(c: &ChunkMeta) -> JsonValue {
    obj([
        ("table", c.table.0.into()),
        ("chunk", c.chunk.0.into()),
        ("node", c.node.0.into()),
        ("file", c.location.file.as_str().into()),
        ("offset", c.location.offset.into()),
        ("len", c.location.len.into()),
        (
            "attributes",
            arr(c.attributes.iter().map(|s| s.as_str().into())),
        ),
        (
            "extractors",
            arr(c.extractors.iter().map(|s| s.as_str().into())),
        ),
        ("bbox", bbox_to_json(&c.bbox)),
        ("num_records", c.num_records.into()),
        (
            "checksum",
            c.checksum.map(JsonValue::from).unwrap_or(JsonValue::Null),
        ),
    ])
}

fn chunk_from_json(v: &JsonValue) -> Result<ChunkMeta> {
    Ok(ChunkMeta {
        table: TableId(v.req_u64("table")? as u32),
        chunk: ChunkId(v.req_u64("chunk")? as u32),
        node: NodeId(v.req_u64("node")? as u32),
        location: ChunkLocation {
            file: v.req_str("file")?.to_string(),
            offset: v.req_u64("offset")?,
            len: v.req_u64("len")?,
        },
        attributes: req_strings(v, "attributes")?,
        extractors: req_strings(v, "extractors")?,
        bbox: bbox_from_json(v.req("bbox")?)?,
        num_records: v.req_u64("num_records")?,
        checksum: match v.req("checksum")? {
            JsonValue::Null => None,
            other => Some(
                other
                    .as_u64()
                    .ok_or_else(|| Error::Format("catalog chunk checksum is not a u32".into()))?
                    as u32,
            ),
        },
    })
}

fn subtable_to_json(id: SubTableId) -> JsonValue {
    obj([("table", id.table.0.into()), ("chunk", id.chunk.0.into())])
}

fn subtable_from_json(v: &JsonValue) -> Result<SubTableId> {
    Ok(SubTableId::new(
        v.req_u64("table")? as u32,
        v.req_u64("chunk")? as u32,
    ))
}

impl CatalogSnapshot {
    /// Serialize as a JSON value (the payload of the catalog file).
    pub fn to_json_value(&self) -> JsonValue {
        obj([
            ("version", self.version.into()),
            (
                "tables",
                arr(self.tables.iter().map(|t| {
                    obj([
                        ("name", t.name.as_str().into()),
                        ("schema", schema_to_json(&t.schema)),
                        ("chunks", arr(t.chunks.iter().map(chunk_to_json))),
                    ])
                })),
            ),
            (
                "join_indices",
                arr(self.join_indices.iter().map(|(key, pairs)| {
                    obj([
                        ("key", key.as_str().into()),
                        (
                            "pairs",
                            arr(pairs
                                .iter()
                                .map(|(a, b)| arr([subtable_to_json(*a), subtable_to_json(*b)]))),
                        ),
                    ])
                })),
            ),
            (
                "layouts",
                arr(self.layouts.iter().map(|(name, source, coords)| {
                    obj([
                        ("name", name.as_str().into()),
                        ("source", source.as_str().into()),
                        ("coords", arr(coords.iter().map(|c| c.as_str().into()))),
                    ])
                })),
            ),
        ])
    }

    /// Reconstruct a snapshot from [`CatalogSnapshot::to_json_value`]
    /// output.
    pub fn from_json_value(v: &JsonValue) -> Result<Self> {
        let tables = req_array(v, "tables")?
            .iter()
            .map(|t| {
                Ok(TableSnapshot {
                    name: t.req_str("name")?.to_string(),
                    schema: schema_from_json(t.req("schema")?)?,
                    chunks: req_array(t, "chunks")?
                        .iter()
                        .map(chunk_from_json)
                        .collect::<Result<_>>()?,
                })
            })
            .collect::<Result<_>>()?;
        let join_indices = req_array(v, "join_indices")?
            .iter()
            .map(|e| {
                let pairs = req_array(e, "pairs")?
                    .iter()
                    .map(|p| {
                        let pair = p
                            .as_array()
                            .filter(|a| a.len() == 2)
                            .ok_or_else(|| Error::Format("join-index pair malformed".into()))?;
                        Ok((subtable_from_json(&pair[0])?, subtable_from_json(&pair[1])?))
                    })
                    .collect::<Result<_>>()?;
                Ok((e.req_str("key")?.to_string(), pairs))
            })
            .collect::<Result<_>>()?;
        let layouts = req_array(v, "layouts")?
            .iter()
            .map(|l| {
                Ok((
                    l.req_str("name")?.to_string(),
                    l.req_str("source")?.to_string(),
                    req_strings(l, "coords")?,
                ))
            })
            .collect::<Result<_>>()?;
        Ok(CatalogSnapshot {
            version: v.req_u64("version")? as u32,
            tables,
            join_indices,
            layouts,
        })
    }
}

impl MetadataService {
    /// Capture a snapshot of tables, chunks and join indices.
    pub fn snapshot(&self) -> Result<CatalogSnapshot> {
        let mut tables = Vec::new();
        for name in self.table_names() {
            let id = self.table_id(&name)?;
            let schema = (*self.schema(id)?).clone();
            let chunks = self.with_chunks(id, |cs| cs.to_vec())?;
            tables.push(TableSnapshot {
                name,
                schema,
                chunks,
            });
        }
        Ok(CatalogSnapshot {
            version: SNAPSHOT_VERSION,
            tables,
            join_indices: self.export_join_indices(),
            layouts: self.layouts(),
        })
    }

    /// Write a checksummed JSON snapshot to `path`, atomically.
    ///
    /// The bytes land in a temp file beside `path` (same filesystem, so
    /// the final `rename` is atomic) and are fsynced before the rename: a
    /// crash at any point leaves either the old catalog or the new one,
    /// never a torn file.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<()> {
        let snapshot = self.snapshot()?;
        let payload = snapshot.to_json_value().to_string();
        let text = format!(
            "{CATALOG_MAGIC} {:08x}\n{payload}\n",
            checksum::crc32c(payload.as_bytes())
        );
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let write = (|| -> Result<()> {
            #[allow(
                clippy::disallowed_methods,
                reason = "the crash-safe catalog writer: CRC-sealed payload, temp file then rename"
            )]
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)?;
            Ok(())
        })();
        if write.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        write
    }

    /// Restore a service from a snapshot (R-trees rebuilt on the fly).
    ///
    /// Table ids are reassigned in snapshot order, which preserves the
    /// original ids since registration order is id order.
    pub fn from_snapshot(snapshot: CatalogSnapshot) -> Result<Self> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(Error::Format(format!(
                "unsupported catalog snapshot version {} (expected {SNAPSHOT_VERSION})",
                snapshot.version
            )));
        }
        let svc = MetadataService::new();
        for table in snapshot.tables {
            let id = svc.register_table(table.name, Arc::new(table.schema))?;
            for chunk in table.chunks {
                if chunk.table != id {
                    return Err(Error::Format(format!(
                        "snapshot chunk {} claims table {} but was stored under {id}",
                        chunk.chunk, chunk.table
                    )));
                }
                svc.register_chunk(chunk)?;
            }
        }
        svc.import_join_indices(snapshot.join_indices);
        for (name, source, coords) in snapshot.layouts {
            svc.register_layout(name, source, coords);
        }
        Ok(svc)
    }

    /// Read a snapshot from `path`, verifying its checksum first.
    ///
    /// A bad or missing header is [`Error::Format`]; a payload whose
    /// CRC32C disagrees with the header — truncation, a flipped bit — is
    /// a typed [`Error::Integrity`] before any parsing is attempted.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let (header, payload) = text
            .split_once('\n')
            .ok_or_else(|| Error::Format("catalog file has no header line".into()))?;
        let crc_hex = header
            .strip_prefix(CATALOG_MAGIC)
            .map(str::trim)
            .ok_or_else(|| {
                Error::Format(format!(
                    "catalog header does not start with `{CATALOG_MAGIC}`"
                ))
            })?;
        let expected = u32::from_str_radix(crc_hex, 16)
            .map_err(|_| Error::Format(format!("bad catalog checksum field `{crc_hex}`")))?;
        let payload = payload.trim_end();
        checksum::verify(expected, payload.as_bytes(), "catalog snapshot")?;
        let v = JsonValue::parse(payload)
            .map_err(|e| Error::Format(format!("cannot parse catalog snapshot: {e}")))?;
        Self::from_snapshot(CatalogSnapshot::from_json_value(&v)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load_err(path: &Path) -> Error {
        match MetadataService::load_json(path) {
            Err(e) => e,
            Ok(_) => panic!("load must fail"),
        }
    }

    fn populated() -> MetadataService {
        let svc = MetadataService::new();
        let schema = Arc::new(Schema::grid(&["x", "y"], &["wp"]).unwrap());
        let t = svc.register_table("T1", schema).unwrap();
        for i in 0..6u32 {
            svc.register_chunk(ChunkMeta {
                table: t,
                chunk: ChunkId(i),
                node: NodeId(i % 2),
                location: ChunkLocation {
                    file: "t1.dat".into(),
                    offset: (i as u64) * 256,
                    len: 256,
                },
                attributes: vec!["x".into(), "y".into(), "wp".into()],
                extractors: vec!["t1_layout".into()],
                bbox: BoundingBox::from_dims([
                    ("x", Interval::new(i as f64 * 4.0, i as f64 * 4.0 + 3.0)),
                    ("y", Interval::new(0.0, 7.0)),
                ]),
                num_records: 32,
                // One checksummed chunk, the rest bare: both forms must
                // survive the round-trip.
                checksum: (i == 0).then_some(0xDEAD_BEEF),
            })
            .unwrap();
        }
        svc.put_join_index(
            t,
            t,
            &["x", "y"],
            vec![(SubTableId::new(0u32, 0u32), SubTableId::new(0u32, 1u32))],
        );
        svc
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let svc = populated();
        let restored = MetadataService::from_snapshot(svc.snapshot().unwrap()).unwrap();
        let t = restored.table_id("T1").unwrap();
        assert_eq!(t, TableId(0));
        assert_eq!(restored.total_records(t).unwrap(), 192);
        assert_eq!(restored.schema(t).unwrap().arity(), 3);
        // R-tree works after restore.
        let q = BoundingBox::from_dims([("x", Interval::new(8.0, 11.0))]);
        assert_eq!(restored.find_chunks(t, &q).unwrap(), vec![ChunkId(2)]);
        // Join index survived.
        let idx = restored.get_join_index(t, t, &["x", "y"]).unwrap();
        assert_eq!(idx.len(), 1);
        // Chunk metadata intact, including the integrity checksum.
        let meta = restored.chunk_meta(SubTableId::new(0u32, 5u32)).unwrap();
        assert_eq!(meta.location.offset, 1280);
        assert_eq!(meta.extractors, vec!["t1_layout"]);
        assert_eq!(meta.checksum, None);
        let meta0 = restored.chunk_meta(SubTableId::new(0u32, 0u32)).unwrap();
        assert_eq!(meta0.checksum, Some(0xDEAD_BEEF));
    }

    #[test]
    fn snapshot_json_value_round_trips() {
        let snap = populated().snapshot().unwrap();
        let v = snap.to_json_value();
        let back =
            CatalogSnapshot::from_json_value(&JsonValue::parse(&v.to_string()).unwrap()).unwrap();
        assert_eq!(back.to_json_value(), v);
    }

    #[test]
    fn unbounded_interval_survives_round_trip() {
        assert_eq!(
            bound_from_json(&bound_to_json(f64::INFINITY)).unwrap(),
            f64::INFINITY
        );
        assert_eq!(
            bound_from_json(&bound_to_json(f64::NEG_INFINITY)).unwrap(),
            f64::NEG_INFINITY
        );
        assert_eq!(bound_from_json(&bound_to_json(2.5)).unwrap(), 2.5);
        assert!(bound_from_json(&bound_to_json(f64::NAN)).unwrap().is_nan());
        assert!(bound_from_json(&JsonValue::Bool(true)).is_err());
    }

    #[test]
    fn json_file_roundtrip() {
        let svc = populated();
        let path = std::env::temp_dir().join(format!("orv-catalog-{}.json", std::process::id()));
        svc.save_json(&path).unwrap();
        let restored = MetadataService::load_json(&path).unwrap();
        assert_eq!(restored.num_tables(), 1);
        assert_eq!(restored.all_chunks(TableId(0)).unwrap().len(), 6);
        // Saving again atomically replaces the previous catalog.
        restored.save_json(&path).unwrap();
        assert_eq!(MetadataService::load_json(&path).unwrap().num_tables(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("orv-cat-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");
        populated().save_json(&path).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["catalog.json".to_string()], "{names:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_catalog_is_rejected_with_integrity_error() {
        let path = std::env::temp_dir().join(format!("orv-cat-trunc-{}.json", std::process::id()));
        populated().save_json(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = load_err(&path);
        assert!(matches!(err, Error::Integrity(_)), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flipped_catalog_is_rejected_with_integrity_error() {
        let path = std::env::temp_dir().join(format!("orv-cat-flip-{}.json", std::process::id()));
        populated().save_json(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit in the middle of the payload (past the header).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_err(&path);
        assert!(matches!(err, Error::Integrity(_)), "{err}");
        assert!(err.to_string().contains("catalog"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_mismatch_rejected() {
        let svc = populated();
        let mut snap = svc.snapshot().unwrap();
        snap.version = 99;
        let err = match MetadataService::from_snapshot(snap) {
            Err(e) => e,
            Ok(_) => panic!("version mismatch must fail"),
        };
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn corrupt_json_rejected() {
        let path =
            std::env::temp_dir().join(format!("orv-catalog-bad-{}.json", std::process::id()));
        std::fs::write(&path, b"{not json").unwrap();
        let err = load_err(&path);
        assert!(matches!(err, Error::Format(_)), "no header: {err}");
        // A well-formed header whose payload is not JSON fails at parse,
        // not at checksum.
        let bad = "not json at all";
        let text = format!(
            "{CATALOG_MAGIC} {:08x}\n{bad}\n",
            orv_cluster::crc32c(bad.as_bytes())
        );
        std::fs::write(&path, text).unwrap();
        let err = load_err(&path);
        assert!(matches!(err, Error::Format(_)), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
