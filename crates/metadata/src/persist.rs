//! Crash-safe catalog persistence.
//!
//! "The MetaData Service stores information about chunks and may also be
//! used by other services to store persistent information." This module
//! writes a [`MetadataService`] — tables, chunk metadata, the precomputed
//! page-level join indices and the layout sources — to a JSON file and
//! restores it, packing each table's R-tree once on load. A restored
//! deployment can answer queries without re-scanning any data file.
//!
//! The catalog is the one artifact whose loss strands every dataset on
//! disk, so writes are crash-safe and reads are verified:
//!
//! * **Atomic replace** — the catalog is written to a temp file in the
//!   same directory, fsynced, then renamed over the target. A crash
//!   mid-save leaves the previous catalog intact, never a half-written
//!   one. The temp name carries the process id and a per-process save
//!   count, so concurrent saves of one path never share a temp file.
//! * **Checksummed** — the file opens with a `ORVCAT1 <crc32c>` header
//!   over the JSON payload; [`MetadataService::load_json`] verifies it
//!   and reports damage as a typed [`Error::Integrity`] instead of a
//!   confusing parse error (or worse, a silently plausible catalog).
//!
//! The payload is streamed straight from the catalog into one string,
//! with the number and string rules of the workspace's dependency-free
//! [`JsonValue`] ([`write_number`], [`write_string`]) and its keys in
//! sorted order, so it is byte for byte what printing the equivalent
//! [`JsonValue`] tree gives. It is read back with [`JsonValue::parse`].
//!
//! A JSON number is an `f64`, exact for integers up to
//! [`MAX_SAFE_INTEGER`] (2^53 − 1). A chunk's `offset`, `len` or
//! `num_records` above it would save as a neighbouring value, so
//! [`MetadataService::save_json`] refuses it before writing anything, and
//! the loader refuses any integer field past it.

use crate::service::MetadataService;
use orv_chunk::{ChunkLocation, ChunkMeta};
use orv_cluster::checksum;
use orv_obs::{write_number, write_string, JsonValue, MAX_SAFE_INTEGER};
use orv_types::{
    AttrRole, Attribute, BoundingBox, ChunkId, DataType, Error, Interval, NodeId, Result, Schema,
    SubTableId, TableId,
};
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Current catalog format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Header magic of the catalog file; the hex CRC32C of the payload
/// follows on the same line.
pub const CATALOG_MAGIC: &str = "ORVCAT1";

/// Saves started by this process; numbers each save's temp file.
static SAVES: AtomicU64 = AtomicU64::new(0);

/// Write `[item, item, ...]`, each item by `each`.
fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T) -> fmt::Result,
) -> fmt::Result {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item)?;
    }
    out.push(']');
    Ok(())
}

fn write_strings(out: &mut String, items: &[String]) -> fmt::Result {
    write_array(out, items, |out, s| write_string(out, s))
}

/// Bounds can be infinite; JSON numbers cannot, so non-finite bounds are
/// spelled as the strings `"inf"`, `"-inf"` and `"nan"`.
fn write_bound(out: &mut String, x: f64) -> fmt::Result {
    if x.is_finite() {
        write_number(out, x)
    } else {
        out.push_str(if x.is_nan() {
            "\"nan\""
        } else if x > 0.0 {
            "\"inf\""
        } else {
            "\"-inf\""
        });
        Ok(())
    }
}

fn write_subtable(out: &mut String, id: SubTableId) -> fmt::Result {
    out.push_str("{\"chunk\":");
    write_number(out, id.chunk.0.into())?;
    out.push_str(",\"table\":");
    write_number(out, id.table.0.into())?;
    out.push('}');
    Ok(())
}

fn write_chunk(out: &mut String, c: &ChunkMeta) -> fmt::Result {
    out.push_str("{\"attributes\":");
    write_strings(out, &c.attributes)?;
    out.push_str(",\"bbox\":{");
    for (i, (name, iv)) in c.bbox.bounded_attrs().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(out, name)?;
        out.push_str(":[");
        write_bound(out, iv.lo)?;
        out.push(',');
        write_bound(out, iv.hi)?;
        out.push(']');
    }
    out.push_str("},\"checksum\":");
    match c.checksum {
        Some(crc) => write_number(out, crc.into())?,
        None => out.push_str("null"),
    }
    out.push_str(",\"chunk\":");
    write_number(out, c.chunk.0.into())?;
    out.push_str(",\"extractors\":");
    write_strings(out, &c.extractors)?;
    out.push_str(",\"file\":");
    write_string(out, &c.location.file)?;
    out.push_str(",\"len\":");
    write_number(out, c.location.len as f64)?;
    out.push_str(",\"node\":");
    write_number(out, c.node.0.into())?;
    out.push_str(",\"num_records\":");
    write_number(out, c.num_records as f64)?;
    out.push_str(",\"offset\":");
    write_number(out, c.location.offset as f64)?;
    out.push_str(",\"table\":");
    write_number(out, c.table.0.into())?;
    out.push('}');
    Ok(())
}

fn write_schema(out: &mut String, schema: &Schema) -> fmt::Result {
    write_array(out, schema.attrs(), |out, a| {
        out.push_str("{\"dtype\":");
        write_string(out, a.dtype.name())?;
        out.push_str(",\"name\":");
        write_string(out, &a.name)?;
        out.push_str(",\"role\":");
        write_string(
            out,
            match a.role {
                AttrRole::Coordinate => "coordinate",
                AttrRole::Scalar => "scalar",
            },
        )?;
        out.push('}');
        Ok(())
    })
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

/// A `u64` field. A value JSON cannot carry exactly (see
/// [`JsonValue::as_u64`]) is a format error, not a rounded neighbour.
fn req_u64(v: &JsonValue, key: &str) -> Result<u64> {
    v.req(key)?.as_u64().ok_or_else(|| {
        Error::Format(format!(
            "catalog field `{key}` is not an integer in 0..=2^53 - 1"
        ))
    })
}

/// A `u32` field (an id or a CRC). A larger value is a format error, not
/// a silent wrap onto another id.
fn req_u32(v: &JsonValue, key: &str) -> Result<u32> {
    u32::try_from(req_u64(v, key)?)
        .map_err(|_| Error::Format(format!("catalog field `{key}` exceeds u32")))
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

fn chunk_from_json(v: &JsonValue) -> Result<ChunkMeta> {
    Ok(ChunkMeta {
        table: TableId(req_u32(v, "table")?),
        chunk: ChunkId(req_u32(v, "chunk")?),
        node: NodeId(req_u32(v, "node")?),
        location: ChunkLocation {
            file: v.req_str("file")?.to_string(),
            offset: req_u64(v, "offset")?,
            len: req_u64(v, "len")?,
        },
        attributes: req_strings(v, "attributes")?,
        extractors: req_strings(v, "extractors")?,
        bbox: bbox_from_json(v.req("bbox")?)?,
        num_records: req_u64(v, "num_records")?,
        checksum: match v.req("checksum")? {
            JsonValue::Null => None,
            other => Some(
                other
                    .as_u64()
                    .and_then(|crc| u32::try_from(crc).ok())
                    .ok_or_else(|| Error::Format("catalog chunk checksum is not a u32".into()))?,
            ),
        },
    })
}

fn subtable_from_json(v: &JsonValue) -> Result<SubTableId> {
    Ok(SubTableId::new(req_u32(v, "table")?, req_u32(v, "chunk")?))
}

impl MetadataService {
    /// Append the JSON payload — keys sorted, as [`JsonValue`] prints an
    /// object — to `out`, holding the read locks while it is formatted.
    /// A chunk number JSON cannot carry exactly is an [`Error::Format`]
    /// naming the field, before anything is appended.
    fn write_payload(&self, out: &mut String) -> Result<()> {
        let catalog = self.catalog.read();
        let join_indices = self.join_indices.read();
        let layouts = self.layouts.read();
        for c in catalog.tables().flat_map(|t| t.chunks()) {
            let fields = [
                ("offset", c.location.offset),
                ("len", c.location.len),
                ("num_records", c.num_records),
            ];
            if let Some((field, n)) = fields.into_iter().find(|&(_, n)| n > MAX_SAFE_INTEGER) {
                return Err(Error::Format(format!(
                    "chunk {} of table {}: `{field}` {n} is above 2^53 - 1, \
                     which a catalog number cannot carry exactly",
                    c.chunk, c.table
                )));
            }
        }
        // Enough for the common case, so `out` is allocated once: a chunk
        // of the generator's tables prints in about 280 bytes.
        let chunks: usize = catalog.tables().map(|t| t.chunks().len()).sum();
        let pairs: usize = join_indices.values().map(|p| p.len()).sum();
        let sources: usize = layouts.values().map(|(s, _)| s.len()).sum();
        out.reserve(1024 + 384 * chunks + 64 * pairs + 2 * sources);

        let print = |out: &mut String| -> fmt::Result {
            out.push_str("{\"join_indices\":");
            write_array(out, join_indices.iter(), |out, (key, pairs)| {
                out.push_str("{\"key\":");
                write_string(out, key)?;
                out.push_str(",\"pairs\":");
                write_array(out, pairs.iter(), |out, (a, b)| {
                    out.push('[');
                    write_subtable(out, *a)?;
                    out.push(',');
                    write_subtable(out, *b)?;
                    out.push(']');
                    Ok(())
                })?;
                out.push('}');
                Ok(())
            })?;
            out.push_str(",\"layouts\":");
            write_array(out, layouts.iter(), |out, (name, (source, coords))| {
                out.push_str("{\"coords\":");
                write_strings(out, coords)?;
                out.push_str(",\"name\":");
                write_string(out, name)?;
                out.push_str(",\"source\":");
                write_string(out, source)?;
                out.push('}');
                Ok(())
            })?;
            out.push_str(",\"tables\":");
            write_array(out, catalog.tables(), |out, table| {
                out.push_str("{\"chunks\":");
                write_array(out, table.chunks(), write_chunk)?;
                out.push_str(",\"name\":");
                write_string(out, &table.name)?;
                out.push_str(",\"schema\":");
                write_schema(out, &table.schema)?;
                out.push('}');
                Ok(())
            })?;
            out.push_str(",\"version\":");
            write_number(out, SNAPSHOT_VERSION.into())?;
            out.push('}');
            Ok(())
        };
        print(out).map_err(|_| Error::Format("cannot format the catalog".into()))
    }

    /// Write a checksummed JSON catalog to `path`, atomically.
    ///
    /// The bytes land in a temp file beside `path` (same filesystem, so
    /// the final `rename` is atomic) and are fsynced before the rename: a
    /// crash at any point leaves either the old catalog or the new one,
    /// never a torn file.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<()> {
        // The header's eight hex digits of CRC are patched in once the
        // payload is known.
        let mut text = format!("{CATALOG_MAGIC} 00000000\n");
        let crc_at = CATALOG_MAGIC.len() + 1;
        let start = text.len();
        self.write_payload(&mut text)?;
        let crc = checksum::crc32c(&text.as_bytes()[start..]);
        text.replace_range(crc_at..crc_at + 8, &format!("{crc:08x}"));
        text.push('\n');

        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(
            ".tmp.{}.{}",
            std::process::id(),
            SAVES.fetch_add(1, Ordering::Relaxed)
        ));
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

    /// Read a catalog from `path`, verifying its checksum first.
    ///
    /// A bad or missing header is [`Error::Format`]; a payload whose
    /// CRC32C disagrees with the header — truncation, a flipped bit — is
    /// a typed [`Error::Integrity`] before any parsing is attempted.
    /// Table ids are assigned in file order, which preserves the saved
    /// ids since registration order is id order; each table's R-tree is
    /// packed once, from all of its chunks.
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

        let version = v.req_u64("version")?;
        if version != u64::from(SNAPSHOT_VERSION) {
            return Err(Error::Format(format!(
                "unsupported catalog snapshot version {version} (expected {SNAPSHOT_VERSION})"
            )));
        }
        let svc = MetadataService::new();
        for t in req_array(&v, "tables")? {
            let schema = schema_from_json(t.req("schema")?)?;
            let id = svc.register_table(t.req_str("name")?, Arc::new(schema))?;
            let chunks = req_array(t, "chunks")?
                .iter()
                .map(chunk_from_json)
                .collect::<Result<Vec<_>>>()?;
            if let Some(c) = chunks.iter().find(|c| c.table != id) {
                return Err(Error::Format(format!(
                    "catalog chunk {} claims table {} but was stored under {id}",
                    c.chunk, c.table
                )));
            }
            svc.register_chunks(id, chunks)?;
        }
        for e in req_array(&v, "join_indices")? {
            let pairs = req_array(e, "pairs")?
                .iter()
                .map(|p| {
                    let pair = p
                        .as_array()
                        .filter(|a| a.len() == 2)
                        .ok_or_else(|| Error::Format("join-index pair malformed".into()))?;
                    Ok((subtable_from_json(&pair[0])?, subtable_from_json(&pair[1])?))
                })
                .collect::<Result<Vec<_>>>()?;
            svc.join_indices
                .write()
                .insert(e.req_str("key")?.to_string(), Arc::new(pairs));
        }
        for l in req_array(&v, "layouts")? {
            svc.register_layout(
                l.req_str("name")?,
                l.req_str("source")?.to_string(),
                req_strings(l, "coords")?,
            );
        }
        Ok(svc)
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

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("orv-cat-{tag}-{}.json", std::process::id()))
    }

    /// Write `payload` under a header whose CRC matches it.
    fn write_sealed(path: &Path, payload: &str) {
        let text = format!(
            "{CATALOG_MAGIC} {:08x}\n{payload}\n",
            orv_cluster::crc32c(payload.as_bytes())
        );
        std::fs::write(path, text).unwrap();
    }

    /// The bytes `svc` saves.
    fn saved(svc: &MetadataService, tag: &str) -> String {
        let path = temp_path(tag);
        svc.save_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        text
    }

    fn payload_of(text: &str) -> &str {
        text.split_once('\n').unwrap().1.trim_end()
    }

    fn populated() -> MetadataService {
        let svc = MetadataService::new();
        let schema = Arc::new(Schema::grid(&["x", "y"], &["wp"]).unwrap());
        let t = svc.register_table("T1", schema).unwrap();
        let metas = (0..6u32)
            .map(|i| ChunkMeta {
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
            .collect();
        svc.register_chunks(t, metas).unwrap();
        svc.put_join_index(
            t,
            t,
            &["x", "y"],
            vec![(SubTableId::new(0u32, 0u32), SubTableId::new(0u32, 1u32))],
        );
        svc
    }

    /// [`populated`] plus what the byte-level tests need: bounds that are
    /// infinite, NaN, unbounded, subnormal or at least 10^15, the three
    /// largest offsets JSON carries exactly (2^53 − 3, 2^53 − 2 and
    /// 2^53 − 1), names and a layout source that need escapes or are not
    /// ASCII, a second join index, and a table with no chunks.
    fn rich() -> MetadataService {
        let svc = populated();
        let schema = Arc::new(Schema::grid(&["x", "y", "z"], &["wp"]).unwrap());
        let t = svc.register_table("odd \"bounds\" ✓", schema).unwrap();
        let bounds = [
            ("x", Interval::new(f64::NEG_INFINITY, 3.5)),
            ("y", Interval::new(f64::NAN, f64::INFINITY)),
            ("z", Interval::unbounded()),
            ("wp", Interval::new(-0.25, 1e20)),
            ("x", Interval::new(5e-324, 2.0)),
        ];
        let metas = (0..3u32)
            .map(|i| ChunkMeta {
                table: t,
                chunk: ChunkId(i),
                node: NodeId(2),
                location: ChunkLocation {
                    file: "odd\\t2.dat".into(),
                    offset: MAX_SAFE_INTEGER - 2 + u64::from(i),
                    len: 7,
                },
                attributes: vec!["x".into(), "y".into(), "z".into(), "wp".into()],
                extractors: vec!["odd_layout".into()],
                bbox: BoundingBox::from_dims(bounds[i as usize..i as usize + 3].iter().copied()),
                num_records: 0,
                checksum: Some(u32::MAX - i),
            })
            .collect();
        svc.register_chunks(t, metas).unwrap();
        svc.register_table("empty", Arc::new(Schema::grid(&["x"], &[]).unwrap()))
            .unwrap();
        svc.register_layout(
            "odd_layout",
            "DATASET \"odd\" {\n\tDATA { x y z wp }\u{1}\r\n} // é 日本 🦀".into(),
            vec!["x".into(), "y".into(), "z".into()],
        );
        svc.put_join_index(
            t,
            TableId(0),
            &["x"],
            vec![
                (SubTableId::new(1u32, 2u32), SubTableId::new(0u32, 5u32)),
                (SubTableId::new(1u32, 0u32), SubTableId::new(0u32, 0u32)),
            ],
        );
        svc
    }

    /// [`rich`] as the writer that built a `JsonValue` tree and printed it
    /// saved it.
    const TREE_PRINTED_CATALOG: &str = r#"ORVCAT1 3a04a7e6
{"join_indices":[{"key":"T0⋈T0:x,y","pairs":[[{"chunk":0,"table":0},{"chunk":1,"table":0}]]},{"key":"T1⋈T0:x","pairs":[[{"chunk":2,"table":1},{"chunk":5,"table":0}],[{"chunk":0,"table":1},{"chunk":0,"table":0}]]}],"layouts":[{"coords":["x","y","z"],"name":"odd_layout","source":"DATASET \"odd\" {\n\tDATA { x y z wp }\u0001\r\n} // é 日本 🦀"}],"tables":[{"chunks":[{"attributes":["x","y","wp"],"bbox":{"x":[0,3],"y":[0,7]},"checksum":3735928559,"chunk":0,"extractors":["t1_layout"],"file":"t1.dat","len":256,"node":0,"num_records":32,"offset":0,"table":0},{"attributes":["x","y","wp"],"bbox":{"x":[4,7],"y":[0,7]},"checksum":null,"chunk":1,"extractors":["t1_layout"],"file":"t1.dat","len":256,"node":1,"num_records":32,"offset":256,"table":0},{"attributes":["x","y","wp"],"bbox":{"x":[8,11],"y":[0,7]},"checksum":null,"chunk":2,"extractors":["t1_layout"],"file":"t1.dat","len":256,"node":0,"num_records":32,"offset":512,"table":0},{"attributes":["x","y","wp"],"bbox":{"x":[12,15],"y":[0,7]},"checksum":null,"chunk":3,"extractors":["t1_layout"],"file":"t1.dat","len":256,"node":1,"num_records":32,"offset":768,"table":0},{"attributes":["x","y","wp"],"bbox":{"x":[16,19],"y":[0,7]},"checksum":null,"chunk":4,"extractors":["t1_layout"],"file":"t1.dat","len":256,"node":0,"num_records":32,"offset":1024,"table":0},{"attributes":["x","y","wp"],"bbox":{"x":[20,23],"y":[0,7]},"checksum":null,"chunk":5,"extractors":["t1_layout"],"file":"t1.dat","len":256,"node":1,"num_records":32,"offset":1280,"table":0}],"name":"T1","schema":[{"dtype":"i32","name":"x","role":"coordinate"},{"dtype":"i32","name":"y","role":"coordinate"},{"dtype":"f32","name":"wp","role":"scalar"}]},{"chunks":[{"attributes":["x","y","z","wp"],"bbox":{"x":["-inf",3.5],"y":["nan","inf"],"z":["-inf","inf"]},"checksum":4294967295,"chunk":0,"extractors":["odd_layout"],"file":"odd\\t2.dat","len":7,"node":2,"num_records":0,"offset":9007199254740989,"table":1},{"attributes":["x","y","z","wp"],"bbox":{"wp":[-0.25,100000000000000000000],"y":["nan","inf"],"z":["-inf","inf"]},"checksum":4294967294,"chunk":1,"extractors":["odd_layout"],"file":"odd\\t2.dat","len":7,"node":2,"num_records":0,"offset":9007199254740990,"table":1},{"attributes":["x","y","z","wp"],"bbox":{"wp":[-0.25,100000000000000000000],"x":[0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,2],"z":["-inf","inf"]},"checksum":4294967293,"chunk":2,"extractors":["odd_layout"],"file":"odd\\t2.dat","len":7,"node":2,"num_records":0,"offset":9007199254740991,"table":1}],"name":"odd \"bounds\" ✓","schema":[{"dtype":"i32","name":"x","role":"coordinate"},{"dtype":"i32","name":"y","role":"coordinate"},{"dtype":"i32","name":"z","role":"coordinate"},{"dtype":"f32","name":"wp","role":"scalar"}]},{"chunks":[],"name":"empty","schema":[{"dtype":"i32","name":"x","role":"coordinate"}]}],"version":1}
"#;

    /// [`TREE_PRINTED_CATALOG`] with offsets 2^60, 2^60 + 1 and
    /// 2^60 + 2 in place of its three largest, each printed as the one
    /// `f64` all three round to, `1152921504606847000`, under a matching
    /// CRC.
    const ROUNDED_OFFSETS_CATALOG: &str = r#"ORVCAT1 cfeae2ab
{"join_indices":[{"key":"T0⋈T0:x,y","pairs":[[{"chunk":0,"table":0},{"chunk":1,"table":0}]]},{"key":"T1⋈T0:x","pairs":[[{"chunk":2,"table":1},{"chunk":5,"table":0}],[{"chunk":0,"table":1},{"chunk":0,"table":0}]]}],"layouts":[{"coords":["x","y","z"],"name":"odd_layout","source":"DATASET \"odd\" {\n\tDATA { x y z wp }\u0001\r\n} // é 日本 🦀"}],"tables":[{"chunks":[{"attributes":["x","y","wp"],"bbox":{"x":[0,3],"y":[0,7]},"checksum":3735928559,"chunk":0,"extractors":["t1_layout"],"file":"t1.dat","len":256,"node":0,"num_records":32,"offset":0,"table":0},{"attributes":["x","y","wp"],"bbox":{"x":[4,7],"y":[0,7]},"checksum":null,"chunk":1,"extractors":["t1_layout"],"file":"t1.dat","len":256,"node":1,"num_records":32,"offset":256,"table":0},{"attributes":["x","y","wp"],"bbox":{"x":[8,11],"y":[0,7]},"checksum":null,"chunk":2,"extractors":["t1_layout"],"file":"t1.dat","len":256,"node":0,"num_records":32,"offset":512,"table":0},{"attributes":["x","y","wp"],"bbox":{"x":[12,15],"y":[0,7]},"checksum":null,"chunk":3,"extractors":["t1_layout"],"file":"t1.dat","len":256,"node":1,"num_records":32,"offset":768,"table":0},{"attributes":["x","y","wp"],"bbox":{"x":[16,19],"y":[0,7]},"checksum":null,"chunk":4,"extractors":["t1_layout"],"file":"t1.dat","len":256,"node":0,"num_records":32,"offset":1024,"table":0},{"attributes":["x","y","wp"],"bbox":{"x":[20,23],"y":[0,7]},"checksum":null,"chunk":5,"extractors":["t1_layout"],"file":"t1.dat","len":256,"node":1,"num_records":32,"offset":1280,"table":0}],"name":"T1","schema":[{"dtype":"i32","name":"x","role":"coordinate"},{"dtype":"i32","name":"y","role":"coordinate"},{"dtype":"f32","name":"wp","role":"scalar"}]},{"chunks":[{"attributes":["x","y","z","wp"],"bbox":{"x":["-inf",3.5],"y":["nan","inf"],"z":["-inf","inf"]},"checksum":4294967295,"chunk":0,"extractors":["odd_layout"],"file":"odd\\t2.dat","len":7,"node":2,"num_records":0,"offset":1152921504606847000,"table":1},{"attributes":["x","y","z","wp"],"bbox":{"wp":[-0.25,100000000000000000000],"y":["nan","inf"],"z":["-inf","inf"]},"checksum":4294967294,"chunk":1,"extractors":["odd_layout"],"file":"odd\\t2.dat","len":7,"node":2,"num_records":0,"offset":1152921504606847000,"table":1},{"attributes":["x","y","z","wp"],"bbox":{"wp":[-0.25,100000000000000000000],"x":[0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,2],"z":["-inf","inf"]},"checksum":4294967293,"chunk":2,"extractors":["odd_layout"],"file":"odd\\t2.dat","len":7,"node":2,"num_records":0,"offset":1152921504606847000,"table":1}],"name":"odd \"bounds\" ✓","schema":[{"dtype":"i32","name":"x","role":"coordinate"},{"dtype":"i32","name":"y","role":"coordinate"},{"dtype":"i32","name":"z","role":"coordinate"},{"dtype":"f32","name":"wp","role":"scalar"}]},{"chunks":[],"name":"empty","schema":[{"dtype":"i32","name":"x","role":"coordinate"}]}],"version":1}
"#;

    #[test]
    fn save_load_round_trip_preserves_everything() {
        let path = temp_path("roundtrip");
        populated().save_json(&path).unwrap();
        let restored = MetadataService::load_json(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
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
    fn saved_payload_is_its_parsed_tree_printed() {
        let text = saved(&rich(), "tree");
        let payload = payload_of(&text);
        assert_eq!(JsonValue::parse(payload).unwrap().to_string(), payload);
        // And what loads saves again to the same bytes.
        let path = temp_path("tree-again");
        std::fs::write(&path, &text).unwrap();
        let again = saved(&MetadataService::load_json(&path).unwrap(), "tree-resaved");
        std::fs::remove_file(&path).unwrap();
        assert_eq!(again, text);
    }

    #[test]
    fn tree_printed_catalog_loads_and_resaves_byte_for_byte() {
        assert_eq!(saved(&rich(), "pinned"), TREE_PRINTED_CATALOG);
        let path = temp_path("pinned-load");
        std::fs::write(&path, TREE_PRINTED_CATALOG).unwrap();
        let loaded = MetadataService::load_json(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(saved(&loaded, "pinned-resaved"), TREE_PRINTED_CATALOG);
        assert_eq!(loaded.num_tables(), 3);
        let empty = loaded.table_id("empty").unwrap();
        assert_eq!(loaded.all_chunks(empty).unwrap(), vec![]);
        let odd = loaded.table_id("odd \"bounds\" ✓").unwrap();
        let meta = loaded.chunk_meta(SubTableId::new(odd, 1u32)).unwrap();
        assert!(meta.bbox.get("y").lo.is_nan());
        assert_eq!(meta.bbox.get("wp"), Interval::new(-0.25, 1e20));
        assert_eq!(meta.checksum, Some(u32::MAX - 1));
        let layouts = loaded.layouts();
        assert!(
            layouts[0].1.ends_with("\u{1}\r\n} // é 日本 🦀"),
            "{layouts:?}"
        );
    }

    /// A chunk number JSON cannot carry exactly fails the save, names its
    /// field, and leaves the catalog on disk as it was.
    #[test]
    fn save_refuses_numbers_past_2_53_and_keeps_the_old_file() {
        let dir = std::env::temp_dir().join(format!("orv-cat-2p53-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");
        populated().save_json(&path).unwrap();
        let before = std::fs::read(&path).unwrap();
        for field in ["offset", "len", "num_records"] {
            let svc = populated();
            let schema = Arc::new(Schema::grid(&["x"], &[]).unwrap());
            let t = svc.register_table("big", schema).unwrap();
            let mut meta = svc.chunk_meta(SubTableId::new(0u32, 0u32)).unwrap();
            meta.table = t;
            match field {
                "offset" => meta.location.offset = 1 << 53,
                "len" => meta.location.len = 1 << 53,
                _ => meta.num_records = u64::MAX,
            }
            svc.register_chunks(t, vec![meta]).unwrap();
            let err = svc.save_json(&path).unwrap_err();
            assert!(matches!(err, Error::Format(_)), "{field}: {err}");
            assert!(err.to_string().contains(&format!("`{field}`")), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), before, "{field}");
        }
        let names: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(names.len(), 1, "temp files left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A catalog whose offsets were rounded on the way out does not load
    /// as three chunks at one offset.
    #[test]
    fn rounded_offsets_are_refused_on_load() {
        let path = temp_path("rounded");
        std::fs::write(&path, ROUNDED_OFFSETS_CATALOG).unwrap();
        let err = load_err(&path);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, Error::Format(_)), "{err}");
        assert!(err.to_string().contains("`offset`"), "{err}");
    }

    #[test]
    fn unbounded_interval_survives_round_trip() {
        let round_trip = |x: f64| {
            let mut out = String::new();
            write_bound(&mut out, x).unwrap();
            bound_from_json(&JsonValue::parse(&out).unwrap()).unwrap()
        };
        assert_eq!(round_trip(f64::INFINITY), f64::INFINITY);
        assert_eq!(round_trip(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert_eq!(round_trip(2.5), 2.5);
        assert!(round_trip(f64::NAN).is_nan());
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
    fn concurrent_saves_of_one_path_all_succeed() {
        let dir = std::env::temp_dir().join(format!("orv-cat-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");
        let svc = populated();
        let failed = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..200).filter(|_| svc.save_json(&path).is_err()).count()))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .sum::<usize>()
        });
        assert_eq!(failed, 0, "of 800 saves");
        assert_eq!(MetadataService::load_json(&path).unwrap().num_tables(), 1);
        let names: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(names.len(), 1, "temp files left behind");
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

    /// `populated()`'s payload with the first `from` replaced by `to`,
    /// sealed with a matching CRC: the loader's own checks must refuse it.
    fn edited_load_err(tag: &str, from: &str, to: &str) -> Error {
        let text = saved(&populated(), tag);
        let payload = payload_of(&text);
        assert!(payload.contains(from), "{from}");
        let path = temp_path(tag);
        write_sealed(&path, &payload.replacen(from, to, 1));
        let err = load_err(&path);
        std::fs::remove_file(&path).unwrap();
        err
    }

    #[test]
    fn version_mismatch_rejected() {
        // 2^32 + 1 would read as version 1 if it were cut to a u32.
        for version in ["99", "4294967297"] {
            let err = edited_load_err(
                "version",
                "\"version\":1}",
                &format!("\"version\":{version}}}"),
            );
            assert!(matches!(err, Error::Format(_)), "{err}");
            assert!(err.to_string().contains("version"), "{err}");
        }
    }

    #[test]
    fn chunk_claiming_another_table_is_rejected() {
        let err = edited_load_err(
            "claims",
            "\"offset\":0,\"table\":0}",
            "\"offset\":0,\"table\":1}",
        );
        assert!(matches!(err, Error::Format(_)), "{err}");
        assert!(err.to_string().contains("claims table"), "{err}");
    }

    #[test]
    fn ids_and_checksums_past_u32_are_rejected() {
        // Each would load as another, valid value if cut to a u32:
        // 2^32 + 1 as 1, 2^32 as 0.
        for (from, to) in [
            ("\"node\":1,", "\"node\":4294967297,"),
            ("null,\"chunk\":1,", "null,\"chunk\":4294967297,"),
            (
                "\"offset\":0,\"table\":0}",
                "\"offset\":0,\"table\":4294967296}",
            ),
            ("\"checksum\":3735928559,", "\"checksum\":4294967296,"),
            // Join-index pair members.
            (
                "{\"chunk\":1,\"table\":0}]",
                "{\"chunk\":4294967297,\"table\":0}]",
            ),
            (
                "{\"chunk\":0,\"table\":0},",
                "{\"chunk\":0,\"table\":4294967296},",
            ),
        ] {
            let err = edited_load_err("u32", from, to);
            assert!(matches!(err, Error::Format(_)), "{to}: {err}");
        }
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
        write_sealed(&path, "not json at all");
        let err = load_err(&path);
        assert!(matches!(err, Error::Format(_)), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
