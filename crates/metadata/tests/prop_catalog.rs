//! Property test: random catalogs save, load and save again to the same
//! bytes, every chunk loads with the offset, length and record count it
//! was saved with, and the loaded R-trees answer ranges as a scan of the
//! chunk boxes does. The catalogs hold 0–3 tables of 0–300 chunks, bounds
//! that are infinite, NaN or subnormal, strings that need escapes, 0–2
//! join indices, and chunk numbers anywhere in the range JSON carries
//! exactly (up to 2^53 − 1, which the save refuses to pass).
//! `PROPTEST_CASES` sets the case count (CI runs 4 096).

use orv_chunk::{ChunkLocation, ChunkMeta};
use orv_metadata::MetadataService;
use orv_obs::{JsonValue, MAX_SAFE_INTEGER};
use orv_types::{BoundingBox, ChunkId, Interval, NodeId, Schema, SubTableId, TableId};
use proptest::prelude::*;
use std::sync::Arc;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(64)
}

/// Text a writer must escape or pass through whole.
const TEXT: &[&str] = &[
    "t",
    "quote\"d",
    "back\\slash",
    "new\nline",
    "tab\tcr\r",
    "ctl\u{1}\u{1f}\u{7f}",
    "é 日本 🦀",
    "",
];

/// The attributes a table may have: coordinates first, in this order.
const COORDS: [&str; 3] = ["x", "y", "z"];
const SCALARS: [&str; 2] = ["wp", "p\"\n✓"];

fn text() -> impl Strategy<Value = String> {
    sample::select(TEXT.to_vec()).prop_map(str::to_string)
}

/// A bound: mostly finite, sometimes infinite, NaN, subnormal or any bit
/// pattern at all.
fn bound() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -100.0..100.0,
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(f64::NAN),
        1 => Just(f64::MIN_POSITIVE / 8.0),
        1 => Just(-5e-324),
        1 => any::<f64>(),
    ]
}

/// A box over the attributes whose bit is set in `mask`: `[lo, hi]` in
/// order when both are finite, as drawn otherwise.
fn bbox(bounds: &[f64], mask: u8, attrs: &[&str]) -> BoundingBox {
    let mut b = BoundingBox::unbounded();
    for (k, name) in attrs.iter().enumerate() {
        if mask & (1 << k) != 0 {
            let (lo, hi) = (bounds[2 * k], bounds[2 * k + 1]);
            let iv = if lo.is_finite() && hi.is_finite() {
                Interval::new(lo.min(hi), lo.max(hi))
            } else {
                Interval::new(lo, hi)
            };
            b.set(*name, iv);
        }
    }
    b
}

/// One chunk's fields but its ids: `(node, file, (offset, len, records),
/// checksum, bounds, mask)`.
type ChunkDraw = (u32, String, (u64, u64, u64), Option<u32>, Vec<f64>, u8);

/// A chunk number a catalog carries exactly, its top value included.
fn exact() -> impl Strategy<Value = u64> {
    prop_oneof![0..=MAX_SAFE_INTEGER, Just(MAX_SAFE_INTEGER)]
}

fn chunk() -> impl Strategy<Value = ChunkDraw> {
    (
        any::<u32>(),
        text(),
        (exact(), exact(), exact()),
        prop_oneof![Just(None), any::<u32>().prop_map(Some)],
        proptest::collection::vec(bound(), 10..11),
        any::<u8>(),
    )
}

/// `(name, coordinates, scalars, chunks)`.
type TableDraw = (String, usize, usize, Vec<ChunkDraw>);

fn table() -> impl Strategy<Value = TableDraw> {
    (
        text(),
        1usize..4,
        0usize..3,
        proptest::collection::vec(chunk(), 0..301),
    )
}

/// `(left, right, attrs, pairs)`.
type IndexDraw = (u32, u32, Vec<String>, Vec<(u32, u32, u32, u32)>);

fn join_index() -> impl Strategy<Value = IndexDraw> {
    (
        0u32..4,
        0u32..4,
        proptest::collection::vec(text(), 1..3),
        proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            0..20,
        ),
    )
}

/// Attribute names of a drawn table, coordinates first.
fn attrs_of(coords: usize, scalars: usize) -> Vec<&'static str> {
    COORDS[..coords]
        .iter()
        .chain(&SCALARS[..scalars])
        .copied()
        .collect()
}

/// A registered table's id, attributes and chunk boxes.
type Registered = (TableId, Vec<&'static str>, Vec<BoundingBox>);

/// Register the drawn catalog.
fn build(
    tables: &[TableDraw],
    indices: &[IndexDraw],
    layouts: &[(String, String)],
) -> (MetadataService, Vec<Registered>) {
    let svc = MetadataService::new();
    let mut out = Vec::new();
    for (i, (name, coords, scalars, chunks)) in tables.iter().enumerate() {
        let schema = Schema::grid(&COORDS[..*coords], &SCALARS[..*scalars]).unwrap();
        // Names must be unique; the suffix keeps them so.
        let id = svc
            .register_table(format!("{name}{i}"), Arc::new(schema))
            .unwrap();
        let attrs = attrs_of(*coords, *scalars);
        let metas: Vec<ChunkMeta> = chunks
            .iter()
            .enumerate()
            .map(
                |(c, (node, file, (offset, len, records), checksum, bounds, mask))| ChunkMeta {
                    table: id,
                    chunk: ChunkId(c as u32),
                    node: NodeId(*node),
                    location: ChunkLocation {
                        file: file.clone(),
                        offset: *offset,
                        len: *len,
                    },
                    attributes: attrs.iter().map(|a| a.to_string()).collect(),
                    extractors: vec![format!("{file}_layout")],
                    bbox: bbox(bounds, *mask, &attrs),
                    num_records: *records,
                    checksum: *checksum,
                },
            )
            .collect();
        let boxes = metas.iter().map(|m| m.bbox.clone()).collect();
        svc.register_chunks(id, metas).unwrap();
        out.push((id, attrs, boxes));
    }
    for (left, right, attrs, pairs) in indices {
        let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let pairs = pairs
            .iter()
            .map(|&(lt, lc, rt, rc)| (SubTableId::new(lt, lc), SubTableId::new(rt, rc)))
            .collect();
        svc.put_join_index(TableId(*left), TableId(*right), &attrs, pairs);
    }
    for (name, source) in layouts {
        svc.register_layout(name.clone(), source.clone(), vec!["x".into()]);
    }
    (svc, out)
}

/// A file of this process's own under the system temp directory.
fn scratch_file() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "orv_prop_catalog_{}_{}.json",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn save(svc: &MetadataService) -> String {
    let path = scratch_file();
    svc.save_json(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    text
}

fn load(text: &str) -> MetadataService {
    let path = scratch_file();
    std::fs::write(&path, text).unwrap();
    let svc = MetadataService::load_json(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    svc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn catalog_round_trip(
        tables in proptest::collection::vec(table(), 0..4),
        indices in proptest::collection::vec(join_index(), 0..3),
        layouts in proptest::collection::vec((text(), text()), 0..3),
        queries in proptest::collection::vec(
            (proptest::collection::vec(bound(), 10..11), any::<u8>()),
            1..6,
        ),
    ) {
        let (svc, drawn) = build(&tables, &indices, &layouts);
        let first = save(&svc);
        let payload = first.split_once('\n').unwrap().1.trim_end();
        prop_assert_eq!(JsonValue::parse(payload).unwrap().to_string(), payload);

        let loaded = load(&first);
        prop_assert_eq!(save(&loaded), first);
        for (t, (_, _, _, chunks)) in tables.iter().enumerate() {
            for (c, (_, _, (offset, len, records), _, _, _)) in chunks.iter().enumerate() {
                let meta = loaded.chunk_meta(SubTableId::new(t as u32, c as u32)).unwrap();
                prop_assert_eq!(
                    (meta.location.offset, meta.location.len, meta.num_records),
                    (*offset, *len, *records)
                );
            }
        }

        for (id, attrs, boxes) in &drawn {
            for (bounds, mask) in &queries {
                let range = bbox(bounds, *mask, attrs);
                let expected: Vec<ChunkId> = (0..boxes.len())
                    .filter(|&c| boxes[c].overlaps(&range))
                    .map(|c| ChunkId(c as u32))
                    .collect();
                prop_assert_eq!(&svc.find_chunks(*id, &range).unwrap(), &expected);
                prop_assert_eq!(&loaded.find_chunks(*id, &range).unwrap(), &expected);
            }
        }
    }
}
