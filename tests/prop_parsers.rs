//! Property tests: every parser that reads text from outside the program
//! is **total** — a mutated valid input yields a value or a typed error,
//! never a panic.
//!
//! The chunk, layout and bucket *decoders* have their own totality tests
//! (`crates/layout/tests/prop_roundtrip.rs`, `grace::tests::decode_props`);
//! these cover the four text front-ends: the SQL parser, the layout
//! description parser (through `compile` to `row_count`/`decode`), the
//! JSON parser and the `ORVCAT1` catalog loader. Mutations are the ones
//! hostile or damaged input is made of: deletions, truncation, spliced
//! grammar keywords, integers that overflow every width, NUL and
//! multi-byte characters.

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::cluster::crc32c;
use orv::layout::{parse_layout, CompiledLayout};
use orv::metadata::MetadataService;
use orv::obs::JsonValue;
use orv::query::parse_statement;
use proptest::prelude::*;

/// Tokens no grammar here is safe from by construction.
const HOSTILE: &[&str] = &[
    "99999999999999999999999999999999",
    "18446744073709551615",
    "-9223372036854775809",
    "4294967296",
    "1e999",
    "-0",
    "\0",
    "é",
    "日本",
    "🦀",
    "\u{feff}",
    "\"",
    "\\",
    "\n",
    " ",
];

/// One edit: `(kind, position, length, token pick)`, all taken modulo
/// whatever the text and dictionary currently offer.
type Edit = (u8, usize, usize, usize);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((0u8..5, any::<usize>(), 0usize..24, any::<usize>()), 1..6)
}

/// Apply `edits` to `seed`, char-wise (so the result is always a `String`
/// and multi-byte tokens land whole).
fn mutate(seed: &str, keywords: &[&str], edits: &[Edit]) -> String {
    let mut text: Vec<char> = seed.chars().collect();
    for &(kind, at, len, pick) in edits {
        let at = at % (text.len() + 1);
        let end = (at + len).min(text.len());
        match kind {
            0 => drop(text.drain(at..end)),
            1 => text.truncate(at),
            2 => {
                let word = keywords[pick % keywords.len()];
                text.splice(at..at, format!(" {word} ").chars());
            }
            3 => {
                let word = HOSTILE[pick % HOSTILE.len()];
                text.splice(at..end, word.chars());
            }
            _ => {
                let copy: Vec<char> = text[at..end].to_vec();
                text.splice(at..at, copy);
            }
        }
    }
    text.into_iter().collect()
}

const SQL_SEEDS: &[&str] = &[
    "SELECT * FROM t1",
    "SELECT x, y, oilp FROM t1 WHERE x IN [0, 3] AND y BETWEEN 2 AND 5",
    "SELECT z, COUNT(*), MIN(oilp), MAX(oilp), AVG(oilp) FROM t1 WHERE oilp >= 0.25 GROUP BY z",
    "SELECT oilp FROM t1 WHERE y <= 5 ORDER BY oilp DESC LIMIT 7",
    "CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z) WHERE x < 4",
];

const SQL_KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "IN", "BETWEEN", "GROUP", "BY", "ORDER", "DESC", "ASC",
    "LIMIT", "CREATE", "VIEW", "AS", "JOIN", "ON", "COUNT", "SUM", "AVG", "MIN", "MAX", "*", "(",
    ")", "[", "]", ",", "<=", ">=", "=",
];

const LAYOUT_SEEDS: &[&str] = &[
    "layout t { field x: i32; field y: i32; field wp: f32; }",
    "layout big {\n  endian big;\n  order column_major;\n  header 24;\n  field x: i64;\n  pad 3;\n  field wp: f64;\n}",
    "layout one { header 0; pad 1; field a: f32; pad 7; }",
];

const LAYOUT_KEYWORDS: &[&str] = &[
    "layout",
    "endian",
    "little",
    "big",
    "order",
    "row_major",
    "column_major",
    "header",
    "field",
    "pad",
    "i32",
    "i64",
    "f32",
    "f64",
    "{",
    "}",
    ":",
    ";",
];

const JSON_SEEDS: &[&str] = &[
    r#"{"version":1,"tables":[{"name":"t1","chunks":[{"chunk":0,"node":1,"bbox":[[0,3.5],[-1e3,"inf"]]}]}],"ok":true,"none":null}"#,
    r#"[1,-2.5,1e3,"aA\n\"q\"",[],{},[[["deep"]]],false]"#,
    r#"{"ключ":"é","日本語":"a🦀b"}"#,
];

const JSON_KEYWORDS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "null", "true", "false", "\"", "\\u00", "\\", "1e", "-", ".",
    "[[[[[[[[", "{\"a\":",
];

/// The payload line of a saved catalog: real schema, chunk and layout
/// records, as `save_json` writes them.
fn catalog_payload() -> String {
    let d = Deployment::in_memory(2);
    generate_dataset(
        &DatasetSpec::builder("t1")
            .grid([4, 4, 1])
            .partition([2, 2, 1])
            .scalar_attrs(&["oilp"])
            .seed(1)
            .build(),
        &d,
    )
    .unwrap();
    let path = scratch_file("seed");
    d.metadata().save_json(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let (header, payload) = text.split_once('\n').unwrap();
    assert!(header.starts_with("ORVCAT1 "), "{header}");
    payload.trim_end().to_string()
}

/// A file of this process's own under the system temp directory.
fn scratch_file(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "orv_prop_parsers_{}_{}_{tag}.json",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sql_parser_is_total(seed in 0usize..SQL_SEEDS.len(), edits in edits()) {
        let text = mutate(SQL_SEEDS[seed], SQL_KEYWORDS, &edits);
        let _ = parse_statement(&text);
    }

    /// A description that parses must compile or fail typed; a layout that
    /// compiles must size and decode any buffer — however absurd its
    /// header, padding or stride — without panicking or allocating for
    /// rows the buffer cannot hold.
    #[test]
    fn layout_description_to_decode_is_total(
        seed in 0usize..LAYOUT_SEEDS.len(),
        edits in edits(),
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let text = mutate(LAYOUT_SEEDS[seed], LAYOUT_KEYWORDS, &edits);
        let compiled = parse_layout(&text).and_then(|desc| CompiledLayout::compile(&desc));
        if let Ok(layout) = compiled {
            for len in [0, bytes.len(), 1 << 20, usize::MAX] {
                let _ = layout.row_count(len);
            }
            if let Ok(cols) = layout.decode(&bytes) {
                let rows = layout.row_count(bytes.len()).unwrap();
                for col in &cols {
                    prop_assert_eq!(col.len(), rows);
                }
            }
        }
    }

    #[test]
    fn json_parser_is_total(seed in 0usize..JSON_SEEDS.len(), edits in edits()) {
        let text = mutate(JSON_SEEDS[seed], JSON_KEYWORDS, &edits);
        if let Ok(v) = JsonValue::parse(&text) {
            // What parses, the writer can print and the parser read back.
            prop_assert_eq!(JsonValue::parse(&v.to_string()).unwrap(), v);
        }
    }
}

/// Cases for the catalog loader: `PROPTEST_CASES` if set (CI runs 4 096),
/// else 256.
fn catalog_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(catalog_cases()))]

    /// The payload is mutated and the header's CRC recomputed over it, so
    /// the checksum passes and the loader's own validation — JSON shape,
    /// field types, ids, bounding boxes, layout sources — is what stands
    /// between the damage and the catalog.
    #[test]
    fn catalog_loader_is_total_behind_a_valid_checksum(edits in edits()) {
        static PAYLOAD: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        let payload = mutate(PAYLOAD.get_or_init(catalog_payload), JSON_KEYWORDS, &edits);
        let payload = payload.trim_end();
        let path = scratch_file("case");
        std::fs::write(
            &path,
            format!("ORVCAT1 {:08x}\n{payload}\n", crc32c(payload.as_bytes())),
        )
        .unwrap();
        let loaded = MetadataService::load_json(&path);
        std::fs::remove_file(&path).unwrap();
        if let Err(e) = loaded {
            prop_assert!(
                !matches!(e, orv::types::Error::Integrity(_)),
                "the recomputed checksum must pass, so the loader is exercised: {e}"
            );
        }
    }
}
