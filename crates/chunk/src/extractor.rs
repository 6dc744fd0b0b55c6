//! Extractor functions: raw chunk bytes → sub-tables.
//!
//! An extractor "reads a file segment (also called a chunk) and generates a
//! set of objects or a set of tuples (i.e., an object-relational
//! sub-table)". Extractors can be hand-written (implement [`Extractor`]) or
//! generated from a layout description ([`LayoutExtractor`]); the
//! [`ExtractorRegistry`] resolves the extractor names recorded in chunk
//! metadata.

use crate::subtable::SubTable;
use orv_layout::{CompiledLayout, LayoutDesc};
use orv_types::{Attribute, ColumnBatch, Error, Result, Schema, SubTableId};
use std::collections::HashMap;
use std::sync::Arc;

/// Maps chunk bytes to a sub-table: application-format bytes in, typed
/// columns out, with no intermediate row or `Value` form.
pub trait Extractor: Send + Sync {
    /// This extractor's registered name.
    fn name(&self) -> &str;

    /// The schema of sub-tables this extractor produces.
    fn schema(&self) -> &Arc<Schema>;

    /// Parse `bytes` into the sub-table identified by `id`.
    fn extract(&self, id: SubTableId, bytes: &[u8]) -> Result<SubTable>;
}

/// An extractor generated from a layout description.
///
/// Attribute roles are not part of the on-disk layout; the caller names the
/// coordinate attributes when generating the extractor (everything else is a
/// scalar).
pub struct LayoutExtractor {
    layout: CompiledLayout,
    schema: Arc<Schema>,
}

impl LayoutExtractor {
    /// Generate from a layout description; `coords` names the coordinate
    /// attributes (must all exist in the layout).
    pub fn generate(desc: &LayoutDesc, coords: &[&str]) -> Result<Self> {
        let layout = CompiledLayout::compile(desc)?;
        for c in coords {
            if !layout.fields().iter().any(|(n, _)| n == c) {
                return Err(Error::Schema(format!(
                    "coordinate `{c}` is not a field of layout `{}`",
                    layout.name()
                )));
            }
        }
        let attrs = layout
            .fields()
            .iter()
            .map(|(n, t)| {
                if coords.contains(n) {
                    Attribute {
                        name: (*n).to_string(),
                        dtype: *t,
                        role: orv_types::AttrRole::Coordinate,
                    }
                } else {
                    Attribute::scalar(*n, *t)
                }
            })
            .collect();
        Ok(LayoutExtractor {
            schema: Arc::new(Schema::new(attrs)?),
            layout,
        })
    }

    /// The compiled layout (also usable to *write* chunks in this format).
    pub fn layout(&self) -> &CompiledLayout {
        &self.layout
    }
}

impl Extractor for LayoutExtractor {
    fn name(&self) -> &str {
        self.layout.name()
    }

    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn extract(&self, id: SubTableId, bytes: &[u8]) -> Result<SubTable> {
        // The layout decodes each field into an array of its declared
        // type; `SubTable::new` checks that type once per column.
        let batch = ColumnBatch::from_columns(self.layout.decode(bytes)?)?;
        SubTable::new(id, Arc::clone(&self.schema), batch)
    }
}

/// Name → extractor lookup, shared by BDS instances.
#[derive(Default)]
pub struct ExtractorRegistry {
    by_name: HashMap<String, Arc<dyn Extractor>>,
}

impl ExtractorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an extractor under its own name. Re-registering a name
    /// replaces the previous extractor.
    pub fn register(&mut self, extractor: Arc<dyn Extractor>) {
        self.by_name.insert(extractor.name().to_string(), extractor);
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Result<Arc<dyn Extractor>> {
        self.by_name
            .get(name)
            .cloned()
            .ok_or_else(|| Error::not_found(format!("extractor `{name}`")))
    }

    /// First registered extractor among `names` — resolves a chunk's
    /// extractor preference list.
    pub fn resolve(&self, names: &[String]) -> Result<Arc<dyn Extractor>> {
        names
            .iter()
            .find_map(|n| self.by_name.get(n).cloned())
            .ok_or_else(|| Error::not_found(format!("any extractor among {names:?}")))
    }

    /// Number of registered extractors.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// True if no extractors registered.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_layout::parse_layout;
    use orv_types::{AttrRole, Value};

    fn extractor() -> LayoutExtractor {
        let desc =
            parse_layout("layout res_v1 { header 4; field x: i32; field y: i32; field wp: f32; }")
                .unwrap();
        LayoutExtractor::generate(&desc, &["x", "y"]).unwrap()
    }

    #[test]
    fn generated_schema_has_roles() {
        let e = extractor();
        let s = e.schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.attrs()[0].role, AttrRole::Coordinate);
        assert_eq!(s.attrs()[2].role, AttrRole::Scalar);
        assert_eq!(s.coordinate_indices(), vec![0, 1]);
    }

    #[test]
    fn unknown_coordinate_rejected() {
        let desc = parse_layout("layout t { field x: i32; }").unwrap();
        assert!(LayoutExtractor::generate(&desc, &["q"]).is_err());
    }

    #[test]
    fn extract_produces_subtable_with_bbox() {
        let e = extractor();
        let cols = vec![
            vec![Value::I32(0), Value::I32(4)],
            vec![Value::I32(1), Value::I32(5)],
            vec![Value::F32(0.25), Value::F32(0.75)],
        ];
        let bytes = e.layout().encode(&cols).unwrap();
        let st = e.extract(SubTableId::new(0u32, 7u32), &bytes).unwrap();
        assert_eq!(st.num_rows(), 2);
        assert_eq!(st.bbox().get("x"), orv_types::Interval::new(0.0, 4.0));
        assert_eq!(st.id(), SubTableId::new(0u32, 7u32));
    }

    #[test]
    fn extract_rejects_malformed_bytes() {
        let e = extractor();
        // 4-byte header + 5 bytes is not a whole number of 12-byte records.
        assert!(e.extract(SubTableId::new(0u32, 0u32), &[0u8; 9]).is_err());
    }

    #[test]
    fn registry_resolution() {
        let mut reg = ExtractorRegistry::new();
        assert!(reg.is_empty());
        reg.register(Arc::new(extractor()));
        assert_eq!(reg.len(), 1);
        assert!(reg.get("res_v1").is_ok());
        assert!(reg.get("other").is_err());
        let resolved = reg
            .resolve(&["missing".to_string(), "res_v1".to_string()])
            .unwrap();
        assert_eq!(resolved.name(), "res_v1");
        assert!(reg.resolve(&["nope".to_string()]).is_err());
    }
}
