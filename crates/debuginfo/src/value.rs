//! Typed runtime values, as exchanged over data links and printed by the
//! debugger.
//!
//! A [`Value`] couples raw payload words with a [`TypeId`]; rendering is the
//! debugger's job (`print`, `iface ... print`, `filter print last_token`),
//! which is why formatting helpers live here next to the type table instead
//! of being scattered across the CLI.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::types::{TypeDef, TypeId, TypeTable};
use crate::Word;

/// A short run of plain values as plain data: none, one inline, or a
/// shared slice. Copying one never allocates (a shared slice copies a
/// pointer), so token records, and the chunks of the token store that
/// hold them, copy and drop without touching the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InlineSlice<T> {
    Empty,
    One(T),
    Shared(Arc<[T]>),
}

impl<T: Copy> InlineSlice<T> {
    pub fn from_slice(s: &[T]) -> Self {
        match s {
            [] => InlineSlice::Empty,
            [x] => InlineSlice::One(*x),
            _ => InlineSlice::Shared(s.into()),
        }
    }
}

impl<T> Deref for InlineSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            InlineSlice::Empty => &[],
            InlineSlice::One(x) => std::slice::from_ref(x),
            InlineSlice::Shared(s) => s,
        }
    }
}

impl<T: Copy> From<Vec<T>> for InlineSlice<T> {
    fn from(v: Vec<T>) -> Self {
        InlineSlice::from_slice(&v)
    }
}

/// A typed value: one or more payload words plus the type used to interpret
/// them. Scalar values hold exactly one word; record values hold one word
/// per field, in field order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Value {
    pub ty: TypeId,
    pub words: Vec<Word>,
}

impl Value {
    pub fn scalar(ty: TypeId, w: Word) -> Value {
        Value { ty, words: vec![w] }
    }

    /// Convenience for unsigned 32-bit values, the lingua franca of the
    /// paper's examples.
    pub fn u32(w: Word) -> Value {
        Value::scalar(TypeTable::U32, w)
    }

    pub fn record(ty: TypeId, words: Vec<Word>) -> Value {
        Value { ty, words }
    }

    /// First payload word — the whole value for scalars, the first field
    /// for records. Used by conditional catchpoints comparing token content.
    pub fn head_word(&self) -> Word {
        self.words.first().copied().unwrap_or(0)
    }

    /// Read the field named `field`, if this is a record with such a field.
    pub fn field(&self, types: &TypeTable, field: &str) -> Option<Word> {
        let f = types.field(self.ty, field)?;
        self.words.get(f.word_offset as usize).copied()
    }

    /// Compact rendering used in token listings: `(U16) 5` or
    /// `(CbCrMB_t) {Addr=0x145D, ...}` — the shapes the paper's transcripts
    /// show in §VI-D.
    pub fn render_short(&self, types: &TypeTable) -> String {
        match types.get(self.ty) {
            TypeDef::Scalar(s) => {
                format!("({}) {}", s.name(), s.render(self.head_word()))
            }
            TypeDef::Struct { name, fields } => {
                let head = fields
                    .first()
                    .map(|f| {
                        format!(
                            "{}=0x{:X}",
                            f.name,
                            self.words.get(f.word_offset as usize).copied().unwrap_or(0)
                        )
                    })
                    .unwrap_or_default();
                format!("({name}) {{{head},...}}")
            }
        }
    }

    /// Full rendering used by the low-level `print` command: every field on
    /// its own `name = value` entry, mirroring GDB's struct printer (§VI-E).
    pub fn render_full(&self, types: &TypeTable) -> String {
        match types.get(self.ty) {
            TypeDef::Scalar(s) => s.render(self.head_word()),
            TypeDef::Struct { fields, .. } => {
                let mut out = String::from("{ ");
                for (i, f) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n  ");
                    }
                    let w = self.words.get(f.word_offset as usize).copied().unwrap_or(0);
                    let rendered = match types.as_scalar(f.ty) {
                        Some(s) if f.name == "Addr" => {
                            // Addresses print hexadecimal, like GDB pointer
                            // fields; scalar masking still applies.
                            format!("0x{:X}", s.truncate(w))
                        }
                        Some(s) => s.render(w),
                        None => format!("0x{w:X}"),
                    };
                    out.push_str(&format!("{} = {}", f.name, rendered));
                }
                out.push_str(" }");
                out
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.words.len() == 1 {
            write!(f, "{}", self.words[0])
        } else {
            write!(f, "{:?}", self.words)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with_mb() -> (TypeTable, TypeId) {
        let mut t = TypeTable::new();
        let id = t.declare_struct(
            "CbCrMB_t",
            &[
                ("Addr".into(), TypeTable::U32),
                ("InterNotIntra".into(), TypeTable::U8),
                ("Izz".into(), TypeTable::I32),
            ],
        );
        (t, id)
    }

    #[test]
    fn short_rendering_matches_paper_shapes() {
        let t = TypeTable::new();
        let v = Value::scalar(TypeTable::U16, 5);
        assert_eq!(v.render_short(&t), "(U16) 5");

        let (t, mb) = table_with_mb();
        let v = Value::record(mb, vec![0x145d, 1, 168_460_492]);
        assert_eq!(v.render_short(&t), "(CbCrMB_t) {Addr=0x145D,...}");
    }

    #[test]
    fn full_rendering_expands_fields() {
        let (t, mb) = table_with_mb();
        let v = Value::record(mb, vec![0x145d, 1, 168_460_492]);
        let full = v.render_full(&t);
        assert!(full.contains("Addr = 0x145D"), "{full}");
        assert!(full.contains("InterNotIntra = 1"), "{full}");
        assert!(full.contains("Izz = 168460492"), "{full}");
    }

    #[test]
    fn field_access() {
        let (t, mb) = table_with_mb();
        let v = Value::record(mb, vec![7, 1, 9]);
        assert_eq!(v.field(&t, "Izz"), Some(9));
        assert_eq!(v.field(&t, "nope"), None);
    }

    #[test]
    fn narrow_fields_are_masked_on_render() {
        let (t, mb) = table_with_mb();
        let v = Value::record(mb, vec![0, 0x1ff, 0]);
        assert!(v.render_full(&t).contains("InterNotIntra = 255"));
    }
}
