//! DWARF-like debug information for the P2012 toolchain.
//!
//! The paper's debugger relies *only* on "standard DWARF debug structures"
//! (§V) to locate framework functions, parse their arguments and map machine
//! addresses back to source lines. This crate models the subset of DWARF that
//! the debugger actually consumes:
//!
//! * a **type table** ([`types::TypeTable`]) describing scalar token types
//!   (`U8`, `U16`, `U32`, `I32`) and record types such as the case study's
//!   `CbCrMB_t`;
//! * a **symbol table** ([`symbols::SymbolTable`]) mapping mangled function
//!   and object names to code/data addresses, including formal-parameter
//!   descriptors used by *function breakpoints* to decode call arguments;
//! * a **line table** ([`lines::LineTable`]) mapping code addresses to
//!   `file:line` pairs (and back) for source-level breakpoints, stepping and
//!   the `list` command;
//! * the platform's **name mangling** scheme ([`mangle`]), reproducing the
//!   shapes quoted in §VI-F (`IpfFilter_work_function`,
//!   `_component_PredModule_anon_0_work`).
//!
//! All tables are immutable once built; producers (the kernel compiler and
//! the ADL elaborator) assemble them through [`DebugInfoBuilder`].

pub mod finding;
pub mod lines;
pub mod mangle;
pub mod registry;
pub mod symbols;
pub mod types;
pub mod value;

pub use finding::{
    render_findings, render_findings_json, sort_and_dedup_findings, Finding, Severity, Span,
    FINDINGS_SCHEMA_VERSION,
};
pub use lines::{FileId, LineEntry, LineTable, SourceFile};
pub use symbols::{ParamInfo, Symbol, SymbolId, SymbolKind, SymbolTable};
pub use types::{ScalarType, TypeDef, TypeId, TypeTable};
pub use value::{InlineSlice, Value};

/// Machine word of the simulated platform. All registers, stack slots and
/// token payload cells are 32-bit words; narrower scalar types are stored
/// zero-extended and masked on store.
pub type Word = u32;

/// Code address inside a program image (an index into its instruction
/// stream). Kept distinct from data addresses, which live in the simulated
/// memory hierarchy.
pub type CodeAddr = u32;

/// Aggregated debug information for one compiled program image.
///
/// One `DebugInfo` instance describes everything loaded onto the platform:
/// application kernels, controller programs and the PEDF runtime stubs share
/// a single address space per image, exactly as the paper's monolithic
/// simulator binary does.
#[derive(Debug, Clone, Default)]
pub struct DebugInfo {
    pub types: TypeTable,
    pub symbols: SymbolTable,
    pub lines: LineTable,
}

impl DebugInfo {
    /// Look up the function symbol covering `addr`, if any.
    pub fn function_at(&self, addr: CodeAddr) -> Option<&Symbol> {
        self.symbols.function_covering(addr)
    }

    /// Render a source location for `addr` as `file:line`, falling back to a
    /// bare hex address when no line information exists (e.g. runtime stubs).
    pub fn describe_addr(&self, addr: CodeAddr) -> String {
        match self.lines.lookup(addr) {
            Some(entry) => {
                let file = self.lines.file_name(entry.file);
                format!("{file}:{line}", line = entry.line)
            }
            None => format!("0x{addr:04x}"),
        }
    }
}

/// Incremental builder used by the compiler and elaborator.
///
/// The builder keeps the invariants the debugger relies on: symbols are
/// non-overlapping per kind, and the line table is sorted by address.
#[derive(Debug, Default)]
pub struct DebugInfoBuilder {
    info: DebugInfo,
}

impl DebugInfoBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn types_mut(&mut self) -> &mut TypeTable {
        &mut self.info.types
    }

    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.info.symbols
    }

    pub fn lines_mut(&mut self) -> &mut LineTable {
        &mut self.info.lines
    }

    /// Finish construction, sorting the line table and freezing the result.
    pub fn finish(mut self) -> DebugInfo {
        self.info.lines.seal();
        self.info
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_addr_prefers_line_info() {
        let mut b = DebugInfoBuilder::new();
        let f = b.lines_mut().add_file("the_source.c", "int x;\n");
        b.lines_mut().add_entry(LineEntry {
            addr: 10,
            file: f,
            line: 1,
            is_stmt: true,
        });
        let info = b.finish();
        assert_eq!(info.describe_addr(10), "the_source.c:1");
        assert_eq!(info.describe_addr(9), "0x0009");
    }
}
