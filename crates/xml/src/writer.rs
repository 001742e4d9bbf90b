//! Serialization of a [`Document`] back to XML text.

use crate::escape::{escape_attr, escape_text};
use crate::tree::{Document, NodeId, NodeKind, SymbolTable};
use std::fmt::Write as _;

/// Serialize the whole document (no XML declaration, no pretty-printing —
/// the output is byte-faithful to the parsed content modulo dropped
/// whitespace-only text nodes).
pub fn to_string(doc: &Document, symbols: &SymbolTable) -> String {
    let mut out = String::with_capacity(doc.len() * 16);
    write_node(doc, symbols, doc.root(), &mut out);
    out
}

/// Serialize the subtree rooted at `id`.
pub fn subtree_to_string(doc: &Document, symbols: &SymbolTable, id: NodeId) -> String {
    let mut out = String::new();
    write_node(doc, symbols, id, &mut out);
    out
}

fn write_node(doc: &Document, symbols: &SymbolTable, id: NodeId, out: &mut String) {
    let n = doc.node(id);
    match &n.kind {
        NodeKind::Element { tag, attrs } => {
            let name = symbols.name(*tag);
            out.push('<');
            out.push_str(name);
            for (a, v) in attrs.iter() {
                let _ = write!(out, " {}=\"{}\"", symbols.name(*a), escape_attr(v));
            }
            if n.children.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                for &c in &n.children {
                    write_node(doc, symbols, c, out);
                }
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            }
        }
        NodeKind::Text(t) => out.push_str(&escape_text(t)),
        NodeKind::Comment(c) => {
            out.push_str("<!--");
            out.push_str(c);
            out.push_str("-->");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_with;

    fn roundtrip(s: &str) -> String {
        let mut st = SymbolTable::new();
        let doc = parse_with(s, &mut st).unwrap();
        to_string(&doc, &st)
    }

    #[test]
    fn roundtrips_simple_document() {
        let src = r#"<car color="red"><price>500</price><note>good &amp; cheap</note></car>"#;
        assert_eq!(roundtrip(src), src);
    }

    #[test]
    fn self_closing_for_empty_elements() {
        assert_eq!(roundtrip("<a><b></b></a>"), "<a><b/></a>");
    }

    #[test]
    fn comments_preserved() {
        assert_eq!(roundtrip("<a><!--hi--></a>"), "<a><!--hi--></a>");
    }

    #[test]
    fn subtree_serialization() {
        let mut st = SymbolTable::new();
        let doc = parse_with("<a><b>x</b><c/></a>", &mut st).unwrap();
        let b = doc.node(doc.root()).children[0];
        assert_eq!(subtree_to_string(&doc, &st, b), "<b>x</b>");
    }

    #[test]
    fn double_roundtrip_is_fixed_point() {
        let src = r#"<a q="1 &lt; 2"><b>mixed &amp; <c/> text</b></a>"#;
        let once = roundtrip(src);
        let twice = roundtrip(&once);
        assert_eq!(once, twice);
    }
}
