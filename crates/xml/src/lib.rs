//! # pimento-xml
//!
//! XML substrate for the PIMENTO personalized XML search reproduction
//! (Amer-Yahia, Fundulaki, Lakshmanan — ICDE 2007).
//!
//! The paper assumes an XML store with region-labeled element trees on top
//! of which tree-pattern queries are evaluated via structural joins. This
//! crate provides that store:
//!
//! * a hand-rolled [`lexer`] and [`parser`] (no external XML dependency),
//! * an arena [`tree`] with `(start, end, level)` region labels assigned in
//!   document order, making ancestor/descendant tests O(1),
//! * entity [`escape`] handling, [`writer`] serialization, and [`nav`]
//!   axis helpers.
//!
//! ```
//! use pimento_xml::{parse_with, SymbolTable};
//!
//! let mut symbols = SymbolTable::new();
//! let doc = parse_with("<car><price>500</price></car>", &mut symbols).unwrap();
//! let price = symbols.get("price").unwrap();
//! let p = doc.child_element(doc.root(), price).unwrap();
//! assert_eq!(doc.text_content(p), "500");
//! assert_eq!(doc.node(p).parent, Some(doc.root()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod escape;
pub mod lexer;
pub mod nav;
pub mod parser;
pub mod tree;
pub mod writer;

pub use error::{Pos, Result, XmlError};
pub use parser::{parse_content, parse_with};
pub use tree::{Document, Node, NodeId, NodeKind, SymbolId, SymbolTable};
pub use writer::{subtree_to_string, to_string};
