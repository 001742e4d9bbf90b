//! Typed field access: resolving `x.attr` references from ordering rules and
//! constraint predicates against an element.
//!
//! The paper's car example treats `color`, `mileage`, `horsepower` (hp),
//! `price` interchangeably as XML attributes or child elements (Fig. 1 has
//! them as child elements; the rules in Fig. 2 write `x.color`). The
//! resolver therefore looks at an XML attribute first, then falls back to
//! the text content of the first child element of that name.

use crate::store::{Collection, ElemRef};
use crate::tags::{ElemEntry, TagIndex};
use pimento_xml::nav::children_with_tag;
use pimento_xml::SymbolId;

/// A typed value extracted from a document.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Numeric content (integers and decimals both normalize to `f64`).
    Num(f64),
    /// Everything else, trimmed.
    Str(String),
}

impl FieldValue {
    /// Parse raw text into the most specific type.
    pub fn parse(raw: &str) -> FieldValue {
        let t = raw.trim();
        // Strip common numeric formatting ("50.000" in the paper's figure is
        // a thousands-formatted 50000; "$500" has a currency marker).
        let cleaned: String = t
            .chars()
            .filter(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if !cleaned.is_empty()
            && t.chars()
                .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | ',' | '$' | ' ' | '%'))
        {
            // Dot disambiguation: several dots are always thousands
            // separators; a single dot followed by exactly three digits
            // after two or more leading digits reads as European thousands
            // formatting ("50.000" in the paper's Fig. 1 is 50000 miles),
            // anything else as a decimal point ("3.5").
            let dots = cleaned.matches('.').count();
            let thousands = dots > 1
                || matches!(cleaned.split_once('.'),
                    Some((head, tail)) if tail.len() == 3 && head.trim_start_matches('-').len() >= 2);
            let normalized = if thousands {
                cleaned.replace('.', "")
            } else {
                cleaned
            };
            if let Ok(n) = normalized.parse::<f64>() {
                return FieldValue::Num(n);
            }
        }
        FieldValue::Str(t.to_string())
    }

    /// Numeric view, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            FieldValue::Num(n) => Some(*n),
            FieldValue::Str(_) => None,
        }
    }

    /// String view (numbers render with minimal formatting).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            FieldValue::Num(_) => None,
        }
    }

    /// Case-insensitive equality against a constant.
    pub fn eq_const(&self, c: &str) -> bool {
        match self {
            FieldValue::Num(n) => c.trim().parse::<f64>().map(|x| x == *n).unwrap_or(false),
            FieldValue::Str(s) => s.eq_ignore_ascii_case(c.trim()),
        }
    }
}

/// Resolve `elem.field` to a typed value: XML attribute first, then the
/// first child element of that name, then the first *descendant* element
/// (real-world schemas nest fields — XMark keeps `age` inside
/// `person/profile`, while the rules say `x.age`).
pub fn field_value(coll: &Collection, elem: ElemRef, field: &str) -> Option<FieldValue> {
    coll.symbols()
        .get(field)
        .and_then(|sym| field_value_sym(coll, elem, sym))
}

/// [`field_value`] with the field name already resolved to an interned
/// symbol — the hot-path form: operators resolve each attribute name to a
/// [`SymbolId`] once per plan and probe by id per answer.
pub fn field_value_sym(coll: &Collection, elem: ElemRef, sym: SymbolId) -> Option<FieldValue> {
    let doc = coll.doc(elem.doc);
    let node = doc.node(elem.node);
    if let Some(v) = node.attr(sym) {
        return Some(FieldValue::parse(v));
    }
    if let Some(child) = children_with_tag(doc, elem.node, sym).next() {
        return Some(FieldValue::parse(&doc.text_content(child)));
    }
    if let Some(desc) = doc
        .descendant_elements(elem.node)
        .into_iter()
        .find(|&n| doc.node(n).tag() == Some(sym))
    {
        return Some(FieldValue::parse(&doc.text_content(desc)));
    }
    None
}

/// [`field_value_sym`] for an indexed element, found through `tags`
/// instead of by walking `elem`'s subtree: the attribute, then the first
/// entry of `sym`'s list inside `elem` one level below it (its first such
/// child), then the first entry inside it. The list holds `elem`'s
/// descendants in document order, so the answer is the same.
pub fn field_value_indexed(
    coll: &Collection,
    tags: &TagIndex,
    elem: &ElemEntry,
    sym: SymbolId,
) -> Option<FieldValue> {
    let doc = coll.doc(elem.doc);
    if let Some(v) = doc.node(elem.node).attr(sym) {
        return Some(FieldValue::parse(v));
    }
    let inside = tags.elements_within(sym, elem.doc, elem.start, elem.end);
    let found = inside
        .iter()
        .find(|e| e.level.checked_sub(1) == Some(elem.level))
        .or(inside.first())?;
    Some(FieldValue::parse(&doc.text_content(found.node)))
}

/// Resolve `elem.field` only when it parses as a number.
pub fn numeric_field(coll: &Collection, elem: ElemRef, field: &str) -> Option<f64> {
    field_value(coll, elem, field).and_then(|v| v.as_num())
}

/// The element's own text content as a typed value — used by constraint
/// predicates like `price < 2000` where the TPQ node *is* the price element.
pub fn content_value(coll: &Collection, elem: ElemRef) -> FieldValue {
    FieldValue::parse(&coll.text_content(elem))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DocId;

    fn setup() -> (Collection, ElemRef) {
        let mut c = Collection::new();
        c.add_xml(
            r#"<car color="red"><mileage>50.000</mileage><hp>200</hp><price>$500</price><make>Honda</make></car>"#,
        )
        .unwrap();
        let root = c.doc(DocId(0)).root();
        (
            c,
            ElemRef {
                doc: DocId(0),
                node: root,
            },
        )
    }

    #[test]
    fn attribute_beats_child_element() {
        let (c, car) = setup();
        assert_eq!(
            field_value(&c, car, "color"),
            Some(FieldValue::Str("red".into()))
        );
    }

    #[test]
    fn child_element_text_resolves() {
        let (c, car) = setup();
        assert_eq!(
            field_value(&c, car, "make"),
            Some(FieldValue::Str("Honda".into()))
        );
        assert_eq!(numeric_field(&c, car, "hp"), Some(200.0));
    }

    #[test]
    fn thousands_formatting_parses() {
        let (c, car) = setup();
        assert_eq!(numeric_field(&c, car, "mileage"), Some(50_000.0));
    }

    #[test]
    fn currency_marker_parses() {
        let (c, car) = setup();
        assert_eq!(numeric_field(&c, car, "price"), Some(500.0));
    }

    #[test]
    fn missing_field_is_none() {
        let (c, car) = setup();
        assert_eq!(field_value(&c, car, "vin"), None);
        assert_eq!(numeric_field(&c, car, "make"), None);
    }

    #[test]
    fn parse_types() {
        assert_eq!(FieldValue::parse("42"), FieldValue::Num(42.0));
        assert_eq!(FieldValue::parse(" 3.5 "), FieldValue::Num(3.5));
        assert_eq!(FieldValue::parse("-7"), FieldValue::Num(-7.0));
        assert_eq!(FieldValue::parse("red"), FieldValue::Str("red".into()));
        assert_eq!(FieldValue::parse("1.2.3"), FieldValue::Num(123.0)); // thousands dots
    }

    #[test]
    fn eq_const_case_insensitive() {
        assert!(FieldValue::parse("Red").eq_const("red"));
        assert!(FieldValue::parse("500").eq_const("500"));
        assert!(!FieldValue::parse("500").eq_const("501"));
        assert!(!FieldValue::parse("red").eq_const("blue"));
    }

    /// A random element tree over a three-tag alphabet, with attributes
    /// and numeric or word text, read off a list of steps: open a tag
    /// (maybe with an attribute), close the innermost open one, or add
    /// text.
    fn tree_xml(steps: &[(u8, u32)]) -> String {
        const TAGS: [&str; 3] = ["a", "b", "c"];
        let mut xml = String::from("<r>");
        let mut open: Vec<&str> = Vec::new();
        for &(op, v) in steps {
            match op {
                0..=2 => {
                    let tag = TAGS[op as usize];
                    let attr = if v % 3 == 0 {
                        format!(r#" b="{v}""#)
                    } else {
                        String::new()
                    };
                    xml.push_str(&format!("<{tag}{attr}>"));
                    open.push(tag);
                }
                3 => {
                    if let Some(tag) = open.pop() {
                        xml.push_str(&format!("</{tag}>"));
                    }
                }
                4 => xml.push_str(&format!("{v} ")),
                _ => xml.push_str(&format!("w{v} ")),
            }
        }
        while let Some(tag) = open.pop() {
            xml.push_str(&format!("</{tag}>"));
        }
        xml.push_str("</r>");
        xml
    }

    proptest::proptest! {
        /// Through the tag index or through the subtree walk, every
        /// element resolves every field to the same value.
        #[test]
        fn indexed_lookup_equals_the_subtree_walk(
            docs in proptest::collection::vec(
                proptest::collection::vec((0u8..6, 0u32..50), 0..60),
                1..4,
            ),
        ) {
            let mut c = Collection::new();
            for steps in &docs {
                c.add_xml(&tree_xml(steps)).unwrap();
            }
            let tags = TagIndex::build(&c);
            let syms: Vec<SymbolId> = ["a", "b", "c", "r"].iter().filter_map(|t| c.tag(t)).collect();
            for &tag in &syms {
                for e in tags.elements(tag) {
                    for &sym in &syms {
                        proptest::prop_assert_eq!(
                            field_value_indexed(&c, &tags, e, sym),
                            field_value_sym(&c, e.elem_ref(), sym)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn content_value_of_leaf() {
        let (c, car) = setup();
        let doc = c.doc(car.doc);
        let hp = c.tag("hp").unwrap();
        let hp_node = doc.child_element(doc.root(), hp).unwrap();
        let v = content_value(
            &c,
            ElemRef {
                doc: car.doc,
                node: hp_node,
            },
        );
        assert_eq!(v, FieldValue::Num(200.0));
    }
}
