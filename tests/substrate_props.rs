//! Property-based tests of the substrate invariants: XML round-tripping,
//! region-label well-nestedness, and inverted-index consistency.

use pimento::index::{open_index, save_index, Collection, InvertedIndex, TagIndex, Tokenizer};
use pimento::xml::{parse_with, to_string, NodeKind, SymbolTable};
use proptest::prelude::*;

const TAGS: &[&str] = &["a", "b", "c", "item", "name"];
const WORDS: &[&str] = &["alpha", "beta", "gamma", "good", "condition", "42"];

/// Node recipe: open-element / text / close (tree built with a stack).
#[derive(Debug, Clone)]
enum Op {
    Open(usize),
    Text(usize, usize),
    Close,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..TAGS.len()).prop_map(Op::Open),
            ((0usize..WORDS.len()), (0usize..WORDS.len())).prop_map(|(a, b)| Op::Text(a, b)),
            Just(Op::Close),
        ],
        0..40,
    )
}

/// Build a well-formed XML string from the recipe (closes track a stack).
fn build_xml(ops: &[Op]) -> String {
    let mut out = String::from("<root>");
    let mut stack: Vec<&str> = Vec::new();
    for op in ops {
        match op {
            Op::Open(t) => {
                out.push_str(&format!("<{}>", TAGS[*t]));
                stack.push(TAGS[*t]);
            }
            Op::Text(a, b) => out.push_str(&format!("{} {} ", WORDS[*a], WORDS[*b])),
            Op::Close => {
                if let Some(tag) = stack.pop() {
                    out.push_str(&format!("</{tag}>"));
                }
            }
        }
    }
    while let Some(tag) = stack.pop() {
        out.push_str(&format!("</{tag}>"));
    }
    out.push_str("</root>");
    out
}

proptest! {
    /// parse → serialize → parse is a fixed point (structure preserved).
    #[test]
    fn xml_roundtrip_fixed_point(ops in ops_strategy()) {
        let xml = build_xml(&ops);
        let mut st = SymbolTable::new();
        let doc = parse_with(&xml, &mut st).expect("generated XML is well-formed");
        let once = to_string(&doc, &st);
        let mut st2 = SymbolTable::new();
        let doc2 = parse_with(&once, &mut st2).expect("serialized XML reparses");
        let twice = to_string(&doc2, &st2);
        prop_assert_eq!(once, twice);
        prop_assert_eq!(doc.len(), doc2.len());
    }

    /// Region labels are well-nested: for any two elements, regions are
    /// disjoint or strictly contained; parents contain children; levels
    /// are consistent.
    #[test]
    fn region_labels_well_nested(ops in ops_strategy()) {
        let xml = build_xml(&ops);
        let mut st = SymbolTable::new();
        let doc = parse_with(&xml, &mut st).expect("well-formed");
        let elems: Vec<_> = doc
            .node_ids()
            .filter(|&n| matches!(doc.node(n).kind, NodeKind::Element { .. }))
            .collect();
        for &a in &elems {
            let na = doc.node(a);
            prop_assert!(na.start < na.end);
            if let Some(p) = na.parent {
                let np = doc.node(p);
                prop_assert!(np.start < na.start && na.end < np.end, "parent contains child");
                prop_assert_eq!(np.level + 1, na.level);
            }
            for &b in &elems {
                if a == b { continue; }
                let nb = doc.node(b);
                let disjoint = na.end < nb.start || nb.end < na.start;
                let a_in_b = nb.start < na.start && na.end < nb.end;
                let b_in_a = na.start < nb.start && nb.end < na.end;
                prop_assert!(disjoint || a_in_b || b_in_a, "regions must be well-nested");
            }
        }
    }

    /// Inverted-index consistency: every posting's text is reachable, the
    /// document token count equals the posting total, and tag-index counts
    /// match a direct scan.
    #[test]
    fn index_consistency(ops in ops_strategy()) {
        let xml = build_xml(&ops);
        let mut coll = Collection::new();
        coll.add_xml(&xml).unwrap();
        let inv = InvertedIndex::build(&coll, Tokenizer::plain());
        let tags = TagIndex::build(&coll);
        // Posting total == doc token count.
        let total: usize = WORDS.iter().map(|w| inv.postings(&w.to_lowercase()).len()).sum();
        prop_assert_eq!(total as u32, inv.doc_len(pimento::index::DocId(0)));
        // Tag index counts match direct scans.
        let doc = coll.doc(pimento::index::DocId(0));
        for tag in TAGS.iter().chain(["root"].iter()) {
            let by_index = coll.tag(tag).map(|s| tags.count(s)).unwrap_or(0);
            let by_scan = doc
                .node_ids()
                .filter(|&n| doc.node(n).tag().map(|t| coll.symbols().name(t)) == Some(tag))
                .count();
            prop_assert_eq!(by_index, by_scan, "tag {}", tag);
        }
        // Every posting's label lies inside the root region.
        let root = doc.node(doc.root());
        for w in WORDS {
            for p in inv.postings(&w.to_lowercase()).iter() {
                prop_assert!(root.start < p.label && p.label < root.end);
            }
        }
    }

    /// `ftcontains` agrees with a text-content scan for single tokens.
    #[test]
    fn ftcontains_agrees_with_text_scan(ops in ops_strategy(), w in 0usize..WORDS.len()) {
        let xml = build_xml(&ops);
        let mut coll = Collection::new();
        coll.add_xml(&xml).unwrap();
        let inv = InvertedIndex::build(&coll, Tokenizer::plain());
        let tags = TagIndex::build(&coll);
        let word = WORDS[w].to_lowercase();
        let doc = coll.doc(pimento::index::DocId(0));
        for tag in TAGS {
            let Some(sym) = coll.tag(tag) else { continue };
            for e in tags.elements(sym) {
                let by_index = pimento::index::ft_contains(&inv, e, std::slice::from_ref(&word));
                let by_scan = doc
                    .text_content(e.node)
                    .to_lowercase()
                    .split(|c: char| !c.is_alphanumeric())
                    .any(|t| t == word);
                prop_assert_eq!(by_index, by_scan, "tag {} word {}", tag, word);
            }
        }
    }
}

#[test]
fn field_resolution_descendant_fallback() {
    // XMark nests age inside person/profile; `x.age` must still resolve.
    use pimento::index::{field_value, DocId, ElemRef, FieldValue};
    let mut coll = Collection::new();
    coll.add_xml(r#"<person income="99"><profile><age>33</age></profile></person>"#)
        .unwrap();
    let doc = coll.doc(DocId(0));
    let person = ElemRef {
        doc: DocId(0),
        node: doc.root(),
    };
    assert_eq!(
        field_value(&coll, person, "income"),
        Some(FieldValue::Num(99.0))
    );
    assert_eq!(
        field_value(&coll, person, "age"),
        Some(FieldValue::Num(33.0))
    );
    assert_eq!(field_value(&coll, person, "missing"), None);
}

proptest! {
    /// Snapshot save/load is the identity on the serialized form.
    #[test]
    fn snapshot_roundtrip_fixed_point(ops in ops_strategy()) {
        let xml = build_xml(&ops);
        let mut coll = Collection::new();
        coll.add_xml(&xml).unwrap();
        let inv = InvertedIndex::build(&coll, Tokenizer::plain());
        let tags = TagIndex::build(&coll);
        let once = save_index(&coll, &inv, &tags);
        let opened = open_index(&once).expect("opens");
        let twice = save_index(&opened.collection, &opened.inverted, &opened.tags);
        prop_assert_eq!(once, twice);
    }

    /// Parallel ingest is equivalent to sequential for any document split.
    #[test]
    fn parallel_ingest_equivalence(
        recipes in proptest::collection::vec(ops_strategy(), 1..6),
        threads in 1usize..6,
    ) {
        let xmls: Vec<String> = recipes.iter().map(|r| build_xml(r)).collect();
        let seq = pimento::index::build_collection_parallel(&xmls, 1).unwrap();
        let par = pimento::index::build_collection_parallel(&xmls, threads).unwrap();
        prop_assert_eq!(seq.len(), par.len());
        for ((_, a), (_, b)) in seq.iter().zip(par.iter()) {
            prop_assert_eq!(
                pimento::xml::to_string(a, seq.symbols()),
                pimento::xml::to_string(b, par.symbols())
            );
        }
    }
}

#[test]
fn lexer_edge_cases_error_cleanly() {
    use pimento::xml::XmlError;
    type Check = fn(&XmlError) -> bool;
    let cases: &[(&str, Check)] = &[
        ("<a", |e| matches!(e, XmlError::UnexpectedEof { .. })),
        ("<a x=>", |e| matches!(e, XmlError::UnexpectedChar { .. })),
        ("<a x='1' x='2'/>", |e| {
            matches!(e, XmlError::DuplicateAttribute { .. })
        }),
        ("<a>&unknown;</a>", |e| {
            matches!(e, XmlError::UnknownEntity { .. })
        }),
        ("<a>&#xFFFFFF;</a>", |e| {
            matches!(e, XmlError::InvalidCharRef { .. })
        }),
        ("text only", |e| matches!(e, XmlError::NoRootElement { .. })),
        ("<a/><b/>", |e| matches!(e, XmlError::MultipleRoots { .. })),
        ("<a></b>", |e| matches!(e, XmlError::MismatchedTag { .. })),
    ];
    for (src, check) in cases {
        let mut st = pimento::xml::SymbolTable::new();
        let err = pimento::xml::parse_with(src, &mut st).unwrap_err();
        assert!(check(&err), "{src}: unexpected error {err:?}");
        // Every error renders with a position.
        assert!(err.to_string().contains(':'), "{err}");
    }
}

#[test]
fn unicode_content_roundtrips() {
    let src = "<α><β attr=\"héllo\">日本語テキスト &amp; more — ünïcode</β></α>";
    let mut st = pimento::xml::SymbolTable::new();
    let doc = pimento::xml::parse_with(src, &mut st).unwrap();
    let out = pimento::xml::to_string(&doc, &st);
    let mut st2 = pimento::xml::SymbolTable::new();
    let doc2 = pimento::xml::parse_with(&out, &mut st2).unwrap();
    assert_eq!(doc.len(), doc2.len());
    assert!(out.contains("日本語テキスト"));
    // And it indexes + matches.
    let mut coll = Collection::new();
    coll.add_xml(src).unwrap();
    let inv = InvertedIndex::build(&coll, Tokenizer::plain());
    assert!(!inv.postings("日本語テキスト").is_empty());
}
