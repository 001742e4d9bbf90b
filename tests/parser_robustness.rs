//! Robustness: the three parsers (XML, TPQ, rule language) and the
//! snapshot decoder must never panic on arbitrary input — errors are
//! values here.

use pimento::index::{open_index, save_index, Collection, InvertedIndex, TagIndex, Tokenizer};
use pimento::profile::{parse_profile, parse_rule, PrefRelRegistry};
use pimento::tpq::parse_tpq;
use pimento::xml::{parse_with, SymbolTable};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (as lossy strings) never panic the XML parser.
    #[test]
    fn xml_parser_never_panics(input in ".*") {
        let mut st = SymbolTable::new();
        let _ = parse_with(&input, &mut st);
    }

    /// XML-ish structured garbage neither panics nor loops.
    #[test]
    fn xmlish_garbage_never_panics(parts in proptest::collection::vec(
        prop_oneof![
            Just("<a>".to_string()),
            Just("</a>".to_string()),
            Just("<a b='c'>".to_string()),
            Just("<!--".to_string()),
            Just("-->".to_string()),
            Just("<![CDATA[".to_string()),
            Just("]]>".to_string()),
            Just("&amp;".to_string()),
            Just("&#x41;".to_string()),
            Just("&broken".to_string()),
            Just("text".to_string()),
            Just("<?pi ?>".to_string()),
            Just("<".to_string()),
            Just(">".to_string()),
            Just("\"".to_string()),
        ], 0..25)) {
        let input = parts.concat();
        let mut st = SymbolTable::new();
        let _ = parse_with(&input, &mut st);
    }

    /// The TPQ parser never panics.
    #[test]
    fn tpq_parser_never_panics(input in ".*") {
        let _ = parse_tpq(&input);
    }

    /// TPQ-ish token soup never panics.
    #[test]
    fn tpqish_garbage_never_panics(parts in proptest::collection::vec(
        prop_oneof![
            Just("//".to_string()),
            Just("/".to_string()),
            Just("car".to_string()),
            Just("[".to_string()),
            Just("]".to_string()),
            Just("ftcontains".to_string()),
            Just("ftall".to_string()),
            Just("about".to_string()),
            Just("(".to_string()),
            Just(")".to_string()),
            Just(".".to_string()),
            Just("\"kw\"".to_string()),
            Just("<".to_string()),
            Just("and".to_string()),
            Just("window".to_string()),
            Just("ordered".to_string()),
            Just("5".to_string()),
            Just("*".to_string()),
            Just(",".to_string()),
        ], 0..20)) {
        let _ = parse_tpq(&parts.join(" "));
    }

    /// The rule-language parser never panics (single rules and profiles).
    #[test]
    fn rule_parser_never_panics(input in ".*") {
        let registry = PrefRelRegistry::new();
        let _ = parse_rule("r", &input, &registry);
        let _ = parse_profile(&input, &registry);
    }

    /// Rule-ish token soup never panics.
    #[test]
    fn ruleish_garbage_never_panics(parts in proptest::collection::vec(
        prop_oneof![
            Just("if".to_string()),
            Just("then".to_string()),
            Just("add".to_string()),
            Just("remove".to_string()),
            Just("replace".to_string()),
            Just("with".to_string()),
            Just("relax".to_string()),
            Just("pc(a,b)".to_string()),
            Just("ftcontains(a,\"x\")".to_string()),
            Just("x.tag".to_string()),
            Just("y.tag".to_string()),
            Just("=".to_string()),
            Just("!=".to_string()),
            Just("<".to_string()),
            Just("->".to_string()),
            Just("&".to_string()),
            Just("x".to_string()),
            Just("y".to_string()),
            Just("{priority 1}".to_string()),
            Just("\"unterminated".to_string()),
        ], 0..15)) {
        let registry = PrefRelRegistry::new();
        let _ = parse_rule("r", &parts.join(" "), &registry);
    }

    /// The snapshot decoder never panics on arbitrary bytes.
    #[test]
    fn snapshot_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = open_index(&bytes);
    }

    /// Random mutations of a valid snapshot never panic the decoder.
    #[test]
    fn mutated_snapshot_never_panics(flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8)) {
        let mut coll = Collection::new();
        coll.add_xml("<dealer><car><price>500</price></car></dealer>").unwrap();
        let inv = InvertedIndex::build(&coll, Tokenizer::plain());
        let tags = TagIndex::build(&coll);
        let mut bytes = save_index(&coll, &inv, &tags).to_vec();
        for (pos, val) in flips {
            let idx = pos % bytes.len();
            bytes[idx] ^= val;
        }
        let _ = open_index(&bytes);
    }
}
