//! A parser for the paper's rule language, so profiles can be written the
//! way Figs. 2 and 5 write them:
//!
//! ```text
//! # scoping rules (Fig. 2)
//! if pc(car, description) & ftcontains(description, "good condition")
//!     then add ftcontains(description, "american")
//! if pc(car, description) & ftcontains(description, "good condition")
//!     then remove ftcontains(description, "low mileage")
//! if true then replace price < 2000 with price < 5000
//! if true then relax pc(car, description)
//!
//! # ordering rules (Figs. 2 and 5)
//! x.tag = car & y.tag = car & x.color = "red" & y.color != "red" -> x < y
//! x.tag = car & y.tag = car & x.mileage < y.mileage -> x < y
//! x.tag = car & y.tag = car & x.make = y.make & x.hp > y.hp -> x < y
//! x.tag = car & y.tag = car & ftcontains(x, "best bid") -> x < y
//! colors(x.color, y.color) -> x < y          # named prefRel from the registry
//! ```
//!
//! Rules accept a trailing attribute block `{priority 2, weight 1.5}`.
//! [`parse_profile`] reads one rule per line (continuation lines are
//! joined when a line ends mid-rule), `#` starts a comment.

use crate::kor::KeywordOrderingRule;
use crate::prefrel::PrefRel;
use crate::profile::UserProfile;
use crate::scoping::{Atom, ScopingRule, SrAction};
use crate::vor::{AttrValue, PrefOp, ValueOrderingRule, VorForm};
use pimento_tpq::{Predicate, RelOp, Value};
use std::collections::HashMap;
use std::fmt;

/// Parse error with a line number (1-based; 0 for single-rule parsing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleParseError {
    /// Line the error occurred on.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "rule parse error on line {}: {}",
                self.line, self.message
            )
        } else {
            write!(f, "rule parse error: {}", self.message)
        }
    }
}

impl std::error::Error for RuleParseError {}

/// One parsed rule of any kind.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedRule {
    /// A scoping rule.
    Scoping(ScopingRule),
    /// A value-based ordering rule.
    Vor(ValueOrderingRule),
    /// A keyword-based ordering rule.
    Kor(KeywordOrderingRule),
}

/// Named [`PrefRel`]s referenced by form-(3) rules like
/// `colors(x.color, y.color) -> x < y`.
pub type PrefRelRegistry = HashMap<String, PrefRel>;

/// Parse a single rule (either syntax), with `id` as its identifier.
pub fn parse_rule(
    id: &str,
    input: &str,
    registry: &PrefRelRegistry,
) -> Result<ParsedRule, RuleParseError> {
    Parser::new(input, registry).rule(id).map_err(|mut e| {
        e.line = 0;
        e
    })
}

/// Parse a whole profile: one rule per line (`#` comments, blank lines
/// skipped). Rules get ids `r1`, `r2`, … in file order unless the line
/// starts with `NAME:`.
pub fn parse_profile(
    input: &str,
    registry: &PrefRelRegistry,
) -> Result<UserProfile, RuleParseError> {
    let mut profile = UserProfile::new();
    let mut counter = 0usize;
    for (lineno, raw) in input.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        counter += 1;
        // Optional leading "name:" label — but only when the head looks
        // like a label (not `x.tag = ...`).
        let (id, body) = match line.split_once(':') {
            Some((head, rest))
                if !head.contains('.')
                    && !head.contains('(')
                    && !head.contains(' ')
                    && !head.is_empty() =>
            {
                (head.to_string(), rest.trim())
            }
            _ => (format!("r{counter}"), line),
        };
        let rule = Parser::new(body, registry).rule(&id).map_err(|mut e| {
            e.line = lineno + 1;
            e
        })?;
        match rule {
            ParsedRule::Scoping(r) => profile.scoping.push(r),
            ParsedRule::Vor(r) => profile.vors.push(r),
            ParsedRule::Kor(r) => profile.kors.push(r),
        }
    }
    Ok(profile)
}

fn strip_comment(line: &str) -> &str {
    // A '#' outside string quotes starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Name(String),
    Str(String),
    Num(f64),
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Amp,
    Arrow,
    Dot,
    Op(RelOp),
}

fn lex(input: &str) -> Result<Vec<Tok>, String> {
    let b = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            b')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            b'{' => {
                toks.push(Tok::LBrace);
                i += 1;
            }
            b'}' => {
                toks.push(Tok::RBrace);
                i += 1;
            }
            b',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            b'&' => {
                toks.push(Tok::Amp);
                i += 1;
            }
            b'.' => {
                toks.push(Tok::Dot);
                i += 1;
            }
            b'-' if b.get(i + 1) == Some(&b'>') => {
                toks.push(Tok::Arrow);
                i += 2;
            }
            b'<' => {
                if b.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Op(RelOp::Le));
                    i += 2;
                } else {
                    toks.push(Tok::Op(RelOp::Lt));
                    i += 1;
                }
            }
            b'>' => {
                if b.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Op(RelOp::Ge));
                    i += 2;
                } else {
                    toks.push(Tok::Op(RelOp::Gt));
                    i += 1;
                }
            }
            b'=' => {
                toks.push(Tok::Op(RelOp::Eq));
                i += 1;
            }
            b'!' if b.get(i + 1) == Some(&b'=') => {
                toks.push(Tok::Op(RelOp::Ne));
                i += 2;
            }
            b'"' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != b'"' {
                    j += 1;
                }
                if j >= b.len() {
                    return Err("unterminated string literal".into());
                }
                toks.push(Tok::Str(input[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_digit()
                || (c == b'-' && b.get(i + 1).is_some_and(u8::is_ascii_digit)) =>
            {
                let start = i;
                i += 1;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                    i += 1;
                }
                let n: f64 = input[start..i]
                    .parse()
                    .map_err(|_| format!("bad number {:?}", &input[start..i]))?;
                toks.push(Tok::Num(n));
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'-')
                {
                    i += 1;
                }
                toks.push(Tok::Name(input[start..i].to_string()));
            }
            other => return Err(format!("unexpected character {:?}", other as char)),
        }
    }
    Ok(toks)
}

struct Parser<'r> {
    toks: Vec<Tok>,
    pos: usize,
    registry: &'r PrefRelRegistry,
    lex_error: Option<String>,
}

/// Accumulated pieces of an ordering-rule head while parsing.
#[derive(Default)]
struct OrParts {
    x_tag: Option<String>,
    y_tag: Option<String>,
    equal_attrs: Vec<String>,
    guards: Vec<(String, RelOp, AttrValue)>,
    /// (attr, value) of `x.attr = v`, waiting for its `y.attr != v` twin.
    eq_half: Option<(String, AttrValue)>,
    form: Option<VorForm>,
    kor_phrase: Option<String>,
}

impl<'r> Parser<'r> {
    fn new(input: &str, registry: &'r PrefRelRegistry) -> Self {
        match lex(input) {
            Ok(toks) => Parser {
                toks,
                pos: 0,
                registry,
                lex_error: None,
            },
            Err(e) => Parser {
                toks: Vec::new(),
                pos: 0,
                registry,
                lex_error: Some(e),
            },
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, RuleParseError> {
        Err(RuleParseError {
            line: 0,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Tok) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), RuleParseError> {
        if self.eat(want) {
            Ok(())
        } else {
            self.err(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    fn name(&mut self, what: &str) -> Result<String, RuleParseError> {
        match self.bump() {
            Some(Tok::Name(n)) => Ok(n),
            other => self.err(format!("expected {what}, found {other:?}")),
        }
    }

    fn rule(&mut self, id: &str) -> Result<ParsedRule, RuleParseError> {
        if let Some(e) = self.lex_error.take() {
            return self.err(e);
        }
        let starts_with_if = matches!(self.peek(), Some(Tok::Name(n)) if n == "if");
        let mut rule = if starts_with_if {
            ParsedRule::Scoping(self.scoping_rule(id)?)
        } else {
            self.ordering_rule(id)?
        };
        // Optional attribute block.
        if self.eat(&Tok::LBrace) {
            loop {
                let key = self.name("attribute name")?;
                let value = match self.bump() {
                    Some(Tok::Num(n)) => n,
                    other => return self.err(format!("expected number, found {other:?}")),
                };
                match (key.as_str(), &mut rule) {
                    ("priority", ParsedRule::Scoping(r)) => r.priority = Some(value as u32),
                    ("priority", ParsedRule::Vor(r)) => r.priority = value as u32,
                    ("weight", ParsedRule::Scoping(r)) => {
                        if value <= 0.0 {
                            return self.err("weight must be positive");
                        }
                        r.weight = value;
                    }
                    ("weight", ParsedRule::Kor(r)) => {
                        if value <= 0.0 {
                            return self.err("weight must be positive");
                        }
                        r.weight = value;
                    }
                    (other, _) => {
                        return self.err(format!("unknown or inapplicable attribute {other:?}"))
                    }
                }
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RBrace, "'}'")?;
        }
        if self.peek().is_some() {
            return self.err("trailing tokens after rule");
        }
        Ok(rule)
    }

    // -- scoping rules ------------------------------------------------------

    fn scoping_rule(&mut self, id: &str) -> Result<ScopingRule, RuleParseError> {
        self.expect(&Tok::Name("if".into()), "'if'")?;
        let condition = if matches!(self.peek(), Some(Tok::Name(n)) if n == "true") {
            self.pos += 1;
            Vec::new()
        } else {
            self.atom_list(&["then"])?
        };
        self.expect(&Tok::Name("then".into()), "'then'")?;
        let action = match self.name("action (add/remove/replace/relax)")?.as_str() {
            "add" => SrAction::Add(self.atom_list(&[])?),
            "remove" | "delete" => SrAction::Delete(self.atom_list(&[])?),
            "replace" => {
                let from = self.atom_list(&["with"])?;
                self.expect(&Tok::Name("with".into()), "'with'")?;
                let with = self.atom_list(&[])?;
                SrAction::Replace { from, with }
            }
            "relax" => {
                self.expect(&Tok::Name("pc".into()), "'pc'")?;
                self.expect(&Tok::LParen, "'('")?;
                let parent = self.name("parent tag")?;
                self.expect(&Tok::Comma, "','")?;
                let child = self.name("child tag")?;
                self.expect(&Tok::RParen, "')'")?;
                SrAction::RelaxEdge { parent, child }
            }
            other => return self.err(format!("unknown action {other:?}")),
        };
        Ok(ScopingRule {
            id: id.to_string(),
            condition,
            action,
            priority: None,
            weight: 1.0,
        })
    }

    /// Parse `atom (& atom)*`, stopping before any keyword in `stops` or a
    /// `{`/end of input.
    fn atom_list(&mut self, stops: &[&str]) -> Result<Vec<Atom>, RuleParseError> {
        let mut out = vec![self.atom()?];
        while self.eat(&Tok::Amp) {
            out.push(self.atom()?);
        }
        // Validate the stop token without consuming it.
        match self.peek() {
            None | Some(Tok::LBrace) => Ok(out),
            Some(Tok::Name(n)) if stops.contains(&n.as_str()) => Ok(out),
            other => self.err(format!("expected '&', end of atoms, found {other:?}")),
        }
    }

    fn atom(&mut self) -> Result<Atom, RuleParseError> {
        let head = self.name("atom")?;
        match head.as_str() {
            "pc" | "ad" => {
                self.expect(&Tok::LParen, "'('")?;
                let a = self.name("tag")?;
                self.expect(&Tok::Comma, "','")?;
                let b = self.name("tag")?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(if head == "pc" {
                    Atom::pc(&a, &b)
                } else {
                    Atom::ad(&a, &b)
                })
            }
            "ftcontains" => {
                self.expect(&Tok::LParen, "'('")?;
                let tag = self.name("tag")?;
                self.expect(&Tok::Comma, "','")?;
                let phrase = match self.bump() {
                    Some(Tok::Str(s)) => s,
                    other => return self.err(format!("expected string, found {other:?}")),
                };
                self.expect(&Tok::RParen, "')'")?;
                Ok(Atom::ft(&tag, &phrase))
            }
            tag => {
                // cmp atom: TAG relop value
                let op = match self.bump() {
                    Some(Tok::Op(op)) => op,
                    other => {
                        return self.err(format!(
                            "expected comparison after {tag:?}, found {other:?}"
                        ))
                    }
                };
                let value = match self.bump() {
                    Some(Tok::Num(n)) => Value::Num(n),
                    Some(Tok::Str(s)) => Value::Str(s),
                    other => return self.err(format!("expected constant, found {other:?}")),
                };
                Ok(Atom::cmp(tag, Predicate::Compare { op, value }))
            }
        }
    }

    // -- ordering rules -----------------------------------------------------

    fn ordering_rule(&mut self, id: &str) -> Result<ParsedRule, RuleParseError> {
        let mut parts = OrParts::default();
        loop {
            self.or_condition(&mut parts)?;
            if !self.eat(&Tok::Amp) {
                break;
            }
        }
        self.expect(&Tok::Arrow, "'->'")?;
        // "x < y"
        self.expect(&Tok::Name("x".into()), "'x'")?;
        self.expect(&Tok::Op(RelOp::Lt), "'<'")?;
        self.expect(&Tok::Name("y".into()), "'y'")?;

        if parts.eq_half.is_some() {
            return self.err("x.attr = value needs the matching y.attr != value conjunct");
        }
        let tag = match (parts.x_tag, parts.y_tag) {
            (Some(x), Some(y)) if x == y => x,
            (Some(_), Some(_)) => return self.err("x.tag and y.tag must be the same"),
            _ => return self.err("both x.tag = T and y.tag = T are required"),
        };
        if let Some(phrase) = parts.kor_phrase {
            if parts.form.is_some() {
                return self.err("a rule cannot mix ftcontains(x, ...) with a value form");
            }
            return Ok(ParsedRule::Kor(KeywordOrderingRule::new(id, &tag, &phrase)));
        }
        let Some(form) = parts.form else {
            return self.err(
                "ordering rule needs a preference head (x.a = c & y.a != c, x.a < y.a, or prefRel)",
            );
        };
        Ok(ParsedRule::Vor(ValueOrderingRule {
            id: id.to_string(),
            tag,
            equal_attrs: parts.equal_attrs,
            guards: parts
                .guards
                .into_iter()
                .map(|(attr, op, value)| crate::vor::LocalGuard { attr, op, value })
                .collect(),
            form,
            priority: 0,
        }))
    }

    fn or_condition(&mut self, parts: &mut OrParts) -> Result<(), RuleParseError> {
        match self.bump() {
            Some(Tok::Name(n)) if n == "ftcontains" => {
                self.expect(&Tok::LParen, "'('")?;
                self.expect(&Tok::Name("x".into()), "'x'")?;
                self.expect(&Tok::Comma, "','")?;
                let phrase = match self.bump() {
                    Some(Tok::Str(s)) => s,
                    other => return self.err(format!("expected string, found {other:?}")),
                };
                self.expect(&Tok::RParen, "')'")?;
                if parts.kor_phrase.replace(phrase).is_some() {
                    return self.err("only one ftcontains(x, ...) per rule");
                }
                Ok(())
            }
            Some(Tok::Name(var)) if var == "x" || var == "y" => {
                self.expect(&Tok::Dot, "'.'")?;
                let attr = self.name("attribute")?;
                let op = match self.bump() {
                    Some(Tok::Op(op)) => op,
                    other => return self.err(format!("expected comparison, found {other:?}")),
                };
                // Right-hand side: constant, or the other variable's attr.
                match self.peek().cloned() {
                    Some(Tok::Name(rhs_var)) if rhs_var == "x" || rhs_var == "y" => {
                        self.pos += 1;
                        self.expect(&Tok::Dot, "'.'")?;
                        let rhs_attr = self.name("attribute")?;
                        self.cross_condition(parts, &var, &attr, op, &rhs_var, &rhs_attr)
                    }
                    _ => {
                        let value = match self.bump() {
                            Some(Tok::Num(n)) => AttrValue::Num(n),
                            Some(Tok::Str(s)) => AttrValue::Str(s),
                            Some(Tok::Name(n)) => AttrValue::Str(n), // bare word, e.g. x.tag = car
                            other => {
                                return self.err(format!("expected constant, found {other:?}"))
                            }
                        };
                        self.const_condition(parts, &var, &attr, op, value)
                    }
                }
            }
            Some(Tok::Name(rel)) => {
                // prefRel form: NAME(x.attr, y.attr)
                let Some(order) = self.registry.get(&rel) else {
                    return self.err(format!("unknown preference relation {rel:?}"));
                };
                self.expect(&Tok::LParen, "'('")?;
                self.expect(&Tok::Name("x".into()), "'x'")?;
                self.expect(&Tok::Dot, "'.'")?;
                let xa = self.name("attribute")?;
                self.expect(&Tok::Comma, "','")?;
                self.expect(&Tok::Name("y".into()), "'y'")?;
                self.expect(&Tok::Dot, "'.'")?;
                let ya = self.name("attribute")?;
                self.expect(&Tok::RParen, "')'")?;
                if xa != ya {
                    return self.err("prefRel must compare the same attribute of x and y");
                }
                if parts
                    .form
                    .replace(VorForm::Preference {
                        attr: xa,
                        order: order.clone(),
                    })
                    .is_some()
                {
                    return self.err("only one preference head per rule");
                }
                Ok(())
            }
            other => self.err(format!("expected ordering condition, found {other:?}")),
        }
    }

    /// `x.a op y.b` conditions.
    fn cross_condition(
        &mut self,
        parts: &mut OrParts,
        lhs_var: &str,
        lhs_attr: &str,
        op: RelOp,
        rhs_var: &str,
        rhs_attr: &str,
    ) -> Result<(), RuleParseError> {
        if lhs_var == rhs_var {
            return self.err("conditions must relate x and y, not a variable to itself");
        }
        if lhs_attr != rhs_attr {
            return self.err("cross conditions must compare the same attribute");
        }
        match op {
            RelOp::Eq => {
                parts.equal_attrs.push(lhs_attr.to_string());
                Ok(())
            }
            RelOp::Lt | RelOp::Gt => {
                // Normalize to x-relative direction.
                let x_op = if lhs_var == "x" { op } else { op.flip() };
                let pref = if x_op == RelOp::Lt {
                    PrefOp::Lt
                } else {
                    PrefOp::Gt
                };
                if parts
                    .form
                    .replace(VorForm::AttrCompare {
                        attr: lhs_attr.to_string(),
                        op: pref,
                    })
                    .is_some()
                {
                    return self.err("only one preference head per rule");
                }
                Ok(())
            }
            other => self.err(format!("unsupported cross comparison {other}")),
        }
    }

    /// `x.a op const` conditions (tags, EqConst halves, guards).
    fn const_condition(
        &mut self,
        parts: &mut OrParts,
        var: &str,
        attr: &str,
        op: RelOp,
        value: AttrValue,
    ) -> Result<(), RuleParseError> {
        if attr == "tag" {
            if op != RelOp::Eq {
                return self.err("tag conditions must use '='");
            }
            let tag = value.as_text().into_owned();
            let slot = if var == "x" {
                &mut parts.x_tag
            } else {
                &mut parts.y_tag
            };
            if slot.replace(tag).is_some() {
                return self.err(format!("duplicate {var}.tag condition"));
            }
            return Ok(());
        }
        match (var, op) {
            ("x", RelOp::Eq) => {
                if parts.eq_half.replace((attr.to_string(), value)).is_some() {
                    return self.err("only one x.attr = value head per rule");
                }
                Ok(())
            }
            ("y", RelOp::Ne) => {
                let Some((x_attr, x_val)) = parts.eq_half.take() else {
                    return self.err("y.attr != value must follow its x.attr = value conjunct");
                };
                if x_attr != attr || !x_val.same(&value) {
                    return self
                        .err("x.attr = v and y.attr != v must use the same attribute and value");
                }
                let head = VorForm::EqConst {
                    attr: attr.to_string(),
                    value: x_val.as_text().into_owned(),
                };
                if parts.form.replace(head).is_some() {
                    return self.err("only one preference head per rule");
                }
                Ok(())
            }
            // Anything else is a symmetric local guard; written once on
            // either variable, enforced on both answers at runtime.
            _ => {
                parts.guards.push((attr.to_string(), op, value));
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> PrefRelRegistry {
        let mut r = PrefRelRegistry::new();
        r.insert(
            "colors".to_string(),
            PrefRel::chain(&["red", "black", "silver"]),
        );
        r
    }

    fn rule(s: &str) -> ParsedRule {
        parse_rule("t", s, &reg()).unwrap()
    }

    #[test]
    fn parses_fig2_rho1() {
        let r = rule(
            r#"if pc(car, description) & ftcontains(description, "low mileage") then remove ftcontains(description, "good condition")"#,
        );
        let ParsedRule::Scoping(sr) = r else {
            panic!("expected SR")
        };
        assert_eq!(sr.condition.len(), 2);
        assert!(matches!(&sr.action, SrAction::Delete(atoms) if atoms.len() == 1));
    }

    #[test]
    fn parses_fig2_rho2_add() {
        let r = rule(
            r#"if pc(car, description) & ftcontains(description, "good condition") then add ftcontains(description, "american")"#,
        );
        let ParsedRule::Scoping(sr) = r else { panic!() };
        assert!(matches!(&sr.action, SrAction::Add(_)));
    }

    #[test]
    fn parses_replace_with_cmp_atoms() {
        let r = rule(r#"if true then replace price < 2000 with price < 5000"#);
        let ParsedRule::Scoping(sr) = r else { panic!() };
        assert!(sr.condition.is_empty());
        let SrAction::Replace { from, with } = &sr.action else {
            panic!()
        };
        assert!(matches!(&from[0], Atom::Cmp { tag, .. } if tag == "price"));
        assert!(matches!(&with[0], Atom::Cmp { tag, .. } if tag == "price"));
    }

    #[test]
    fn parses_relax_action() {
        let r = rule("if true then relax pc(car, description)");
        let ParsedRule::Scoping(sr) = r else { panic!() };
        assert!(matches!(&sr.action, SrAction::RelaxEdge { parent, child }
            if parent == "car" && child == "description"));
    }

    #[test]
    fn parses_fig2_pi1_eqconst() {
        let r = rule(r#"x.tag = car & y.tag = car & x.color = "red" & y.color != "red" -> x < y"#);
        let ParsedRule::Vor(v) = r else {
            panic!("expected VOR")
        };
        assert_eq!(v.tag, "car");
        assert!(
            matches!(&v.form, VorForm::EqConst { attr, value } if attr == "color" && value == "red")
        );
    }

    #[test]
    fn parses_fig2_pi2_lower_mileage() {
        let r = rule("x.tag = car & y.tag = car & x.mileage < y.mileage -> x < y");
        let ParsedRule::Vor(v) = r else { panic!() };
        assert!(
            matches!(&v.form, VorForm::AttrCompare { attr, op: PrefOp::Lt } if attr == "mileage")
        );
    }

    #[test]
    fn parses_fig2_pi3_same_make_higher_hp() {
        let r = rule("x.tag = car & y.tag = car & x.make = y.make & x.hp > y.hp -> x < y");
        let ParsedRule::Vor(v) = r else { panic!() };
        assert_eq!(v.equal_attrs, vec!["make".to_string()]);
        assert!(matches!(&v.form, VorForm::AttrCompare { attr, op: PrefOp::Gt } if attr == "hp"));
    }

    #[test]
    fn parses_fig2_pi4_kor() {
        let r = rule(r#"x.tag = car & y.tag = car & ftcontains(x, "best bid") -> x < y"#);
        let ParsedRule::Kor(k) = r else {
            panic!("expected KOR")
        };
        assert_eq!(k.tag, "car");
        assert_eq!(k.phrase, "best bid");
        assert_eq!(k.weight, 1.0);
    }

    #[test]
    fn parses_fig5_pi5_numeric_eqconst() {
        let r = rule("x.tag = person & y.tag = person & x.age = 33 & y.age != 33 -> x < y");
        let ParsedRule::Vor(v) = r else { panic!() };
        assert!(
            matches!(&v.form, VorForm::EqConst { attr, value } if attr == "age" && value == "33")
        );
    }

    #[test]
    fn parses_prefrel_from_registry() {
        let r = rule("x.tag = car & y.tag = car & colors(x.color, y.color) -> x < y");
        let ParsedRule::Vor(v) = r else { panic!() };
        let VorForm::Preference { attr, order } = &v.form else {
            panic!()
        };
        assert_eq!(attr, "color");
        assert!(order.prefers("red", "silver"));
    }

    #[test]
    fn parses_guards() {
        let r = rule("x.tag = car & y.tag = car & x.price < 1000 & x.mileage < y.mileage -> x < y");
        let ParsedRule::Vor(v) = r else { panic!() };
        assert_eq!(v.guards.len(), 1);
        assert_eq!(v.guards[0].attr, "price");
    }

    #[test]
    fn attribute_block_sets_priority_and_weight() {
        let ParsedRule::Vor(v) =
            rule("x.tag = car & y.tag = car & x.m < y.m -> x < y {priority 3}")
        else {
            panic!()
        };
        assert_eq!(v.priority, 3);
        let ParsedRule::Kor(k) =
            rule(r#"x.tag = car & y.tag = car & ftcontains(x, "NYC") -> x < y {weight 2.5}"#)
        else {
            panic!()
        };
        assert_eq!(k.weight, 2.5);
        let ParsedRule::Scoping(s) =
            rule(r#"if true then add ftcontains(car, "clean") {priority 1, weight 0.5}"#)
        else {
            panic!()
        };
        assert_eq!(s.priority, Some(1));
        assert_eq!(s.weight, 0.5);
    }

    #[test]
    fn parsed_vor_behaves_like_builder_vor() {
        let ParsedRule::Vor(parsed) =
            rule(r#"x.tag = car & y.tag = car & x.color = "red" & y.color != "red" -> x < y"#)
        else {
            panic!()
        };
        let builder = ValueOrderingRule::prefer_value("pi1", "car", "color", "red");
        assert_eq!(parsed.form, builder.form);
        let compiled = crate::CompiledVors::compile(&[parsed]);
        let key = |color: &str| {
            compiled.make_key("car", |_, attr| {
                (attr == "color").then(|| AttrValue::Str(color.into()))
            })
        };
        assert_eq!(
            compiled.compare(&key("red"), &key("blue")),
            crate::VorOutcome::PreferA
        );
    }

    #[test]
    fn errors_are_informative() {
        let reg = reg();
        for (src, needle) in [
            ("if pc(car) then add pc(a,b)", "expected"),
            ("if true then explode pc(a,b)", "unknown action"),
            ("x.tag = car -> x < y", "both x.tag"),
            ("x.tag = car & y.tag = truck & x.m < y.m -> x < y", "same"),
            (
                r#"x.tag = c & y.tag = c & x.color = "red" -> x < y"#,
                "matching y",
            ),
            (
                "x.tag = c & y.tag = c & unknownrel(x.a, y.a) -> x < y",
                "unknown preference",
            ),
            (
                "x.tag = c & y.tag = c & x.a < y.b -> x < y",
                "same attribute",
            ),
            (
                r#"if true then add ftcontains(car, "x") trailing"#,
                "expected",
            ),
        ] {
            let err = parse_rule("t", src, &reg).unwrap_err();
            assert!(
                err.message.to_lowercase().contains(&needle.to_lowercase()),
                "{src}: {}",
                err.message
            );
        }
    }

    #[test]
    fn parse_profile_whole_file() {
        let text = r#"
# The Fig. 2 profile
rho2: if pc(car, description) & ftcontains(description, "good condition") then add ftcontains(description, "american")
rho3: if pc(car, description) & ftcontains(description, "good condition") then remove ftcontains(description, "low mileage")
pi1: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" -> x < y {priority 2}
pi2: x.tag = car & y.tag = car & x.mileage < y.mileage -> x < y {priority 1}
pi4: x.tag = car & y.tag = car & ftcontains(x, "best bid") -> x < y
pi5: x.tag = car & y.tag = car & ftcontains(x, "NYC") -> x < y
"#;
        let profile = parse_profile(text, &reg()).unwrap();
        assert_eq!(profile.scoping.len(), 2);
        assert_eq!(profile.vors.len(), 2);
        assert_eq!(profile.kors.len(), 2);
        assert_eq!(profile.scoping[0].id, "rho2");
        assert_eq!(profile.vors[0].priority, 2);
        assert!(
            !profile.check_ambiguity().is_ambiguous(),
            "priorities separate π1/π2"
        );
    }

    #[test]
    fn parse_profile_reports_line_numbers() {
        let text = "\n\nbroken rule here\n";
        let err = parse_profile(text, &reg()).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn unnamed_rules_get_sequential_ids() {
        let text =
            "if true then add ftcontains(car, \"a\")\nif true then add ftcontains(car, \"b\")";
        let profile = parse_profile(text, &reg()).unwrap();
        assert_eq!(profile.scoping[0].id, "r1");
        assert_eq!(profile.scoping[1].id, "r2");
    }

    #[test]
    fn comments_and_strings_interact_correctly() {
        let text = r##"if true then add ftcontains(car, "has # inside") # trailing comment"##;
        let profile = parse_profile(text, &reg()).unwrap();
        let SrAction::Add(atoms) = &profile.scoping[0].action else {
            panic!()
        };
        assert!(matches!(&atoms[0], Atom::Ft { phrase, .. } if phrase == "has # inside"));
    }
}
