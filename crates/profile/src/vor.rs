//! Value-based ordering rules (VORs), paper §3.2. A VOR states a pairwise
//! preference between two answers `x`, `y` of the same type, in one of
//! three forms:
//!
//! 1. `C & x.attr = c & y.attr ≠ c → x ≺ y` (e.g. prefer red cars),
//! 2. `C & x.attr relOp y.attr → x ≺ y` with `relOp ∈ {<, >}`
//!    (e.g. prefer lower mileage),
//! 3. `C & prefRel(x.attr, y.attr) → x ≺ y` with `prefRel` a strict
//!    partial order on the attribute domain,
//!
//! where `C` — the *common conditions* — is a conjunction equating the
//! common properties of `x` and `y` (e.g. `x.tag = car & y.tag = car &
//! x.make = y.make`), possibly with extra local constraints.

use crate::constraints::{Const, LocalSet};
use crate::prefrel::PrefRel;
use pimento_tpq::RelOp;
use std::fmt;

/// A typed attribute value handed to the comparator by the runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Numeric value.
    Num(f64),
    /// String value.
    Str(String),
}

impl AttrValue {
    /// Case-insensitive equality.
    pub fn same(&self, other: &AttrValue) -> bool {
        match (self, other) {
            (AttrValue::Num(a), AttrValue::Num(b)) => a == b,
            (AttrValue::Str(a), AttrValue::Str(b)) => a.eq_ignore_ascii_case(b),
            (AttrValue::Num(n), AttrValue::Str(s)) | (AttrValue::Str(s), AttrValue::Num(n)) => {
                s.trim().parse::<f64>().map(|x| x == *n).unwrap_or(false)
            }
        }
    }

    /// Numeric view (strings parse if they look numeric).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            AttrValue::Num(n) => Some(*n),
            AttrValue::Str(s) => s.trim().parse().ok(),
        }
    }

    /// String view. Borrows for `Str` values; only numeric values allocate
    /// (they must be formatted).
    pub fn as_text(&self) -> std::borrow::Cow<'_, str> {
        match self {
            AttrValue::Num(n) => std::borrow::Cow::Owned(format_num(*n)),
            AttrValue::Str(s) => std::borrow::Cow::Borrowed(s),
        }
    }
}

/// The preference head of a VOR (which of the three forms it takes).
#[derive(Debug, Clone, PartialEq)]
pub enum VorForm {
    /// Form (1): prefer answers with `attr = value`.
    EqConst {
        /// Attribute compared.
        attr: String,
        /// The preferred constant.
        value: String,
    },
    /// Form (2): prefer the answer whose `attr` is smaller (`Lt`) or larger
    /// (`Gt`).
    AttrCompare {
        /// Attribute compared.
        attr: String,
        /// `Lt` = prefer smaller, `Gt` = prefer larger.
        op: PrefOp,
    },
    /// Form (3): prefer along a strict partial order on the domain.
    Preference {
        /// Attribute compared.
        attr: String,
        /// The partial order ("better" relates preferred values to worse).
        order: PrefRel,
    },
}

/// Direction of a form-(2) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefOp {
    /// Prefer the smaller value (`x.attr < y.attr → x ≺ y`).
    Lt,
    /// Prefer the larger value (`x.attr > y.attr → x ≺ y`).
    Gt,
}

/// A local (single-variable) guard in the common conditions, constraining
/// both `x` and `y` symmetrically (they must be "of the same type").
#[derive(Debug, Clone, PartialEq)]
pub struct LocalGuard {
    /// Attribute constrained.
    pub attr: String,
    /// Operator.
    pub op: RelOp,
    /// Constant.
    pub value: AttrValue,
}

/// One value-based ordering rule.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueOrderingRule {
    /// Identifier for diagnostics (π1, π2, …).
    pub id: String,
    /// `x.tag = y.tag = tag`.
    pub tag: String,
    /// Attributes equated between `x` and `y` (`x.make = y.make`).
    pub equal_attrs: Vec<String>,
    /// Symmetric local guards on both variables.
    pub guards: Vec<LocalGuard>,
    /// The preference head.
    pub form: VorForm,
    /// Priority class: rules with a **smaller** number are consulted first.
    /// Rules sharing a class must be mutually unambiguous (§5.2).
    pub priority: u32,
}

impl ValueOrderingRule {
    /// Form-(1) rule: prefer `tag` answers with `attr = value` (paper's π1:
    /// red cars first).
    pub fn prefer_value(id: &str, tag: &str, attr: &str, value: &str) -> Self {
        ValueOrderingRule {
            id: id.to_string(),
            tag: tag.to_string(),
            equal_attrs: Vec::new(),
            guards: Vec::new(),
            form: VorForm::EqConst {
                attr: attr.to_string(),
                value: value.to_string(),
            },
            priority: 0,
        }
    }

    /// Form-(2) rule: prefer smaller `attr` (paper's π2: lower mileage).
    pub fn prefer_smaller(id: &str, tag: &str, attr: &str) -> Self {
        ValueOrderingRule {
            id: id.to_string(),
            tag: tag.to_string(),
            equal_attrs: Vec::new(),
            guards: Vec::new(),
            form: VorForm::AttrCompare {
                attr: attr.to_string(),
                op: PrefOp::Lt,
            },
            priority: 0,
        }
    }

    /// Form-(2) rule: prefer larger `attr` (paper's π3: higher horsepower).
    pub fn prefer_larger(id: &str, tag: &str, attr: &str) -> Self {
        ValueOrderingRule {
            id: id.to_string(),
            tag: tag.to_string(),
            equal_attrs: Vec::new(),
            guards: Vec::new(),
            form: VorForm::AttrCompare {
                attr: attr.to_string(),
                op: PrefOp::Gt,
            },
            priority: 0,
        }
    }

    /// Form-(3) rule: prefer along a partial order on `attr`.
    pub fn prefer_order(id: &str, tag: &str, attr: &str, order: PrefRel) -> Self {
        ValueOrderingRule {
            id: id.to_string(),
            tag: tag.to_string(),
            equal_attrs: Vec::new(),
            guards: Vec::new(),
            form: VorForm::Preference {
                attr: attr.to_string(),
                order,
            },
            priority: 0,
        }
    }

    /// Builder: equate `attr` between the two answers (`x.make = y.make`).
    pub fn with_equal_attr(mut self, attr: &str) -> Self {
        self.equal_attrs.push(attr.to_string());
        self
    }

    /// Builder: add a symmetric local guard.
    pub fn with_guard(mut self, attr: &str, op: RelOp, value: AttrValue) -> Self {
        self.guards.push(LocalGuard {
            attr: attr.to_string(),
            op,
            value,
        });
        self
    }

    /// Builder: set the priority class (smaller = consulted earlier).
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// `local*` constraints of the rule's `x` variable (used by the
    /// ambiguity analysis). `x` is the *preferred* side.
    pub fn local_x(&self) -> LocalSet {
        self.local_common(true)
    }

    /// `local*` constraints of the rule's `y` variable.
    pub fn local_y(&self) -> LocalSet {
        self.local_common(false)
    }

    fn local_common(&self, is_x: bool) -> LocalSet {
        let mut s = LocalSet::new();
        // Rule construction keeps these consistent; a degenerate rule
        // (contradictory guards) can never fire, so an inconsistent local
        // set is represented by keeping whatever merged cleanly.
        let _ = s.require_tag(&self.tag);
        for g in &self.guards {
            let c = match &g.value {
                AttrValue::Num(n) => Const::Num(*n),
                AttrValue::Str(t) => Const::Str(t.clone()),
            };
            let _ = s.add(&g.attr, g.op, c);
        }
        if let VorForm::EqConst { attr, value } = &self.form {
            let op = if is_x { RelOp::Eq } else { RelOp::Ne };
            let _ = s.add(attr, op, Const::Str(value.clone()));
        }
        s
    }

    /// The attribute the head inspects (what the runtime must fetch).
    pub fn head_attr(&self) -> &str {
        match &self.form {
            VorForm::EqConst { attr, .. }
            | VorForm::AttrCompare { attr, .. }
            | VorForm::Preference { attr, .. } => attr,
        }
    }

    /// All attributes the rule touches at runtime.
    pub fn attrs(&self) -> Vec<&str> {
        let mut out = vec![self.head_attr()];
        out.extend(self.equal_attrs.iter().map(String::as_str));
        out.extend(self.guards.iter().map(|g| g.attr.as_str()));
        out
    }
}

/// The canonical text rendering of a numeric attribute value (integral
/// values print without a fractional part). Shared with the compiled-key
/// path in [`crate::vor_table`], which must render identically.
pub(crate) fn format_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        n.to_string()
    }
}

/// Outcome of one rule on a pair of answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleCmp {
    /// The rule strictly prefers the first answer.
    PreferA,
    /// The rule strictly prefers the second answer.
    PreferB,
    /// Both answers are equivalent w.r.t. the rule's property.
    Equal,
    /// The rule does not apply / cannot decide.
    NoInfo,
}

/// Combined outcome of a VOR set on a pair of answers (the `≺_V` relation
/// used by Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VorOutcome {
    /// `a ≺_V b`.
    PreferA,
    /// `b ≺_V a`.
    PreferB,
    /// `a ==_V b`: equivalent on every rule.
    Equal,
    /// Incomparable w.r.t. `≺_V`.
    Incomparable,
}

impl fmt::Display for VorOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VorOutcome::PreferA => "a ≺ b",
            VorOutcome::PreferB => "b ≺ a",
            VorOutcome::Equal => "a == b",
            VorOutcome::Incomparable => "a ∥ b",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_sets_for_ambiguity() {
        let pi1 = ValueOrderingRule::prefer_value("pi1", "car", "color", "red");
        let x = pi1.local_x();
        let y = pi1.local_y();
        assert!(!x.compatible(&y)); // red vs non-red
        let pi2 = ValueOrderingRule::prefer_smaller("pi2", "car", "mileage");
        assert!(y.compatible(&pi2.local_x())); // the paper's y/u pair
    }

    #[test]
    fn attr_value_coercions() {
        assert!(AttrValue::Str("33".into()).same(&AttrValue::Num(33.0)));
        assert_eq!(AttrValue::Str(" 42 ".into()).as_num(), Some(42.0));
        assert_eq!(AttrValue::Num(42.0).as_text(), "42");
        assert_eq!(AttrValue::Num(2.5).as_text(), "2.5");
    }
}
