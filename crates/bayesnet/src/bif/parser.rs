//! Recursive-descent parser for the BIF format.

use std::collections::HashMap;

use super::lexer::{tokenize, LexError, Token, TokenKind};
use crate::network::{BayesianNetwork, NetworkBuilder, NetworkError};
use crate::variable::Variable;

/// Parse/IO failures, with source line where applicable.
#[derive(Debug, Clone, PartialEq)]
pub enum BifError {
    /// Tokenizer failure.
    Lex(LexError),
    /// Filesystem failure (message of the underlying `io::Error`).
    Io(String),
    /// Unexpected token.
    Unexpected {
        /// Source line.
        line: usize,
        /// Human description of what the parser wanted.
        expected: String,
        /// What it found.
        got: String,
    },
    /// Input ended too early.
    UnexpectedEof {
        /// What the parser wanted next.
        expected: String,
    },
    /// A probability block references an undeclared variable.
    UnknownVariable {
        /// Source line.
        line: usize,
        /// The name that failed to resolve.
        name: String,
    },
    /// A row lists a state name that the variable does not have.
    UnknownState {
        /// Source line.
        line: usize,
        /// Variable whose state failed to resolve.
        var: String,
        /// The unresolved state name.
        state: String,
    },
    /// A word failed to parse as a probability.
    BadNumber {
        /// Source line.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A row has the wrong number of probabilities.
    WrongRowLength {
        /// Source line.
        line: usize,
        /// Variable being defined.
        var: String,
        /// Values expected (child cardinality).
        expected: usize,
        /// Values found.
        got: usize,
    },
    /// Some parent configurations were never assigned probabilities.
    MissingRows {
        /// Variable being defined.
        var: String,
        /// How many rows are missing.
        missing: usize,
    },
    /// Two `probability` blocks for the same variable.
    DuplicateProbability {
        /// Source line of the second block.
        line: usize,
        /// The variable.
        var: String,
    },
    /// Final network assembly failed (cycles, bad CPTs, ...).
    Network(NetworkError),
}

impl std::fmt::Display for BifError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BifError::Lex(e) => write!(f, "lex error: {e}"),
            BifError::Io(e) => write!(f, "io error: {e}"),
            BifError::Unexpected {
                line,
                expected,
                got,
            } => write!(f, "line {line}: expected {expected}, got {got:?}"),
            BifError::UnexpectedEof { expected } => {
                write!(f, "unexpected end of file, expected {expected}")
            }
            BifError::UnknownVariable { line, name } => {
                write!(f, "line {line}: unknown variable {name:?}")
            }
            BifError::UnknownState { line, var, state } => {
                write!(f, "line {line}: variable {var:?} has no state {state:?}")
            }
            BifError::BadNumber { line, text } => {
                write!(f, "line {line}: {text:?} is not a number")
            }
            BifError::WrongRowLength {
                line,
                var,
                expected,
                got,
            } => write!(
                f,
                "line {line}: row for {var:?} has {got} values, expected {expected}"
            ),
            BifError::MissingRows { var, missing } => {
                write!(
                    f,
                    "{var:?}: {missing} parent configuration(s) have no probabilities"
                )
            }
            BifError::DuplicateProbability { line, var } => {
                write!(f, "line {line}: duplicate probability block for {var:?}")
            }
            BifError::Network(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for BifError {}

impl From<LexError> for BifError {
    fn from(e: LexError) -> Self {
        BifError::Lex(e)
    }
}

impl From<NetworkError> for BifError {
    fn from(e: NetworkError) -> Self {
        BifError::Network(e)
    }
}

struct VarDecl {
    name: String,
    states: Vec<String>,
}

enum Entries {
    Table(Vec<f64>),
    Rows {
        default: Option<Vec<f64>>,
        rows: Vec<(Vec<String>, Vec<f64>, usize)>, // (parent states, values, line)
    },
}

struct ProbDecl {
    child: String,
    parents: Vec<String>,
    entries: Entries,
    line: usize,
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self, expected: &str) -> Result<Token, BifError> {
        let tok = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| BifError::UnexpectedEof {
                expected: expected.to_string(),
            })?;
        self.pos += 1;
        Ok(tok)
    }

    fn expect_word(&mut self, expected: &str) -> Result<(String, usize), BifError> {
        let tok = self.next(expected)?;
        match tok.kind {
            TokenKind::Word(w) => Ok((w, tok.line)),
            other => Err(BifError::Unexpected {
                line: tok.line,
                expected: expected.to_string(),
                got: other.to_string(),
            }),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<usize, BifError> {
        let (w, line) = self.expect_word(&format!("keyword {kw:?}"))?;
        if w == kw {
            Ok(line)
        } else {
            Err(BifError::Unexpected {
                line,
                expected: format!("keyword {kw:?}"),
                got: w,
            })
        }
    }

    fn expect_punct(&mut self, p: char) -> Result<usize, BifError> {
        let tok = self.next(&format!("{p:?}"))?;
        match tok.kind {
            TokenKind::Punct(c) if c == p => Ok(tok.line),
            other => Err(BifError::Unexpected {
                line: tok.line,
                expected: format!("{p:?}"),
                got: other.to_string(),
            }),
        }
    }

    fn at_punct(&self, p: char) -> bool {
        matches!(self.peek(), Some(Token { kind: TokenKind::Punct(c), .. }) if *c == p)
    }

    fn eat_punct(&mut self, p: char) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Skips the remainder of a `property` declaration (until `;`).
    fn skip_property(&mut self) -> Result<(), BifError> {
        loop {
            let tok = self.next("';' ending property")?;
            if matches!(tok.kind, TokenKind::Punct(';')) {
                return Ok(());
            }
        }
    }

    /// Reads comma/space separated probabilities until (not consuming) `;`.
    fn read_numbers_until_semi(&mut self) -> Result<Vec<f64>, BifError> {
        let mut values = Vec::new();
        loop {
            if self.at_punct(';') {
                self.pos += 1;
                return Ok(values);
            }
            if self.eat_punct(',') {
                continue;
            }
            let (word, line) = self.expect_word("a probability")?;
            let v: f64 = word
                .parse()
                .map_err(|_| BifError::BadNumber { line, text: word })?;
            values.push(v);
        }
    }

    fn parse_network_decl(&mut self) -> Result<String, BifError> {
        self.expect_keyword("network")?;
        // Network name may be several words (quoted names collapse to one);
        // read words until '{'.
        let mut name_parts = Vec::new();
        while !self.at_punct('{') {
            let (w, _) = self.expect_word("network name or '{'")?;
            name_parts.push(w);
        }
        self.expect_punct('{')?;
        while !self.eat_punct('}') {
            let (w, line) = self.expect_word("property or '}'")?;
            if w == "property" {
                self.skip_property()?;
            } else {
                return Err(BifError::Unexpected {
                    line,
                    expected: "property or '}'".into(),
                    got: w,
                });
            }
        }
        Ok(if name_parts.is_empty() {
            "network".to_string()
        } else {
            name_parts.join(" ")
        })
    }

    fn parse_variable_decl(&mut self) -> Result<VarDecl, BifError> {
        let (name, name_line) = self.expect_word("variable name")?;
        self.expect_punct('{')?;
        let mut states = Vec::new();
        while !self.eat_punct('}') {
            let (w, line) = self.expect_word("'type' or 'property'")?;
            match w.as_str() {
                "property" => self.skip_property()?,
                "type" => {
                    self.expect_keyword("discrete")?;
                    self.expect_punct('[')?;
                    let (count_word, cline) = self.expect_word("state count")?;
                    let declared: usize = count_word.parse().map_err(|_| BifError::BadNumber {
                        line: cline,
                        text: count_word,
                    })?;
                    self.expect_punct(']')?;
                    self.expect_punct('{')?;
                    while !self.at_punct('}') {
                        if self.eat_punct(',') {
                            continue;
                        }
                        let (state, _) = self.expect_word("state name")?;
                        states.push(state);
                    }
                    self.expect_punct('}')?;
                    self.eat_punct(';');
                    if states.len() != declared {
                        return Err(BifError::Unexpected {
                            line: cline,
                            expected: format!("{declared} state names"),
                            got: format!("{} state names", states.len()),
                        });
                    }
                }
                other => {
                    return Err(BifError::Unexpected {
                        line,
                        expected: "'type' or 'property'".into(),
                        got: other.to_string(),
                    })
                }
            }
        }
        // `Variable::new` asserts a non-empty state list; reject an empty
        // or missing `type` here so malformed input is an error.
        if states.is_empty() {
            return Err(BifError::Unexpected {
                line: name_line,
                expected: format!("at least one state for {name:?}"),
                got: "none".into(),
            });
        }
        Ok(VarDecl { name, states })
    }

    fn parse_probability_decl(&mut self) -> Result<ProbDecl, BifError> {
        let line = self.expect_punct('(')?;
        let (child, _) = self.expect_word("child variable name")?;
        let mut parents = Vec::new();
        if self.eat_punct('|') {
            loop {
                let (p, _) = self.expect_word("parent variable name")?;
                parents.push(p);
                if !self.eat_punct(',') {
                    break;
                }
            }
        }
        self.expect_punct(')')?;
        self.expect_punct('{')?;

        let mut table: Option<Vec<f64>> = None;
        let mut default: Option<Vec<f64>> = None;
        let mut rows: Vec<(Vec<String>, Vec<f64>, usize)> = Vec::new();
        while !self.eat_punct('}') {
            if self.at_punct('(') {
                // Row entry: ( s1, s2 ) p1, p2, ... ;
                let rline = self.expect_punct('(')?;
                let mut config = Vec::new();
                while !self.at_punct(')') {
                    if self.eat_punct(',') {
                        continue;
                    }
                    let (s, _) = self.expect_word("parent state name")?;
                    config.push(s);
                }
                self.expect_punct(')')?;
                let values = self.read_numbers_until_semi()?;
                rows.push((config, values, rline));
            } else {
                let (w, wline) = self.expect_word("'table', 'default', 'property' or a row")?;
                match w.as_str() {
                    "property" => self.skip_property()?,
                    "table" => table = Some(self.read_numbers_until_semi()?),
                    "default" => default = Some(self.read_numbers_until_semi()?),
                    other => {
                        return Err(BifError::Unexpected {
                            line: wline,
                            expected: "'table', 'default', 'property' or '('".into(),
                            got: other.to_string(),
                        })
                    }
                }
            }
        }
        let entries = match table {
            Some(t) => Entries::Table(t),
            None => Entries::Rows { default, rows },
        };
        Ok(ProbDecl {
            child,
            parents,
            entries,
            line,
        })
    }
}

/// Parses BIF text into a validated [`BayesianNetwork`].
pub fn parse_str(input: &str) -> Result<BayesianNetwork, BifError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0 };

    let name = parser.parse_network_decl()?;
    let mut var_decls: Vec<VarDecl> = Vec::new();
    let mut prob_decls: Vec<ProbDecl> = Vec::new();
    while parser.peek().is_some() {
        let (kw, line) = parser.expect_word("'variable' or 'probability'")?;
        match kw.as_str() {
            "variable" => var_decls.push(parser.parse_variable_decl()?),
            "probability" => prob_decls.push(parser.parse_probability_decl()?),
            other => {
                return Err(BifError::Unexpected {
                    line,
                    expected: "'variable' or 'probability'".into(),
                    got: other.to_string(),
                })
            }
        }
    }

    let mut builder = NetworkBuilder::new().named(name);
    let mut by_name = HashMap::new();
    for decl in &var_decls {
        let id = builder.add_variable(Variable::new(decl.name.clone(), decl.states.clone()));
        // Reject a redeclared name up front: the state lookups below
        // assume one declaration per name.
        if by_name.insert(decl.name.clone(), id).is_some() {
            return Err(NetworkError::DuplicateVariableName(decl.name.clone()).into());
        }
    }
    let state_index = |name: &str, state: &str, line: usize| -> Result<usize, BifError> {
        let decl = var_decls
            .iter()
            .find(|d| d.name == name)
            .expect("resolved before");
        decl.states
            .iter()
            .position(|s| s == state)
            .ok_or_else(|| BifError::UnknownState {
                line,
                var: name.to_string(),
                state: state.to_string(),
            })
    };

    let mut seen = std::collections::HashSet::new();
    for decl in prob_decls {
        let child = *by_name
            .get(&decl.child)
            .ok_or_else(|| BifError::UnknownVariable {
                line: decl.line,
                name: decl.child.clone(),
            })?;
        if !seen.insert(child) {
            return Err(BifError::DuplicateProbability {
                line: decl.line,
                var: decl.child.clone(),
            });
        }
        let parent_ids: Vec<_> = decl
            .parents
            .iter()
            .map(|p| {
                by_name
                    .get(p)
                    .copied()
                    .ok_or_else(|| BifError::UnknownVariable {
                        line: decl.line,
                        name: p.clone(),
                    })
            })
            .collect::<Result<_, _>>()?;
        let child_card = var_decls[child.index()].states.len();
        let parent_cards: Vec<usize> = parent_ids
            .iter()
            .map(|p| var_decls[p.index()].states.len())
            .collect();
        // Enough parents make the table size overflow; that is an input
        // error, not an arithmetic panic.
        let overflow = || BifError::Unexpected {
            line: decl.line,
            expected: format!("a table size for {:?} that fits in usize", decl.child),
            got: format!("{} parents", decl.parents.len()),
        };
        let n_rows = parent_cards
            .iter()
            .try_fold(1usize, |n, &card| n.checked_mul(card))
            .ok_or_else(overflow)?;
        let expected_len = n_rows.checked_mul(child_card).ok_or_else(overflow)?;

        let values = match decl.entries {
            Entries::Table(t) => {
                if t.len() != expected_len {
                    return Err(BifError::WrongRowLength {
                        line: decl.line,
                        var: decl.child.clone(),
                        expected: expected_len,
                        got: t.len(),
                    });
                }
                t
            }
            Entries::Rows { default, rows } => {
                let mut values = vec![f64::NAN; expected_len];
                if let Some(d) = default {
                    if d.len() != child_card {
                        return Err(BifError::WrongRowLength {
                            line: decl.line,
                            var: decl.child.clone(),
                            expected: child_card,
                            got: d.len(),
                        });
                    }
                    for row in 0..n_rows {
                        values[row * child_card..(row + 1) * child_card].copy_from_slice(&d);
                    }
                }
                for (config, row_values, rline) in rows {
                    if config.len() != decl.parents.len() {
                        return Err(BifError::Unexpected {
                            line: rline,
                            expected: format!("{} parent states", decl.parents.len()),
                            got: format!("{} parent states", config.len()),
                        });
                    }
                    if row_values.len() != child_card {
                        return Err(BifError::WrongRowLength {
                            line: rline,
                            var: decl.child.clone(),
                            expected: child_card,
                            got: row_values.len(),
                        });
                    }
                    let mut row = 0usize;
                    for ((pname, state), card) in
                        decl.parents.iter().zip(&config).zip(&parent_cards)
                    {
                        row = row * card + state_index(pname, state, rline)?;
                    }
                    values[row * child_card..(row + 1) * child_card].copy_from_slice(&row_values);
                }
                let missing = values.iter().filter(|v| v.is_nan()).count() / child_card.max(1);
                if missing > 0 {
                    return Err(BifError::MissingRows {
                        var: decl.child.clone(),
                        missing,
                    });
                }
                values
            }
        };
        builder.set_cpt(child, parent_ids, values)?;
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
network mini {
  property note "hand written";
}
variable A {
  type discrete [ 2 ] { yes, no };
}
variable B {
  type discrete [ 3 ] { low, mid, high };
}
probability ( A ) {
  table 0.3, 0.7;
}
probability ( B | A ) {
  (yes) 0.2, 0.3, 0.5;
  (no)  0.6, 0.3, 0.1;
}
"#;

    #[test]
    fn parses_a_small_network() {
        let net = parse_str(MINI).unwrap();
        assert_eq!(net.name(), "mini");
        assert_eq!(net.num_vars(), 2);
        let b = net.var_id("B").unwrap();
        assert_eq!(net.cardinality(b), 3);
        let a = net.var_id("A").unwrap();
        assert_eq!(net.cpt(b).parents(), &[a]);
        assert!((net.cpt(b).probability(2, &[0]) - 0.5).abs() < 1e-12);
        assert!((net.cpt(b).probability(0, &[1]) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn default_rows_fill_unlisted_configs() {
        let text = r#"
network d { }
variable P { type discrete [ 2 ] { a, b }; }
variable C { type discrete [ 2 ] { x, y }; }
probability ( P ) { table 0.5, 0.5; }
probability ( C | P ) {
  default 0.9, 0.1;
  (b) 0.4, 0.6;
}
"#;
        let net = parse_str(text).unwrap();
        let c = net.var_id("C").unwrap();
        assert!((net.cpt(c).probability(0, &[0]) - 0.9).abs() < 1e-12);
        assert!((net.cpt(c).probability(0, &[1]) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn two_parent_rows_use_first_parent_slowest() {
        let text = r#"
network t { }
variable P1 { type discrete [ 2 ] { p1a, p1b }; }
variable P2 { type discrete [ 2 ] { p2a, p2b }; }
variable C { type discrete [ 2 ] { x, y }; }
probability ( P1 ) { table 0.5, 0.5; }
probability ( P2 ) { table 0.5, 0.5; }
probability ( C | P1, P2 ) {
  (p1a, p2a) 0.1, 0.9;
  (p1a, p2b) 0.2, 0.8;
  (p1b, p2a) 0.3, 0.7;
  (p1b, p2b) 0.4, 0.6;
}
"#;
        let net = parse_str(text).unwrap();
        let c = net.var_id("C").unwrap();
        assert!((net.cpt(c).probability(0, &[0, 1]) - 0.2).abs() < 1e-12);
        assert!((net.cpt(c).probability(0, &[1, 0]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn missing_rows_are_reported() {
        let text = r#"
network m { }
variable P { type discrete [ 2 ] { a, b }; }
variable C { type discrete [ 2 ] { x, y }; }
probability ( P ) { table 0.5, 0.5; }
probability ( C | P ) { (a) 0.5, 0.5; }
"#;
        match parse_str(text).unwrap_err() {
            BifError::MissingRows { var, missing } => {
                assert_eq!(var, "C");
                assert_eq!(missing, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_state_is_reported_with_line() {
        let text = "network x { }\nvariable A { type discrete [ 2 ] { yes, no }; }\nvariable B { type discrete [ 2 ] { t, f }; }\nprobability ( A ) { table 0.5, 0.5; }\nprobability ( B | A ) {\n  (maybe) 0.5, 0.5;\n  (no) 0.5, 0.5;\n}";
        match parse_str(text).unwrap_err() {
            BifError::UnknownState { line, var, state } => {
                assert_eq!((line, var.as_str(), state.as_str()), (6, "A", "maybe"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_variable_is_reported() {
        let text = "network x { }\nvariable A { type discrete [ 2 ] { yes, no }; }\nprobability ( A ) { table 0.5, 0.5; }\nprobability ( Ghost ) { table 1.0; }";
        assert!(matches!(
            parse_str(text).unwrap_err(),
            BifError::UnknownVariable { name, .. } if name == "Ghost"
        ));
    }

    #[test]
    fn duplicate_probability_block_rejected() {
        let text = "network x { }\nvariable A { type discrete [ 2 ] { yes, no }; }\nprobability ( A ) { table 0.5, 0.5; }\nprobability ( A ) { table 0.4, 0.6; }";
        assert!(matches!(
            parse_str(text).unwrap_err(),
            BifError::DuplicateProbability { var, .. } if var == "A"
        ));
    }

    #[test]
    fn state_count_mismatch_rejected() {
        let text = "network x { }\nvariable A { type discrete [ 3 ] { yes, no }; }";
        assert!(matches!(
            parse_str(text).unwrap_err(),
            BifError::Unexpected { .. }
        ));
    }

    #[test]
    fn empty_state_list_is_an_error_with_line() {
        let empty = BifError::Unexpected {
            line: 2,
            expected: "at least one state for \"A\"".into(),
            got: "none".into(),
        };
        let text = "network x { }\nvariable A {\n  type discrete [ 0 ] { };\n}";
        assert_eq!(parse_str(text).unwrap_err(), empty);
        // No `type` at all is the same defect.
        let text = "network x { }\nvariable A {\n}";
        assert_eq!(parse_str(text).unwrap_err(), empty);
    }

    #[test]
    fn redeclared_variable_is_an_error_not_a_panic() {
        // The parent's row is resolved against one declaration of `A`
        // and sized by the other; this must fail cleanly.
        let text = "network x { }\n\
                    variable A { type discrete [ 3 ] { a, b, c }; }\n\
                    variable A { type discrete [ 2 ] { a, b }; }\n\
                    variable B { type discrete [ 2 ] { y, n }; }\n\
                    probability ( A ) { table 0.5, 0.5; }\n\
                    probability ( B | A ) { (c) 0.5, 0.5; default 0.5, 0.5; }";
        assert_eq!(
            parse_str(text).unwrap_err(),
            BifError::Network(NetworkError::DuplicateVariableName("A".into()))
        );
    }

    #[test]
    fn overflowing_table_size_is_an_error_not_a_panic() {
        // 2^64 parent configurations: the row count overflows usize.
        let mut text = String::from("network x { }\n");
        for i in 0..64 {
            text += &format!("variable P{i} {{ type discrete [ 2 ] {{ a, b }}; }}\n");
            text += &format!("probability ( P{i} ) {{ table 0.5, 0.5; }}\n");
        }
        text += "variable C { type discrete [ 2 ] { a, b }; }\n";
        let parents: Vec<String> = (0..64).map(|i| format!("P{i}")).collect();
        text += &format!(
            "probability ( C | {} ) {{ default 0.5, 0.5; }}",
            parents.join(", ")
        );
        assert!(matches!(
            parse_str(&text).unwrap_err(),
            BifError::Unexpected { line: 131, got, .. } if got == "64 parents"
        ));
    }

    #[test]
    fn table_length_mismatch_rejected() {
        let text = "network x { }\nvariable A { type discrete [ 2 ] { yes, no }; }\nprobability ( A ) { table 0.5, 0.3, 0.2; }";
        assert!(matches!(
            parse_str(text).unwrap_err(),
            BifError::WrongRowLength { .. }
        ));
    }
}
