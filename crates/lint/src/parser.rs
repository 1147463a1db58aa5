//! A lightweight syntactic layer on top of [`crate::lexer`] — the engine
//! behind the flow-aware rules (`fast-map-iteration`, `panic-index`,
//! `lossy-cast`).
//!
//! The PR-6 linter matched individual tokens, which is enough to ban an
//! identifier (`HashMap`) or a path (`std::thread`), but structurally blind
//! to anything that needs *context*: whether a `for` loop iterates a
//! `FastHashMap`, whether `[` opens an index expression or an array literal,
//! or what the source type of an `as` cast is. This module adds exactly the
//! context those rules need — no more. It is a single forward pass over the
//! token stream that maintains:
//!
//! * a **scope-stacked binding table**: `let` bindings, `fn` parameters and
//!   closure parameters, each classified as a fast map
//!   (`FastHashMap`/`FastHashSet`), a known-width integer, or unknown. Type
//!   propagation is deliberately simple and *conservative*: a binding gets a
//!   type only from an explicit annotation, a suffixed integer literal, a
//!   trailing `as <int>` cast with no top-level operators, a trailing
//!   `.len()`/`.count()` call (→ `usize`), or a
//!   `FastHashMap::…`/`FastHashSet::…` construction. Anything else is
//!   unknown, and unknown never produces a finding. Pattern bindings
//!   (`for (a, b) in …`, `if let Some(x) = …`, closure params) mask outer
//!   bindings of the same name, so shadowing cannot resurrect a stale type.
//! * a **struct-field table** for the file, so `self.field` receivers
//!   resolve (per file — the classic single-translation-unit approximation).
//! * **method-call**, **`for`-loop** and **index-expression** recognition.
//!   A `[` opens an index expression exactly when the previous code token
//!   can end an expression (identifier, literal, `)`, `]`, `?`); everything
//!   else — array literals, types, attributes, slice patterns, macros — is
//!   not flagged.
//!
//! What this layer intentionally does **not** see, so rule consumers (and
//! waiver reviewers) know where the blind spots are: cross-file type
//! aliases, field types of *other* files' structs, match-arm
//! pattern types, and expression types built from binary operators. A cast
//! whose source type is not provable here is simply not reported — the
//! overflow-checks CI lane and review cover the remainder. `usize`/`isize`
//! are treated as 64 bits wide: every supported target (and CI) is 64-bit.

use crate::lexer::{Token, TokenKind};

/// Everything the flow-aware rules need to know about one file.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Line of the first `#[cfg(test)]` attribute, `u32::MAX` when the file
    /// has no test module. Rules that exempt test code compare against this.
    pub test_start: u32,
    /// Iteration events on values known to be `FastHashMap`/`FastHashSet`.
    pub fast_map_iterations: Vec<MapIteration>,
    /// Index expressions `expr[…]` (both `x[i]` and `x[a..b]` forms).
    pub index_exprs: Vec<IndexExpr>,
    /// `as` casts between integer types whose source type is provable.
    pub int_casts: Vec<IntCast>,
}

/// One banned-iteration event on a fast map.
#[derive(Debug)]
pub struct MapIteration {
    pub line: u32,
    /// Human-readable description of the offending form, e.g.
    /// `` `for … in by_slot` `` or `` `self.forward.iter()` ``.
    pub what: String,
}

/// One index expression.
#[derive(Debug)]
pub struct IndexExpr {
    pub line: u32,
}

/// One integer `as` cast with a provable source type.
#[derive(Debug)]
pub struct IntCast {
    pub line: u32,
    pub src: IntTy,
    pub dst: IntTy,
    /// What proved the source type, for the diagnostic (`` `x: u64` `` or
    /// `` `.len()` ``).
    pub provenance: String,
}

/// A primitive integer type, with `usize`/`isize` pinned to 64 bits (the
/// workspace's only supported pointer width — see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntTy {
    pub name: &'static str,
    pub bits: u16,
    pub signed: bool,
}

const INT_TYS: &[IntTy] = &[
    IntTy {
        name: "u8",
        bits: 8,
        signed: false,
    },
    IntTy {
        name: "u16",
        bits: 16,
        signed: false,
    },
    IntTy {
        name: "u32",
        bits: 32,
        signed: false,
    },
    IntTy {
        name: "u64",
        bits: 64,
        signed: false,
    },
    IntTy {
        name: "u128",
        bits: 128,
        signed: false,
    },
    IntTy {
        name: "usize",
        bits: 64,
        signed: false,
    },
    IntTy {
        name: "i8",
        bits: 8,
        signed: true,
    },
    IntTy {
        name: "i16",
        bits: 16,
        signed: true,
    },
    IntTy {
        name: "i32",
        bits: 32,
        signed: true,
    },
    IntTy {
        name: "i64",
        bits: 64,
        signed: true,
    },
    IntTy {
        name: "i128",
        bits: 128,
        signed: true,
    },
    IntTy {
        name: "isize",
        bits: 64,
        signed: true,
    },
];

/// Looks up a primitive integer type by name.
pub fn int_ty(name: &str) -> Option<IntTy> {
    INT_TYS.iter().copied().find(|t| t.name == name)
}

impl IntTy {
    /// `true` when a cast into `dst` can lose information: any value of
    /// `self` that `dst` cannot represent makes the `as` cast wrap silently.
    pub fn loses_into(self, dst: IntTy) -> bool {
        if self.signed == dst.signed {
            self.bits > dst.bits
        } else if self.signed {
            // signed → unsigned always loses the negatives.
            true
        } else {
            // unsigned → signed needs one extra bit.
            self.bits >= dst.bits
        }
    }
}

/// What the binding table knows about one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarTy {
    /// `FastHashMap` or `FastHashSet`.
    FastMap,
    Int(IntTy),
    /// Bound, but with an unprovable type. Masks outer bindings.
    Unknown,
}

/// The iteration methods banned on fast maps. `entry`, `get`, `insert`,
/// `remove`, `contains_key` — the lookup vocabulary — are all fine.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "into_iter",
    "drain",
    "retain",
];

/// Keywords that can directly precede `[` without ending an expression.
/// An identifier *not* in this set followed by `[` is an index expression.
const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "static", "struct", "trait", "type", "unsafe", "use", "where", "while",
];

/// Runs the analysis over a file's full token stream (comments included —
/// they are filtered here).
pub fn analyze(tokens: &[Token]) -> Analysis {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    Analyzer {
        code,
        fields: Vec::new(),
        scopes: vec![Vec::new()],
        pending: Vec::new(),
        out: Analysis {
            test_start: u32::MAX,
            ..Analysis::default()
        },
    }
    .run()
}

struct Analyzer<'a> {
    code: Vec<&'a Token>,
    /// Names of struct fields (of any struct in this file) typed
    /// `FastHashMap`/`FastHashSet`.
    fields: Vec<String>,
    /// Innermost scope last; lookups scan from the end.
    scopes: Vec<Vec<(String, VarTy)>>,
    /// Bindings waiting for the next `{` to open their scope (fn and
    /// for-loop bindings live in the body, not the enclosing block).
    pending: Vec<(String, VarTy)>,
    out: Analysis,
}

impl<'a> Analyzer<'a> {
    fn tok(&self, i: usize) -> Option<&'a Token> {
        self.code.get(i).copied()
    }

    fn is_kw(tok: &Token, kw: &str) -> bool {
        tok.kind == TokenKind::Ident && tok.text == kw
    }

    /// `true` when `tok` can be the last token of an expression, which is
    /// what distinguishes `expr[…]` (indexing) from `[…]` (array literal,
    /// slice pattern, attribute, type).
    fn ends_expression(tok: &Token) -> bool {
        match tok.kind {
            TokenKind::Ident => !KEYWORDS.contains(&tok.text.as_str()),
            TokenKind::Int | TokenKind::Float | TokenKind::Str | TokenKind::Char => true,
            TokenKind::Punct => tok.is_punct(')') || tok.is_punct(']') || tok.is_punct('?'),
            _ => false,
        }
    }

    fn bind(&mut self, name: String, ty: VarTy) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.push((name, ty));
        }
    }

    fn lookup(&self, name: &str) -> Option<VarTy> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.iter().rev().find(|(n, _)| n == name).map(|(_, t)| *t))
    }

    fn run(mut self) -> Analysis {
        self.collect_fields();
        let mut i = 0;
        while i < self.code.len() {
            let tok = self.code[i];
            // First #[cfg(test)] attribute: everything from here on is test
            // code for the rules that exempt it.
            if self.out.test_start == u32::MAX
                && tok.is_punct('#')
                && self.tok(i + 1).is_some_and(|t| t.is_punct('['))
                && self.tok(i + 2).is_some_and(|t| t.is_ident("cfg"))
                && self.tok(i + 3).is_some_and(|t| t.is_punct('('))
                && self.tok(i + 4).is_some_and(|t| t.is_ident("test"))
            {
                self.out.test_start = tok.line;
            }

            match tok.kind {
                TokenKind::Punct if tok.is_punct('{') => {
                    let scope = std::mem::take(&mut self.pending);
                    self.scopes.push(scope);
                    i += 1;
                }
                TokenKind::Punct if tok.is_punct('}') => {
                    if self.scopes.len() > 1 {
                        self.scopes.pop();
                    }
                    i += 1;
                }
                TokenKind::Punct if tok.is_punct('[') => {
                    if i > 0 && Self::ends_expression(self.code[i - 1]) {
                        self.out.index_exprs.push(IndexExpr { line: tok.line });
                    }
                    i += 1;
                }
                TokenKind::Punct if tok.is_punct('|') => {
                    // Closure-parameter list iff the `|` cannot continue an
                    // expression (otherwise it is bitwise/pattern or). A `|`
                    // directly after another `|` is the second half of `||`
                    // (logical or, or an empty closure the first `|` already
                    // consumed) — never a parameter-list opener.
                    let after_or = i > 0 && self.code[i - 1].is_punct('|');
                    if !after_or && (i == 0 || !Self::ends_expression(self.code[i - 1])) {
                        i = self.closure_params(i + 1);
                    } else {
                        i += 1;
                    }
                }
                TokenKind::Ident if tok.text == "fn" => {
                    i = self.fn_signature(i + 1);
                }
                TokenKind::Ident if tok.text == "let" => {
                    i = self.let_binding(i + 1);
                }
                TokenKind::Ident
                    if tok.text == "for"
                        && !self.tok(i + 1).is_some_and(|t| t.is_punct('<'))
                        && (i == 0 || !Self::ends_expression(self.code[i - 1])) =>
                {
                    // A `for` loop — not `impl Trait for Type` (preceded by
                    // the trait name) and not `for<'a>` bounds.
                    i = self.for_loop(i + 1);
                }
                TokenKind::Ident if tok.text == "as" => {
                    self.cast(i);
                    i += 1;
                }
                TokenKind::Ident
                    if ITER_METHODS.contains(&tok.text.as_str())
                        && self.tok(i + 1).is_some_and(|t| t.is_punct('('))
                        && i > 0
                        && self.code[i - 1].is_punct('.') =>
                {
                    self.method_call(i);
                    i += 1;
                }
                _ => i += 1,
            }
        }
        self.out
    }

    /// Pre-pass: record every `FastHashMap`/`FastHashSet`-typed named field
    /// of every struct in the file, so `self.field` receivers resolve.
    fn collect_fields(&mut self) {
        let mut i = 0;
        while i < self.code.len() {
            if Self::is_kw(self.code[i], "struct") {
                // Skip name and generics to the `{` (tuple structs end at
                // `(`/`;` and have no named fields).
                let mut j = i + 1;
                let mut angle = 0i32;
                while let Some(t) = self.tok(j) {
                    if t.is_punct('<') {
                        angle += 1;
                    } else if t.is_punct('>') {
                        angle -= 1;
                    } else if angle == 0 && (t.is_punct(';') || t.is_punct('(')) {
                        break;
                    } else if angle == 0 && t.is_punct('{') {
                        self.struct_fields(j + 1);
                        break;
                    }
                    j += 1;
                }
            }
            i += 1;
        }
    }

    /// Scans the named fields between a struct's braces (starting just past
    /// the `{`).
    fn struct_fields(&mut self, mut i: usize) {
        let mut depth = 0i32;
        while let Some(t) = self.tok(i) {
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('}') {
                if depth == 0 {
                    return;
                }
                depth -= 1;
            } else if depth == 0
                && t.kind == TokenKind::Ident
                && self.tok(i + 1).is_some_and(|n| n.is_punct(':'))
                && !self.tok(i + 2).is_some_and(|n| n.is_punct(':'))
            {
                let (ty, next) = self.type_annotation(i + 2);
                if ty == VarTy::FastMap {
                    self.fields.push(t.text.clone());
                }
                i = next;
                continue;
            }
            i += 1;
        }
    }

    /// Classifies a type annotation starting at `i` (just past the `:`).
    /// Returns the classified type and the index one past the annotation
    /// (`,`, `)`, `=`, `;`, `{` or `|` at depth 0 end it).
    fn type_annotation(&self, mut i: usize) -> (VarTy, usize) {
        let mut angle = 0i32;
        let mut depth = 0i32;
        let mut ty = VarTy::Unknown;
        let mut single: Option<&str> = None;
        let mut tokens_seen = 0usize;
        while let Some(t) = self.tok(i) {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                // `->` inside Fn-trait sugar does not close a generic list.
                if !(i > 0 && self.code[i - 1].is_punct('-')) {
                    angle -= 1;
                }
            } else if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if angle <= 0
                && depth == 0
                && (t.is_punct(',')
                    || t.is_punct('=')
                    || t.is_punct(';')
                    || t.is_punct('{')
                    || t.is_punct('|'))
            {
                break;
            }
            if t.kind == TokenKind::Ident {
                if angle == 0 && (t.text == "FastHashMap" || t.text == "FastHashSet") {
                    ty = VarTy::FastMap;
                }
                tokens_seen += 1;
                single = if tokens_seen == 1 {
                    Some(t.text.as_str())
                } else {
                    None
                };
            } else if !t.is_punct('&') && !Self::is_kw(t, "mut") {
                // Any structural punctuation beyond `&mut` prefixes means
                // the type is not a bare integer ident.
                if !matches!(t.text.as_str(), "mut") {
                    tokens_seen += 1;
                    single = None;
                }
            }
            i += 1;
        }
        if ty == VarTy::Unknown {
            if let Some(name) = single.and_then(int_ty) {
                ty = VarTy::Int(name);
            }
        }
        (ty, i)
    }

    /// Parses `fn name [<generics>] (params)`, queueing parameter bindings
    /// for the body scope. Returns the index of the token after the `)` (the
    /// main loop then walks the return type and body normally).
    fn fn_signature(&mut self, mut i: usize) -> usize {
        // fn name
        if self.tok(i).is_some_and(|t| t.kind == TokenKind::Ident) {
            i += 1;
        }
        // generics
        if self.tok(i).is_some_and(|t| t.is_punct('<')) {
            let mut angle = 0i32;
            while let Some(t) = self.tok(i) {
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') && !(i > 0 && self.code[i - 1].is_punct('-')) {
                    angle -= 1;
                    if angle == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
        }
        let Some(t) = self.tok(i) else { return i };
        if !t.is_punct('(') {
            return i;
        }
        i += 1;
        // One parameter per iteration: `[mut] name: Type` binds; any other
        // pattern shape is skipped to the next `,` at depth 0.
        loop {
            match self.tok(i) {
                None => return i,
                Some(t) if t.is_punct(')') => return i + 1,
                Some(t) if t.is_punct(',') => {
                    i += 1;
                }
                Some(t) => {
                    let start = i;
                    let mut j = i;
                    if Self::is_kw(t, "mut") {
                        j += 1;
                    }
                    let named = self.tok(j).is_some_and(|n| {
                        n.kind == TokenKind::Ident && !KEYWORDS.contains(&n.text.as_str())
                    }) && self.tok(j + 1).is_some_and(|n| n.is_punct(':'))
                        && !self.tok(j + 2).is_some_and(|n| n.is_punct(':'));
                    if named {
                        let name = self.tok(j).expect("checked").text.clone();
                        let (ty, next) = self.type_annotation(j + 2);
                        self.pending.push((name, ty));
                        i = next;
                    } else {
                        // `self`, `&self`, pattern params: skip to `,`/`)`.
                        i = self.skip_to_comma(start);
                    }
                }
            }
        }
    }

    /// Advances to the next `,` or `)` at depth 0, starting inside a
    /// parameter list.
    fn skip_to_comma(&self, mut i: usize) -> usize {
        let mut depth = 0i32;
        let mut angle = 0i32;
        while let Some(t) = self.tok(i) {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            } else if t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !(i > 0 && self.code[i - 1].is_punct('-')) {
                angle -= 1;
            } else if t.is_punct(',') && depth == 0 && angle <= 0 {
                return i;
            }
            i += 1;
        }
        i
    }

    /// Parses a `let` statement starting just past the `let` keyword: a
    /// plain `[mut] name` pattern gets a classified binding (annotation
    /// first, initializer inference second); any other pattern masks every
    /// identifier it binds.
    fn let_binding(&mut self, mut i: usize) -> usize {
        if self.tok(i).is_some_and(|t| Self::is_kw(t, "mut")) {
            i += 1;
        }
        let plain = self
            .tok(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && !KEYWORDS.contains(&t.text.as_str()))
            && self
                .tok(i + 1)
                .is_some_and(|t| t.is_punct(':') || t.is_punct('=') || t.is_punct(';'))
            && !self.tok(i + 2).is_some_and(|t| t.is_punct(':'));
        if !plain {
            // Destructuring / `if let` pattern: mask each bound identifier
            // (conservatively, every identifier up to `=` or `;` at depth 0
            // that is not a path segment or enum/struct name in call
            // position).
            let mut depth = 0i32;
            while let Some(t) = self.tok(i) {
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if depth <= 0 && (t.is_punct('=') || t.is_punct(';')) {
                    return i;
                } else if t.kind == TokenKind::Ident
                    && !KEYWORDS.contains(&t.text.as_str())
                    && self
                        .tok(i + 1)
                        .is_none_or(|n| !n.is_punct('(') && !n.is_punct(':'))
                    && !(i > 0 && self.code[i - 1].is_punct(':'))
                {
                    self.bind(t.text.clone(), VarTy::Unknown);
                }
                i += 1;
            }
            return i;
        }
        let name = self.tok(i).expect("checked").text.clone();
        i += 1;
        let mut ty = VarTy::Unknown;
        if self.tok(i).is_some_and(|t| t.is_punct(':')) {
            let (t, next) = self.type_annotation(i + 1);
            ty = t;
            i = next;
        }
        if self.tok(i).is_some_and(|t| t.is_punct('=')) && ty == VarTy::Unknown {
            ty = self.infer_initializer(i + 1);
        }
        self.bind(name, ty);
        // Resume at the initializer so casts/calls inside it are analyzed.
        i
    }

    /// Infers the type of an initializer by lookahead (nothing is consumed):
    /// a `FastHashMap`/`FastHashSet` construction, a suffixed integer
    /// literal, a trailing `as <int>` cast, or a trailing `.len()`/`.count()`
    /// call — each only when no top-level binary operator makes the overall
    /// type something else.
    fn infer_initializer(&self, start: usize) -> VarTy {
        // Find the terminating `;` at depth 0 and scan for top-level
        // operators on the way.
        let mut depth = 0i32;
        let mut end = start;
        let mut has_operator = false;
        while let Some(t) = self.tok(end) {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(';') {
                break;
            } else if depth == 0
                && t.kind == TokenKind::Punct
                && matches!(
                    t.text.as_str(),
                    "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|" | "<" | ">" | "="
                )
            {
                // `&` as a leading reference is fine; any operator after the
                // first token makes the expression type unprovable here.
                if end > start {
                    has_operator = true;
                }
            }
            end += 1;
        }
        if end == start {
            return VarTy::Unknown;
        }
        // FastHashMap::default() and friends (with or without a path prefix).
        let mut j = start;
        while j < end {
            let t = self.code[j];
            if t.kind == TokenKind::Ident && (t.text == "FastHashMap" || t.text == "FastHashSet") {
                return VarTy::FastMap;
            }
            if t.is_punct('(') {
                break;
            }
            j += 1;
        }
        if has_operator {
            return VarTy::Unknown;
        }
        // Single suffixed integer literal.
        if end == start + 1 && self.code[start].kind == TokenKind::Int {
            if let Some(ty) = int_suffix(&self.code[start].text) {
                return VarTy::Int(ty);
            }
        }
        // Trailing `as <int>`.
        if end >= start + 2
            && Self::is_kw(self.code[end - 2], "as")
            && self.code[end - 1].kind == TokenKind::Ident
        {
            if let Some(ty) = int_ty(&self.code[end - 1].text) {
                return VarTy::Int(ty);
            }
        }
        // Trailing `.len()` / `.count()`.
        if end >= start + 4
            && self.code[end - 1].is_punct(')')
            && self.code[end - 2].is_punct('(')
            && (self.code[end - 3].is_ident("len") || self.code[end - 3].is_ident("count"))
            && self.code[end - 4].is_punct('.')
        {
            return VarTy::Int(int_ty("usize").expect("usize is registered"));
        }
        VarTy::Unknown
    }

    /// Parses `for <pattern> in <expr> {`: pattern identifiers are queued as
    /// masking bindings for the body scope, and the iterated expression is
    /// checked against the fast-map table when it is a bare binding or
    /// `self.field` reference (method-call iteration like `.keys()` is
    /// caught by the method-call recognizer instead).
    fn for_loop(&mut self, mut i: usize) -> usize {
        // Pattern, up to the `in` at depth 0.
        let mut depth = 0i32;
        while let Some(t) = self.tok(i) {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && Self::is_kw(t, "in") {
                i += 1;
                break;
            } else if t.kind == TokenKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
                self.pending.push((t.text.clone(), VarTy::Unknown));
            }
            i += 1;
        }
        // Iterated expression, up to the body `{` at depth 0.
        let expr_start = i;
        let mut depth = 0i32;
        while let Some(t) = self.tok(i) {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct('{') {
                break;
            }
            i += 1;
        }
        if let Some((name, line)) = self.simple_operand(expr_start, i) {
            if self.operand_is_fast_map(&name) {
                self.out.fast_map_iterations.push(MapIteration {
                    line,
                    what: format!("`for … in {name}`"),
                });
            }
        }
        // Resume at the iterated expression so method calls, casts and
        // index expressions inside it are analyzed; the main loop reaches
        // the body `{` afterwards and opens the scope that receives the
        // queued pattern bindings.
        expr_start
    }

    /// Recognizes `[&[mut]] name` and `[&[mut]] self.field` between `start`
    /// and `end`, returning the printable name and its line.
    fn simple_operand(&self, mut start: usize, end: usize) -> Option<(String, u32)> {
        while start < end
            && (self.code[start].is_punct('&') || Self::is_kw(self.code[start], "mut"))
        {
            start += 1;
        }
        let toks = &self.code[start..end];
        match toks {
            [t] if t.kind == TokenKind::Ident => Some((t.text.clone(), t.line)),
            [s, dot, f]
                if Self::is_kw(s, "self") && dot.is_punct('.') && f.kind == TokenKind::Ident =>
            {
                Some((format!("self.{}", f.text), f.line))
            }
            _ => None,
        }
    }

    /// `true` when `name` (a bare binding or `self.field` from
    /// [`Analyzer::simple_operand`]) resolves to a fast map.
    fn operand_is_fast_map(&self, name: &str) -> bool {
        if let Some(field) = name.strip_prefix("self.") {
            self.fields.iter().any(|f| f == field)
        } else {
            self.lookup(name) == Some(VarTy::FastMap)
        }
    }

    /// Handles a banned iteration method name at `i` (already known to be
    /// preceded by `.` and followed by `(`): resolves the receiver and
    /// records the event when it is a fast map.
    fn method_call(&mut self, i: usize) {
        let method = &self.code[i].text;
        // Receiver ends at i-2 (the token before the `.`).
        if i < 2 {
            return;
        }
        let recv = self.code[i - 2];
        if recv.kind != TokenKind::Ident {
            return;
        }
        let (name, resolved) = if i >= 4
            && self.code[i - 3].is_punct('.')
            && Self::is_kw(self.code[i - 4], "self")
            && !self.fields.is_empty()
        {
            let name = format!("self.{}", recv.text);
            let hit = self.fields.contains(&recv.text);
            (name, hit)
        } else {
            // A bare identifier receiver, not itself a field/path segment.
            if i >= 3 && (self.code[i - 3].is_punct('.') || self.code[i - 3].is_punct(':')) {
                return;
            }
            let hit = self.lookup(&recv.text) == Some(VarTy::FastMap);
            (recv.text.clone(), hit)
        };
        if resolved {
            self.out.fast_map_iterations.push(MapIteration {
                line: self.code[i].line,
                what: format!("`{name}.{method}()`"),
            });
        }
    }

    /// Parses a closure parameter list starting just past the opening `|`:
    /// `name [: Type]` bindings go into the current scope (slightly wider
    /// than the closure body — harmless, since a stale binding would not
    /// compile in real code). Returns the index past the closing `|`.
    fn closure_params(&mut self, mut i: usize) -> usize {
        loop {
            match self.tok(i) {
                None => return i,
                Some(t) if t.is_punct('|') => return i + 1,
                Some(t) if t.is_punct(',') => i += 1,
                Some(t) => {
                    let mut j = i;
                    if Self::is_kw(t, "mut") {
                        j += 1;
                    }
                    let named = self.tok(j).is_some_and(|n| {
                        n.kind == TokenKind::Ident && !KEYWORDS.contains(&n.text.as_str())
                    });
                    if named {
                        let name = self.tok(j).expect("checked").text.clone();
                        if self.tok(j + 1).is_some_and(|n| n.is_punct(':')) {
                            let (ty, next) = self.type_annotation(j + 2);
                            self.bind(name, ty);
                            i = next;
                            continue;
                        }
                        self.bind(name, VarTy::Unknown);
                        i = j + 1;
                    } else {
                        // Pattern parameter: mask its identifiers up to the
                        // next `,`/`|` at depth 0.
                        let mut depth = 0i32;
                        while let Some(t) = self.tok(i) {
                            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                                depth += 1;
                            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                                depth -= 1;
                            } else if depth == 0 && (t.is_punct(',') || t.is_punct('|')) {
                                break;
                            } else if t.kind == TokenKind::Ident
                                && !KEYWORDS.contains(&t.text.as_str())
                            {
                                self.bind(t.text.clone(), VarTy::Unknown);
                            }
                            i += 1;
                        }
                    }
                }
            }
        }
    }

    /// Handles an `as` keyword at `i`: when the destination is an integer
    /// type and the source type is provable, records the cast.
    fn cast(&mut self, i: usize) {
        let Some(dst) = self
            .tok(i + 1)
            .filter(|t| t.kind == TokenKind::Ident)
            .and_then(|t| int_ty(&t.text))
        else {
            return;
        };
        if i == 0 {
            return;
        }
        let prev = self.code[i - 1];
        let (src, provenance) = match prev.kind {
            // Suffixed integer literal: `5u64 as u32`.
            TokenKind::Int => match int_suffix(&prev.text) {
                Some(ty) => (ty, format!("literal `{}`", prev.text)),
                None => return,
            },
            // `x.len() as T` / `x.count() as T`.
            TokenKind::Punct
                if prev.is_punct(')')
                    && i >= 5
                    && self.code[i - 2].is_punct('(')
                    && (self.code[i - 3].is_ident("len") || self.code[i - 3].is_ident("count"))
                    && self.code[i - 4].is_punct('.') =>
            {
                (
                    int_ty("usize").expect("usize is registered"),
                    format!("`.{}()` returns usize", self.code[i - 3].text),
                )
            }
            // A bare binding with a known integer type (not a field access
            // or path segment).
            TokenKind::Ident if !KEYWORDS.contains(&prev.text.as_str()) => {
                if i >= 2 && (self.code[i - 2].is_punct('.') || self.code[i - 2].is_punct(':')) {
                    return;
                }
                match self.lookup(&prev.text) {
                    Some(VarTy::Int(ty)) => (ty, format!("`{}: {}`", prev.text, ty.name)),
                    _ => return,
                }
            }
            _ => return,
        };
        if src.loses_into(dst) {
            self.out.int_casts.push(IntCast {
                line: self.code[i + 1].line,
                src,
                dst,
                provenance,
            });
        }
    }
}

/// Integer-type suffix of an integer literal (`10u64` → `u64`), if any.
fn int_suffix(text: &str) -> Option<IntTy> {
    INT_TYS
        .iter()
        .copied()
        .find(|t| text.ends_with(t.name) && text.len() > t.name.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn run(src: &str) -> Analysis {
        analyze(&tokenize(src))
    }

    // --- binding table and type propagation ---

    #[test]
    fn annotated_let_bindings_propagate_integer_types() {
        let a = run("fn f() { let x: u64 = g(); let _ = x as u32; }");
        assert_eq!(a.int_casts.len(), 1);
        assert_eq!(a.int_casts[0].src.name, "u64");
        assert_eq!(a.int_casts[0].dst.name, "u32");
        assert!(a.int_casts[0].provenance.contains("x: u64"));
    }

    #[test]
    fn fn_params_propagate_and_widening_is_clean() {
        // usize -> u64 is lossless under the 64-bit contract; usize -> u32
        // is not.
        let a = run("fn f(n: usize, m: u32) { let _ = n as u64 + m as u64; let _ = n as u32; }");
        assert_eq!(a.int_casts.len(), 1);
        assert_eq!(a.int_casts[0].src.name, "usize");
        assert_eq!(a.int_casts[0].dst.name, "u32");
    }

    #[test]
    fn initializer_inference_covers_suffix_cast_and_len() {
        let a = run("fn f(v: &[u8]) {\n\
             let a = 5u64; let _ = a as u16;\n\
             let b = v.len(); let _ = b as u32;\n\
             let c = compute() as i64; let _ = c as i32;\n\
             }");
        let srcs: Vec<&str> = a.int_casts.iter().map(|c| c.src.name).collect();
        assert_eq!(srcs, ["u64", "usize", "i64"]);
    }

    #[test]
    fn operator_initializers_are_not_inferred() {
        // `frame as i64 + off as i64` has a top-level operator: the overall
        // type is not provable by the trailing-cast heuristic alone.
        let a = run("fn f() { let tf = frame as i64 + off as i64; let _ = tf as u32; }");
        assert!(a.int_casts.is_empty(), "{:?}", a.int_casts);
    }

    #[test]
    fn direct_len_cast_is_provable() {
        let a = run("fn f(v: &[u8]) { let _ = v.len() as u32; let _ = v.len() as u64; }");
        assert_eq!(a.int_casts.len(), 1, "{:?}", a.int_casts);
        assert!(a.int_casts[0].provenance.contains("len"));
    }

    #[test]
    fn signedness_changes_are_lossy_both_ways() {
        let a = run("fn f(s: i64, u: u64) { let _ = s as u64; let _ = u as i64; }");
        assert_eq!(a.int_casts.len(), 2);
        // Same-width signed->wider-signed is fine.
        let b = run("fn f(s: i32) { let _ = s as i64; }");
        assert!(b.int_casts.is_empty());
        // unsigned -> strictly wider signed is fine.
        let c = run("fn f(u: u32) { let _ = u as i64; }");
        assert!(c.int_casts.is_empty());
    }

    #[test]
    fn shadowing_masks_outer_types() {
        // The `for` pattern rebinds x with an unknown type; the cast inside
        // the body must not resolve against the outer u64.
        let a = run("fn f() { let x: u64 = g(); for x in 0..3 { let _ = x as u32; } }");
        assert!(a.int_casts.is_empty(), "{:?}", a.int_casts);
        // Closure params mask too.
        let b = run("fn f() { let x: u64 = g(); h(|x| x as u32); }");
        assert!(b.int_casts.is_empty(), "{:?}", b.int_casts);
        // ... but an annotated closure param resolves with its own type.
        let c = run("fn f() { h(|x: u64| x as u32); }");
        assert_eq!(c.int_casts.len(), 1);
    }

    #[test]
    fn scopes_close_with_their_block() {
        let a = run("fn f() { { let x: u64 = g(); } let _ = x as u32; }");
        // The binding died with its block; the outer x is unknown.
        assert!(a.int_casts.is_empty());
    }

    #[test]
    fn field_access_casts_are_not_resolved_against_locals() {
        let a = run("fn f(detected: u64) { let _ = self.detected as u32; }");
        assert!(a.int_casts.is_empty(), "{:?}", a.int_casts);
    }

    // --- fast-map recognition ---

    #[test]
    fn fast_map_constructions_and_annotations_are_tracked() {
        let src = "fn f() {\n\
                   let mut m: FastHashMap<u32, u32> = FastHashMap::default();\n\
                   for k in m.keys() { g(k); }\n\
                   }";
        let a = run(src);
        assert_eq!(a.fast_map_iterations.len(), 1);
        assert!(a.fast_map_iterations[0].what.contains("m.keys()"));
        assert_eq!(a.fast_map_iterations[0].line, 3);
    }

    #[test]
    fn for_loop_over_fast_map_binding_is_caught() {
        let src = "fn f() { let m = sla_netlist::FastHashSet::default(); for x in &m { g(x); } }";
        let a = run(src);
        assert_eq!(a.fast_map_iterations.len(), 1);
        assert!(a.fast_map_iterations[0].what.contains("for … in m"));
    }

    #[test]
    fn self_field_iteration_resolves_through_struct_fields() {
        let src = "struct Db { forward: FastHashMap<u32, u32>, n: usize }\n\
                   impl Db { fn f(&self) { let _ = self.forward.iter(); } }";
        let a = run(src);
        assert_eq!(a.fast_map_iterations.len(), 1);
        assert!(a.fast_map_iterations[0]
            .what
            .contains("self.forward.iter()"));
    }

    #[test]
    fn lookups_on_fast_maps_are_fine() {
        let src = "fn f(m: &FastHashMap<u32, u32>) {\n\
                   let _ = m.get(&1); m.entry(1).or_default(); let _ = m.contains_key(&2);\n\
                   }";
        assert!(run(src).fast_map_iterations.is_empty());
    }

    #[test]
    fn iteration_over_other_containers_is_fine() {
        let src = "fn f(m: &BTreeMap<u32, u32>, v: Vec<FastHashMap<u32, u32>>) {\n\
                   for x in m.iter() { g(x); }\n\
                   for m2 in v.iter() { g(m2); }\n\
                   }";
        // `v` is a Vec *of* maps (FastHashMap at angle depth 1): iterating
        // the vec is fine.
        assert!(run(src).fast_map_iterations.is_empty());
    }

    #[test]
    fn into_values_and_drain_are_banned_forms() {
        let src = "fn f() {\n\
                   let mut g2: FastHashMap<u32, u32> = FastHashMap::default();\n\
                   let _ = g2.into_values();\n\
                   let mut s: FastHashSet<u32> = FastHashSet::default();\n\
                   s.drain();\n\
                   }";
        assert_eq!(run(src).fast_map_iterations.len(), 2);
    }

    // --- index expressions ---

    #[test]
    fn index_expressions_are_distinguished_from_array_forms() {
        let a = run("#[derive(Debug)]\n\
             fn f(v: &[u8], w: [u8; 4]) -> u8 {\n\
             let a = [0u8; 4];\n\
             let [x, y] = [1, 2];\n\
             v[0] + a[1]\n\
             }");
        assert_eq!(a.index_exprs.len(), 2, "{:?}", a.index_exprs);
        assert!(a.index_exprs.iter().all(|e| e.line == 5));
    }

    #[test]
    fn logical_or_is_not_a_closure_opener() {
        // Before the `||` fix, the second `|` of a logical or opened a
        // bogus parameter list that swallowed the following tokens — and
        // the index expression with them.
        let a = run("fn f(line: &str, v: &[u8]) {\n\
             if line.is_empty() || line.starts_with('#') { return; }\n\
             let _ = v[0];\n\
             }");
        assert_eq!(a.index_exprs.len(), 1, "{:?}", a.index_exprs);
        // Empty closures still parse.
        let b = run("fn f() { g(|| h()); let _: u64 = k(); }");
        assert!(b.index_exprs.is_empty());
    }

    #[test]
    fn range_slicing_counts_as_indexing() {
        let a = run("fn f(s: &str, p: usize) { let _ = &s[..p]; }");
        assert_eq!(a.index_exprs.len(), 1);
    }

    #[test]
    fn tuple_field_and_call_results_can_be_indexed() {
        let a = run("fn f(&self) { let _ = self.0[1]; let _ = g()[2]; }");
        assert_eq!(a.index_exprs.len(), 2);
    }

    #[test]
    fn macros_attributes_and_types_are_not_indexing() {
        let a = run("#![allow(dead_code)]\n\
             fn f() -> Vec<[u8; 2]> { vec![[0, 0]; 3] }");
        assert!(a.index_exprs.is_empty(), "{:?}", a.index_exprs);
    }

    // --- test-module boundary ---

    #[test]
    fn test_start_marks_the_cfg_test_attribute() {
        let a = run("fn f() {}\n#[cfg(test)]\nmod tests { fn g(v: &[u8]) { v[0]; } }");
        assert_eq!(a.test_start, 2);
        // Index expressions are still *collected* inside the test module —
        // the rules filter by line, so scoping stays with them.
        assert_eq!(a.index_exprs.len(), 1);
        assert!(a.index_exprs[0].line > a.test_start);
    }

    #[test]
    fn files_without_test_module_report_max() {
        assert_eq!(run("fn f() {}").test_start, u32::MAX);
    }
}
