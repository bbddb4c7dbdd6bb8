//! A hand-written lexer and recursive-descent parser for the concrete
//! syntax of database programs.
//!
//! The syntax mirrors the paper's examples (Figure 2):
//!
//! ```text
//! update addInstructor(id: int, name: string, pic: binary)
//!     INSERT INTO Instructor VALUES (InstId: id, IName: name, IPic: pic);
//! update deleteInstructor(id: int)
//!     DELETE Instructor FROM Instructor WHERE InstId = id;
//! query getInstructorInfo(id: int)
//!     SELECT IName, IPic FROM Instructor WHERE InstId = id;
//! ```
//!
//! Unqualified attribute names are resolved against the tables of the
//! enclosing statement's join chain using the schema. Natural joins
//! (`A JOIN B` without `ON`) are resolved to an equi-join on the first
//! shared column or declared foreign key.

use crate::ast::{
    CmpOp, Function, FunctionBody, JoinChain, Operand, Param, Pred, Program, Query, Update,
};
use crate::error::{Error, Result};
use crate::schema::{Schema, TableName};
use crate::value::{DataType, Value};

/// Deepest predicate nesting [`parse_program`] accepts. Each parenthesis,
/// `not`, `IN (SELECT …)` and `and`/`or` operator is one level. The parser
/// and every later pass recurse over predicates, so without a bound one
/// program text could overflow the stack of whatever thread parses it. At
/// this bound an unoptimized build parses the deepest `IN` nest on a
/// 2 MiB thread stack, the size of a job-server worker's.
const MAX_PRED_DEPTH: usize = 128;

/// Parses a full program against `schema`.
///
/// # Errors
///
/// Returns [`Error::Parse`] for syntax errors (with line/column information),
/// including a predicate nested deeper than 128 levels, and resolution
/// errors for unknown tables, attributes or types.
pub fn parse_program(text: &str, schema: &Schema) -> Result<Program> {
    let tokens = tokenize(text)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        schema,
        current_params: Vec::new(),
        nesting: 0,
    };
    let program = parser.parse_program()?;
    program.validate(schema)?;
    Ok(program)
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum TokenKind {
    Ident(String),
    Int(i64),
    Str(String),
    Bytes(Vec<u8>),
    LParen,
    RParen,
    Comma,
    Colon,
    Semi,
    Dot,
    Star,
    Cmp(CmpOp),
    Eof,
}

#[derive(Debug, Clone, PartialEq)]
struct Token {
    kind: TokenKind,
    line: usize,
    column: usize,
}

fn tokenize(text: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut column = 1usize;
    let mut chars = text.chars().peekable();

    macro_rules! push {
        ($kind:expr, $line:expr, $col:expr) => {
            tokens.push(Token {
                kind: $kind,
                line: $line,
                column: $col,
            })
        };
    }

    while let Some(&c) = chars.peek() {
        let (tok_line, tok_col) = (line, column);
        match c {
            '\n' => {
                chars.next();
                line += 1;
                column = 1;
            }
            c if c.is_whitespace() => {
                chars.next();
                column += 1;
            }
            '-' => {
                chars.next();
                column += 1;
                if chars.peek() == Some(&'-') {
                    // Line comment.
                    for c in chars.by_ref() {
                        if c == '\n' {
                            line += 1;
                            column = 1;
                            break;
                        }
                    }
                } else if chars.peek().is_some_and(|c| c.is_ascii_digit()) {
                    let mut digits = String::new();
                    while let Some(&d) = chars.peek() {
                        if d.is_ascii_digit() {
                            digits.push(d);
                            chars.next();
                            column += 1;
                        } else {
                            break;
                        }
                    }
                    let value: i64 = digits.parse().map_err(|_| Error::Parse {
                        line: tok_line,
                        column: tok_col,
                        message: format!("invalid integer literal `-{digits}`"),
                    })?;
                    push!(TokenKind::Int(-value), tok_line, tok_col);
                } else {
                    return Err(Error::Parse {
                        line: tok_line,
                        column: tok_col,
                        message: "unexpected `-`".to_string(),
                    });
                }
            }
            '(' => {
                chars.next();
                column += 1;
                push!(TokenKind::LParen, tok_line, tok_col);
            }
            ')' => {
                chars.next();
                column += 1;
                push!(TokenKind::RParen, tok_line, tok_col);
            }
            ',' => {
                chars.next();
                column += 1;
                push!(TokenKind::Comma, tok_line, tok_col);
            }
            ':' => {
                chars.next();
                column += 1;
                push!(TokenKind::Colon, tok_line, tok_col);
            }
            ';' => {
                chars.next();
                column += 1;
                push!(TokenKind::Semi, tok_line, tok_col);
            }
            '.' => {
                chars.next();
                column += 1;
                push!(TokenKind::Dot, tok_line, tok_col);
            }
            '*' => {
                chars.next();
                column += 1;
                push!(TokenKind::Star, tok_line, tok_col);
            }
            '=' => {
                chars.next();
                column += 1;
                push!(TokenKind::Cmp(CmpOp::Eq), tok_line, tok_col);
            }
            '!' => {
                chars.next();
                column += 1;
                if chars.peek() == Some(&'=') {
                    chars.next();
                    column += 1;
                    push!(TokenKind::Cmp(CmpOp::Ne), tok_line, tok_col);
                } else {
                    return Err(Error::Parse {
                        line: tok_line,
                        column: tok_col,
                        message: "expected `=` after `!`".to_string(),
                    });
                }
            }
            '<' => {
                chars.next();
                column += 1;
                if chars.peek() == Some(&'=') {
                    chars.next();
                    column += 1;
                    push!(TokenKind::Cmp(CmpOp::Le), tok_line, tok_col);
                } else if chars.peek() == Some(&'>') {
                    chars.next();
                    column += 1;
                    push!(TokenKind::Cmp(CmpOp::Ne), tok_line, tok_col);
                } else {
                    push!(TokenKind::Cmp(CmpOp::Lt), tok_line, tok_col);
                }
            }
            '>' => {
                chars.next();
                column += 1;
                if chars.peek() == Some(&'=') {
                    chars.next();
                    column += 1;
                    push!(TokenKind::Cmp(CmpOp::Ge), tok_line, tok_col);
                } else {
                    push!(TokenKind::Cmp(CmpOp::Gt), tok_line, tok_col);
                }
            }
            '"' => {
                chars.next();
                column += 1;
                let mut value = String::new();
                let mut closed = false;
                for c in chars.by_ref() {
                    column += 1;
                    if c == '"' {
                        closed = true;
                        break;
                    }
                    if c == '\n' {
                        line += 1;
                        column = 1;
                    }
                    value.push(c);
                }
                if !closed {
                    return Err(Error::Parse {
                        line: tok_line,
                        column: tok_col,
                        message: "unterminated string literal".to_string(),
                    });
                }
                push!(TokenKind::Str(value), tok_line, tok_col);
            }
            c if c.is_ascii_digit() => {
                let mut digits = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() {
                        digits.push(d);
                        chars.next();
                        column += 1;
                    } else {
                        break;
                    }
                }
                if let Some(hex) = digits.strip_prefix("0x") {
                    let mut bytes = Vec::new();
                    let mut iter = hex.as_bytes().chunks(2);
                    for chunk in iter.by_ref() {
                        let s = std::str::from_utf8(chunk).expect("ascii");
                        let byte = u8::from_str_radix(s, 16).map_err(|_| Error::Parse {
                            line: tok_line,
                            column: tok_col,
                            message: format!("invalid hex literal `{digits}`"),
                        })?;
                        bytes.push(byte);
                    }
                    push!(TokenKind::Bytes(bytes), tok_line, tok_col);
                } else {
                    let value: i64 = digits.parse().map_err(|_| Error::Parse {
                        line: tok_line,
                        column: tok_col,
                        message: format!("invalid integer literal `{digits}`"),
                    })?;
                    push!(TokenKind::Int(value), tok_line, tok_col);
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut ident = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        ident.push(d);
                        chars.next();
                        column += 1;
                    } else {
                        break;
                    }
                }
                push!(TokenKind::Ident(ident), tok_line, tok_col);
            }
            other => {
                return Err(Error::Parse {
                    line: tok_line,
                    column: tok_col,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
        column,
    });
    Ok(tokens)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    schema: &'a Schema,
    /// Parameter names of the function currently being parsed: inside
    /// predicates, these shadow identically named columns on the right-hand
    /// side of comparisons.
    current_params: Vec<String>,
    /// Levels of predicate nesting (see [`MAX_PRED_DEPTH`]) open around the
    /// current token.
    nesting: usize,
}

/// The error for a predicate nested deeper than [`MAX_PRED_DEPTH`] at `at`.
fn too_deep(at: &Token) -> Error {
    Error::Parse {
        line: at.line,
        column: at.column,
        message: format!("predicate nested deeper than {MAX_PRED_DEPTH} levels"),
    }
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_at(&self, offset: usize) -> &Token {
        &self.tokens[(self.pos + offset).min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let token = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        token
    }

    fn error(&self, message: impl Into<String>) -> Error {
        let token = self.peek();
        Error::Parse {
            line: token.line,
            column: token.column,
            message: message.into(),
        }
    }

    fn is_keyword(&self, token: &Token, keyword: &str) -> bool {
        matches!(&token.kind, TokenKind::Ident(name) if name.eq_ignore_ascii_case(keyword))
    }

    fn at_keyword(&self, keyword: &str) -> bool {
        self.is_keyword(self.peek(), keyword)
    }

    fn expect_keyword(&mut self, keyword: &str) -> Result<()> {
        if self.at_keyword(keyword) {
            self.advance();
            Ok(())
        } else {
            Err(self.error(format!("expected `{keyword}`")))
        }
    }

    fn expect(&mut self, kind: &TokenKind, description: &str) -> Result<()> {
        if &self.peek().kind == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.error(format!("expected {description}")))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek().kind.clone() {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(name)
            }
            _ => Err(self.error("expected identifier")),
        }
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    /// Returns `true` if the upcoming tokens start a new function
    /// declaration (`update name (` or `query name (`), which disambiguates
    /// a declaration from an `UPDATE ... SET` statement.
    fn at_function_decl(&self) -> bool {
        (self.at_keyword("update") || self.at_keyword("query"))
            && matches!(self.peek_at(1).kind, TokenKind::Ident(_))
            && matches!(self.peek_at(2).kind, TokenKind::LParen)
    }

    fn parse_program(&mut self) -> Result<Program> {
        let mut functions = Vec::new();
        while !self.at_eof() {
            functions.push(self.parse_function()?);
        }
        Ok(Program::new(functions))
    }

    fn parse_function(&mut self) -> Result<Function> {
        let is_query = if self.at_keyword("query") {
            true
        } else if self.at_keyword("update") {
            false
        } else {
            return Err(self.error("expected `update` or `query`"));
        };
        self.advance();
        let name = self.expect_ident()?;
        self.expect(&TokenKind::LParen, "`(`")?;
        let params = self.parse_params()?;
        self.expect(&TokenKind::RParen, "`)`")?;
        self.current_params = params.iter().map(|p| p.name.clone()).collect();
        let body = if is_query {
            FunctionBody::Query(self.parse_select()?.0)
        } else {
            FunctionBody::Update(self.parse_update_body()?)
        };
        self.current_params.clear();
        Ok(Function { name, params, body })
    }

    fn parse_params(&mut self) -> Result<Vec<Param>> {
        let mut params = Vec::new();
        if matches!(self.peek().kind, TokenKind::RParen) {
            return Ok(params);
        }
        loop {
            let name = self.expect_ident()?;
            self.expect(&TokenKind::Colon, "`:`")?;
            let ty_name = self.expect_ident()?;
            let ty = DataType::from_keyword(&ty_name)
                .ok_or_else(|| self.error(format!("unknown type `{ty_name}`")))?;
            params.push(Param::new(name, ty));
            if matches!(self.peek().kind, TokenKind::Comma) {
                self.advance();
            } else {
                break;
            }
        }
        Ok(params)
    }

    /// Parses a `SELECT`, returning it with the height of its `WHERE`
    /// predicate (see [`Parser::parse_pred`]).
    fn parse_select(&mut self) -> Result<(Query, usize)> {
        self.expect_keyword("select")?;
        // Projection list: raw names resolved once the join chain is known.
        let mut raw_attrs: Vec<String> = Vec::new();
        let mut star = false;
        if matches!(self.peek().kind, TokenKind::Star) {
            self.advance();
            star = true;
        } else {
            loop {
                raw_attrs.push(self.parse_attr_name()?);
                if matches!(self.peek().kind, TokenKind::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect_keyword("from")?;
        let join = self.parse_join_chain()?;
        let tables = join.tables();
        let (pred, height) = if self.at_keyword("where") {
            self.advance();
            self.parse_pred(&tables)?
        } else {
            (Pred::True, 0)
        };
        if matches!(self.peek().kind, TokenKind::Semi) {
            self.advance();
        }
        let base = Query::Filter {
            pred,
            input: Box::new(Query::Join(join.clone())),
        };
        if star {
            return Ok((base, height));
        }
        let mut attrs = Vec::new();
        for raw in raw_attrs {
            attrs.push(self.schema.resolve_attr(&raw, &tables)?);
        }
        let query = Query::Project {
            attrs,
            input: Box::new(base),
        };
        Ok((query, height))
    }

    fn parse_update_body(&mut self) -> Result<Update> {
        let mut statements = Vec::new();
        loop {
            if self.at_eof() || self.at_function_decl() {
                break;
            }
            if self.at_keyword("insert") {
                statements.push(self.parse_insert()?);
            } else if self.at_keyword("delete") {
                statements.push(self.parse_delete()?);
            } else if self.at_keyword("update") {
                statements.push(self.parse_update_stmt()?);
            } else {
                return Err(self.error("expected `INSERT`, `DELETE` or `UPDATE` statement"));
            }
        }
        if statements.is_empty() {
            return Err(self.error("update function has an empty body"));
        }
        if statements.len() == 1 {
            Ok(statements.pop().expect("length checked"))
        } else {
            Ok(Update::Seq(statements))
        }
    }

    fn parse_insert(&mut self) -> Result<Update> {
        self.expect_keyword("insert")?;
        self.expect_keyword("into")?;
        let join = self.parse_join_chain()?;
        let tables = join.tables();
        self.expect_keyword("values")?;
        self.expect(&TokenKind::LParen, "`(`")?;
        let mut values = Vec::new();
        if !matches!(self.peek().kind, TokenKind::RParen) {
            loop {
                let raw = self.parse_attr_name()?;
                let attr = self.schema.resolve_attr(&raw, &tables)?;
                self.expect(&TokenKind::Colon, "`:`")?;
                let operand = self.parse_operand()?;
                values.push((attr, operand));
                if matches!(self.peek().kind, TokenKind::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen, "`)`")?;
        self.expect(&TokenKind::Semi, "`;`")?;
        Ok(Update::Insert { join, values })
    }

    fn parse_delete(&mut self) -> Result<Update> {
        self.expect_keyword("delete")?;
        let mut tables: Vec<TableName> = Vec::new();
        loop {
            let name = self.expect_ident()?;
            tables.push(TableName::new(name));
            if matches!(self.peek().kind, TokenKind::Comma) {
                self.advance();
            } else {
                break;
            }
        }
        self.expect_keyword("from")?;
        let join = self.parse_join_chain()?;
        let chain_tables = join.tables();
        let pred = if self.at_keyword("where") {
            self.advance();
            self.parse_pred(&chain_tables)?.0
        } else {
            Pred::True
        };
        self.expect(&TokenKind::Semi, "`;`")?;
        Ok(Update::Delete { tables, join, pred })
    }

    fn parse_update_stmt(&mut self) -> Result<Update> {
        self.expect_keyword("update")?;
        let join = self.parse_join_chain()?;
        let tables = join.tables();
        self.expect_keyword("set")?;
        let raw = self.parse_attr_name()?;
        let attr = self.schema.resolve_attr(&raw, &tables)?;
        match self.peek().kind {
            TokenKind::Cmp(CmpOp::Eq) => {
                self.advance();
            }
            _ => return Err(self.error("expected `=` in SET clause")),
        }
        let value = self.parse_operand()?;
        let pred = if self.at_keyword("where") {
            self.advance();
            self.parse_pred(&tables)?.0
        } else {
            Pred::True
        };
        self.expect(&TokenKind::Semi, "`;`")?;
        Ok(Update::UpdateAttr {
            join,
            pred,
            attr,
            value,
        })
    }

    fn parse_join_chain(&mut self) -> Result<JoinChain> {
        let first = self.expect_ident()?;
        let mut chain = JoinChain::table(first);
        while self.at_keyword("join") {
            self.advance();
            let right_name = self.expect_ident()?;
            let right = JoinChain::table(right_name.clone());
            if self.at_keyword("on") {
                self.advance();
                let lhs_raw = self.parse_attr_name()?;
                match self.peek().kind {
                    TokenKind::Cmp(CmpOp::Eq) => {
                        self.advance();
                    }
                    _ => return Err(self.error("expected `=` in ON clause")),
                }
                let rhs_raw = self.parse_attr_name()?;
                let mut left_tables = chain.tables();
                let right_tables = vec![TableName::new(right_name.clone())];
                // The ON clause may list the attributes in either order.
                let (left_attr, right_attr) = {
                    let lhs_left = self.schema.resolve_attr(&lhs_raw, &left_tables);
                    let rhs_right = self.schema.resolve_attr(&rhs_raw, &right_tables);
                    match (lhs_left, rhs_right) {
                        (Ok(l), Ok(r)) => (l, r),
                        _ => {
                            let l = self.schema.resolve_attr(&rhs_raw, &left_tables)?;
                            let r = self.schema.resolve_attr(&lhs_raw, &right_tables)?;
                            (l, r)
                        }
                    }
                };
                left_tables.push(TableName::new(right_name));
                chain = chain.join(right, left_attr, right_attr);
            } else {
                // Natural join: use the first shared column / foreign key
                // between the new table and any table already in the chain.
                let right_table = TableName::new(right_name.clone());
                let mut found = None;
                for left_table in chain.tables() {
                    let pairs = self.schema.join_attrs(&left_table, &right_table);
                    if let Some(pair) = pairs.into_iter().next() {
                        found = Some(pair);
                        break;
                    }
                }
                let (left_attr, right_attr) = found.ok_or_else(|| {
                    self.error(format!(
                        "no shared column or foreign key to naturally join `{right_name}`"
                    ))
                })?;
                chain = chain.join(right, left_attr, right_attr);
            }
        }
        Ok(chain)
    }

    fn parse_attr_name(&mut self) -> Result<String> {
        let first = self.expect_ident()?;
        if matches!(self.peek().kind, TokenKind::Dot) {
            self.advance();
            let second = self.expect_ident()?;
            Ok(format!("{first}.{second}"))
        } else {
            Ok(first)
        }
    }

    fn parse_operand(&mut self) -> Result<Operand> {
        match self.peek().kind.clone() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(Operand::Value(Value::Int(v)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Operand::Value(Value::str(s)))
            }
            TokenKind::Bytes(b) => {
                self.advance();
                Ok(Operand::Value(Value::bytes(b)))
            }
            TokenKind::Ident(name) => {
                self.advance();
                if name.eq_ignore_ascii_case("true") {
                    Ok(Operand::Value(Value::Bool(true)))
                } else if name.eq_ignore_ascii_case("false") {
                    Ok(Operand::Value(Value::Bool(false)))
                } else if name.eq_ignore_ascii_case("null") {
                    Ok(Operand::Value(Value::Null))
                } else {
                    Ok(Operand::Param(name))
                }
            }
            _ => Err(self.error("expected value or parameter")),
        }
    }

    /// Parses a predicate, returning it with its height: the levels of
    /// nesting it spans, counted as [`MAX_PRED_DEPTH`] counts them. Every
    /// predicate is kept within `MAX_PRED_DEPTH` of the clause it belongs
    /// to: the levels open around it plus its height never exceed the
    /// bound.
    fn parse_pred(&mut self, tables: &[TableName]) -> Result<(Pred, usize)> {
        self.parse_or(tables)
    }

    fn parse_or(&mut self, tables: &[TableName]) -> Result<(Pred, usize)> {
        let (mut lhs, mut height) = self.parse_and(tables)?;
        while self.at_keyword("or") {
            let operator = self.advance();
            let (rhs, rhs_height) = self.parse_and(tables)?;
            height = self.operator_height(&operator, height.max(rhs_height))?;
            lhs = Pred::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    fn parse_and(&mut self, tables: &[TableName]) -> Result<(Pred, usize)> {
        let (mut lhs, mut height) = self.parse_unary(tables)?;
        while self.at_keyword("and") {
            let operator = self.advance();
            let (rhs, rhs_height) = self.parse_unary(tables)?;
            height = self.operator_height(&operator, height.max(rhs_height))?;
            lhs = Pred::And(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    /// The height of an `and`/`or` node over operands at most `operands`
    /// high, or an error at `operator` if the node would sit deeper than
    /// [`MAX_PRED_DEPTH`]. Chains build left-deep trees without recursing
    /// in the parser, so this check is what bounds their length.
    fn operator_height(&self, operator: &Token, operands: usize) -> Result<usize> {
        let height = operands + 1;
        if self.nesting + height > MAX_PRED_DEPTH {
            return Err(too_deep(operator));
        }
        Ok(height)
    }

    /// Runs `parse` one level of nesting deeper — for a `not`, a
    /// parenthesis or an `IN (SELECT …)` opening at the current token — and
    /// returns its result one level higher. Fails at that token instead
    /// when the level would exceed [`MAX_PRED_DEPTH`], so the parser never
    /// recurses past the bound.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<(T, usize)>,
    ) -> Result<(T, usize)> {
        if self.nesting == MAX_PRED_DEPTH {
            return Err(too_deep(self.peek()));
        }
        self.nesting += 1;
        let parsed = parse(self);
        self.nesting -= 1;
        let (inner, height) = parsed?;
        Ok((inner, height + 1))
    }

    fn parse_unary(&mut self, tables: &[TableName]) -> Result<(Pred, usize)> {
        if self.at_keyword("not") {
            let (inner, height) = self.nested(|p| {
                p.advance();
                p.parse_unary(tables)
            })?;
            return Ok((Pred::Not(Box::new(inner)), height));
        }
        if self.at_keyword("true") {
            self.advance();
            return Ok((Pred::True, 0));
        }
        if self.at_keyword("false") {
            self.advance();
            return Ok((Pred::False, 0));
        }
        if matches!(self.peek().kind, TokenKind::LParen) {
            return self.nested(|p| {
                p.advance();
                let inner = p.parse_pred(tables)?;
                p.expect(&TokenKind::RParen, "`)`")?;
                Ok(inner)
            });
        }
        self.parse_atom(tables)
    }

    /// Parses an atom: `attr op operand`, `attr op attr` or
    /// `attr IN (SELECT ...)`. Kept out of [`Parser::parse_unary`] so the
    /// frames of a deep `not` or parenthesis nest stay small.
    fn parse_atom(&mut self, tables: &[TableName]) -> Result<(Pred, usize)> {
        let raw = self.parse_attr_name()?;
        let lhs = self.schema.resolve_attr(&raw, tables)?;
        if self.at_keyword("in") {
            let (query, height) = self.nested(|p| {
                p.advance();
                p.expect(&TokenKind::LParen, "`(`")?;
                let query = p.parse_select()?;
                p.expect(&TokenKind::RParen, "`)`")?;
                Ok(query)
            })?;
            let pred = Pred::In {
                attr: lhs,
                query: Box::new(query),
            };
            return Ok((pred, height));
        }
        let op = match self.peek().kind {
            TokenKind::Cmp(op) => {
                self.advance();
                op
            }
            _ => return Err(self.error("expected comparison operator")),
        };
        // Right-hand side: an attribute if it resolves, otherwise an operand.
        if let TokenKind::Ident(name) = self.peek().kind.clone() {
            let is_value_keyword = name.eq_ignore_ascii_case("true")
                || name.eq_ignore_ascii_case("false")
                || name.eq_ignore_ascii_case("null");
            // Function parameters shadow identically named columns on the
            // right-hand side of a comparison: `WHERE cid = cid` compares the
            // column with the *parameter* `cid`.
            let is_parameter = self.current_params.contains(&name);
            if !is_value_keyword && !is_parameter {
                let qualified = matches!(self.peek_at(1).kind, TokenKind::Dot);
                let raw_rhs = if qualified {
                    format!(
                        "{}.{}",
                        name,
                        match &self.peek_at(2).kind {
                            TokenKind::Ident(second) => second.clone(),
                            _ => String::new(),
                        }
                    )
                } else {
                    name.clone()
                };
                if let Ok(rhs) = self.schema.resolve_attr(&raw_rhs, tables) {
                    // Consume the tokens that formed the attribute.
                    self.advance();
                    if qualified {
                        self.advance();
                        self.advance();
                    }
                    return Ok((Pred::CmpAttr { lhs, op, rhs }, 0));
                }
            }
        }
        let rhs = self.parse_operand()?;
        Ok((Pred::CmpValue { lhs, op, rhs }, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty::program_to_string;
    use crate::schema::QualifiedAttr;

    fn course_schema() -> Schema {
        Schema::parse(
            "Class(ClassId: int, InstId: int, TaId: int)\n\
             Instructor(InstId: int, IName: string, IPic: binary)\n\
             TA(TaId: int, TName: string, TPic: binary)",
        )
        .unwrap()
    }

    #[test]
    fn parses_figure_2_program() {
        let schema = course_schema();
        let program = parse_program(
            r#"
            update addInstructor(id: int, name: string, pic: binary)
                INSERT INTO Instructor VALUES (InstId: id, IName: name, IPic: pic);
            update deleteInstructor(id: int)
                DELETE Instructor FROM Instructor WHERE InstId = id;
            query getInstructorInfo(id: int)
                SELECT IName, IPic FROM Instructor WHERE InstId = id;
            update addTA(id: int, name: string, pic: binary)
                INSERT INTO TA VALUES (TaId: id, TName: name, TPic: pic);
            update deleteTA(id: int)
                DELETE TA FROM TA WHERE TaId = id;
            query getTAInfo(id: int)
                SELECT TName, TPic FROM TA WHERE TaId = id;
            "#,
            &schema,
        )
        .unwrap();
        assert_eq!(program.functions.len(), 6);
        assert_eq!(program.queries().count(), 2);
        assert_eq!(program.updates().count(), 4);
    }

    #[test]
    fn parses_multi_statement_update_function() {
        let schema = Schema::parse(
            "Instructor(InstId: int, IName: string, PicId: id)\n\
             Picture(PicId: id, Pic: binary)",
        )
        .unwrap();
        let program = parse_program(
            r#"
            update addInstructor(id: int, name: string, pic: binary)
                INSERT INTO Instructor VALUES (InstId: id, IName: name);
                INSERT INTO Picture VALUES (Pic: pic);
            "#,
            &schema,
        )
        .unwrap();
        match &program.functions[0].body {
            FunctionBody::Update(Update::Seq(stmts)) => assert_eq!(stmts.len(), 2),
            other => panic!("expected sequence, got {other:?}"),
        }
    }

    #[test]
    fn parses_join_with_on_and_natural_join() {
        let schema = course_schema();
        let program = parse_program(
            r#"
            query classInstructors(cid: int)
                SELECT IName FROM Class JOIN Instructor ON Class.InstId = Instructor.InstId
                WHERE ClassId = cid;
            query classTAs(cid: int)
                SELECT TName FROM Class JOIN TA WHERE ClassId = cid;
            "#,
            &schema,
        )
        .unwrap();
        for function in &program.functions {
            match &function.body {
                FunctionBody::Query(q) => assert_eq!(q.join_chain().len(), 2),
                _ => panic!("expected query"),
            }
        }
    }

    #[test]
    fn parses_update_statement_with_set() {
        let schema = course_schema();
        let program = parse_program(
            r#"
            update renameInstructor(id: int, newName: string)
                UPDATE Instructor SET IName = newName WHERE InstId = id;
            "#,
            &schema,
        )
        .unwrap();
        match &program.functions[0].body {
            FunctionBody::Update(Update::UpdateAttr { attr, .. }) => {
                assert_eq!(attr, &QualifiedAttr::new("Instructor", "IName"));
            }
            other => panic!("expected update statement, got {other:?}"),
        }
    }

    #[test]
    fn parses_delete_of_multiple_tables() {
        let schema = course_schema();
        let program = parse_program(
            r#"
            update removeClassStaff(cid: int)
                DELETE Class, Instructor FROM Class JOIN Instructor WHERE ClassId = cid;
            "#,
            &schema,
        )
        .unwrap();
        match &program.functions[0].body {
            FunctionBody::Update(Update::Delete { tables, .. }) => assert_eq!(tables.len(), 2),
            other => panic!("expected delete, got {other:?}"),
        }
    }

    #[test]
    fn parses_complex_predicates() {
        let schema = course_schema();
        let program = parse_program(
            r#"
            query weird(id: int)
                SELECT IName FROM Instructor
                WHERE (InstId = id OR InstId = 0) AND NOT (IName = "bob");
            "#,
            &schema,
        )
        .unwrap();
        assert_eq!(program.functions.len(), 1);
    }

    #[test]
    fn parses_in_subquery() {
        let schema = course_schema();
        let program = parse_program(
            r#"
            query taughtBy(name: string)
                SELECT ClassId FROM Class
                WHERE Class.InstId IN (SELECT Instructor.InstId FROM Instructor WHERE IName = name);
            "#,
            &schema,
        )
        .unwrap();
        assert_eq!(program.functions.len(), 1);
    }

    #[test]
    fn reports_unknown_attribute() {
        let schema = course_schema();
        let err = parse_program("query q(id: int) SELECT Nope FROM Instructor;", &schema);
        assert!(matches!(err, Err(Error::UnknownAttribute(_))));
    }

    #[test]
    fn reports_syntax_error_with_position() {
        let schema = course_schema();
        let err = parse_program("query q(id: int) SELECT FROM;", &schema).unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
    }

    #[test]
    fn pretty_printed_programs_reparse() {
        let schema = course_schema();
        let original = parse_program(
            r#"
            update addInstructor(id: int, name: string, pic: binary)
                INSERT INTO Instructor VALUES (InstId: id, IName: name, IPic: pic);
            update deleteInstructor(id: int)
                DELETE Instructor FROM Instructor WHERE InstId = id;
            query getInstructorInfo(id: int)
                SELECT IName, IPic FROM Instructor WHERE InstId = id;
            "#,
            &schema,
        )
        .unwrap();
        let printed = program_to_string(&original);
        let reparsed = parse_program(&printed, &schema).unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn empty_update_body_is_rejected() {
        let schema = course_schema();
        let err = parse_program("update broken(id: int)", &schema);
        assert!(err.is_err());
    }

    #[test]
    fn parameters_shadow_columns_in_predicates() {
        let schema = Schema::parse("T(a: int, b: int)").unwrap();
        // `a` on the right-hand side is the parameter, not the column.
        let program =
            parse_program("query q(a: int) SELECT b FROM T WHERE a = a;", &schema).unwrap();
        match &program.functions[0].body {
            FunctionBody::Query(query) => {
                let attrs_in_pred: Vec<_> = query.attrs();
                assert!(attrs_in_pred.contains(&QualifiedAttr::new("T", "a")));
                assert_eq!(query.params(), vec!["a".to_string()]);
            }
            other => panic!("expected query, got {other:?}"),
        }
        // Without a matching parameter the identifier is the column.
        let program =
            parse_program("query q2(x: int) SELECT b FROM T WHERE a = b;", &schema).unwrap();
        match &program.functions[0].body {
            FunctionBody::Query(query) => assert!(query.params().is_empty()),
            other => panic!("expected query, got {other:?}"),
        }
    }

    /// A predicate nested past [`MAX_PRED_DEPTH`] is a positioned parse
    /// error, not a stack overflow, whichever construct nests it; one
    /// exactly at the bound parses, and so does its printed form.
    #[test]
    fn predicates_nested_past_the_bound_are_rejected() {
        let schema = Schema::parse("T(a: int)").unwrap();
        let clause = "query q(x: int) SELECT a FROM T WHERE ";
        fn parens(n: usize) -> String {
            format!("{}a = x{}", "(".repeat(n), ")".repeat(n))
        }
        fn nots(n: usize) -> String {
            format!("{}a = x", "not ".repeat(n))
        }
        fn ands(n: usize) -> String {
            vec!["a = x"; n + 1].join(" and ")
        }
        fn ors(n: usize) -> String {
            vec!["a = x"; n + 1].join(" or ")
        }
        fn ins(n: usize) -> String {
            let open = "a IN (SELECT a FROM T WHERE ".repeat(n);
            format!("{open}a = x{}", ")".repeat(n))
        }
        /// Half the levels in parentheses, half in a chain after them.
        fn mixed(n: usize) -> String {
            format!("{}{}", parens(n / 2), " and a = x".repeat(n - n / 2))
        }
        /// Right `and` and `or` operands, a left `and` operand and a `not`
        /// in turn, each parenthesized around the next (two levels each):
        /// the printer keeps some of these parentheses and drops the rest.
        fn braided(n: usize) -> String {
            (0..n / 2).fold("a = x".to_string(), |inner, i| match i % 6 {
                0 | 1 => format!("a = x and ({inner})"),
                2 | 3 => format!("a = x or ({inner})"),
                4 => format!("({inner}) and a = x"),
                _ => format!("not ({inner})"),
            })
        }
        let parse = |pred: String| parse_program(&format!("{clause}{pred};"), &schema);

        let deep: [fn(usize) -> String; 3] = [parens, nots, ands];
        for deep in deep {
            let err = parse(deep(100_000)).unwrap_err();
            assert!(matches!(err, Error::Parse { .. }), "{err:?}");
        }
        let nestings: [fn(usize) -> String; 6] = [parens, nots, ands, ors, ins, mixed];
        for nesting in nestings {
            parse(nesting(MAX_PRED_DEPTH)).unwrap();
            let err = parse(nesting(MAX_PRED_DEPTH + 1)).unwrap_err();
            assert!(matches!(err, Error::Parse { .. }), "{err:?}");
        }
        match parse(parens(MAX_PRED_DEPTH + 1)).unwrap_err() {
            Error::Parse { line, column, .. } => {
                assert_eq!((line, column), (1, clause.len() + MAX_PRED_DEPTH + 1));
            }
            other => panic!("expected a parse error, got {other:?}"),
        }

        // Every nest within the bound prints in a form that parses back to
        // the same program, so the printer adds no levels the parser counts.
        let nestings: [fn(usize) -> String; 7] = [parens, nots, ands, ors, ins, mixed, braided];
        for nesting in nestings {
            for depth in 1..=MAX_PRED_DEPTH {
                let program = parse(nesting(depth)).unwrap();
                let printed = program_to_string(&program);
                let reparsed = parse_program(&printed, &schema)
                    .unwrap_or_else(|err| panic!("{err:?} re-parsing {printed}"));
                assert_eq!(reparsed, program, "{printed}");
            }
        }
    }

    #[test]
    fn negative_integers_and_comments() {
        let schema = Schema::parse("T(a: int)").unwrap();
        let program = parse_program(
            "-- leading comment\nquery q() SELECT a FROM T WHERE a = -3;",
            &schema,
        )
        .unwrap();
        assert_eq!(program.functions.len(), 1);
    }
}
