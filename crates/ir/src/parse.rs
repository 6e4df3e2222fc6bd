//! Parser for the textual IR format produced by the printer.
//!
//! The grammar is line-oriented only by convention; tokens carry all
//! structure. Every function printed with `Display` parses back to an
//! equivalent function (checked by round-trip property tests).

use std::collections::HashMap;
use std::fmt;

use crate::ids::{RegionId, Value};
use crate::ops::{BinOp, CmpPred, MemSpace, OpKind, ParLevel, UnOp};
use crate::types::{MemRefType, ScalarType, Type, DYNAMIC};
use crate::{Function, Module};

/// Error produced when parsing textual IR fails.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset in the input near which the failure occurred.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Percent(String),
    At(String),
    Int(i64),
    Float(f64),
    MemRef(MemRefType),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Lt,
    Gt,
    Comma,
    Colon,
    Eq,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        let tok = match c {
            '{' => {
                i += 1;
                Tok::LBrace
            }
            '}' => {
                i += 1;
                Tok::RBrace
            }
            '(' => {
                i += 1;
                Tok::LParen
            }
            ')' => {
                i += 1;
                Tok::RParen
            }
            '[' => {
                i += 1;
                Tok::LBracket
            }
            ']' => {
                i += 1;
                Tok::RBracket
            }
            '<' => {
                i += 1;
                Tok::Lt
            }
            '>' => {
                i += 1;
                Tok::Gt
            }
            ',' => {
                i += 1;
                Tok::Comma
            }
            ':' => {
                i += 1;
                Tok::Colon
            }
            '=' => {
                i += 1;
                Tok::Eq
            }
            '%' | '@' => {
                i += 1;
                let s = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let name = src[s..i].to_string();
                if name.is_empty() {
                    return Err(ParseError {
                        message: format!("empty name after '{c}'"),
                        offset: start,
                    });
                }
                if c == '%' {
                    Tok::Percent(name)
                } else {
                    Tok::At(name)
                }
            }
            _ if c.is_ascii_digit()
                || (c == '-' && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())) =>
            {
                i += 1;
                let mut is_float = false;
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_ascii_digit() {
                        i += 1;
                    } else if b == '.' && bytes.get(i + 1).is_some_and(|n| n.is_ascii_digit()) {
                        is_float = true;
                        i += 1;
                    } else if (b == 'e' || b == 'E')
                        && bytes
                            .get(i + 1)
                            .is_some_and(|&n| n.is_ascii_digit() || n == b'-' || n == b'+')
                    {
                        is_float = true;
                        i += 2;
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                if is_float {
                    Tok::Float(text.parse().map_err(|e| ParseError {
                        message: format!("bad float literal {text}: {e}"),
                        offset: start,
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|e| ParseError {
                        message: format!("bad int literal {text}: {e}"),
                        offset: start,
                    })?)
                }
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                if word == "memref" && bytes.get(i) == Some(&b'<') {
                    i += 1; // consume '<'
                    let body_start = i;
                    while i < bytes.len() && bytes[i] != b'>' {
                        i += 1;
                    }
                    if i == bytes.len() {
                        return Err(ParseError {
                            message: "unterminated memref type".into(),
                            offset: start,
                        });
                    }
                    let body = &src[body_start..i];
                    i += 1; // consume '>'
                    Tok::MemRef(parse_memref_body(body, start)?)
                } else {
                    Tok::Ident(word.to_string())
                }
            }
            _ => {
                return Err(ParseError {
                    message: format!("unexpected character {c:?}"),
                    offset: start,
                })
            }
        };
        toks.push((tok, start));
    }
    Ok(toks)
}

fn parse_memref_body(body: &str, offset: usize) -> Result<MemRefType, ParseError> {
    // e.g. "?x16xf32, shared"
    let (shape_elem, space) = body.split_once(',').ok_or_else(|| ParseError {
        message: format!("memref type missing address space: {body}"),
        offset,
    })?;
    let space = match space.trim() {
        "global" => MemSpace::Global,
        "shared" => MemSpace::Shared,
        "local" => MemSpace::Local,
        other => {
            return Err(ParseError {
                message: format!("unknown address space {other}"),
                offset,
            })
        }
    };
    // Peel `<dim>x` prefixes; what remains is the element type. Splitting
    // the whole string on 'x' would cut the element name `index` in two.
    let mut rest = shape_elem.trim();
    let mut shape = Vec::new();
    while let Some((dim, tail)) = rest.split_once('x') {
        if dim == "?" {
            shape.push(DYNAMIC);
        } else if !dim.is_empty() && dim.bytes().all(|b| b.is_ascii_digit()) {
            shape.push(dim.parse().map_err(|e| ParseError {
                message: format!("bad dimension {dim}: {e}"),
                offset,
            })?);
        } else {
            break;
        }
        rest = tail;
    }
    let elem = parse_scalar_name(rest).ok_or_else(|| ParseError {
        message: format!("unknown element type {rest}"),
        offset,
    })?;
    Ok(MemRefType::new(elem, shape, space))
}

fn parse_scalar_name(s: &str) -> Option<ScalarType> {
    match s {
        "i1" => Some(ScalarType::I1),
        "i32" => Some(ScalarType::I32),
        "i64" => Some(ScalarType::I64),
        "f32" => Some(ScalarType::F32),
        "f64" => Some(ScalarType::F64),
        "index" => Some(ScalarType::Index),
        _ => None,
    }
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> ParseError {
        let offset = self.toks.get(self.pos).map_or(usize::MAX, |t| t.1);
        ParseError {
            message: message.into(),
            offset,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.0)
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self
            .toks
            .get(self.pos)
            .map(|t| t.0.clone())
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        let t = self.next()?;
        if t == tok {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.err(format!("expected {tok:?}, found {t:?}")))
        }
    }

    fn expect_ident(&mut self, word: &str) -> Result<(), ParseError> {
        match self.next()? {
            Tok::Ident(w) if w == word => Ok(()),
            t => {
                self.pos -= 1;
                Err(self.err(format!("expected '{word}', found {t:?}")))
            }
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Ident(w) => Ok(w),
            t => {
                self.pos -= 1;
                Err(self.err(format!("expected identifier, found {t:?}")))
            }
        }
    }

    fn percent(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Percent(w) => Ok(w),
            t => {
                self.pos -= 1;
                Err(self.err(format!("expected %value, found {t:?}")))
            }
        }
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        match self.next()? {
            Tok::MemRef(m) => Ok(Type::MemRef(m)),
            Tok::Ident(w) => parse_scalar_name(&w).map(Type::Scalar).ok_or_else(|| {
                self.pos -= 1;
                self.err(format!("unknown type {w}"))
            }),
            t => {
                self.pos -= 1;
                Err(self.err(format!("expected type, found {t:?}")))
            }
        }
    }

    fn parse_scalar_type(&mut self) -> Result<ScalarType, ParseError> {
        match self.parse_type()? {
            Type::Scalar(s) => Ok(s),
            Type::MemRef(_) => Err(self.err("expected scalar type, found memref")),
        }
    }
}

struct FuncParser<'p> {
    p: &'p mut Parser,
    func: Function,
    values: HashMap<String, Value>,
}

impl<'p> FuncParser<'p> {
    fn lookup(&mut self, name: &str) -> Result<Value, ParseError> {
        self.values
            .get(name)
            .copied()
            .ok_or_else(|| self.p.err(format!("use of undefined value %{name}")))
    }

    fn operand(&mut self) -> Result<Value, ParseError> {
        let name = self.p.percent()?;
        self.lookup(&name)
    }

    /// Parses a comma-separated `%value` list until (excluding) the given
    /// closing token.
    fn operand_list_until(&mut self, close: &Tok) -> Result<Vec<Value>, ParseError> {
        let mut out = Vec::new();
        if self.p.peek() == Some(close) {
            return Ok(out);
        }
        loop {
            out.push(self.operand()?);
            if self.p.peek() == Some(&Tok::Comma) {
                self.p.next()?;
            } else {
                return Ok(out);
            }
        }
    }

    fn bind(&mut self, name: String, value: Value) {
        self.values.insert(name, value);
    }

    /// Parses operations into `region` until a closing `}` (consumed).
    fn parse_region_ops(&mut self, region: RegionId) -> Result<(), ParseError> {
        loop {
            if self.p.peek() == Some(&Tok::RBrace) {
                self.p.next()?;
                return Ok(());
            }
            self.parse_op(region)?;
        }
    }

    fn parse_op(&mut self, region: RegionId) -> Result<(), ParseError> {
        // Optional result list: %a, %b =
        let mut result_names = Vec::new();
        while let Some(Tok::Percent(_)) = self.p.peek() {
            let name = self.p.percent()?;
            result_names.push(name);
            match self.p.peek() {
                Some(Tok::Comma) => {
                    self.p.next()?;
                }
                Some(Tok::Eq) => {
                    self.p.next()?;
                    break;
                }
                _ => return Err(self.p.err("expected ',' or '=' after result name")),
            }
        }
        let mnemonic = self.p.ident()?;
        match mnemonic.as_str() {
            "const" => {
                let value = match self.p.next()? {
                    Tok::Int(v) => v,
                    t => return Err(self.p.err(format!("expected integer, found {t:?}"))),
                };
                self.p.expect(Tok::Colon)?;
                let ty = self.p.parse_scalar_type()?;
                self.finish_simple(
                    region,
                    OpKind::ConstInt { value, ty },
                    vec![],
                    vec![Type::Scalar(ty)],
                    result_names,
                )
            }
            "fconst" => {
                let value = match self.p.next()? {
                    Tok::Float(v) => v,
                    Tok::Int(v) => v as f64,
                    t => return Err(self.p.err(format!("expected float, found {t:?}"))),
                };
                self.p.expect(Tok::Colon)?;
                let ty = self.p.parse_scalar_type()?;
                self.finish_simple(
                    region,
                    OpKind::ConstFloat { value, ty },
                    vec![],
                    vec![Type::Scalar(ty)],
                    result_names,
                )
            }
            "cmp" => {
                let pred_name = self.p.ident()?;
                let pred = CmpPred::ALL
                    .iter()
                    .copied()
                    .find(|p| p.mnemonic() == pred_name)
                    .ok_or_else(|| self.p.err(format!("unknown predicate {pred_name}")))?;
                let lhs = self.operand()?;
                self.p.expect(Tok::Comma)?;
                let rhs = self.operand()?;
                self.finish_simple(
                    region,
                    OpKind::Cmp(pred),
                    vec![lhs, rhs],
                    vec![Type::Scalar(ScalarType::I1)],
                    result_names,
                )
            }
            "select" => {
                let c = self.operand()?;
                self.p.expect(Tok::Comma)?;
                let t = self.operand()?;
                self.p.expect(Tok::Comma)?;
                let e = self.operand()?;
                self.p.expect(Tok::Colon)?;
                let ty = self.p.parse_type()?;
                self.finish_simple(
                    region,
                    OpKind::Select,
                    vec![c, t, e],
                    vec![ty],
                    result_names,
                )
            }
            "cast" => {
                let v = self.operand()?;
                self.p.expect(Tok::Colon)?;
                let to = self.p.parse_scalar_type()?;
                self.finish_simple(
                    region,
                    OpKind::Cast { to },
                    vec![v],
                    vec![Type::Scalar(to)],
                    result_names,
                )
            }
            "alloc" => {
                self.p.expect(Tok::LParen)?;
                let dims = self.operand_list_until(&Tok::RParen)?;
                self.p.expect(Tok::RParen)?;
                self.p.expect(Tok::Colon)?;
                let ty = self.p.parse_type()?;
                let space = ty
                    .as_memref()
                    .ok_or_else(|| self.p.err("alloc must produce a memref"))?
                    .space;
                self.finish_simple(
                    region,
                    OpKind::Alloc { space },
                    dims,
                    vec![ty],
                    result_names,
                )
            }
            "load" => {
                let mem = self.operand()?;
                self.p.expect(Tok::LBracket)?;
                let idx = self.operand_list_until(&Tok::RBracket)?;
                self.p.expect(Tok::RBracket)?;
                self.p.expect(Tok::Colon)?;
                let ty = self.p.parse_type()?;
                let mut operands = vec![mem];
                operands.extend(idx);
                self.finish_simple(region, OpKind::Load, operands, vec![ty], result_names)
            }
            "store" => {
                let v = self.operand()?;
                self.p.expect(Tok::Comma)?;
                let mem = self.operand()?;
                self.p.expect(Tok::LBracket)?;
                let idx = self.operand_list_until(&Tok::RBracket)?;
                self.p.expect(Tok::RBracket)?;
                let mut operands = vec![v, mem];
                operands.extend(idx);
                self.finish_simple(region, OpKind::Store, operands, vec![], result_names)
            }
            "dim" => {
                let mem = self.operand()?;
                self.p.expect(Tok::Comma)?;
                let index = match self.p.next()? {
                    Tok::Int(v) if v >= 0 => v as usize,
                    t => return Err(self.p.err(format!("expected dimension index, found {t:?}"))),
                };
                self.finish_simple(
                    region,
                    OpKind::Dim { index },
                    vec![mem],
                    vec![Type::index()],
                    result_names,
                )
            }
            "for" => self.parse_for(region, result_names),
            "while" => self.parse_while(region, result_names),
            "if" => self.parse_if(region, result_names),
            "parallel" => self.parse_parallel(region),
            "barrier" => {
                self.p.expect(Tok::Lt)?;
                let level = self.parse_level()?;
                self.p.expect(Tok::Gt)?;
                self.finish_simple(
                    region,
                    OpKind::Barrier { level },
                    vec![],
                    vec![],
                    result_names,
                )
            }
            "alternatives" => self.parse_alternatives(region),
            "yield" => {
                let operands = self.yield_like_operands()?;
                self.finish_simple(region, OpKind::Yield, operands, vec![], result_names)
            }
            "condition" => {
                let operands = self.yield_like_operands()?;
                self.finish_simple(region, OpKind::Condition, operands, vec![], result_names)
            }
            "return" => {
                let operands = self.yield_like_operands()?;
                self.finish_simple(region, OpKind::Return, operands, vec![], result_names)
            }
            "call" => {
                let callee = match self.p.next()? {
                    Tok::At(name) => name,
                    t => return Err(self.p.err(format!("expected @callee, found {t:?}"))),
                };
                self.p.expect(Tok::LParen)?;
                let args = self.operand_list_until(&Tok::RParen)?;
                self.p.expect(Tok::RParen)?;
                self.p.expect(Tok::Colon)?;
                self.p.expect(Tok::LParen)?;
                let mut tys = Vec::new();
                if self.p.peek() != Some(&Tok::RParen) {
                    loop {
                        tys.push(self.p.parse_type()?);
                        if self.p.peek() == Some(&Tok::Comma) {
                            self.p.next()?;
                        } else {
                            break;
                        }
                    }
                }
                self.p.expect(Tok::RParen)?;
                self.finish_simple(region, OpKind::Call { callee }, args, tys, result_names)
            }
            other => {
                // Binary and unary mnemonics share the generic `<op> %a(, %b) : ty` form.
                if let Some(bin) = BinOp::ALL.iter().copied().find(|b| b.mnemonic() == other) {
                    let lhs = self.operand()?;
                    self.p.expect(Tok::Comma)?;
                    let rhs = self.operand()?;
                    self.p.expect(Tok::Colon)?;
                    let ty = self.p.parse_type()?;
                    self.finish_simple(
                        region,
                        OpKind::Binary(bin),
                        vec![lhs, rhs],
                        vec![ty],
                        result_names,
                    )
                } else if let Some(un) = UnOp::ALL.iter().copied().find(|u| u.mnemonic() == other) {
                    let v = self.operand()?;
                    self.p.expect(Tok::Colon)?;
                    let ty = self.p.parse_type()?;
                    self.finish_simple(region, OpKind::Unary(un), vec![v], vec![ty], result_names)
                } else {
                    Err(self.p.err(format!("unknown operation {other}")))
                }
            }
        }
    }

    fn yield_like_operands(&mut self) -> Result<Vec<Value>, ParseError> {
        let mut operands = Vec::new();
        while let Some(Tok::Percent(_)) = self.p.peek() {
            operands.push(self.operand()?);
            if self.p.peek() == Some(&Tok::Comma) {
                self.p.next()?;
            } else {
                break;
            }
        }
        Ok(operands)
    }

    fn parse_level(&mut self) -> Result<ParLevel, ParseError> {
        match self.p.ident()?.as_str() {
            "block" => Ok(ParLevel::Block),
            "thread" => Ok(ParLevel::Thread),
            other => Err(self.p.err(format!("unknown parallel level {other}"))),
        }
    }

    fn finish_simple(
        &mut self,
        region: RegionId,
        kind: OpKind,
        operands: Vec<Value>,
        result_types: Vec<Type>,
        result_names: Vec<String>,
    ) -> Result<(), ParseError> {
        if result_names.len() != result_types.len() {
            return Err(self.p.err(format!(
                "expected {} results, found {}",
                result_types.len(),
                result_names.len()
            )));
        }
        let op = self.func.make_op(kind, operands, result_types, vec![]);
        self.func.push_op(region, op);
        let results = self.func.op(op).results.clone();
        for (name, value) in result_names.into_iter().zip(results) {
            self.bind(name, value);
        }
        Ok(())
    }

    fn parse_for(&mut self, region: RegionId, result_names: Vec<String>) -> Result<(), ParseError> {
        let iv_name = self.p.percent()?;
        self.p.expect(Tok::Eq)?;
        let lb = self.operand()?;
        self.p.expect_ident("to")?;
        let ub = self.operand()?;
        self.p.expect_ident("step")?;
        let step = self.operand()?;
        let mut inits = Vec::new();
        let mut iter_names = Vec::new();
        if let Some(Tok::Ident(w)) = self.p.peek() {
            if w == "iter" {
                self.p.next()?;
                self.p.expect(Tok::LParen)?;
                loop {
                    let name = self.p.percent()?;
                    self.p.expect(Tok::Eq)?;
                    let init = self.operand()?;
                    iter_names.push(name);
                    inits.push(init);
                    if self.p.peek() == Some(&Tok::Comma) {
                        self.p.next()?;
                    } else {
                        break;
                    }
                }
                self.p.expect(Tok::RParen)?;
            }
        }
        self.p.expect(Tok::LBrace)?;
        let body = self.func.new_region();
        let iv = self.func.add_region_arg(body, Type::index());
        self.bind(iv_name, iv);
        let mut result_types = Vec::new();
        for (name, &init) in iter_names.iter().zip(&inits) {
            let ty = self.func.value_type(init).clone();
            let arg = self.func.add_region_arg(body, ty.clone());
            self.bind(name.clone(), arg);
            result_types.push(ty);
        }
        self.parse_region_ops(body)?;
        let mut operands = vec![lb, ub, step];
        operands.extend(inits);
        let op = self
            .func
            .make_op(OpKind::For, operands, result_types, vec![body]);
        self.func.push_op(region, op);
        let results = self.func.op(op).results.clone();
        if result_names.len() != results.len() {
            return Err(self.p.err("for result count mismatch"));
        }
        for (name, value) in result_names.into_iter().zip(results) {
            self.bind(name, value);
        }
        Ok(())
    }

    fn parse_while(
        &mut self,
        region: RegionId,
        result_names: Vec<String>,
    ) -> Result<(), ParseError> {
        self.p.expect(Tok::LParen)?;
        let mut inits = Vec::new();
        let mut arg_names = Vec::new();
        loop {
            let name = self.p.percent()?;
            self.p.expect(Tok::Eq)?;
            let init = self.operand()?;
            arg_names.push(name);
            inits.push(init);
            if self.p.peek() == Some(&Tok::Comma) {
                self.p.next()?;
            } else {
                break;
            }
        }
        self.p.expect(Tok::RParen)?;
        self.p.expect(Tok::LBrace)?;
        let tys: Vec<Type> = inits
            .iter()
            .map(|&v| self.func.value_type(v).clone())
            .collect();
        let cond_region = self.func.new_region();
        for (name, ty) in arg_names.iter().zip(&tys) {
            let arg = self.func.add_region_arg(cond_region, ty.clone());
            self.bind(name.clone(), arg);
        }
        self.parse_region_ops(cond_region)?;
        self.p.expect_ident("do")?;
        self.p.expect(Tok::LParen)?;
        let mut body_names = Vec::new();
        if self.p.peek() != Some(&Tok::RParen) {
            loop {
                body_names.push(self.p.percent()?);
                if self.p.peek() == Some(&Tok::Comma) {
                    self.p.next()?;
                } else {
                    break;
                }
            }
        }
        self.p.expect(Tok::RParen)?;
        self.p.expect(Tok::LBrace)?;
        let body_region = self.func.new_region();
        for (name, ty) in body_names.iter().zip(&tys) {
            let arg = self.func.add_region_arg(body_region, ty.clone());
            self.bind(name.clone(), arg);
        }
        self.parse_region_ops(body_region)?;
        let op = self
            .func
            .make_op(OpKind::While, inits, tys, vec![cond_region, body_region]);
        self.func.push_op(region, op);
        let results = self.func.op(op).results.clone();
        if result_names.len() != results.len() {
            return Err(self.p.err("while result count mismatch"));
        }
        for (name, value) in result_names.into_iter().zip(results) {
            self.bind(name, value);
        }
        Ok(())
    }

    fn parse_if(&mut self, region: RegionId, result_names: Vec<String>) -> Result<(), ParseError> {
        let cond = self.operand()?;
        self.p.expect(Tok::LBrace)?;
        let then_region = self.func.new_region();
        self.parse_region_ops(then_region)?;
        let else_region = self.func.new_region();
        let has_else = matches!(self.p.peek(), Some(Tok::Ident(w)) if w == "else");
        if has_else {
            self.p.next()?;
            self.p.expect(Tok::LBrace)?;
            self.parse_region_ops(else_region)?;
        } else {
            let y = self.func.make_op(OpKind::Yield, vec![], vec![], vec![]);
            self.func.push_op(else_region, y);
        }
        // Result types come from the then region's terminator.
        let then_yield = *self
            .func
            .region(then_region)
            .ops
            .last()
            .ok_or_else(|| self.p.err("empty if region"))?;
        let result_types: Vec<Type> = self
            .func
            .op(then_yield)
            .operands
            .clone()
            .iter()
            .map(|&v| self.func.value_type(v).clone())
            .collect();
        if result_names.len() != result_types.len() {
            return Err(self.p.err("if result count mismatch"));
        }
        let op = self.func.make_op(
            OpKind::If,
            vec![cond],
            result_types,
            vec![then_region, else_region],
        );
        self.func.push_op(region, op);
        let results = self.func.op(op).results.clone();
        for (name, value) in result_names.into_iter().zip(results) {
            self.bind(name, value);
        }
        Ok(())
    }

    fn parse_parallel(&mut self, region: RegionId) -> Result<(), ParseError> {
        self.p.expect(Tok::Lt)?;
        let level = self.parse_level()?;
        self.p.expect(Tok::Gt)?;
        self.p.expect(Tok::LParen)?;
        let mut iv_names = Vec::new();
        loop {
            iv_names.push(self.p.percent()?);
            if self.p.peek() == Some(&Tok::Comma) {
                self.p.next()?;
            } else {
                break;
            }
        }
        self.p.expect(Tok::RParen)?;
        self.p.expect_ident("to")?;
        self.p.expect(Tok::LParen)?;
        let ubs = self.operand_list_until(&Tok::RParen)?;
        self.p.expect(Tok::RParen)?;
        self.p.expect(Tok::LBrace)?;
        if ubs.len() != iv_names.len() {
            return Err(self.p.err("parallel iv/ub count mismatch"));
        }
        let body = self.func.new_region();
        for name in iv_names {
            let arg = self.func.add_region_arg(body, Type::index());
            self.bind(name, arg);
        }
        self.parse_region_ops(body)?;
        let op = self
            .func
            .make_op(OpKind::Parallel { level }, ubs, vec![], vec![body]);
        self.func.push_op(region, op);
        Ok(())
    }

    fn parse_alternatives(&mut self, region: RegionId) -> Result<(), ParseError> {
        let mut selected = None;
        if let Some(Tok::Ident(w)) = self.p.peek() {
            if w == "selected" {
                self.p.next()?;
                self.p.expect(Tok::Eq)?;
                match self.p.next()? {
                    Tok::Int(v) if v >= 0 => selected = Some(v as usize),
                    t => return Err(self.p.err(format!("expected selected index, found {t:?}"))),
                }
            }
        }
        self.p.expect(Tok::LBrace)?;
        let mut regions = Vec::new();
        loop {
            match self.p.next()? {
                Tok::RBrace => break,
                Tok::Ident(w) if w == "case" => {
                    self.p.expect(Tok::LBrace)?;
                    let r = self.func.new_region();
                    self.parse_region_ops(r)?;
                    regions.push(r);
                }
                t => return Err(self.p.err(format!("expected 'case' or '}}', found {t:?}"))),
            }
        }
        let op = self
            .func
            .make_op(OpKind::Alternatives { selected }, vec![], vec![], regions);
        self.func.push_op(region, op);
        Ok(())
    }
}

fn parse_one_function(p: &mut Parser) -> Result<Function, ParseError> {
    p.expect_ident("func")?;
    let name = match p.next()? {
        Tok::At(name) => name,
        t => return Err(p.err(format!("expected @name, found {t:?}"))),
    };
    p.expect(Tok::LParen)?;
    let mut func = Function::new(name);
    let mut values = HashMap::new();
    if p.peek() != Some(&Tok::RParen) {
        loop {
            let pname = p.percent()?;
            p.expect(Tok::Colon)?;
            let ty = p.parse_type()?;
            let v = func.add_param(ty);
            values.insert(pname, v);
            if p.peek() == Some(&Tok::Comma) {
                p.next()?;
            } else {
                break;
            }
        }
    }
    p.expect(Tok::RParen)?;
    p.expect(Tok::LBrace)?;
    let body = func.body();
    let mut fp = FuncParser { p, func, values };
    fp.parse_region_ops(body)?;
    Ok(fp.func)
}

/// Parses a single function from its textual form.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax or name-resolution
/// problem encountered.
///
/// # Example
///
/// ```
/// let text = "func @f(%0: index) {\n  return\n}\n";
/// let func = respec_ir::parse_function(text)?;
/// assert_eq!(func.name(), "f");
/// # Ok::<(), respec_ir::ParseError>(())
/// ```
pub fn parse_function(src: &str) -> Result<Function, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let f = parse_one_function(&mut p)?;
    if p.pos != p.toks.len() {
        return Err(p.err("trailing input after function"));
    }
    Ok(f)
}

/// Parses a module containing any number of functions.
///
/// # Errors
///
/// Returns a [`ParseError`] on the first malformed function.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut module = Module::new();
    while p.pos != p.toks.len() {
        module.add_function(parse_one_function(&mut p)?);
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(text: &str) {
        let f = parse_function(text).expect("first parse");
        crate::verify_function(&f).expect("verification");
        let printed = f.to_string();
        let f2 = parse_function(&printed).expect("reparse");
        assert_eq!(printed, f2.to_string(), "printer must be a fixpoint");
    }

    #[test]
    fn parses_minimal_function() {
        let f = parse_function("func @f() { return }").unwrap();
        assert_eq!(f.name(), "f");
        assert!(f.params().is_empty());
    }

    #[test]
    fn round_trips_arith() {
        round_trip(
            "func @f(%a: f32) {\n  %c = fconst 1.5 : f32\n  %s = add %a, %c : f32\n  %q = sqrt %s : f32\n  return %q\n}",
        );
    }

    #[test]
    fn round_trips_kernel() {
        round_trip(
            "func @k(%g: index, %m: memref<?xf32, global>) {
  %c32 = const 32 : index
  parallel<block> (%b) to (%g) {
    %sm = alloc() : memref<32xf32, shared>
    parallel<thread> (%t) to (%c32) {
      %base = mul %b, %c32 : index
      %i = add %base, %t : index
      %v = load %m[%i] : f32
      store %v, %sm[%t]
      barrier<thread>
      %w = load %sm[%t] : f32
      store %w, %m[%i]
      yield
    }
    yield
  }
  return
}",
        );
    }

    #[test]
    fn round_trips_for_with_iters() {
        round_trip(
            "func @f(%n: index) {
  %c0 = const 0 : index
  %c1 = const 1 : index
  %z = fconst 0.0 : f32
  %r = for %i = %c0 to %n step %c1 iter (%acc = %z) {
    %f = cast %i : f32
    %nx = add %acc, %f : f32
    yield %nx
  }
  return %r
}",
        );
    }

    #[test]
    fn round_trips_if_and_while() {
        round_trip(
            "func @f(%x: i32, %n: i32) {
  %c = cmp lt %x, %n
  %r = if %c {
    yield %x
  } else {
    yield %n
  }
  %w = while (%a = %r) {
    %cc = cmp lt %a, %n
    condition %cc, %a
  } do (%bv) {
    %c1 = const 1 : i32
    %nx = add %bv, %c1 : i32
    yield %nx
  }
  return %w
}",
        );
    }

    #[test]
    fn round_trips_alternatives() {
        round_trip(
            "func @k(%g: index) {
  alternatives {
  case {
    yield
  }
  case {
    yield
  }
  }
  return
}",
        );
    }

    #[test]
    fn parses_module_with_calls() {
        let m = parse_module(
            "func @helper(%x: f32) {\n  return %x\n}\nfunc @main(%x: f32) {\n  %r = call @helper(%x) : (f32)\n  return %r\n}",
        )
        .unwrap();
        assert_eq!(m.len(), 2);
        crate::verify_module(&m).unwrap();
    }

    #[test]
    fn rejects_undefined_value() {
        let err = parse_function("func @f() { return %nope }").unwrap_err();
        assert!(err.message.contains("undefined value"));
    }

    #[test]
    fn rejects_unknown_op() {
        let err = parse_function("func @f() { frobnicate }").unwrap_err();
        assert!(err.message.contains("unknown operation"));
    }

    #[test]
    fn rejects_unterminated_memref() {
        assert!(parse_function("func @f(%m: memref<4xf32, global) { return }").is_err());
    }

    #[test]
    fn negative_and_exponent_literals() {
        round_trip("func @f() {\n  %a = const -5 : i32\n  %b = fconst -1.5e10 : f64\n  return\n}");
    }
}
