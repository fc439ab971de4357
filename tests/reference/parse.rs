//! Textual assembly parser.
//!
//! Accepts the syntax produced by the printer ([`lir::print`]) plus a few
//! conveniences: named registers (`%x`), decimal float literals (`1.5`),
//! and arbitrary whitespace/comments (`;` to end of line).

use lir::func::{BlockId, FuncDecl, Function, Global, Module, Phi};
use lir::inst::{BinOp, CastOp, FBinOp, FcmpPred, IcmpPred, Inst, Term};
use lir::types::Ty;
use lir::value::{Constant, Operand, Reg};
use std::collections::HashMap;
use std::fmt;

/// A parsed call: callee symbol, return type, and typed arguments.
type CallSig = (String, Ty, Vec<(Ty, Operand)>);

/// A parse failure, with 1-based line information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line of the offending token.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a whole module from assembly text.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntactic problem. The
/// parser does not run the [verifier](lir::verify); call it separately for
/// semantic SSA checks.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let mut m = Parser::new(src)?.module()?;
    // The printer records the module name as a `; module <name>` header
    // comment (see `lir::print`); recover it so print → parse round-trips
    // the name — repro files and campaign artifacts key on it.
    if let Some(name) = src.lines().find_map(|l| l.trim().strip_prefix("; module ")) {
        m.name = name.trim().to_owned();
    }
    Ok(m)
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Local(String),
    GlobalSym(String),
    Int(i128),
    Float(u64),
    Punct(char),
    Eof,
}

struct Parser {
    toks: Vec<(Tok, u32)>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        let mut toks = Vec::new();
        let mut line = 1u32;
        let bytes: Vec<char> = src.chars().collect();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i];
            match c {
                '\n' => {
                    line += 1;
                    i += 1;
                }
                c if c.is_whitespace() => i += 1,
                ';' => {
                    while i < bytes.len() && bytes[i] != '\n' {
                        i += 1;
                    }
                }
                '%' | '@' => {
                    let start = i + 1;
                    let mut j = start;
                    while j < bytes.len()
                        && (bytes[j].is_alphanumeric() || bytes[j] == '_' || bytes[j] == '.')
                    {
                        j += 1;
                    }
                    if j == start {
                        return Err(ParseError { line, msg: format!("empty symbol after `{c}`") });
                    }
                    let name: String = bytes[start..j].iter().collect();
                    toks.push((
                        if c == '%' { Tok::Local(name) } else { Tok::GlobalSym(name) },
                        line,
                    ));
                    i = j;
                }
                '-' | '0'..='9' => {
                    let start = i;
                    let mut j = i + (c == '-') as usize;
                    // f0x... float literal
                    if c == 'f' { /* unreachable in this arm */ }
                    let mut is_float = false;
                    while j < bytes.len()
                        && (bytes[j].is_ascii_digit()
                            || bytes[j] == '.'
                            || (is_hex_context(&bytes, start, j)))
                    {
                        if bytes[j] == '.' {
                            is_float = true;
                        }
                        j += 1;
                    }
                    let text: String = bytes[start..j].iter().collect();
                    if is_float {
                        let v: f64 = text
                            .parse()
                            .map_err(|_| ParseError { line, msg: format!("bad float `{text}`") })?;
                        toks.push((Tok::Float(v.to_bits()), line));
                    } else {
                        let v: i128 = text.parse().map_err(|_| ParseError {
                            line,
                            msg: format!("bad integer `{text}`"),
                        })?;
                        toks.push((Tok::Int(v), line));
                    }
                    i = j;
                }
                c if c.is_alphabetic() || c == '_' => {
                    let start = i;
                    let mut j = i;
                    while j < bytes.len()
                        && (bytes[j].is_alphanumeric() || bytes[j] == '_' || bytes[j] == '.')
                    {
                        j += 1;
                    }
                    let word: String = bytes[start..j].iter().collect();
                    // `f0x<hex>` float literal
                    if let Some(hex) = word.strip_prefix("f0x") {
                        let v = u64::from_str_radix(hex, 16).map_err(|_| ParseError {
                            line,
                            msg: format!("bad float literal `{word}`"),
                        })?;
                        toks.push((Tok::Float(v), line));
                    } else {
                        toks.push((Tok::Ident(word), line));
                    }
                    i = j;
                }
                '=' | ',' | '(' | ')' | '[' | ']' | '{' | '}' | ':' | '*' => {
                    toks.push((Tok::Punct(c), line));
                    i += 1;
                }
                other => {
                    return Err(ParseError { line, msg: format!("unexpected character `{other}`") })
                }
            }
        }
        toks.push((Tok::Eof, line));
        Ok(Parser { toks, pos: 0 })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { line: self.line(), msg: msg.into() })
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.bump() {
            Tok::Punct(p) if p == c => Ok(()),
            t => Err(ParseError {
                line: self.toks[self.pos - 1].1,
                msg: format!("expected `{c}`, found {t:?}"),
            }),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if *self.peek() == Tok::Punct(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.bump() {
            Tok::Ident(w) if w == kw => Ok(()),
            t => Err(ParseError {
                line: self.toks[self.pos - 1].1,
                msg: format!("expected `{kw}`, found {t:?}"),
            }),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(w) => Ok(w),
            t => Err(ParseError {
                line: self.toks[self.pos - 1].1,
                msg: format!("expected identifier, found {t:?}"),
            }),
        }
    }

    fn global_sym(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::GlobalSym(w) => Ok(w),
            t => Err(ParseError {
                line: self.toks[self.pos - 1].1,
                msg: format!("expected `@symbol`, found {t:?}"),
            }),
        }
    }

    fn local_sym(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Local(w) => Ok(w),
            t => Err(ParseError {
                line: self.toks[self.pos - 1].1,
                msg: format!("expected `%symbol`, found {t:?}"),
            }),
        }
    }

    fn int(&mut self) -> Result<i128, ParseError> {
        match self.bump() {
            Tok::Int(v) => Ok(v),
            t => Err(ParseError {
                line: self.toks[self.pos - 1].1,
                msg: format!("expected integer, found {t:?}"),
            }),
        }
    }

    fn ty(&mut self) -> Result<Ty, ParseError> {
        let w = self.ident()?;
        w.parse::<Ty>()
            .map_err(|e| ParseError { line: self.toks[self.pos - 1].1, msg: e.to_string() })
    }

    fn module(&mut self) -> Result<Module, ParseError> {
        let mut m = Module::new("parsed");
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Ident(w) if w == "declare" => {
                    self.bump();
                    let ret = self.ty()?;
                    let name = self.global_sym()?;
                    self.expect_punct('(')?;
                    let mut params = Vec::new();
                    if !self.eat_punct(')') {
                        loop {
                            params.push(self.ty()?);
                            if self.eat_punct(')') {
                                break;
                            }
                            self.expect_punct(',')?;
                        }
                    }
                    m.declarations.push(FuncDecl { name, ret, params });
                }
                Tok::Ident(w) if w == "define" => {
                    self.bump();
                    let f = self.function(&m)?;
                    m.functions.push(f);
                }
                Tok::GlobalSym(_) => {
                    let name = self.global_sym()?;
                    self.expect_punct('=')?;
                    let kind = self.ident()?;
                    let is_const = match kind.as_str() {
                        "global" => false,
                        "constant" => true,
                        k => {
                            return self
                                .err(format!("expected `global` or `constant`, found `{k}`"))
                        }
                    };
                    self.expect_punct('[')?;
                    let n = self.int()? as usize;
                    self.expect_ident("x")?;
                    self.expect_ident("i64")?;
                    self.expect_punct(']')?;
                    self.expect_punct('[')?;
                    let mut words = Vec::with_capacity(n);
                    if !self.eat_punct(']') {
                        loop {
                            words.push(self.int()? as i64);
                            if self.eat_punct(']') {
                                break;
                            }
                            self.expect_punct(',')?;
                        }
                    }
                    if words.len() != n {
                        return self.err(format!(
                            "global `{name}`: {} initializers for [{} x i64]",
                            words.len(),
                            n
                        ));
                    }
                    m.globals.push(Global { name, words, is_const });
                }
                t => return self.err(format!("expected top-level item, found {t:?}")),
            }
        }
        Ok(m)
    }

    fn function(&mut self, m: &Module) -> Result<Function, ParseError> {
        let ret = self.ty()?;
        let name = self.global_sym()?;
        let mut f = Function::new(name, ret);
        let mut regs: HashMap<String, Reg> = HashMap::new();
        self.expect_punct('(')?;
        if !self.eat_punct(')') {
            loop {
                let ty = self.ty()?;
                let pname = self.local_sym()?;
                let r = f.add_param(ty);
                if regs.insert(pname.clone(), r).is_some() {
                    return self.err(format!("duplicate parameter `%{pname}`"));
                }
                if self.eat_punct(')') {
                    break;
                }
                self.expect_punct(',')?;
            }
        }
        self.expect_punct('{')?;
        // Pre-scan for block labels so branches can be resolved immediately.
        let mut blocks: HashMap<String, BlockId> = HashMap::new();
        {
            let save = self.pos;
            let mut depth = 1;
            while depth > 0 {
                match self.bump() {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => depth -= 1,
                    Tok::Ident(w) if *self.peek() == Tok::Punct(':') => {
                        if blocks.contains_key(&w) {
                            return self.err(format!("duplicate block label `{w}`"));
                        }
                        let id = f.add_block(w.clone());
                        blocks.insert(w, id);
                    }
                    Tok::Eof => return self.err("unterminated function body"),
                    _ => {}
                }
            }
            self.pos = save;
        }
        if f.blocks.is_empty() {
            return self.err("function has no blocks");
        }
        // Parse blocks in order.
        let mut cur: Option<BlockId> = None;
        loop {
            if self.eat_punct('}') {
                break;
            }
            // Label?
            if let Tok::Ident(w) = self.peek().clone() {
                if self.toks[self.pos + 1].0 == Tok::Punct(':') {
                    self.bump();
                    self.bump();
                    cur = Some(blocks[&w]);
                    continue;
                }
            }
            let Some(bid) = cur else {
                return self.err("instruction before first block label");
            };
            self.statement(m, &mut f, &mut regs, &blocks, bid)?;
        }
        Ok(f)
    }

    /// Resolve a register name, creating a fresh register on first sight
    /// (forward references are allowed; the verifier reports truly undefined
    /// registers).
    fn reg(&mut self, f: &mut Function, regs: &mut HashMap<String, Reg>, name: String) -> Reg {
        *regs.entry(name).or_insert_with(|| f.new_reg())
    }

    fn operand(
        &mut self,
        m: &Module,
        f: &mut Function,
        regs: &mut HashMap<String, Reg>,
        ty: Ty,
    ) -> Result<Operand, ParseError> {
        match self.bump() {
            Tok::Local(name) => Ok(Operand::Reg(self.reg(f, regs, name))),
            Tok::Int(v) => {
                if !ty.is_int() {
                    return self.err(format!("integer literal for non-integer type {ty}"));
                }
                Ok(Operand::int(ty, v as i64))
            }
            Tok::Float(bits) => Ok(Operand::Const(Constant::Float(bits))),
            Tok::Ident(w) if w == "true" => Ok(Operand::bool(true)),
            Tok::Ident(w) if w == "false" => Ok(Operand::bool(false)),
            Tok::Ident(w) if w == "null" => Ok(Operand::Const(Constant::Null)),
            Tok::Ident(w) if w == "undef" => Ok(Operand::Const(Constant::Undef(ty))),
            Tok::GlobalSym(name) => match m.global_by_name(&name) {
                Some((gid, _)) => Ok(Operand::Global(gid)),
                None => self
                    .err(format!("unknown global `@{name}` (globals must be declared before use)")),
            },
            t => self.err(format!("expected operand, found {t:?}")),
        }
    }

    fn label(&mut self, blocks: &HashMap<String, BlockId>) -> Result<BlockId, ParseError> {
        self.expect_ident("label")?;
        let name = self.local_sym()?;
        blocks.get(&name).copied().ok_or_else(|| ParseError {
            line: self.toks[self.pos - 1].1,
            msg: format!("unknown block `%{name}`"),
        })
    }

    #[allow(clippy::too_many_lines)]
    fn statement(
        &mut self,
        m: &Module,
        f: &mut Function,
        regs: &mut HashMap<String, Reg>,
        blocks: &HashMap<String, BlockId>,
        bid: BlockId,
    ) -> Result<(), ParseError> {
        match self.bump() {
            // Assignment: %x = <rhs>
            Tok::Local(dst_name) => {
                self.expect_punct('=')?;
                let dst = self.reg(f, regs, dst_name);
                let op_word = self.ident()?;
                let inst = self.rhs(m, f, regs, blocks, bid, dst, &op_word)?;
                if let Some(inst) = inst {
                    f.block_mut(bid).insts.push(inst);
                }
                Ok(())
            }
            Tok::Ident(w) => match w.as_str() {
                "store" => {
                    let ty = self.ty()?;
                    let val = self.operand(m, f, regs, ty)?;
                    self.expect_punct(',')?;
                    self.expect_ident("ptr")?;
                    let ptr = self.operand(m, f, regs, Ty::Ptr)?;
                    f.block_mut(bid).insts.push(Inst::Store { ty, val, ptr });
                    Ok(())
                }
                "call" => {
                    let (callee, ret, args) = self.call_tail(m, f, regs)?;
                    f.block_mut(bid).insts.push(Inst::Call { dst: None, ret, callee, args });
                    Ok(())
                }
                "br" => {
                    if let Tok::Ident(w) = self.peek() {
                        if w == "label" {
                            let target = self.label(blocks)?;
                            f.block_mut(bid).term = Term::Br { target };
                            return Ok(());
                        }
                    }
                    self.expect_ident("i1")?;
                    let cond = self.operand(m, f, regs, Ty::I1)?;
                    self.expect_punct(',')?;
                    let t = self.label(blocks)?;
                    self.expect_punct(',')?;
                    let fl = self.label(blocks)?;
                    f.block_mut(bid).term = Term::CondBr { cond, t, f: fl };
                    Ok(())
                }
                "switch" => {
                    let ty = self.ty()?;
                    let val = self.operand(m, f, regs, ty)?;
                    self.expect_punct(',')?;
                    let default = self.label(blocks)?;
                    self.expect_punct('[')?;
                    let mut cases = Vec::new();
                    while !self.eat_punct(']') {
                        let k = self.int()? as i64;
                        self.expect_punct(',')?;
                        let b = self.label(blocks)?;
                        cases.push((k, b));
                    }
                    f.block_mut(bid).term = Term::Switch { ty, val, default, cases };
                    Ok(())
                }
                "ret" => {
                    let ty = self.ty()?;
                    if ty == Ty::Void {
                        f.block_mut(bid).term = Term::Ret { ty, val: None };
                    } else {
                        let v = self.operand(m, f, regs, ty)?;
                        f.block_mut(bid).term = Term::Ret { ty, val: Some(v) };
                    }
                    Ok(())
                }
                "unreachable" => {
                    f.block_mut(bid).term = Term::Unreachable;
                    Ok(())
                }
                other => self.err(format!("unknown instruction `{other}`")),
            },
            t => self.err(format!("expected statement, found {t:?}")),
        }
    }

    fn call_tail(
        &mut self,
        m: &Module,
        f: &mut Function,
        regs: &mut HashMap<String, Reg>,
    ) -> Result<CallSig, ParseError> {
        let ret = self.ty()?;
        let callee = self.global_sym()?;
        self.expect_punct('(')?;
        let mut args = Vec::new();
        if !self.eat_punct(')') {
            loop {
                let ty = self.ty()?;
                let a = self.operand(m, f, regs, ty)?;
                args.push((ty, a));
                if self.eat_punct(')') {
                    break;
                }
                self.expect_punct(',')?;
            }
        }
        Ok((callee, ret, args))
    }

    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn rhs(
        &mut self,
        m: &Module,
        f: &mut Function,
        regs: &mut HashMap<String, Reg>,
        blocks: &HashMap<String, BlockId>,
        bid: BlockId,
        dst: Reg,
        word: &str,
    ) -> Result<Option<Inst>, ParseError> {
        // Integer binops
        if let Some(op) = BinOp::ALL.iter().find(|o| o.mnemonic() == word) {
            let ty = self.ty()?;
            let a = self.operand(m, f, regs, ty)?;
            self.expect_punct(',')?;
            let b = self.operand(m, f, regs, ty)?;
            return Ok(Some(Inst::Bin { dst, op: *op, ty, a, b }));
        }
        if let Some(op) = FBinOp::ALL.iter().find(|o| o.mnemonic() == word) {
            self.expect_ident("f64")?;
            let a = self.operand(m, f, regs, Ty::F64)?;
            self.expect_punct(',')?;
            let b = self.operand(m, f, regs, Ty::F64)?;
            return Ok(Some(Inst::FBin { dst, op: *op, a, b }));
        }
        match word {
            "icmp" => {
                let pw = self.ident()?;
                let pred = IcmpPred::ALL.iter().find(|p| p.mnemonic() == pw).copied().ok_or_else(
                    || ParseError { line: self.line(), msg: format!("bad icmp predicate `{pw}`") },
                )?;
                let ty = self.ty()?;
                let a = self.operand(m, f, regs, ty)?;
                self.expect_punct(',')?;
                let b = self.operand(m, f, regs, ty)?;
                Ok(Some(Inst::Icmp { dst, pred, ty, a, b }))
            }
            "fcmp" => {
                let pw = self.ident()?;
                let pred = FcmpPred::ALL.iter().find(|p| p.mnemonic() == pw).copied().ok_or_else(
                    || ParseError { line: self.line(), msg: format!("bad fcmp predicate `{pw}`") },
                )?;
                self.expect_ident("f64")?;
                let a = self.operand(m, f, regs, Ty::F64)?;
                self.expect_punct(',')?;
                let b = self.operand(m, f, regs, Ty::F64)?;
                Ok(Some(Inst::Fcmp { dst, pred, a, b }))
            }
            "select" => {
                self.expect_ident("i1")?;
                let c = self.operand(m, f, regs, Ty::I1)?;
                self.expect_punct(',')?;
                let ty = self.ty()?;
                let t = self.operand(m, f, regs, ty)?;
                self.expect_punct(',')?;
                let ty2 = self.ty()?;
                if ty2 != ty {
                    return self.err("select arm types differ");
                }
                let fv = self.operand(m, f, regs, ty)?;
                Ok(Some(Inst::Select { dst, ty, c, t, f: fv }))
            }
            "zext" | "sext" | "trunc" | "fptosi" | "sitofp" => {
                let op = match word {
                    "zext" => CastOp::Zext,
                    "sext" => CastOp::Sext,
                    "trunc" => CastOp::Trunc,
                    "fptosi" => CastOp::FpToSi,
                    _ => CastOp::SiToFp,
                };
                let from = self.ty()?;
                let v = self.operand(m, f, regs, from)?;
                self.expect_ident("to")?;
                let to = self.ty()?;
                Ok(Some(Inst::Cast { dst, op, from, to, v }))
            }
            "alloca" => {
                let size = self.int()? as u64;
                self.expect_punct(',')?;
                self.expect_ident("align")?;
                let align = self.int()? as u64;
                Ok(Some(Inst::Alloca { dst, size, align }))
            }
            "load" => {
                let ty = self.ty()?;
                self.expect_punct(',')?;
                self.expect_ident("ptr")?;
                let ptr = self.operand(m, f, regs, Ty::Ptr)?;
                Ok(Some(Inst::Load { dst, ty, ptr }))
            }
            "gep" => {
                self.expect_ident("ptr")?;
                let base = self.operand(m, f, regs, Ty::Ptr)?;
                self.expect_punct(',')?;
                self.expect_ident("i64")?;
                let offset = self.operand(m, f, regs, Ty::I64)?;
                Ok(Some(Inst::Gep { dst, base, offset }))
            }
            "call" => {
                let (callee, ret, args) = self.call_tail(m, f, regs)?;
                Ok(Some(Inst::Call { dst: Some(dst), ret, callee, args }))
            }
            "phi" => {
                let ty = self.ty()?;
                let mut incomings = Vec::new();
                loop {
                    self.expect_punct('[')?;
                    let v = self.operand(m, f, regs, ty)?;
                    self.expect_punct(',')?;
                    let bname = self.local_sym()?;
                    let pred = blocks.get(&bname).copied().ok_or_else(|| ParseError {
                        line: self.line(),
                        msg: format!("unknown block `%{bname}` in phi"),
                    })?;
                    self.expect_punct(']')?;
                    incomings.push((pred, v));
                    if !self.eat_punct(',') {
                        break;
                    }
                }
                f.block_mut(bid).phis.push(Phi { dst, ty, incomings });
                Ok(None)
            }
            other => self.err(format!("unknown opcode `{other}`")),
        }
    }
}

/// `true` while scanning the digits of a decimal literal; hex digits only
/// appear in `f0x…` floats which are lexed as identifiers, so this is always
/// false — kept as a named helper for clarity at the call site.
fn is_hex_context(_bytes: &[char], _start: usize, _j: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::print::print_function;

    const SIMPLE: &str = "\
define i64 @f(i64 %x) {
entry:
  %y = add i64 %x, 3
  ret i64 %y
}
";

    #[test]
    fn parses_simple_function() {
        let m = parse_module(SIMPLE).unwrap();
        assert_eq!(m.functions.len(), 1);
        let f = &m.functions[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.ret, Ty::I64);
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn round_trips_through_printer() {
        let m = parse_module(SIMPLE).unwrap();
        let printed = m.to_string();
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(m.functions[0].canonicalized(), m2.functions[0].canonicalized());
    }

    #[test]
    fn parses_control_flow_and_phis() {
        let src = "\
define i64 @g(i1 %c, i64 %a) {
entry:
  br i1 %c, label %left, label %join
left:
  %d = mul i64 %a, 2
  br label %join
join:
  %x = phi i64 [ %a, %entry ], [ %d, %left ]
  ret i64 %x
}
";
        let m = parse_module(src).unwrap();
        let f = &m.functions[0];
        assert_eq!(f.blocks.len(), 3);
        let join = &f.blocks[2];
        assert_eq!(join.phis.len(), 1);
        assert_eq!(join.phis[0].incomings.len(), 2);
        let printed = print_function(&m, f);
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(f.canonicalized(), m2.functions[0].canonicalized());
    }

    #[test]
    fn parses_globals_declares_memory_calls() {
        let src = "\
@tab = constant [2 x i64] [10, 20]
@buf = global [4 x i64] [0, 0, 0, 0]
declare i64 @strlen(ptr)

define i64 @h(ptr %p) {
entry:
  %a = alloca 8, align 8
  store i64 7, ptr %a
  %v = load i64, ptr %a
  %q = gep ptr @buf, i64 8
  store i64 %v, ptr %q
  %n = call i64 @strlen(ptr %p)
  %s = add i64 %v, %n
  ret i64 %s
}
";
        let m = parse_module(src).unwrap();
        assert_eq!(m.globals.len(), 2);
        assert!(m.globals[0].is_const);
        assert_eq!(m.globals[0].words, vec![10, 20]);
        assert_eq!(m.declarations.len(), 1);
        let printed = m.to_string();
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(m.functions[0].canonicalized(), m2.functions[0].canonicalized());
    }

    #[test]
    fn parses_switch_select_casts_floats() {
        let src = "\
define f64 @k(i32 %v, f64 %x) {
entry:
  switch i32 %v, label %dflt [ 1, label %one -2, label %dflt ]
one:
  %w = sext i32 %v to i64
  %t = trunc i64 %w to i8
  %c = icmp sgt i8 %t, 0
  %s = select i1 %c, i32 %v, i32 7
  %fv = sitofp i32 %s to f64
  %fy = fadd f64 %fv, 1.5
  %fc = fcmp olt f64 %fy, %x
  br i1 %fc, label %dflt, label %one
dflt:
  %r = phi f64 [ %x, %entry ], [ %fy, %one ]
  ret f64 %r
}
";
        let m = parse_module(src).unwrap();
        let printed = m.to_string();
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(m.functions[0].canonicalized(), m2.functions[0].canonicalized());
    }

    #[test]
    fn parses_bool_null_undef_operands() {
        let src = "\
define void @u(ptr %p) {
entry:
  %c = icmp eq ptr %p, null
  %s = select i1 true, i64 undef, i64 3
  call void @sink(i64 %s)
  ret void
}
";
        let m = parse_module(src).unwrap();
        let f = &m.functions[0];
        assert_eq!(f.blocks[0].insts.len(), 3);
    }

    #[test]
    fn error_on_unknown_block() {
        let src = "define void @e() {\nentry:\n  br label %nope\n}\n";
        let err = parse_module(src).unwrap_err();
        assert!(err.msg.contains("unknown block"));
        assert_eq!(err.line, 3);
    }

    #[test]
    fn error_on_duplicate_label() {
        let src = "define void @e() {\na:\n  ret void\na:\n  ret void\n}\n";
        let err = parse_module(src).unwrap_err();
        assert!(err.msg.contains("duplicate block label"));
    }

    #[test]
    fn error_on_unknown_global() {
        let src = "define void @e() {\nentry:\n  store i64 1, ptr @nope\n  ret void\n}\n";
        let err = parse_module(src).unwrap_err();
        assert!(err.msg.contains("unknown global"));
    }

    #[test]
    fn float_hex_literals_round_trip() {
        let src = "define f64 @c() {\nentry:\n  %x = fadd f64 f0x3ff8000000000000, 1.5\n  ret f64 %x\n}\n";
        let m = parse_module(src).unwrap();
        let printed = m.to_string();
        assert!(printed.contains("f0x3ff8000000000000"));
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(m.functions[0].canonicalized(), m2.functions[0].canonicalized());
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let src =
            "; leading comment\ndefine void @w() { ; trailing\nentry:\n  ret void ; done\n}\n";
        assert!(parse_module(src).is_ok());
    }
}
