//! The versioned verdict wire format: a zero-dependency JSON value type,
//! encoder and recursive-descent parser, plus [`ToWire`] encoding for the
//! whole verdict vocabulary.
//!
//! Everything the validator can say about a function pair — [`Verdict`],
//! [`FailReason`], [`ValidationStats`], [`Witness`], [`TriagedVerdict`] —
//! encodes to a [`Json`] value, so verdicts can leave the process (`llvm-md
//! serve` verdict lines, the on-disk verdict store, `llvm-md validate` and
//! `chain` reports) without a serde dependency. Encoding is one-way: no
//! consumer decodes a verdict back into typed values, it reads the fields
//! it needs from the parsed [`Json`] tree.
//!
//! # Records
//!
//! Each struct in the vocabulary is declared once, in a
//! [`wire_record!`](crate::wire_record) field table that lists every field
//! in wire order with its key. The table generates both the record's
//! [`ToWire`] impl and its `PartialEq`, the *determinism contract*:
//! equality compares every field except those marked `[timing]` (durations
//! and scheduling-dependent counters), so two runs over the same inputs
//! compare equal at any worker count. The driver declares its report
//! records (`FunctionRecord`, `Report`, `Blame`, `ChainStep`,
//! `ChainReport`, `CampaignReport`) the same way.
//!
//! # Versioning
//!
//! Every top-level wire document carries a `schema_version` field (see
//! [`SCHEMA_VERSION`] and [`envelope`]). The compatibility policy is
//! deliberately strict: readers accept **exactly** their own version and
//! reject everything else ([`check_version`]). A persisted verdict store or
//! a saved request file from another version is re-derivable from source
//! modules, so refusing to guess is always safe — and a version bump is the
//! documented signal that byte layouts changed.
//!
//! # Byte guarantees
//!
//! * **Byte fixpoint** — for every [`Json`] value `j`,
//!   `parse(&j.to_string()).to_string() == j.to_string()`: encoding is a
//!   fixpoint of parse∘encode, which is what lets the serve daemon replay
//!   stored verdict lines byte-identically.
//! * **Integer exactness** — numbers are IEEE doubles, exact only to 2⁵³,
//!   so full-width `u64` values (fingerprints, seeds, witness arguments)
//!   are encoded as `"0x…"` hex *strings* ([`u64_hex`]/[`parse_u64`]), never
//!   as JSON numbers.

use crate::cache::CacheStats;
use crate::cycles::MatchStrategy;
use crate::egraph::{SaturationLimits, SaturationStats};
use crate::rules::{RewriteCounts, RuleSet, RULE_ENGINE_VERSION};
use crate::sat::{SatOptions, SatOutcome, SatStats, SolverStats};
use crate::triage::{
    Cascade, Triage, TriageClass, TriageOptions, TriagedVerdict, VerdictClass, Witness,
};
use crate::validate::{
    DivergentRoots, FailReason, Limits, Normalizer, ValidationStats, Validator, Verdict,
};
use gated_ssa::GateError;
use lir::interp::{Outcome, Trap};
use std::fmt;
use std::time::Duration;

/// The wire-format schema version. Bump whenever any [`ToWire`] layout or
/// the serve protocol changes shape; readers reject other versions
/// ([`check_version`]).
pub const SCHEMA_VERSION: u64 = 1;

/// The field name carrying [`SCHEMA_VERSION`] in every top-level document.
pub const VERSION_KEY: &str = "schema_version";

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (IEEE double, like JSON itself).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an ordered key→value list (order is preserved by the
    /// encoder, which is what makes encodings byte-stable).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value.
    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }

    /// An array value.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// An object value from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Serialize and write to `path`, with a trailing newline.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, format!("{self}\n"))
    }

    /// Object field lookup (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field lookup that errors (naming the key) when absent.
    pub fn field(&self, key: &str) -> Result<&Json, WireError> {
        self.get(key).ok_or_else(|| missing_field(key))
    }

    /// Optional field: `None` when the key is absent **or** bound to `null`.
    pub fn opt_field(&self, key: &str) -> Option<&Json> {
        match self.get(key) {
            None | Some(Json::Null) => None,
            some => some,
        }
    }

    /// The string payload, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is a [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A required string field.
    pub fn str_field(&self, key: &str) -> Result<&str, WireError> {
        self.field(key)?.as_str().ok_or_else(|| not_a_string(key))
    }

    /// A required `u64` field, accepting both number and `"0x…"` / decimal
    /// string encodings (see [`parse_u64`]).
    pub fn u64_field(&self, key: &str) -> Result<u64, WireError> {
        parse_u64(self.field(key)?)
            .map_err(|e| WireError::schema(format!("field `{key}`: {}", e.msg)))
    }
}

fn missing_field(key: &str) -> WireError {
    WireError::schema(format!("missing field `{key}`"))
}

fn not_a_string(key: &str) -> WireError {
    WireError::schema(format!("field `{key}` is not a string"))
}

/// Escape `s` as a JSON string literal (with surrounding quotes) into any
/// [`fmt::Write`] sink — shared by the encoder and [`quote`].
fn escape_into<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_str("\"")
}

/// Quote `s` as a JSON string literal (quotes included) — the one escaping
/// helper shared by the wire encoder and the fuzz-repro header format.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out).expect("fmt::Write to String cannot fail");
    out
}

/// Inverse of [`quote`]: parse a complete JSON string literal (surrounding
/// quotes required, nothing after the closing quote).
pub fn unquote(s: &str) -> Result<String, WireError> {
    match parse(s)? {
        Json::Str(s) => Ok(s),
        _ => Err(WireError::schema("not a string literal")),
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            // JSON has no NaN/Infinity; null is the conventional stand-in.
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => escape_into(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape_into(k, f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A wire-format error: parse failures (with a byte offset) and schema
/// mismatches (missing/ill-typed fields, version skew).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset of a parse failure (`None` for schema errors).
    pub pos: Option<usize>,
    /// What went wrong.
    pub msg: String,
}

impl WireError {
    fn parse(pos: usize, msg: impl Into<String>) -> WireError {
        WireError { pos: Some(pos), msg: msg.into() }
    }

    /// A schema-level error (no input offset).
    pub fn schema(msg: impl Into<String>) -> WireError {
        WireError { pos: None, msg: msg.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(pos) => write!(f, "wire parse error at byte {pos}: {}", self.msg),
            None => write!(f, "wire schema error: {}", self.msg),
        }
    }
}

impl std::error::Error for WireError {}

/// Nesting deeper than this is rejected — the serve daemon parses external
/// input, and the recursive-descent parser must not be a stack-overflow
/// vector.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document. The whole input must be consumed (trailing
/// whitespace allowed); the parser accepts exactly what [`Json`]'s `Display`
/// emits, plus standard JSON whitespace and escape forms.
pub fn parse(input: &str) -> Result<Json, WireError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0, true)?;
    p.finish()?;
    Ok(v)
}

/// Validate one JSON document exactly as [`parse`] does — same grammar,
/// depth cap, full-consumption rule and error text — without building it.
/// A top-level object's fields come back as raw, still-escaped slices of
/// `input`; any other document scans to a [`RawDoc`] with no fields.
///
/// This is what lets a reader key on a field's bytes without unescaping
/// it, and decode only the fields it needs ([`RawDoc::str_field`],
/// [`RawDoc::decode_except`]).
pub fn scan(input: &str) -> Result<RawDoc<'_>, WireError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let mut fields = Vec::new();
    if p.peek() == Some(b'{') {
        p.members(|p, key| {
            let start = p.pos;
            p.value(1, false)?;
            fields.push((key, &input[start..p.pos]));
            Ok(())
        })?;
    } else {
        p.value(0, false)?;
    }
    p.finish()?;
    Ok(RawDoc { fields })
}

/// A scanned document ([`scan`]): each top-level field's decoded key and
/// raw value text, in document order.
#[derive(Debug)]
pub struct RawDoc<'a> {
    fields: Vec<(String, &'a str)>,
}

impl<'a> RawDoc<'a> {
    /// The raw JSON text of field `key` (its first occurrence, like
    /// [`Json::get`]), still escaped: a string field keeps its quotes.
    pub fn raw(&self, key: &str) -> Option<&'a str> {
        self.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Field `key`, decoded; errors like [`Json::field`] when absent.
    fn field(&self, key: &str) -> Result<Json, WireError> {
        self.raw(key).map(decode_scanned).ok_or_else(|| missing_field(key))
    }

    /// A required string field, decoded; errors like [`Json::str_field`].
    pub fn str_field(&self, key: &str) -> Result<String, WireError> {
        match self.field(key)? {
            Json::Str(s) => Ok(s),
            _ => Err(not_a_string(key)),
        }
    }

    /// Every field except those named in `skip`, decoded into an object
    /// (in document order).
    pub fn decode_except(&self, skip: &[&str]) -> Json {
        Json::Obj(
            self.fields
                .iter()
                .filter(|(k, _)| !skip.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), decode_scanned(v)))
                .collect(),
        )
    }
}

/// Decode a value [`scan`] already validated.
fn decode_scanned(raw: &str) -> Json {
    parse(raw).expect("a scanned value is valid JSON")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Trailing whitespace, then the end of the input.
    fn finish(&mut self) -> Result<(), WireError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(WireError::parse(self.pos, "trailing data after document"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(WireError::parse(self.pos, format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, WireError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(WireError::parse(self.pos, format!("expected `{word}`")))
        }
    }

    /// One value. With `build` false the value is only validated, and
    /// [`Json::Null`] stands in for it.
    fn value(&mut self, depth: usize, build: bool) -> Result<Json, WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::parse(self.pos, "nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') if build => {
                let mut s = String::new();
                self.string(Some(&mut s))?;
                Ok(Json::Str(s))
            }
            Some(b'"') => self.string(None).map(|()| Json::Null),
            Some(b'[') => self.array(depth, build),
            Some(b'{') => self.object(depth, build),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(WireError::parse(self.pos, format!("unexpected `{}`", c as char))),
            None => Err(WireError::parse(self.pos, "unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| WireError::parse(start, format!("bad number `{text}`")))
    }

    fn hex4(&mut self) -> Result<u16, WireError> {
        let start = self.pos;
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| WireError::parse(start, "truncated \\u escape"))?;
        self.pos += 4;
        let text = std::str::from_utf8(slice)
            .map_err(|_| WireError::parse(start, "non-ASCII \\u escape"))?;
        u16::from_str_radix(text, 16)
            .map_err(|_| WireError::parse(start, format!("bad \\u escape `{text}`")))
    }

    /// A string literal, unescaped into `out` when one is given.
    fn string(&mut self, mut out: Option<&mut String>) -> Result<(), WireError> {
        self.expect(b'"')?;
        loop {
            // Take the raw (already valid UTF-8) run up to the next quote
            // or backslash in one slice.
            let run_start = self.pos;
            self.pos += special_offset(&self.bytes[self.pos..]);
            if let Some(out) = out.as_deref_mut() {
                out.push_str(
                    std::str::from_utf8(&self.bytes[run_start..self.pos])
                        .expect("input is a &str, runs stop on ASCII bytes"),
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| WireError::parse(self.pos, "truncated escape"))?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hi = self.hex4()?;
                            if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                let at = self.pos;
                                if self.peek() != Some(b'\\') {
                                    return Err(WireError::parse(at, "lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(WireError::parse(at, "lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(WireError::parse(at, "bad low surrogate"));
                                }
                                let code = 0x10000
                                    + (((hi as u32) - 0xd800) << 10)
                                    + ((lo as u32) - 0xdc00);
                                char::from_u32(code)
                                    .ok_or_else(|| WireError::parse(at, "bad surrogate pair"))?
                            } else {
                                char::from_u32(hi as u32).ok_or_else(|| {
                                    WireError::parse(self.pos, "lone surrogate escape")
                                })?
                            }
                        }
                        other => {
                            return Err(WireError::parse(
                                self.pos - 1,
                                format!("bad escape `\\{}`", other as char),
                            ))
                        }
                    };
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
                }
                None => return Err(WireError::parse(self.pos, "unterminated string")),
                _ => unreachable!("run loop stops only on quote/backslash/EOF"),
            }
        }
    }

    fn array(&mut self, depth: usize, build: bool) -> Result<Json, WireError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            let item = self.value(depth + 1, build)?;
            if build {
                items.push(item);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(WireError::parse(self.pos, "expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize, build: bool) -> Result<Json, WireError> {
        let mut pairs = Vec::new();
        self.members(|p, key| {
            let value = p.value(depth + 1, build)?;
            if build {
                pairs.push((key, value));
            }
            Ok(())
        })?;
        Ok(Json::Obj(pairs))
    }

    /// An object's members: `member` is called with each decoded key, with
    /// the parser at the start of the key's value, and must consume it.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let mut key = String::new();
            self.string(Some(&mut key))?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(WireError::parse(self.pos, "expected `,` or `}`")),
            }
        }
    }
}

/// Offset of the first `"` or `\` in `bytes` (`bytes.len()` when there is
/// none), eight bytes at a time: a string's raw runs are most of a frame.
fn special_offset(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    // A byte of `w ^ splat(c)` is zero exactly where `w` holds `c`; the
    // zero-byte test below flags the first such byte exactly (flags above
    // a real zero byte may be spurious, but the lowest flag never is).
    let zero_bytes = |x: u64| x.wrapping_sub(ONES) & !x & HIGHS;
    let mut chunks = bytes.chunks_exact(8);
    let mut offset = 0;
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunks of eight"));
        let hits = zero_bytes(w ^ (ONES * b'"' as u64)) | zero_bytes(w ^ (ONES * b'\\' as u64));
        if hits != 0 {
            return offset + (hits.trailing_zeros() / 8) as usize;
        }
        offset += 8;
    }
    let tail = chunks.remainder();
    offset + tail.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(tail.len())
}

// ---------------------------------------------------------------------------
// Scalar encoding helpers.

/// Encode a full-width `u64` as a `"0x…"` hex string — JSON numbers are
/// doubles and lose integers above 2⁵³, so fingerprints, seeds and witness
/// arguments never travel as numbers.
pub fn u64_hex(x: u64) -> Json {
    Json::Str(format!("{x:#x}"))
}

/// Decode a `u64` from any encoding this crate (or a hand-written request)
/// may use: a `"0x…"` hex string, a decimal string, or an exact integral
/// JSON number.
pub fn parse_u64(v: &Json) -> Result<u64, WireError> {
    match v {
        Json::Str(s) => {
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse::<u64>(),
            };
            parsed.map_err(|_| WireError::schema(format!("bad u64 `{s}`")))
        }
        Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9e15 => Ok(*n as u64),
        other => Err(WireError::schema(format!("bad u64 `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// The encoding trait and the versioned envelope.

/// Types that encode to a wire [`Json`] value.
pub trait ToWire {
    /// The wire encoding of `self`.
    fn to_wire(&self) -> Json;
}

impl ToWire for bool {
    fn to_wire(&self) -> Json {
        Json::Bool(*self)
    }
}

/// Counters. Full-width words (seeds, witness arguments) are encoded with
/// [`u64_hex`] instead, by an encoder override in their record's table.
impl ToWire for u64 {
    fn to_wire(&self) -> Json {
        Json::num(*self as f64)
    }
}

impl ToWire for u32 {
    fn to_wire(&self) -> Json {
        Json::num(*self as f64)
    }
}

impl ToWire for usize {
    fn to_wire(&self) -> Json {
        Json::num(*self as f64)
    }
}

impl ToWire for String {
    fn to_wire(&self) -> Json {
        Json::str(self)
    }
}

/// Integer nanoseconds (exact to 2⁵³ ns ≈ 104 days, far beyond any
/// validation query). Duration keys end in `_ns`.
impl ToWire for Duration {
    fn to_wire(&self) -> Json {
        Json::num(self.as_nanos() as f64)
    }
}

impl<T: ToWire> ToWire for Option<T> {
    fn to_wire(&self) -> Json {
        match self {
            Some(t) => t.to_wire(),
            None => Json::Null,
        }
    }
}

impl<T: ToWire> ToWire for Vec<T> {
    fn to_wire(&self) -> Json {
        Json::Arr(self.iter().map(ToWire::to_wire).collect())
    }
}

/// Build a top-level wire document: an object leading with
/// `schema_version` and `type`, followed by `fields` in order.
pub fn envelope<K: Into<String>>(
    doc_type: &str,
    fields: impl IntoIterator<Item = (K, Json)>,
) -> Json {
    let mut pairs = vec![
        (VERSION_KEY.to_owned(), Json::Num(SCHEMA_VERSION as f64)),
        ("type".to_owned(), Json::str(doc_type)),
    ];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.into(), v)));
    Json::Obj(pairs)
}

/// Check a document's `schema_version` against [`SCHEMA_VERSION`] — the
/// strict equality policy described in the module docs.
pub fn check_version(doc: &Json) -> Result<(), WireError> {
    let got = doc.u64_field(VERSION_KEY)?;
    if got != SCHEMA_VERSION {
        return Err(WireError::schema(format!(
            "schema_version {got} unsupported (this build speaks {SCHEMA_VERSION})"
        )));
    }
    Ok(())
}

/// The `type` tag of a top-level wire document.
pub fn doc_type(doc: &Json) -> Result<&str, WireError> {
    doc.str_field("type")
}

// ---------------------------------------------------------------------------
// Record tables.

/// Declare record structs by their field tables, generating the listed
/// traits from each table:
///
/// ```text
/// wire_record! {
///     impl ToWire, PartialEq for Record {
///         count: "count",
///         words: "words" => encode_words,
///         duration: "duration_ns" [timing],
///     }
/// }
/// ```
///
/// * **`ToWire`** encodes a JSON object with one `"key": value` entry per
///   field, in table order. A field's value is its own [`ToWire`] encoding
///   unless the table names an encoder override (`=> path`, a function
///   taking the field by reference and returning [`Json`]).
/// * **`PartialEq`** is the determinism contract: every field compares
///   except those marked `[timing]` — values that vary run to run
///   (durations, scheduling-dependent counters). A record without a
///   `ToWire` may omit the keys.
///
/// Both impls destructure the struct exhaustively, so a struct field the
/// table does not list is a compile error.
#[macro_export]
macro_rules! wire_record {
    (@ToWire $ty:ident {
        $( $field:ident : $key:literal $(=> $enc:path)? $([$class:ident])? ),* $(,)?
    }) => {
        impl $crate::wire::ToWire for $ty {
            fn to_wire(&self) -> $crate::wire::Json {
                let $ty { $($field),* } = self;
                $crate::wire::Json::obj([
                    $( ($key, $crate::wire_record!(@encode $field $($enc)?)) ),*
                ])
            }
        }
    };
    (@PartialEq $ty:ident {
        $( $field:ident $(: $key:literal)? $(=> $enc:path)? $([$class:ident])? ),* $(,)?
    }) => {
        impl PartialEq for $ty {
            fn eq(&self, other: &$ty) -> bool {
                let $ty { $($field),* } = self;
                $( $crate::wire_record!(@eq other $field $($class)?) && )* true
            }
        }
    };
    (@encode $field:ident) => { $crate::wire::ToWire::to_wire($field) };
    (@encode $field:ident $enc:path) => { $enc($field) };
    (@eq $other:ident $field:ident) => { *$field == $other.$field };
    (@eq $other:ident $field:ident timing) => {{
        let _ = $field;
        true
    }};
    ($( impl $($tr:ident),+ for $ty:ident $fields:tt )*) => {
        $( $( $crate::wire_record!(@$tr $ty $fields); )+ )*
    };
}

wire_record! {
    impl ToWire, PartialEq for RewriteCounts {
        phi: "phi",
        constfold: "constfold",
        loadstore: "loadstore",
        eta: "eta",
        commuting: "commuting",
        libc: "libc",
        float: "float",
    }
    impl ToWire, PartialEq for CacheStats {
        hits: "hits",
        misses: "misses",
        skips: "skips",
        evictions: "evictions",
    }
    impl ToWire, PartialEq for DivergentRoots {
        original: "original",
        optimized: "optimized",
    }
    impl ToWire, PartialEq for SaturationStats {
        iterations: "iterations",
        e_classes: "e_classes",
        e_nodes: "e_nodes",
        saturated: "saturated",
    }
    impl ToWire, PartialEq for SolverStats {
        conflicts: "conflicts",
        decisions: "decisions",
        propagations: "propagations",
        restarts: "restarts",
        learned: "learned",
    }
    impl ToWire, PartialEq for SatStats {
        outcome: "outcome",
        vars: "vars",
        clauses: "clauses",
        unrolled: "unrolled",
        residuals: "residuals",
        solver: "solver",
        duration: "duration_ns" [timing],
    }
    impl ToWire, PartialEq for ValidationStats {
        nodes_initial: "nodes_initial",
        nodes_final: "nodes_final",
        rounds: "rounds",
        rewrites: "rewrites",
        cycle_merges: "cycle_merges",
        duration: "duration_ns" [timing],
        divergent_roots: "divergent_roots",
        saturation: "saturation",
    }
    impl ToWire, PartialEq for Verdict {
        validated: "validated",
        reason: "reason",
        stats: "stats",
    }
    // `Outcome` lives in `lir`, which derives its `PartialEq`.
    impl ToWire for Outcome {
        ret: "ret" => hex_word_opt,
        globals: "globals" => hex_byte_strings,
        trace: "trace" => call_trace,
    }
    impl ToWire, PartialEq for Witness {
        args: "args" => hex_words,
        original: "original",
        optimized: "optimized" => ok_or_trap,
    }
    impl ToWire, PartialEq for Triage {
        class: "class",
        witness: "witness",
        rewrites: "rewrites",
        divergent_roots: "divergent_roots",
        inputs_run: "inputs_run",
        inputs_skipped: "inputs_skipped",
        sat: "sat",
    }
    impl ToWire, PartialEq for TriagedVerdict {
        verdict: "verdict",
        triage: "triage",
    }
}

// Validator settings: what `Validator::to_wire` is made of.
wire_record! {
    impl ToWire for RuleSet {
        phi: "phi",
        constfold: "constfold",
        loadstore: "loadstore",
        eta: "eta",
        commuting: "commuting",
        libc: "libc",
        float: "float",
    }
    impl ToWire for SaturationLimits {
        max_iterations: "max_iterations",
        max_nodes: "max_nodes",
        max_classes: "max_classes",
    }
    impl ToWire for TriageOptions {
        seed: "seed" => hex_word,
        battery: "battery",
        shrink_budget: "shrink_budget",
        fuel: "fuel",
        max_depth: "max_depth",
    }
}

/// A validator's verdict-relevant configuration: every setting that can
/// change what it answers for a pair, plus [`RULE_ENGINE_VERSION`]. Two
/// kinds of setting are left out. [`Validator::interning`] is one: both
/// interners give identical verdicts. The wall-clock budgets
/// [`Limits::max_time`] and [`SatOptions::max_time`] are the other: they
/// bound how long a query may run, not what the rules can prove. `llvm-md
/// serve` hashes this encoding into the stamp of every stored verdict.
impl ToWire for Validator {
    fn to_wire(&self) -> Json {
        let Validator { rules, strategy, limits, interning: _, normalizer, saturation, cascade } =
            self;
        let Limits { max_rounds, max_nodes, max_time: _ } = limits;
        Json::obj([
            ("normalizer", normalizer.to_wire()),
            ("rule_engine", RULE_ENGINE_VERSION.to_wire()),
            ("rules", rules.to_wire()),
            ("strategy", strategy.to_wire()),
            (
                "limits",
                Json::obj([
                    ("max_rounds", max_rounds.to_wire()),
                    ("max_nodes", max_nodes.to_wire()),
                ]),
            ),
            ("saturation", saturation.to_wire()),
            ("cascade", cascade.to_wire()),
        ])
    }
}

/// The cascade variant with its options; tier 2's wall-clock budget is
/// left out (see [`Validator`]'s encoding).
impl ToWire for Cascade {
    fn to_wire(&self) -> Json {
        let sat = |o: &SatOptions| {
            let SatOptions { unroll, max_expanded, max_conflicts, max_time: _ } = o;
            Json::obj([
                ("unroll", unroll.to_wire()),
                ("max_expanded", max_expanded.to_wire()),
                ("max_conflicts", max_conflicts.to_wire()),
            ])
        };
        match self {
            Cascade::Graph => Json::obj([("kind", Json::str("graph"))]),
            Cascade::Triage(t) => {
                Json::obj([("kind", Json::str("triage")), ("triage", t.to_wire())])
            }
            Cascade::Tiered(t, s) => {
                Json::obj([("kind", Json::str("tiered")), ("triage", t.to_wire()), ("sat", sat(s))])
            }
        }
    }
}

fn hex_word(word: &u64) -> Json {
    u64_hex(*word)
}

/// Full-width words as `"0x…"` strings.
fn hex_words(words: &[u64]) -> Json {
    Json::Arr(words.iter().map(|&w| u64_hex(w)).collect())
}

fn hex_word_opt(word: &Option<u64>) -> Json {
    word.map_or(Json::Null, u64_hex)
}

/// Byte strings (global memory images) as lowercase hex.
fn hex_byte_strings(strings: &[Vec<u8>]) -> Json {
    let hex = |bytes: &Vec<u8>| Json::Str(bytes.iter().map(|b| format!("{b:02x}")).collect());
    Json::Arr(strings.iter().map(hex).collect())
}

/// External calls in order, each with its full-width arguments.
fn call_trace(trace: &[(String, Vec<u64>)]) -> Json {
    Json::Arr(
        trace
            .iter()
            .map(|(name, args)| Json::obj([("name", Json::str(name)), ("args", hex_words(args))]))
            .collect(),
    )
}

fn ok_or_trap(optimized: &Result<Outcome, Trap>) -> Json {
    match optimized {
        Ok(o) => Json::obj([("ok", o.to_wire())]),
        Err(t) => Json::obj([("trap", t.to_wire())]),
    }
}

// ---------------------------------------------------------------------------
// Enums.

impl ToWire for SatOutcome {
    fn to_wire(&self) -> Json {
        match self {
            SatOutcome::Skipped(r) => {
                Json::obj([("kind", Json::str(self.as_str())), ("reason", Json::str(r.as_str()))])
            }
            other => Json::obj([("kind", Json::str(other.as_str()))]),
        }
    }
}

impl ToWire for MatchStrategy {
    fn to_wire(&self) -> Json {
        Json::str(match self {
            MatchStrategy::Unification => "unification",
            MatchStrategy::Partition => "partition",
            MatchStrategy::Combined => "combined",
            MatchStrategy::None => "none",
        })
    }
}

impl ToWire for Normalizer {
    fn to_wire(&self) -> Json {
        Json::str(self.as_str())
    }
}

impl ToWire for FailReason {
    fn to_wire(&self) -> Json {
        match self {
            FailReason::Gate(GateError::Irreducible) => {
                Json::obj([("kind", Json::str("gate")), ("gate", Json::str("irreducible"))])
            }
            FailReason::Gate(GateError::Malformed(detail)) => Json::obj([
                ("kind", Json::str("gate")),
                ("gate", Json::str("malformed")),
                ("detail", Json::str(detail)),
            ]),
            FailReason::Signature => Json::obj([("kind", Json::str("signature"))]),
            FailReason::RootsDiffer => Json::obj([("kind", Json::str("roots-differ"))]),
            FailReason::Budget => Json::obj([("kind", Json::str("budget"))]),
            FailReason::MissingFunction => Json::obj([("kind", Json::str("missing-function"))]),
            FailReason::ExtraFunction => Json::obj([("kind", Json::str("extra-function"))]),
        }
    }
}

impl ToWire for Trap {
    fn to_wire(&self) -> Json {
        match self {
            Trap::DivByZero => Json::obj([("kind", Json::str("div-by-zero"))]),
            Trap::OutOfBounds { addr } => {
                Json::obj([("kind", Json::str("out-of-bounds")), ("addr", u64_hex(*addr))])
            }
            Trap::OutOfFuel => Json::obj([("kind", Json::str("out-of-fuel"))]),
            Trap::UnknownFunction(name) => {
                Json::obj([("kind", Json::str("unknown-function")), ("name", Json::str(name))])
            }
            Trap::Unreachable => Json::obj([("kind", Json::str("unreachable"))]),
            Trap::StackOverflow => Json::obj([("kind", Json::str("stack-overflow"))]),
            Trap::UndefValue => Json::obj([("kind", Json::str("undef-value"))]),
        }
    }
}

impl ToWire for TriageClass {
    fn to_wire(&self) -> Json {
        Json::str(match self {
            TriageClass::RealMiscompile => "real-miscompile",
            TriageClass::SuspectedIncomplete => "suspected-incomplete",
        })
    }
}

impl ToWire for VerdictClass {
    fn to_wire(&self) -> Json {
        Json::str(self.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_nested_values() {
        let j = Json::obj([
            ("name", Json::str("fig4")),
            ("ok", Json::Bool(true)),
            ("xs", Json::arr([Json::num(1.0), Json::num(2.5), Json::Null])),
        ]);
        assert_eq!(j.to_string(), r#"{"name":"fig4","ok":true,"xs":[1,2.5,null]}"#);
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::str("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::str("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn integral_floats_print_without_fraction() {
        assert_eq!(Json::num(1234567.0).to_string(), "1234567");
        assert_eq!(Json::num(0.25).to_string(), "0.25");
        assert_eq!(Json::num(f64::NAN).to_string(), "null");
    }

    /// parse ∘ encode is the identity on values; encode ∘ parse is a
    /// fixpoint on bytes.
    #[test]
    fn parse_inverts_encode() {
        let j = Json::obj([
            ("null", Json::Null),
            ("t", Json::Bool(true)),
            ("f", Json::Bool(false)),
            ("i", Json::num(-42.0)),
            ("x", Json::num(1.528718721)),
            ("s", Json::str("he said \"hi\\\"\n\tπ≈3 \u{1}\u{1F600}")),
            ("a", Json::arr([Json::Null, Json::arr([Json::num(0.0)]), Json::obj::<&str>([])])),
        ]);
        let text = j.to_string();
        let back = parse(&text).expect("round-trip parse");
        assert_eq!(back, j);
        assert_eq!(back.to_string(), text, "encode must be a parse∘encode fixpoint");
    }

    #[test]
    fn parses_foreign_json() {
        let v = parse(" { \"a\" : [ 1 , 2.5e2 , \"\\u0041\\uD83D\\uDE00\" ] , \"b\" : null } ")
            .expect("parse");
        assert_eq!(v.field("a").unwrap().as_arr().unwrap()[1], Json::num(250.0));
        assert_eq!(v.field("a").unwrap().as_arr().unwrap()[2], Json::str("A\u{1F600}"));
        assert_eq!(v.field("b").unwrap(), &Json::Null);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\":}", "tru", "1 2", "{\"a\" 1}", "\"\\q\""] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
        let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(parse(&deep).is_err(), "over-deep nesting must be rejected");
    }

    /// `scan` is `parse` without building: the same verdict and error
    /// (offset and text included) on every input, and on objects the same
    /// fields, kept raw.
    #[test]
    fn scan_agrees_with_parse() {
        let deep = format!("{{\"a\":{}1{}}}", "[".repeat(200), "]".repeat(200));
        let inputs = [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\" 1}",
            "\"\\q\"",
            "17",
            "{not json at all}",
            "{\"a\":1,}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":\"x\"} x",
            "{\"a\":\"x\\n\\u0041\",\"b\":[1,{\"c\":null}],\"a\":2}",
            " {\"k\\u0065y\" : true } ",
            "[{\"a\":1}]",
            &deep,
        ];
        for input in inputs {
            match (scan(input), parse(input)) {
                (Err(s), Err(p)) => assert_eq!(s, p, "`{input}`"),
                (Ok(doc), Ok(Json::Obj(fields))) => {
                    assert_eq!(doc.decode_except(&[]), Json::Obj(fields), "`{input}`")
                }
                (Ok(doc), Ok(_)) => assert_eq!(doc.decode_except(&[]), Json::obj::<&str>([])),
                (s, p) => panic!("`{input}`: scan {s:?} but parse {p:?}"),
            }
        }
        let doc = scan("{\"a\":\"x\\n\\u0041\",\"b\":[1, 2],\"a\":2,\"k\\u0065y\":3}").unwrap();
        assert_eq!(doc.raw("a"), Some("\"x\\n\\u0041\""), "raw, first occurrence");
        assert_eq!(doc.raw("b"), Some("[1, 2]"));
        assert_eq!(doc.raw("key"), Some("3"), "keys are decoded");
        assert_eq!(doc.str_field("a").unwrap(), "x\nA");
        assert_eq!(
            doc.str_field("b").unwrap_err(),
            Json::obj([("b", Json::Null)]).str_field("b").unwrap_err()
        );
        assert_eq!(doc.field("c").unwrap_err(), Json::obj::<&str>([]).field("c").unwrap_err());
        assert_eq!(doc.decode_except(&["a", "b"]), Json::obj([("key", Json::num(3.0))]));
    }

    #[test]
    fn special_offset_finds_the_first_quote_or_backslash() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in 0..80 {
            for _ in 0..40 {
                let bytes: Vec<u8> = (0..len)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        [b'a', b'"', b'\\', 0x00, 0x01, 0x22 ^ 0x80, 0xff, b'#']
                            [(state >> 61) as usize]
                    })
                    .collect();
                let naive = bytes.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(len);
                assert_eq!(special_offset(&bytes), naive, "{bytes:?}");
            }
        }
    }

    #[test]
    fn quote_unquote_round_trips() {
        for s in ["", "plain", "with \"quotes\" and \\slashes\\", "new\nline\ttab", "π\u{1F600}"] {
            let q = quote(s);
            assert_eq!(unquote(&q).expect("unquote"), s);
        }
        assert!(unquote("no quotes").is_err());
        assert!(unquote("\"trailing\" junk").is_err());
    }

    #[test]
    fn u64_hex_is_exact_at_full_width() {
        for x in [0u64, 1, 2u64.pow(53) + 1, u64::MAX, 0xfa22_c0de_2026_0731] {
            assert_eq!(parse_u64(&u64_hex(x)).expect("u64"), x);
        }
        assert_eq!(parse_u64(&Json::str("12345")).expect("decimal string"), 12345);
        assert_eq!(parse_u64(&Json::num(77.0)).expect("small number"), 77);
        assert!(parse_u64(&Json::num(0.5)).is_err());
        assert!(parse_u64(&Json::num(-1.0)).is_err());
        assert!(parse_u64(&Json::num(1e16)).is_err(), "beyond 2^53 must not pass as a number");
    }

    #[test]
    fn envelope_versioning_is_strict() {
        let doc = envelope("verdict", [("x", Json::num(1.0))]);
        check_version(&doc).expect("own version accepted");
        assert_eq!(doc_type(&doc).unwrap(), "verdict");
        let future = Json::obj([(VERSION_KEY, Json::num(SCHEMA_VERSION as f64 + 1.0))]);
        assert!(check_version(&future).is_err(), "future versions must be rejected");
        assert!(check_version(&Json::obj::<&str>([])).is_err(), "missing version must error");
    }
}
