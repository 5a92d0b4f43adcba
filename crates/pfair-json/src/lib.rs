//! # pfair-json
//!
//! A small, dependency-free JSON codec used to export simulation
//! results (`pfair-sched`'s `SimResult` tree) for downstream tooling.
//!
//! It exists instead of `serde_json` for two reasons. First, this build
//! environment cannot fetch crates.io dependencies (see
//! `stubs/README.md`). Second — and the reason it stays — the
//! workspace's values are **exact rationals over `i128`**: a general
//! JSON library routes numbers through `f64`, which silently rounds
//! numerators and denominators beyond 2⁵³ and would violate the
//! repository's exact-arithmetic invariant at the serialization
//! boundary. This codec represents every number as an `i128` integer,
//! end to end; non-integer numbers are a *parse error* by design, and
//! rationals serialize structurally as `{"num": …, "den": …}`.
//!
//! Serialization has one formatter, [`JsonWriter`]: a [`Json`] tree is
//! replayed into it, and [`ToJson::write_json`] lets large reports
//! stream into it without building the tree — same bytes either way.
//!
//! ```
//! use pfair_json::{Json, ToJson, FromJson};
//!
//! let v = Json::parse(r#"{"num": 170141183460469231731687303715884105727, "den": 1}"#).unwrap();
//! assert_eq!(v.get("num").and_then(Json::as_int), Some(i128::MAX));
//! let round = i128::from_json(&Json::Int(42)).unwrap();
//! assert_eq!(round, 42);
//! assert_eq!(true.to_json().to_string(), "true");
//! ```

use std::fmt;

/// A JSON value with exact integer numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Integers only: this codec has no floating-point path.
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description, including position for parse errors.
    pub message: String,
}

impl JsonError {
    /// Constructs an error from any displayable message.
    pub fn new(message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

/// Serialization into [`Json`] values.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;

    /// Streams `self` into `w`: the same bytes `self.to_json()` writes
    /// through the same writer, without building the tree. The default
    /// builds it; types that dominate large reports (integers,
    /// rationals, vectors, the shard report rows) override it.
    fn write_json(&self, w: &mut JsonWriter) {
        self.to_json().write(w);
    }

    /// Pretty rendering (two-space indentation) streamed through
    /// [`ToJson::write_json`]; byte-identical to
    /// `self.to_json().to_string_pretty()`.
    fn to_json_pretty(&self) -> String {
        let mut w = JsonWriter::pretty();
        self.write_json(&mut w);
        w.into_string()
    }
}

/// Validated deserialization from [`Json`] values.
///
/// Implementations re-validate domain invariants (`Rational`
/// denominators, `Weight` ranges), so untrusted input cannot construct
/// invalid values.
pub trait FromJson: Sized {
    /// Converts, reporting a descriptive [`JsonError`] on mismatch.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Extracts and converts a required object field.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        let v = self
            .get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))?;
        T::from_json(v).map_err(|e| JsonError::new(format!("field `{key}`: {}", e.message)))
    }

    /// Parses a JSON document (UTF-8 text, integers only).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut w = JsonWriter::pretty();
        self.write(&mut w);
        w.into_string()
    }

    /// Replays the tree into `w` — the tree rendering is the streamed
    /// one, so both produce the same bytes by construction.
    pub fn write(&self, w: &mut JsonWriter) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Int(n) => w.int(*n),
            Json::Str(s) => w.string(s),
            Json::Array(items) => {
                w.begin_array();
                for item in items {
                    item.write(w);
                }
                w.end_array();
            }
            Json::Object(fields) => {
                w.begin_object();
                for (k, v) in fields {
                    w.key(k);
                    v.write(w);
                }
                w.end_object();
            }
        }
    }
}

/// Compact serialization comes from `Display`: `value.to_string()`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = JsonWriter::compact();
        self.write(&mut w);
        f.write_str(&w.into_string())
    }
}

/// Streaming JSON serializer: the one formatter behind [`Json`]'s
/// renderings and [`ToJson::write_json`].
///
/// Callers emit a value as a sequence of calls — scalars, or
/// `begin_*` … `end_*` around the members, with [`JsonWriter::key`]
/// before each object member — and the writer places commas, newlines
/// and indentation. It does not check that the calls nest into a valid
/// document; [`Json::write`] and the `write_json` overrides are the
/// callers, and the equivalence tests pin their output to the tree's.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// Spaces per nesting level; `None` renders compactly.
    indent: Option<usize>,
    depth: usize,
    /// The open container already holds a member.
    has_items: bool,
    /// A key was just written: the next value continues its line.
    after_key: bool,
}

impl JsonWriter {
    /// A writer for the pretty rendering (two-space indentation).
    pub fn pretty() -> JsonWriter {
        JsonWriter::new(Some(2))
    }

    /// A writer for the compact rendering (no whitespace).
    pub fn compact() -> JsonWriter {
        JsonWriter::new(None)
    }

    fn new(indent: Option<usize>) -> JsonWriter {
        JsonWriter {
            out: String::new(),
            indent,
            depth: 0,
            has_items: false,
            after_key: false,
        }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// In the pretty rendering: an optional comma, a line break and the
    /// current indentation, in one copy for up to 64 columns.
    fn break_line(&mut self, comma: bool) {
        const PAD: &str = ",\n                                                                ";
        let Some(width) = self.indent else {
            if comma {
                self.out.push(',');
            }
            return;
        };
        let columns = width * self.depth;
        let start = usize::from(!comma);
        match PAD.get(start..columns + 2) {
            Some(line) => self.out.push_str(line),
            None => {
                self.out.push_str(PAD.get(start..).unwrap_or(""));
                for _ in PAD.len()..columns + 2 {
                    self.out.push(' ');
                }
            }
        }
    }

    /// Separator and line break before an array element, a key, or a
    /// top-level value; nothing after a key.
    fn item(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        // A document has one top-level value: nothing precedes it.
        if self.depth > 0 {
            self.break_line(self.has_items);
        }
        self.has_items = true;
    }

    fn begin(&mut self, open: char) {
        self.item();
        self.out.push(open);
        self.depth += 1;
        self.has_items = false;
    }

    fn end(&mut self, close: char) {
        self.depth = self.depth.saturating_sub(1);
        if self.has_items {
            self.break_line(false);
        }
        self.out.push(close);
        self.has_items = true;
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.begin('{');
    }

    /// Closes the innermost open object.
    pub fn end_object(&mut self) {
        self.end('}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.begin('[');
    }

    /// Closes the innermost open array.
    pub fn end_array(&mut self) {
        self.end(']');
    }

    /// The key of the next object member; its value follows.
    pub fn key(&mut self, key: &str) {
        self.item();
        self.push_string(key);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
        self.after_key = true;
    }

    /// `null`.
    pub fn null(&mut self) {
        self.item();
        self.out.push_str("null");
    }

    /// `true` / `false`.
    pub fn bool(&mut self, value: bool) {
        self.item();
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// An integer: pure digits, no float formatting anywhere.
    /// Magnitudes below 2⁶⁴ — every count, slot and small rational
    /// component — take a native `u64` digit loop instead of the
    /// 128-bit division `i128`'s `Display` performs.
    pub fn int(&mut self, n: i128) {
        use fmt::Write;
        self.item();
        let Ok(mut mag) = u64::try_from(n.unsigned_abs()) else {
            // Writing to a `String` cannot fail.
            let _ = write!(self.out, "{n}");
            return;
        };
        if n < 0 {
            self.out.push('-');
        }
        let mut buf = [b'0'; 20]; // u64::MAX has 20 digits
        let mut len = 0;
        for digit in buf.iter_mut().rev() {
            *digit = b'0' + u8::try_from(mag % 10).unwrap_or(0);
            mag /= 10;
            len += 1;
            if mag == 0 {
                break;
            }
        }
        self.out
            .extend(buf.iter().skip(buf.len() - len).map(|&d| char::from(d)));
    }

    /// A string, escaped.
    pub fn string(&mut self, s: &str) {
        self.item();
        self.push_string(s);
    }

    fn push_string(&mut self, s: &str) {
        use fmt::Write;
        let escaped = |b: u8| b < 0x20 || b == b'"' || b == b'\\';
        self.out.push('"');
        // Unescaped runs are copied whole (keys are one run); every
        // escaped byte is ASCII, so run boundaries are character
        // boundaries.
        let mut rest = s;
        while let Some(i) = rest.bytes().position(escaped) {
            let (run, tail) = rest.split_at(i);
            self.out.push_str(run);
            match tail.as_bytes().first() {
                Some(b'"') => self.out.push_str("\\\""),
                Some(b'\\') => self.out.push_str("\\\\"),
                Some(b'\n') => self.out.push_str("\\n"),
                Some(b'\r') => self.out.push_str("\\r"),
                Some(b'\t') => self.out.push_str("\\t"),
                Some(b) => {
                    // Writing to a `String` cannot fail.
                    let _ = write!(self.out, "\\u{b:04x}");
                }
                None => {}
            }
            rest = tail.get(1..).unwrap_or("");
        }
        self.out.push_str(rest);
        self.out.push('"');
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError::new(format!("{message} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        // audit: allow(panic-reach, pos <= bytes.len() is the scanner invariant, slices cannot overrun)
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs are rejected rather than
                            // combined; the workspace never emits them.
                            let c =
                                char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Continue a UTF-8 sequence byte-by-byte: the input
                    // is a &str, so sequences are valid by construction.
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|nb| nb & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos]) // audit: allow(panic-reach, pos <= bytes.len() is the scanner invariant, slices cannot overrun)
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp: u32 = 0;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            self.pos += 1;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            cp = cp * 16 + digit;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("non-integer number: this codec is exact-integer by design"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]) // audit: allow(panic-reach, pos <= bytes.len() is the scanner invariant, slices cannot overrun)
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| self.err("integer out of i128 range"))
    }
}

macro_rules! impl_json_ints {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(i128::from(*self))
            }
            fn write_json(&self, w: &mut JsonWriter) {
                w.int(i128::from(*self));
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, JsonError> {
                let n = value
                    .as_int()
                    .ok_or_else(|| JsonError::new("expected an integer"))?;
                <$t>::try_from(n).map_err(|_| {
                    JsonError::new(format!(
                        "integer {n} out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}

impl_json_ints!(i8, i16, i32, i64, u8, u16, u32, u64);

impl ToJson for i128 {
    fn to_json(&self) -> Json {
        Json::Int(*self)
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.int(*self);
    }
}

impl FromJson for i128 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_int()
            .ok_or_else(|| JsonError::new("expected an integer"))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as i128)
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.int(*self as i128);
    }
}

impl FromJson for usize {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let n = value
            .as_int()
            .ok_or_else(|| JsonError::new("expected an integer"))?;
        usize::try_from(n).map_err(|_| JsonError::new("integer out of usize range"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::new("expected a boolean")),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(JsonError::new("expected a string")),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for item in self {
            item.write_json(w);
        }
        w.end_array();
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Array(items) => items.iter().map(T::from_json).collect(),
            _ => Err(JsonError::new("expected an array")),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Array(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            _ => Err(JsonError::new("expected a two-element array")),
        }
    }
}

/// Builds an object value from `(key, value)` pairs.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(
            Json::parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".to_string())
        );
    }

    #[test]
    fn i128_extremes_roundtrip_exactly() {
        for n in [i128::MAX, i128::MIN, 0, -1, 2i128.pow(64)] {
            let text = Json::Int(n).to_string();
            assert_eq!(Json::parse(&text).unwrap(), Json::Int(n));
        }
    }

    #[test]
    fn floats_are_rejected_by_design() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("1e9").is_err());
    }

    #[test]
    fn nested_roundtrip_compact_and_pretty() {
        let v = obj([
            ("xs", Json::Array(vec![Json::Int(1), Json::Null])),
            ("name", Json::Str("T0".into())),
            ("inner", obj([("b", Json::Bool(false))])),
        ]);
        for text in [v.to_string(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    /// The streamed calls and the tree replay share one formatter: the
    /// same document written call by call equals both tree renderings,
    /// empty containers and escapes included.
    #[test]
    fn streamed_calls_equal_the_tree_renderings() {
        let tree = obj([
            ("empty_array", Json::Array(vec![])),
            ("empty_object", Json::Object(vec![])),
            ("text", Json::Str("a\"b\\c\n\r\t\u{1}é🦀".into())),
            (
                "nested",
                Json::Array(vec![
                    Json::Int(-7),
                    obj([("k", Json::Null)]),
                    Json::Array(vec![Json::Bool(true)]),
                ]),
            ),
        ]);
        let stream = |mut w: JsonWriter| {
            w.begin_object();
            w.key("empty_array");
            w.begin_array();
            w.end_array();
            w.key("empty_object");
            w.begin_object();
            w.end_object();
            w.key("text");
            w.string("a\"b\\c\n\r\t\u{1}é🦀");
            w.key("nested");
            w.begin_array();
            w.int(-7);
            w.begin_object();
            w.key("k");
            w.null();
            w.end_object();
            w.begin_array();
            w.bool(true);
            w.end_array();
            w.end_array();
            w.end_object();
            w.into_string()
        };
        assert_eq!(stream(JsonWriter::pretty()), tree.to_string_pretty());
        assert_eq!(stream(JsonWriter::compact()), tree.to_string());
        assert_eq!(Json::parse(&tree.to_string_pretty()).unwrap(), tree);
        assert!(tree.to_string().contains("\\u0001"));
    }

    /// Indentation deeper than the writer's one-copy padding (64
    /// columns) still comes out at two spaces per level.
    #[test]
    fn deep_nesting_indents_past_the_padding_block() {
        let depth = 40;
        let mut tree = Json::Int(0);
        let mut expected = String::new();
        for level in 0..depth {
            tree = Json::Array(vec![tree]);
            expected.push_str("[\n");
            expected.push_str(&" ".repeat(2 * (level + 1)));
        }
        expected.push('0');
        for level in (0..depth).rev() {
            expected.push('\n');
            expected.push_str(&" ".repeat(2 * level));
            expected.push(']');
        }
        assert_eq!(tree.to_string_pretty(), expected);
    }

    /// The `u64` digit loop and the wide fallback agree with `Display`
    /// on both sides of the 2⁶⁴ gate.
    #[test]
    fn integer_digits_match_display_across_the_u64_gate() {
        let gate = i128::from(u64::MAX);
        let cases = [
            0,
            1,
            -1,
            9,
            10,
            -10,
            1_000_000_007,
            gate,
            gate + 1,
            -gate,
            -gate - 1,
        ];
        for n in cases.into_iter().chain([i128::MAX, i128::MIN]) {
            assert_eq!(n.to_json_pretty(), n.to_string());
            assert_eq!(Json::Int(n).to_string(), n.to_string());
        }
        assert_eq!(
            vec![3u64, 40, 500].to_json_pretty(),
            "[\n  3,\n  40,\n  500\n]"
        );
        assert_eq!(Vec::<u8>::new().to_json_pretty(), "[]");
    }

    #[test]
    fn parse_errors_carry_position() {
        let e = Json::parse("[1,]").unwrap_err();
        assert!(e.message.contains("at byte"));
        assert!(Json::parse("{\"a\":1").is_err());
        assert!(Json::parse("[] []").is_err());
    }

    #[test]
    fn typed_conversions_validate() {
        assert_eq!(u32::from_json(&Json::Int(7)).unwrap(), 7);
        assert!(u32::from_json(&Json::Int(-1)).is_err());
        assert!(u32::from_json(&Json::Bool(true)).is_err());
        assert_eq!(Option::<u64>::from_json(&Json::Null).unwrap(), None);
        assert_eq!(
            Vec::<i64>::from_json(&Json::parse("[1,2,3]").unwrap()).unwrap(),
            vec![1, 2, 3]
        );
        let pair = <(i64, bool)>::from_json(&Json::parse("[5,true]").unwrap()).unwrap();
        assert_eq!(pair, (5, true));
    }

    #[test]
    fn field_lookup_reports_missing_keys() {
        let v = obj([("a", Json::Int(1))]);
        assert_eq!(v.field::<i64>("a").unwrap(), 1);
        let e = v.field::<i64>("b").unwrap_err();
        assert!(e.message.contains("missing field `b`"));
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let v = Json::Str("π ≈ 3, émue, 🦀".to_string());
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }
}
