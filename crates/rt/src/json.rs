//! A small JSON value type with parser, serializers, and the [`ToJson`]
//! / [`FromJson`] conversion traits.
//!
//! This replaces `serde_json` for the bench harness's report emission.
//! The design goals, in order: (1) the serializer output is a fixpoint
//! under `parse` (serialize → parse → serialize is byte-identical);
//! (2) object key order is preserved, so reports are stable across
//! runs; (3) numbers that are mathematically integers print without a
//! fractional part, matching what `serde_json::json!` produced for
//! integer literals.
//!
//! Numbers are stored as `f64`. Non-finite values (NaN, ±inf) serialize
//! as `null`, mirroring `serde_json`'s lossy float handling.
//!
//! Decoding goes through a [`Cursor`]: a value plus the document path
//! that leads to it. Its accessors check each value's type and range
//! and report a failure as one [`DecodeError`] naming that path
//! (`population[3].measurement.hw.kind`), so every reader built on
//! [`FromJson`] locates its errors the same way.

use std::fmt;

/// A JSON document: null, boolean, number, string, array, or object.
///
/// Objects are backed by a `Vec` of key/value pairs rather than a map so
/// that insertion order survives serialization — bench reports list
/// their fields in a deliberate order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// The `null` literal.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any JSON number; integers are representable exactly up to 2^53.
    Number(f64),
    /// A string value.
    String(String),
    /// An ordered list of values.
    Array(Vec<Json>),
    /// An ordered list of key/value pairs. Duplicate keys are not
    /// rejected; `get` returns the first match.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an empty object; chain [`Json::insert`] to populate it.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends a key/value pair to an object; panics on other variants.
    pub fn insert(mut self, key: &str, value: impl ToJson) -> Json {
        match &mut self {
            Json::Object(pairs) => pairs.push((key.to_string(), value.to_json())),
            other => panic!("Json::insert on non-object {other:?}"),
        }
        self
    }

    /// Looks up a key in an object; `None` on other variants or a
    /// missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline-free
    /// layout, like `serde_json::to_string_pretty`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            // Scalars and empty containers render exactly as in compact
            // form.
            other => {
                use fmt::Write;
                let _ = write!(out, "{other}");
            }
        }
    }

    /// Parses a JSON document, requiring it to span the whole input.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after document"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    /// Compact serialization: no whitespace, keys in insertion order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Number(x) => f.write_str(&format_number(*x)),
            Json::String(s) => {
                let mut buf = String::new();
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::new();
                    write_escaped(&mut buf, key);
                    f.write_str(&buf)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// 2^53: every integer up to here has an exact `f64`, and none much
/// past it does.
pub(crate) const EXACT: f64 = 9_007_199_254_740_992.0;

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Renders a number so that whole values within the exact-integer range
/// of f64 print without a fractional part (`3` not `3.0`), and
/// everything else uses Rust's shortest round-trip `Display`. Non-finite
/// values degrade to `null`.
fn format_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    if x.fract() == 0.0 && x.abs() <= EXACT {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with its location and description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// 1-based line of `offset`.
    pub line: usize,
    /// 1-based column of `offset`, counted in bytes.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    /// `line:column: message`; callers that read a file prefix its
    /// name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Converts a byte offset into 1-based (line, column).
fn line_col(text: &[u8], offset: usize) -> (usize, usize) {
    let upto = &text[..offset.min(text.len())];
    let line = upto.iter().filter(|&&b| b == b'\n').count() + 1;
    let column = upto.iter().rev().take_while(|&&b| b != b'\n').count() + 1;
    (line, column)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        let (line, column) = line_col(self.bytes, self.pos);
        ParseError {
            offset: self.pos,
            line,
            column,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error("document nests too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code =
                                    0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("unpaired surrogate"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one whole UTF-8 scalar; input is a &str so
                    // boundaries are valid.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a str");
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let unit =
            u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a lone 0 or a nonzero digit followed by more.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number spans ASCII");
        let x: f64 = text.parse().map_err(|_| self.error("invalid number"))?;
        Ok(Json::Number(x))
    }
}

/// Conversion into a [`Json`] value — the derive-free stand-in for
/// `serde::Serialize`. Report structs in `crates/bench` implement this
/// by hand, listing fields in display order.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::String((*self).to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::String(self.clone())
    }
}

macro_rules! number_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Number(*self as f64)
            }
        }
    )*};
}

number_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
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

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

macro_rules! tuple_to_json {
    ($(($($t:ident / $idx:tt),+))*) => {$(
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn to_json(&self) -> Json {
                Json::Array(vec![$(self.$idx.to_json()),+])
            }
        }
    )*};
}

tuple_to_json! {
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
}

/// A decode failure: where in the document, and what is wrong there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Path of the offending value, e.g.
    /// `population[3].measurement.hw.kind`; empty for the document root.
    /// A missing key is reported at the object that lacks it.
    pub path: String,
    /// What is wrong with the value.
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.path.as_str() {
            "" => f.write_str(&self.message),
            path => write!(f, "{path}: {}", self.message),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decoding from a [`Json`] value — the twin of [`ToJson`]. Types
/// implement [`decode`](FromJson::decode) next to their encoder.
pub trait FromJson: Sized {
    /// Decodes the value under `at`; errors name paths below `at`.
    fn decode(at: Cursor<'_>) -> Result<Self, DecodeError>;

    /// Decodes a whole document.
    fn from_json(doc: &Json) -> Result<Self, DecodeError> {
        Self::decode(Cursor::root(doc))
    }
}

/// A value inside a document being decoded, plus the path that leads to
/// it. The path is a chain of borrowed steps back to the root, turned
/// into text only when an error is built, so decoding a valid document
/// allocates nothing for it.
#[derive(Clone, Copy)]
pub struct Cursor<'a> {
    value: &'a Json,
    up: Option<(&'a Cursor<'a>, Step<'a>)>,
}

#[derive(Clone, Copy)]
enum Step<'a> {
    Key(&'a str),
    Index(usize),
}

impl<'a> Cursor<'a> {
    /// The root of `doc`; its path is empty.
    pub fn root(doc: &'a Json) -> Cursor<'a> {
        Cursor {
            value: doc,
            up: None,
        }
    }

    /// The raw value under the cursor.
    pub fn json(&self) -> &'a Json {
        self.value
    }

    /// An error at this cursor's path.
    pub fn error(&self, message: impl Into<String>) -> DecodeError {
        let mut path = String::new();
        self.write_path(&mut path);
        DecodeError {
            path,
            message: message.into(),
        }
    }

    fn write_path(&self, path: &mut String) {
        use fmt::Write;
        let Some((parent, step)) = self.up else {
            return;
        };
        parent.write_path(path);
        let _ = match step {
            Step::Key(key) if path.is_empty() => write!(path, "{key}"),
            Step::Key(key) => write!(path, ".{key}"),
            Step::Index(i) => write!(path, "[{i}]"),
        };
    }

    /// An error saying the value under the cursor is not `what`.
    pub fn expected(&self, what: &str) -> DecodeError {
        let got = match self.value {
            Json::Number(x) if x.abs() >= 1e16 => format!("{x:e}"),
            Json::String(_) => "a string".to_string(),
            Json::Array(_) => "an array".to_string(),
            Json::Object(_) => "an object".to_string(),
            other => other.to_string(),
        };
        self.error(format!("expected {what}, got {got}"))
    }

    /// The string under the cursor.
    pub fn str(&self) -> Result<&'a str, DecodeError> {
        self.value.as_str().ok_or_else(|| self.expected("a string"))
    }

    /// The object field `key`, or `None` when the object lacks it.
    fn opt_field<'b>(&'b self, key: &'b str) -> Result<Option<Cursor<'b>>, DecodeError> {
        match self.value {
            Json::Object(pairs) => Ok(pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, value)| self.child(Step::Key(key), value))),
            _ => Err(self.expected("an object")),
        }
    }

    /// The object field `key`; a missing key is reported at this object.
    pub fn field<'b>(&'b self, key: &'b str) -> Result<Cursor<'b>, DecodeError> {
        self.opt_field(key)?
            .ok_or_else(|| self.error(format!("missing field {key:?}")))
    }

    /// Decodes the object field `key`.
    pub fn get<T: FromJson>(&self, key: &str) -> Result<T, DecodeError> {
        T::decode(self.field(key)?)
    }

    /// Decodes the object field `key` if present. An optional field that
    /// is present must still decode: only absence means `None`.
    pub fn opt<T: FromJson>(&self, key: &str) -> Result<Option<T>, DecodeError> {
        self.opt_field(key)?.map(T::decode).transpose()
    }

    /// Decodes the object field `key`, a hex string: the form integers
    /// wider than an `f64` mantissa (RNG state, cache keys) travel in.
    pub fn hex<T: TryFrom<u128>>(&self, key: &str) -> Result<T, DecodeError> {
        let at = self.field(key)?;
        u128::from_str_radix(at.str()?, 16)
            .ok()
            .and_then(|x| T::try_from(x).ok())
            .ok_or_else(|| at.expected(&format!("a {}-bit hex string", 8 * size_of::<T>())))
    }

    /// Decodes every item of the array under the cursor with `item`.
    pub fn list<T>(
        &self,
        mut item: impl FnMut(Cursor<'_>) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let items = self
            .value
            .as_array()
            .ok_or_else(|| self.expected("an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, value)| item(self.child(Step::Index(i), value)))
            .collect()
    }

    /// Decodes every `(key, value)` entry of the object under the
    /// cursor with `entry`, in document order, duplicate keys included.
    pub(crate) fn entries<T>(
        &self,
        mut entry: impl FnMut(&'a str, Cursor<'_>) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let Json::Object(pairs) = self.value else {
            return Err(self.expected("an object"));
        };
        pairs
            .iter()
            .map(|(key, value)| entry(key, self.child(Step::Key(key), value)))
            .collect()
    }

    fn child<'b>(&'b self, step: Step<'b>, value: &'b Json) -> Cursor<'b> {
        Cursor {
            value,
            up: Some((self, step)),
        }
    }
}

impl FromJson for bool {
    fn decode(at: Cursor<'_>) -> Result<bool, DecodeError> {
        at.value.as_bool().ok_or_else(|| at.expected("a boolean"))
    }
}

impl FromJson for String {
    fn decode(at: Cursor<'_>) -> Result<String, DecodeError> {
        at.str().map(str::to_string)
    }
}

impl FromJson for f64 {
    /// Any finite number: the encoder writes non-finite values as
    /// `null`, so a finite value is all a document can hold.
    fn decode(at: Cursor<'_>) -> Result<f64, DecodeError> {
        match at.value {
            Json::Number(x) if x.is_finite() => Ok(*x),
            _ => Err(at.expected("a finite number")),
        }
    }
}

impl FromJson for f32 {
    /// A number that stays finite when narrowed to `f32`.
    fn decode(at: Cursor<'_>) -> Result<f32, DecodeError> {
        Some(f64::decode(at)? as f32)
            .filter(|x| x.is_finite())
            .ok_or_else(|| at.expected("a number in f32 range"))
    }
}

macro_rules! integer_from_json {
    ($($t:ty => $max:expr),*) => {$(
        impl FromJson for $t {
            /// An exact, non-negative integer that fits the type.
            fn decode(at: Cursor<'_>) -> Result<$t, DecodeError> {
                const MAX: f64 = $max;
                match at.value {
                    Json::Number(x) if x.fract() == 0.0 && (0.0..=MAX).contains(x) => {
                        Ok(*x as $t)
                    }
                    _ => Err(at.expected(&format!("an integer in 0..={MAX}"))),
                }
            }
        }
    )*};
}

integer_from_json!(
    u32 => u32::MAX as f64,
    u64 => EXACT,
    usize => if (usize::MAX as f64) < EXACT { usize::MAX as f64 } else { EXACT }
);

impl<T: FromJson> FromJson for Vec<T> {
    fn decode(at: Cursor<'_>) -> Result<Vec<T>, DecodeError> {
        at.list(T::decode)
    }
}

#[cfg(test)]
mod tests {
    use super::{line_col, Cursor, FromJson, Json, ToJson};

    #[test]
    fn line_col_counts_from_one() {
        let text = "ab\ncd\nef".as_bytes();
        assert_eq!(line_col(text, 0), (1, 1));
        assert_eq!(line_col(text, 4), (2, 2));
        assert_eq!(line_col(text, 7), (3, 2));
    }

    #[test]
    fn parse_errors_report_line_and_column() {
        let err = Json::parse("{\n  \"a\": oops\n}").unwrap_err();
        assert_eq!((err.offset, err.line, err.column), (9, 2, 8));
        assert_eq!(err.to_string(), "2:8: unexpected character");
    }

    #[test]
    fn decode_errors_name_the_path() {
        let doc = Json::parse(r#"{"a":[{"b":1},{"b":"x"},{}],"n":4294967297,"f":1e300}"#).unwrap();
        let root = Cursor::root(&doc);
        let a = root.field("a").unwrap();
        let b = |x: Cursor<'_>| x.get::<u32>("b");
        let err = a.list(b).unwrap_err();
        assert_eq!(
            err.to_string(),
            "a[1].b: expected an integer in 0..=4294967295, got a string"
        );
        // A missing key is reported at the object that lacks it.
        let err = a
            .list(|x| x.opt::<u32>("b").map(Option::unwrap_or_default))
            .unwrap_err();
        assert_eq!(err.path, "a[1].b", "a present optional field must decode");
        let err = Json::parse(r#"[{"b":1},{}]"#).map(|d| Cursor::root(&d).list(b).unwrap_err());
        assert_eq!(err.unwrap().to_string(), "[1]: missing field \"b\"");
        assert_eq!(root.get::<u64>("n"), Ok(4_294_967_297));
        assert_eq!(
            root.get::<u32>("n").unwrap_err().to_string(),
            "n: expected an integer in 0..=4294967295, got 4294967297"
        );
        assert_eq!(root.get::<f64>("f"), Ok(1e300));
        assert_eq!(root.get::<f32>("f").unwrap_err().path, "f");
        assert!(root.get::<usize>("f").is_err());
        assert_eq!(root.opt::<bool>("missing"), Ok(None));
        assert_eq!(
            u32::decode(root).unwrap_err().message,
            "expected an integer in 0..=4294967295, got an object"
        );
    }

    #[test]
    fn entries_keep_order_and_duplicates_and_name_the_key() {
        let doc = Json::parse(r#"{"b":1,"a":2,"b":3}"#).unwrap();
        let entries = Cursor::root(&doc).entries(|k, v| Ok((k, u32::decode(v)?)));
        assert_eq!(entries, Ok(vec![("b", 1), ("a", 2), ("b", 3)]));
        let doc = Json::parse(r#"{"o":{"k":"x"},"n":1}"#).unwrap();
        let root = Cursor::root(&doc);
        let err = root
            .field("o")
            .unwrap()
            .entries(|_, v| u32::decode(v))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "o.k: expected an integer in 0..=4294967295, got a string"
        );
        let err = root
            .field("n")
            .unwrap()
            .entries(|_, v| u32::decode(v))
            .unwrap_err();
        assert_eq!(err.to_string(), "n: expected an object, got 1");
    }

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn whole_numbers_print_without_fraction() {
        assert_eq!(Json::Number(3.0).to_string(), "3");
        assert_eq!(Json::Number(-2.0).to_string(), "-2");
        assert_eq!(Json::Number(0.25).to_string(), "0.25");
        // Above 2^53 the float's own Display is used (a long decimal
        // expansion for 1e300 — Rust never emits scientific notation);
        // what matters is that it parses back to the same value.
        let big = Json::Number(1e300).to_string();
        assert_eq!(Json::parse(&big).unwrap(), Json::Number(1e300));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Number(f64::NAN).to_string(), "null");
        assert_eq!(Json::Number(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = Json::object()
            .insert("zebra", 1)
            .insert("apple", 2)
            .insert("mango", 3);
        assert_eq!(v.to_string(), r#"{"zebra":1,"apple":2,"mango":3}"#);
    }

    #[test]
    fn get_finds_first_match() {
        let v = Json::object().insert("a", 1).insert("b", 2);
        assert_eq!(v.get("b").and_then(Json::as_f64), Some(2.0));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\"\\slash\u{1}snowman\u{2603}";
        let v = Json::String(original.to_string());
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse(r#""\u2603""#).unwrap(),
            Json::String("\u{2603}".to_string())
        );
        // Surrogate pair for U+1F600.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::String("\u{1f600}".to_string())
        );
    }

    #[test]
    fn nested_document_round_trips() {
        let text = r#"{"name":"ecad","tables":[{"id":1,"acc":0.8525},{"id":2,"acc":0.91}],"ok":true,"note":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn pretty_output_reparses_to_same_value() {
        let v = Json::object()
            .insert("rows", vec![1, 2, 3])
            .insert("label", "x")
            .insert("empty_list", Json::Array(vec![]))
            .insert("empty_obj", Json::object());
        let pretty = v.pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"rows\": [\n    1,"));
        assert!(pretty.contains("\"empty_list\": []"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "01", "1.", "1e", "\"unterminated",
            "nul", "true false", "{\"a\" 1}", "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn tojson_primitives() {
        assert_eq!(42u32.to_json().to_string(), "42");
        assert_eq!((-3i64).to_json().to_string(), "-3");
        assert_eq!(0.5f32.to_json().to_string(), "0.5");
        assert_eq!("s".to_json().to_string(), "\"s\"");
        assert_eq!(true.to_json().to_string(), "true");
        assert_eq!(None::<u8>.to_json(), Json::Null);
        assert_eq!(vec![1u8, 2].to_json().to_string(), "[1,2]");
    }
}
