//! Minimal hand-rolled JSON, the one copy in the workspace: emission
//! helpers shared by every exporter, a small recursive-descent parser
//! used to read committed baselines and wire requests back in, and
//! the report-row declaration ([`Row`], [`row!`](crate::row)) whose
//! generic walks write, read and compare every report document.
//! Keeps the stack dependency-free.

use crate::event::Value;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Appends an `f64` to `out` as a JSON number, without an intermediate
/// allocation. `{:?}` round-trips the exact bit pattern, which the
/// baseline's exact-compare policy relies on; non-finite values become
/// `null` as JSON requires.
pub fn write_num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// [`write_num`] into a fresh `String`.
pub fn num(x: f64) -> String {
    let mut out = String::new();
    write_num(&mut out, x);
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; integers below 2⁵³ are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an
/// error. Errors carry a byte offset and a short reason.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Deepest `[`/`{` nesting [`parse`] follows. The documents read here
/// nest at most four levels; the bound keeps a hostile line of
/// brackets from overflowing the stack of a long-lived reader.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {}", self.pos, msg)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<Json, String>,
    ) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than 64 levels"));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one slice:
            // both are ASCII, so the run ends on a char boundary.
            let rest = &self.src.as_bytes()[self.pos..];
            let Some(run) = rest.iter().position(|&c| c == b'"' || c == b'\\') else {
                self.pos = self.src.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    if self.pos + 5 > self.src.len() {
                        return Err(self.err("truncated \\u escape"));
                    }
                    let hex = self
                        .src
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| self.err("non-utf8 \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    // Surrogate pairs are not produced by our
                    // emitters; map lone surrogates to U+FFFD.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                _ => return Err(self.err("bad escape")),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// A report row: a type that lists its `(key, field)` pairs once, in
/// export order — with [`row!`](crate::row), which writes both
/// methods from one list. Every report document (`timeline.json`,
/// `profile.json`, both `BENCH_*.json`) is a row whose cells are
/// scalars, nested rows and lists of rows; [`write_doc`], [`Row::read`]
/// and [`diff`] are the only code that knows their layout.
pub trait Row {
    /// Visits the fields as ordered `(key, value)` pairs.
    fn fields(&self, sink: &mut dyn FnMut(&'static str, Value<'_>));

    /// Reads the row back from a parsed object.
    ///
    /// # Errors
    /// ``missing field `k` `` or ``field `k` is not a …``.
    fn read(obj: &Json) -> Result<Self, String>
    where
        Self: Sized;
}

/// A list of rows behind one pointer, so a [`Value`] can carry it.
pub trait Rows {
    /// Visits the rows in order.
    fn each(&self, visit: &mut dyn FnMut(&dyn Row));
}

impl<T: Row> Rows for Vec<T> {
    fn each(&self, visit: &mut dyn FnMut(&dyn Row)) {
        self.iter().for_each(|row| visit(row));
    }
}

/// A type a row field can have: how it renders, and how it is read
/// back from the value found under its key.
pub trait Cell: Sized {
    /// The field as the exporters see it.
    fn value(&self) -> Value<'_>;

    /// Reads the field from `j`, the value under `key`.
    ///
    /// # Errors
    /// ``field `key` is not a …`` when `j` has the wrong shape.
    fn from_json(j: &Json, key: &str) -> Result<Self, String>;
}

fn not(key: &str, what: &str) -> String {
    format!("field `{key}` is not {what}")
}

impl Cell for u64 {
    fn value(&self) -> Value<'_> {
        Value::U64(*self)
    }
    fn from_json(j: &Json, key: &str) -> Result<u64, String> {
        j.as_u64().ok_or_else(|| not(key, "an integer"))
    }
}

impl Cell for usize {
    fn value(&self) -> Value<'_> {
        Value::U64(*self as u64)
    }
    fn from_json(j: &Json, key: &str) -> Result<usize, String> {
        u64::from_json(j, key).map(|v| v as usize)
    }
}

impl Cell for f64 {
    fn value(&self) -> Value<'_> {
        Value::F64(*self)
    }
    fn from_json(j: &Json, key: &str) -> Result<f64, String> {
        j.as_f64().ok_or_else(|| not(key, "a number"))
    }
}

impl Cell for bool {
    fn value(&self) -> Value<'_> {
        Value::Bool(*self)
    }
    fn from_json(j: &Json, key: &str) -> Result<bool, String> {
        match j {
            Json::Bool(b) => Ok(*b),
            _ => Err(not(key, "a boolean")),
        }
    }
}

impl Cell for String {
    fn value(&self) -> Value<'_> {
        Value::Str(self)
    }
    fn from_json(j: &Json, key: &str) -> Result<String, String> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| not(key, "a string"))
    }
}

impl Cell for Cow<'static, str> {
    fn value(&self) -> Value<'_> {
        Value::Str(self)
    }
    fn from_json(j: &Json, key: &str) -> Result<Cow<'static, str>, String> {
        String::from_json(j, key).map(Cow::Owned)
    }
}

impl Cell for Option<usize> {
    fn value(&self) -> Value<'_> {
        Value::Rank(*self)
    }
    fn from_json(j: &Json, key: &str) -> Result<Option<usize>, String> {
        match j {
            Json::Null => Ok(None),
            _ => usize::from_json(j, key).map(Some),
        }
    }
}

impl Cell for Option<f64> {
    fn value(&self) -> Value<'_> {
        Value::OptF64(*self)
    }
    fn from_json(j: &Json, key: &str) -> Result<Option<f64>, String> {
        match j {
            Json::Null => Ok(None),
            _ => f64::from_json(j, key).map(Some),
        }
    }
}

impl Cell for Vec<String> {
    fn value(&self) -> Value<'_> {
        Value::Strs(self)
    }
    fn from_json(j: &Json, key: &str) -> Result<Vec<String>, String> {
        let items = j.as_array().ok_or_else(|| not(key, "a list of strings"))?;
        items.iter().map(|s| String::from_json(s, key)).collect()
    }
}

impl<T: Row> Cell for T {
    fn value(&self) -> Value<'_> {
        Value::Row(self)
    }
    fn from_json(j: &Json, _key: &str) -> Result<T, String> {
        T::read(j)
    }
}

impl<T: Row> Cell for Vec<T> {
    fn value(&self) -> Value<'_> {
        Value::Rows(self)
    }
    fn from_json(j: &Json, key: &str) -> Result<Vec<T>, String> {
        let items = j.as_array().ok_or_else(|| not(key, "an array"))?;
        items.iter().map(T::read).collect()
    }
}

/// A document's format version as a field: always written as `V`,
/// and reading any other number fails — declared first, it stops a
/// reader before it walks a layout it does not know.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Version<const V: u64>;

impl<const V: u64> Cell for Version<V> {
    fn value(&self) -> Value<'_> {
        Value::U64(V)
    }
    fn from_json(j: &Json, key: &str) -> Result<Self, String> {
        match u64::from_json(j, key)? {
            v if v == V => Ok(Version),
            v => Err(format!("version {v} unsupported (expected {V})")),
        }
    }
}

impl<const V: u64> PartialEq<u64> for Version<V> {
    fn eq(&self, other: &u64) -> bool {
        *other == V
    }
}

/// Reads the cell under `key` of `obj` (what [`row!`](crate::row)
/// expands each field's read to).
///
/// # Errors
/// ``missing field `key` ``, or the cell's own shape error.
pub fn field<C: Cell>(obj: &Json, key: &str) -> Result<C, String> {
    let j = obj
        .get(key)
        .ok_or_else(|| format!("missing field `{key}`"))?;
    C::from_json(j, key)
}

/// Declares a report row: lists the `"key" => field` pairs of a type
/// once, in export order, and implements [`Row`](crate::json::Row)
/// from the list. Fields the list leaves out (wall-clock readings that
/// are reported but never stored) keep their `Default` on a read.
/// Generic types name their parameters first: `row! { impl[T: Row]
/// File<T> { … } }`.
#[macro_export]
macro_rules! row {
    (impl[$($gen:tt)*] $ty:ty { $($key:literal => $field:ident),+ $(,)? }) => {
        impl<$($gen)*> $crate::json::Row for $ty {
            fn fields(&self, sink: &mut dyn FnMut(&'static str, $crate::Value<'_>)) {
                $(sink($key, $crate::json::Cell::value(&self.$field));)+
            }

            fn read(obj: &$crate::json::Json) -> Result<Self, String> {
                let mut row = <$ty>::default();
                $(row.$field = $crate::json::field(obj, $key)?;)+
                Ok(row)
            }
        }
    };
    ($ty:ty { $($body:tt)+ }) => {
        $crate::row!(impl[] $ty { $($body)+ });
    };
}

/// Appends `row` as a one-line object: `{"k": v, "k": v}` in the
/// report documents (`spaced`), `{"k":v,"k":v}` in the trace exports.
pub fn write_row(out: &mut String, row: &dyn Row, spaced: bool) {
    let (comma, colon) = if spaced {
        (", \"", "\": ")
    } else {
        (",\"", "\":")
    };
    out.push('{');
    let mut sep = "\"";
    row.fields(&mut |key, value| {
        // Piecewise pushes, not `write!`: this runs once per field of
        // every exported row.
        out.push_str(sep);
        out.push_str(key);
        out.push_str(colon);
        value.write_json(out);
        sep = comma;
    });
    out.push('}');
}

/// Serializes a report document: one `  "key": value` line per field
/// of `doc`, a nested row as a one-line object, a list of rows as one
/// object per line.
pub fn write_doc(doc: &dyn Row) -> String {
    let mut out = String::with_capacity(4096);
    out.push('{');
    let mut sep = "\n  \"";
    doc.fields(&mut |key, value| {
        out.push_str(sep);
        out.push_str(key);
        out.push_str("\": ");
        sep = ",\n  \"";
        match value {
            Value::Row(row) => write_row(&mut out, row, true),
            Value::Rows(rows) => {
                out.push('[');
                let mut sep = "\n    ";
                rows.each(&mut |row| {
                    out.push_str(sep);
                    write_row(&mut out, row, true);
                    sep = ",\n    ";
                });
                out.push_str("\n  ]");
            }
            scalar => scalar.write_json(&mut out),
        }
    });
    out.push_str("\n}\n");
    out
}

/// Exact comparison of two rows of one type: calls `out(key, before,
/// after)` for every field whose values differ — `f64` by bit
/// pattern, everything else by equality.
pub fn diff(
    before: &dyn Row,
    after: &dyn Row,
    out: &mut dyn FnMut(&'static str, Value<'_>, Value<'_>),
) {
    before.fields(&mut |key, b| {
        after.fields(&mut |k, a| {
            if k == key && !b.same(&a) {
                out(key, b, a);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_round_trip_of_emitted_numbers() {
        for &x in &[0.0, 1.5, -2.25e-9, 1.234_567_890_123_456_7e300, 3.0e-45] {
            let s = num(x);
            let parsed = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), x.to_bits(), "round trip of {s}");
        }
    }

    #[test]
    fn write_num_appends_what_num_returns() {
        let mut out = String::from("[");
        for &x in &[0.1 + 0.2, -0.0, 1e21, f64::NAN, f64::NEG_INFINITY] {
            write_num(&mut out, x);
            out.push(',');
        }
        assert_eq!(out, "[0.30000000000000004,-0.0,1e21,null,null,");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn parses_nested_structure() {
        let doc = r#"{"a": [1, 2.5, "x\"y"], "b": {"c": null, "d": true}, "e": -3e2}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("x\"y")
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_f64(), Some(-300.0));
    }

    #[test]
    fn escaped_strings_round_trip() {
        let original = "plan \"cannon(q=4)\",\nwith\ttabs\\slashes\u{1}";
        let doc = format!("\"{}\"", esc(original));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(original));
    }

    #[test]
    fn multibyte_characters_and_unicode_escapes_round_trip() {
        let original = "λ = Σ δ(s, v) — naïve 北京 🦀";
        for doc in [
            format!("\"{original}\""),
            format!("\"{}\"", esc(original)),
            "\"\\u03bb = \\u03a3 \\u03b4(s, v) \\u2014 na\\u00efve \\u5317\\u4eac 🦀\"".into(),
        ] {
            assert_eq!(parse(&doc).unwrap().as_str(), Some(original), "{doc}");
        }
        let err = parse("\"\\u00e").unwrap_err();
        assert!(err.contains("truncated \\u escape"), "{err}");
        let err = parse("\"\\u000λ\"").unwrap_err();
        assert!(err.contains("non-utf8 \\u escape"), "{err}");
        let err = parse("\"λλ").unwrap_err();
        assert_eq!(err, "json parse error at byte 5: unterminated string");
    }

    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        // The parser copies runs between escapes by slice: the
        // per-character revalidation of the rest of the input it once
        // did made this quadratic (hours, not milliseconds).
        let body = "ab\\\"cλ".repeat(1 << 18);
        let doc = format!("{{\"k\":\"{body}\"}}");
        assert!(doc.len() > 1 << 20);
        let parsed = parse(&doc).unwrap();
        let value = parsed.get("k").and_then(Json::as_str).unwrap();
        assert_eq!(value, "ab\"cλ".repeat(1 << 18));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_recursed_to_death() {
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(200_000)).unwrap_err();
            assert!(
                err.starts_with("json parse error at byte ") && err.contains("deeper than 64"),
                "{err}"
            );
        }
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).is_err());
        // Depth is nesting, not a count of containers.
        assert!(parse(&format!("[{}]", vec!["[[]]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn u64_exactness_window() {
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }
}
