//! Minimal deterministic JSON: a streaming writer and a parse type.
//!
//! The workspace is dependency-free by design, so report serialization
//! cannot lean on serde. [`JsonWriter`] streams profile reports, trace
//! exports and result lines with two hard guarantees:
//!
//! - **Byte determinism.** Object members render in write order (and
//!   producers write from `BTreeMap`s), floats render with a fixed
//!   notation, and nothing consults locale or wall clock — the same
//!   report always serializes to the same bytes, which is what lets
//!   golden tests compare whole files.
//! - **Valid output.** Strings are escaped per RFC 8259; non-finite
//!   floats (which JSON cannot represent) render as `null`.
//!
//! [`Json`] is the reading half: tests parse what the writer emitted and
//! render it back to check the bytes round-trip.
//!
//! # Examples
//!
//! ```
//! use k2_sim::json::{Json, JsonWriter};
//!
//! let mut out = String::new();
//! let mut w = JsonWriter::compact(&mut out);
//! w.begin_object();
//! w.key("name");
//! w.str("udp-loopback");
//! w.key("bytes");
//! w.u64(32768);
//! w.key("energy_mj");
//! w.f64(1.5);
//! w.end_object();
//! w.finish();
//! assert_eq!(
//!     out,
//!     r#"{"name":"udp-loopback","bytes":32768,"energy_mj":1.500000}"#
//! );
//! let parsed = Json::parse(&out).unwrap();
//! assert_eq!(parsed.get("bytes").and_then(Json::as_f64), Some(32768.0));
//! assert_eq!(parsed.render_compact(), out);
//! ```

use std::fmt::{self, Write};

/// A JSON value tree: what [`Json::parse`] returns, and what tests
/// render back to compare against the writer's bytes.
///
/// Objects keep their members as an ordered list (insertion order is
/// render order).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, rendered exactly.
    U64(u64),
    /// A signed integer, rendered exactly.
    I64(i64),
    /// A float, rendered as fixed six-decimal notation (`null` if
    /// non-finite).
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; members render in list order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an unsigned-integer value.
    pub fn u64(v: u64) -> Json {
        Json::U64(v)
    }

    /// Builds a float value.
    pub fn f64(v: f64) -> Json {
        Json::F64(v)
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Appends a member to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Object(m) => m.push((key.into(), value)),
            other => panic!("push on non-object Json: {other:?}"),
        }
    }

    /// Renders without any whitespace.
    pub fn render_compact(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Renders pretty-printed with two-space indentation and a trailing
    /// newline — the golden-file format (stable and diffable).
    pub fn render_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s.push('\n');
        s
    }

    fn write<W: Write + ?Sized>(&self, out: &mut W, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => {
                let _ = out.write_str("null");
            }
            Json::Bool(b) => {
                let _ = out.write_str(if *b { "true" } else { "false" });
            }
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:.6}");
                } else {
                    let _ = out.write_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Object(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i, d| {
                    let (k, v) = &members[i];
                    write_escaped(out, k);
                    let _ = out.write_char(':');
                    if indent.is_some() {
                        let _ = out.write_char(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }
}

/// An incremental JSON writer producing byte-identical output to
/// [`Json::render_compact`] / [`Json::render_pretty`].
///
/// The writer emits as it goes: open a container, stream members, close
/// it — each section of a profile report (or each of thousands of trace
/// events) hits the output buffer the moment it is computed, and nothing
/// larger than the current value is ever held. The format contract is
/// checked by tests that render the same document both ways and compare
/// bytes.
///
/// Values written while an object key is pending attach to that key;
/// values written directly inside an array (or at the top level) stand
/// alone. Commas, newlines and indentation are inserted automatically.
///
/// The writer is generic over any [`fmt::Write`] target
/// (default: `String`, which never fails), so the same streaming code
/// renders into memory, a formatter, or — through [`IoAdapter`] — a file
/// or socket. Write errors never panic mid-document: they are swallowed
/// here and surfaced by the target (e.g. [`IoAdapter::finish`] returns
/// the first `io::Error`), keeping every emit method infallible for the
/// common in-memory case.
///
/// # Examples
///
/// ```
/// use k2_sim::json::JsonWriter;
///
/// let mut out = String::new();
/// let mut w = JsonWriter::compact(&mut out);
/// w.begin_object();
/// w.key("name");
/// w.str("udp");
/// w.key("bytes");
/// w.u64(42);
/// w.end_object();
/// w.finish();
/// assert_eq!(out, r#"{"name":"udp","bytes":42}"#);
/// ```
///
/// Streaming to an [`io::Write`](std::io::Write) target:
///
/// ```
/// use k2_sim::json::{IoAdapter, JsonWriter};
///
/// let mut file = IoAdapter::new(Vec::<u8>::new()); // stand-in for File
/// let mut w = JsonWriter::compact(&mut file);
/// w.begin_array();
/// w.u64(1);
/// w.end_array();
/// w.finish();
/// let bytes = file.finish().expect("no io error");
/// assert_eq!(bytes, b"[1]");
/// ```
pub struct JsonWriter<'a, W: Write + ?Sized = String> {
    out: &'a mut W,
    indent: Option<usize>,
    /// One frame per open container: `(is_object, members_written)`.
    stack: Vec<(bool, usize)>,
    /// `true` between `key()` and the value that consumes it.
    pending_key: bool,
}

impl<W: Write + ?Sized> fmt::Debug for JsonWriter<'_, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonWriter")
            .field("indent", &self.indent)
            .field("depth", &self.stack.len())
            .field("pending_key", &self.pending_key)
            .finish_non_exhaustive()
    }
}

impl<'a, W: Write + ?Sized> JsonWriter<'a, W> {
    /// A writer matching [`Json::render_compact`] (no whitespace, no
    /// trailing newline).
    pub fn compact(out: &'a mut W) -> Self {
        JsonWriter {
            out,
            indent: None,
            stack: Vec::new(),
            pending_key: false,
        }
    }

    /// A writer matching [`Json::render_pretty`] (two-space indent and a
    /// trailing newline, added by [`JsonWriter::finish`]).
    pub fn pretty(out: &'a mut W) -> Self {
        JsonWriter {
            out,
            indent: Some(2),
            stack: Vec::new(),
            pending_key: false,
        }
    }

    /// Comma/newline/indent bookkeeping before a value (or an object
    /// key) is emitted at the current position.
    fn separate(&mut self) {
        if self.pending_key {
            // The key already did the separating; the value attaches.
            self.pending_key = false;
            return;
        }
        if let Some((_, count)) = self.stack.last_mut() {
            if *count > 0 {
                let _ = self.out.write_char(',');
            }
            *count += 1;
            if let Some(w) = self.indent {
                let _ = self.out.write_char('\n');
                for _ in 0..(w * self.stack.len()) {
                    let _ = self.out.write_char(' ');
                }
            }
        }
    }

    /// Emits an object member key. The next value written attaches to it.
    ///
    /// # Panics
    ///
    /// Panics if the writer is not inside an object, or a key is already
    /// pending.
    pub fn key(&mut self, key: &str) {
        assert!(
            matches!(self.stack.last(), Some((true, _))),
            "key() outside an object"
        );
        assert!(!self.pending_key, "two keys in a row");
        self.separate();
        write_escaped(self.out, key);
        let _ = self.out.write_char(':');
        if self.indent.is_some() {
            let _ = self.out.write_char(' ');
        }
        self.pending_key = true;
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.separate();
        self.stack.push((true, 0));
        let _ = self.out.write_char('{');
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}', true);
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.separate();
        self.stack.push((false, 0));
        let _ = self.out.write_char('[');
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']', false);
    }

    /// Opens an array *fragment*: values written after this separate
    /// with commas exactly as inside an array, but no `[` is emitted.
    /// Fragments let independent writers each render a slice of one
    /// logical array; the slices concatenate (joined with `,`) inside
    /// brackets written by whoever assembles them. Must be the
    /// outermost frame — fragments do not nest inside containers.
    pub fn begin_fragment(&mut self) {
        assert!(self.stack.is_empty(), "fragment inside a container");
        self.stack.push((false, 0));
    }

    /// Closes an array fragment without emitting `]`. Returns the
    /// number of values the fragment holds, so assemblers can skip
    /// empty fragments when joining.
    pub fn end_fragment(&mut self) -> usize {
        let (is_object, count) = self.stack.pop().expect("end_fragment with nothing open");
        assert!(!is_object, "end_fragment on an object frame");
        assert!(!self.pending_key, "end_fragment with a dangling key");
        count
    }

    fn close(&mut self, close: char, object: bool) {
        let (is_object, count) = self.stack.pop().expect("close with nothing open");
        assert_eq!(is_object, object, "mismatched container close");
        assert!(!self.pending_key, "close with a dangling key");
        if count > 0 {
            if let Some(w) = self.indent {
                let _ = self.out.write_char('\n');
                for _ in 0..(w * self.stack.len()) {
                    let _ = self.out.write_char(' ');
                }
            }
        }
        let _ = self.out.write_char(close);
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.separate();
        let _ = self.out.write_str("null");
    }

    /// Writes a boolean.
    pub fn bool(&mut self, v: bool) {
        self.separate();
        let _ = self.out.write_str(if v { "true" } else { "false" });
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) {
        self.separate();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, v: i64) {
        self.separate();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a float in fixed six-decimal notation (`null` when
    /// non-finite).
    pub fn f64(&mut self, v: f64) {
        self.separate();
        if v.is_finite() {
            let _ = write!(self.out, "{v:.6}");
        } else {
            let _ = self.out.write_str("null");
        }
    }

    /// Writes a string (escaped).
    pub fn str(&mut self, s: &str) {
        self.separate();
        write_escaped(self.out, s);
    }

    /// Finishes the document: in pretty mode appends the trailing
    /// newline [`Json::render_pretty`] emits.
    ///
    /// # Panics
    ///
    /// Panics if a container is still open.
    pub fn finish(self) {
        assert!(self.stack.is_empty(), "finish with open containers");
        if self.indent.is_some() {
            let _ = self.out.write_char('\n');
        }
    }
}

/// Bridges a [`fmt::Write`]-consuming renderer (the
/// [`JsonWriter`], the Chrome trace exporter) onto any
/// [`io::Write`](std::io::Write) target, so multi-megabyte reports and
/// traces stream straight to a file instead of staging in a `String`.
///
/// The first `io::Error` is latched and every later write becomes a
/// no-op; [`IoAdapter::finish`] flushes and surfaces that error. This is
/// what lets the renderers stay infallible (`String` can never fail)
/// while file targets still get honest error reporting — at the end,
/// rather than as a panic mid-document.
#[derive(Debug)]
pub struct IoAdapter<W: std::io::Write> {
    inner: W,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> IoAdapter<W> {
    /// Wraps an `io::Write` target. Consider handing in a
    /// `BufWriter<File>`: the renderers emit many small pieces.
    pub fn new(inner: W) -> Self {
        IoAdapter { inner, error: None }
    }

    /// Flushes and returns the target, or the first write error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.inner.flush()?;
        Ok(self.inner)
    }
}

impl<W: std::io::Write> Write for IoAdapter<W> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        if self.error.is_some() {
            return Err(std::fmt::Error);
        }
        match self.inner.write_all(s.as_bytes()) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.error = Some(e);
                Err(std::fmt::Error)
            }
        }
    }
}

fn write_escaped<W: Write + ?Sized>(out: &mut W, s: &str) {
    let _ = out.write_char('"');
    for c in s.chars() {
        let _ = match c {
            '"' => out.write_str("\\\""),
            '\\' => out.write_str("\\\\"),
            '\n' => out.write_str("\\n"),
            '\r' => out.write_str("\\r"),
            '\t' => out.write_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32)
            }
            c => out.write_char(c),
        };
    }
    let _ = out.write_char('"');
}

fn write_seq<W: Write + ?Sized>(
    out: &mut W,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut W, usize, usize),
) {
    let _ = out.write_char(open);
    if len == 0 {
        let _ = out.write_char(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            let _ = out.write_char(',');
        }
        if let Some(w) = indent {
            let _ = out.write_char('\n');
            for _ in 0..(w * (depth + 1)) {
                let _ = out.write_char(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(w) = indent {
        let _ = out.write_char('\n');
        for _ in 0..(w * depth) {
            let _ = out.write_char(' ');
        }
    }
    let _ = out.write_char(close);
}

impl Json {
    /// Parses a JSON document (the whole input must be one value plus
    /// optional whitespace).
    ///
    /// This is the reading half of the workspace's dependency-free JSON:
    /// round-trip tests feed exported trace files back through it.
    /// Numbers without `.`/`e` parse as integers (`U64`, or `I64` when
    /// negative), everything else as `F64` — matching what the writer
    /// emits, so `parse(render(x))` reproduces `x` for writer output.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the unescaped run in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| "invalid \\u escape".to_string())?);
                        }
                        other => return Err(format!("invalid escape '\\{}'", other as char)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        self.pos += 4;
        let s = std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
        u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if float {
            s.parse::<f64>()
                .map(Json::F64)
                .map_err(|e| format!("bad number '{s}': {e}"))
        } else if s.starts_with('-') {
            s.parse::<i64>()
                .map(Json::I64)
                .map_err(|e| format!("bad number '{s}': {e}"))
        } else {
            s.parse::<u64>()
                .map(Json::U64)
                .map_err(|e| format!("bad number '{s}': {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render_compact(), "null");
        assert_eq!(Json::Bool(true).render_compact(), "true");
        assert_eq!(Json::u64(42).render_compact(), "42");
        assert_eq!(Json::I64(-7).render_compact(), "-7");
        assert_eq!(Json::f64(1.25).render_compact(), "1.250000");
        assert_eq!(Json::f64(f64::NAN).render_compact(), "null");
        assert_eq!(Json::f64(f64::INFINITY).render_compact(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render_compact(),
            r#""a\"b\\c\nd\u0001""#
        );
    }

    #[test]
    fn containers_preserve_order() {
        let j = Json::object([
            ("z", Json::u64(1)),
            ("a", Json::array([Json::u64(1), Json::u64(2)])),
        ]);
        assert_eq!(j.render_compact(), r#"{"z":1,"a":[1,2]}"#);
    }

    #[test]
    fn empty_containers_are_tight() {
        assert_eq!(Json::array([]).render_pretty(), "[]\n");
        let e: [(&str, Json); 0] = [];
        assert_eq!(Json::object(e).render_pretty(), "{}\n");
    }

    #[test]
    fn pretty_nests_with_two_spaces() {
        let j = Json::object([("a", Json::object([("b", Json::u64(1))]))]);
        assert_eq!(j.render_pretty(), "{\n  \"a\": {\n    \"b\": 1\n  }\n}\n");
    }

    #[test]
    fn push_extends_objects() {
        let mut j = Json::object([("a", Json::u64(1))]);
        j.push("b", Json::u64(2));
        assert_eq!(j.render_compact(), r#"{"a":1,"b":2}"#);
    }

    #[test]
    #[should_panic(expected = "push on non-object")]
    fn push_on_scalar_panics() {
        Json::Null.push("a", Json::u64(1));
    }

    /// A nested document with every value kind, built once as a tree.
    fn specimen() -> Json {
        Json::object([
            ("s", Json::str("a\"b\\c\nd")),
            ("u", Json::u64(18_446_744_073_709_551_615)),
            ("i", Json::I64(-42)),
            ("f", Json::f64(1.5)),
            ("nan", Json::f64(f64::NAN)),
            ("t", Json::Bool(true)),
            ("n", Json::Null),
            ("empty_a", Json::array([])),
            (
                "arr",
                Json::array([Json::u64(1), Json::object([("k", Json::str("v"))])]),
            ),
            ("empty_o", Json::object([] as [(&str, Json); 0])),
        ])
    }

    /// Streams the specimen through the writer.
    fn stream_specimen<W: Write + ?Sized>(w: &mut JsonWriter<'_, W>) {
        w.begin_object();
        w.key("s");
        w.str("a\"b\\c\nd");
        w.key("u");
        w.u64(18_446_744_073_709_551_615);
        w.key("i");
        w.i64(-42);
        w.key("f");
        w.f64(1.5);
        w.key("nan");
        w.f64(f64::NAN);
        w.key("t");
        w.bool(true);
        w.key("n");
        w.null();
        w.key("empty_a");
        w.begin_array();
        w.end_array();
        w.key("arr");
        w.begin_array();
        w.u64(1);
        w.begin_object();
        w.key("k");
        w.str("v");
        w.end_object();
        w.end_array();
        w.key("empty_o");
        w.begin_object();
        w.end_object();
        w.end_object();
    }

    #[test]
    fn writer_matches_tree_render_compact() {
        let mut out = String::new();
        let mut w = JsonWriter::compact(&mut out);
        stream_specimen(&mut w);
        w.finish();
        assert_eq!(out, specimen().render_compact());
    }

    #[test]
    fn writer_matches_tree_render_pretty() {
        let mut out = String::new();
        let mut w = JsonWriter::pretty(&mut out);
        stream_specimen(&mut w);
        w.finish();
        assert_eq!(out, specimen().render_pretty());
    }

    #[test]
    fn writer_top_level_array_matches_tree_render() {
        let mut out = String::new();
        let mut w = JsonWriter::pretty(&mut out);
        w.begin_array();
        w.u64(1);
        w.str("x");
        w.end_array();
        w.finish();
        assert_eq!(
            out,
            Json::array([Json::u64(1), Json::str("x")]).render_pretty()
        );
    }

    #[test]
    #[should_panic(expected = "key() outside an object")]
    fn writer_rejects_key_in_array() {
        let mut out = String::new();
        let mut w = JsonWriter::compact(&mut out);
        w.begin_array();
        w.key("k");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let j = specimen();
        // NaN renders as null, so compare against the null-substituted tree.
        let parsed = Json::parse(&j.render_pretty()).unwrap();
        let mut expect = j.clone();
        if let Json::Object(m) = &mut expect {
            m[4].1 = Json::Null;
        }
        assert_eq!(parsed, expect);
        // And a second round trip is byte-stable.
        assert_eq!(
            parsed.render_pretty(),
            Json::parse(&parsed.render_pretty())
                .unwrap()
                .render_pretty()
        );
    }

    #[test]
    fn parse_handles_escapes_and_numbers() {
        let j = Json::parse(r#"{"a": "xA\n\"", "b": [-3, 2.5, 1e3]}"#).unwrap();
        assert_eq!(j.get("a").and_then(Json::as_str), Some("xA\n\""));
        let b = j.get("b").and_then(Json::as_array).unwrap();
        assert_eq!(b[0], Json::I64(-3));
        assert_eq!(b[1], Json::F64(2.5));
        assert_eq!(b[2], Json::F64(1000.0));
    }

    #[test]
    fn io_adapter_streams_writer_output_to_io_targets() {
        let mut sink = IoAdapter::new(Vec::<u8>::new());
        let mut w = JsonWriter::pretty(&mut sink);
        stream_specimen(&mut w);
        w.finish();
        let bytes = sink.finish().expect("vec sink never errors");
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text, specimen().render_pretty());
        // And the streamed file contents parse back losslessly.
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn io_adapter_latches_the_first_error() {
        /// Accepts `cap` bytes, then fails every write.
        struct Cramped {
            cap: usize,
        }
        impl std::io::Write for Cramped {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.len() > self.cap {
                    return Err(std::io::Error::other("full"));
                }
                self.cap -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = IoAdapter::new(Cramped { cap: 4 });
        let mut w = JsonWriter::compact(&mut sink);
        w.begin_array();
        for i in 0..64 {
            w.u64(i);
        }
        w.end_array();
        w.finish(); // must not panic despite the exhausted target
        assert!(sink.finish().is_err(), "the io error must surface");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
        assert!(Json::parse("nul").is_err());
    }
}
