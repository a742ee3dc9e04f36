//! A minimal JSON document model with a recursive-descent parser and a
//! byte-stable serializer, plus [`PrettyWriter`], which streams the same
//! pretty form without building a tree (the digest trails are tens to
//! hundreds of megabytes).
//!
//! The tracing layer only ever *writes* JSON
//! ([`to_json_line`](crate::to_json_line)), but the perf-baseline
//! comparator must also
//! *read* `BENCH_*.json` reports back (to diff a candidate against a
//! baseline and to scrub volatile wall-clock fields before determinism
//! comparisons). The container image vendors no serde, so this module
//! carries a small, dependency-free document model. Object members are
//! kept as an ordered `Vec` — parsing then re-serializing an input built
//! by our own writers is byte-identical, which is what makes
//! scrub-then-compare tests meaningful.

use std::fmt::Write as _;
use std::io;

/// A parsed JSON value. Objects preserve member order.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (all numbers our reports emit are
    /// exactly representable or explicitly lossy wall-clock figures).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as an ordered member list.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document. Returns a message describing the first
    /// error on malformed input.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Looks up a member of an object by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a member of an object by key, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), preserving member order.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes with two-space indentation, preserving member order.
    /// Number and string formatting are identical to
    /// [`to_string_compact`](Self::to_string_compact), so the two forms
    /// parse back to equal values. This is [`PrettyWriter`] applied to the
    /// whole tree.
    pub fn to_string_pretty(&self) -> String {
        let mut w = PrettyWriter::new(Vec::new());
        w.value(Emit::Value(self))
            .expect("writing into a Vec cannot fail");
        let bytes = w.finish().expect("writing into a Vec cannot fail");
        String::from_utf8(bytes).expect("the writer emits UTF-8")
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_num(out, *n),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// One value for [`PrettyWriter`] to emit.
#[derive(Clone, Copy, Debug)]
pub enum Emit<'a> {
    /// `null`.
    Null,
    /// A number, formatted as [`JsonValue::Num`] is.
    Num(f64),
    /// A string, escaped as [`JsonValue::Str`] is.
    Str(&'a str),
    /// A 64-bit digest as a 16-digit lower-case hex string: the `f64`
    /// number model cannot carry it losslessly.
    Hex(u64),
    /// A whole document tree.
    Value(&'a JsonValue),
    /// Opens an array; the caller streams its elements with
    /// [`PrettyWriter::element`] and closes it with [`PrettyWriter::end`].
    Arr,
    /// Opens an object; the caller streams its members with
    /// [`PrettyWriter::members`] and closes it with [`PrettyWriter::end`].
    Obj,
}

/// Streams a document as two-space-indented JSON, byte-identical to
/// [`JsonValue::to_string_pretty`] of the same tree, without building
/// the tree. Objects and arrays are opened by [`Emit::Obj`] /
/// [`Emit::Arr`] in any value position and closed by [`Self::end`];
/// empty ones print inline (`{}`, `[]`), as in the tree form. Each call
/// hands its bytes to the sink in one `write_all`, so wrap a file in a
/// `BufWriter`.
#[derive(Debug)]
pub struct PrettyWriter<W: io::Write> {
    out: W,
    /// The current call's bytes, reused across calls.
    buf: String,
    /// One entry per open container: `(is_object, has_entries)`.
    open: Vec<(bool, bool)>,
}

impl<W: io::Write> PrettyWriter<W> {
    /// A writer with nothing open, emitting into `out`.
    pub fn new(out: W) -> Self {
        PrettyWriter {
            out,
            buf: String::new(),
            open: Vec::new(),
        }
    }

    /// Writes the document's root value. Elements and members inside it go
    /// through [`Self::element`] and [`Self::members`].
    pub fn value(&mut self, value: Emit<'_>) -> io::Result<()> {
        match value {
            Emit::Null => self.buf.push_str("null"),
            Emit::Num(n) => write_num(&mut self.buf, n),
            Emit::Str(s) => write_str(&mut self.buf, s),
            Emit::Hex(h) => write_hex(&mut self.buf, h),
            Emit::Value(JsonValue::Arr(items)) => {
                self.value(Emit::Arr)?;
                for item in items {
                    self.element(Emit::Value(item))?;
                }
                return self.end();
            }
            Emit::Value(JsonValue::Obj(members)) => {
                self.value(Emit::Obj)?;
                for (key, item) in members {
                    self.key(key);
                    self.value(Emit::Value(item))?;
                }
                return self.end();
            }
            Emit::Value(scalar) => scalar.write(&mut self.buf),
            Emit::Arr => {
                self.buf.push('[');
                self.open.push((false, false));
            }
            Emit::Obj => {
                self.buf.push('{');
                self.open.push((true, false));
            }
        }
        self.emit()
    }

    /// Writes one element of the innermost open array.
    ///
    /// # Panics
    /// Panics when the innermost open container is not an array.
    pub fn element(&mut self, value: Emit<'_>) -> io::Result<()> {
        self.entry(false);
        self.value(value)
    }

    /// Writes `("key", value)` members of the innermost open object, in
    /// order. A container opener ([`Emit::Obj`], [`Emit::Arr`]) may only
    /// come last: what follows it belongs inside it.
    ///
    /// # Panics
    /// Panics when the innermost open container is not an object.
    pub fn members(&mut self, members: &[(&str, Emit<'_>)]) -> io::Result<()> {
        for &(key, value) in members {
            self.key(key);
            self.value(value)?;
        }
        Ok(())
    }

    /// Closes the innermost open container.
    ///
    /// # Panics
    /// Panics when nothing is open.
    pub fn end(&mut self) -> io::Result<()> {
        let (is_object, has_entries) = self.open.pop().expect("end() with nothing open");
        if has_entries {
            self.buf.push('\n');
            indent(&mut self.buf, self.open.len());
        }
        self.buf.push(if is_object { '}' } else { ']' });
        self.emit()
    }

    /// Flushes the sink and returns it.
    ///
    /// # Panics
    /// Panics when a container is still open.
    pub fn finish(mut self) -> io::Result<W> {
        assert!(self.open.is_empty(), "finish() with a container still open");
        self.out.flush()?;
        Ok(self.out)
    }

    fn key(&mut self, key: &str) {
        self.entry(true);
        write_str(&mut self.buf, key);
        self.buf.push_str(": ");
    }

    /// Separator and indentation for the next entry of the innermost open
    /// container, which must be an object iff `object`.
    fn entry(&mut self, object: bool) {
        let depth = self.open.len();
        let (is_object, has_entries) = self.open.last_mut().expect("no container is open");
        assert_eq!(
            *is_object, object,
            "member/element written into the wrong container"
        );
        self.buf.push_str(if *has_entries { ",\n" } else { "\n" });
        *has_entries = true;
        indent(&mut self.buf, depth);
    }

    fn emit(&mut self) -> io::Result<()> {
        self.out.write_all(self.buf.as_bytes())?;
        self.buf.clear();
        Ok(())
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_hex(out: &mut String, h: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    for shift in (0..16).rev() {
        out.push(char::from(DIGITS[(h >> (shift * 4)) as usize & 0xf]));
    }
    out.push('"');
}

fn write_num(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{:?}` is Rust's shortest round-trip float formatting.
        let _ = write!(out, "{n:?}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_str(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at offset {pos}"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("bad number `{text}` at offset {start}"))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape. Both
                // are ASCII, so the run ends on a UTF-8 boundary; validating
                // only the run keeps parsing linear in the input.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at offset {pos}")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected member key at offset {pos}"));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at offset {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The recursive tree printer [`PrettyWriter`] replaced, kept as the
    /// reference it must match byte for byte.
    fn reference_pretty(v: &JsonValue, out: &mut String, depth: usize) {
        match v {
            JsonValue::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    reference_pretty(item, out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Obj(members) if !members.is_empty() => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    reference_pretty(v, out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// A tree drawn from `bits`: every variant, empty and nested
    /// containers, integers up to `u64::MAX`, fractions and escapes.
    fn tree(bits: &mut impl Iterator<Item = u64>, depth: usize) -> JsonValue {
        const STRS: [&str; 5] = [
            "",
            "digest",
            "quote\" back\\slash",
            "tab\tnl\n\u{1}",
            "h\u{e9}llo \u{2713}",
        ];
        let b = bits.next().unwrap_or(0);
        let width = if depth >= 8 { 0 } else { (b >> 8) as usize % 5 };
        match b % 8 {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(b & 0x100 != 0),
            2 => JsonValue::Num((b >> 3) as f64),
            3 => JsonValue::Num(b as f64 / 7.0 - 1e9),
            4 => JsonValue::Str(STRS[(b >> 3) as usize % STRS.len()].to_string()),
            5 | 6 => JsonValue::Arr((0..width).map(|_| tree(bits, depth + 1)).collect()),
            _ => JsonValue::Obj(
                (0..width)
                    .map(|i| {
                        (
                            STRS[(i + (b >> 12) as usize) % STRS.len()].to_string(),
                            tree(bits, depth + 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pretty_writer_matches_the_recursive_printer(
            bits in proptest::collection::vec(any::<u64>(), 1..120),
        ) {
            let v = tree(&mut bits.into_iter(), 0);
            let mut expected = String::new();
            reference_pretty(&v, &mut expected, 0);
            prop_assert_eq!(v.to_string_pretty(), expected);
        }
    }

    #[test]
    fn streamed_members_match_the_tree() {
        let rows = 300u64;
        let mut w = PrettyWriter::new(Vec::new());
        w.value(Emit::Obj).unwrap();
        w.members(&[("schema", Emit::Str("t/1")), ("empty", Emit::Arr)])
            .unwrap();
        w.end().unwrap();
        w.members(&[("rows", Emit::Arr)]).unwrap();
        for i in 0..rows {
            w.element(Emit::Obj).unwrap();
            w.members(&[
                ("i", Emit::Num(i as f64)),
                ("h", Emit::Hex(i.wrapping_mul(u64::MAX / 3))),
            ])
            .unwrap();
            w.end().unwrap();
        }
        w.end().unwrap();
        w.end().unwrap();
        let streamed = String::from_utf8(w.finish().unwrap()).unwrap();

        let tree = JsonValue::Obj(vec![
            ("schema".into(), JsonValue::Str("t/1".into())),
            ("empty".into(), JsonValue::Arr(Vec::new())),
            (
                "rows".into(),
                JsonValue::Arr(
                    (0..rows)
                        .map(|i| {
                            JsonValue::Obj(vec![
                                ("i".into(), JsonValue::Num(i as f64)),
                                (
                                    "h".into(),
                                    JsonValue::Str(format!(
                                        "{:016x}",
                                        i.wrapping_mul(u64::MAX / 3)
                                    )),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        assert_eq!(streamed, tree.to_string_pretty());
    }

    #[test]
    fn hex_is_sixteen_lower_case_digits() {
        let mut out = String::new();
        write_hex(&mut out, 0);
        write_hex(&mut out, u64::MAX);
        write_hex(&mut out, 0x0123_4567_89ab_cdef);
        assert_eq!(
            out,
            "\"0000000000000000\"\"ffffffffffffffff\"\"0123456789abcdef\""
        );
    }

    #[test]
    fn sink_errors_surface() {
        #[derive(Debug)]
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = PrettyWriter::new(Full);
        assert_eq!(
            w.value(Emit::Str("x")).unwrap_err().to_string(),
            "disk full"
        );
    }

    #[test]
    #[should_panic(expected = "wrong container")]
    fn a_member_outside_an_object_is_a_bug() {
        let mut w = PrettyWriter::new(Vec::new());
        w.value(Emit::Arr).unwrap();
        let _ = w.members(&[("k", Emit::Null)]);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Validating the rest of the input per character made this
        // quadratic: minutes for a string of this length.
        let body = "h\u{e9}llo \u{2713} ".repeat(1 << 16);
        let text = format!("[\"{body}\", \"a\\\"b\"]");
        let v = JsonValue::parse(&text).unwrap();
        assert_eq!(v.as_arr().unwrap()[0].as_str(), Some(body.as_str()));
        assert_eq!(v.as_arr().unwrap()[1].as_str(), Some("a\"b"));
    }

    #[test]
    fn round_trips_compact_documents() {
        let cases = [
            r#"{"a":1,"b":[1,2,3],"c":{"d":null,"e":true},"f":"x"}"#,
            r#"[0,-7,3.5,"s",false]"#,
            r#"{}"#,
            r#"{"nested":{"deep":[{"k":"v"}]}}"#,
        ];
        for text in cases {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.to_string_compact(), text, "round trip of {text}");
        }
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = JsonValue::parse(" { \"a\\n\" : [ 1 ,\t2 ] } ").unwrap();
        assert_eq!(v.get("a\n").unwrap().as_arr().unwrap().len(), 2);
        let s = JsonValue::parse(r#""tab\tquote\" end""#).unwrap();
        assert_eq!(s.as_str(), Some("tab\tquote\" end"));
    }

    #[test]
    fn preserves_member_order() {
        let text = r#"{"z":1,"a":2,"m":3}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.to_string_compact(), text);
    }

    #[test]
    fn rejects_malformed_input() {
        for text in ["{", "[1,", r#"{"a"}"#, "tru", "1 2", ""] {
            assert!(JsonValue::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn integer_numbers_stay_integers() {
        let v = JsonValue::parse("1234567890123").unwrap();
        assert_eq!(v.to_string_compact(), "1234567890123");
        assert_eq!(v.as_u64(), Some(1234567890123));
        let f = JsonValue::parse("0.25").unwrap();
        assert_eq!(f.to_string_compact(), "0.25");
        assert_eq!(f.as_u64(), None);
    }

    #[test]
    fn get_mut_allows_scrubbing() {
        let mut v = JsonValue::parse(r#"{"wall_s":1.23,"events":42}"#).unwrap();
        *v.get_mut("wall_s").unwrap() = JsonValue::Num(0.0);
        assert_eq!(v.to_string_compact(), r#"{"wall_s":0,"events":42}"#);
    }

    #[test]
    fn pretty_form_round_trips_to_the_same_value() {
        let text = r#"{"a":[1,2,{"b":null}],"c":{},"d":[],"e":"x"}"#;
        let v = JsonValue::parse(text).unwrap();
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"a\": ["));
        assert!(pretty.contains(r#""c": {}"#), "empty obj stays inline");
        assert!(pretty.contains(r#""d": []"#), "empty arr stays inline");
        let back = JsonValue::parse(&pretty).unwrap();
        assert_eq!(back.to_string_compact(), text);
    }
}
