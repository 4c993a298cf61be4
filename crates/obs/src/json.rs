//! A minimal JSON value model, writer helpers and recursive-descent
//! parser.
//!
//! The workspace deliberately carries no serialization dependency
//! (README, "A note on dependencies"), so run reports are written by
//! hand; this module provides the escaping used by the writer and a
//! small strict parser so tests — and downstream tooling — can validate
//! that emitted reports are schema-conforming JSON without pulling in
//! serde.
//!
//! ```
//! use rsg_obs::json::Json;
//! let v = Json::parse(r#"{"spans": [{"path": "train", "total_s": 1.5}]}"#).unwrap();
//! let spans = v.get("spans").and_then(Json::as_array).unwrap();
//! assert_eq!(spans[0].get("path").and_then(Json::as_str), Some("train"));
//! assert_eq!(spans[0].get("total_s").and_then(Json::as_f64), Some(1.5));
//! ```

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's member list.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Parses a complete JSON document (trailing non-whitespace is an
    /// error). Nesting deeper than [`MAX_DEPTH`] is rejected: the
    /// parser is recursive-descent and also parses untrusted request
    /// bodies (rsg-serve), so depth must be bounded well below the
    /// thread stack.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub pos: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Escapes a string for embedding in JSON output (adds the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number (shortest round-trip form;
/// non-finite values degrade to `null`, which JSON cannot express).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Maximum container nesting depth [`Json::parse`] accepts. Each level
/// costs one `value()` stack frame, so 128 keeps even a small worker
/// stack comfortably clear of overflow while allowing any document the
/// workspace realistically produces.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            self.pos = run_end(self.bytes, start);
            // A run ends at an ASCII byte or the end of the input, so
            // both ends are char boundaries of `src`.
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
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
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("short \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are rejected rather than paired:
                            // the writer never emits them.
                            let c =
                                char::from_u32(cp).ok_or_else(|| self.err("unpaired surrogate"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// A number, by RFC 8259's grammar:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("bad number"));
                }
            }
            _ => self.digits()?,
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("bad number"));
        }
        Ok(())
    }
}

/// The offset of the first byte at or after `at` that ends an unescaped
/// run of a string: a `"`, a `\` or a control byte (below 0x20); the
/// length of `bytes` if none does.
///
/// Eight bytes are tested at a time with the zero-byte trick: in
/// `(x - 0x01..01) & !x & 0x80..80` the lowest set bit marks the first
/// zero byte of `x` exactly (a borrow only runs upwards from a true
/// zero, so any false mark sits above it). `x` is the word XORed with
/// `"` and with `\`, and `(w - 0x20..20) & !w` marks bytes below 0x20
/// the same way; bytes of 0x80 and above never match, so a multi-byte
/// character never ends a run.
fn run_end(bytes: &[u8], mut at: usize) -> usize {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    const HIGH: u64 = ONES * 0x80;
    const QUOTE: u64 = ONES * b'"' as u64;
    const BACKSLASH: u64 = ONES * b'\\' as u64;
    const SPACE: u64 = ONES * 0x20;
    while let Some(word) = bytes.get(at..).and_then(<[u8]>::first_chunk::<8>) {
        let w = u64::from_le_bytes(*word);
        let (q, b) = (w ^ QUOTE, w ^ BACKSLASH);
        let hit =
            (q.wrapping_sub(ONES) & !q | b.wrapping_sub(ONES) & !b | w.wrapping_sub(SPACE) & !w)
                & HIGH;
        if hit != 0 {
            return at + (hit.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    while matches!(bytes.get(at), Some(&c) if c != b'"' && c != b'\\' && c >= 0x20) {
        at += 1;
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".into())
        );
        let v = Json::parse(r#"{"a": [1, 2, {"b": false}], "c": ""}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Str(String::new())));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Json::Bool(false)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{} garbage",
            "[1,]",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn numbers_follow_rfc_8259() {
        for (ok, v) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.5e-3", -0.0005),
            ("1E+5", 1e5),
            ("2e0", 2.0),
        ] {
            assert_eq!(Json::parse(ok), Ok(Json::Num(v)), "{ok}");
        }
        for (bad, pos) in [
            ("01", 1),
            ("-01.50", 2),
            ("1.", 2),
            ("-.5", 1),
            ("1.e5", 2),
            ("-", 1),
            ("1e", 2),
            ("1e+", 3),
            ("[00]", 2),
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert_eq!((e.pos, e.msg.as_str()), (pos, "bad number"), "{bad}");
        }
    }

    #[test]
    fn control_byte_in_string_is_named() {
        let e = Json::parse("\"a\u{1}b\"").unwrap_err();
        assert_eq!((e.pos, e.msg.as_str()), (2, "control character in string"));
        let e = Json::parse("\"ab").unwrap_err();
        assert_eq!((e.pos, e.msg.as_str()), (3, "unterminated string"));
    }

    /// The string scanner as it was before [`run_end`]: byte by byte,
    /// with the simple escapes. Returns the string and the offset just
    /// past its closing quote.
    fn bytewise_string(src: &str) -> Result<(String, usize), JsonError> {
        let (b, mut pos) = (src.as_bytes(), 1);
        let err = |pos, msg: &str| JsonError {
            pos,
            msg: msg.to_string(),
        };
        let mut out = Vec::new();
        loop {
            match b.get(pos) {
                Some(b'"') => return Ok((String::from_utf8(out).unwrap(), pos + 1)),
                Some(b'\\') => {
                    let esc = b
                        .get(pos + 1)
                        .ok_or_else(|| err(pos + 1, "dangling escape"))?;
                    let c = match esc {
                        b'"' | b'\\' | b'/' => *esc,
                        b'n' => b'\n',
                        b'r' => b'\r',
                        b't' => b'\t',
                        b'b' => 8,
                        b'f' => 12,
                        _ => return Err(err(pos + 2, "unknown escape")),
                    };
                    out.push(c);
                    pos += 2;
                }
                Some(&c) if c < 0x20 => return Err(err(pos, "control character in string")),
                Some(&c) => {
                    out.push(c);
                    pos += 1;
                }
                None => return Err(err(pos, "unterminated string")),
            }
        }
    }

    #[test]
    fn string_runs_match_a_bytewise_scan() {
        // Every byte that ends a run, 0x7F (which does not) and
        // characters of 2, 3 and 4 bytes, each at every offset mod 8
        // from the start of a run: the first run of the string, and one
        // that starts after an escape. Each is followed by nothing (the
        // run reaches the end of the input), a closing quote, or a tail
        // long enough to take a whole word.
        let mut specials: Vec<String> = (0u8..0x20).map(|c| char::from(c).to_string()).collect();
        specials.extend(["\"", "\\", "\u{7f}", "é", "中", "😀"].map(String::from));
        let mut checked = 0;
        for special in &specials {
            for lead in ["", "\\n"] {
                for k in 0..17 {
                    for tail in ["", "\"", "b\"", "bcdefghijklmnopq\""] {
                        let doc = format!("\"{lead}{}{special}{tail}", "a".repeat(k));
                        let mut p = Parser {
                            src: &doc,
                            bytes: doc.as_bytes(),
                            pos: 0,
                            depth: 0,
                        };
                        let got = p.string().map(|s| (s, p.pos));
                        assert_eq!(got, bytewise_string(&doc), "{doc:?}");
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, specials.len() * 2 * 17 * 4);
        // Strings shorter than a word, and runs with no special byte
        // that end exactly at, before and after a word boundary.
        for n in 0..20 {
            let text = "x".repeat(n);
            assert_eq!(Json::parse(&escape(&text)), Ok(Json::Str(text.clone())));
            let open = format!("\"{text}");
            let e = Json::parse(&open).unwrap_err();
            assert_eq!((e.pos, e.msg.as_str()), (n + 1, "unterminated string"));
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // At the limit: fine.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        // One past the limit: a typed error.
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = Json::parse(&over).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        // Mixed containers count too, and a hostile half-megabyte of
        // open brackets must come back as an error, not an abort.
        assert!(Json::parse(&"[{\"k\":".repeat(MAX_DEPTH)).is_err());
        assert!(Json::parse(&"[".repeat(512 * 1024)).is_err());
        // Siblings do not accumulate depth.
        assert!(Json::parse(&format!("[{}1]", "[1],".repeat(200))).is_ok());
    }

    #[test]
    fn escape_round_trips() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\tnewline\n",
            "back\\slash",
            "\u{1}",
        ] {
            let doc = escape(s);
            assert_eq!(
                Json::parse(&doc).unwrap(),
                Json::Str(s.to_string()),
                "{doc}"
            );
        }
    }

    #[test]
    fn num_handles_non_finite() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        // Shortest round-trip form survives a parse bit-for-bit.
        let v = 0.1 + 0.2;
        assert_eq!(Json::parse(&num(v)).unwrap(), Json::Num(v));
    }
}
