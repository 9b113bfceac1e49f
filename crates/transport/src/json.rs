//! A minimal JSON codec for the wire protocol.
//!
//! The build box is offline, so the transport carries its own codec
//! instead of serde: a recursive-descent parser with a **hard nesting
//! cap** (hostile `[[[[…]]]]` inputs fail cleanly instead of blowing
//! the stack) and a writer that reuses the artifact layer's escaping
//! discipline (every control character escaped, lossless round trip).
//!
//! Numbers are carried as `f64`. That is lossless for the payloads this
//! wire moves: an `f32` token or logit widened to `f64` is exact, its
//! shortest decimal rendering round-trips through `f64` back to the
//! identical `f32` — which is what lets the end-to-end tests demand
//! bit-identical logits through the socket.
//!
//! A number is read in one pass that checks its grammar and gathers up
//! to 19 digits, eight bytes at a time. A plain decimal (no exponent) of
//! at most 19 digits and 22 places is converted exactly on the spot: one
//! division, checked against the exact integer residual, gives the
//! correctly rounded `f64`. Anything else (exponents, longer mantissas,
//! exact ties) goes to `str::parse` on a slice of the input, which is
//! already a `&str`, so no number's bytes are UTF-8-checked twice. The
//! test module keeps the previous lexer as the oracle both paths are
//! held to, bit for bit and error for error.
//!
//! Allocation is bounded by the input: containers grow element by
//! element (no attacker-declared capacity is ever pre-allocated), and
//! the HTTP layer caps the body size before a byte reaches the parser.

use std::cmp::Ordering;
use std::fmt::{self, Write as _};

/// Deepest container nesting the parser accepts.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key order is preserved, duplicate keys are kept
    /// (lookups return the first).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// First value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => write_number(*n, out),
            Json::String(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact serialization (`value.to_string()` is the wire encoding).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// JSON has no NaN/Infinity; a non-finite number (which the serving
/// layer never produces) degrades to `null` rather than emitting an
/// unparseable token.
fn write_number(n: f64, out: &mut String) {
    if n.is_finite() {
        // Rust's shortest round-trip rendering: parses back to the
        // identical f64 (and, for values that came from an f32, back to
        // the identical f32). Writing into a `String` cannot fail.
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
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
}

/// Why parsing failed, with the byte offset it failed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`JsonError`] on malformed input or nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
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
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The run ends at an ASCII byte or the end of input, so it
            // is whole characters of the already-checked `&str`.
            let run = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(run);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        Ok(match c {
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
                if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        if self.peek() == Some(b'u') {
                            self.pos += 1;
                            let lo = self.hex4()?;
                            if (0xDC00..0xE000).contains(&lo) {
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                return char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"));
                            }
                        }
                    }
                    return Err(self.err("unpaired surrogate escape"));
                }
                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
            }
            _ => return Err(self.err(format!("unknown escape '\\{}'", c as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("non-ascii \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        let mut digits = Digits::default();
        let int_start = self.pos;
        self.digits(&mut digits);
        if self.pos == int_start {
            return Err(self.err("number without digits"));
        }
        let mut scale = 0;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            self.digits(&mut digits);
            scale = self.pos - frac_start;
            if scale == 0 {
                return Err(self.err("decimal point without digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("exponent without digits"));
            }
        } else if let Some(v) = digits.exact(scale) {
            return Ok(Json::Number(if negative { -v } else { v }));
        }
        // Number bytes are ASCII, so the slice is on char boundaries; an
        // empty str would just route into the error below.
        let text = self.text.get(start..self.pos).unwrap_or("");
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(format!("unparseable number '{text}'")))?;
        Ok(Json::Number(n))
    }

    /// Consumes a run of digits into `acc`, eight bytes at a time: each
    /// step takes the word's leading digits, and a word that is not all
    /// digits ends the run. A whole word advances by the constant 8, so
    /// the next load's address does not wait on this word's digit count.
    fn digits(&mut self, acc: &mut Digits) {
        loop {
            let (n, value) = leading_digits(self.word());
            if n < 8 {
                acc.push(n, value);
                self.pos += n;
                return;
            }
            acc.push(8, value);
            self.pos += 8;
        }
    }

    /// The next eight bytes as a little-endian word, zero-padded past
    /// the end of input.
    fn word(&self) -> u64 {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        let mut word = [0u8; 8];
        match rest.get(..8) {
            Some(eight) => word.copy_from_slice(eight),
            None => word.iter_mut().zip(rest).for_each(|(w, b)| *w = *b),
        }
        u64::from_le_bytes(word)
    }
}

/// The digits of a number as they are read, leading zeros included: how
/// many there are, and their value while there are at most 19.
#[derive(Default)]
struct Digits {
    mantissa: u64,
    count: usize,
}

/// `10^k` for the scales the one-division paths take.
const POW10: [u128; 23] = {
    let mut table = [1u128; 23];
    let mut rest: &mut [u128] = &mut table;
    let mut p = 1;
    while let [slot, tail @ ..] = rest {
        *slot = p;
        p *= 10;
        rest = tail;
    }
    table
};

/// [`POW10`] as doubles: every one is exact (10^22 = 2^22 · 5^22 and
/// 5^22 < 2^53).
const POW10_F64: [f64; 23] = {
    let mut table = [1.0; 23];
    let mut rest: &mut [f64] = &mut table;
    let mut p = 1u128;
    while let [slot, tail @ ..] = rest {
        *slot = p as f64;
        p *= 10;
        rest = tail;
    }
    table
};

impl Digits {
    /// Appends `n` digits worth `value`. Past 19 digits the mantissa is
    /// garbage and [`Digits::exact`] declines.
    fn push(&mut self, n: usize, value: u64) {
        let radix = POW10.get(n).map_or(0, |&p| p as u64);
        self.mantissa = self.mantissa.wrapping_mul(radix).wrapping_add(value);
        self.count += n;
    }

    /// `mantissa · 10^-scale` correctly rounded, or `None` when one
    /// division and at most one step cannot be shown to give it (the
    /// caller then falls back to `str::parse`).
    ///
    /// Below 2^53 the mantissa and `10^scale` are exact doubles, so the
    /// division rounds once and is already the answer (Clinger's fast
    /// path). From 2^53 on, `w as f64` has rounded too, and the quotient
    /// may be a step off. Every quotient goes through [`nearest_side`]
    /// all the same: a branch on the mantissa's size would be a coin
    /// toss on the wire's 16- and 17-digit numbers, and a mispredicted
    /// branch costs more than the check.
    fn exact(&self, scale: usize) -> Option<f64> {
        let w = self.mantissa;
        if self.count > 19 {
            return None;
        }
        let p10 = *POW10.get(scale)?;
        let mut c = w as f64 / *POW10_F64.get(scale)?;
        if w == 0 {
            return Some(c);
        }
        // Rounding `w` moves the quotient by less than a step and the
        // division by at most half of one, so the answer is `c` or the
        // neighbour on the residual's side (where a power of two halves
        // the step, anything further falls back).
        for _ in 0..2 {
            match nearest_side(w, p10, c)? {
                Ordering::Equal => return Some(c),
                Ordering::Less => c = c.next_down(),
                Ordering::Greater => c = c.next_up(),
            }
        }
        None
    }
}

/// Where `w / p10` lies against the positive normal double `c`:
/// `Equal` when strictly inside half the gap to `c`'s neighbour on its
/// side, `Less` or `Greater` when beyond it below or above, `None` on
/// an exact tie (left to `str::parse`, which rounds it to even). Below
/// a power of two the gap is half the one above.
///
/// With `c = m · 2^e`, the residual `w − c · p10` is scaled by `2^-e`
/// when `e < 0`, so it and the gap above `c` are integers. Both sides
/// of the subtraction stay below 2^127: they are within a few steps of
/// each other, and `m · p10 < 2^53 · 10^22 < 2^127`.
fn nearest_side(w: u64, p10: u128, c: f64) -> Option<Ordering> {
    let bits = c.to_bits();
    let m = u128::from(bits & ((1 << 52) - 1) | 1 << 52);
    let e = (bits >> 52) as i32 - 1075;
    let (lhs, rhs, gap) = if e < 0 {
        (u128::from(w) << -e, m * p10, p10)
    } else {
        (u128::from(w), (m * p10) << e, p10 << e)
    };
    // Twice the residual, against the gap above and, scaled up where it
    // is half as wide, the gap below. The two compares are combined with
    // `&`, not `&&`: the residual's sign is a coin toss, and a branch on
    // it would be mispredicted half the time.
    let twice = 2 * (lhs as i128 - rhs as i128);
    let twice_below = twice << u32::from(m == 1 << 52);
    let gap = gap as i128;
    if (twice < gap) & (twice_below > -gap) {
        Some(Ordering::Equal)
    } else if twice > gap {
        Some(Ordering::Greater)
    } else if twice_below < -gap {
        Some(Ordering::Less)
    } else {
        None
    }
}

/// How many of `word`'s bytes, first byte first, are ASCII digits before
/// one that is not, and the value of those digits: SWAR steps on one
/// `u64`, with no branch on the bytes.
fn leading_digits(word: u64) -> (usize, u64) {
    // A digit byte becomes its value 0..=9. Any other byte gets its high
    // bit flagged: it is 10 or more (adding 0x76 reaches 0x80) or has the
    // bit already. A carry out of a byte can only flag later bytes, and
    // only the first flag counts.
    let values = word ^ 0x3030_3030_3030_3030;
    let flagged = (values.wrapping_add(0x7676_7676_7676_7676) | values) & 0x8080_8080_8080_8080;
    let n = flagged.trailing_zeros() / 8;
    // Shift the n digits to the top, so the bytes below read as leading
    // zeros; then fold pairs, quads and halves (the first byte is the
    // most significant digit).
    let v = values.checked_shl(64 - 8 * n).unwrap_or(0);
    let v = v.wrapping_mul(10).wrapping_add(v >> 8) & 0x00FF_00FF_00FF_00FF;
    let v = v.wrapping_mul(100).wrapping_add(v >> 16) & 0x0000_FFFF_0000_FFFF;
    let v = v.wrapping_mul(10_000).wrapping_add(v >> 32) & 0xFFFF_FFFF;
    (n as usize, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_containers_strings_and_numbers() {
        let doc = r#"{"a": [1, -2.5, 1e3], "s": "q\"\\\n\u0041\u00e9", "b": true, "n": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(1e3)
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("q\"\\\nAé"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("n"), Some(&Json::Null));
        // Serialize → reparse is identity.
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn f32_values_round_trip_bit_exactly() {
        for bits in [
            0x3f80_0001u32,
            0xbf7f_ffff,
            0x0000_0001,
            0x7f7f_ffff,
            0x3333_3333,
        ] {
            let x = f32::from_bits(bits);
            let text = Json::Number(x as f64).to_string();
            let back = parse(&text).unwrap().as_f64().unwrap() as f32;
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn hostile_nesting_is_rejected_cleanly() {
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // At the cap is still fine.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn malformed_documents_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\":}",
            "01x",
            "-",
            "1.",
            "1e",
            "nul",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "[1] trailing",
            "NaN",
            "Infinity",
            "{\"a\" 1}",
            "\u{7}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn documents_cut_off_at_a_token_boundary() {
        // Ok(value), or Err((offset, message)).
        type Want = Result<Json, (usize, &'static str)>;
        let cases: [(&str, Want); 4] = [
            ("\"\\u0041\"", Ok(Json::String("A".into()))),
            ("\"\\u0041", Err((7, "unterminated string"))),
            ("true", Ok(Json::Bool(true))),
            ("tru", Err((0, "expected 'true'"))),
        ];
        for (input, want) in cases {
            let got = parse(input).map_err(|e| (e.offset, e.message));
            let want = want.map_err(|(offset, message)| (offset, message.to_string()));
            assert_eq!(got, want, "{input:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn control_characters_escape_losslessly() {
        let s = Json::String("a\u{1}b\u{1f}\"\\\n".into());
        assert_eq!(parse(&s.to_string()).unwrap(), s);
    }

    /// The lexer the one-pass reader replaced, kept as its oracle: scan
    /// the grammar, then `from_utf8` and `str::parse::<f64>` on the token.
    fn number_reference(p: &mut Parser<'_>) -> Result<Json, JsonError> {
        let start = p.pos;
        if p.peek() == Some(b'-') {
            p.pos += 1;
        }
        let digits_start = p.pos;
        while matches!(p.peek(), Some(b'0'..=b'9')) {
            p.pos += 1;
        }
        if p.pos == digits_start {
            return Err(p.err("number without digits"));
        }
        if p.peek() == Some(b'.') {
            p.pos += 1;
            let frac_start = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            if p.pos == frac_start {
                return Err(p.err("decimal point without digits"));
            }
        }
        if matches!(p.peek(), Some(b'e' | b'E')) {
            p.pos += 1;
            if matches!(p.peek(), Some(b'+' | b'-')) {
                p.pos += 1;
            }
            let exp_start = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            if p.pos == exp_start {
                return Err(p.err("exponent without digits"));
            }
        }
        let text = p
            .bytes
            .get(start..p.pos)
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .unwrap_or("");
        let n: f64 = text
            .parse()
            .map_err(|_| p.err(format!("unparseable number '{text}'")))?;
        Ok(Json::Number(n))
    }

    /// One number token at the start of `input`: the value's bits and
    /// the bytes consumed, or the error's offset and text.
    fn lex(input: &str, reference: bool) -> Result<(u64, usize), (usize, String)> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        let got = if reference {
            number_reference(&mut p)
        } else {
            p.number()
        };
        match got {
            Ok(Json::Number(n)) => Ok((n.to_bits(), p.pos)),
            Ok(other) => panic!("a number token lexed as {other:?}"),
            Err(e) => Err((e.offset, e.message)),
        }
    }

    fn assert_matches_reference(token: &str) {
        assert_eq!(lex(token, false), lex(token, true), "{token:?}");
    }

    /// `digits` with a decimal point `scale` places from the right
    /// (zero-padded as needed), and its negation.
    fn with_point(digits: u128, scale: usize) -> [String; 2] {
        let s = format!("{digits:0>width$}", width = scale + 1);
        let (int, frac) = s.split_at(s.len() - scale);
        let text = if scale == 0 {
            int.to_string()
        } else {
            format!("{int}.{frac}")
        };
        [format!("-{text}"), text]
    }

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand::SeedableRng::seed_from_u64(seed)
    }

    #[test]
    fn shortest_and_fixed_renderings_match_the_reference() {
        use rand::{Rng, RngCore};
        let mut rng = rng(0x5eed_0001);
        for _ in 0..20_000 {
            // Any finite f32 and f64 bit pattern, and f32s of the wire's
            // magnitudes: rendered as f32, and widened to f64 as the
            // transport writes them.
            let x32 = f32::from_bits(rng.next_u32());
            let typical = rng.gen_range(-4.0f32..4.0) * 10f32.powi(rng.gen_range(-9..9));
            for x in [x32, typical] {
                if x.is_finite() {
                    assert_matches_reference(&format!("{x}"));
                    assert_matches_reference(&format!("{}", f64::from(x)));
                }
            }
            let x64 = f64::from_bits(rng.next_u64());
            if x64.is_finite() {
                assert_matches_reference(&format!("{x64}"));
            }
            let scaled = rng.gen_range(-1.0f64..1.0) * 10f64.powi(rng.gen_range(-8..20));
            assert_matches_reference(&format!("{scaled}"));
            for precision in 15..=22 {
                assert_matches_reference(&format!("{scaled:.precision$}"));
            }
        }
    }

    #[test]
    fn long_mantissas_and_scales_match_the_reference() {
        use rand::Rng;
        let mut rng = rng(0x5eed_0002);
        for _ in 0..20_000 {
            // 19- and 20-digit mantissas at every scale up to 23, so both
            // sides of the 19-digit and 22-place limits are covered.
            let nineteen = u128::from(rng.gen_range(10u64.pow(18)..10u64.pow(19)));
            let twenty = nineteen * 10 + u128::from(rng.gen_range(0..10u8));
            let short = u128::from(rng.gen_range(1..1u64 << 53));
            for digits in [nineteen, twenty, short] {
                for scale in [0, 1, 5, 17, 19, 21, 22, 23] {
                    for token in with_point(digits, scale) {
                        assert_matches_reference(&token);
                    }
                }
            }
        }
        for token in [
            "9999999999999999999",
            "18446744073709551615",
            "18446744073709551616",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "0.1234567890123456789012",
            "0.12345678901234567890123",
            "1.0000000000000000000000",
            "123456789012345678.9",
        ] {
            assert_matches_reference(token);
        }
    }

    #[test]
    fn zeros_exponents_and_malformed_tokens_match_the_reference() {
        use rand::Rng;
        for token in [
            "0",
            "-0",
            "0.0",
            "-0.0",
            "00",
            "-00",
            "000123",
            "-000.000100",
            "0.000",
            "0.0000000000000000000000000001",
            "00000000000000000000000000001.5",
            "1e400",
            "-1e400",
            "1e-400",
            "2e-324",
            "1.7976931348623157e308",
            "1.7976931348623159e308",
            "1E5",
            "1e+5",
            "1e-5",
            "1.5e-3",
            "-0e0",
            "1e0000000000000000000000000009",
            "123e-2",
            "-",
            "--1",
            "-a",
            "1.",
            "1.e5",
            "1e",
            "1e+",
            "1e-",
            "1.5e",
            "1.5E+",
            ".5",
            "-.5",
            "0x10",
            "1.2.3",
            "12,",
            "3]",
            "4}",
            "5 ",
            "6\n",
            "1.5e3,",
            "-7.25]",
        ] {
            assert_matches_reference(token);
        }
        let mut rng = rng(0x5eed_0003);
        for _ in 0..5_000 {
            let x = rng.gen_range(-1.0f64..1.0) * 10f64.powi(rng.gen_range(-320..310));
            assert_matches_reference(&format!("{x:e}"));
            assert_matches_reference(&format!("{x:E}"));
        }
    }

    #[test]
    fn midpoints_between_adjacent_doubles_match_the_reference() {
        use rand::Rng;
        let mut rng = rng(0x5eed_0004);
        for _ in 0..2_000 {
            // a = m · 2^e and its successor have the midpoint
            // (2m + 1) · 2^(e - 1), written here exactly in decimal, and
            // one unit of the last digit to either side.
            let odd = 2 * u128::from(rng.gen_range(1u64 << 52..1u64 << 53)) + 1;
            for e in -30i32..=74 {
                let (digits, scale) = if e >= 1 {
                    (odd << (e - 1), 0)
                } else {
                    let places = (1 - e) as u32;
                    (odd * 5u128.pow(places), places as usize)
                };
                for d in [digits - 1, digits, digits + 1] {
                    for token in with_point(d, scale) {
                        assert_matches_reference(&token);
                    }
                }
            }
        }
    }

    #[test]
    fn values_beside_powers_of_two_match_the_reference() {
        // Decimals of 16-19 digits around 2^j, and around the midpoints
        // to its neighbours: 2^j (1 - 2^-54) below, where the gap is
        // half the one above, and 2^j (1 + 2^-53) above.
        for j in -20i32..=63 {
            for (num, den_log2) in [(1u128, 0), ((1 << 54) - 1, 54), ((1 << 53) + 1, 53)] {
                for scale in 0..=22usize {
                    let scaled = num * 10u128.pow(scale as u32);
                    let shift = j - den_log2;
                    let digits = if shift >= 0 {
                        match scaled.checked_shl(shift as u32) {
                            Some(d) if d >> shift == scaled => d,
                            _ => continue,
                        }
                    } else {
                        scaled >> -shift
                    };
                    if !(10u128.pow(15)..10u128.pow(19)).contains(&digits) {
                        continue;
                    }
                    for d in digits - 3..=digits + 3 {
                        for token in with_point(d, scale) {
                            assert_matches_reference(&token);
                        }
                    }
                }
            }
            let p = 2f64.powi(j);
            for x in [p.next_down(), p, p.next_up()] {
                assert_matches_reference(&format!("{x}"));
                assert_matches_reference(&format!("{x:.17}"));
            }
        }
    }

    #[test]
    fn documents_of_numbers_decode_like_str_parse() {
        use rand::Rng;
        let mut rng = rng(0x5eed_0005);
        let values: Vec<f64> = (0..2_000)
            .map(|_| f64::from(rng.gen_range(-4.0f32..4.0)))
            .collect();
        let doc = Json::Array(values.iter().map(|&v| Json::Number(v)).collect()).to_string();
        let parsed = parse(&doc).unwrap();
        let got = parsed.as_array().unwrap();
        assert_eq!(got.len(), values.len());
        for (g, v) in got.iter().zip(&values) {
            assert_eq!(g.as_f64().map(f64::to_bits), Some(v.to_bits()));
        }
    }

    #[test]
    fn numbers_render_like_display_and_non_finite_as_null() {
        use rand::RngCore;
        let mut rng = rng(0x5eed_0006);
        for _ in 0..20_000 {
            let x = f64::from_bits(rng.next_u64());
            let want = if x.is_finite() {
                format!("{x}")
            } else {
                "null".to_string()
            };
            assert_eq!(Json::Number(x).to_string(), want);
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0] {
            let want = if x.is_finite() {
                format!("{x}")
            } else {
                "null".into()
            };
            assert_eq!(Json::Number(x).to_string(), want);
        }
    }
}
