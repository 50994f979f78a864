//! A minimal JSON reader for the persisted plan cache.
//!
//! The workspace vendors no serde; `bernoulli-obs` owns the writing
//! half ([`bernoulli_obs::json`]), and this module is its mirror: a
//! small recursive-descent parser for exactly the JSON subset the
//! writer emits (RFC 8259 values, `\uXXXX` escapes, no comments),
//! nested at most [`MAX_DEPTH`] deep. It reads any input to `Ok` or
//! `Err` — never a panic or an unbounded recursion — because a cache
//! file is whatever is on disk.
//! Internal to the crate — the public surface is
//! [`PlanCache::save`](crate::cache::PlanCache::save) /
//! [`load`](crate::cache::PlanCache::load).

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// plan-cache writer emits four levels (document, `ops`, entry,
/// schedule array) and the previous schema six, which must still parse
/// so a stale file is recognised by its tag and loads cold; anything
/// deeper is refused before its recursion can exhaust the stack.
pub const MAX_DEPTH: usize = 8;

/// Parse one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser { s: input, b: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at offset {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(
                                char::from_u32(code).ok_or("surrogate \\u escape unsupported")?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, decoding only it: every
                    // other step advances over ASCII or a whole escape,
                    // so `pos` lands on char boundaries.
                    let rest = self.s.get(self.pos..).ok_or("string split inside a character")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number '{text}' at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_writer_subset() {
        let src = r#"{"schema":"bernoulli.plancache/v1","n":3,"cost":2.5,"neg":-1e-3,"ok":true,"none":null,"arr":[1,2,3],"nested":{"s":"a\"b\\c\nd"}}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("bernoulli.plancache/v1"));
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("cost"), Some(&Value::Num(2.5)));
        assert_eq!(v.get("neg"), Some(&Value::Num(-0.001)));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("none"), Some(&Value::Null));
        let arr = v.get("arr").unwrap().as_arr().unwrap();
        assert_eq!(arr.iter().map(|x| x.as_u64().unwrap()).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(
            v.get("nested").unwrap().get("s").unwrap().as_str(),
            Some("a\"b\\c\nd")
        );
    }

    #[test]
    fn writer_output_parses() {
        use bernoulli_obs::json::{array, Obj};
        let doc = Obj::new()
            .str("schema", "bernoulli.plancache/v1")
            .raw(
                "entries",
                array((0..2).map(|i| Obj::new().usize("i", i).bool("even", i % 2 == 0).finish())),
            )
            .finish();
        let v = parse(&doc).unwrap();
        let entries = v.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].get("i").unwrap().as_usize(), Some(1));
        assert_eq!(entries[1].get("even").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn nesting_is_bounded_not_recursed_to_exhaustion() {
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&format!("{{\"a\":{}}}", nest(MAX_DEPTH - 1))).is_ok());
        for d in [MAX_DEPTH + 1, 200_000] {
            assert!(parse(&nest(d)).unwrap_err().starts_with("nesting deeper"), "depth {d}");
            assert!(parse(&"{\"a\":".repeat(d)).is_err(), "depth {d}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "1 2", "tru", "{\"a\":}", ""] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // \u escapes decode; unicode passes through raw.
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
        assert_eq!(parse("\"‖r‖₂\"").unwrap().as_str(), Some("‖r‖₂"));
    }
}
