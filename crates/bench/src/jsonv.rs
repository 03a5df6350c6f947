//! Minimal JSON parsing for schema validation.
//!
//! This build links no JSON crate: the bench harnesses emit their
//! `BENCH_*.json` documents with hand-rolled `format!` writers, and this
//! module is the other half of the round trip — a small recursive-descent
//! parser plus the field-checking helpers the `--check` paths share
//! (saturation and soak validate with the same machinery).

/// A minimal JSON value for schema checking.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse a complete document: rejects empty input and trailing garbage.
pub(crate) fn parse_document(text: &str) -> Result<Json, String> {
    if text.trim().is_empty() {
        return Err("file is empty".into());
    }
    let mut parser = Parser::new(text);
    let doc = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err("trailing garbage after the JSON document".into());
    }
    Ok(doc)
}

/// Look up `key` in `obj` and require a finite number.
pub(crate) fn require_num(obj: &Json, key: &str, context: &str) -> Result<f64, String> {
    let value = obj
        .get(key)
        .ok_or_else(|| format!("{context}: missing key '{key}'"))?;
    let x = value
        .as_num()
        .ok_or_else(|| format!("{context}: '{key}' is not a number (empty or NaN?)"))?;
    if !x.is_finite() {
        return Err(format!("{context}: '{key}' is not finite"));
    }
    Ok(x)
}

/// Look up `key` in `obj` and require a boolean.
pub(crate) fn require_bool(obj: &Json, key: &str, context: &str) -> Result<bool, String> {
    obj.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("{context}: '{key}' must be a boolean"))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("invalid JSON at byte {}: {what}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.fail("expected a value"),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.fail("bad literal")
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid JSON at byte {start}: bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return self.fail("expected string");
        }
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    // The emitters never escape anything beyond these.
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        _ => return self.fail("unsupported escape"),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
                None => return self.fail("unterminated string"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{');
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return self.fail("expected ':'");
            }
            fields.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            return self.fail("expected ',' or '}'");
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[');
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            return self.fail("expected ',' or ']'");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = parse_document(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x"}, "d": true, "e": null}"#)
            .unwrap();
        assert_eq!(
            require_num(&doc, "a", "t"),
            Err("t: 'a' is not a number (empty or NaN?)".into())
        );
        match doc.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].as_num(), Some(-300.0));
            }
            other => panic!("bad array: {other:?}"),
        }
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x")
        );
        assert_eq!(require_bool(&doc, "d", "t"), Ok(true));
        assert_eq!(doc.get("e"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_document("").is_err());
        assert!(parse_document("{\"a\": }").is_err());
        assert!(parse_document("{} trailing").is_err());
        assert!(parse_document("{\"a\": 1,}").is_err());
    }
}
