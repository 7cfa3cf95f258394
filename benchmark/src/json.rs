//! A small JSON reader, the counterpart of the writer in `dwr_obs::Json`.
//!
//! The workspace vendors no serialization framework; `--compare` has to
//! read back the result files this benchmark wrote, and the harness
//! tests read `BENCHMARK.json`.

use dwr_obs::Json;

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

/// Member `key` of an object.
pub fn get<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A number member.
pub fn get_num(value: &Json, key: &str) -> Option<f64> {
    match get(value, key) {
        Some(Json::Num(x)) => Some(*x),
        _ => None,
    }
}

/// A string member.
pub fn get_str<'a>(value: &'a Json, key: &str) -> Option<&'a str> {
    match get(value, key) {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.error("expected ':'"));
            }
            pairs.push((key, self.value()?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Json::Obj(pairs));
            }
            if !self.eat(",") {
                return Err(self.error("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.error("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = *self.bytes.get(self.pos).ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.error("bad escape")),
                    });
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_writer() {
        let doc = Json::obj([
            ("name", Json::str("cold \"scan\"\n")),
            ("value", Json::Num(1.25e-3)),
            ("count", Json::Num(15000.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Arr(vec![Json::Num(-1.0), Json::Arr(vec![]), Json::Obj(vec![])])),
        ]);
        assert_eq!(parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn accessors_and_whitespace() {
        let v = parse(" { \"a\" : { \"b\" : 2.5 , \"s\" : \"x\\u0041\" } } ").unwrap();
        let a = get(&v, "a").unwrap();
        assert_eq!(get_num(a, "b"), Some(2.5));
        assert_eq!(get_str(a, "s"), Some("xA"));
        assert_eq!(get_num(a, "missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\" 1}", "\"open", "1 2", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
