//! The one JSON writer behind every document the benchmark emits: the
//! result line, `out/results.json`, `out/layers.json` and the trace
//! files. Objects keep insertion order, so output is stable. A small
//! reader sits beside it.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn count(n: u64) -> Json {
        Json::Int(i64::try_from(n).expect("count fits i64"))
    }

    /// Renders on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with one element per line, two spaces per level.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            // Display prints the shortest digits that read back to the
            // same f64, never an exponent; JSON has no NaN or infinity.
            Json::Num(v) if v.is_finite() => write!(out, "{v}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `doc` to `path`, one element per line, creating the
/// directory first.
pub fn write_file(path: &std::path::Path, doc: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.render_pretty())
}

/// The matching reader: `--selfcheck` reads its child runs' result
/// lines and `out/results.json` with it, and the tests hold the
/// writer's output and `BENCHMARK.json` to it.
pub mod parse {
    use super::Json;

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, lit: &str) -> bool {
            let hit = self.s[self.i..].starts_with(lit.as_bytes());
            if hit {
                self.i += lit.len();
            }
            hit
        }

        fn expect(&mut self, lit: &str) -> Result<(), String> {
            self.ws();
            if self.eat(lit) {
                Ok(())
            } else {
                Err(format!("expected {lit:?} at {}", self.i))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.s.get(self.i) {
                Some(b'{') => {
                    self.i += 1;
                    let mut pairs = Vec::new();
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(pairs));
                    }
                    loop {
                        self.ws();
                        let key = self.string()?;
                        self.expect(":")?;
                        pairs.push((key, self.value()?));
                        self.ws();
                        if self.eat("}") {
                            return Ok(Json::Obj(pairs));
                        }
                        self.expect(",")?;
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.ws();
                        if self.eat("]") {
                            return Ok(Json::Arr(items));
                        }
                        self.expect(",")?;
                    }
                }
                Some(b'"') => self.string().map(Json::Str),
                Some(_) if self.eat("true") => Ok(Json::Bool(true)),
                Some(_) if self.eat("false") => Ok(Json::Bool(false)),
                Some(_) if self.eat("null") => Ok(Json::Null),
                Some(_) => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && matches!(
                            self.s[self.i],
                            b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                        )
                    {
                        self.i += 1;
                    }
                    let tok = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                    if let Ok(i) = tok.parse::<i64>() {
                        return Ok(Json::Int(i));
                    }
                    tok.parse::<f64>()
                        .map(Json::Num)
                        .map_err(|_| format!("bad number {tok:?} at {start}"))
                }
                None => Err("unexpected end".into()),
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if self.s.get(self.i) != Some(&b'"') {
                return Err(format!("expected string at {}", self.i));
            }
            self.i += 1;
            let mut out = Vec::new();
            loop {
                match self.s.get(self.i) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.i += 1;
                        return String::from_utf8(out).map_err(|e| e.to_string());
                    }
                    Some(b'\\') => {
                        let esc = *self.s.get(self.i + 1).ok_or("dangling escape")?;
                        self.i += 2;
                        match esc {
                            b'n' => out.push(b'\n'),
                            b'r' => out.push(b'\r'),
                            b't' => out.push(b'\t'),
                            b'u' => {
                                let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                self.i += 4;
                                let c = char::from_u32(code).ok_or("bad \\u code")?;
                                out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                            }
                            other => out.push(other),
                        }
                    }
                    Some(&b) => {
                        out.push(b);
                        self.i += 1;
                    }
                }
            }
        }
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(v) => Some(*v),
                Json::Int(i) => Some(*i as f64),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(items) => Some(items),
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse::parse;
    use super::*;

    #[test]
    fn writer_output_parses_back() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::count(1000)),
            ("nothing", Json::Null),
            (
                "name",
                Json::str("tab\there \"quoted\" back\\slash\nµs \u{1}"),
            ),
            (
                "metrics",
                Json::obj([(
                    "latency_ms",
                    Json::obj([("value", Json::Num(1.2034)), ("unit", Json::str("ms"))]),
                )]),
            ),
            (
                "list",
                Json::Arr(vec![Json::Num(0.1 + 0.2), Json::Int(-3), Json::Arr(vec![])]),
            ),
            ("empty", Json::obj::<String>([])),
        ]);
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        assert_eq!(parse(&doc.render_pretty()).unwrap(), doc);
        assert!(!doc.render().contains('\n'), "the result line is one line");
    }

    #[test]
    fn numbers_keep_all_their_digits_and_never_go_non_finite() {
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(1e-7).render(), "0.0000001");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }
}
