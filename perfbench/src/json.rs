//! A minimal JSON object writer (the benchmark has no serde).

use std::fmt::Write as _;

/// A JSON string literal for `s`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `v`: every digit of the shortest round-trip form;
/// non-finite values (never produced by a correct run) become 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// An object under construction, keys in insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Add `key` with an already-encoded JSON value.
    pub fn raw(&mut self, key: &str, value: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&quote(key));
        self.body.push(':');
        self.body.push_str(value);
    }

    /// Add a string.
    pub fn str(&mut self, key: &str, v: &str) {
        self.raw(key, &quote(v));
    }

    /// Add a float.
    pub fn num(&mut self, key: &str, v: f64) {
        self.raw(key, &number(v));
    }

    /// Add an integer.
    pub fn uint(&mut self, key: &str, v: u64) {
        self.raw(key, &v.to_string());
    }

    /// Add an array of floats.
    pub fn nums(&mut self, key: &str, v: &[f64]) {
        let items: Vec<String> = v.iter().map(|&x| number(x)).collect();
        self.raw(key, &format!("[{}]", items.join(",")));
    }

    /// The encoded object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_orders() {
        let mut o = Obj::new();
        o.str("a\"b", "x\ny");
        o.num("n", 1.25);
        o.uint("u", 7);
        o.nums("v", &[0.5, f64::NAN]);
        assert_eq!(o.finish(), r#"{"a\"b":"x\ny","n":1.25,"u":7,"v":[0.5,0]}"#);
    }
}
