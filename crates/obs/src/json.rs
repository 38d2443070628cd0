//! The workspace's JSON writer: the profile ([`crate::render_json`]) and
//! the `si-serve` reports and wire lines are all written through
//! [`Object`], field by field in insertion order with `", "` between
//! fields and `": "` after keys, and every string through
//! [`json_string`].

use std::fmt::Write as _;

/// `s` as a JSON string literal: quoted, with quotes, backslashes,
/// newlines (`\n`) and the other control characters (`\u00XX`) escaped.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
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

/// A value [`Object`] can write.
pub trait ToJson {
    /// Appends the JSON text of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! integer_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
integer_to_json!(usize, u64, u128, i64);

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push_str(&json_string(self));
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// An array, `[a, b]`.
impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

/// Milliseconds, written with three decimals.
#[derive(Clone, Copy, Debug)]
pub struct Millis(pub f64);

impl ToJson for Millis {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{:.3}", self.0);
    }
}

/// Already-rendered JSON, written verbatim (the profile object).
#[derive(Clone, Copy, Debug)]
pub struct Raw<'a>(pub &'a str);

impl ToJson for Raw<'_> {
    fn write_json(&self, out: &mut String) {
        out.push_str(self.0);
    }
}

/// One JSON object, written field by field in insertion order.
#[derive(Clone, Debug)]
pub struct Object {
    out: String,
}

impl Default for Object {
    fn default() -> Self {
        Object::new()
    }
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object {
            out: String::from("{"),
        }
    }

    /// Appends `"key": value`.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Self {
        if self.out.len() > 1 {
            self.out.push_str(", ");
        }
        self.out.push_str(&json_string(key));
        self.out.push_str(": ");
        value.write_json(&mut self.out);
        self
    }

    /// Appends `"key": value` when `value` is `Some`.
    pub fn field_opt(self, key: &str, value: Option<impl ToJson>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// The finished object text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

impl ToJson for Object {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.out);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_writes_fields_in_order() {
        let inner = Object::new().field("reason", "cap-exceeded");
        let line = Object::new()
            .field("ok", false)
            .field("n", 3usize)
            .field("none", None::<u64>)
            .field("names", vec!["a", "b\"c"])
            .field("empty", Vec::<u64>::new())
            .field("ms", Millis(1.5))
            .field("inner", inner)
            .field("raw", Raw("{\"x\": 1}"))
            .finish();
        assert_eq!(
            line,
            r#"{"ok": false, "n": 3, "none": null, "names": ["a", "b\"c"], "empty": [], "ms": 1.500, "inner": {"reason": "cap-exceeded"}, "raw": {"x": 1}}"#
        );
    }
}
