//! A tiny output-only JSON writer (the service never parses JSON — request
//! bodies are the `.dag` text format, responses are built here).
//!
//! ```
//! use l15_serve::json::Obj;
//! let mut o = Obj::new();
//! o.num("nodes", 4.0);
//! o.str("status", "ok");
//! assert_eq!(o.finish(), "{\"nodes\":4,\"status\":\"ok\"}");
//! ```

use std::fmt::Write as _;

/// Escapes `s` as a JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    let body = l15_trace::json::escape(s);
    let mut out = String::with_capacity(body.len() + 2);
    out.push('"');
    out.push_str(&body);
    out.push('"');
    out
}

/// Formats a number the way the rest of the repo prints floats: shortest
/// round-trip form (integers print without a decimal point). Non-finite
/// values become `null` (JSON has no NaN/Infinity).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// An object under construction.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Obj { buf: String::from("{") }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push_str(&string(k));
        self.buf.push(':');
    }

    /// Adds a numeric field.
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&number(v));
        self
    }

    /// Adds an integer field (exact, no float round-trip).
    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(&string(v));
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-rendered JSON (an object or
    /// array built separately).
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Finishes the object.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Renders `items` as a JSON array, each element written by `item`.
fn array<T>(items: impl IntoIterator<Item = T>, mut item: impl FnMut(&mut String, T)) -> String {
    let mut out = String::from("[");
    for (i, v) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(&mut out, v);
    }
    out.push(']');
    out
}

/// Renders a `u64` slice as a JSON array.
pub fn int_array(values: impl IntoIterator<Item = u64>) -> String {
    array(values, |out, v| {
        let _ = write!(out, "{v}");
    })
}

/// Renders an `f64` slice as a JSON array.
pub fn num_array(values: impl IntoIterator<Item = f64>) -> String {
    array(values, |out, v| out.push_str(&number(v)))
}

/// Renders `items` as a JSON array of objects, each filled by `fill`.
pub fn obj_array<T>(
    items: impl IntoIterator<Item = T>,
    mut fill: impl FnMut(&mut Obj, T),
) -> String {
    array(items, |out, v| {
        let mut o = Obj::new();
        fill(&mut o, v);
        out.push_str(&o.finish());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials_and_controls() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("héllo"), "\"héllo\"");
    }

    #[test]
    fn numbers_round_trip_and_nan_is_null() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(4.0), "4");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn objects_and_arrays_compose() {
        let mut inner = Obj::new();
        inner.int("a", 1);
        let mut o = Obj::new();
        o.raw("inner", &inner.finish());
        o.raw("xs", &int_array([1, 2, 3]));
        o.raw("ys", &num_array([0.5, 2.0]));
        o.bool("ok", true);
        assert_eq!(o.finish(), "{\"inner\":{\"a\":1},\"xs\":[1,2,3],\"ys\":[0.5,2],\"ok\":true}");
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(Obj::new().finish(), "{}");
        assert_eq!(int_array([]), "[]");
        assert_eq!(obj_array([(); 0], |_, ()| ()), "[]");
    }

    #[test]
    fn arrays_of_objects() {
        let zs = obj_array([1, 2], |o, v| _ = o.int("v", v).bool("odd", v % 2 == 1));
        assert_eq!(zs, "[{\"v\":1,\"odd\":true},{\"v\":2,\"odd\":false}]");
    }
}
