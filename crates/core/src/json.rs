//! The one serializer: every JSON and CSV document the workspace writes
//! goes through this module. Callers name keys and values; the writer
//! owns braces, brackets, commas, `null` for `None` and number
//! formatting, in one of the two layouts the pinned documents use.

use std::fmt::{Display, Write};

/// A layout: the separator between inline members, the one after a key,
/// and the spaces one nesting level indents.
#[derive(Clone, Copy)]
pub struct Layout(&'static str, &'static str, usize);

/// One member per line at the top level, one record per line in an array
/// of records, and records inline with `", "` and `": "`.
pub const DOCUMENT: Layout = Layout(", ", ": ", 2);
/// `","` and `":"`, unindented: a top-level object stays on one line.
pub const COMPACT: Layout = Layout(",", ":", 0);

/// Quote and escape a string: control characters, quotes and
/// backslashes; everything else passes through as UTF-8.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    s.write(&mut out, COMPACT);
    out
}

/// A value that can follow a key or sit in an inline array.
pub trait Value {
    fn write(&self, out: &mut String, layout: Layout);
}

/// The one escaper behind every JSON string the workspace writes.
impl Value for str {
    fn write(&self, out: &mut String, _: Layout) {
        out.push('"');
        for c in self.chars() {
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
}

impl<T: Value + ?Sized> Value for &T {
    fn write(&self, out: &mut String, layout: Layout) {
        (**self).write(out, layout);
    }
}

impl Value for String {
    fn write(&self, out: &mut String, layout: Layout) {
        self.as_str().write(out, layout);
    }
}

macro_rules! display_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write(&self, out: &mut String, _: Layout) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_value!(bool, i32, u32, u64, usize);

/// A float with a fixed count of decimals; `null` when not finite.
pub struct Fixed(pub f64, pub usize);

impl Value for Fixed {
    fn write(&self, out: &mut String, layout: Layout) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.*}", self.1, self.0);
        } else {
            None::<bool>.write(out, layout);
        }
    }
}

impl<T: Value> Value for Option<T> {
    fn write(&self, out: &mut String, layout: Layout) {
        match self {
            Some(v) => v.write(out, layout),
            None => out.push_str("null"),
        }
    }
}

/// An inline array.
impl<T: Value> Value for [T] {
    fn write(&self, out: &mut String, layout: Layout) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { layout.0 });
            v.write(out, layout);
        }
        out.push(']');
    }
}

/// Writes the members of an object, or the records of an array of
/// records.
pub struct Obj<'a> {
    out: &'a mut String,
    layout: Layout,
    /// Indent of the line the container opens on.
    indent: usize,
    /// One child per line rather than inline.
    lines: bool,
    first: bool,
}

/// Open a container, let `f` fill it, close it.
fn nest(out: &mut String, layout: Layout, lines: bool, brackets: &str, f: impl FnOnce(&mut Obj)) {
    // Every line the writer starts begins with its indent, so the open
    // line's leading spaces are the level a one-per-line container
    // closes at; its children go one level deeper.
    let line = &out[out.rfind('\n').map_or(0, |i| i + 1)..];
    let indent = line.len() - line.trim_start_matches(' ').len();
    out.push_str(&brackets[..1]);
    f(&mut Obj {
        out,
        layout,
        indent,
        lines,
        first: true,
    });
    if lines {
        newline(out, indent);
    }
    out.push_str(&brackets[1..]);
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    out.extend(std::iter::repeat(' ').take(indent));
}

impl Obj<'_> {
    /// Separate the next child from the one before.
    fn next(&mut self) {
        if !self.first {
            self.out
                .push_str(if self.lines { "," } else { self.layout.0 });
        }
        self.first = false;
        if self.lines {
            newline(self.out, self.indent + self.layout.2);
        }
    }

    fn key(&mut self, key: &str) {
        self.next();
        key.write(self.out, self.layout);
        self.out.push_str(self.layout.1);
    }

    pub fn field(&mut self, key: &str, value: impl Value) {
        self.key(key);
        value.write(self.out, self.layout);
    }

    /// A nested object, inline.
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut Obj)) {
        self.key(key);
        nest(self.out, self.layout, false, "{}", f);
    }

    /// A nested object for `Some`, `null` for `None`.
    pub fn opt_object<T>(&mut self, key: &str, value: Option<T>, f: impl FnOnce(&mut Obj, T)) {
        match value {
            Some(v) => self.object(key, |o| f(o, v)),
            None => self.field(key, None::<bool>),
        }
    }

    /// An array of records, one per line, each written by `record`.
    pub fn lines(&mut self, key: &str, f: impl FnOnce(&mut Obj)) {
        self.key(key);
        nest(self.out, self.layout, true, "[]", f);
    }

    /// One record of an array of records, inline.
    pub fn record(&mut self, f: impl FnOnce(&mut Obj)) {
        self.next();
        nest(self.out, self.layout, false, "{}", f);
    }

    /// An array with one record per item, one per line.
    pub fn records<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut f: impl FnMut(&mut Obj, T),
    ) {
        self.lines(key, |l| {
            items.into_iter().for_each(|it| l.record(|o| f(o, it)))
        });
    }

    /// Write this record's remaining members in the compact layout.
    pub fn compact(&mut self) {
        self.layout = COMPACT;
    }
}

/// Write `key: value` members into an [`Obj`], each as by
/// [`Obj::field`]: `json_fields!(o; nodes: n, alive: true)`.
#[macro_export]
macro_rules! json_fields {
    ($o:expr; $($key:ident: $value:expr),* $(,)?) => {
        {$($o.field(stringify!($key), &$value);)*}
    };
}

/// Append one top-level object and a newline: one member per line in
/// [`DOCUMENT`], one line in [`COMPACT`].
pub fn document(out: &mut String, layout: Layout, f: impl FnOnce(&mut Obj)) {
    nest(out, layout, layout.2 > 0, "{}", f);
    out.push('\n');
}

/// Writes the cells of one CSV row.
pub struct CsvRow<'a> {
    out: &'a mut String,
    first: bool,
}

impl CsvRow<'_> {
    /// One cell, quoted only when it holds a comma, quote or newline.
    pub fn cell(&mut self, v: impl Display) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        let start = self.out.len();
        let _ = write!(self.out, "{v}");
        if self.out[start..].contains([',', '"', '\n']) {
            let cell = self.out.split_off(start);
            let _ = write!(self.out, "\"{}\"", cell.replace('"', "\"\""));
        }
    }

    /// An empty cell for `None`.
    pub fn opt(&mut self, v: Option<impl Display>) {
        match v {
            Some(v) => self.cell(v),
            None => self.cell(""),
        }
    }

    pub fn cells<D: Display>(&mut self, vs: impl IntoIterator<Item = D>) {
        vs.into_iter().for_each(|v| self.cell(v));
    }
}

/// Append one CSV row and its newline.
pub fn csv_row(out: &mut String, f: impl FnOnce(&mut CsvRow)) {
    f(&mut CsvRow { out, first: true });
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    // The layouts are pinned byte for byte by the documents that use
    // them (the run, sweep and telemetry reports, the Perfetto export).

    #[test]
    fn fixed_floats_round_and_non_finite_is_null() {
        let mut out = String::new();
        document(&mut out, COMPACT, |o| {
            o.field("a", Fixed(1.005, 2));
            o.field("b", Fixed(2.5, 0));
            o.field("c", Fixed(f64::NAN, 1));
            o.field(
                "d",
                &[Some(Fixed(f64::INFINITY, 1)), Some(Fixed(0.1234, 3)), None][..],
            );
        });
        assert_eq!(
            out,
            "{\"a\":1.00,\"b\":2,\"c\":null,\"d\":[null,0.123,null]}\n"
        );
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        let mut out = String::new();
        csv_row(&mut out, |r| {
            r.cells(["plain", "a,b", "say \"hi\"", "two\nlines"]);
            r.opt(None::<u64>);
            r.opt(Some(7));
        });
        assert_eq!(out, "plain,\"a,b\",\"say \"\"hi\"\"\",\"two\nlines\",,7\n");
    }
}
