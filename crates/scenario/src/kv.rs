//! The one `key = value` text format of scenario specs, run records and cache
//! records. Blank lines and `#` lines are skipped; every other line splits at its
//! first `=` into a trimmed key and value. A line without `=` is an error, and so
//! is a key given twice, except keys a reader is told may repeat (`flow`). `-`
//! stands for an absent optional value ([`OrDash`]).
//!
//! [`Reader`] borrows every key and value from the text, hands out values typed
//! through [`FromStr`], and can refuse the keys no caller asked for
//! ([`Reader::reject_unread`]). [`Writer`] renders lines under a `#` header.
//! Every problem is one [`Error`], naming the line and the key.

use std::cell::Cell;
use std::fmt::{self, Display, Write as _};
use std::str::FromStr;

/// A problem reading `key = value` text: which line, which key, and what.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Error {
    /// 1-based line number; 0 when no one line is at fault (a missing key).
    pub line: usize,
    /// The key concerned; empty for a line without `=`.
    pub key: String,
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: ", self.line)?;
        }
        if !self.key.is_empty() {
            write!(f, "{}: ", self.key)?;
        }
        f.write_str(&self.msg)
    }
}

/// One `key = value` line, trimmed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Field<'a> {
    pub line: usize,
    pub key: &'a str,
    pub value: &'a str,
}

impl<'a> Field<'a> {
    /// The value parsed as `T`.
    pub fn parse<T: FromStr<Err: Display>>(self) -> Result<T, Error> {
        self.parse_with(str::parse)
    }

    /// The value read by `read`, whose error is reported against this line and key.
    pub fn parse_with<T, E: Display>(
        self,
        read: impl FnOnce(&'a str) -> Result<T, E>,
    ) -> Result<T, Error> {
        read(self.value).map_err(|e| self.error(format!("bad value {:?}: {e}", self.value)))
    }

    /// An error about this line.
    pub fn error(self, msg: String) -> Error {
        let (line, key) = (self.line, self.key.to_string());
        Error { line, key, msg }
    }
}

/// A parsed document: its fields in line order, each marked once a caller reads it.
pub(crate) struct Reader<'a> {
    fields: Vec<(Field<'a>, Cell<bool>)>,
    /// Keys asked for but absent, in the first free slots: a reader is asked for
    /// a few optional keys left at their defaults, never this many.
    absent: [Cell<&'a str>; 16],
    /// One past the last field found: keys are mostly asked for in the order they
    /// were written, so the next search starts there.
    cursor: Cell<usize>,
}

impl<'a> Reader<'a> {
    /// Split `text` into fields. A key outside `repeatable` that appears twice is
    /// an error naming both lines.
    pub fn new(text: &'a str, repeatable: &[&str]) -> Result<Self, Error> {
        let mut fields: Vec<(Field<'a>, Cell<bool>)> = Vec::with_capacity(16);
        // A bit per (length, last byte) of the keys so far: a key can only repeat
        // an earlier one if its bit is set, so most keys skip the search.
        let mut seen = 0u64;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=').unwrap_or(("", line));
            let field = Field {
                line: i + 1,
                key: key.trim(),
                value: value.trim(),
            };
            if field.key.is_empty() {
                return Err(field.error(format!("expected key = value, got {line:?}")));
            }
            let k = field.key.as_bytes();
            let bit = 1u64 << ((k.len() + 7 * *k.last().unwrap_or(&0) as usize) % 64);
            if seen & bit != 0 && !repeatable.contains(&field.key) {
                if let Some((first, _)) = fields.iter().find(|(f, _)| f.key == field.key) {
                    let msg = format!("repeated key (first on line {})", first.line);
                    return Err(field.error(msg));
                }
            }
            seen |= bit;
            fields.push((field, Cell::new(false)));
        }
        Ok(Reader {
            fields,
            absent: Default::default(),
            cursor: Cell::new(0),
        })
    }

    /// The field for `key`, if present.
    pub fn get(&self, key: &'static str) -> Option<Field<'a>> {
        let (before, after) = self.fields.split_at(self.cursor.get());
        let Some(i) = after.iter().chain(before).position(|(f, _)| f.key == key) else {
            self.note_absent(key);
            return None;
        };
        let i = (before.len() + i) % self.fields.len();
        let (field, read) = &self.fields[i];
        read.set(true);
        self.cursor.set(i + 1);
        Some(*field)
    }

    fn note_absent(&self, key: &'static str) {
        if let Some(slot) = self.absent.iter().find(|slot| slot.get().is_empty()) {
            slot.set(key);
        }
    }

    /// The field for `key`; its absence is an error.
    pub fn field(&self, key: &'static str) -> Result<Field<'a>, Error> {
        let missing = Field {
            line: 0,
            key,
            value: "",
        };
        self.get(key)
            .ok_or_else(|| missing.error("missing key".into()))
    }

    /// The value of `key` parsed as `T`; its absence is an error.
    pub fn required<T: FromStr<Err: Display>>(&self, key: &'static str) -> Result<T, Error> {
        self.field(key)?.parse()
    }

    /// The value of `key` parsed as `T`, or `None` when the key is absent.
    pub fn optional<T: FromStr<Err: Display>>(
        &self,
        key: &'static str,
    ) -> Result<Option<T>, Error> {
        self.get(key).map(Field::parse).transpose()
    }

    /// Every field for `key`, in line order (more than one only for a repeatable
    /// key).
    pub fn all(&self, key: &'static str) -> impl Iterator<Item = Field<'a>> + '_ {
        if !self.fields.iter().any(|(f, _)| f.key == key) {
            self.note_absent(key);
        }
        self.fields
            .iter()
            .filter(move |(f, _)| f.key == key)
            .map(|(f, read)| {
                read.set(true);
                *f
            })
    }

    /// Refuse the first field whose key no caller asked for, listing the keys that
    /// were asked for. `hint` follows the key in the message.
    pub fn reject_unread(&self, hint: impl Display) -> Result<(), Error> {
        let Some((field, _)) = self.fields.iter().find(|(_, read)| !read.get()) else {
            return Ok(());
        };
        let read = self.fields.iter().filter(|(_, read)| read.get());
        let absent = self
            .absent
            .iter()
            .map(Cell::get)
            .take_while(|k| !k.is_empty());
        let mut valid: Vec<&str> = read.map(|(f, _)| f.key).chain(absent).collect();
        valid.sort_unstable();
        valid.dedup();
        Err(field.error(format!(
            "unknown key{hint}; valid keys: {}",
            valid.join(", ")
        )))
    }
}

/// Renders `key = value` lines under a `# header` line.
pub(crate) struct Writer(String);

impl Writer {
    /// A document that starts with the comment line `# header`.
    pub fn new(header: &str) -> Writer {
        let mut out = String::with_capacity(512);
        let _ = writeln!(out, "# {header}");
        Writer(out)
    }

    /// Append the line `key = value`.
    pub fn put(&mut self, key: &str, value: impl Display) {
        let _ = writeln!(self.0, "{key} = {value}");
    }

    /// The rendered text.
    pub fn finish(self) -> String {
        self.0
    }
}

/// An optional value, written and read as `-` when absent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct OrDash<T>(pub Option<T>);

impl<T: Display> Display for OrDash<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("-"),
        }
    }
}

impl<T: FromStr> FromStr for OrDash<T> {
    type Err = T::Err;

    fn from_str(s: &str) -> Result<Self, T::Err> {
        if s == "-" {
            Ok(OrDash(None))
        } else {
            s.parse().map(|v| OrDash(Some(v)))
        }
    }
}

/// Fold a multi-line document into one value (`\` → `\\`, newline → `\n`). The
/// map is one-to-one, so escaped texts compare as their originals do.
pub(crate) fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_split_at_the_first_equals_and_skip_comments() {
        let text = "# header\n\n  a = 1 \nb=x = y\n   # indented comment\nc =\n";
        let r = Reader::new(text, &[]).unwrap();
        assert_eq!(r.required::<u32>("a").unwrap(), 1);
        let b = r.field("b").unwrap();
        assert_eq!((b.line, b.key, b.value), (4, "b", "x = y"));
        assert_eq!(r.required::<String>("c").unwrap(), "");
        assert_eq!(r.optional::<u32>("d").unwrap(), None);
        assert!(r.reject_unread("").is_ok());
    }

    #[test]
    fn errors_name_the_line_and_the_key() {
        let err = Reader::new("a = 1\nnonsense\n", &[]).err().unwrap();
        assert_eq!(err.line, 2);
        assert_eq!(
            err.to_string(),
            "line 2: expected key = value, got \"nonsense\""
        );

        let err = Reader::new("a = 1\nb = 2\na = 3\n", &[]).err().unwrap();
        assert_eq!((err.line, err.key.as_str()), (3, "a"));
        assert_eq!(err.to_string(), "line 3: a: repeated key (first on line 1)");

        let r = Reader::new("a = x\n", &[]).unwrap();
        let err = r.required::<u32>("a").unwrap_err();
        assert_eq!((err.line, err.key.as_str()), (1, "a"));
        assert!(
            err.to_string().starts_with("line 1: a: bad value \"x\": "),
            "{err}"
        );
        let err = r.required::<u32>("b").unwrap_err();
        assert_eq!((err.line, err.to_string()), (0, "b: missing key".into()));
    }

    #[test]
    fn only_declared_keys_repeat_and_unread_keys_are_refused() {
        let r = Reader::new("flow = 1\nk = v\nflow = 2\nstray = 0\n", &["flow"]).unwrap();
        let flows: Vec<u32> = r.all("flow").map(|f| f.parse().unwrap()).collect();
        assert_eq!(flows, [1, 2]);
        assert_eq!(r.required::<String>("k").unwrap(), "v");
        assert_eq!(r.optional::<u32>("absent").unwrap(), None);
        let err = r.reject_unread(" (hint)").unwrap_err();
        assert_eq!(err.line, 4);
        assert_eq!(
            err.to_string(),
            "line 4: stray: unknown key (hint); valid keys: absent, flow, k"
        );
    }

    #[test]
    fn dashes_read_as_none_and_write_back() {
        let r = Reader::new("a = -\nb = 2.5\n", &[]).unwrap();
        assert_eq!(r.required::<OrDash<f64>>("a").unwrap(), OrDash(None));
        assert_eq!(r.required::<OrDash<f64>>("b").unwrap(), OrDash(Some(2.5)));
        let mut w = Writer::new("h");
        w.put("a", OrDash::<f64>(None));
        w.put("b", OrDash(Some(2.5)));
        assert_eq!(w.finish(), "# h\na = -\nb = 2.5\n");
    }

    #[test]
    fn escaping_is_one_to_one() {
        let texts = ["", "a\nb", "a\\nb", "a\\\nb", "\\", "\n", "trail\n"];
        assert_eq!(escape("a\nb\\"), "a\\nb\\\\");
        for a in texts {
            assert!(!escape(a).contains('\n'), "{a:?}");
            for b in texts {
                assert_eq!(escape(a) == escape(b), a == b, "{a:?} {b:?}");
            }
        }
    }
}
