//! Versioned, dependency-free wire form for span trees.
//!
//! A worker daemon serializes its completed subjob tree with
//! [`SpanTree::to_wire`] and ships it inside the HTTP response; the
//! coordinator parses it back with [`SpanTree::from_wire`] and grafts it
//! under the dispatch span. The format is line-oriented text so it can
//! ride after a point line in a response body and survive `lines()`
//! based parsers that only read their own section:
//!
//! ```text
//! ermes-trace/1 <span count>
//! <id> <parent> <thread> <start_ns> <end_ns> <name> [<key>=<value>]...
//! ```
//!
//! Spans are listed in preorder (root first). Tokens are separated by
//! single spaces; `\`, space, newline, tab, and `=` inside a token are
//! escaped (`\\`, `\s`, `\n`, `\t`, `\e`), which keeps both the token
//! split and the `key=value` split unambiguous for arbitrary attribute
//! values. The version in the header is a major version: a parser
//! rejects anything it does not speak rather than guessing.
//!
//! [`SpanRecord`] keeps names and attribute keys as `&'static str` so
//! the recording hot path never allocates; deserialized trees intern
//! them through a bounded process-global table (safe `Box::leak`). The
//! vocabulary of span names and attribute keys is small and fixed in
//! practice, so the table converges after the first few trees; past
//! [`INTERN_CAPACITY`] distinct strings (a malformed or adversarial
//! peer) new names collapse to a sentinel instead of growing memory.

use crate::{SpanRecord, SpanTree};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Wire-format major version emitted and accepted.
pub const WIRE_VERSION: u32 = 1;

/// Marker line separating a response body from an appended wire tree.
///
/// A worker appends `TRAILER_MARKER` + `to_wire()` to its response body
/// when the request carried the `x-ermes-trace-tree` header; the
/// coordinator splits on the *last* occurrence and relays only the body
/// before it, so client-visible bytes are unchanged.
pub const TRAILER_MARKER: &str = "\n--ermes-trace-tree--\n";

/// Most distinct strings the intern table will hold before collapsing
/// new names to [`INTERN_OVERFLOW`].
const INTERN_CAPACITY: usize = 4096;

/// Sentinel name interned strings collapse to past [`INTERN_CAPACITY`].
const INTERN_OVERFLOW: &str = "<interned-overflow>";

/// Why a wire document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err<T>(message: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(message.into()))
}

/// Interns `s` into the process-global static-string table. Bounded:
/// past [`INTERN_CAPACITY`] distinct strings it returns the overflow
/// sentinel instead of leaking further.
fn intern(s: &str) -> &'static str {
    static TABLE: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut table = TABLE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&hit) = table.get(s) {
        return hit;
    }
    if table.len() >= INTERN_CAPACITY {
        return INTERN_OVERFLOW;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    table.insert(leaked);
    leaked
}

/// Escapes one token: `\` → `\\`, space → `\s`, newline → `\n`,
/// tab → `\t`, `=` → `\e`.
fn escape_token(out: &mut String, token: &str) {
    for c in token.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '=' => out.push_str("\\e"),
            c => out.push(c),
        }
    }
}

fn unescape_token(token: &str) -> Result<String, WireError> {
    let mut out = String::with_capacity(token.len());
    let mut chars = token.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('e') => out.push('='),
            other => return err(format!("bad escape `\\{}`", other.unwrap_or('∅'))),
        }
    }
    Ok(out)
}

impl SpanTree {
    /// Serialize this tree (preorder) into the versioned wire form.
    #[must_use]
    pub fn to_wire(&self) -> String {
        let mut out = String::with_capacity(self.len() * 96 + 32);
        let _ = writeln!(out, "ermes-trace/{WIRE_VERSION} {}", self.len());
        write_node(&mut out, self);
        out
    }

    /// Parse a wire document produced by [`SpanTree::to_wire`].
    ///
    /// The first span listed is the root. A span whose parent id is
    /// absent from the document is reattached under the root (the same
    /// tolerance [`crate::assemble_trees`] applies to ring-overwritten
    /// parents), so a truncated document still yields a well-formed
    /// tree.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an unknown version, a malformed line, or an
    /// empty document.
    pub fn from_wire(text: &str) -> Result<SpanTree, WireError> {
        // Lines end at `\n` only: a raw `\r` is a legal token byte (the
        // escapes cover `\n` alone), which `str::lines` would strip.
        let mut lines = text.split('\n');
        let header = lines.next().ok_or(WireError("empty document".into()))?;
        let (magic, count) = header
            .split_once(' ')
            .ok_or(WireError(format!("bad header `{header}`")))?;
        let version = magic
            .strip_prefix("ermes-trace/")
            .ok_or(WireError(format!("bad magic `{magic}`")))?;
        let version: u32 = match version.parse() {
            Ok(v) => v,
            Err(_) => return err(format!("bad version `{version}`")),
        };
        if version != WIRE_VERSION {
            return err(format!(
                "version {version} not supported (this parser speaks {WIRE_VERSION})"
            ));
        }
        let count: usize = match count.parse() {
            Ok(n) => n,
            Err(_) => return err(format!("bad span count `{count}`")),
        };
        if count == 0 {
            return err("a tree has at least its root");
        }
        // The header's count is the peer's claim, not a size: reserving
        // it would let a 30-byte document request gigabytes, so the
        // vector grows with the spans actually read.
        let mut records = Vec::new();
        for _ in 0..count {
            let line = lines.next().ok_or(WireError(format!(
                "document ends after {} of {count} spans",
                records.len()
            )))?;
            records.push(parse_record(line)?);
        }
        assemble(records)
    }
}

fn write_node(out: &mut String, node: &SpanTree) {
    let r = &node.record;
    let _ = write!(
        out,
        "{} {} {} {} {} ",
        r.id, r.parent, r.thread, r.start_ns, r.end_ns
    );
    escape_token(out, r.name);
    for (key, value) in &r.attrs {
        out.push(' ');
        escape_token(out, key);
        out.push('=');
        escape_token(out, value);
    }
    out.push('\n');
    for child in &node.children {
        write_node(out, child);
    }
}

fn parse_record(line: &str) -> Result<SpanRecord, WireError> {
    let mut fields = line.split(' ');
    let mut int = |what: &str| -> Result<u64, WireError> {
        match fields.next() {
            Some(text) => text
                .parse()
                .map_err(|_| WireError(format!("bad {what} `{text}` in `{line}`"))),
            None => err(format!("missing {what} in `{line}`")),
        }
    };
    let id = int("id")?;
    let parent = int("parent")?;
    let thread = int("thread")?;
    let start_ns = int("start")?;
    let end_ns = int("end")?;
    if id == 0 {
        return err(format!("span id 0 is reserved in `{line}`"));
    }
    if end_ns < start_ns {
        return err(format!("span ends before it starts in `{line}`"));
    }
    let name = match fields.next() {
        Some(token) => intern(&unescape_token(token)?),
        None => return err(format!("missing name in `{line}`")),
    };
    let mut attrs = Vec::new();
    for token in fields {
        // Escaped `=` is `\e`, so the first raw `=` is the separator.
        let Some((key, value)) = token.split_once('=') else {
            return err(format!("attribute `{token}` has no `=` in `{line}`"));
        };
        attrs.push((intern(&unescape_token(key)?), unescape_token(value)?));
    }
    Ok(SpanRecord {
        trace_id: 0, // assigned at graft time; meaningless on the wire
        id,
        parent,
        name,
        start_ns,
        end_ns,
        thread,
        attrs,
    })
}

/// Rebuilds the tree: first record is the root, the rest attach by
/// parent id (falling back to the root when the parent is absent).
fn assemble(records: Vec<SpanRecord>) -> Result<SpanTree, WireError> {
    let root_id = records[0].id;
    let present: BTreeSet<u64> = records.iter().map(|r| r.id).collect();
    if present.len() != records.len() {
        return err("duplicate span ids");
    }
    let mut children: HashMap<u64, Vec<SpanRecord>> = HashMap::new();
    let mut root = None;
    for record in records {
        if record.id == root_id {
            root = Some(record);
        } else {
            let anchor = if present.contains(&record.parent) && record.parent != record.id {
                record.parent
            } else {
                root_id
            };
            children.entry(anchor).or_default().push(record);
        }
    }
    for siblings in children.values_mut() {
        siblings.sort_by_key(|r| (r.start_ns, r.id));
    }
    let root = root.expect("first record is the root");
    Ok(build(root, &mut children))
}

fn build(record: SpanRecord, children: &mut HashMap<u64, Vec<SpanRecord>>) -> SpanTree {
    let kids = children.remove(&record.id).unwrap_or_default();
    SpanTree {
        record,
        children: kids.into_iter().map(|k| build(k, children)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 9,
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            thread: 1,
            attrs: Vec::new(),
        }
    }

    fn tree() -> SpanTree {
        let mut root = rec(10, 3, "request", 100, 900);
        root.attrs.push(("endpoint", "sweep".into()));
        root.attrs
            .push(("note", "has space=and\nnewline\\slash".into()));
        SpanTree {
            record: root,
            children: vec![
                SpanTree {
                    record: rec(11, 10, "howard", 120, 300),
                    children: vec![SpanTree {
                        record: rec(12, 11, "ilp", 130, 200),
                        children: Vec::new(),
                    }],
                },
                SpanTree {
                    record: rec(13, 10, "cache", 310, 320),
                    children: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn round_trips_structure_names_times_and_attrs() {
        let original = tree();
        let wire = original.to_wire();
        let back = SpanTree::from_wire(&wire).expect("parses");
        // trace_id is wire-meaningless; compare everything else.
        assert_eq!(back.len(), original.len());
        assert_eq!(back.record.name, "request");
        assert_eq!(back.record.id, 10);
        assert_eq!(back.record.parent, 3);
        assert_eq!(back.record.start_ns, 100);
        assert_eq!(back.record.end_ns, 900);
        assert_eq!(back.record.attr("endpoint"), Some("sweep"));
        assert_eq!(
            back.record.attr("note"),
            Some("has space=and\nnewline\\slash")
        );
        assert_eq!(back.children.len(), 2);
        assert_eq!(back.children[0].record.name, "howard");
        assert_eq!(back.children[0].children[0].record.name, "ilp");
        assert_eq!(back.children[1].record.name, "cache");
        // Serializing the parsed tree reproduces the exact bytes.
        assert_eq!(back.to_wire(), wire);
    }

    #[test]
    fn header_carries_version_and_count() {
        let wire = tree().to_wire();
        assert!(wire.starts_with("ermes-trace/1 4\n"), "{wire}");
    }

    #[test]
    fn orphaned_spans_reattach_under_the_root() {
        let wire = "ermes-trace/1 2\n1 0 1 0 10 root\n5 99 1 2 3 lost\n";
        let tree = SpanTree::from_wire(wire).expect("parses");
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].record.name, "lost");
    }

    #[test]
    fn malformed_documents_are_rejected_not_guessed() {
        for bad in [
            "",
            "ermes-trace/1",
            "ermes-trace/2 1\n1 0 1 0 10 root",
            "not-a-trace/1 1\n1 0 1 0 10 root",
            "ermes-trace/1 x\n1 0 1 0 10 root",
            "ermes-trace/1 0\n",
            "ermes-trace/1 2\n1 0 1 0 10 root",
            "ermes-trace/1 1\n1 0 1 0 10",
            "ermes-trace/1 1\n1 0 1 10 5 backwards",
            "ermes-trace/1 1\n0 0 1 0 10 zero-id",
            "ermes-trace/1 1\nx 0 1 0 10 root",
            "ermes-trace/1 1\n1 0 1 0 10 root badattr",
            "ermes-trace/1 1\n1 0 1 0 10 bad\\q",
            "ermes-trace/1 2\n1 0 1 0 10 root\n1 1 1 2 3 dup",
        ] {
            assert!(SpanTree::from_wire(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn interned_names_are_shared_across_parses() {
        let wire = "ermes-trace/1 1\n1 0 1 0 10 intern-probe\n";
        let a = SpanTree::from_wire(wire).expect("parses");
        let b = SpanTree::from_wire(wire).expect("parses");
        assert!(
            std::ptr::eq(a.record.name, b.record.name),
            "second parse reuses the interned name"
        );
    }
}
