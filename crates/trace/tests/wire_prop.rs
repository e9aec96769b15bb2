//! Property tests hardening the `ermes-trace/1` wire parser, which a
//! coordinator runs on trailer bytes from whatever answers on a worker
//! address: no input — arbitrary bytes, or a valid document truncated,
//! flipped, given duplicate ids, an oversized span count or a bad
//! escape — may panic or abort the process, every rejection is a
//! [`WireError`], and a valid document round-trips byte for byte.

use proptest::collection::vec;
use proptest::prelude::*;
use trace::{SpanRecord, SpanTree, WireError};

/// Names and attribute keys are `&'static str` in a record; these cover
/// every character the wire form escapes, plus a raw `\r`.
const VOCABULARY: [&str; 9] = [
    "request",
    "howard",
    "",
    "has space",
    "k=v",
    "back\\slash",
    "new\nline",
    "tab\tbed",
    "cr\r",
];

/// Characters attribute values are drawn from.
const VALUE_CHARS: [char; 10] = ['a', 's', 'e', ' ', '=', '\\', '\n', '\t', '\r', 'é'];

/// Parses `text`; a rejection must be a described [`WireError`], and
/// comes back as `None`.
fn parse(text: &str) -> Result<Option<SpanTree>, TestCaseError> {
    match SpanTree::from_wire(text) {
        Ok(tree) => Ok(Some(tree)),
        Err(e) => {
            let WireError(reason) = &e;
            prop_assert!(!reason.is_empty(), "undescribed rejection");
            prop_assert!(e.to_string().starts_with("trace wire: "), "{}", e);
            Ok(None)
        }
    }
}

/// One generated span: (name, start offset, duration, attributes as
/// (key index, value seed, value length), child count).
type Shape = (usize, u64, u64, Vec<(usize, u64, usize)>, usize);

fn value(seed: u64, len: usize) -> String {
    (0..len)
        .map(|i| VALUE_CHARS[(seed.rotate_left(7 * i as u32) % VALUE_CHARS.len() as u64) as usize])
        .collect()
}

/// A valid tree in the shape `to_wire` emits: preorder ids from 1,
/// parents that exist, and siblings already in `(start, id)` order.
fn build(shapes: &[Shape]) -> SpanTree {
    fn node(shapes: &[Shape], next: &mut usize, parent: u64, start: u64) -> SpanTree {
        let (name, _, duration, attrs, kids) = &shapes[*next % shapes.len()];
        *next += 1;
        let id = *next as u64;
        let mut record = SpanRecord {
            trace_id: 0,
            id,
            parent,
            name: VOCABULARY[name % VOCABULARY.len()],
            start_ns: start,
            end_ns: start + duration,
            thread: id % 3,
            attrs: attrs
                .iter()
                .map(|&(key, seed, len)| (VOCABULARY[key % VOCABULARY.len()], value(seed, len)))
                .collect(),
        };
        let mut children = Vec::new();
        let mut child_start = start;
        // Depth is bounded by the shape list: a span only gets children
        // while unused shapes remain.
        for _ in 0..*kids {
            if *next >= shapes.len() {
                break;
            }
            child_start += shapes[*next].1;
            children.push(node(shapes, next, id, child_start));
        }
        record.end_ns = record.end_ns.max(child_start);
        SpanTree { record, children }
    }
    node(shapes, &mut 0, 0, 1_000)
}

fn arb_tree() -> impl Strategy<Value = SpanTree> {
    vec(
        (
            0usize..VOCABULARY.len(),
            0u64..50,
            0u64..1_000,
            vec((0usize..VOCABULARY.len(), any::<u64>(), 0usize..6), 0..3),
            0usize..4,
        ),
        1..12,
    )
    .prop_map(|shapes| build(&shapes))
}

/// The largest index `<= at` that is a char boundary of `text`.
fn floor_boundary(text: &str, at: usize) -> usize {
    (0..=at.min(text.len()))
        .rev()
        .find(|&i| text.is_char_boundary(i))
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes parse or reject cleanly.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..400)) {
        parse(&String::from_utf8_lossy(&bytes))?;
    }

    /// Arbitrary span lines under a valid header reach the record
    /// parser, whatever count the header claims.
    #[test]
    fn arbitrary_lines_under_a_valid_header_never_panic(
        count in any::<u64>(),
        small in 1u64..4,
        lines in vec(vec(any::<u8>(), 0..40), 0..4),
    ) {
        for claimed in [count, small] {
            let mut text = format!("ermes-trace/1 {claimed}\n");
            for line in &lines {
                text.push_str(&String::from_utf8_lossy(line));
                text.push('\n');
            }
            parse(&text)?;
        }
    }

    /// A valid document parses back to the same bytes.
    #[test]
    fn valid_documents_round_trip(tree in arb_tree()) {
        let wire = tree.to_wire();
        let Some(back) = parse(&wire)? else {
            return Err(TestCaseError::fail(format!("rejected {wire:?}")));
        };
        prop_assert_eq!(back.len(), tree.len());
        prop_assert_eq!(back.to_wire(), wire);
    }

    /// Every strict prefix parses or rejects cleanly; one that loses a
    /// whole span line is rejected.
    #[test]
    fn truncated_documents_never_panic(tree in arb_tree(), cut in 0usize..4_000) {
        let wire = tree.to_wire();
        let prefix = &wire[..floor_boundary(&wire, cut % wire.len())];
        let parsed = parse(prefix)?;
        // Pieces after the header, the last one possibly partial.
        let body_lines = prefix.split('\n').count() - 1;
        if body_lines < tree.len() {
            prop_assert!(parsed.is_none(), "{:?}", prefix);
        }
    }

    /// One flipped byte anywhere never panics.
    #[test]
    fn flipped_bytes_never_panic(tree in arb_tree(), at in 0usize..4_000, byte in any::<u8>()) {
        let mut bytes = tree.to_wire().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        parse(&String::from_utf8_lossy(&bytes))?;
    }

    /// A span listed twice is rejected.
    #[test]
    fn duplicate_ids_are_rejected(tree in arb_tree(), which in 0usize..64) {
        let wire = tree.to_wire();
        let mut lines: Vec<&str> = wire.split('\n').skip(1).take(tree.len()).collect();
        lines.push(lines[which % tree.len()]);
        let text = format!("ermes-trace/1 {}\n{}\n", lines.len(), lines.join("\n"));
        prop_assert!(parse(&text)?.is_none(), "{:?}", text);
    }

    /// A header claiming more spans than the document holds is rejected
    /// without reserving memory for the claim: counts up to `u64::MAX`
    /// (and past it) on a few dozen bytes.
    #[test]
    fn oversized_counts_are_rejected(tree in arb_tree(), extra in 1u64..1_000, pick in 0usize..5) {
        let wire = tree.to_wire();
        let body = wire.split_once('\n').map_or("", |(_, body)| body);
        let claimed = match pick {
            0 => (tree.len() as u64 + extra).to_string(),
            1 => 1_000_000_000.to_string(),
            2 => u64::MAX.to_string(),
            3 => usize::MAX.to_string(),
            _ => "18446744073709551616".to_string(),
        };
        let text = format!("ermes-trace/1 {claimed}\n{body}");
        prop_assert!(parse(&text)?.is_none(), "{:?}", text);
    }

    /// A backslash followed by anything but `\`, `s`, `n`, `t` or `e`
    /// is rejected, in a name or in an attribute.
    #[test]
    fn bad_escapes_are_rejected(tree in arb_tree(), c in 0u8..128, in_attr in any::<bool>()) {
        let c = char::from(c);
        prop_assume!(!matches!(c, '\\' | 's' | 'n' | 't' | 'e' | ' ' | '\n' | '='));
        let wire = tree.to_wire();
        let (header, body) = wire.split_once('\n').expect("header line");
        let (first, rest) = body.split_once('\n').expect("root line");
        let root = if in_attr {
            format!("{first} bad=x\\{c}")
        } else {
            let fields: Vec<&str> = first.splitn(7, ' ').collect();
            let mut fields: Vec<String> = fields.iter().map(|f| (*f).to_string()).collect();
            fields[5] = format!("n\\{c}");
            fields.join(" ")
        };
        let text = format!("{header}\n{root}\n{rest}");
        prop_assert!(parse(&text)?.is_none(), "{:?}", text);
    }
}

/// The header that aborted a coordinator: a count of 10^9 on a 30-byte
/// document once reserved 88 GB, and `u64::MAX` overflowed the
/// capacity computation.
#[test]
fn thirty_bytes_claiming_a_billion_spans_are_rejected() {
    for count in ["1000000000", "18446744073709551615"] {
        let text = format!("ermes-trace/1 {count}\n1 0 1 0 5 root\n");
        assert!(SpanTree::from_wire(&text).is_err(), "{text}");
    }
}
