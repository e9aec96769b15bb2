//! Property tests hardening the HTTP/1.1 framing: no bytes a client can
//! send — arbitrary, truncated, or a valid request with a mangled
//! header — may panic `read_request`, and every rejection carries a
//! status `http.rs` documents (400, 413 or 501), or is a clean close or
//! a body cut short by the peer.

use ermesd::http::{read_request, ReadError, Request};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::ErrorKind;

/// The body limit every case parses under.
const MAX_BODY: usize = 64;

fn parse(bytes: &[u8]) -> Result<Request, ReadError> {
    read_request(&mut &bytes[..], MAX_BODY)
}

/// The documented outcomes of one read: a request, a clean close before
/// the first byte, a documented rejection status, or a body the peer cut
/// short (no response is possible then).
fn check_outcome(input: &[u8], outcome: &Result<Request, ReadError>) -> Result<(), TestCaseError> {
    match outcome {
        Ok(req) => prop_assert!(req.body.len() <= MAX_BODY),
        Err(ReadError::Closed) => prop_assert!(input.is_empty(), "closed on {} bytes", input.len()),
        Err(ReadError::Malformed { status, .. }) => {
            prop_assert!([400, 413, 501].contains(status), "status {}", status)
        }
        Err(ReadError::Io(e)) => prop_assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
    }
    Ok(())
}

/// A valid request: method, path, query pairs, extra headers, body.
#[derive(Debug, Clone)]
struct Valid {
    method: &'static str,
    path: String,
    query: Vec<(String, String)>,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Valid {
    /// The request on the wire, with `content_length` lines for its body
    /// (none, one, or a duplicate).
    fn wire(&self, content_length: &[String]) -> Vec<u8> {
        let mut target = self.path.clone();
        for (i, (k, v)) in self.query.iter().enumerate() {
            target.push(if i == 0 { '?' } else { '&' });
            target.push_str(&format!("{k}={v}"));
        }
        let mut out = format!("{} {target} HTTP/1.1\r\n", self.method).into_bytes();
        for (k, v) in &self.headers {
            out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        for length in content_length {
            out.extend_from_slice(format!("Content-Length: {length}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    fn length(&self) -> Vec<String> {
        vec![self.body.len().to_string()]
    }
}

/// `len` lowercase letters drawn from `seed`.
fn token(seed: u64, len: usize) -> String {
    (0..len)
        .map(|i| char::from(b'a' + (seed.rotate_left(5 * i as u32) % 26) as u8))
        .collect()
}

fn arb_valid() -> impl Strategy<Value = Valid> {
    (
        0usize..4,
        any::<u64>(),
        vec((1usize..6, 0usize..6), 0..3),
        vec((1usize..8, 0usize..12), 0..4),
        vec(any::<u8>(), 1..MAX_BODY),
    )
        .prop_map(|(method, seed, query, headers, body)| Valid {
            method: ["GET", "POST", "DELETE", "PUT"][method],
            path: format!("/{}", token(seed, 1 + (seed % 9) as usize)),
            query: query
                .into_iter()
                .map(|(k, v)| (token(seed ^ 0x51, k), token(seed ^ 0x3c, v)))
                .collect(),
            headers: headers
                .into_iter()
                .enumerate()
                .map(|(i, (k, v))| (format!("x-{i}{}", token(seed ^ 0x77, k)), token(seed, v)))
                .collect(),
            body,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes parse or reject cleanly.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..600)) {
        check_outcome(&bytes, &parse(&bytes))?;
    }

    /// Arbitrary bytes after a valid request line and a header prefix
    /// reach the header and body parsers, not just the first line.
    #[test]
    fn arbitrary_header_bytes_never_panic(tail in vec(any::<u8>(), 0..400)) {
        let mut bytes = b"POST /analyze HTTP/1.1\r\n".to_vec();
        bytes.extend_from_slice(&tail);
        check_outcome(&bytes, &parse(&bytes))?;
    }

    /// A valid request parses back to its parts, and the next pipelined
    /// request starts exactly where its body ends.
    #[test]
    fn valid_requests_round_trip_and_frame(a in arb_valid(), b in arb_valid()) {
        let mut wire = a.wire(&a.length());
        wire.extend_from_slice(&b.wire(&b.length()));
        let mut reader = &wire[..];
        for want in [&a, &b] {
            let got = read_request(&mut reader, MAX_BODY).expect("valid request");
            prop_assert_eq!(got.method.as_str(), want.method);
            prop_assert_eq!(&got.path, &want.path);
            prop_assert_eq!(&got.query, &want.query);
            prop_assert_eq!(&got.body, &want.body);
            for (k, v) in &want.headers {
                prop_assert_eq!(got.header(k), Some(v.as_str()));
            }
        }
        prop_assert!(matches!(read_request(&mut reader, MAX_BODY), Err(ReadError::Closed)));
    }

    /// Every strict prefix of a request with a body is rejected: a clean
    /// close at zero bytes, otherwise a 400 or a short body.
    #[test]
    fn truncated_requests_are_rejected(v in arb_valid(), cut in 0usize..1000) {
        let wire = v.wire(&v.length());
        let prefix = &wire[..cut % wire.len()];
        let outcome = parse(prefix);
        check_outcome(prefix, &outcome)?;
        prop_assert!(outcome.is_err(), "a strict prefix parsed");
    }

    /// A mangled `Content-Length` — not a number, negative, beyond
    /// `usize`, or padded — is a 400; one beyond the body limit a 413.
    #[test]
    fn bad_content_lengths_are_rejected(v in arb_valid(), kind in 0usize..6, n in any::<u64>()) {
        let length = match kind {
            0 => format!("{}x", v.body.len()),
            1 => format!("-{}", v.body.len()),
            2 => format!("{n}{n}{n}"),
            3 => "0x10".to_string(),
            4 => format!("{} {}", v.body.len(), v.body.len()),
            _ => (MAX_BODY as u64 + 1 + n % 1000).to_string(),
        };
        let wire = v.wire(&[length]);
        let outcome = parse(&wire);
        check_outcome(&wire, &outcome)?;
        let want = if kind == 5 { 413 } else { 400 };
        prop_assert!(
            matches!(outcome, Err(ReadError::Malformed { status, .. }) if status == want),
            "kind {}: {:?}", kind, outcome
        );
    }

    /// Duplicate `Content-Length` lines frame the body only when they
    /// agree; differing ones are a 400.
    #[test]
    fn duplicate_content_lengths_must_agree(v in arb_valid(), delta in 1usize..8) {
        let same = v.wire(&[v.body.len().to_string(), v.body.len().to_string()]);
        prop_assert_eq!(parse(&same).expect("agreeing duplicates").body, v.body.clone());
        let other = (v.body.len() + delta).to_string();
        for lengths in [[v.body.len().to_string(), other.clone()], [other.clone(), v.body.len().to_string()]] {
            let wire = v.wire(&lengths);
            prop_assert!(matches!(parse(&wire), Err(ReadError::Malformed { status: 400, .. })));
        }
    }

    /// Headers beyond the 16 KiB budget are a 413, wherever the excess
    /// falls.
    #[test]
    fn oversized_headers_are_a_413(v in arb_valid(), size in 17_000usize..20_000, lines in 1usize..4) {
        let mut big = v.clone();
        for i in 0..lines {
            big.headers.push((format!("x-pad{i}"), "v".repeat(size / lines)));
        }
        let wire = big.wire(&big.length());
        prop_assert!(matches!(parse(&wire), Err(ReadError::Malformed { status: 413, .. })));
    }

    /// One flipped byte anywhere in a valid request never panics.
    #[test]
    fn flipped_bytes_never_panic(v in arb_valid(), at in 0usize..1000, byte in any::<u8>()) {
        let mut wire = v.wire(&v.length());
        let at = at % wire.len();
        wire[at] = byte;
        check_outcome(&wire, &parse(&wire))?;
    }
}
