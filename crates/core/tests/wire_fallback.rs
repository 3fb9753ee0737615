//! Fast-path / tree-parser equivalence for the record-body grammar.
//!
//! The serving hot path parses `{"record":[...]}` bodies with a strict
//! allocation-free scanner ([`wire::parse_record_body`]) and falls back
//! to the general tree parser ([`wire::parse_record_body_slow`]) for
//! anything it declines. The split must be invisible: any body the fast
//! parser *accepts* must parse through the tree parser to **bit-
//! identical** rows and row boundaries, for arbitrary numbers (ints,
//! floats, exponents, negatives) and `null` gaps. The router tier leans
//! on the same invariant from the other side — it forwards bodies
//! verbatim, so whichever parser a backend picks, the scored bits match
//! a single-node deployment.
//!
//! The head parser meets bytes from outside the program in both
//! directions (client requests, backend responses), so it is pinned as
//! total: it never panics, and every head it completes lies inside the
//! buffer it was given.

use exathlon_core::wire::{
    parse_head, parse_record_body, parse_record_body_slow, BodyParse, HeadParse,
};
use proptest::prelude::*;

/// One JSON value in the hot grammar: a number or null. Generated from
/// parts so ints, fractions, and exponents all appear.
fn value_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        (i64::MIN..i64::MAX).prop_map(|i| i.to_string()),
        (-1.0e9..1.0e9f64).prop_map(|f| format!("{f:?}")),
        (-1_000_000i32..1_000_000, -30i32..30).prop_map(|(m, e)| format!("{m}e{e}")),
        Just("null".to_string()),
        (-1.0e-3..1.0e-3f64).prop_map(|f| format!("{f:e}")),
    ]
}

fn row_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(value_strategy(), 1..8).prop_map(|vs| format!("[{}]", vs.join(",")))
}

/// Both parsers over one body; if the fast path accepts, the outputs
/// must match bitwise (NaN gaps compared by bit pattern).
fn assert_equivalent(body: &[u8], batch: bool) -> Result<(), TestCaseError> {
    let (mut fr, mut fe) = (Vec::new(), Vec::new());
    if parse_record_body(body, batch, &mut fr, &mut fe) != BodyParse::Parsed {
        return Ok(()); // Declined: fallback owns it; nothing to compare.
    }
    let (mut sr, mut se) = (Vec::new(), Vec::new());
    parse_record_body_slow(body, batch, &mut sr, &mut se).map_err(|(code, msg)| {
        TestCaseError::Fail(format!(
            "fast path accepted but tree parser rejected ({code} {msg}): {}",
            String::from_utf8_lossy(body)
        ))
    })?;
    prop_assert_eq!(&fe, &se, "row boundaries differ: {}", String::from_utf8_lossy(body));
    prop_assert_eq!(fr.len(), sr.len());
    for (i, (a, b)) in fr.iter().zip(&sr).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "value {} differs ({} vs {}): {}",
            i,
            a,
            b,
            String::from_utf8_lossy(body)
        );
    }
    Ok(())
}

/// `content-length` values: arbitrary digit strings (up to 40 digits,
/// so most overflow `usize`) and the `usize` boundary itself.
fn length_digits() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::collection::vec(0u8..10, 1..41)
            .prop_map(|d| d.iter().map(|&x| char::from(b'0' + x)).collect()),
        Just(usize::MAX.to_string()),
        Just("18446744073709551616".to_string()),
        (0usize..100_000).prop_map(|n| n.to_string()),
    ]
}

/// Parse `buf` under a tight and the serving head cap; any complete head
/// must lie inside `buf`, with its method and path spans inside the head.
fn assert_head_in_bounds(buf: &[u8]) -> Result<(), TestCaseError> {
    for max_head in [16, 64 << 10] {
        if let HeadParse::Complete(h) = parse_head(buf, max_head) {
            prop_assert!(h.head_len <= buf.len(), "head_len past the buffer: {:?}", h);
            for (start, end) in [h.method, h.path] {
                prop_assert!(start <= end && end <= h.head_len, "span outside the head: {:?}", h);
            }
        }
    }
    Ok(())
}

proptest! {
    /// Arbitrary bytes, and request and response heads carrying arbitrary
    /// `content-length` digits with arbitrary bytes around them: the head
    /// parser never panics and never frames past its input.
    #[test]
    fn parse_head_is_total_and_in_bounds(
        bytes in prop::collection::vec(0u8..=255, 0..300),
        digits in length_digits(),
        response in 0u8..2,
    ) {
        assert_head_in_bounds(&bytes)?;
        let first = if response == 1 { "HTTP/1.1 200 OK" } else { "POST /v1/ingest/a/e HTTP/1.1" };
        let head = format!("{first}\r\ncontent-length: {digits}\r\n\r\n").into_bytes();
        let mut framed = head.clone();
        framed.extend_from_slice(&bytes);
        assert_head_in_bounds(&framed)?;
        let mut prefixed = bytes.clone();
        prefixed.extend_from_slice(&head);
        assert_head_in_bounds(&prefixed)?;
        let cut = bytes.len() % (head.len() + 1);
        assert_head_in_bounds(&head[..cut])?;
    }

    /// Canonical single-record bodies: fast accept ⟹ tree-parser
    /// agreement, bit for bit.
    #[test]
    fn single_record_fast_accept_matches_tree(row in row_strategy()) {
        let body = format!("{{\"record\":{row}}}");
        assert_equivalent(body.as_bytes(), false)?;
    }

    /// Batch bodies with several rows of varying width.
    #[test]
    fn batch_fast_accept_matches_tree(
        rows in prop::collection::vec(row_strategy(), 1..6),
    ) {
        let body = format!("{{\"records\":[{}]}}", rows.join(","));
        assert_equivalent(body.as_bytes(), true)?;
    }

    /// Whitespace-perturbed bodies: the strict grammar tolerates JSON
    /// whitespace in the slots it scans past; wherever it still
    /// accepts, equivalence must hold.
    #[test]
    fn whitespace_perturbations_stay_equivalent(
        row in row_strategy(),
        ws in prop::collection::vec(0usize..4, 4),
    ) {
        let pads = [" ", "\n", "\t ", " \r\n"];
        let body = format!(
            "{{{}\"record\"{}:{}{row}{}}}",
            pads[ws[0] % 4], pads[ws[1] % 4], pads[ws[2] % 4], pads[ws[3] % 4]
        );
        assert_equivalent(body.as_bytes(), false)?;
    }

    /// Arbitrary bytes: the fast parser must never accept something the
    /// tree parser rejects, and must never panic on garbage.
    #[test]
    fn arbitrary_bytes_never_diverge(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        assert_equivalent(&bytes, false)?;
        assert_equivalent(&bytes, true)?;
    }
}

#[test]
fn known_tricky_bodies() {
    // Cases worth pinning by name: exponent forms, -0.0 sign bit, null
    // gaps, int/float classification at i64 edges.
    for body in [
        r#"{"record":[1,2.5,-0.0,3e2,1E-2,null]}"#,
        r#"{"record":[9223372036854775807]}"#,
        r#"{"record":[-9223372036854775808]}"#,
        r#"{"record":[0.1,0.2,0.30000000000000004]}"#,
        r#"{"records":[[1],[2,3],[null,null,4]]}"#,
    ] {
        let (mut fr, mut fe) = (Vec::new(), Vec::new());
        if parse_record_body(body.as_bytes(), body.contains("records"), &mut fr, &mut fe)
            != BodyParse::Parsed
        {
            continue;
        }
        let (mut sr, mut se) = (Vec::new(), Vec::new());
        parse_record_body_slow(body.as_bytes(), body.contains("records"), &mut sr, &mut se)
            .unwrap_or_else(|e| panic!("tree parser rejected {body}: {e:?}"));
        assert_eq!(fe, se, "{body}");
        let fb: Vec<u64> = fr.iter().map(|f| f.to_bits()).collect();
        let sb: Vec<u64> = sr.iter().map(|f| f.to_bits()).collect();
        assert_eq!(fb, sb, "{body}");
    }
}
