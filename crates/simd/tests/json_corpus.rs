//! The shared-grammar invariant: `emu_core::json::json_ok` (the
//! artifact validator) and `emu_core::jsonread::parse` (the daemon's
//! protocol reader) are the same strict reader, so they must accept and reject the
//! exact same corpus. A document only one of them rejects would mean a
//! daemon request that validates but does not parse (or vice versa) —
//! the drift this satellite exists to prevent.

use emu_core::json::json_ok;
use emu_core::jsonread::parse;

/// Documents both sides must reject, by failure class.
const REJECTED: &[(&str, &str)] = &[
    // Duplicate object keys, at any depth.
    ("dup-key", r#"{"a":1,"a":2}"#),
    ("dup-key-nested", r#"{"o":{"x":true,"x":false}}"#),
    ("dup-key-empty", r#"{"":0,"":1}"#),
    // Lone / malformed surrogates.
    ("lone-high-surrogate", "\"\\ud800\""),
    ("lone-low-surrogate", "\"\\udc00\""),
    ("high-then-text", "\"\\ud800x\""),
    ("swapped-pair", "\"\\ude00\\ud83d\""),
    // Non-finite and malformed numbers (JSON has no NaN/Infinity).
    ("bare-nan", "NaN"),
    ("bare-infinity", "Infinity"),
    ("neg-infinity", "-Infinity"),
    ("nan-in-object", r#"{"x":NaN}"#),
    ("overflowing-exponent", "1e999"),
    ("trailing-dot", "1."),
    ("leading-dot", ".5"),
    ("bare-exponent", "1e"),
    ("leading-zero", "01"),
    ("plus-sign", "+1"),
    // Structural breakage.
    ("empty", ""),
    ("unclosed-object", "{"),
    ("trailing-comma-array", "[1,]"),
    ("trailing-comma-object", r#"{"a":1,}"#),
    ("two-documents", r#"{"a":1}{"b":2}"#),
    ("missing-separator", "[1 2]"),
    ("single-quotes", "{'a':1}"),
    ("bad-keyword", "nul"),
    ("raw-control-in-string", "\"a\u{1}b\""),
    ("bad-escape", "\"\\q\""),
];

/// Documents both sides must accept.
const ACCEPTED: &[(&str, &str)] = &[
    ("empty-object", "{}"),
    ("empty-array", "[]"),
    ("null", "null"),
    ("nested", r#"{"a":[1,2,{"b":null}],"c":"x"}"#),
    ("surrogate-pair", "\"\\ud83d\\ude00\""),
    ("escapes", r#""quote \" slash \\ tab \t""#),
    ("number-grammar", "[-0, 0.5, 1e9, -1.25e-3, 10]"),
    ("same-key-different-objects", r#"[{"a":1},{"a":2}]"#),
    (
        "protocol-request",
        r#"{"op":"run","id":7,"spec":{"kind":"scenario_point","scenario":"a\nb","index":0},"deadline_ms":250}"#,
    ),
    (
        "protocol-response",
        r#"{"id":1,"ok":false,"error":{"kind":"busy","message":"full"},"retry_after_ms":25}"#,
    ),
];

#[test]
fn validator_and_protocol_reader_reject_the_same_corpus() {
    for (name, doc) in REJECTED {
        assert!(!json_ok(doc), "{name}: json_ok accepted {doc:?}");
        assert!(
            parse(doc).is_err(),
            "{name}: protocol reader accepted {doc:?}"
        );
    }
    for (name, doc) in ACCEPTED {
        assert!(json_ok(doc), "{name}: json_ok rejected {doc:?}");
        let err = parse(doc).err();
        assert!(
            err.is_none(),
            "{name}: protocol reader rejected {doc:?}: {err:?}"
        );
    }
}

/// The agreement holds for *every* document, not just hand-picked
/// classes: the two entry points are literally the same function, so
/// any verdict must match on both sides.
#[test]
fn verdicts_agree_document_by_document() {
    for (_, doc) in REJECTED.iter().chain(ACCEPTED) {
        assert_eq!(
            json_ok(doc),
            parse(doc).is_ok(),
            "verdicts diverged on {doc:?}"
        );
    }
}
