//! The results documents' JSON reader and writer and their schema
//! validator, through the crate's public API: number and string forms,
//! the exact rendered layout, malformed input, and the JSON-Schema subset
//! `schemas/` uses.

use lrp_telemetry::{schema, Json};

fn parse(text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"))
}

#[test]
fn integers_parse_unsigned_unless_negative() {
    assert_eq!(parse("0"), Json::U64(0));
    assert_eq!(parse("18446744073709551615"), Json::U64(u64::MAX));
    assert_eq!(parse("-1"), Json::I64(-1));
    assert_eq!(parse("-9223372036854775808"), Json::I64(i64::MIN));
    assert!(Json::parse("18446744073709551616").is_err(), "u64 overflow");
    assert!(Json::parse("-9223372036854775809").is_err(), "i64 overflow");
}

#[test]
fn fractions_and_exponents_parse_as_floats() {
    assert_eq!(parse("2.5"), Json::F64(2.5));
    assert_eq!(parse("-0.25"), Json::F64(-0.25));
    assert_eq!(parse("1e3"), Json::F64(1000.0));
    assert_eq!(parse("1E-3"), Json::F64(0.001));
    assert_eq!(parse("2.5e+2"), Json::F64(250.0));
    assert!(Json::parse("1.2.3").is_err());
    assert!(Json::parse("-").is_err());
}

/// A float always renders with a fraction or an exponent, so it parses
/// back as the same float rather than as an integer.
#[test]
fn floats_render_back_to_the_same_float() {
    assert_eq!(Json::F64(3.0).render(), "3.0\n");
    assert_eq!(Json::F64(-0.0).render(), "-0.0\n");
    for x in [0.1, 1.0 / 3.0, 1e300, 5e-324, -123456.789, 2f64.powi(60)] {
        assert_eq!(parse(&Json::F64(x).render()), Json::F64(x), "{x}");
    }
}

#[test]
fn unicode_escapes_decode() {
    assert_eq!(parse(r#""\u00e9t\u00C9""#).as_str(), Some("étÉ"));
    assert_eq!(parse(r#""\u0041\u2713""#).as_str(), Some("A✓"));
    assert_eq!(
        Json::parse(r#""\u00e"#),
        Err("short \\u escape".to_string())
    );
    assert!(Json::parse(r#""\uzzzz""#).is_err());
    // A lone surrogate is no character.
    assert_eq!(
        Json::parse(r#""\ud800""#),
        Err("bad \\u escape".to_string())
    );
}

/// Control characters leave the writer escaped, and every escape the
/// reader knows decodes to the character it names.
#[test]
fn control_characters_are_escaped_and_read_back() {
    let s = "\u{0}\u{8}\u{c}\u{1f}\t\r\n\"\\";
    let text = Json::str(s).render();
    assert_eq!(text, "\"\\u0000\\u0008\\u000c\\u001f\\t\\r\\n\\\"\\\\\"\n");
    assert_eq!(parse(&text).as_str(), Some(s));
    assert_eq!(parse(r#""\b\f\/""#).as_str(), Some("\u{8}\u{c}/"));
    assert_eq!(Json::parse(r#""\x""#), Err("bad escape `\\x`".to_string()));
    assert_eq!(
        Json::parse(r#""ab\"#),
        Err("unterminated escape".to_string())
    );
}

#[test]
fn malformed_documents_are_rejected() {
    for text in [
        "",
        "   ",
        "nul",
        "tru",
        "[1 2]",
        "[1,",
        "{\"a\" 1}",
        "{\"a\": 1 \"b\": 2}",
        "{\"a\": 1,}",
        "{a: 1}",
        "[1]]",
        "+1",
    ] {
        assert!(Json::parse(text).is_err(), "{text:?} parsed");
    }
}

#[test]
fn whitespace_between_tokens_is_ignored() {
    let v = parse(" \t\r\n{ \"a\" :\n[ 1 ,\t2 ] , \"b\" : { } , \"c\" : [ ] }\n ");
    assert_eq!(
        v,
        Json::obj(vec![
            ("a", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("b", Json::obj(vec![])),
            ("c", Json::Arr(vec![])),
        ])
    );
}

/// The committed files' exact layout: two-space indentation, one member
/// or element a line, `": "` after keys, empty containers inline and a
/// trailing newline.
#[test]
fn render_layout_is_fixed() {
    let v = Json::obj(vec![
        ("name", Json::str("fig3")),
        (
            "points",
            Json::Arr(vec![
                Json::obj(vec![("x", Json::U64(1)), ("y", Json::I64(-2))]),
                Json::Arr(vec![]),
            ]),
        ),
        ("none", Json::obj(vec![])),
        ("ok", Json::Bool(false)),
        ("nil", Json::Null),
    ]);
    let expected = "{\n  \"name\": \"fig3\",\n  \"points\": [\n    {\n      \"x\": 1,\n      \"y\": -2\n    },\n    []\n  ],\n  \"none\": {},\n  \"ok\": false,\n  \"nil\": null\n}\n";
    assert_eq!(v.render(), expected);
    assert_eq!(Json::obj(vec![]).render(), "{}\n");
}

#[test]
fn numeric_accessors_convert_only_what_fits() {
    assert_eq!(Json::U64(7).as_u64(), Some(7));
    assert_eq!(Json::I64(7).as_u64(), Some(7));
    assert_eq!(Json::I64(-7).as_u64(), None);
    assert_eq!(Json::F64(7.0).as_u64(), None);
    assert_eq!(Json::I64(-7).as_f64(), Some(-7.0));
    assert_eq!(Json::str("7").as_f64(), None);
    assert_eq!(Json::Null.as_bool(), None);
    assert_eq!(Json::U64(1).get("a"), None, "only objects have keys");
    assert_eq!(Json::Arr(vec![]).as_obj(), None);
}

/// Duplicate keys are kept in order; lookup finds the first.
#[test]
fn duplicate_keys_keep_order_and_lookup_finds_the_first() {
    let v = parse(r#"{"k": 1, "k": 2}"#);
    assert_eq!(v.as_obj().unwrap().len(), 2);
    assert_eq!(v.get("k"), Some(&Json::U64(1)));
}

fn validate(value: &str, schema: &str) -> Vec<String> {
    schema::validate(&parse(value), &parse(schema), "$")
}

#[test]
fn item_violations_name_their_index() {
    let s = r#"{"type": "array", "items": {"type": "object", "required": ["ok"],
               "properties": {"ok": {"type": "boolean"}}}}"#;
    assert!(validate(r#"[{"ok": true}, {"ok": false}]"#, s).is_empty());
    assert_eq!(
        validate(r#"[{"ok": true}, {"ok": 1}, {}]"#, s),
        [
            "$[1].ok: expected [\"boolean\"], got integer",
            "$[2]: missing required key \"ok\"",
        ]
    );
}

#[test]
fn a_type_list_accepts_any_member() {
    let s = r#"{"type": ["integer", "null"]}"#;
    assert!(validate("3", s).is_empty());
    assert!(validate("-3", s).is_empty());
    assert!(validate("null", s).is_empty());
    assert_eq!(
        validate("3.5", s),
        ["$: expected [\"integer\", \"null\"], got number"]
    );
    assert_eq!(validate("\"3\"", s).len(), 1);
}

/// An `additionalProperties` schema applies to every key `properties`
/// does not list, and not to those it does.
#[test]
fn additional_properties_schema_checks_unlisted_values() {
    let s = r#"{"type": "object", "properties": {"name": {"type": "string"}},
               "additionalProperties": {"type": "integer"}}"#;
    assert!(validate(r#"{"name": "a", "x": 1, "y": 2}"#, s).is_empty());
    assert_eq!(
        validate(r#"{"name": "a", "x": "1"}"#, s),
        ["$.x: expected [\"integer\"], got string"]
    );
    assert_eq!(validate(r#"{"name": 1}"#, s).len(), 1);
}

/// A value of the wrong type gets one message: the checks that assume the
/// type (enum, required keys, members) are not run on it.
#[test]
fn a_type_mismatch_is_reported_once() {
    let s = r#"{"type": "object", "required": ["a", "b"], "enum": [{}]}"#;
    assert_eq!(validate("[]", s), ["$: expected [\"object\"], got array"]);
}

#[test]
fn enum_compares_whole_values() {
    let s = r#"{"enum": ["bsd", "nilrp", 3]}"#;
    assert!(validate("\"bsd\"", s).is_empty());
    assert!(validate("3", s).is_empty());
    assert_eq!(validate("\"BSD\"", s).len(), 1);
    assert_eq!(validate("3.0", s).len(), 1, "3.0 is not the integer 3");
}

/// `maximum` bounds every numeric form and passes non-numbers by.
#[test]
fn maximum_applies_to_numbers_only() {
    let s = r#"{"maximum": 1}"#;
    for ok in ["1", "0.5", "-4", "\"99\"", "null", "[5]"] {
        assert!(validate(ok, s).is_empty(), "{ok}");
    }
    assert_eq!(validate("2", s), ["$: 2 exceeds maximum 1"]);
    assert_eq!(validate("1.5", s), ["$: 1.5 exceeds maximum 1"]);
}

/// Messages from nested objects carry the full path, and every violation
/// in a document is reported, not only the first.
#[test]
fn nested_violations_carry_their_path_and_all_are_reported() {
    let s = r#"{"type": "object", "properties": {"a": {"type": "object",
               "additionalProperties": false, "properties": {"b": {"maximum": 0}}}}}"#;
    assert_eq!(
        validate(r#"{"a": {"b": 1, "c": 0, "d": 0}}"#, s),
        [
            "$.a.b: 1 exceeds maximum 0",
            "$.a: unexpected key \"c\"",
            "$.a: unexpected key \"d\"",
        ]
    );
}

/// An empty schema accepts anything.
#[test]
fn an_empty_schema_accepts_every_value() {
    for v in [
        "null",
        "true",
        "1",
        "-1",
        "1.5",
        "\"s\"",
        "[1, [2]]",
        "{\"a\": {}}",
    ] {
        assert!(validate(v, "{}").is_empty(), "{v}");
    }
}
