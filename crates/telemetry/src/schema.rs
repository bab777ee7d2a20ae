//! A minimal structural validator for the experiment-results JSON.
//!
//! Implements the JSON-Schema subset the checked-in
//! `schemas/results.schema.json` uses: `type` (scalar or list),
//! `required`, `properties`, `items`, `additionalProperties` (a schema
//! applied to keys not listed in `properties`, or `false` to reject
//! them), `enum` (scalar
//! members) and `maximum`. Enough for CI to reject malformed reports
//! without pulling in an external validator.

use crate::json::Json;

/// Validates `value` against `schema`, returning every violation found
/// (empty = valid). `path` is the JSON-pointer-ish location prefix used
/// in messages; pass `"$"` at the root.
pub fn validate(value: &Json, schema: &Json, path: &str) -> Vec<String> {
    let mut errs = Vec::new();
    check(value, schema, path, &mut errs);
    errs
}

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "boolean",
        Json::U64(_) | Json::I64(_) => "integer",
        Json::F64(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn matches_type(v: &Json, t: &str) -> bool {
    match t {
        // Integers are numbers too, as in JSON Schema.
        "number" => matches!(v, Json::U64(_) | Json::I64(_) | Json::F64(_)),
        other => type_name(v) == other,
    }
}

fn check(value: &Json, schema: &Json, path: &str, errs: &mut Vec<String>) {
    if let Some(t) = schema.get("type") {
        let allowed: Vec<&str> = match t {
            Json::Str(s) => vec![s.as_str()],
            Json::Arr(items) => items.iter().filter_map(Json::as_str).collect(),
            _ => Vec::new(),
        };
        if !allowed.is_empty() && !allowed.iter().any(|t| matches_type(value, t)) {
            errs.push(format!(
                "{path}: expected {allowed:?}, got {}",
                type_name(value)
            ));
            return;
        }
    }
    if let Some(allowed) = schema.get("enum").and_then(Json::as_arr) {
        if !allowed.contains(value) {
            errs.push(format!("{path}: {value:?} not in enum {allowed:?}"));
            return;
        }
    }
    if let Some(max) = schema.get("maximum").and_then(Json::as_f64) {
        match value.as_f64() {
            Some(v) if v > max => {
                errs.push(format!("{path}: {v} exceeds maximum {max}"));
            }
            _ => {}
        }
    }
    if let Some(req) = schema.get("required").and_then(Json::as_arr) {
        for name in req.iter().filter_map(Json::as_str) {
            if value.get(name).is_none() {
                errs.push(format!("{path}: missing required key \"{name}\""));
            }
        }
    }
    let props = schema.get("properties").and_then(Json::as_obj);
    if let Some(pairs) = value.as_obj() {
        for (key, val) in pairs {
            let sub = props.and_then(|p| p.iter().find(|(k, _)| k == key).map(|(_, s)| s));
            match sub.or_else(|| schema.get("additionalProperties")) {
                Some(Json::Bool(false)) => errs.push(format!("{path}: unexpected key \"{key}\"")),
                Some(sub) => check(val, sub, &format!("{path}.{key}"), errs),
                None => {}
            }
        }
    }
    if let (Some(items), Some(arr)) = (schema.get("items"), value.as_arr()) {
        for (i, item) in arr.iter().enumerate() {
            check(item, items, &format!("{path}[{i}]"), errs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Json {
        Json::parse(
            r#"{
              "type": "object",
              "required": ["experiment", "hosts"],
              "properties": {
                "experiment": {"type": "string"},
                "hosts": {
                  "type": "array",
                  "items": {
                    "type": "object",
                    "required": ["conserved"],
                    "properties": {"conserved": {"type": "boolean"}}
                  }
                }
              }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn accepts_conforming_document() {
        let doc =
            Json::parse(r#"{"experiment": "fig3", "hosts": [{"conserved": true, "extra": 1}]}"#)
                .unwrap();
        assert_eq!(validate(&doc, &schema(), "$"), Vec::<String>::new());
    }

    #[test]
    fn reports_missing_required_and_wrong_types() {
        let doc = Json::parse(r#"{"experiment": 3, "hosts": [{"conserved": "yes"}]}"#).unwrap();
        let errs = validate(&doc, &schema(), "$");
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].contains("$.experiment"));
        assert!(errs[1].contains("$.hosts[0].conserved"));
    }

    #[test]
    fn enum_accepts_member_rejects_other() {
        let s = Json::parse(r#"{"enum": ["none", "syncache", "cookies"]}"#).unwrap();
        assert!(validate(&Json::str("cookies"), &s, "$").is_empty());
        let errs = validate(&Json::str("guess"), &s, "$");
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("not in enum"));
    }

    #[test]
    fn maximum_bounds_numbers() {
        let s = Json::parse(r#"{"type": "number", "maximum": 0.1}"#).unwrap();
        assert!(validate(&Json::F64(0.063), &s, "$").is_empty());
        assert!(validate(&Json::F64(0.1), &s, "$").is_empty());
        let errs = validate(&Json::F64(0.129), &s, "$");
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("exceeds maximum"));
    }

    #[test]
    fn integer_satisfies_number() {
        let s = Json::parse(r#"{"type": "number"}"#).unwrap();
        assert!(validate(&Json::U64(5), &s, "$").is_empty());
        assert!(validate(&Json::F64(5.5), &s, "$").is_empty());
        assert!(!validate(&Json::str("5"), &s, "$").is_empty());
    }

    #[test]
    fn additional_properties_false_rejects_unlisted_keys() {
        let s = Json::parse(
            r#"{"type": "object", "properties": {"a": {"type": "integer"}},
                "additionalProperties": false}"#,
        )
        .unwrap();
        assert!(validate(&Json::parse(r#"{"a": 1}"#).unwrap(), &s, "$").is_empty());
        let errs = validate(&Json::parse(r#"{"a": 1, "b": 2}"#).unwrap(), &s, "$");
        assert_eq!(errs, ["$: unexpected key \"b\""]);
    }

    /// The committed envelope admits exactly the keys `histogram_json`
    /// writes for a latency stage, and nothing beside them.
    #[test]
    fn results_schema_pins_the_latency_shape() {
        let envelope = Json::parse(include_str!("../../../schemas/results.schema.json")).unwrap();
        let stage = [
            "hosts",
            "additionalProperties",
            "items",
            "properties",
            "latency_ns",
        ]
        .iter()
        .try_fold(&envelope, |s, k| {
            s.get(k).or_else(|| s.get("properties")?.get(k))
        })
        .and_then(|s| s.get("additionalProperties"))
        .expect("latency stage schema");
        let mut h = lrp_sim::Histogram::new();
        h.record(12_345);
        let mut doc = crate::histogram_json(&h);
        assert!(validate(&doc, stage, "$").is_empty());
        assert!(validate(
            &crate::histogram_json(&lrp_sim::Histogram::new()),
            stage,
            "$"
        )
        .is_empty());
        if let Json::Obj(members) = &mut doc {
            members.push(("p9999".to_string(), Json::U64(12_345)));
        }
        assert_eq!(validate(&doc, stage, "$"), ["$: unexpected key \"p9999\""]);
    }
}
