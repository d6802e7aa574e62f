//! The little JSON the benchmark writes (no dependencies).

use crate::metrics::MetricSpec;

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`
/// (Rust's shortest round-trip rendering; finite values only).
pub fn metrics(entries: &[(MetricSpec, f64)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(spec, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                string(spec.name),
                v,
                string(spec.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}
