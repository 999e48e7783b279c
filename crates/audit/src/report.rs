//! The findings report `check --report` writes (the CI artifact uploaded
//! next to the bench JSON), and the JSON string quoting the `graph` and
//! `glossary` serializers share. Hand-rolled: this crate is
//! dependency-free.

use crate::rules::Finding;

/// Schema tag written into every findings report.
pub const SCHEMA: &str = "eblow-audit/2";

/// JSON string quoting (subset: the escapes paths and messages need).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes the full findings report.
pub fn report_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": {},\n", quote(SCHEMA)));
    s.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    s.push_str(&format!("  \"total\": {},\n", findings.len()));
    s.push_str("  \"findings\": [\n");
    let n = findings.len();
    for (k, f) in findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}{}\n",
            quote(f.rule),
            quote(&f.file),
            f.line,
            quote(&f.message),
            if k + 1 < n { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoting_escapes() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("tab\there\u{1}"), "\"tab\\there\\u0001\"");
    }
}
