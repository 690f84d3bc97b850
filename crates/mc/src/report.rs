//! Stable machine-readable output for `er-mc`, mirroring `er-lint`'s JSON
//! conventions: hand-rolled rendering, escaped strings, a fixed key set
//! that CI can depend on.

use crate::checker::{CheckReport, Model, PropertyKind};

fn json_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The stable schema: one object with exploration totals and a
/// per-property array with exactly the keys `property`, `kind`, `holds`,
/// and `counterexample` (an array of replayable event strings, empty when
/// the property holds).
pub fn render_json<M: Model>(bound: &str, report: &CheckReport<M>) -> String {
    let mut out = String::from("{\n  \"bound\": ");
    json_escaped(bound, &mut out);
    out.push_str(&format!(
        ",\n  \"states\": {},\n  \"max_depth\": {},\n  \"terminals\": {},\n  \"truncated\": {},\n  \"properties\": [\n",
        report.states, report.max_depth, report.terminals, report.truncated
    ));
    for (i, p) in report.properties.iter().enumerate() {
        out.push_str("    {\"property\": ");
        json_escaped(p.name, &mut out);
        out.push_str(", \"kind\": ");
        json_escaped(
            match p.kind {
                PropertyKind::Always => "always",
                PropertyKind::EventuallyTerminal => "eventually_terminal",
            },
            &mut out,
        );
        out.push_str(&format!(
            ", \"holds\": {}, \"counterexample\": [",
            p.counterexample.is_none()
        ));
        if let Some(cx) = &p.counterexample {
            for (j, action) in cx.actions.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                json_escaped(&format!("{action:?}"), &mut out);
            }
        }
        out.push_str("]}");
        out.push_str(if i + 1 < report.properties.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check, Bounds, Property};

    #[derive(Debug)]
    struct Two;

    impl Model for Two {
        type State = u8;
        type Action = u8;

        fn init(&self) -> u8 {
            0
        }

        fn actions(&self, s: &u8, out: &mut Vec<u8>) {
            if *s < 2 {
                out.push(1);
            }
        }

        fn next(&self, s: &u8, a: &u8) -> Option<u8> {
            (*s < 2).then_some(s + a)
        }
    }

    #[test]
    fn json_has_the_stable_keys_and_valid_shape() {
        let props = [
            Property {
                name: "never_two",
                kind: crate::checker::PropertyKind::Always,
                check: |_: &Two, s: &u8| *s != 2,
            },
            Property {
                name: "ends_at_two",
                kind: crate::checker::PropertyKind::EventuallyTerminal,
                check: |_: &Two, s: &u8| *s == 2,
            },
        ];
        let report = check(&Two, &props, Bounds::default());
        let json = render_json("tiny", &report);
        for key in [
            "\"bound\"",
            "\"states\"",
            "\"max_depth\"",
            "\"terminals\"",
            "\"truncated\"",
            "\"property\"",
            "\"kind\"",
            "\"holds\"",
            "\"counterexample\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"holds\": false"));
        assert!(json.contains("\"holds\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
