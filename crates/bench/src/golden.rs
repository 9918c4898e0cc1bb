//! The golden gate over the paper exhibits: a regenerated exhibit's JSON
//! payload against its committed golden under `goldens/`, with per-field
//! tolerances so the gate pins the *science* (knee position, search costs,
//! headline speedups) without being brittle about the last floating-point
//! digit.
//!
//! Every exhibit is seeded and deterministic, so any drift is a real
//! behaviour change in the policy/sim stack, not noise. `repro --check`
//! runs the gate; `repro --out goldens all` refreshes the goldens after an
//! intentional change.

use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::output::{load_json, Exhibit};

/// The committed goldens, `goldens/` at the workspace root.
pub fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens")
}

/// Compares `exhibit` against its golden in [`dir`], returning one
/// human-readable line per drifted field (empty when it matches).
///
/// # Errors
///
/// Returns the error reading or parsing the golden.
pub fn check(exhibit: &Exhibit) -> std::io::Result<Vec<String>> {
    let golden = load_json(&dir().join(format!("{}.json", exhibit.id)))?;
    Ok(compare(&golden, &exhibit.json))
}

/// Per-field comparison policy. Fields not listed must match exactly
/// (identifiers, settings, counts); listed fields carry the measurement
/// noise floor of their exhibit.
enum Tolerance {
    Exact,
    /// |golden − actual| ≤ eps.
    Abs(f64),
    /// |golden − actual| ≤ eps · max(|golden|, |actual|).
    Rel(f64),
}

fn tolerance_for(field: &str, path: &str) -> Tolerance {
    // table1 repeats the paper's own numbers next to the regenerated ones,
    // under the same field names: those are constants.
    if path.contains(".paper.") {
        return Tolerance::Exact;
    }
    match field {
        // fig5/fig8: converged accuracies (deterministic seeds; the
        // tolerance absorbs float-association drift while still pinning
        // the knee, whose features are ~0.015-0.03 wide, and fig8's
        // momentum-variant ordering, whose spread is ~0.04).
        "mean" | "std" | "accuracy" => Tolerance::Abs(0.01),
        // fig8 panel (a): simulated BSP throughput at two global batch
        // sizes — deterministic, but ratio (not digits) is the claim.
        "throughput_img_s" => Tolerance::Rel(0.05),
        // table2: Monte-Carlo cost ratios over 1000 trials.
        "search_cost" | "amortized" | "effective_training" => Tolerance::Rel(0.10),
        "success_probability" => Tolerance::Abs(0.05),
        // table1: speedup ratios of simulated runs — deterministic, and
        // the ratio is the claim.
        "throughput_vs_asp" | "throughput_vs_bsp" | "tta_vs_bsp" => Tolerance::Rel(0.05),
        _ => Tolerance::Exact,
    }
}

/// Compares `golden` with `actual`, returning one mismatch description
/// (with its JSON path) per drifted field.
pub fn compare(golden: &Value, actual: &Value) -> Vec<String> {
    let mut out = Vec::new();
    compare_at("", "", golden, actual, &mut out);
    out
}

fn compare_at(field: &str, path: &str, golden: &Value, actual: &Value, out: &mut Vec<String>) {
    match (golden, actual) {
        (Value::Object(g), Value::Object(a)) => {
            for (k, gv) in g {
                match actual.get(k) {
                    Some(av) => compare_at(k, &format!("{path}.{k}"), gv, av, out),
                    None => out.push(format!("{path}.{k}: missing from regenerated exhibit")),
                }
            }
            for (k, _) in a {
                if golden.get(k).is_none() {
                    out.push(format!("{path}.{k}: not present in golden"));
                }
            }
        }
        (Value::Array(g), Value::Array(a)) => {
            if g.len() != a.len() {
                out.push(format!(
                    "{path}: length {} in golden vs {} regenerated",
                    g.len(),
                    a.len()
                ));
                return;
            }
            for (i, (gv, av)) in g.iter().zip(a).enumerate() {
                compare_at(field, &format!("{path}[{i}]"), gv, av, out);
            }
        }
        // Numbers compare under the field's tolerance, whether the exact
        // JSON representation is integral or floating.
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            let (Some(gx), Some(ax)) = (golden.as_f64(), actual.as_f64()) else {
                unreachable!("numeric variants always convert to f64");
            };
            let ok = match tolerance_for(field, path) {
                Tolerance::Exact => gx == ax,
                Tolerance::Abs(eps) => (gx - ax).abs() <= eps,
                Tolerance::Rel(eps) => (gx - ax).abs() <= eps * gx.abs().max(ax.abs()),
            };
            if !ok {
                out.push(format!("{path}: golden {gx} vs regenerated {ax}"));
            }
        }
        _ => {
            if golden != actual {
                out.push(format!(
                    "{path}: golden {golden:?} vs regenerated {actual:?}"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn goldens_pin_every_exhibit_and_nothing_else() {
        let mut stems: Vec<String> = std::fs::read_dir(dir())
            .expect("goldens/ is readable")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        stems.sort();
        let mut ids: Vec<String> = crate::exhibits::ALL
            .iter()
            .map(|(id, _)| id.to_string())
            .collect();
        ids.sort();
        assert_eq!(stems, ids, "goldens/*.json stems vs the exhibit registry");
    }

    #[test]
    fn abs_bound_is_inclusive_and_enforced() {
        let golden = json!({"accuracy": 0.5});
        assert!(compare(&golden, &json!({"accuracy": 0.509})).is_empty());
        let drift = compare(&golden, &json!({"accuracy": 0.511}));
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].starts_with(".accuracy:"), "{drift:?}");
    }

    #[test]
    fn rel_bound_scales_with_the_value() {
        let golden = json!({"rows": [{"search_cost": 100.0}]});
        assert!(compare(&golden, &json!({"rows": [{"search_cost": 109.0}]})).is_empty());
        let drift = compare(&golden, &json!({"rows": [{"search_cost": 112.0}]}));
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].starts_with(".rows[0].search_cost:"), "{drift:?}");
    }

    #[test]
    fn unlisted_fields_are_exact() {
        let golden = json!({"switches": 3, "label": "BSP"});
        assert!(compare(&golden, &json!({"switches": 3.0, "label": "BSP"})).is_empty());
        assert_eq!(
            compare(&golden, &json!({"switches": 3.000001, "label": "ASP"})).len(),
            2
        );
    }

    #[test]
    fn paper_constants_are_held_exact() {
        let golden = json!({"rows": [{"paper": {"tta_vs_bsp": 3.0}, "tta_vs_bsp": 3.0}]});
        // The regenerated ratio may move within its 5 % bound...
        assert!(compare(
            &golden,
            &json!({"rows": [{"paper": {"tta_vs_bsp": 3.0}, "tta_vs_bsp": 3.1}]})
        )
        .is_empty());
        // ...the paper's own number under the same field name may not.
        let drift = compare(
            &golden,
            &json!({"rows": [{"paper": {"tta_vs_bsp": 3.1}, "tta_vs_bsp": 3.0}]}),
        );
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(
            drift[0].starts_with(".rows[0].paper.tta_vs_bsp:"),
            "{drift:?}"
        );
    }

    #[test]
    fn shape_changes_are_named() {
        let golden = json!({"a": 1, "b": [1, 2]});
        let missing = compare(&golden, &json!({"b": [1, 2]}));
        assert_eq!(missing, [".a: missing from regenerated exhibit"]);
        let extra = compare(&golden, &json!({"a": 1, "b": [1, 2], "c": 0}));
        assert_eq!(extra, [".c: not present in golden"]);
        let resized = compare(&golden, &json!({"a": 1, "b": [1, 2, 3]}));
        assert_eq!(resized, [".b: length 2 in golden vs 3 regenerated"]);
    }
}
