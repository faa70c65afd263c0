//! The variant label vocabulary is an API: serve specs, document keys
//! and golden digests all speak it. Two fixtures pin it down:
//!
//! - `label` ↔ `parse` round-trips over the full [`Variant::all`] domain,
//!   so every label the runner can emit is accepted back verbatim;
//! - the enumeration order itself is golden — appending a family to
//!   `PrefetcherKind::ALL` may only ever *extend* the list, never reorder
//!   or relabel what earlier releases emitted.
//!
//! Regenerate after intentionally extending the family set with:
//!
//! ```text
//! PSA_UPDATE_GOLDEN=1 cargo test -p psa-experiments --test variant_labels
//! ```

use psa_experiments::runner::Variant;

#[test]
fn labels_round_trip_through_parse_over_the_full_domain() {
    let all = Variant::all();
    for v in &all {
        let label = v.label();
        assert_eq!(
            Variant::parse(&label),
            Some(*v),
            "label {label:?} does not parse back to its variant"
        );
    }
    // Labels are unique — parse would silently shadow a variant otherwise.
    let mut labels: Vec<String> = all.iter().map(Variant::label).collect();
    labels.sort();
    labels.dedup();
    assert_eq!(labels.len(), all.len(), "duplicate variant labels");
    // And unknown labels stay unknown.
    for junk in ["", "SPP-", "spp", "SPP-PSA-4MB", "Pangloss-Magic-4MB"] {
        assert_eq!(Variant::parse(junk), None, "{junk:?} parsed unexpectedly");
    }
}

#[test]
fn variant_order_matches_golden_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/variants.txt");
    let current: String = Variant::all()
        .iter()
        .map(|v| format!("{}\n", v.label()))
        .collect();
    psa_experiments::golden::check(path, &current);
}
