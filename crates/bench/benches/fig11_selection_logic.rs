//! Figure 11: selection-logic ablation + ISO storage.

use psa_experiments::fig11;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Figure 11", &settings);
    let (text, doc) = fig11::report(&settings);
    println!("{text}");
    psa_bench::emit_json(&settings, "fig11", &doc);
}
