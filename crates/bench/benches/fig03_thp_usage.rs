//! Figure 3: memory mapped in 2MB pages across execution.

use psa_experiments::fig03;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Figure 3", &settings);
    let (text, doc) = fig03::report(&settings);
    println!("{text}");
    psa_bench::emit_json(&settings, "fig03", &doc);
}
