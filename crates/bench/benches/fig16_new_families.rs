//! Figure 16: Pangloss and DSPatch vs SPP across the PSA policy matrix.

use psa_experiments::fig16;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Figure 16", &settings);
    let (text, doc) = fig16::report(&settings);
    println!("{text}");
    psa_bench::emit_json(&settings, "fig16", &doc);
}
