//! Figure 8: per-workload speedups of the SPP PSA variants.

use psa_experiments::fig08;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Figure 8", &settings);
    let (text, doc) = fig08::report(&settings);
    println!("{text}");
    psa_bench::emit_json(&settings, "fig08", &doc);
}
