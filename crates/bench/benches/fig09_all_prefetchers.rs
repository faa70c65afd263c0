//! Figure 9: per-suite geomeans for all four prefetchers.

use psa_experiments::fig09;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Figure 9", &settings);
    let (text, doc) = fig09::report(&settings);
    println!("{text}");
    psa_bench::emit_json(&settings, "fig09", &doc);
}
