//! Figure 2: probability a prefetch is discarded for crossing 4KB inside a
//! 2MB page, for the original prefetchers.

use psa_experiments::fig02;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Figure 2", &settings);
    let (text, doc) = fig02::report(&settings);
    println!("{text}");
    psa_bench::emit_json(&settings, "fig02", &doc);
}
