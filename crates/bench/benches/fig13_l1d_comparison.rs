//! Figure 13: comparison with state-of-the-art L1D prefetching.

use psa_experiments::fig13;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Figure 13", &settings);
    let (text, doc) = fig13::report(&settings);
    println!("{text}");
    psa_bench::emit_json(&settings, "fig13", &doc);
}
