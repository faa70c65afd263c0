//! Figure 10: sources of improvement (latency, coverage, accuracy).

use psa_experiments::fig10;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Figure 10", &settings);
    let (text, doc) = fig10::report(&settings);
    println!("{text}");
    psa_bench::emit_json(&settings, "fig10", &doc);
}
