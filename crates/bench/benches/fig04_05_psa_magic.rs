//! Figures 4 & 5: the motivation study (SPP vs magic page-size awareness).

use psa_experiments::fig0405;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Figures 4 & 5", &settings);
    let (text, doc) = fig0405::report(&settings);
    println!("{text}");
    psa_bench::emit_json(&settings, "fig0405", &doc);
}
