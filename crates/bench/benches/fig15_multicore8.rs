//! Figure 15: 8-core weighted speedups over random mixes.

use psa_experiments::fig1415;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Figure 15 (8-core)", &settings);
    println!(
        "mixes: {} (PSA_MIXES to scale; the paper uses 100)\n",
        settings.mixes()
    );
    let (text, doc) = fig1415::report(&settings, 8);
    println!("{text}");
    psa_bench::emit_json(&settings, "fig15", &doc);
}
