//! Figure 14: 4-core weighted speedups over random mixes.

use psa_experiments::fig1415;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Figure 14 (4-core)", &settings);
    println!(
        "mixes: {} (PSA_MIXES to scale; the paper uses 100)\n",
        settings.mixes()
    );
    let (text, doc) = fig1415::report(&settings, 4);
    println!("{text}");
    psa_bench::emit_json(&settings, "fig14", &doc);
}
