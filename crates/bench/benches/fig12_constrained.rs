//! Figure 12: constrained evaluation (MSHR / LLC / DRAM sweeps).

use psa_experiments::fig12;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Figure 12", &settings);
    let (text, doc) = fig12::report(&settings);
    println!("{text}");
    psa_bench::emit_json(&settings, "fig12", &doc);
}
