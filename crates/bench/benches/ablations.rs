//! Set-Dueling shape ablations (dedicated sets, Csel width).

use psa_experiments::ablations;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Ablations — Set-Dueling shape", &settings);
    let (text, doc) = ablations::report(&settings);
    println!("{text}");
    psa_bench::emit_json(&settings, "ablations", &doc);
}
