//! §VI-B1: the non-intensive workload augmentation ("no harm" check).

use psa_experiments::nonintensive;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("§VI-B1 non-intensive augmentation", &settings);
    let (text, doc) = nonintensive::report(&settings);
    println!("{text}");
    psa_bench::emit_json(&settings, "nonintensive", &doc);
}
