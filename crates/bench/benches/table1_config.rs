//! Table I: the simulated system configuration.

use psa_experiments::runner;
use psa_sim::Json;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Table I — system configuration", &settings);
    println!("{}", settings.config.table1());
    let doc = runner::doc(
        "table1",
        "system configuration",
        &settings,
        Json::Arr(vec![]),
    );
    psa_bench::emit_json(&settings, "table1", &doc);
}
