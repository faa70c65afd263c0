//! Trace replay: the SPP ladder over a streamed `.psatrace` recording
//! (the committed sample fixture, or `PSA_TRACE_FILE`).

use psa_experiments::trace_replay;

fn main() {
    let settings = psa_bench::settings();
    psa_bench::banner("Trace replay", &settings);
    let (text, doc) = trace_replay::report(&settings);
    println!("{text}");
    psa_bench::emit_json(&settings, "trace_replay", &doc);
}
