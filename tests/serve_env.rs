//! `psa_serve serve` reads its `PSA_*` environment once, before binding:
//! a malformed variable is the typed error on stderr and exit code 2,
//! not a daemon whose every job submission panics.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn malformed_environment_exits_2_naming_the_variable() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_psa_serve"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .env("PSA_WARMUP", "10k")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("psa_serve starts");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on psa_serve") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("psa_serve booted despite a malformed PSA_WARMUP");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert_eq!(status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("PSA_WARMUP") && stderr.contains("10k"),
        "stderr names the variable and its value: {stderr}"
    );
}
