//! Command-line entry points for the `psa_serve` binary.
//!
//! * `psa_serve serve [--addr A] [--workers N] [--queue-capacity N]
//!   [--max-body-bytes N] [--job-delay-ms N] [--port-file PATH]` —
//!   run the daemon until SIGTERM/SIGINT, then drain and exit 0. The
//!   `PSA_*` environment is read once, before binding: a malformed
//!   variable prints the typed error and exits 2.
//! * `psa_serve client METHOD URL [--body JSON]` — issue one request
//!   (CI and scripting; no external HTTP tools needed). Prints the
//!   response body to stdout; exits non-zero on a 4xx/5xx status.

use crate::{http, signal, RunningServer, ServerConfig};
use psa_experiments::RunnerOptions;
use std::time::Duration;

/// Run the CLI; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        _ => {
            eprintln!("usage: psa_serve serve [flags] | psa_serve client METHOD URL [--body JSON]");
            eprintln!("flags: --addr A --workers N --queue-capacity N --max-body-bytes N");
            eprintln!("       --job-delay-ms N --port-file PATH");
            2
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag_value(args, name)?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{name} value {v:?} does not parse"))
        })
        .transpose()
}

fn serve(args: &[String]) -> i32 {
    let mut config = ServerConfig::default();
    let port_file = match serve_config(args, &mut config) {
        Ok(port_file) => port_file,
        Err(e) => {
            eprintln!("psa_serve: {e}");
            return 2;
        }
    };
    config.options = match RunnerOptions::from_env() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("psa_serve: {e}");
            return 2;
        }
    };
    signal::install();
    let server = match RunningServer::spawn(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("psa_serve: bind failed: {e}");
            return 1;
        }
    };
    println!("psa_serve listening on {}", server.addr);
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", server.addr.port())) {
            eprintln!("psa_serve: writing port file {path:?} failed: {e}");
            server.shutdown();
            return 1;
        }
    }
    while !signal::terminated() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("draining {} jobs", server.outstanding());
    server.shutdown();
    println!("shutdown complete");
    0
}

fn serve_config(args: &[String], config: &mut ServerConfig) -> Result<Option<String>, String> {
    if let Some(addr) = flag_value(args, "--addr")? {
        config.addr = addr.to_string();
    }
    if let Some(workers) = parsed_flag(args, "--workers")? {
        config.workers = workers;
    }
    if let Some(capacity) = parsed_flag(args, "--queue-capacity")? {
        config.queue_capacity = capacity;
    }
    if let Some(max_body) = parsed_flag(args, "--max-body-bytes")? {
        config.max_body_bytes = max_body;
    }
    if let Some(delay_ms) = parsed_flag::<u64>(args, "--job-delay-ms")? {
        config.job_delay = Duration::from_millis(delay_ms);
    }
    Ok(flag_value(args, "--port-file")?.map(String::from))
}

fn client(args: &[String]) -> i32 {
    let (Some(method), Some(url)) = (args.first(), args.get(1)) else {
        eprintln!("usage: psa_serve client METHOD URL [--body JSON]");
        return 2;
    };
    let Some((addr, path)) = split_url(url) else {
        eprintln!("psa_serve: URL must look like http://host:port/path");
        return 2;
    };
    let body = match flag_value(args, "--body") {
        Ok(body) => body.map(str::as_bytes),
        Err(e) => {
            eprintln!("psa_serve: {e}");
            return 2;
        }
    };
    match http::request(addr, &method.to_ascii_uppercase(), path, body) {
        Ok(resp) => {
            let mut out = std::io::stdout().lock();
            use std::io::Write;
            let _ = out.write_all(&resp.body);
            let _ = out.flush();
            if resp.status < 400 {
                0
            } else {
                eprintln!("psa_serve: HTTP {}", resp.status);
                1
            }
        }
        Err(e) => {
            eprintln!("psa_serve: request failed: {e}");
            1
        }
    }
}

fn split_url(url: &str) -> Option<(&str, &str)> {
    let rest = url.strip_prefix("http://")?;
    let slash = rest.find('/')?;
    Some((&rest[..slash], &rest[slash..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_splits_into_addr_and_path() {
        assert_eq!(
            split_url("http://127.0.0.1:8080/jobs/j1"),
            Some(("127.0.0.1:8080", "/jobs/j1"))
        );
        assert_eq!(split_url("https://x/y"), None);
        assert_eq!(split_url("http://no-path"), None);
    }

    #[test]
    fn serve_flags_parse_and_reject() {
        let mut config = ServerConfig::default();
        let args: Vec<String> = [
            "--addr",
            "0.0.0.0:9999",
            "--workers",
            "3",
            "--queue-capacity",
            "5",
            "--job-delay-ms",
            "250",
            "--port-file",
            "/tmp/port",
        ]
        .map(String::from)
        .to_vec();
        let port_file = serve_config(&args, &mut config).expect("valid flags");
        assert_eq!(config.addr, "0.0.0.0:9999");
        assert_eq!(config.workers, 3);
        assert_eq!(config.queue_capacity, 5);
        assert_eq!(config.job_delay, Duration::from_millis(250));
        assert_eq!(port_file.as_deref(), Some("/tmp/port"));
        let bad: Vec<String> = ["--workers", "many"].map(String::from).to_vec();
        assert!(serve_config(&bad, &mut config).is_err());
        let dangling: Vec<String> = ["--addr"].map(String::from).to_vec();
        assert!(serve_config(&dangling, &mut config).is_err());
    }
}
