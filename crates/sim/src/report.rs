//! Structured (JSON) export of simulation reports.
//!
//! Every single-core counter the simulator produces — [`RunReport`],
//! [`CacheStats`], [`DramStats`], [`ModuleStats`], [`BoundaryStats`] — can
//! be serialized to JSON through the hand-rolled [`Json`] value type, so
//! experiment harnesses emit machine-readable `BENCH_<figure>.json` files
//! with no external serialization dependency (the workspace builds with no
//! registry access).
//!
//! All counters come from the **measured window**: the simulator zeroes
//! each counter where warm-up ends (a core's own counters at its
//! crossing, the shared LLC and DRAM once every core is warm) and reads
//! it as it stands at the end, so two runs of different warm-up lengths
//! remain comparable.
//!
//! The module deliberately implements both a writer and a strict parser:
//! the parser exists so round-trip tests can hold the writer honest and so
//! downstream tooling written against this workspace can read the emitted
//! files back without a third-party crate.
//!
//! # Example
//!
//! ```
//! use psa_sim::report::Json;
//!
//! let doc = Json::obj([
//!     ("figure", Json::str("fig09")),
//!     ("rows", Json::Arr(vec![Json::uint(1), Json::uint(2)])),
//! ]);
//! let text = doc.to_string();
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! ```

use crate::metrics::RunReport;
use crate::SimConfig;
use psa_cache::CacheStats;
use psa_core::boundary::BoundaryStats;
use psa_core::ModuleStats;
use psa_dram::DramStats;
use std::fmt;

/// The largest integer magnitude a JSON number can carry without loss
/// (IEEE-754 double mantissa).
const MAX_SAFE_INT: u64 = 1 << 53;

/// A JSON value.
///
/// Objects preserve insertion order so emitted documents are stable and
/// diffable; numbers are IEEE-754 doubles, matching what any JSON consumer
/// will decode them to.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always a double, as in JSON itself).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned counter. Debug-asserts the value survives the trip
    /// through an IEEE double (all simulator counters do by a wide margin).
    pub fn uint(v: u64) -> Json {
        debug_assert!(v <= MAX_SAFE_INT, "counter {v} exceeds 2^53");
        Json::Num(v as f64)
    }

    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Append a field to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value)),
            _ => panic!("push on non-object Json"),
        }
    }

    /// Field lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number behind a `Num`, else `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string behind a `Str`, else `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements behind an `Arr`, else `None`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline — the
    /// format of the emitted `BENCH_*.json` files.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(pairs) => write_seq(out, indent, '{', '}', pairs.len(), |out, i, ind| {
                let (k, v) = &pairs[i];
                write_string(out, k);
                out.push(':');
                if ind.is_some() {
                    out.push(' ');
                }
                v.write(out, ind);
            }),
        }
    }

    /// Parse a JSON document. Strict: rejects trailing garbage, invalid
    /// escapes, and non-finite numbers.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    /// Compact (single-line) serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

fn write_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < MAX_SAFE_INT as f64 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|i| i + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(level) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        item(out, i, inner);
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

/// A parse failure: what was expected and the byte offset it failed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: &'static str,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            message,
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &'static str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u', "expected low surrogate")?;
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let v = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(v).ok_or_else(|| self.err("invalid codepoint"))?
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this
                    // char boundary walk cannot fail).
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    out.push_str(std::str::from_utf8(&rest[..len]).expect("valid utf8"));
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("invalid hex digit")),
            };
            v = v * 16 + u32::from(d);
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let v: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !v.is_finite() {
            return Err(self.err("non-finite number"));
        }
        Ok(Json::Num(v))
    }
}

/// Optional float: `null` when absent (e.g. accuracy with no completed
/// prefetches).
fn opt_num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

/// [`CacheStats`] as an object of counters (measured window).
pub fn cache_stats(s: &CacheStats) -> Json {
    Json::obj([
        ("demand_hits", Json::uint(s.demand_hits)),
        ("demand_misses", Json::uint(s.demand_misses)),
        ("prefetch_fills", Json::uint(s.prefetch_fills)),
        ("useful_prefetches", Json::uint(s.useful_prefetches)),
        ("useless_prefetches", Json::uint(s.useless_prefetches)),
        ("writebacks", Json::uint(s.writebacks)),
    ])
}

/// [`DramStats`] as an object of counters (measured window).
pub fn dram_stats(s: &DramStats) -> Json {
    Json::obj([
        ("reads", Json::uint(s.reads)),
        ("writes", Json::uint(s.writes)),
        ("row_hits", Json::uint(s.row_hits)),
        ("row_opens", Json::uint(s.row_opens)),
        ("row_conflicts", Json::uint(s.row_conflicts)),
        ("bus_busy_cycles", Json::uint(s.bus_busy_cycles)),
        ("prefetch_drops", Json::uint(s.prefetch_drops)),
    ])
}

/// [`ModuleStats`] as an object of issue-path counters.
pub fn module_stats(s: &ModuleStats) -> Json {
    Json::obj([
        ("accesses", Json::uint(s.accesses)),
        ("candidates", Json::uint(s.candidates)),
        ("issued", Json::uint(s.issued)),
        ("deduped", Json::uint(s.deduped)),
        ("issued_psa", Json::uint(s.issued_by[0])),
        ("issued_psa_2mb", Json::uint(s.issued_by[1])),
        ("selected_psa", Json::uint(s.selected_by[0])),
        ("selected_psa_2mb", Json::uint(s.selected_by[1])),
    ])
}

/// [`BoundaryStats`] as an object of legality counters plus the derived
/// discard probability (Figure 2's metric).
pub fn boundary_stats(s: &BoundaryStats) -> Json {
    Json::obj([
        ("candidates", Json::uint(s.candidates)),
        ("allowed", Json::uint(s.allowed)),
        (
            "discarded_cross_4k_in_huge",
            Json::uint(s.discarded_cross_4k_in_huge),
        ),
        ("discarded_out_of_page", Json::uint(s.discarded_out_of_page)),
        ("discard_probability", Json::Num(s.discard_probability())),
    ])
}

/// A [`RunReport`] as a self-describing object: raw counters per level plus
/// the derived headline metrics. The internal `debug` counters are not part
/// of the stable schema and are deliberately omitted.
pub fn run_report(r: &RunReport) -> Json {
    Json::obj([
        ("workload", Json::str(r.workload)),
        ("instructions", Json::uint(r.instructions)),
        ("cycles", Json::uint(r.cycles)),
        ("ipc", Json::Num(r.ipc())),
        ("l2c_mpki", Json::Num(r.l2c_mpki())),
        ("llc_mpki", Json::Num(r.llc_mpki())),
        ("l2c", cache_stats(&r.l2c)),
        ("llc", cache_stats(&r.llc)),
        ("dram", dram_stats(&r.dram)),
        ("module", r.module.as_ref().map_or(Json::Null, module_stats)),
        (
            "boundary",
            r.boundary.as_ref().map_or(Json::Null, boundary_stats),
        ),
        ("l2c_accuracy", opt_num(r.accuracy(r.l2c))),
        ("llc_accuracy", opt_num(r.accuracy(r.llc))),
        ("l2c_avg_latency", Json::Num(r.l2c_avg_latency)),
        ("llc_avg_latency", Json::Num(r.llc_avg_latency)),
        ("huge_usage", Json::Num(r.huge_usage)),
        (
            "thp_series",
            Json::Arr(
                r.thp_series
                    .iter()
                    .map(|&(at, frac)| Json::Arr(vec![Json::uint(at), Json::Num(frac)]))
                    .collect(),
            ),
        ),
    ])
}

/// The run-relevant [`SimConfig`] knobs, embedded in every emitted document
/// so a result file is interpretable on its own.
pub fn sim_config(c: &SimConfig) -> Json {
    Json::obj([
        ("cores", Json::uint(c.cores as u64)),
        ("warmup_instructions", Json::uint(c.warmup)),
        ("measured_instructions", Json::uint(c.instructions)),
        ("seed", Json::uint(c.seed)),
        ("l2c_mshr_entries", Json::uint(c.l2c.mshr_entries as u64)),
        ("llc_bytes", Json::uint(c.llc.bytes)),
        ("dram_mts", Json::uint(c.dram.mts)),
        ("sd_dedicated_sets", Json::uint(c.sd.dedicated_sets as u64)),
        ("sd_csel_bits", Json::uint(u64::from(c.sd.csel_bits))),
        ("watchdog_cycles", Json::uint(c.watchdog_cycles)),
    ])
}

/// Write `doc` to `path` in pretty form (the `BENCH_*.json` format).
pub fn write_json_file(path: &std::path::Path, doc: &Json) -> std::io::Result<()> {
    std::fs::write(path, doc.pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            workload: "lbm",
            instructions: 1000,
            cycles: 500,
            l2c: CacheStats {
                demand_hits: 7,
                demand_misses: 3,
                ..Default::default()
            },
            llc: CacheStats::default(),
            dram: DramStats {
                reads: 11,
                ..Default::default()
            },
            module: Some(ModuleStats {
                issued: 42,
                ..Default::default()
            }),
            boundary: None,
            l2c_avg_latency: 12.5,
            llc_avg_latency: 30.0,
            huge_usage: 0.75,
            thp_series: vec![(100, 0.5), (200, 0.75)],
            debug: psa_hier::PortDebug::default(),
        }
    }

    #[test]
    fn golden_compact_serialization() {
        let doc = Json::obj([
            ("name", Json::str("a\"b\\c\nd")),
            ("count", Json::uint(3)),
            ("ratio", Json::Num(0.5)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("arr", Json::Arr(vec![Json::uint(1), Json::Num(2.25)])),
            ("empty", Json::Obj(vec![])),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"name":"a\"b\\c\nd","count":3,"ratio":0.5,"flag":true,"none":null,"arr":[1,2.25],"empty":{}}"#
        );
    }

    #[test]
    fn pretty_round_trips() {
        let doc = Json::obj([
            (
                "rows",
                Json::Arr(vec![Json::obj([("x", Json::uint(1))]), Json::Null]),
            ),
            ("label", Json::str("π ≈ 3.14159")),
        ]);
        let parsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn run_report_round_trips_and_has_the_documented_fields() {
        let doc = run_report(&sample_report());
        let parsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed, doc);
        for field in [
            "workload",
            "instructions",
            "cycles",
            "ipc",
            "l2c_mpki",
            "llc_mpki",
            "l2c",
            "llc",
            "dram",
            "module",
            "boundary",
            "l2c_accuracy",
            "llc_accuracy",
            "l2c_avg_latency",
            "llc_avg_latency",
            "huge_usage",
            "thp_series",
        ] {
            assert!(doc.get(field).is_some(), "missing field {field}");
        }
        assert_eq!(doc.get("ipc").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("boundary"), Some(&Json::Null));
        assert_eq!(
            doc.get("module").unwrap().get("issued").unwrap().as_f64(),
            Some(42.0)
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "\"bad \\x escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v = Json::parse(r#"{"s":"aA\né","n":-1.5e2,"i":12}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("aA\né"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-150.0));
        assert_eq!(v.get("i").unwrap().as_f64(), Some(12.0));
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        let original = Json::str("clef: \u{1D11E}");
        let parsed = Json::parse(&original.to_string()).unwrap();
        assert_eq!(parsed, original);
        let escaped = Json::parse(r#""𝄞""#).unwrap();
        assert_eq!(escaped.as_str(), Some("\u{1D11E}"));
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let mut s = String::new();
        write_number(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }
}
