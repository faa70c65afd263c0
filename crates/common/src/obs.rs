//! Zero-cost-when-disabled observability primitives.
//!
//! Every component of the simulated machine (core, caches, DRAM, the PSA
//! prefetching module) owns a handful of these primitives; the simulator
//! enables them all when [`ObsConfig::enabled`] is set and leaves them
//! disabled (the default) otherwise. A disabled primitive is one `bool`
//! test per hook — no allocation, no arithmetic, no side effects — so
//! instrumented runs with observability off remain bit-identical to
//! uninstrumented builds and pay effectively nothing in wall time.
//!
//! Three kinds of primitive exist:
//!
//! * [`Counter`] — a monotonically increasing event count;
//! * [`Histogram`] — a power-of-two-bucketed latency/occupancy
//!   distribution with exact `total`/`sum`/`max` moments, so its totals
//!   can be reconciled against the aggregate report counters;
//! * [`EventRing`] — a sampling ring buffer of structured [`Event`]s,
//!   exportable as Chrome `trace_event` JSON
//!   ([`ObsReport::to_chrome_trace`]) for timeline inspection in
//!   `chrome://tracing` / Perfetto.
//!
//! Observability state is *never* part of the checkpoint byte stream:
//! it is reset at the warm-up boundary so that, like every report
//! counter, it covers exactly the measured window, whether the run
//! warmed up cold or restored a checkpoint.
//!
//! # Example
//!
//! ```
//! use psa_common::obs::{Counter, Histogram};
//!
//! let mut h = Histogram::new(true);
//! h.record(3);
//! h.record(900);
//! assert_eq!(h.total(), 2);
//! assert_eq!(h.sum(), 903);
//! assert_eq!(h.max(), 900);
//!
//! let mut off = Counter::disabled();
//! off.inc();
//! assert_eq!(off.get(), 0, "disabled primitives observe nothing");
//! ```

/// Observability configuration, carried by the simulator's `SimConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch. When false (the default) every hook in the machine
    /// is a no-op and runs are bit-identical to an uninstrumented build.
    pub enabled: bool,
    /// Capacity of the structured-event ring buffer; once full, the
    /// oldest events are overwritten.
    pub ring_capacity: u32,
    /// Sampling period for high-frequency events (retires, cache misses,
    /// MSHR traffic): one in `sample_every` is recorded. Rare events
    /// (watchdog snapshots) are always recorded.
    pub sample_every: u32,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            ring_capacity: 4096,
            sample_every: 64,
        }
    }
}

impl ObsConfig {
    /// The layer switched fully on with default ring/sampling shape.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Validate the shape; both knobs must be positive when enabled.
    ///
    /// # Errors
    ///
    /// Returns a static description of the offending knob.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.enabled && self.ring_capacity == 0 {
            return Err("obs: ring_capacity must be positive");
        }
        if self.enabled && self.sample_every == 0 {
            return Err("obs: sample_every must be positive");
        }
        Ok(())
    }
}

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter {
    on: bool,
    n: u64,
}

impl Counter {
    /// A counter in the given state.
    pub fn new(on: bool) -> Self {
        Self { on, n: 0 }
    }

    /// A permanently silent counter (the default state of every hook).
    pub const fn disabled() -> Self {
        Self { on: false, n: 0 }
    }

    /// Whether this counter records anything.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Count one event.
    #[inline]
    pub fn inc(&mut self) {
        if self.on {
            self.n += 1;
        }
    }

    /// Count `k` events.
    #[inline]
    pub fn add(&mut self, k: u64) {
        if self.on {
            self.n += k;
        }
    }

    /// The count so far.
    pub fn get(&self) -> u64 {
        self.n
    }

    /// Zero the count (used at the warm-up boundary so counters cover
    /// exactly the measured window).
    pub fn reset(&mut self) {
        self.n = 0;
    }
}

/// Number of power-of-two buckets (zero bucket + one per bit); covers
/// the full `u64` value range.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` counts samples `v` with `floor(log2(v)) == i - 1`
/// (bucket 0 counts `v == 0`), so bucket boundaries are
/// `0, 1, 2, 4, 8, …` — coarse in absolute terms but exact in the
/// moments: `total`, `sum` and `max` are tracked precisely and are the
/// values reconciliation tests compare against aggregate counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    on: bool,
    buckets: [u64; HIST_BUCKETS],
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Histogram {
    /// A histogram in the given state.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            buckets: [0; HIST_BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// A permanently silent histogram.
    pub const fn disabled() -> Self {
        Self {
            on: false,
            buckets: [0; HIST_BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Whether this histogram records anything.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        if !self.on {
            return;
        }
        let bucket = match v {
            0 => 0,
            _ => v.ilog2() as usize + 1,
        };
        self.buckets[bucket] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 with no samples.
    #[allow(clippy::cast_precision_loss)]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Clear all samples (warm-up boundary reset).
    pub fn reset(&mut self) {
        self.buckets = [0; HIST_BUCKETS];
        self.total = 0;
        self.sum = 0;
        self.max = 0;
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs, in
    /// ascending order. Bucket 0 has lower bound 0; bucket `i > 0`
    /// spans `[2^(i-1), 2^i)`.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
            .collect()
    }

    /// A self-contained summary for export.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            total: self.total,
            sum: self.sum,
            max: self.max,
            mean: self.mean(),
            buckets: self.nonzero_buckets(),
        }
    }
}

/// Exportable snapshot of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Number of samples.
    pub total: u64,
    /// Exact sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Mean sample (0.0 when empty).
    pub mean: f64,
    /// Non-empty `(bucket_lower_bound, count)` pairs.
    pub buckets: Vec<(u64, u64)>,
}

/// The structured event vocabulary of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A core retired an instruction (`arg` = instructions retired so far).
    Retire,
    /// An L2C demand access missed (`arg` = physical line).
    L2cMiss,
    /// An MSHR entry was allocated (`arg` = occupancy after allocation).
    MshrAlloc,
    /// An MSHR entry drained/freed (`arg` = occupancy after the drain).
    MshrFree,
    /// The PSA module issued a prefetch (`arg` = physical line).
    PrefetchIssue,
    /// A prefetched block filled into a cache (`arg` = physical line).
    PrefetchFill,
    /// Set-Dueling selected a competitor on a leader set
    /// (`arg` = competitor id: 0 PSA, 1 PSA-2MB).
    SdSelect,
    /// The forward-progress watchdog fired (`arg` = cycles since the last
    /// progress event). Always recorded, never sampled.
    Watchdog,
}

/// Number of [`EventKind`] variants (per-kind sampling accounting).
pub const EVENT_KINDS: usize = 8;

impl EventKind {
    /// Every kind, in declaration (= `repr`) order.
    pub const ALL: [EventKind; EVENT_KINDS] = [
        EventKind::Retire,
        EventKind::L2cMiss,
        EventKind::MshrAlloc,
        EventKind::MshrFree,
        EventKind::PrefetchIssue,
        EventKind::PrefetchFill,
        EventKind::SdSelect,
        EventKind::Watchdog,
    ];

    /// Stable short name, used as the Chrome trace event name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Retire => "retire",
            EventKind::L2cMiss => "l2c_miss",
            EventKind::MshrAlloc => "mshr_alloc",
            EventKind::MshrFree => "mshr_free",
            EventKind::PrefetchIssue => "prefetch_issue",
            EventKind::PrefetchFill => "prefetch_fill",
            EventKind::SdSelect => "sd_select",
            EventKind::Watchdog => "watchdog",
        }
    }

    /// Chrome trace category, grouping events by component.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::Retire => "cpu",
            EventKind::L2cMiss => "cache",
            EventKind::MshrAlloc | EventKind::MshrFree => "mshr",
            EventKind::PrefetchIssue | EventKind::PrefetchFill => "prefetch",
            EventKind::SdSelect => "dueling",
            EventKind::Watchdog => "watchdog",
        }
    }
}

/// One recorded machine event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Simulated cycle at which it happened.
    pub cycle: u64,
    /// Core the event belongs to (shared components report core 0).
    pub core: u32,
    /// Kind-specific payload, see [`EventKind`].
    pub arg: u64,
}

/// A sampling ring buffer of [`Event`]s.
///
/// High-frequency events are decimated: each kind keeps its own `seen`
/// count and only every `sample_every`-th observation is stored, so the
/// ring holds a uniform sample per kind rather than whatever the noisiest
/// producer last wrote. Once the ring is full the oldest stored events
/// are overwritten; `seen` counts remain exact either way.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventRing {
    on: bool,
    sample_every: u32,
    capacity: usize,
    buf: Vec<Event>,
    head: usize,
    seen: [u64; EVENT_KINDS],
    stored: [u64; EVENT_KINDS],
}

impl EventRing {
    /// A recording ring with the given shape.
    pub fn new(capacity: u32, sample_every: u32) -> Self {
        Self {
            on: true,
            sample_every: sample_every.max(1),
            capacity: capacity.max(1) as usize,
            buf: Vec::new(),
            head: 0,
            seen: [0; EVENT_KINDS],
            stored: [0; EVENT_KINDS],
        }
    }

    /// A permanently silent ring (records nothing, allocates nothing).
    pub const fn disabled() -> Self {
        Self {
            on: false,
            sample_every: 1,
            capacity: 0,
            buf: Vec::new(),
            head: 0,
            seen: [0; EVENT_KINDS],
            stored: [0; EVENT_KINDS],
        }
    }

    /// Whether this ring records anything.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Observe a high-frequency event; one in `sample_every` is stored.
    #[inline]
    pub fn record(&mut self, kind: EventKind, cycle: u64, core: u32, arg: u64) {
        if !self.on {
            return;
        }
        let k = kind as usize;
        self.seen[k] += 1;
        if self.seen[k] % u64::from(self.sample_every) != 1 && self.sample_every != 1 {
            return;
        }
        self.store(Event {
            kind,
            cycle,
            core,
            arg,
        });
    }

    /// Observe a rare event; always stored, never decimated.
    #[inline]
    pub fn record_rare(&mut self, kind: EventKind, cycle: u64, core: u32, arg: u64) {
        if !self.on {
            return;
        }
        self.seen[kind as usize] += 1;
        self.store(Event {
            kind,
            cycle,
            core,
            arg,
        });
    }

    fn store(&mut self, ev: Event) {
        self.stored[ev.kind as usize] += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Exact number of observations per kind (sampled and unsampled).
    pub fn seen(&self, kind: EventKind) -> u64 {
        self.seen[kind as usize]
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The stored events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Forget everything recorded so far (warm-up boundary reset); the
    /// ring keeps recording.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.seen = [0; EVENT_KINDS];
        self.stored = [0; EVENT_KINDS];
    }
}

/// Everything the observability layer captured over one measured window:
/// named counters, named histograms, and the sampled event timeline.
///
/// Produced by the simulator when observability is enabled; `None`
/// otherwise. This is plain data — it borrows nothing from the machine —
/// so callers can hold it after the run ends.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsReport {
    /// Named counters, e.g. `("module.issued", 1234)`.
    pub counters: Vec<(&'static str, u64)>,
    /// Named histogram summaries, e.g. `("core0.load_to_use", …)`.
    pub histograms: Vec<(&'static str, HistSummary)>,
    /// Sampled events, oldest first.
    pub events: Vec<Event>,
    /// Exact per-kind observation counts `(name, seen)` — `seen` is the
    /// true number of occurrences, of which only a sample is in `events`.
    pub seen: Vec<(&'static str, u64)>,
    /// The sampling period in force.
    pub sample_every: u32,
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl ObsReport {
    /// Render the sampled event timeline as Chrome `trace_event` JSON
    /// (the "JSON Array Format" inside an object, accepted by
    /// `chrome://tracing` and Perfetto).
    ///
    /// Each event becomes an instant event (`"ph": "i"`); `ts` is the
    /// simulated cycle (the viewer's microseconds are our cycles), `pid`
    /// is 0 and `tid` is the core index. Per-kind exact observation
    /// counts and the sampling period travel in `otherData` so a viewer
    /// of the trace knows how much was decimated.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\n\"traceEvents\": [");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"name\": \"");
            escape_json(ev.kind.name(), &mut out);
            out.push_str("\", \"cat\": \"");
            escape_json(ev.kind.category(), &mut out);
            out.push_str("\", \"ph\": \"i\", \"s\": \"t\", \"ts\": ");
            out.push_str(&ev.cycle.to_string());
            out.push_str(", \"pid\": 0, \"tid\": ");
            out.push_str(&ev.core.to_string());
            out.push_str(", \"args\": {\"v\": ");
            out.push_str(&ev.arg.to_string());
            out.push_str("}}");
        }
        out.push_str("\n],\n\"displayTimeUnit\": \"ns\",\n\"otherData\": {\"sample_every\": ");
        out.push_str(&self.sample_every.to_string());
        for (name, seen) in &self.seen {
            out.push_str(", \"seen_");
            escape_json(name, &mut out);
            out.push_str("\": ");
            out.push_str(&seen.to_string());
        }
        out.push_str("}\n}\n");
        out
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }
}

/// Process-wide counters of the checkpoint/result storage tier
/// (`psa-store`). Unlike the per-component primitives above, these are
/// always-on atomics: storage-tier health must be observable even in
/// runs where the simulation-level obs layer is disabled, and the store
/// is shared across worker threads. They are
/// surfaced through the experiment executor's `ExecStats` and the
/// `executor.store` section of every `BENCH_*.json` (schema v4).
pub mod store {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// One storage-tier counter set. The canonical instance is
    /// [`global`]; a separate instance exists only in tests.
    #[derive(Debug, Default)]
    pub struct StoreObs {
        /// Disk-tier entries served and verified (checksum passed).
        pub hits: AtomicU64,
        /// Disk-tier lookups that found no usable entry.
        pub misses: AtomicU64,
        /// Transient-IO retries performed by the bounded retry layer.
        pub retries: AtomicU64,
        /// Entries dropped because their bytes failed validation —
        /// at read time or during recovery-on-open.
        pub quarantined: AtomicU64,
        /// Live payload bytes salvaged by recovery-on-open.
        pub recovered_bytes: AtomicU64,
        /// Store writes that failed after retries (degraded to
        /// memory-only / cold-warm-up operation, never to wrong bits).
        pub write_failures: AtomicU64,
        /// Faults actually injected by a configured `FaultPlan`.
        pub injected_faults: AtomicU64,
    }

    /// A point-in-time copy of the counters, for deltas and JSON export.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct StoreCounts {
        /// See [`StoreObs::hits`].
        pub hits: u64,
        /// See [`StoreObs::misses`].
        pub misses: u64,
        /// See [`StoreObs::retries`].
        pub retries: u64,
        /// See [`StoreObs::quarantined`].
        pub quarantined: u64,
        /// See [`StoreObs::recovered_bytes`].
        pub recovered_bytes: u64,
        /// See [`StoreObs::write_failures`].
        pub write_failures: u64,
        /// See [`StoreObs::injected_faults`].
        pub injected_faults: u64,
    }

    impl StoreObs {
        /// A fresh zeroed counter set.
        pub const fn new() -> Self {
            Self {
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                quarantined: AtomicU64::new(0),
                recovered_bytes: AtomicU64::new(0),
                write_failures: AtomicU64::new(0),
                injected_faults: AtomicU64::new(0),
            }
        }

        /// Capture the current counter values.
        pub fn snapshot(&self) -> StoreCounts {
            StoreCounts {
                hits: self.hits.load(Ordering::Relaxed),
                misses: self.misses.load(Ordering::Relaxed),
                retries: self.retries.load(Ordering::Relaxed),
                quarantined: self.quarantined.load(Ordering::Relaxed),
                recovered_bytes: self.recovered_bytes.load(Ordering::Relaxed),
                write_failures: self.write_failures.load(Ordering::Relaxed),
                injected_faults: self.injected_faults.load(Ordering::Relaxed),
            }
        }
    }

    static GLOBAL: StoreObs = StoreObs::new();

    /// The process-wide storage-tier counters.
    pub fn global() -> &'static StoreObs {
        &GLOBAL
    }
}

/// Prometheus text exposition (format version 0.0.4) rendering.
///
/// A [`prom::PromText`] accumulates metric families — `# HELP` / `# TYPE`
/// headers followed by samples — and enforces the exposition grammar as
/// it goes: metric and label names are validated against the Prometheus
/// character set, label values and help strings are escaped, and a
/// family's header is written exactly once. The output is what a
/// `/metrics` endpoint serves to a scraper.
///
/// The renderer is deliberately dependency-free and content-agnostic:
/// callers decide which registries to walk. [`prom::store_metrics`]
/// renders the always-on storage-tier counters of [`store`]; the
/// experiment executor and any server front-end render their own
/// counters through the same writer.
pub mod prom {
    use super::store;

    /// The two Prometheus metric kinds this codebase exports.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum MetricKind {
        /// Monotonically increasing; name should end in `_total` (or a
        /// unit suffix such as `_seconds_total`).
        Counter,
        /// A value that can go up and down (depths, capacities, uptime).
        Gauge,
    }

    impl MetricKind {
        /// The `# TYPE` keyword.
        pub fn keyword(self) -> &'static str {
            match self {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
            }
        }
    }

    /// Whether `name` is a valid Prometheus metric name:
    /// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    pub fn valid_metric_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    /// Whether `name` is a valid Prometheus label name:
    /// `[a-zA-Z_][a-zA-Z0-9_]*` and not a double-underscore reserved name.
    pub fn valid_label_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_') && !name.starts_with("__")
    }

    /// Escape a label value: backslash, double quote and newline.
    fn escape_label_value(v: &str, out: &mut String) {
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
    }

    /// Escape a help string: backslash and newline.
    fn escape_help(v: &str, out: &mut String) {
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
    }

    /// Render a sample value the way Prometheus expects: integers
    /// without a fractional part, everything else via Rust's shortest
    /// round-trip `f64` formatting.
    fn format_value(v: f64, out: &mut String) {
        if v.is_nan() {
            out.push_str("NaN");
        } else if v.is_infinite() {
            out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
        } else if v == v.trunc() && v.abs() < (1u64 << 53) as f64 {
            out.push_str(&format!("{}", v as i64));
        } else {
            out.push_str(&format!("{v}"));
        }
    }

    /// An in-progress Prometheus text exposition document.
    #[derive(Debug, Default)]
    pub struct PromText {
        out: String,
        current_family: String,
    }

    impl PromText {
        /// An empty document.
        pub fn new() -> Self {
            Self::default()
        }

        /// Start a metric family: write its `# HELP` and `# TYPE` lines.
        /// Every subsequent [`PromText::sample`] must use this name until
        /// the next `family` call.
        ///
        /// # Panics
        ///
        /// Panics when `name` is not a valid metric name — an invalid
        /// exposition would make the whole endpoint unscrapable, so this
        /// is a programming error, not an input error.
        pub fn family(&mut self, name: &str, kind: MetricKind, help: &str) {
            assert!(valid_metric_name(name), "invalid metric name {name:?}");
            self.out.push_str("# HELP ");
            self.out.push_str(name);
            self.out.push(' ');
            escape_help(help, &mut self.out);
            self.out.push_str("\n# TYPE ");
            self.out.push_str(name);
            self.out.push(' ');
            self.out.push_str(kind.keyword());
            self.out.push('\n');
            self.current_family = name.to_string();
        }

        /// Add one sample line to the current family.
        ///
        /// # Panics
        ///
        /// Panics when no family is open or a label name is invalid (see
        /// [`PromText::family`] for why this is an assertion).
        pub fn sample(&mut self, labels: &[(&str, &str)], value: f64) {
            assert!(
                !self.current_family.is_empty(),
                "sample before any family()"
            );
            let name = self.current_family.clone();
            self.out.push_str(&name);
            if !labels.is_empty() {
                self.out.push('{');
                for (i, (k, v)) in labels.iter().enumerate() {
                    assert!(valid_label_name(k), "invalid label name {k:?}");
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.out.push_str(k);
                    self.out.push_str("=\"");
                    escape_label_value(v, &mut self.out);
                    self.out.push('"');
                }
                self.out.push('}');
            }
            self.out.push(' ');
            format_value(value, &mut self.out);
            self.out.push('\n');
        }

        /// Convenience: a whole single-sample counter family.
        pub fn counter(&mut self, name: &str, help: &str, value: u64) {
            self.family(name, MetricKind::Counter, help);
            #[allow(clippy::cast_precision_loss)]
            self.sample(&[], value as f64);
        }

        /// Convenience: a whole single-sample gauge family.
        pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
            self.family(name, MetricKind::Gauge, help);
            self.sample(&[], value);
        }

        /// The finished exposition body (`text/plain; version=0.0.4`).
        pub fn render(self) -> String {
            self.out
        }
    }

    /// Render the process-wide storage-tier counters ([`store::global`])
    /// as the `psa_store_*` family group.
    pub fn store_metrics(w: &mut PromText) {
        let s = store::global().snapshot();
        w.counter(
            "psa_store_hits_total",
            "Checkpoint/result store entries served and checksum-verified.",
            s.hits,
        );
        w.counter(
            "psa_store_misses_total",
            "Checkpoint/result store lookups that found no usable entry.",
            s.misses,
        );
        w.counter(
            "psa_store_retries_total",
            "Transient-IO retries performed by the store's bounded retry layer.",
            s.retries,
        );
        w.counter(
            "psa_store_quarantined_total",
            "Store entries dropped because their bytes failed validation.",
            s.quarantined,
        );
        w.counter(
            "psa_store_recovered_bytes_total",
            "Live payload bytes salvaged by store recovery-on-open.",
            s.recovered_bytes,
        );
        w.counter(
            "psa_store_write_failures_total",
            "Store writes that failed after retries (degraded, never wrong bits).",
            s.write_failures,
        );
        w.counter(
            "psa_store_injected_faults_total",
            "IO faults actually injected by a configured PSA_FAULT_PLAN.",
            s.injected_faults,
        );
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn name_validation() {
            assert!(valid_metric_name("psa_serve_jobs_total"));
            assert!(valid_metric_name("a:b_c1"));
            assert!(!valid_metric_name("1abc"));
            assert!(!valid_metric_name(""));
            assert!(!valid_metric_name("has space"));
            assert!(!valid_metric_name("has-dash"));
            assert!(valid_label_name("figure"));
            assert!(!valid_label_name("__reserved"));
            assert!(!valid_label_name("9lives"));
        }

        #[test]
        fn renders_families_and_samples() {
            let mut w = PromText::new();
            w.counter("jobs_total", "Jobs.", 3);
            w.family("http_requests_total", MetricKind::Counter, "By class.");
            w.sample(&[("class", "2xx")], 7.0);
            w.sample(&[("class", "5xx")], 0.0);
            w.gauge("depth", "Queue depth.", 2.5);
            let text = w.render();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines[0], "# HELP jobs_total Jobs.");
            assert_eq!(lines[1], "# TYPE jobs_total counter");
            assert_eq!(lines[2], "jobs_total 3");
            assert!(lines.contains(&"http_requests_total{class=\"2xx\"} 7"));
            assert!(lines.contains(&"http_requests_total{class=\"5xx\"} 0"));
            assert!(lines.contains(&"depth 2.5"));
            assert!(text.ends_with('\n'));
        }

        #[test]
        fn escapes_label_values_and_help() {
            let mut w = PromText::new();
            w.family("m", MetricKind::Gauge, "line\nbreak \\ done");
            w.sample(&[("l", "quo\"te\\back\nline")], 1.0);
            let text = w.render();
            assert!(text.contains("# HELP m line\\nbreak \\\\ done"));
            assert!(text.contains("m{l=\"quo\\\"te\\\\back\\nline\"} 1"));
        }

        #[test]
        fn store_metrics_cover_every_counter() {
            let mut w = PromText::new();
            store_metrics(&mut w);
            let text = w.render();
            for name in [
                "psa_store_hits_total",
                "psa_store_misses_total",
                "psa_store_retries_total",
                "psa_store_quarantined_total",
                "psa_store_recovered_bytes_total",
                "psa_store_write_failures_total",
                "psa_store_injected_faults_total",
            ] {
                assert!(
                    text.contains(&format!("# TYPE {name} counter")),
                    "missing {name}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_primitives_record_nothing() {
        let mut c = Counter::disabled();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);

        let mut h = Histogram::disabled();
        h.record(5);
        assert_eq!(h.total(), 0);
        assert_eq!(h.summary().buckets, vec![]);

        let mut r = EventRing::disabled();
        r.record(EventKind::Retire, 1, 0, 1);
        r.record_rare(EventKind::Watchdog, 1, 0, 1);
        assert!(r.is_empty());
        assert_eq!(r.seen(EventKind::Watchdog), 0);
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::new(true);
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.sum(), 1010);
        assert_eq!(h.max(), 1000);
        // 0 → bucket 0; 1 → [1,2); 2,3 → [2,4); 4 → [4,8); 1000 → [512,1024).
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1), (1, 1), (2, 2), (4, 1), (512, 1)]
        );
        let before = h.clone();
        h.reset();
        assert_eq!(h.total(), 0);
        assert_ne!(h, before);
    }

    #[test]
    fn histogram_handles_extreme_samples() {
        let mut h = Histogram::new(true);
        h.record(u64::MAX);
        assert_eq!(h.total(), 1);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.nonzero_buckets(), vec![(1 << 63, 1)]);
    }

    #[test]
    fn ring_samples_and_wraps() {
        let mut r = EventRing::new(4, 2);
        for i in 0..20 {
            r.record(EventKind::Retire, i, 0, i);
        }
        // Observations 1,3,5,… are stored (1st of every 2); capacity 4
        // keeps the newest four: cycles 12,14,16,18.
        assert_eq!(r.seen(EventKind::Retire), 20);
        let cycles: Vec<u64> = r.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![12, 14, 16, 18]);

        r.record_rare(EventKind::Watchdog, 99, 1, 7);
        let evs = r.events();
        assert_eq!(evs.last().unwrap().kind, EventKind::Watchdog);
        assert_eq!(evs.last().unwrap().core, 1);

        r.reset();
        assert!(r.is_empty());
        assert_eq!(r.seen(EventKind::Retire), 0);
    }

    #[test]
    fn sample_every_one_stores_everything() {
        let mut r = EventRing::new(8, 1);
        for i in 0..5 {
            r.record(EventKind::L2cMiss, i, 0, 0);
        }
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn chrome_trace_is_parseable_shape() {
        let mut r = EventRing::new(8, 1);
        r.record(EventKind::Retire, 10, 0, 1);
        r.record_rare(EventKind::Watchdog, 20, 2, 500);
        let report = ObsReport {
            counters: vec![("module.issued", 3)],
            histograms: vec![],
            events: r.events(),
            seen: vec![("retire", r.seen(EventKind::Retire))],
            sample_every: 1,
        };
        let trace = report.to_chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"name\": \"retire\""));
        assert!(trace.contains("\"tid\": 2"));
        assert!(trace.contains("\"seen_retire\": 1"));
        // Balanced braces/brackets as a cheap well-formedness check; the
        // strict parser in psa-sim round-trips it in an integration test.
        assert_eq!(
            trace.matches('{').count(),
            trace.matches('}').count(),
            "{trace}"
        );
        assert_eq!(trace.matches('[').count(), trace.matches(']').count());
    }

    #[test]
    fn obs_config_validates() {
        assert!(ObsConfig::default().validate().is_ok());
        assert!(ObsConfig::on().validate().is_ok());
        let bad = ObsConfig {
            enabled: true,
            ring_capacity: 0,
            sample_every: 64,
        };
        assert!(bad.validate().is_err());
        let bad2 = ObsConfig {
            enabled: true,
            ring_capacity: 16,
            sample_every: 0,
        };
        assert!(bad2.validate().is_err());
    }

    #[test]
    fn report_lookup_helpers() {
        let mut h = Histogram::new(true);
        h.record(7);
        let r = ObsReport {
            counters: vec![("a", 1)],
            histograms: vec![("h", h.summary())],
            events: vec![],
            seen: vec![],
            sample_every: 64,
        };
        assert_eq!(r.counter("a"), Some(1));
        assert_eq!(r.counter("b"), None);
        assert_eq!(r.histogram("h").unwrap().sum, 7);
    }
}
