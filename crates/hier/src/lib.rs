//! Composable memory-hierarchy pipeline.
//!
//! The simulator's miss path used to be hand-duplicated per cache level
//! inside `psa-sim`: the L1D, L2C and LLC each had their own copy of the
//! probe → MSHR-merge → full-file-bump → descend → allocate sequence. This
//! crate replaces those copies with two types:
//!
//! * [`CacheLevel`] — one level of the hierarchy: a [`psa_cache::Cache`]
//!   array, its MSHR file, the level's access latency, an optional
//!   prefetching-module attach point ([`psa_core::PsaModule`]) and the
//!   level's [`Role`] (entry, attach or shared), which decides how it
//!   participates in tracking, latency accounting and observability. The
//!   bundle persists as a unit through [`psa_common::Persist`].
//! * [`Walk`] — a borrowed view over an ordered slice of levels plus the
//!   [`MemoryBackend`] below them, running the *single* generic demand
//!   walk, prefetch-issue path and MSHR drain for any hierarchy depth.
//!
//! # Request flow
//!
//! A demand access enters as a [`Request`] at some level and descends on a
//! miss, level by level, until a hit or the memory backend. The PPM page
//! size bit is an explicit field of the request ([`Request::huge`]) and is
//! written into every MSHR entry the walk allocates — the paper's
//! mechanism is the L2C prefetching module reading that bit off the demand
//! stream ([`Walk::demand`] hands it to the attached module as the page
//! size).
//!
//! Timing is lazy-fill: every operation at cycle *t* first drains MSHR
//! entries whose fills matured (≤ *t*) into the array, then resolves
//! against the array. A full MSHR stalls demands until the earliest
//! in-flight fill and silently drops prefetches, so prefetch traffic has a
//! real resource cost.
//!
//! # Fallibility
//!
//! The walk is fallible end-to-end: broken internal invariants surface as
//! [`HierError`] values instead of panics, so a driver can report a failed
//! run rather than unwind.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod level;
mod walk;

pub use level::{
    prefetch_room, CacheLevel, Feedback, LevelLat, PortDebug, Request, Role, WalkStats,
    LATE_TIMELY_SLACK, PASS,
};
pub use walk::{HierError, MemoryBackend, Walk};
