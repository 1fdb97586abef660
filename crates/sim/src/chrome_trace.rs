//! [`ChromeTraceProbe`]: export a run as a Chrome/Perfetto trace.
//!
//! The probe records bus tenures and protocol events and serializes them
//! in the [Trace Event Format] (`{"traceEvents": [...]}`), loadable in
//! `chrome://tracing` and [Perfetto]. One timeline track (thread) per
//! core, plus a **bus** track and an **llc** track:
//!
//! - every bus tenure is a complete `B`/`E` duration pair on the bus
//!   track (tenures never overlap, so the pairs nest trivially);
//! - every miss is an `X` complete event on its core's track, spanning
//!   issue to fill;
//! - invalidations, downgrades and mode switches are instant events;
//! - LLC/memory-sourced data supplies are instants on the llc track.
//!
//! Cycle stamps are written as microseconds 1:1 (`ts` in the format is
//! µs), so one displayed microsecond is one simulated cycle.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev
//!
//! # Examples
//!
//! ```
//! use cohort_sim::{ChromeTraceProbe, SimBuilder, SimConfig};
//! use cohort_trace::micro;
//!
//! let config = SimConfig::builder(2).build()?;
//! let mut probe = ChromeTraceProbe::new();
//! let mut sim = SimBuilder::new(config, &micro::ping_pong(2, 4)).probe(&mut probe).build()?;
//! sim.run()?;
//! let json = probe.to_json();
//! assert!(json.get("traceEvents").and_then(|v| v.as_array()).is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::io::Write as _;
use std::path::Path;

use cohort_types::{Cycles, LineAddr};

use crate::event::{EventKind, InvalidateCause};
use crate::probe::{BusTenure, SimProbe, TenureKind};
use crate::SimConfig;

/// What one recorded trace entry is, kept typed until export.
#[derive(Debug, Clone)]
enum Entry {
    /// A bus tenure, exported as a `B`/`E` pair on the bus track.
    Tenure(BusTenure),
    /// A completed miss, exported as an `X` span on the core's track.
    Miss { core: usize, line: LineAddr, start: u64, duration: u64, store: bool },
    /// An instant event on some track.
    Instant { tid: Track, name: &'static str, at: u64, line: Option<LineAddr> },
}

#[derive(Debug, Clone, Copy)]
enum Track {
    Core(usize),
    Bus,
    Llc,
}

/// The built-in Chrome-trace probe. Collects entries during the run; call
/// [`ChromeTraceProbe::to_json`] / [`ChromeTraceProbe::write_to`] after.
#[derive(Debug, Clone, Default)]
pub struct ChromeTraceProbe {
    cores: usize,
    entries: Vec<Entry>,
}

impl ChromeTraceProbe {
    /// Creates a Chrome-trace probe.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn tid(&self, track: Track) -> u64 {
        match track {
            Track::Core(id) => id as u64,
            Track::Bus => self.cores as u64,
            Track::Llc => self.cores as u64 + 1,
        }
    }

    fn event(
        &self,
        name: &str,
        ph: &str,
        ts: u64,
        track: Track,
        args: Vec<(&str, serde_json::Value)>,
    ) -> serde_json::Value {
        let mut e = serde_json::Map::new();
        e.insert("name".into(), serde_json::Value::from(name));
        e.insert("ph".into(), serde_json::Value::from(ph));
        e.insert("ts".into(), serde_json::Value::from(ts));
        e.insert("pid".into(), serde_json::Value::from(0u64));
        e.insert("tid".into(), serde_json::Value::from(self.tid(track)));
        if ph == "i" {
            // Thread-scoped instant: renders as a tick on the track.
            e.insert("s".into(), serde_json::Value::from("t"));
        }
        if !args.is_empty() {
            let mut a = serde_json::Map::new();
            for (k, v) in args {
                a.insert(k.into(), v);
            }
            e.insert("args".into(), serde_json::Value::Object(a));
        }
        serde_json::Value::Object(e)
    }

    fn thread_name(&self, track: Track, name: &str) -> serde_json::Value {
        let mut e = serde_json::Map::new();
        e.insert("name".into(), serde_json::Value::from("thread_name"));
        e.insert("ph".into(), serde_json::Value::from("M"));
        e.insert("pid".into(), serde_json::Value::from(0u64));
        e.insert("tid".into(), serde_json::Value::from(self.tid(track)));
        let mut a = serde_json::Map::new();
        a.insert("name".into(), serde_json::Value::from(name));
        e.insert("args".into(), serde_json::Value::Object(a));
        serde_json::Value::Object(e)
    }

    /// Builds the `{"traceEvents": [...]}` document.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let mut events: Vec<serde_json::Value> = Vec::with_capacity(self.entries.len() * 2 + 8);
        for core in 0..self.cores {
            events.push(self.thread_name(Track::Core(core), &format!("core {core}")));
        }
        events.push(self.thread_name(Track::Bus, "bus"));
        events.push(self.thread_name(Track::Llc, "llc"));
        for entry in &self.entries {
            match entry {
                Entry::Tenure(t) => {
                    let name = match t.kind {
                        TenureKind::Broadcast => "broadcast",
                        TenureKind::Transfer { .. } => "transfer",
                        TenureKind::Fused { .. } => "req+transfer",
                    };
                    let mut args = vec![
                        ("core", serde_json::Value::from(t.core as u64)),
                        ("line", serde_json::Value::from(t.line.raw())),
                    ];
                    if let Some(from) = t.kind.from_core() {
                        args.push(("from", serde_json::Value::from(from as u64)));
                    }
                    events.push(self.event(name, "B", t.start.get(), Track::Bus, args));
                    events.push(self.event(name, "E", t.end.get(), Track::Bus, Vec::new()));
                }
                Entry::Miss { core, line, start, duration, store } => {
                    let name = if *store { "miss (GetM)" } else { "miss (GetS)" };
                    let mut e = serde_json::Map::new();
                    e.insert("name".into(), serde_json::Value::from(name));
                    e.insert("ph".into(), serde_json::Value::from("X"));
                    e.insert("ts".into(), serde_json::Value::from(*start));
                    e.insert("dur".into(), serde_json::Value::from(*duration));
                    e.insert("pid".into(), serde_json::Value::from(0u64));
                    e.insert("tid".into(), serde_json::Value::from(self.tid(Track::Core(*core))));
                    let mut a = serde_json::Map::new();
                    a.insert("line".into(), serde_json::Value::from(line.raw()));
                    e.insert("args".into(), serde_json::Value::Object(a));
                    events.push(serde_json::Value::Object(e));
                }
                Entry::Instant { tid, name, at, line } => {
                    let args = match line {
                        Some(l) => vec![("line", serde_json::Value::from(l.raw()))],
                        None => Vec::new(),
                    };
                    events.push(self.event(name, "i", *at, *tid, args));
                }
            }
        }
        let mut root = serde_json::Map::new();
        root.insert("traceEvents".into(), serde_json::Value::from(events));
        root.insert("displayTimeUnit".into(), serde_json::Value::from("ms"));
        serde_json::Value::Object(root)
    }

    /// Serializes the trace to a JSON string.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        serde_json::to_string(&self.to_json()).unwrap_or_else(|_| "{\"traceEvents\":[]}".into())
    }

    /// Writes the trace to `path` (e.g. `trace.json`, for
    /// `chrome://tracing` or Perfetto).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json_string().as_bytes())?;
        file.write_all(b"\n")
    }
}

impl SimProbe for ChromeTraceProbe {
    fn on_start(&mut self, config: &SimConfig) {
        self.cores = config.cores();
    }

    fn on_event(&mut self, cycle: Cycles, kind: &EventKind) {
        let at = cycle.get();
        match kind {
            EventKind::Fill { core, line, kind, latency } => {
                self.entries.push(Entry::Miss {
                    core: *core,
                    line: *line,
                    start: at.saturating_sub(latency.get()),
                    duration: latency.get(),
                    store: kind.is_get_m(),
                });
            }
            EventKind::Invalidate { core, line, cause } => {
                let name = match cause {
                    InvalidateCause::Stolen => "invalidate (stolen)",
                    InvalidateCause::BackInvalidation => "invalidate (back-inval)",
                    InvalidateCause::Replacement => "evict",
                };
                self.entries.push(Entry::Instant {
                    tid: Track::Core(*core),
                    name,
                    at,
                    line: Some(*line),
                });
            }
            EventKind::Downgrade { core, line } => {
                self.entries.push(Entry::Instant {
                    tid: Track::Core(*core),
                    name: "downgrade",
                    at,
                    line: Some(*line),
                });
            }
            EventKind::TransferStart { from: None, line, .. } => {
                self.entries.push(Entry::Instant {
                    tid: Track::Llc,
                    name: "supply",
                    at,
                    line: Some(*line),
                });
            }
            EventKind::TimerSwitch { .. } => {
                self.entries.push(Entry::Instant {
                    tid: Track::Bus,
                    name: "mode-switch",
                    at,
                    line: None,
                });
            }
            _ => {}
        }
    }

    fn on_bus_tenure(&mut self, tenure: &BusTenure) {
        self.entries.push(Entry::Tenure(*tenure));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_probe_exports_metadata_only() {
        let mut probe = ChromeTraceProbe::new();
        probe.cores = 2;
        let json = probe.to_json();
        let events = json.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        // 2 core tracks + bus + llc metadata records.
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M")));
    }

    #[test]
    fn tenures_export_as_balanced_begin_end_pairs() {
        let mut probe = ChromeTraceProbe::new();
        probe.cores = 1;
        probe.on_bus_tenure(&BusTenure {
            core: 0,
            line: LineAddr::new(7),
            start: Cycles::new(10),
            end: Cycles::new(64),
            kind: TenureKind::Fused { from: None },
        });
        let json = probe.to_json();
        let events = json.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        let phases: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(|p| p.as_str())).collect();
        assert_eq!(phases.iter().filter(|p| **p == "B").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "E").count(), 1);
        let begin = events.iter().find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("B"));
        assert_eq!(begin.unwrap().get("ts").and_then(serde_json::Value::as_u64), Some(10));
    }

    #[test]
    fn round_trips_through_a_json_parser() {
        let mut probe = ChromeTraceProbe::new();
        probe.cores = 1;
        probe.on_event(
            Cycles::new(64),
            &EventKind::Fill {
                core: 0,
                line: LineAddr::new(3),
                kind: crate::ReqKind::GetM,
                latency: Cycles::new(54),
            },
        );
        let text = probe.to_json_string();
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = parsed.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        let miss = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("one X span per miss");
        assert_eq!(miss.get("ts").and_then(serde_json::Value::as_u64), Some(10));
        assert_eq!(miss.get("dur").and_then(serde_json::Value::as_u64), Some(54));
    }
}
