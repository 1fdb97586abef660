//! ASCII timeline rendering of event logs — one lane per core, like the
//! paper's Figure 1/4 diagrams. A debugging and teaching aid: run a small
//! workload under an [`EventLogProbe`](crate::EventLogProbe) and print what
//! the coherence engine actually did, cycle by cycle.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cohort_types::LineAddr;

use crate::{Event, EventKind};

/// Options for [`render_timeline`].
#[derive(Debug, Clone)]
pub struct TimelineOptions {
    /// Only show events touching this line (`None` = all lines).
    pub line: Option<LineAddr>,
    /// Cycles per output column (events within a bucket share a column).
    pub cycles_per_column: u64,
    /// Maximum number of columns before the timeline is truncated.
    pub max_columns: usize,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        TimelineOptions { line: None, cycles_per_column: 10, max_columns: 120 }
    }
}

/// One-character glyphs per event class (the legend of the rendering).
fn glyph(kind: &EventKind) -> Option<char> {
    Some(match kind {
        EventKind::Hit { .. } => '+',
        EventKind::MissIssued { .. } => '?',
        EventKind::Broadcast { .. } => 'B',
        EventKind::TransferStart { .. } => '>',
        EventKind::Fill { .. } => 'F',
        EventKind::Downgrade { .. } => 'd',
        EventKind::Invalidate { .. } => 'x',
        EventKind::TimerSwitch { .. } => return None, // global, shown in header
    })
}

fn core_of(kind: &EventKind) -> Option<usize> {
    Some(match kind {
        EventKind::Hit { core, .. }
        | EventKind::MissIssued { core, .. }
        | EventKind::Broadcast { core, .. }
        | EventKind::Fill { core, .. }
        | EventKind::Downgrade { core, .. }
        | EventKind::Invalidate { core, .. } => *core,
        EventKind::TransferStart { to, .. } => *to,
        EventKind::TimerSwitch { .. } => return None,
    })
}

fn line_of(kind: &EventKind) -> Option<LineAddr> {
    Some(match kind {
        EventKind::Hit { line, .. }
        | EventKind::MissIssued { line, .. }
        | EventKind::Broadcast { line, .. }
        | EventKind::TransferStart { line, .. }
        | EventKind::Fill { line, .. }
        | EventKind::Downgrade { line, .. }
        | EventKind::Invalidate { line, .. } => *line,
        EventKind::TimerSwitch { .. } => return None,
    })
}

/// Renders an event log as per-core ASCII lanes.
///
/// Legend: `+` hit, `?` miss issued, `B` broadcast, `>` transfer starts,
/// `F` fill, `d` downgrade, `x` invalidate, `·` idle. When several events
/// share a column the most significant one (later in the legend order
/// above) wins.
///
/// # Examples
///
/// ```
/// use cohort_sim::{render_timeline, EventLogProbe, SimBuilder, SimConfig, TimelineOptions};
/// use cohort_trace::micro;
///
/// let config = SimConfig::builder(2).build()?;
/// let mut probe = EventLogProbe::new();
/// let mut sim = SimBuilder::new(config, &micro::ping_pong(2, 2)).probe(&mut probe).build()?;
/// sim.run()?;
/// let art = render_timeline(&probe.to_vec(), 2, &TimelineOptions::default());
/// assert!(art.contains("c0"));
/// assert!(art.contains('F'), "fills appear on the timeline");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn render_timeline(events: &[Event], cores: usize, options: &TimelineOptions) -> String {
    let quantum = options.cycles_per_column.max(1);
    // bucket → per-core glyph (later-ranked glyph wins inside a bucket).
    let rank = |c: char| "·+?B>dxF".find(c).unwrap_or(0);
    let mut lanes: Vec<BTreeMap<u64, char>> = vec![BTreeMap::new(); cores];
    let mut switches: Vec<u64> = Vec::new();
    let mut last_bucket = 0u64;
    for event in events {
        if matches!(event.kind, EventKind::TimerSwitch { .. }) {
            switches.push(event.cycle.get());
            continue;
        }
        if let Some(filter) = options.line {
            if line_of(&event.kind) != Some(filter) {
                continue;
            }
        }
        let (Some(core), Some(g)) = (core_of(&event.kind), glyph(&event.kind)) else { continue };
        if core >= cores {
            continue;
        }
        let bucket = event.cycle.get() / quantum;
        last_bucket = last_bucket.max(bucket);
        let slot = lanes[core].entry(bucket).or_insert('·');
        if rank(g) > rank(*slot) {
            *slot = g;
        }
    }
    let columns = ((last_bucket + 1) as usize).min(options.max_columns);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline ({quantum} cycles/column; + hit  ? miss  B broadcast  > transfer  F fill  d downgrade  x invalidate)"
    );
    if !switches.is_empty() {
        let _ = writeln!(out, "timer switches at cycles {switches:?}");
    }
    for (core, lane) in lanes.iter().enumerate() {
        let mut row = String::with_capacity(columns);
        for b in 0..columns as u64 {
            row.push(*lane.get(&b).unwrap_or(&'·'));
        }
        let truncated = if (last_bucket + 1) as usize > columns { "…" } else { "" };
        let _ = writeln!(out, "c{core:<2} {row}{truncated}");
    }
    let _ = writeln!(
        out,
        "    0{:>width$}",
        last_bucket.min(columns as u64 - 1) * quantum,
        width = columns.saturating_sub(1)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventLogProbe, SimBuilder, SimConfig};
    use cohort_trace::micro;
    use cohort_types::{Cycles, TimerValue};

    fn logged_run(workload: &cohort_trace::Workload, cores: usize) -> Vec<Event> {
        let config =
            SimConfig::builder(cores).timer(0, TimerValue::timed(40).unwrap()).build().unwrap();
        let mut probe = EventLogProbe::new();
        let mut sim = SimBuilder::new(config, workload).probe(&mut probe).build().unwrap();
        sim.run().unwrap();
        probe.to_vec()
    }

    #[test]
    fn renders_one_lane_per_core() {
        let events = logged_run(&micro::ping_pong(3, 2), 3);
        let art = render_timeline(&events, 3, &TimelineOptions::default());
        for core in 0..3 {
            assert!(art.contains(&format!("c{core}")), "{art}");
        }
        assert!(art.contains('F'));
        assert!(art.contains('B'));
    }

    #[test]
    fn line_filter_hides_other_lines() {
        let events = logged_run(&micro::streaming(2, 10), 2);
        let all = render_timeline(&events, 2, &TimelineOptions::default());
        let one = render_timeline(
            &events,
            2,
            &TimelineOptions { line: Some(LineAddr::new(0x1000)), ..Default::default() },
        );
        // Count glyphs in the lane rows only (the legend also contains F).
        let fills = |s: &str| {
            s.lines().filter(|l| l.starts_with('c')).map(|l| l.matches('F').count()).sum::<usize>()
        };
        assert!(fills(&one) < fills(&all));
        assert_eq!(fills(&one), 1, "exactly core 0's first line");
    }

    #[test]
    fn truncation_is_marked() {
        let events = logged_run(&micro::streaming(1, 300), 1);
        let art = render_timeline(
            &events,
            1,
            &TimelineOptions { cycles_per_column: 1, max_columns: 20, ..Default::default() },
        );
        assert!(art.contains('…'));
        let lane = art.lines().find(|l| l.starts_with("c0")).unwrap();
        assert!(lane.chars().count() <= 20 + "c0  …".chars().count());
    }

    #[test]
    fn switches_appear_in_header() {
        let config = SimConfig::builder(1).build().unwrap();
        let mut probe = EventLogProbe::new();
        let mut sim =
            SimBuilder::new(config, &micro::streaming(1, 5)).probe(&mut probe).build().unwrap();
        sim.schedule_timer_switch(Cycles::new(10), vec![TimerValue::MSI]).unwrap();
        sim.run().unwrap();
        let art = render_timeline(&probe.to_vec(), 1, &TimelineOptions::default());
        assert!(art.contains("timer switches at cycles [10]"), "{art}");
    }

    #[test]
    fn empty_log_renders_empty_lanes() {
        let art = render_timeline(&[], 2, &TimelineOptions::default());
        assert!(art.contains("c0"));
        assert!(art.contains("c1"));
    }
}
