//! Deterministic Chrome `trace_event` JSON writer.
//!
//! The flight-recorder's event rings render into the Trace Event
//! Format understood by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): an object with a
//! `traceEvents` array of `"X"` (complete), `"B"`/`"E"` (duration)
//! and `"i"` (instant) events. Timestamps are virtual-clock microseconds, so a same-seed
//! rerun produces a byte-identical file — the determinism tests diff
//! the rendered bytes directly.
//!
//! Each simulated compute node maps to a `pid` and each session/
//! endpoint to a `tid`, which Perfetto renders as process/thread
//! tracks. Event `args` carry the causal detail (peer, addr, bytes,
//! txn id, outcome) the timeline view shows on click.

use crate::json::Json;

/// Builder for one trace file. Events are appended in the caller's
/// order; callers feed endpoints in a fixed (node, session) order so
/// the output is reproducible.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<Json>,
    meta: Vec<Json>,
}

fn us(ns: u64) -> Json {
    // Microseconds with nanosecond precision kept as a fraction; the
    // f64 mantissa holds ns exactly up to ~104 virtual days.
    Json::F(ns as f64 / 1000.0)
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Name a process track (shown as the Perfetto process label).
    pub fn name_process(&mut self, pid: u64, name: &str) {
        self.meta.push(Json::obj(vec![
            ("name", Json::S("process_name".into())),
            ("ph", Json::S("M".into())),
            ("pid", Json::U(pid)),
            ("tid", Json::U(0)),
            (
                "args",
                Json::obj(vec![("name", Json::S(name.into()))]),
            ),
        ]));
    }

    /// Name a thread track.
    pub fn name_thread(&mut self, pid: u64, tid: u64, name: &str) {
        self.meta.push(Json::obj(vec![
            ("name", Json::S("thread_name".into())),
            ("ph", Json::S("M".into())),
            ("pid", Json::U(pid)),
            ("tid", Json::U(tid)),
            (
                "args",
                Json::obj(vec![("name", Json::S(name.into()))]),
            ),
        ]));
    }

    /// A `"X"` complete event: `[ts, ts+dur)` on `(pid, tid)`.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        ts_ns: u64,
        dur_ns: u64,
        pid: u64,
        tid: u64,
        args: Vec<(&str, Json)>,
    ) {
        self.events.push(Json::obj(vec![
            ("name", Json::S(name.into())),
            ("cat", Json::S(cat.into())),
            ("ph", Json::S("X".into())),
            ("ts", us(ts_ns)),
            ("dur", us(dur_ns)),
            ("pid", Json::U(pid)),
            ("tid", Json::U(tid)),
            (
                "args",
                Json::O(args.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
            ),
        ]));
    }

    /// A `"B"` duration-begin event.
    pub fn begin(&mut self, name: &str, cat: &str, ts_ns: u64, pid: u64, tid: u64) {
        self.events.push(Json::obj(vec![
            ("name", Json::S(name.into())),
            ("cat", Json::S(cat.into())),
            ("ph", Json::S("B".into())),
            ("ts", us(ts_ns)),
            ("pid", Json::U(pid)),
            ("tid", Json::U(tid)),
        ]));
    }

    /// An `"E"` duration-end event closing the innermost `"B"`.
    pub fn end(&mut self, ts_ns: u64, pid: u64, tid: u64) {
        self.events.push(Json::obj(vec![
            ("ph", Json::S("E".into())),
            ("ts", us(ts_ns)),
            ("pid", Json::U(pid)),
            ("tid", Json::U(tid)),
        ]));
    }

    /// An `"s"` flow-start event: begins flow `id` at `(pid, tid)`.
    /// Perfetto draws an arrow from here to the matching
    /// [`ChromeTrace::flow_finish`] with the same `id` — used to link a
    /// lock waiter's slice to its holder's transaction.
    pub fn flow_start(&mut self, name: &str, id: u64, ts_ns: u64, pid: u64, tid: u64) {
        self.events.push(Json::obj(vec![
            ("name", Json::S(name.into())),
            ("cat", Json::S("flow".into())),
            ("ph", Json::S("s".into())),
            ("id", Json::U(id)),
            ("ts", us(ts_ns)),
            ("pid", Json::U(pid)),
            ("tid", Json::U(tid)),
        ]));
    }

    /// An `"f"` flow-finish event terminating flow `id` (binding point
    /// `"e"`: attaches to the enclosing slice).
    pub fn flow_finish(&mut self, name: &str, id: u64, ts_ns: u64, pid: u64, tid: u64) {
        self.events.push(Json::obj(vec![
            ("name", Json::S(name.into())),
            ("cat", Json::S("flow".into())),
            ("ph", Json::S("f".into())),
            ("bp", Json::S("e".into())),
            ("id", Json::U(id)),
            ("ts", us(ts_ns)),
            ("pid", Json::U(pid)),
            ("tid", Json::U(tid)),
        ]));
    }

    /// An `"i"` instant event (thread scope) — faults, steals, marks.
    pub fn instant(&mut self, name: &str, cat: &str, ts_ns: u64, pid: u64, tid: u64) {
        self.events.push(Json::obj(vec![
            ("name", Json::S(name.into())),
            ("cat", Json::S(cat.into())),
            ("ph", Json::S("i".into())),
            ("s", Json::S("t".into())),
            ("ts", us(ts_ns)),
            ("pid", Json::U(pid)),
            ("tid", Json::U(tid)),
        ]));
    }

    /// Number of events recorded (metadata excluded).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The full trace object: metadata records first, then events in
    /// append order.
    pub fn to_json(&self) -> Json {
        let mut all = self.meta.clone();
        all.extend(self.events.iter().cloned());
        Json::obj(vec![
            ("traceEvents", Json::A(all)),
            ("displayTimeUnit", Json::S("ns".into())),
        ])
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Write to `path` (pretty-printed; still byte-deterministic).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json().render_pretty(2) + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_in_append_order_with_us_timestamps() {
        let mut t = ChromeTrace::new();
        t.name_process(1, "node0");
        t.complete("READ", "verb", 1500, 2000, 1, 7, vec![("bytes", Json::U(64))]);
        t.begin("execute", "phase", 500, 1, 7);
        t.end(4000, 1, 7);
        let s = t.render();
        assert!(s.contains("\"ts\":1.5"));
        assert!(s.contains("\"dur\":2.0"));
        assert!(s.contains("\"process_name\""));
        assert!(s.contains("\"displayTimeUnit\":\"ns\""));
        // Metadata precedes events.
        assert!(s.find("process_name").unwrap() < s.find("READ").unwrap());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn flow_events_carry_ids_and_binding_points() {
        let mut t = ChromeTrace::new();
        t.flow_start("blocked-on", 42, 1000, 0, 1);
        t.flow_finish("blocked-on", 42, 2000, 0, 2);
        let s = t.render();
        assert!(s.contains("\"ph\":\"s\""));
        assert!(s.contains("\"ph\":\"f\""));
        assert!(s.contains("\"bp\":\"e\""));
        assert!(s.contains("\"id\":42"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn same_inputs_render_identically() {
        let build = || {
            let mut t = ChromeTrace::new();
            for i in 0..10u64 {
                t.complete("CAS", "verb", i * 100, 250, 0, i % 2, vec![("addr", Json::U(i))]);
            }
            t.instant("fault", "fault", 333, 0, 0);
            t.render()
        };
        assert_eq!(build(), build());
    }
}
