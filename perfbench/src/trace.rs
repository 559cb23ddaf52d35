//! Driver-side spans for the traced run.
//!
//! One in `SAMPLE_EVERY` transactions is stamped at five instants on the
//! driver thread, which yields a `txn` span (due → observed done)
//! parenting `gen`, `submit`, `inflight` and `reap`. Samples go into a
//! buffer allocated before the window and are written out after it, so
//! tracing never touches the filesystem or the allocator while measuring.
//! Spans *inside* the engine are ROADMAP item 1(a), a later change.

use std::io::Write as _;
use std::time::Instant;

pub const SAMPLE_EVERY: u64 = 64;
/// Samples kept per driver thread per window; later ones are counted as
/// dropped (a window that overflows is still uniformly sampled up to then).
const CAPACITY: usize = 1 << 15;
/// "Not sampled" marker in the in-flight queue.
pub const NO_SLOT: u32 = u32::MAX;

/// Five instants of one sampled transaction, ns since the tracer's origin.
/// In a closed loop a transaction is due the moment its generation starts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    pub id: u64,
    pub gen_start: u64,
    pub gen_end: u64,
    pub submit_end: u64,
    pub reap_start: u64,
    pub reap_end: u64,
}

pub struct Tracer {
    origin: Instant,
    samples: Vec<Sample>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            samples: Vec::with_capacity(CAPACITY),
            dropped: 0,
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a sample; returns its slot, or [`NO_SLOT`] when the buffer is
    /// full.
    #[inline]
    pub fn begin(&mut self, id: u64, gen_start: u64, gen_end: u64, submit_end: u64) -> u32 {
        if self.samples.len() == CAPACITY {
            self.dropped += 1;
            return NO_SLOT;
        }
        self.samples.push(Sample {
            id,
            gen_start,
            gen_end,
            submit_end,
            ..Sample::default()
        });
        (self.samples.len() - 1) as u32
    }

    #[inline]
    pub fn end(&mut self, slot: u32, reap_start: u64, reap_end: u64) {
        let s = &mut self.samples[slot as usize];
        s.reap_start = reap_start;
        s.reap_end = reap_end;
    }

    /// Closed samples only (a window's tail may hold transactions whose
    /// reap was never stamped; they cannot occur today because every
    /// window drains, but a half-stamped sample must never be reported).
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.reap_end != 0)
    }
}

/// The child spans of one sample, in order: `(name, start, end)`.
fn children(s: &Sample) -> [(&'static str, u64, u64); 4] {
    [
        ("gen", s.gen_start, s.gen_end),
        ("submit", s.gen_end, s.submit_end),
        ("inflight", s.submit_end, s.reap_start),
        ("reap", s.reap_start, s.reap_end),
    ]
}

/// Mean duration per span name over all samples, plus the `txn` span's
/// self time (its duration minus what its children cover), all in ns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanMeans {
    pub samples: u64,
    pub txn: f64,
    pub txn_self: f64,
    pub gen: f64,
    pub submit: f64,
    pub inflight: f64,
    pub reap: f64,
}

pub fn span_means<'a>(samples: impl Iterator<Item = &'a Sample>) -> SpanMeans {
    let mut m = SpanMeans::default();
    for s in samples {
        m.samples += 1;
        let txn = (s.reap_end - s.gen_start) as f64;
        let mut covered = 0.0;
        for (name, start, end) in children(s) {
            let d = (end - start) as f64;
            covered += d;
            match name {
                "gen" => m.gen += d,
                "submit" => m.submit += d,
                "inflight" => m.inflight += d,
                _ => m.reap += d,
            }
        }
        m.txn += txn;
        m.txn_self += txn - covered;
    }
    if m.samples > 0 {
        let n = m.samples as f64;
        for v in [
            &mut m.txn,
            &mut m.txn_self,
            &mut m.gen,
            &mut m.submit,
            &mut m.inflight,
            &mut m.reap,
        ] {
            *v /= n;
        }
    }
    m
}

/// Write one JSON line per span: a `txn` parent (id `<driver>.<n>`) and
/// its four children naming it as `parent`.
pub fn write_jsonl(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<u64> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut lines = 0u64;
    for (driver, t) in tracers.iter().enumerate() {
        for s in t.samples() {
            let id = format!("{driver}.{}", s.id);
            writeln!(
                out,
                "{{\"id\": \"{id}\", \"span\": \"txn\", \"parent\": null, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.gen_start, s.reap_end
            )?;
            for (name, start, end) in children(s) {
                writeln!(
                    out,
                    "{{\"id\": \"{id}\", \"span\": \"{name}\", \"parent\": \"txn\", \
                     \"start_ns\": {start}, \"end_ns\": {end}}}"
                )?;
            }
            lines += 5;
        }
    }
    out.flush()?;
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample(id: u64, at: [u64; 5]) -> Sample {
        Sample {
            id,
            gen_start: at[0],
            gen_end: at[1],
            submit_end: at[2],
            reap_start: at[3],
            reap_end: at[4],
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let a = sample(0, [100, 110, 130, 200, 260]);
        let b = sample(64, [300, 330, 340, 400, 420]);
        let m = span_means([a, b].iter());
        assert_eq!(m.samples, 2);
        assert_eq!(m.gen, 20.0);
        assert_eq!(m.submit, 15.0);
        assert_eq!(m.inflight, 65.0);
        assert_eq!(m.reap, 40.0);
        assert_eq!(m.txn, 140.0);
        assert_eq!(m.txn_self, 0.0, "children tile the closed-loop txn span");
        assert_eq!(span_means([].iter()), SpanMeans::default());
    }

    #[test]
    fn tracer_samples_drop_when_full_and_skip_unclosed() {
        let mut t = Tracer::new(Instant::now());
        let first = t.begin(0, 1, 2, 3);
        let second = t.begin(64, 4, 5, 6);
        t.end(first, 7, 8);
        assert_ne!(second, NO_SLOT);
        assert_eq!(t.samples().count(), 1, "unclosed sample is not reported");
        for i in 2..CAPACITY as u64 {
            t.begin(i, 1, 2, 3);
        }
        assert_eq!(t.begin(9, 1, 2, 3), NO_SLOT);
        assert_eq!(t.dropped, 1);
    }

    #[test]
    fn jsonl_lines_parse_and_share_an_id() {
        let mut t = Tracer::new(Instant::now());
        let slot = t.begin(128, 10, 20, 30);
        t.end(slot, 40, 50);
        // Tests run from the package directory; `.perfbench/` is ignored.
        let dir = crate::parent::scratch_root().join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        assert_eq!(write_jsonl(&path, &[t]).unwrap(), 5);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 5);
        assert!(lines
            .iter()
            .all(|l| l.get("id").unwrap().as_str() == Some("0.128")));
        assert_eq!(lines[0].get("span").unwrap().as_str(), Some("txn"));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[3].get("span").unwrap().as_str(), Some("inflight"));
        assert_eq!(lines[3].get("start_ns").unwrap().as_f64(), Some(30.0));
        assert_eq!(lines[3].get("end_ns").unwrap().as_f64(), Some(40.0));
    }
}
