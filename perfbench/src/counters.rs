//! Hardware instruction and cycle counts of the benchmark process.
//!
//! `perfbench/run.py` starts the benchmark and attaches user-mode
//! instruction and cycle counters to it (`perf_event_open`, inherited by
//! the threads it starts). The benchmark asks for a reading by printing
//! [`MARK`] on a line of its own and blocks until the parent answers on
//! stdin with `<instructions> <cycles>`, so a phase bracketed by two
//! readings is counted exactly, whatever else the host is doing.

use std::io::{self, BufRead, Write};

/// The line that asks the parent for a reading.
pub const MARK: &str = "@@counters";

/// Cumulative user-mode counts of this process and its threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// Instructions retired.
    pub instructions: u64,
    /// Core cycles.
    pub cycles: u64,
}

impl Sample {
    /// The counts between `earlier` and `self`.
    pub fn since(self, earlier: Sample) -> Sample {
        Sample {
            instructions: self.instructions.saturating_sub(earlier.instructions),
            cycles: self.cycles.saturating_sub(earlier.cycles),
        }
    }
}

/// A source of [`Sample`]s.
pub trait Counters {
    /// The counts so far.
    fn read(&mut self) -> Sample;
}

/// Counts read from the parent over stdout and stdin (see the module
/// docs). Panics when the parent does not answer: without it no count
/// can be reported.
pub struct Parent;

impl Counters for Parent {
    fn read(&mut self) -> Sample {
        let mut out = io::stdout().lock();
        writeln!(out, "{MARK}")
            .and_then(|()| out.flush())
            .expect("ask the parent for a counter reading");
        drop(out);
        let mut line = String::new();
        io::stdin()
            .lock()
            .read_line(&mut line)
            .expect("read the parent's counter reading");
        parse(&line).unwrap_or_else(|| {
            panic!("bad counter reading {line:?}: run the benchmark through perfbench/run.py")
        })
    }
}

/// No counters: every reading is zero. For the builds and runs whose
/// counts are not reported.
pub struct Off;

impl Counters for Off {
    fn read(&mut self) -> Sample {
        Sample::default()
    }
}

/// `"<instructions> <cycles>\n"` → [`Sample`].
pub fn parse(line: &str) -> Option<Sample> {
    let mut it = line.split_whitespace().map(|w| w.parse::<u64>().ok());
    let s = Sample {
        instructions: it.next()??,
        cycles: it.next()??,
    };
    it.next().is_none().then_some(s)
}
