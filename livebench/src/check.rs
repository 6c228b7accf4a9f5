//! Checks every response against the answer the seeded inputs imply.

use std::sync::Arc;

use whisper::StudentRecord;
use whisper_soap::Envelope;

use crate::inputs::{order_number, Expect};

/// Replica labels a `StudentInfo` may name as its `Source`.
pub const SOURCES: [&str; 2] = ["operational-db", "data-warehouse"];

/// How one response turned out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The expected answer.
    Good,
    /// A `<soap:Fault>`.
    Fault,
    /// A non-fault answer that is not the expected one.
    Wrong,
}

/// Knows the right answer to every request of a run.
#[derive(Clone)]
pub enum Oracle {
    /// `StudentInfo` for `table[expect]`.
    Students(Arc<Vec<StudentRecord>>),
    /// An `Invoice` echoing `order_number(seed, expect)`.
    Orders {
        /// The run's seed.
        seed: u64,
    },
}

impl Oracle {
    /// Judges `envelope` as the answer to a request expecting `expect`.
    pub fn judge(&self, envelope: &str, expect: Expect) -> Verdict {
        let Ok(env) = Envelope::parse(envelope) else {
            return Verdict::Wrong;
        };
        if env.is_fault() {
            return Verdict::Fault;
        }
        let Some(body) = env.body_payload() else {
            return Verdict::Wrong;
        };
        let text = |name: &str| body.child(name).map(|e| e.text());
        let good = match self {
            Oracle::Students(table) => table.get(expect as usize).is_some_and(|s| {
                body.name.as_ref() == "StudentInfo"
                    && text("StudentID").as_deref() == Some(s.id.as_str())
                    && text("Name").as_deref() == Some(s.name.as_str())
                    && text("Program").as_deref() == Some(s.program.as_str())
                    && text("Source").is_some_and(|src| SOURCES.contains(&src.as_str()))
            }),
            Oracle::Orders { seed } => {
                body.name.as_ref() == "Invoice"
                    && text("OrderNumber") == Some(order_number(*seed, expect))
            }
        };
        if good {
            Verdict::Good
        } else {
            Verdict::Wrong
        }
    }
}
