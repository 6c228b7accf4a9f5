//! Seeded workload inputs. Everything a run sends — the student table the
//! replicas serve, which student each read asks for, the size of every
//! purchase order, the coordinator-kill offset — derives from the seed
//! argument alone, so the same seed replays a byte-identical request
//! stream.

use std::time::Duration;

use whisper::StudentRecord;
use whisper_soap::Envelope;
use whisper_xml::Element;

/// SplitMix64: tiny, seedable, and stable across toolchains and crates.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Students served by every replica.
pub const STUDENTS: usize = 512;

const PROGRAMS: [&str; 6] = [
    "Informatics",
    "Mathematics",
    "Physics",
    "Economics",
    "Chemistry",
    "Linguistics",
];
const GIVEN: [&str; 8] = [
    "Ana", "Bruno", "Carla", "Duarte", "Eva", "Filipe", "Graca", "Hugo",
];
const FAMILY: [&str; 8] = [
    "Silva",
    "Santos",
    "Ferreira",
    "Pereira",
    "Costa",
    "Rodrigues",
    "Martins",
    "Sousa",
];

/// The seeded student table.
pub fn students(seed: u64) -> Vec<StudentRecord> {
    let mut rng = Rng::new(seed, 1);
    (0..STUDENTS)
        .map(|i| {
            let given = GIVEN[rng.below(GIVEN.len() as u64) as usize];
            let family = FAMILY[rng.below(FAMILY.len() as u64) as usize];
            StudentRecord {
                id: format!("s{:05}", 10_000 + i),
                name: format!("{given} {family} {:04}", rng.below(10_000)),
                program: PROGRAMS[rng.below(PROGRAMS.len() as u64) as usize].to_string(),
                gpa: 2.0 + rng.below(200) as f64 / 100.0,
            }
        })
        .collect()
}

/// The `StudentInformation` request for one student.
pub fn student_request(id: &str) -> String {
    let mut payload = Element::new("StudentInformation");
    payload.push_child(Element::with_text("StudentID", id));
    Envelope::request(payload).to_xml_string()
}

/// Which answer a request expects: the student's index in the table for
/// reads, the order's sequence number for writes (see [`order_number`]).
pub type Expect = u32;

/// The order number of order `n` of a seed's stream.
pub fn order_number(seed: u64, n: Expect) -> String {
    format!("PO-{:08X}-{n:010}", seed as u32)
}

/// Purchase orders carry between these many line items (≈100 bytes each).
pub const MIN_LINES: u64 = 100;
/// See [`MIN_LINES`].
pub const MAX_LINES: u64 = 400;

/// Distinct line-item lists the order stream draws from, their line
/// counts spread evenly over `MIN_LINES..=MAX_LINES` so the mean order
/// size is the same for every seed; each order still gets its own number.
const ORDER_SHAPES: u64 = 16;

/// A `ProcessOrder` envelope split around its order number, so the
/// generator builds each request with one copy instead of an XML pass.
#[derive(Debug, Clone)]
struct OrderShape {
    head: String,
    tail: String,
}

const ORDER_MARK: &str = "@ORDER@";

fn order_shape(rng: &mut Rng, i: u64) -> OrderShape {
    let lines = MIN_LINES + i * (MAX_LINES - MIN_LINES) / (ORDER_SHAPES - 1);
    let mut payload = Element::new("ProcessOrder");
    payload.push_child(Element::with_text("OrderNumber", ORDER_MARK));
    for l in 0..lines {
        let mut item = Element::new("LineItem");
        item.push_child(Element::with_text("Line", l.to_string()));
        item.push_child(Element::with_text(
            "Sku",
            format!("SKU-{:08X}", rng.next_u64() as u32),
        ));
        item.push_child(Element::with_text(
            "Quantity",
            (1 + rng.below(50)).to_string(),
        ));
        item.push_child(Element::with_text(
            "UnitPrice",
            format!("{}.{:02}", 1 + rng.below(500), rng.below(100)),
        ));
        payload.push_child(item);
    }
    let xml = Envelope::request(payload).to_xml_string();
    let at = xml.find(ORDER_MARK).expect("order mark present");
    OrderShape {
        head: xml[..at].to_string(),
        tail: xml[at + ORDER_MARK.len()..].to_string(),
    }
}

/// The request stream of one run: an endless, seed-determined sequence
/// of envelopes with their expected answers.
pub struct RequestStream {
    rng: Rng,
    seed: u64,
    next: Expect,
    kind: StreamKind,
}

enum StreamKind {
    Students { envelopes: Vec<String> },
    Orders { shapes: Vec<OrderShape> },
}

impl RequestStream {
    /// Reads of seeded student ids against `students`.
    pub fn students(seed: u64, stream: u64, students: &[StudentRecord]) -> RequestStream {
        RequestStream {
            rng: Rng::new(seed, stream),
            seed,
            next: 0,
            kind: StreamKind::Students {
                envelopes: students.iter().map(|s| student_request(&s.id)).collect(),
            },
        }
    }

    /// Purchase-order writes with seeded line counts. Streams number
    /// their orders from `stream << 24`, so no two streams of a run share
    /// an order number (`stream` < 256).
    pub fn orders(seed: u64, stream: u64) -> RequestStream {
        assert!(stream < 256, "order streams are numbered below 256");
        let mut shape_rng = Rng::new(seed, 2);
        RequestStream {
            rng: Rng::new(seed, stream),
            seed,
            next: (stream as Expect) << 24,
            kind: StreamKind::Orders {
                shapes: (0..ORDER_SHAPES)
                    .map(|i| order_shape(&mut shape_rng, i))
                    .collect(),
            },
        }
    }

    /// The next request and its expected answer.
    pub fn next_request(&mut self) -> (String, Expect) {
        let n = self.next;
        self.next += 1;
        match &self.kind {
            StreamKind::Students { envelopes } => {
                let i = self.rng.below(envelopes.len() as u64) as usize;
                (envelopes[i].clone(), i as Expect)
            }
            StreamKind::Orders { shapes } => {
                let s = &shapes[self.rng.below(shapes.len() as u64) as usize];
                let number = order_number(self.seed, n);
                let mut env = String::with_capacity(s.head.len() + number.len() + s.tail.len());
                env.push_str(&s.head);
                env.push_str(&number);
                env.push_str(&s.tail);
                (env, n)
            }
        }
    }
}

/// When the failover workload kills the coordinator: a seeded offset
/// between 30% and 50% into the offered window, so service is measured
/// on both sides of the outage.
pub fn kill_offset(seed: u64, window: Duration) -> Duration {
    let frac = 0.30 + Rng::new(seed, 3).below(2_001) as f64 / 10_000.0;
    window.mul_f64(frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_a_byte_identical_stream() {
        let table = students(7);
        let mut a = RequestStream::students(7, 9, &table);
        let mut b = RequestStream::students(7, 9, &students(7));
        for _ in 0..100 {
            assert_eq!(a.next_request(), b.next_request());
        }
        let mut a = RequestStream::orders(7, 9);
        let mut b = RequestStream::orders(7, 9);
        for _ in 0..20 {
            assert_eq!(a.next_request(), b.next_request());
        }
        assert_ne!(students(7), students(8));
    }

    #[test]
    fn orders_are_tens_of_kib_and_valid_soap() {
        let mut s = RequestStream::orders(1, 9);
        for _ in 0..8 {
            let (env, expect) = s.next_request();
            assert!((8_000..64_000).contains(&env.len()), "{}", env.len());
            let parsed = Envelope::parse(&env).expect("valid envelope");
            let number = parsed
                .body_payload()
                .and_then(|p| p.child("OrderNumber"))
                .map(|e| e.text());
            assert_eq!(order_number(1, expect), number.expect("order number"));
        }
    }
}
