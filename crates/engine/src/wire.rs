//! Binary codec of the data-plane frames that cross worker boundaries.
//!
//! One frame is one [`Message`] addressed to one input channel of one
//! physical instance. The bytes below are the *payload* of a `pdsp-net`
//! length-prefixed frame; everything is little-endian and nothing is
//! aligned.
//!
//! ```text
//! frame    := instance:u64 channel:u64 tag:u8 body
//! body     := count:u32 tuple*            tag 1  Message::Batch, untraced
//!           | trace count:u32 tuple*      tag 2  Message::Batch, traced
//!           | watermark:i64               tag 3  Message::Watermark
//!           | checkpoint:u64              tag 4  Message::Barrier
//!           |                             tag 5  Message::Eos
//! trace    := trace_id:u64 parent_span:u64 sent_ns:u64 wire_ns:u64
//! tuple    := event_time:i64 emit_ns:u64 width:u32 value*
//! value    := 0 i64 | 1 f64-bits | 2 len:u32 utf8* | 3 bool:u8 | 4 i64
//!             (Int, Double, Str, Bool, Timestamp)
//! ```
//!
//! Tag 0 is retired and decodes as an unknown tag, so a one-tuple frame
//! from an older encoder is rejected rather than misread.
//!
//! Values carry their own tag rather than following a per-channel schema:
//! edges downstream of an Opaque UDO have no schema to follow, and one
//! self-describing layout serves every edge.
//!
//! Frames arrive from another process, so [`decode_frame`] trusts nothing:
//! every count and length is checked against the bytes that remain before
//! anything is allocated for it, every tag and bool byte must be one the
//! encoder writes, strings must be UTF-8 and the frame must end exactly
//! where its last field does. A frame that decodes therefore re-encodes to
//! the same bytes.

use crate::message::{Batch, FrameTrace, Message};
use crate::value::{Row, Tuple, Value};
use pdsp_telemetry::{SpanId, TraceContext, TraceId};
use std::io;

const TAG_BATCH: u8 = 1;
const TAG_TRACED_BATCH: u8 = 2;
const TAG_WATERMARK: u8 = 3;
const TAG_BARRIER: u8 = 4;
const TAG_EOS: u8 = 5;

const VAL_INT: u8 = 0;
const VAL_DOUBLE: u8 = 1;
const VAL_STR: u8 = 2;
const VAL_BOOL: u8 = 3;
const VAL_TIMESTAMP: u8 = 4;

/// Fewest bytes a tuple can occupy: event time, emit stamp, width.
const MIN_TUPLE_BYTES: usize = 8 + 8 + 4;
/// Fewest bytes a value can occupy: a tag and a bool.
const MIN_VALUE_BYTES: usize = 2;

/// Append the frame that carries `msg` to input `channel` of `instance`.
///
/// Counts and string lengths are written as `u32`. One that does not fit
/// belongs to a frame of more than `u32::MAX` bytes, which the framing
/// layer refuses to send, so the truncated field never reaches a decoder.
pub fn encode_frame(buf: &mut Vec<u8>, instance: usize, channel: usize, msg: &Message) {
    buf.extend_from_slice(&(instance as u64).to_le_bytes());
    buf.extend_from_slice(&(channel as u64).to_le_bytes());
    match msg {
        Message::Batch(b) => {
            match &b.trace {
                None => buf.push(TAG_BATCH),
                Some(ft) => {
                    buf.push(TAG_TRACED_BATCH);
                    for word in [ft.ctx.trace.0, ft.ctx.parent.0, ft.sent_ns, ft.wire_ns] {
                        buf.extend_from_slice(&word.to_le_bytes());
                    }
                }
            }
            buf.extend_from_slice(&(b.tuples.len() as u32).to_le_bytes());
            for t in &b.tuples {
                encode_tuple(buf, t);
            }
        }
        Message::Watermark(wm) => {
            buf.push(TAG_WATERMARK);
            buf.extend_from_slice(&wm.to_le_bytes());
        }
        Message::Barrier(id) => {
            buf.push(TAG_BARRIER);
            buf.extend_from_slice(&id.to_le_bytes());
        }
        Message::Eos => buf.push(TAG_EOS),
    }
}

fn encode_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    buf.extend_from_slice(&t.event_time.to_le_bytes());
    buf.extend_from_slice(&t.emit_ns.to_le_bytes());
    buf.extend_from_slice(&(t.values.len() as u32).to_le_bytes());
    for v in &t.values {
        match v {
            Value::Int(i) => {
                buf.push(VAL_INT);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Double(d) => {
                buf.push(VAL_DOUBLE);
                buf.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                buf.push(VAL_STR);
                buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                buf.push(VAL_BOOL);
                buf.push(*b as u8);
            }
            Value::Timestamp(t) => {
                buf.push(VAL_TIMESTAMP);
                buf.extend_from_slice(&t.to_le_bytes());
            }
        }
    }
}

/// Decode one frame into `(instance, channel, message)`. Any byte string is
/// safe to pass; see the module docs for what is rejected.
pub fn decode_frame(frame: &[u8]) -> io::Result<(usize, usize, Message)> {
    let mut r = Reader { rest: frame };
    let instance = r.index("instance")?;
    let channel = r.index("channel")?;
    let msg = match r.u8()? {
        TAG_BATCH => Message::Batch(r.batch(None)?),
        TAG_TRACED_BATCH => {
            let trace = FrameTrace {
                ctx: TraceContext {
                    trace: TraceId(r.u64()?),
                    parent: SpanId(r.u64()?),
                },
                sent_ns: r.u64()?,
                wire_ns: r.u64()?,
            };
            Message::Batch(r.batch(Some(trace))?)
        }
        TAG_WATERMARK => Message::Watermark(r.u64()? as i64),
        TAG_BARRIER => Message::Barrier(r.u64()?),
        TAG_EOS => Message::Eos,
        other => return Err(corrupt(format!("unknown message tag {other}"))),
    };
    if !r.rest.is_empty() {
        return Err(corrupt(format!(
            "{} bytes after the end of the message",
            r.rest.len()
        )));
    }
    Ok((instance, channel, msg))
}

fn corrupt(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("data frame: {what}"))
}

/// The undecoded rest of a frame.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(corrupt(format!(
                "field of {n} bytes with {} left",
                self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> io::Result<u64> {
        let bytes = self.take(8)?.try_into().expect("take(8) yields 8 bytes");
        Ok(u64::from_le_bytes(bytes))
    }

    fn index(&mut self, what: &str) -> io::Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| corrupt(format!("{what} exceeds usize")))
    }

    /// A `u32` count of elements of at least `min_bytes` each, refused when
    /// the rest of the frame could not hold that many — so a corrupt count
    /// never sizes an allocation.
    fn count(&mut self, min_bytes: usize) -> io::Result<usize> {
        let bytes = self.take(4)?.try_into().expect("take(4) yields 4 bytes");
        let n = u32::from_le_bytes(bytes) as usize;
        if n > self.rest.len() / min_bytes {
            return Err(corrupt(format!(
                "{n} elements of {min_bytes}+ bytes with {} left",
                self.rest.len()
            )));
        }
        Ok(n)
    }

    fn batch(&mut self, trace: Option<FrameTrace>) -> io::Result<Batch> {
        let n = self.count(MIN_TUPLE_BYTES)?;
        let mut tuples = Vec::with_capacity(n);
        for _ in 0..n {
            tuples.push(self.tuple()?);
        }
        Ok(Batch { tuples, trace })
    }

    fn tuple(&mut self) -> io::Result<Tuple> {
        let event_time = self.u64()? as i64;
        let emit_ns = self.u64()?;
        let width = self.count(MIN_VALUE_BYTES)?;
        let mut values = Row::with_capacity(width);
        for _ in 0..width {
            values.push(self.value()?);
        }
        Ok(Tuple {
            values,
            event_time,
            emit_ns,
        })
    }

    fn value(&mut self) -> io::Result<Value> {
        Ok(match self.u8()? {
            VAL_INT => Value::Int(self.u64()? as i64),
            VAL_DOUBLE => Value::Double(f64::from_bits(self.u64()?)),
            VAL_STR => {
                let len = self.count(1)?;
                let text = std::str::from_utf8(self.take(len)?)
                    .map_err(|e| corrupt(format!("string is not UTF-8: {e}")))?;
                Value::str(text)
            }
            VAL_BOOL => match self.u8()? {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                other => return Err(corrupt(format!("bool byte {other}"))),
            },
            VAL_TIMESTAMP => Value::Timestamp(self.u64()? as i64),
            other => return Err(corrupt(format!("unknown value tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encoded(instance: usize, channel: usize, msg: &Message) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame(&mut buf, instance, channel, msg);
        buf
    }

    /// Field-by-field identity. `Value`'s own `==` is numeric (`Int(1) ==
    /// Double(1.0)`, NaN unequal to itself), which is not what a codec must
    /// preserve.
    fn identical(a: &Message, b: &Message) -> bool {
        let same_tuple = |x: &Tuple, y: &Tuple| {
            x.event_time == y.event_time
                && x.emit_ns == y.emit_ns
                && x.values.len() == y.values.len()
                && x.values.iter().zip(&y.values).all(|pair| match pair {
                    (Value::Int(p), Value::Int(q)) => p == q,
                    (Value::Double(p), Value::Double(q)) => p.to_bits() == q.to_bits(),
                    (Value::Str(p), Value::Str(q)) => p == q,
                    (Value::Bool(p), Value::Bool(q)) => p == q,
                    (Value::Timestamp(p), Value::Timestamp(q)) => p == q,
                    _ => false,
                })
        };
        match (a, b) {
            (Message::Batch(x), Message::Batch(y)) => {
                x.trace == y.trace
                    && x.tuples.len() == y.tuples.len()
                    && x.tuples
                        .iter()
                        .zip(&y.tuples)
                        .all(|(p, q)| same_tuple(p, q))
            }
            (Message::Watermark(x), Message::Watermark(y)) => x == y,
            (Message::Barrier(x), Message::Barrier(y)) => x == y,
            (Message::Eos, Message::Eos) => true,
            _ => false,
        }
    }

    /// Consumes `dice` to build values that lean on the edge cases.
    struct Dice<'a>(std::slice::Iter<'a, u64>);

    impl Dice<'_> {
        fn roll(&mut self) -> u64 {
            self.0.next().copied().unwrap_or(0)
        }

        fn int(&mut self) -> i64 {
            match self.roll() % 4 {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => 0,
                _ => self.roll() as i64,
            }
        }

        fn value(&mut self) -> Value {
            match self.roll() % 5 {
                0 => Value::Int(self.int()),
                1 => Value::Double(match self.roll() % 4 {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => f64::NEG_INFINITY,
                    _ => f64::from_bits(self.roll()),
                }),
                2 => Value::str(match self.roll() % 7 {
                    0 => String::new(),
                    1 => "žluťoučký kůň 🐎".to_string(),
                    2 => "the".to_string(),
                    // The longest inline string, the shortest shared one,
                    // and a two-byte character across the inline limit.
                    3 => "x".repeat(22),
                    4 => "x".repeat(23),
                    5 => "abcdefghijklmnopqrstuž".to_string(),
                    _ => "x".repeat((self.roll() % 300) as usize),
                }),
                3 => Value::Bool(self.roll() % 2 == 1),
                _ => Value::Timestamp(self.int()),
            }
        }

        fn tuple(&mut self) -> Tuple {
            let width = (self.roll() % 16) as usize;
            Tuple {
                values: (0..width).map(|_| self.value()).collect(),
                event_time: self.int(),
                emit_ns: self.roll(),
            }
        }

        fn message(&mut self, variant: usize) -> Message {
            match variant {
                0 | 1 => {
                    let n = 1 + (self.roll() % 5) as usize;
                    Message::Batch(Batch {
                        tuples: (0..n).map(|_| self.tuple()).collect(),
                        trace: (variant == 1).then(|| FrameTrace {
                            ctx: TraceContext {
                                trace: TraceId(self.roll()),
                                parent: SpanId(self.roll()),
                            },
                            sent_ns: self.roll(),
                            wire_ns: self.roll(),
                        }),
                    })
                }
                // The watermark that no longer holds anything back.
                2 => Message::Watermark(i64::MAX),
                3 => Message::Watermark(self.int()),
                4 => Message::Barrier(self.roll()),
                _ => Message::Eos,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every `Message` variant over every `Value` variant survives the
        /// wire bit for bit, and its frame is the only encoding of it.
        #[test]
        fn frames_round_trip(
            dice in prop::collection::vec(0u64..=u64::MAX, 400),
            instance in 0usize..100_000,
            channel in 0usize..64,
        ) {
            let mut dice = Dice(dice.iter());
            for variant in 0..6 {
                let msg = dice.message(variant);
                let bytes = encoded(instance, channel, &msg);
                let (i, c, back) = decode_frame(&bytes).map_err(|e| {
                    TestCaseError(format!("{msg:?} does not decode: {e}"))
                })?;
                prop_assert_eq!((i, c), (instance, channel));
                prop_assert!(identical(&back, &msg), "{:?} came back as {:?}", msg, back);
                prop_assert_eq!(encoded(i, c, &back), bytes);
            }
        }

        /// Arbitrary bytes either fail to decode or are a canonical frame.
        #[test]
        fn arbitrary_bytes_never_panic(
            junk in prop::collection::vec(0u8..=255, 0..96),
            tag in 0u8..8,
        ) {
            let mut frame = vec![0u8; 16];
            frame.push(tag);
            frame.extend_from_slice(&junk);
            for bytes in [&junk, &frame] {
                if let Ok((i, c, msg)) = decode_frame(bytes) {
                    prop_assert_eq!(&encoded(i, c, &msg), bytes);
                }
            }
        }
    }

    /// A traced batch touching every value variant, with the offset of
    /// every tag byte and of every count or length field in its frame.
    fn sample_batch() -> (Message, Vec<u8>, Vec<usize>, Vec<usize>) {
        let msg = Message::Batch(Batch {
            tuples: vec![
                Tuple {
                    values: vec![
                        Value::Int(i64::MIN),
                        Value::str("straße"),
                        Value::Double(f64::NAN),
                        Value::Bool(true),
                        Value::Timestamp(i64::MAX),
                        Value::str(""),
                    ]
                    .into(),
                    event_time: -7,
                    emit_ns: u64::MAX,
                },
                Tuple::new(Vec::new()),
                Tuple::at(vec![Value::str("the")], 1_700_000_000_000),
            ],
            trace: Some(FrameTrace {
                ctx: TraceContext {
                    trace: TraceId(9),
                    parent: SpanId(1 << 48 | 3),
                },
                sent_ns: 123_456_789,
                wire_ns: 123_460_000,
            }),
        });
        let bytes = encoded(3, 1, &msg);
        // Walk the layout the module docs give.
        let (mut tags, mut lengths) = (vec![16], Vec::new());
        let mut at = 17 + 32;
        lengths.push(at);
        at += 4;
        let Message::Batch(b) = &msg else {
            unreachable!()
        };
        for t in &b.tuples {
            at += 16;
            lengths.push(at);
            at += 4;
            for v in &t.values {
                tags.push(at);
                at += 1;
                at += match v {
                    Value::Str(s) => {
                        lengths.push(at);
                        4 + s.len()
                    }
                    Value::Bool(_) => 1,
                    _ => 8,
                };
            }
        }
        assert_eq!(at, bytes.len(), "the walk covers the whole frame");
        (msg, bytes, tags, lengths)
    }

    /// A tuple either side of a row's inline capacity (3 values inline, 4 on
    /// the heap) encodes to the bytes of a frame from before tuples kept
    /// their values inline, and decodes back to equal tuples.
    #[test]
    fn rows_either_side_of_the_inline_capacity_keep_their_wire_bytes() {
        let msg = Message::Batch(Batch::new(vec![
            Tuple::at([Value::Int(5), Value::str("ab"), Value::Double(0.25)], 9),
            Tuple::at(
                [
                    Value::Int(-3),
                    Value::str("word"),
                    Value::Double(1.5),
                    Value::Bool(true),
                ],
                10,
            ),
        ]));
        #[rustfmt::skip]
        let want: &[u8] = &[
            2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0,
            9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0,
            0, 5, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 97, 98,
            1, 0, 0, 0, 0, 0, 0, 208, 63,
            10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0,
            0, 253, 255, 255, 255, 255, 255, 255, 255, 2, 4, 0, 0, 0, 119, 111, 114, 100,
            1, 0, 0, 0, 0, 0, 0, 248, 63, 3, 1,
        ];
        assert_eq!(encoded(2, 1, &msg), want);
        let (instance, channel, back) = decode_frame(want).unwrap();
        assert_eq!((instance, channel), (2, 1));
        assert!(identical(&back, &msg));
    }

    /// Strings either side of the inline limit encode as they always have:
    /// tag, `u32` length, bytes (the bytes of a frame from before strings
    /// were stored inline).
    #[test]
    fn string_values_keep_their_wire_bytes() {
        let (s22, s23) = ("abcdefghijklmnopqrstuv", "abcdefghijklmnopqrstuvw");
        let s299 = &"0123456789".repeat(30)[..299];
        let msg = Message::Batch(Batch {
            tuples: vec![Tuple::new(
                [String::new(), s22.into(), s23.into(), s299.into()]
                    .iter()
                    .map(Value::str)
                    .collect::<Vec<_>>(),
            )],
            trace: None,
        });
        let mut want = vec![0; 16];
        want.extend_from_slice(&[1, 1, 0, 0, 0]);
        want.extend_from_slice(&[0; 16]);
        want.extend_from_slice(&[4, 0, 0, 0]);
        for (head, body) in [
            ([2, 0, 0, 0, 0], ""),
            ([2, 22, 0, 0, 0], s22),
            ([2, 23, 0, 0, 0], s23),
            ([2, 43, 1, 0, 0], s299),
        ] {
            want.extend_from_slice(&head);
            want.extend_from_slice(body.as_bytes());
        }
        assert_eq!(want.len(), 405);
        let bytes = encoded(0, 0, &msg);
        assert_eq!(bytes, want);
        assert!(identical(&decode_frame(&bytes).unwrap().2, &msg));
    }

    #[test]
    fn every_truncation_of_a_valid_frame_is_an_error() {
        let (msg, bytes, ..) = sample_batch();
        assert!(identical(&decode_frame(&bytes).unwrap().2, &msg));
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for variant in 0..6 {
            let msg = Dice([5, 1, 2, 3, 0, 9, 9].iter()).message(variant);
            let bytes = encoded(0, 0, &msg);
            for cut in 0..bytes.len() {
                assert!(decode_frame(&bytes[..cut]).is_err(), "{msg:?} cut at {cut}");
            }
        }
        let mut longer = bytes;
        longer.push(0);
        assert!(decode_frame(&longer).is_err(), "trailing byte");
    }

    #[test]
    fn corrupt_tags_and_lengths_are_errors_not_allocations() {
        let (_, bytes, tags, lengths) = sample_batch();
        let valid_tag = |at: usize, b: u8| {
            if at == 16 {
                (TAG_BATCH..=TAG_EOS).contains(&b)
            } else {
                b <= VAL_TIMESTAMP
            }
        };
        for &at in &tags {
            for b in (0..=255u8).filter(|&b| !valid_tag(at, b)) {
                let mut bad = bytes.clone();
                bad[at] = b;
                assert!(decode_frame(&bad).is_err(), "tag at {at} set to {b}");
            }
        }
        for &at in &lengths {
            // Every other value of every byte of the field. The high bytes
            // ask for up to 4 Gi elements: answering with an allocation
            // instead of an error would not survive the test.
            for byte in at..at + 4 {
                for b in (0..=255u8).filter(|&b| b != bytes[byte]) {
                    let mut bad = bytes.clone();
                    bad[byte] = b;
                    assert!(
                        decode_frame(&bad).is_err(),
                        "length at {at}: byte {byte} set to {b}"
                    );
                }
            }
        }
        // A bool is one of two bytes, and a string is UTF-8.
        let value_tags = &tags[1..];
        let mut bad = bytes.clone();
        assert_eq!(bad[value_tags[3] + 1], 1, "the bool");
        bad[value_tags[3] + 1] = 2;
        assert!(decode_frame(&bad).is_err());
        let mut bad = bytes.clone();
        assert_eq!(bad[value_tags[1] + 5], b's', "start of \"straße\"");
        bad[value_tags[1] + 5 + 4] = 0xFF;
        assert!(decode_frame(&bad).is_err());
        // Tag 0 followed by one well-formed tuple: the retired one-tuple
        // framing is an unknown tag like any other.
        let mut old = bytes[..16].to_vec();
        old.push(0);
        encode_tuple(&mut old, &Tuple::new(vec![Value::Int(1)]));
        let err = decode_frame(&old).unwrap_err();
        assert!(err.to_string().contains("unknown message tag 0"), "{err}");
    }
}
