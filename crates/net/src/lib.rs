//! # pdsp-net — wire substrate for the distributed runtime
//!
//! The smallest set of networking primitives the process-per-worker runtime
//! needs, built on `std::net` only:
//!
//! * [`write_frame`] / [`read_frame`] — length-prefixed binary framing over
//!   any `Read`/`Write` pair. Frames are `u32` little-endian length followed
//!   by the payload, written with one `write_all` per frame
//!   ([`write_prefixed`] for senders that build frames in place) and read
//!   through `read_exact`, so partial reads and partial writes (short
//!   `write` returns, half-open peers) can never tear a frame. A clean EOF
//!   *between* frames is a normal end-of-stream (`Ok(None)`); an EOF
//!   *inside* a frame is an error — the signature of a peer that died
//!   mid-send. The framing does not care what a payload is: the
//!   distributed runtime's data connections carry the binary frames of
//!   `pdsp_engine::wire`, its control connections carry JSON.
//! * [`send_json`] / [`recv_json`] — serde JSON payloads over the framing,
//!   the encoding of control messages.
//! * [`BackoffPolicy`] — the decorrelated-jitter backoff generator
//!   (SplitMix64-seeded, deterministic per seed) shared by every reconnect
//!   path and by the controller's sweep retries.
//! * [`connect_with_backoff`] — TCP dial that walks a backoff schedule
//!   until the peer accepts or the attempt budget runs out.
//! * [`LeaseTable`] — coordinator-side heartbeat leases: each renewal
//!   extends a worker's lease; a worker silent past the timeout is expired,
//!   which is how real process death (SIGKILL included) is detected without
//!   any in-band signal.
//! * [`measure_loopback_rtt`] — measured loopback TCP round-trip for a
//!   frame, used to cross-check the simulator's network cost constants
//!   against reality.
//! * [`epoch_ns_now`] / [`wire_now_ns`] — the shared wire clock: every
//!   process in a distributed run measures against one coordinator-chosen
//!   UNIX-epoch origin, so latency stamps and trace spans compose across
//!   workers.

#![warn(missing_docs)]

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Nanoseconds since the UNIX epoch — the raw stamp distributed runs use as
/// their shared clock origin.
pub fn epoch_ns_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Nanoseconds since `origin_ns` (a [`epoch_ns_now`] stamp chosen by the
/// coordinator and shipped in the deploy message). Every process in a
/// distributed run stamps latencies, spans, and wire-crossing times against
/// the same origin, so intervals composed across processes stay meaningful
/// up to host clock skew — the forwarder stamps a frame's wire-entry time
/// with this and the receiving acceptor stamps its arrival, splitting a
/// cross-worker hop into serialize and network spans.
pub fn wire_now_ns(origin_ns: u64) -> u64 {
    epoch_ns_now().saturating_sub(origin_ns)
}

/// Upper bound on a single frame; a length prefix beyond this is treated as
/// a corrupt stream rather than an allocation request.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Bytes a frame's length prefix occupies in front of its payload.
pub const FRAME_PREFIX_BYTES: usize = 4;

/// Write one length-prefixed frame: prefix and payload leave in a single
/// `write_all`, so a frame that fits the socket buffer is one system call
/// and, on a `TCP_NODELAY` socket, one segment — the reader is not woken
/// for four bytes. A short write can never emit a torn frame — either the
/// whole frame reaches the kernel buffer or an error surfaces.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_PREFIX_BYTES + payload.len());
    frame.extend_from_slice(&[0; FRAME_PREFIX_BYTES]);
    frame.extend_from_slice(payload);
    write_prefixed(w, &mut frame)
}

/// [`write_frame`] for a sender that assembles frames in a buffer it
/// reuses: `frame` holds [`FRAME_PREFIX_BYTES`] reserved bytes and then the
/// payload; the prefix is filled in here and the buffer sent as it stands.
///
/// # Panics
/// If `frame` is shorter than the reserved prefix.
pub fn write_prefixed<W: Write>(w: &mut W, frame: &mut [u8]) -> io::Result<()> {
    let len = u32::try_from(frame.len() - FRAME_PREFIX_BYTES)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large for u32"))?;
    frame[..FRAME_PREFIX_BYTES].copy_from_slice(&len.to_le_bytes());
    w.write_all(frame)?;
    w.flush()
}

/// Read one length-prefixed frame. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (peer closed after its last frame); an EOF in the middle
/// of a frame is an `UnexpectedEof` error — a half-open or killed peer.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    // Hand-rolled first read so EOF-before-any-byte is distinguishable
    // from EOF-inside-the-prefix.
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES} byte bound"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Serialize `msg` into the JSON payload [`send_json`] would frame, without
/// sending it. Pair with [`write_frame`] when serialization must happen
/// outside a stream lock: encoding a bulk message while holding the lock
/// starves every other sender sharing that stream (in the distributed
/// runtime, checkpoint parts starving heartbeats).
pub fn encode_json<T: Serialize>(msg: &T) -> io::Result<Vec<u8>> {
    serde_json::to_string(msg)
        .map(String::into_bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode: {e}")))
}

/// Serialize `msg` as JSON and send it as one frame.
pub fn send_json<W: Write, T: Serialize>(w: &mut W, msg: &T) -> io::Result<()> {
    let payload = encode_json(msg)?;
    write_frame(w, &payload)
}

/// Receive one frame and parse it as JSON. `Ok(None)` on clean EOF.
pub fn recv_json<R: Read, T: DeserializeOwned>(r: &mut R) -> io::Result<Option<T>> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame not utf-8: {e}")))?;
    serde_json::from_str(text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("decode: {e}")))
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decorrelated-jitter backoff: each delay is drawn uniformly from
/// `[base, 3 * previous]` and capped at `cap`. A fixed backoff synchronizes
/// retries across concurrent clients — every connection that failed together
/// redials together, hammering the same endpoint in lockstep; decorrelating
/// the delays spreads the retry front out. Deterministic given `seed`, so a
/// recorded schedule replays exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Base (minimum) delay.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(250),
            seed: 0x5eed,
        }
    }
}

impl BackoffPolicy {
    /// The first `n` delays of the schedule.
    pub fn sequence(&self, n: usize) -> Vec<Duration> {
        self.iter().take(n).collect()
    }

    /// Infinite iterator over the schedule.
    pub fn iter(&self) -> BackoffIter {
        let base = self.base.as_nanos() as u64;
        BackoffIter {
            base,
            cap: (self.cap.as_nanos() as u64).max(base),
            state: self.seed,
            prev: base,
        }
    }
}

/// Iterator side of [`BackoffPolicy`]; see the policy docs for the
/// distribution.
#[derive(Debug, Clone)]
pub struct BackoffIter {
    base: u64,
    cap: u64,
    state: u64,
    prev: u64,
}

impl Iterator for BackoffIter {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        let upper = self.prev.saturating_mul(3).clamp(self.base, self.cap);
        let span = upper - self.base;
        let draw = if span == 0 {
            self.base
        } else {
            self.base + splitmix64(&mut self.state) % (span + 1)
        };
        self.prev = draw;
        Some(Duration::from_nanos(draw))
    }
}

/// Dial `addr`, retrying up to `max_attempts` times with the policy's
/// backoff schedule between attempts. Every reconnect path in the
/// distributed runtime goes through here, so a flapping endpoint always
/// sees bounded, seed-deterministic delays.
pub fn connect_with_backoff(
    addr: &str,
    policy: &BackoffPolicy,
    max_attempts: usize,
) -> io::Result<TcpStream> {
    let mut delays = policy.iter();
    let mut last_err = None;
    for attempt in 0..max_attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                return Ok(s);
            }
            Err(e) => last_err = Some(e),
        }
        if attempt + 1 < max_attempts {
            std::thread::sleep(delays.next().unwrap_or(policy.base));
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("no connection attempt made")))
}

/// Heartbeat leases keyed by worker id. Renewal extends the lease; a lease
/// not renewed within the timeout expires — the failure detector of the
/// distributed runtime (a SIGKILLed process cannot renew).
#[derive(Debug)]
pub struct LeaseTable {
    timeout: Duration,
    last: HashMap<u64, Instant>,
}

impl LeaseTable {
    /// Table where a lease lapses `timeout` after its last renewal.
    pub fn new(timeout: Duration) -> Self {
        LeaseTable {
            timeout,
            last: HashMap::new(),
        }
    }

    /// The configured lease timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Renew (or create) `id`'s lease as of now.
    pub fn renew(&mut self, id: u64) {
        self.last.insert(id, Instant::now());
    }

    /// Drop `id`'s lease (worker finished or already declared dead).
    pub fn remove(&mut self, id: u64) {
        self.last.remove(&id);
    }

    /// Ids whose lease has lapsed, with their silence duration.
    pub fn expired(&self) -> Vec<(u64, Duration)> {
        let now = Instant::now();
        let mut out: Vec<(u64, Duration)> = self
            .last
            .iter()
            .filter_map(|(&id, &at)| {
                let gap = now.duration_since(at);
                (gap > self.timeout).then_some((id, gap))
            })
            .collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// Milliseconds since `id`'s last renewal, if it holds a lease.
    pub fn silence_ms(&self, id: u64) -> Option<u64> {
        self.last.get(&id).map(|at| at.elapsed().as_millis() as u64)
    }
}

/// Measure the mean loopback TCP round-trip time of `frames` echo frames of
/// `payload_len` bytes each. Used by the cluster crate to cross-check the
/// simulator's network cost constants against a real TCP stack.
pub fn measure_loopback_rtt(frames: usize, payload_len: usize) -> io::Result<Duration> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> io::Result<()> {
        let (mut conn, _) = listener.accept()?;
        conn.set_nodelay(true).ok();
        while let Some(frame) = read_frame(&mut conn)? {
            write_frame(&mut conn, &frame)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let payload = vec![0xABu8; payload_len];
    // Warm the connection and caches before timing.
    write_frame(&mut stream, &payload)?;
    read_frame(&mut stream)?;
    let start = Instant::now();
    for _ in 0..frames.max(1) {
        write_frame(&mut stream, &payload)?;
        read_frame(&mut stream)?;
    }
    let elapsed = start.elapsed();
    drop(stream);
    echo.join()
        .map_err(|_| io::Error::other("echo thread panicked"))??;
    Ok(elapsed / frames.max(1) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), vec![7u8; 1000]);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    /// Counts `write` calls and takes whatever it is offered.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_that_fits_is_one_write() {
        let mut w = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        write_frame(&mut w, b"heartbeat").unwrap();
        assert_eq!(w.writes, 1, "prefix and payload leave together");
        let mut in_place = vec![0u8; FRAME_PREFIX_BYTES];
        in_place.extend_from_slice(b"data");
        write_prefixed(&mut w, &mut in_place).unwrap();
        assert_eq!(w.writes, 2);
        let mut r = Cursor::new(w.bytes);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"heartbeat");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"data");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"doomed").unwrap();
        // Truncate mid-payload: a peer killed while sending.
        buf.truncate(buf.len() - 3);
        let mut r = Cursor::new(buf);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // And mid-prefix.
        let mut r = Cursor::new(vec![1u8, 0]);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = (u32::MAX).to_le_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let mut r = Cursor::new(buf);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Ping {
        seq: u64,
        tag: String,
    }

    #[test]
    fn json_frames_roundtrip() {
        let msg = Ping {
            seq: 42,
            tag: "hb".into(),
        };
        let mut buf = Vec::new();
        send_json(&mut buf, &msg).unwrap();
        let mut r = Cursor::new(buf);
        let got: Ping = recv_json(&mut r).unwrap().unwrap();
        assert_eq!(got, msg);
        assert!(recv_json::<_, Ping>(&mut r).unwrap().is_none());
    }

    #[test]
    fn backoff_is_bounded_and_seed_deterministic() {
        let policy = BackoffPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(50),
            seed: 0xfeed,
        };
        let a = policy.sequence(64);
        let b = policy.sequence(64);
        assert_eq!(a, b, "same seed replays the same schedule");
        for d in &a {
            assert!(
                *d >= policy.base && *d <= policy.cap,
                "delay {d:?} out of bounds"
            );
        }
        let other = BackoffPolicy {
            seed: 0xbeef,
            ..policy
        };
        assert_ne!(a, other.sequence(64), "different seeds decorrelate");
    }

    #[test]
    fn flapping_endpoint_sees_bounded_deterministic_delays() {
        // No listener at first: the dialer must walk its seeded schedule,
        // never sleeping beyond the cap, and succeed once the endpoint
        // finally comes up.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe); // port now refuses connections
        let policy = BackoffPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
            seed: 7,
        };
        let schedule = policy.sequence(64);
        assert!(
            schedule.iter().all(|d| *d <= policy.cap),
            "strictly bounded"
        );

        let addr2 = addr.clone();
        let listener_thread = std::thread::spawn(move || {
            // The endpoint flaps: absent for a while, then accepts.
            std::thread::sleep(Duration::from_millis(30));
            let l = TcpListener::bind(&addr2).expect("rebind probe port");
            let _ = l.accept();
        });
        let start = Instant::now();
        let conn = connect_with_backoff(&addr, &policy, 1000);
        let waited = start.elapsed();
        assert!(conn.is_ok(), "dial succeeds once the endpoint returns");
        // Worst case: flap window + one full cap-length sleep + scheduling
        // slack. Far below what an unbounded exponential would allow.
        assert!(
            waited < Duration::from_secs(5),
            "bounded backoff kept the dial loop tight ({waited:?})"
        );
        listener_thread.join().unwrap();
    }

    #[test]
    fn connect_with_backoff_gives_up_after_budget() {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let policy = BackoffPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_micros(500),
            seed: 1,
        };
        assert!(connect_with_backoff(&addr, &policy, 3).is_err());
    }

    #[test]
    fn leases_expire_only_after_silence() {
        let mut t = LeaseTable::new(Duration::from_millis(40));
        t.renew(1);
        t.renew(2);
        assert!(t.expired().is_empty());
        std::thread::sleep(Duration::from_millis(15));
        t.renew(2); // worker 2 keeps heartbeating
        std::thread::sleep(Duration::from_millis(35));
        let expired = t.expired();
        assert_eq!(expired.len(), 1, "only the silent worker expires");
        assert_eq!(expired[0].0, 1);
        assert!(expired[0].1 > t.timeout());
        t.remove(1);
        assert!(t.expired().is_empty());
        assert!(t.silence_ms(2).is_some());
        assert!(t.silence_ms(1).is_none());
    }

    #[test]
    fn loopback_rtt_is_measurable() {
        let rtt = measure_loopback_rtt(16, 64).unwrap();
        assert!(rtt > Duration::ZERO);
        assert!(rtt < Duration::from_millis(100), "loopback rtt {rtt:?}");
    }

    #[test]
    fn wire_clock_is_monotone_against_its_origin() {
        let origin = epoch_ns_now();
        let a = wire_now_ns(origin);
        let b = wire_now_ns(origin);
        assert!(b >= a);
        // A fresh origin yields small offsets (well under an hour).
        assert!(a < 3_600_000_000_000_000);
        // An origin in the future saturates to zero instead of wrapping.
        assert_eq!(wire_now_ns(u64::MAX), 0);
    }
}
