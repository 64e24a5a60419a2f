//! Open-loop liveness probe: `PING` at a fixed rate on its own
//! connection, pipelined so a stalled server does not slow the schedule.
//! Each probe is timed from when it was due.
//!
//! One thread does both sides. It waits for replies in `poll(2)`, which
//! wakes as soon as bytes arrive but only takes whole milliseconds, and
//! sleeps out the sub-millisecond rest before each send, so sends are
//! punctual and replies are timestamped when they arrive.

use crate::stats::OpenLoop;
use polling::{Event, Poller};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Probe rate: one `PING` every 5 ms.
pub const PERIOD: Duration = Duration::from_millis(5);

/// How long outstanding probes may take to answer once sending stops.
const DRAIN: Duration = Duration::from_secs(10);

#[derive(Debug, Default)]
pub struct ProbeSamples {
    /// Latency of each answered probe from its due time, ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each probe, ms.
    pub late_ms: Vec<f64>,
    pub sent: u64,
    /// Probes unanswered by the end of the drain, or answered wrongly.
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Probe `addr` from now until `end`, then wait for the outstanding
/// replies.
pub fn run(addr: SocketAddr, end: Instant) -> ProbeSamples {
    let mut out = ProbeSamples::default();
    if let Err(e) = probe(addr, end, &mut out) {
        out.errors.push(e);
    }
    out
}

fn probe(addr: SocketAddr, end: Instant, out: &mut ProbeSamples) -> Result<(), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, DRAIN).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_nonblocking(true))
        .map_err(|e| format!("socket setup: {e}"))?;
    let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    poller
        .add(&stream, Event::readable(0))
        .map_err(|e| format!("poller: {e}"))?;
    let mut events = Vec::new();
    let schedule = OpenLoop {
        start: Instant::now(),
        period: PERIOD,
    };
    let mut pending: VecDeque<u64> = VecDeque::new();
    let mut buf = Vec::new();
    let mut next = 0u64;
    let mut drain_deadline = None;
    let result = loop {
        let now = Instant::now();
        let sending = now < end;
        if sending && now >= schedule.due(next) {
            if let Err(e) = write_ping(&mut stream) {
                break Err(format!("send: {e}"));
            }
            out.late_ms.push(schedule.lateness_ms(next, Instant::now()));
            pending.push_back(next);
            next += 1;
            continue;
        }
        if let Err(e) = read_replies(&mut stream, &mut buf, &mut pending, &schedule, out) {
            break Err(e);
        }
        if !sending && pending.is_empty() {
            break Ok(());
        }
        let until = if sending {
            schedule.due(next)
        } else {
            *drain_deadline.get_or_insert(now + DRAIN)
        };
        let now = Instant::now();
        if !sending && now >= until {
            break Err(format!("{} probes unanswered", pending.len()));
        }
        let wait = until.saturating_duration_since(now);
        let whole_ms = Duration::from_millis(wait.as_millis() as u64);
        if whole_ms.is_zero() {
            std::thread::sleep(wait);
        } else if let Err(e) = poller.wait(&mut events, Some(whole_ms)) {
            break Err(format!("poll: {e}"));
        }
    };
    out.sent = next;
    out.failed += pending.len() as u64;
    result
}

fn write_ping(stream: &mut TcpStream) -> std::io::Result<()> {
    let mut rest: &[u8] = b"PING\n";
    while !rest.is_empty() {
        match stream.write(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            // the server stopped reading (a stall): the probe keeps its
            // schedule by retrying, the lateness shows the backpressure
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read every reply available now, matching replies to probes in order.
fn read_replies(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    pending: &mut VecDeque<u64>,
    schedule: &OpenLoop,
    out: &mut ProbeSamples,
) -> Result<(), String> {
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed".into()),
            Ok(n) => {
                let answered = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let line = line.trim_ascii();
                    match pending.pop_front() {
                        Some(i) if line == b"OK pong" => {
                            out.latency_ms.push(schedule.latency_ms(i, answered));
                        }
                        Some(i) => {
                            out.failed += 1;
                            out.errors
                                .push(format!("probe {i}: {:?}", String::from_utf8_lossy(line)));
                        }
                        None => return Err("unsolicited reply".into()),
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
}
