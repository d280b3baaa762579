//! Coordinator↔worker links.
//!
//! The wire protocol ([`crate::proto`]) is a sequence of length-prefixed
//! frames over a TCP stream. Workers dial the coordinator
//! ([`WorkerIo::connect`]), whether it spawned them or they were started
//! independently, possibly on other machines; the coordinator wraps each
//! accepted stream in a [`TcpTransport`]: framed writes on the
//! coordinator thread, and a detachable read half the coordinator moves
//! onto a dedicated reader thread. The [`Transport`] trait is the seam
//! the fault-injecting [`crate::chaos::ChaosTransport`] decorates.
//!
//! [`Transport::kill`] severs both directions (`shutdown(Both)`), which
//! is what guarantees the reader thread unblocks and can be joined — a
//! reader blocked in `read()` on a live socket would otherwise leak.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use bytes::frame;

/// One established link to a worker, with the read half detachable so a
/// reader thread can own it while the coordinator keeps the write half.
pub trait Transport: Send {
    /// Writes one length-prefixed frame and flushes it.
    fn send(&mut self, payload: &[u8]) -> io::Result<()>;

    /// Writes raw bytes (no framing) and flushes. Only the chaos layer
    /// uses this — truncating a frame mid-write requires bypassing the
    /// all-or-nothing framed `send`.
    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Takes the read half (at most once) for the reader thread.
    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>>;

    /// Signals end-of-assignments: the worker's serve loop sees a clean
    /// EOF on its next read and exits.
    fn close_send(&mut self);

    /// Forcibly severs the link in both directions. Idempotent; after it
    /// returns, a blocked reader-thread `read()` is guaranteed to
    /// complete (EOF or error).
    fn kill(&mut self);
}

/// A worker connected over TCP. The write half is owned here; the read
/// half is a cloned handle to the same socket, so `shutdown(Both)`
/// severs both at once.
pub struct TcpTransport {
    stream: TcpStream,
    reader: Option<TcpStream>,
}

impl TcpTransport {
    /// Wraps an accepted (or connected) stream and turns on
    /// `TCP_NODELAY`, as [`WorkerIo::connect`] does on the worker's end.
    /// Cloning the read half can fail only on resource exhaustion.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        let _ = stream.set_nodelay(true);
        let reader = stream.try_clone()?;
        Ok(Self {
            stream,
            reader: Some(reader),
        })
    }

    /// Called once the peer's handshake has been validated — the link is
    /// trusted from here on, so the short pre-trust read timeout goes.
    /// The socket option is shared with the cloned read half, so this
    /// also unblocks the reader thread's long waits.
    pub fn handshake_complete(&mut self) {
        let _ = self.stream.set_read_timeout(None);
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        frame::write_to(&mut self.stream, payload)
    }

    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>> {
        self.reader
            .take()
            .map(|s| Box::new(s) as Box<dyn Read + Send>)
    }

    fn close_send(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }

    fn kill(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// The worker's side of a link: the two halves of one TCP stream,
/// driving [`crate::worker::serve`].
pub struct WorkerIo<R: Read, W: Write> {
    /// The frame source (assignments in).
    pub input: R,
    /// The frame sink (results out).
    pub output: W,
}

impl WorkerIo<TcpStream, TcpStream> {
    /// Connects to a listening coordinator, retrying with jittered
    /// exponential backoff for up to `patience` (covers the two-terminal
    /// race where the worker starts before the coordinator has bound its
    /// listener, and the reconnect path after a dropped link). The delay
    /// doubles from 100 ms up to a 2 s cap, each sleep stretched by a
    /// seeded jitter of up to half the delay — a fleet of workers
    /// restarting together must not re-dial in lockstep.
    ///
    /// The link runs with `TCP_NODELAY`: every frame is a request or a
    /// reply someone waits on, so Nagle's coalescing would only hold it
    /// back until the peer's delayed ACK.
    pub fn connect(addr: &str, patience: Duration, jitter_seed: u64) -> io::Result<Self> {
        let deadline = std::time::Instant::now() + patience;
        let mut rng = crate::chaos::Rng::new(jitter_seed);
        let mut delay = Duration::from_millis(100);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    let input = stream.try_clone()?;
                    return Ok(Self {
                        input,
                        output: stream,
                    });
                }
                Err(e) => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return Err(e);
                    }
                    let jitter_ms = rng.range_u64(0, delay.as_millis() as u64 / 2 + 1);
                    let sleep = (delay + Duration::from_millis(jitter_ms))
                        .min(deadline.saturating_duration_since(now));
                    std::thread::sleep(sleep);
                    delay = (delay * 2).min(Duration::from_secs(2));
                }
            }
        }
    }
}

/// How one conversation over a [`serve_with_reconnect`] link ended, as
/// reported by the serve closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEnd {
    /// This side is done on purpose (a client that sent its last
    /// request). Never retried.
    Done,
    /// The link hit end-of-file. For a worker this is ambiguous: a peer
    /// that finished cleanly closes the link exactly the way a severed
    /// link looks from here — only the listener knows which happened, so
    /// the reconnect loop disambiguates with a probe dial.
    Eof,
}

/// Patience for the probe dial after an [`LinkEnd::Eof`]: long enough to
/// ride out a restarting listener, short enough that a peer outliving a
/// finished run exits promptly instead of grinding the full `patience`.
const EOF_PROBE_PATIENCE: Duration = Duration::from_secs(2);

/// Dials `addr` and hands the link to `serve`; re-dials and re-serves up
/// to `reconnect` more times before giving up. [`LinkEnd::Done`] ends
/// the loop — a deliberate finish is never retried. [`LinkEnd::Eof`]
/// could be either a peer that completed its run or a link that was
/// killed under this side while it sat idle (both read as end-of-file),
/// so the loop probes: if something is still listening on `addr` the run
/// is still on and the link is re-established; if nothing accepts within
/// a short patience, the peer is gone and the loop exits cleanly. An
/// `Err` (a link that died mid-frame) re-dials with the full `patience`
/// and surfaces the error once attempts are exhausted.
///
/// This is the one reconnect loop shared by every long-lived peer of a
/// listening process: `dangoron-shard --connect/--reconnect` rejoining an
/// elastic coordinator, and the serving tier's clients re-dialing a
/// `dangoron-serve` daemon. The backoff jitter is seeded per process
/// *and* per attempt ([`WorkerIo::connect`]) so a fleet killed together
/// does not re-dial in lockstep. `who` labels the retry diagnostics on
/// stderr.
pub fn serve_with_reconnect<F>(
    addr: &str,
    patience: Duration,
    reconnect: u32,
    who: &str,
    mut serve: F,
) -> io::Result<()>
where
    F: FnMut(WorkerIo<TcpStream, TcpStream>) -> io::Result<LinkEnd>,
{
    let mut attempt: u32 = 0;
    let mut probing = false;
    loop {
        let seed = (std::process::id() as u64) << 8 | attempt as u64;
        let link = if probing {
            match WorkerIo::connect(addr, EOF_PROBE_PATIENCE, seed) {
                Ok(link) => link,
                // Nothing accepting: the peer finished and left. A clean
                // end-of-run must exit cleanly, not as a dial error.
                Err(_) => return Ok(()),
            }
        } else {
            WorkerIo::connect(addr, patience, seed)?
        };
        match serve(link) {
            Ok(LinkEnd::Done) => return Ok(()),
            Ok(LinkEnd::Eof) if attempt < reconnect => {
                attempt += 1;
                probing = true;
                eprintln!(
                    "{who}: link closed; probing {addr} for a live peer (attempt {attempt}/{reconnect})"
                );
            }
            Ok(LinkEnd::Eof) => return Ok(()),
            Err(e) if attempt < reconnect => {
                attempt += 1;
                probing = false;
                eprintln!("{who}: link lost ({e}); reconnecting to {addr} (attempt {attempt}/{reconnect})");
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn tcp_shard_links_run_with_nodelay_on_both_ends() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let worker = WorkerIo::connect(&addr, Duration::from_secs(5), 3).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let coordinator = TcpTransport::new(stream).unwrap();
        assert!(worker.input.nodelay().unwrap());
        assert!(worker.output.nodelay().unwrap());
        assert!(coordinator.stream.nodelay().unwrap());
    }

    #[test]
    fn tcp_transport_frames_roundtrip_and_kill_unblocks_the_reader() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut io = WorkerIo::connect(&addr.to_string(), Duration::from_secs(5), 1).unwrap();
            // Echo one frame back, then wait for the EOF from close_send.
            let got = frame::read_from(&mut io.input, 1024).unwrap().unwrap();
            frame::write_to(&mut io.output, &got).unwrap();
            assert!(frame::read_from(&mut io.input, 1024).unwrap().is_none());
        });
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::new(stream).unwrap();
        let mut reader = t.take_reader().unwrap();
        t.send(b"ping").unwrap();
        assert_eq!(
            frame::read_from(&mut reader, 1024).unwrap().unwrap(),
            b"ping"
        );
        t.close_send();
        client.join().unwrap();
        // After the peer exits, the detached read half sees EOF.
        assert!(frame::read_from(&mut reader, 1024).unwrap().is_none());
        t.kill();
    }

    #[test]
    fn serve_with_reconnect_redials_on_error_and_stops_on_ok() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let acceptor = std::thread::spawn(move || {
            // Accept three links; the worker errors twice, then succeeds.
            for _ in 0..3 {
                let (_s, _) = listener.accept().unwrap();
            }
        });
        let mut served = 0;
        let res = serve_with_reconnect(&addr, Duration::from_secs(5), 5, "test", |_link| {
            served += 1;
            if served < 3 {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected"))
            } else {
                Ok(LinkEnd::Done)
            }
        });
        assert!(res.is_ok());
        assert_eq!(served, 3, "a deliberate finish must not be retried");
        acceptor.join().unwrap();

        // Exhausted retries surface the last error.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let acceptor = std::thread::spawn(move || {
            for _ in 0..2 {
                let (_s, _) = listener.accept().unwrap();
            }
        });
        let res = serve_with_reconnect(&addr, Duration::from_secs(5), 1, "test", |_link| {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "always"))
        });
        assert!(res.is_err());
        acceptor.join().unwrap();
    }

    #[test]
    fn eof_probe_rejoins_while_the_listener_lives() {
        // A link killed while this side sits idle reads as EOF; as long
        // as the listener is still up, the loop must re-establish it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let acceptor = std::thread::spawn(move || {
            for _ in 0..2 {
                let (_s, _) = listener.accept().unwrap();
            }
        });
        let mut served = 0;
        let res = serve_with_reconnect(&addr, Duration::from_secs(5), 3, "test", |_link| {
            served += 1;
            if served == 1 {
                Ok(LinkEnd::Eof)
            } else {
                Ok(LinkEnd::Done)
            }
        });
        assert!(res.is_ok());
        assert_eq!(served, 2, "EOF with a live listener must rejoin");
        acceptor.join().unwrap();
    }

    #[test]
    fn eof_exits_cleanly_once_the_listener_is_gone() {
        // The other half of the ambiguity: EOF because the peer finished
        // and closed up. The probe finds nothing accepting and the loop
        // ends Ok — never a dial error, never a full-patience grind.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            serve_with_reconnect(&addr, Duration::from_secs(30), 3, "test", |_link| {
                Ok(LinkEnd::Eof)
            })
        });
        let (_s, _) = listener.accept().unwrap();
        drop(listener);
        // The probe may still catch the listener's backlog for an accept
        // or two; the attempt budget bounds it either way.
        assert!(handle.join().unwrap().is_ok());
    }

    #[test]
    fn connect_retries_until_the_listener_appears() {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe); // free the port; nothing is listening now
        let waiter = std::thread::spawn(move || {
            WorkerIo::connect(&addr.to_string(), Duration::from_secs(10), 2)
        });
        std::thread::sleep(Duration::from_millis(400));
        let listener = TcpListener::bind(addr).unwrap();
        let (_server, _) = listener.accept().unwrap();
        assert!(waiter.join().unwrap().is_ok());
    }
}
