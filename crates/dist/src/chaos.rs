//! Deterministic fault injection for the distributed tier.
//!
//! A [`FaultPlan`] is a *seeded schedule* of link faults: for every link
//! index (initial workers first, late joiners continuing the count) it
//! derives a [`LinkFaults`] — kill the connection after the Nth frame,
//! delay a frame, duplicate a frame, or truncate a frame mid-write and
//! sever. [`ChaosTransport`] wraps any [`Transport`] and applies the
//! schedule to the coordinator's outgoing frames; the worker side needs
//! no cooperation, because every injected fault manifests there as an
//! ordinary broken link (which the reconnect loop in `dangoron-shard
//! --reconnect` then heals as a *new* member).
//!
//! The point of seeding is CI: `dangoron-coord --chaos-seed S` replays
//! the exact same storm every run, and the determinism contract — any
//! disjoint rank cover concatenates to the single-process result — means
//! the merged matrices must come out bit-identical *no matter what the
//! storm did*. A chaos run that produces a different matrix is a real
//! bug, never flake.
//!
//! Everything here is hand-rolled (xorshift64*, splitmix64) because the
//! build environment has no `rand`.

use crate::transport::Transport;
use bytes::frame;
use std::io::{self, Read};
use std::time::Duration;

/// A tiny xorshift64* PRNG — deterministic, seedable, dependency-free.
/// Used for fault schedules and for the worker's reconnect jitter.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator; a zero seed is remapped (xorshift has a zero
    /// fixed point).
    pub fn new(seed: u64) -> Self {
        Self(splitmix64(seed).max(1))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[lo, hi)`; `hi` must exceed `lo`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(hi > lo);
        lo + self.next_u64() % (hi - lo)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

/// SplitMix64 — the standard seed scrambler, so nearby seeds and link
/// indices produce unrelated streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The fault schedule for one link. Frame numbers count the
/// coordinator's *sends* on that link from 1 (frame 1 is the `Load`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Sever the link immediately after frame N is delivered — the
    /// worker got it, but every later frame (and the worker's replies)
    /// hit a dead connection. The coordinator discovers the death
    /// through its reader (EOF), not the write.
    pub kill_after_frames: Option<u32>,
    /// Sleep this many milliseconds before sending frame N.
    pub delay_frame: Option<(u32, u64)>,
    /// Send frame N twice (duplicate-delivery; a duplicated `Assign`
    /// produces a second `Result` the coordinator must discard as stale).
    pub dup_frame: Option<u32>,
    /// Write only the first half of frame N's bytes, then sever — a
    /// mid-write crash. The receiver sees a truncated frame and treats
    /// the link as damaged.
    pub truncate_frame: Option<u32>,
}

/// A deterministic, per-link fault schedule for a whole run.
#[derive(Debug, Clone)]
pub enum FaultPlan {
    /// Derive each link's faults from `seed ⊕ link` — the CI storm mode.
    Seeded(u64),
    /// Exactly these faults, by link index (links past the end of the
    /// list run clean) — the unit-test mode.
    Explicit(Vec<LinkFaults>),
}

impl FaultPlan {
    /// The seeded storm plan.
    pub fn from_seed(seed: u64) -> Self {
        Self::Seeded(seed)
    }

    /// The faults for link `link` (0-based, in admission order).
    ///
    /// Seeded schedules keep every kill/truncate at frame ≥ 2, so the
    /// `Load` frame (frame 1) always lands and registration completes —
    /// a link that dies before it is a connect failure, not a chaos
    /// event worth testing here (the accept path already covers it).
    pub fn for_link(&self, link: usize) -> LinkFaults {
        match self {
            Self::Explicit(list) => list.get(link).cloned().unwrap_or_default(),
            Self::Seeded(seed) => {
                let mut rng = Rng::new(seed ^ splitmix64(link as u64 + 1));
                let mut faults = LinkFaults::default();
                if rng.chance(0.4) {
                    faults.kill_after_frames = Some(rng.range_u64(2, 10) as u32);
                } else if rng.chance(0.25) {
                    faults.truncate_frame = Some(rng.range_u64(2, 8) as u32);
                }
                if rng.chance(0.4) {
                    faults.delay_frame = Some((rng.range_u64(1, 6) as u32, rng.range_u64(40, 240)));
                }
                if rng.chance(0.3) {
                    faults.dup_frame = Some(rng.range_u64(2, 8) as u32);
                }
                faults
            }
        }
    }
}

/// A [`Transport`] decorator applying one link's [`LinkFaults`] to the
/// coordinator's outgoing frames. Reads are untouched — every injected
/// fault surfaces on the read side as a normal EOF/damage event, which
/// is exactly the path the coordinator's fault handling must survive.
pub struct ChaosTransport {
    inner: Box<dyn Transport>,
    faults: LinkFaults,
    sent: u32,
    dead: bool,
}

impl ChaosTransport {
    /// Wraps `inner` with `faults`.
    pub fn new(inner: Box<dyn Transport>, faults: LinkFaults) -> Self {
        Self {
            inner,
            faults,
            sent: 0,
            dead: false,
        }
    }
}

impl Transport for ChaosTransport {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "chaos: link already severed",
            ));
        }
        self.sent += 1;
        let n = self.sent;
        if let Some((at, ms)) = self.faults.delay_frame {
            if at == n {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        if self.faults.truncate_frame == Some(n) {
            let framed = frame::encode(payload);
            let half = (framed.len() / 2).max(1);
            let _ = self.inner.send_raw(&framed[..half]);
            self.inner.kill();
            self.dead = true;
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "chaos: frame truncated mid-write",
            ));
        }
        self.inner.send(payload)?;
        if self.faults.dup_frame == Some(n) {
            self.inner.send(payload)?;
        }
        if self.faults.kill_after_frames == Some(n) {
            // The frame above was delivered; the link dies *after* it, so
            // the coordinator learns of the death from its reader thread
            // (EOF), the realistic mid-run connection drop.
            self.inner.kill();
            self.dead = true;
        }
        Ok(())
    }

    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.send_raw(bytes)
    }

    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>> {
        self.inner.take_reader()
    }

    fn close_send(&mut self) {
        self.inner.close_send();
    }

    fn kill(&mut self) {
        self.inner.kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn seeded_plans_are_deterministic_and_spare_the_load_frame() {
        let plan = FaultPlan::from_seed(42);
        for link in 0..64 {
            let a = plan.for_link(link);
            let b = plan.for_link(link);
            assert_eq!(a, b, "link {link}: schedule not deterministic");
            if let Some(k) = a.kill_after_frames {
                assert!(k >= 2, "link {link}: kill at frame {k} < 2");
            }
            if let Some(t) = a.truncate_frame {
                assert!(t >= 2, "link {link}: truncate at frame {t} < 2");
            }
        }
        // Different seeds disagree somewhere in the first few links.
        let other = FaultPlan::from_seed(43);
        assert!(
            (0..16).any(|l| plan.for_link(l) != other.for_link(l)),
            "seeds 42 and 43 produced identical schedules"
        );
        // A seeded storm actually schedules faults.
        assert!(
            (0..16).any(|l| plan.for_link(l) != LinkFaults::default()),
            "seed 42 scheduled no faults at all"
        );
    }

    #[test]
    fn explicit_plans_index_by_link_and_default_clean() {
        let plan = FaultPlan::Explicit(vec![LinkFaults {
            kill_after_frames: Some(3),
            ..Default::default()
        }]);
        assert_eq!(plan.for_link(0).kill_after_frames, Some(3));
        assert_eq!(plan.for_link(1), LinkFaults::default());
        assert_eq!(plan.for_link(99), LinkFaults::default());
    }

    /// A mock transport recording framed/raw writes and kills.
    #[derive(Default)]
    struct Log {
        frames: Vec<Vec<u8>>,
        raw: Vec<Vec<u8>>,
        killed: bool,
    }

    struct MockTransport(Arc<Mutex<Log>>);

    impl Transport for MockTransport {
        fn send(&mut self, payload: &[u8]) -> io::Result<()> {
            self.0.lock().unwrap().frames.push(payload.to_vec());
            Ok(())
        }
        fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.0.lock().unwrap().raw.push(bytes.to_vec());
            Ok(())
        }
        fn take_reader(&mut self) -> Option<Box<dyn Read + Send>> {
            None
        }
        fn close_send(&mut self) {}
        fn kill(&mut self) {
            self.0.lock().unwrap().killed = true;
        }
    }

    #[test]
    fn kill_after_frames_delivers_then_severs() {
        let log = Arc::new(Mutex::new(Log::default()));
        let mut t = ChaosTransport::new(
            Box::new(MockTransport(log.clone())),
            LinkFaults {
                kill_after_frames: Some(2),
                ..Default::default()
            },
        );
        t.send(b"one").unwrap();
        t.send(b"two").unwrap(); // delivered, then the link dies
        assert!(t.send(b"three").is_err());
        let log = log.lock().unwrap();
        assert_eq!(log.frames, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(log.killed);
    }

    #[test]
    fn dup_frame_sends_twice_and_truncate_writes_half_raw() {
        let log = Arc::new(Mutex::new(Log::default()));
        let mut t = ChaosTransport::new(
            Box::new(MockTransport(log.clone())),
            LinkFaults {
                dup_frame: Some(1),
                truncate_frame: Some(2),
                ..Default::default()
            },
        );
        t.send(b"dup-me").unwrap();
        assert!(t.send(b"truncate-me").is_err());
        let log = log.lock().unwrap();
        assert_eq!(log.frames, vec![b"dup-me".to_vec(), b"dup-me".to_vec()]);
        let full = frame::encode(b"truncate-me");
        assert_eq!(log.raw, vec![full[..full.len() / 2].to_vec()]);
        assert!(log.killed);
    }

    #[test]
    fn rng_range_and_chance_are_sane() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            let v = rng.range_u64(3, 9);
            assert!((3..9).contains(&v));
        }
        let mut rng = Rng::new(0); // zero seed must not wedge
        let heads = (0..1000).filter(|_| rng.chance(0.5)).count();
        assert!((300..700).contains(&heads), "{heads} heads of 1000");
    }
}
