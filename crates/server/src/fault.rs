//! Deterministic fault injection: a seeded plan and the chaos proxy that
//! applies it.
//!
//! Networks fail in a handful of characteristic ways — a write torn
//! mid-frame, a read that stalls, an abrupt reset, a connect that takes
//! its time, a peer that trickles bytes — and every one of them must be
//! *reproducible* to be debuggable. This module makes chaos a pure
//! function of a seed:
//!
//! * [`FaultPlan`] is a seed plus a fault rate. Connection `i`'s fate
//!   (at most one fault plus an optional connect delay) is a pure
//!   function of (seed, `i`) — an inline splitmix64, no RNG dependency —
//!   so a failing soak run is re-run exactly from its printed seed.
//! * [`ChaosProxy`] is the one way to inject faults: a loopback listener
//!   that forwards every accepted connection to an upstream
//!   [`crate::DdsServer`] with that connection's fault applied at exact
//!   byte offsets on the client-facing socket. A torn write really puts
//!   the first `k` response bytes on the wire before cutting, a reset
//!   really cuts the request stream at byte `k`, a trickle caps every
//!   transfer. A fault soak thus exercises the *real* server over real
//!   sockets — torn request frames included — while a [`crate::DdsClient`]
//!   pointed at the proxy heals around the chaos with its retry policy.
//!
//! Everything here is deterministic except thread scheduling; the fault
//! *positions* never depend on timing.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The splitmix64 step: a tiny, well-mixed PRNG over a `u64` state. All
/// fault-plan derivation runs on this so `dds-server` needs no RNG
/// dependency and a plan is a pure function of (seed, connection index).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One concrete fault a connection suffers, at an exact byte offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// The first `at` bytes of the write direction reach the wire; the
    /// next write fails `BrokenPipe` and the socket is shut down — the
    /// peer sees a frame cut mid-body.
    TornWrite {
        /// Bytes allowed out before the cut.
        at: u64,
    },
    /// The read direction delivers `at` bytes, then fails
    /// `ConnectionReset` and the socket is shut down.
    ResetRead {
        /// Bytes allowed in before the reset.
        at: u64,
    },
    /// One-shot stall: the read crossing byte `at` sleeps `ms` first
    /// (the connection survives — this exercises deadlines, not retries).
    ReadStall {
        /// Byte offset the stall precedes.
        at: u64,
        /// Stall length in milliseconds.
        ms: u32,
    },
    /// One-shot stall on the write direction, like [`Fault::ReadStall`].
    WriteStall {
        /// Byte offset the stall precedes.
        at: u64,
        /// Stall length in milliseconds.
        ms: u32,
    },
    /// Every read and write is capped at `chunk` bytes — the short-read
    /// trickle that exercises partial-frame resumption end to end.
    Trickle {
        /// Transfer cap per call, ≥ 1.
        chunk: usize,
    },
}

/// What one connection suffers: an optional connect delay plus at most
/// one [`Fault`]. Applied by [`FaultStream`]; the connect delay is the
/// proxy's business (it sleeps before dialing upstream).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ConnPlan {
    /// Milliseconds to wait before the connection is usable.
    connect_delay_ms: u32,
    /// The fault this connection suffers, if any.
    fault: Option<Fault>,
}

/// A seeded schedule of per-connection faults.
///
/// The plan itself is two words; connection `i`'s fate is derived from
/// them on demand. Most connections are clean (default fault rate
/// 400‰) so a retrying client always finds a working path —
/// chaos that faults *every* connection proves nothing except that
/// nothing works.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    fault_per_mille: u32,
}

impl FaultPlan {
    /// A plan with the default fault rate (400 of 1000 connections).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            fault_per_mille: 400,
        }
    }

    /// Overrides how many connections per 1000 suffer a fault
    /// (1000 = every connection).
    pub fn with_fault_per_mille(mut self, per_mille: u32) -> FaultPlan {
        self.fault_per_mille = per_mille.min(1000);
        self
    }

    /// Connection `conn`'s fate, a pure function of (seed, conn).
    fn conn(&self, conn: u64) -> ConnPlan {
        let mut s = self
            .seed
            .wrapping_add(conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // One warm-up step so near-identical seeds decorrelate.
        let _ = splitmix64(&mut s);
        let connect_delay_ms = if splitmix64(&mut s).is_multiple_of(10) {
            1 + (splitmix64(&mut s) % 40) as u32
        } else {
            0
        };
        let fault = if splitmix64(&mut s) % 1000 < u64::from(self.fault_per_mille) {
            Some(match splitmix64(&mut s) % 5 {
                // Offsets land inside the first few frames: requests are
                // tens-to-hundreds of bytes, ingest frames far larger, so
                // cuts hit prefixes, bodies and frame boundaries alike.
                0 => Fault::TornWrite {
                    at: 1 + splitmix64(&mut s) % 256,
                },
                1 => Fault::ResetRead {
                    at: splitmix64(&mut s) % 256,
                },
                2 => Fault::ReadStall {
                    at: splitmix64(&mut s) % 128,
                    ms: 10 + (splitmix64(&mut s) % 80) as u32,
                },
                3 => Fault::WriteStall {
                    at: splitmix64(&mut s) % 128,
                    ms: 10 + (splitmix64(&mut s) % 80) as u32,
                },
                _ => Fault::Trickle {
                    chunk: 1 + (splitmix64(&mut s) % 6) as usize,
                },
            })
        } else {
            None
        };
        ConnPlan {
            connect_delay_ms,
            fault,
        }
    }
}

/// A `TcpStream` that misbehaves exactly as its [`ConnPlan`] says.
///
/// Positions are tracked per direction; faults trip at exact byte
/// offsets, so a torn write puts precisely `at` bytes on the wire before
/// the `BrokenPipe`. Under a plan with no fault every call delegates
/// straight to the inner stream.
#[derive(Debug)]
struct FaultStream {
    inner: TcpStream,
    plan: ConnPlan,
    read_pos: u64,
    write_pos: u64,
    read_stalled: bool,
    write_stalled: bool,
}

impl FaultStream {
    /// Wraps `inner` under `plan`. The plan's connect delay is **not**
    /// applied here — the proxy sleeps before dialing upstream, so
    /// wrapping an accepted socket twice (one wrapper per pump direction)
    /// doesn't double the delay.
    fn new(inner: TcpStream, plan: ConnPlan) -> FaultStream {
        FaultStream {
            inner,
            plan,
            read_pos: 0,
            write_pos: 0,
            read_stalled: false,
            write_stalled: false,
        }
    }

    /// The wrapped stream (for `shutdown`).
    fn get_ref(&self) -> &TcpStream {
        &self.inner
    }
}

impl Read for FaultStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.read(buf);
        }
        let mut cap = buf.len();
        match self.plan.fault {
            Some(Fault::ResetRead { at }) => {
                if self.read_pos >= at {
                    let _ = self.inner.shutdown(Shutdown::Both);
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "injected fault: connection reset",
                    ));
                }
                cap = cap.min((at - self.read_pos) as usize);
            }
            Some(Fault::ReadStall { at, ms }) if !self.read_stalled && self.read_pos >= at => {
                self.read_stalled = true;
                std::thread::sleep(Duration::from_millis(u64::from(ms)));
            }
            Some(Fault::Trickle { chunk }) => cap = cap.min(chunk.max(1)),
            _ => {}
        }
        let n = self.inner.read(&mut buf[..cap])?;
        self.read_pos += n as u64;
        Ok(n)
    }
}

impl Write for FaultStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        let mut cap = buf.len();
        match self.plan.fault {
            Some(Fault::TornWrite { at }) => {
                if self.write_pos >= at {
                    // Cut the socket for real so the peer observes the
                    // torn frame, not just this side's error.
                    let _ = self.inner.shutdown(Shutdown::Both);
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "injected fault: write torn",
                    ));
                }
                cap = cap.min((at - self.write_pos) as usize);
            }
            Some(Fault::WriteStall { at, ms }) if !self.write_stalled && self.write_pos >= at => {
                self.write_stalled = true;
                std::thread::sleep(Duration::from_millis(u64::from(ms)));
            }
            Some(Fault::Trickle { chunk }) => cap = cap.min(chunk.max(1)),
            _ => {}
        }
        let n = self.inner.write(&buf[..cap])?;
        self.write_pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A loopback TCP proxy that forwards every connection to an upstream
/// server under a [`FaultPlan`] — the chaos harness the fault soak puts
/// in front of a real [`crate::DdsServer`].
///
/// Connection `i` (in accept order) gets its seeded fate applied on the
/// **client-facing** socket: its request bytes suffer the read-side
/// faults on the way in, its response bytes the write-side faults on the
/// way out, while the upstream leg stays clean — the server under test
/// sees exactly what a flaky client looks like, the client exactly what
/// a flaky server looks like.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral loopback port and starts forwarding to
    /// `upstream` under `plan`.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("dds-chaos-accept".into())
                .spawn(move || {
                    let mut conn = 0u64;
                    for down in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let down = match down {
                            Ok(s) => s,
                            Err(_) => continue,
                        };
                        let conn_plan = plan.conn(conn);
                        conn += 1;
                        let _ = std::thread::Builder::new()
                            .name("dds-chaos-conn".into())
                            .spawn(move || forward_conn(down, upstream, conn_plan));
                    }
                })?
        };
        Ok(ChaosProxy {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients connect to instead of the server's.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and reaps the accept thread. Connections already
    /// forwarded run to completion (their pumps exit when either side
    /// closes). Dropping the proxy does the same.
    pub fn shutdown(self) {}
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// One proxied connection: two pumps, the client-facing socket wrapped in
/// a [`FaultStream`] in each direction (independent wrappers — positions
/// are per direction anyway).
fn forward_conn(down: TcpStream, upstream: SocketAddr, plan: ConnPlan) {
    if plan.connect_delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(u64::from(plan.connect_delay_ms)));
    }
    let up = match TcpStream::connect(upstream) {
        Ok(s) => s,
        Err(_) => {
            let _ = down.shutdown(Shutdown::Both);
            return;
        }
    };
    let _ = down.set_nodelay(true);
    let _ = up.set_nodelay(true);
    let (down_w, up_r) = match (down.try_clone(), up.try_clone()) {
        (Ok(d), Ok(u)) => (d, u),
        _ => {
            let _ = down.shutdown(Shutdown::Both);
            let _ = up.shutdown(Shutdown::Both);
            return;
        }
    };
    // Client → server: downstream reads are faulted.
    let c2s = std::thread::Builder::new()
        .name("dds-chaos-c2s".into())
        .spawn(move || {
            let mut from = FaultStream::new(down, plan);
            let mut to = up;
            pump(&mut from, &mut to);
            let _ = from.get_ref().shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
        });
    // Server → client: downstream writes are faulted (this half runs on
    // the per-connection thread itself).
    {
        let mut from = up_r;
        let mut to = FaultStream::new(down_w, plan);
        pump(&mut from, &mut to);
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.get_ref().shutdown(Shutdown::Both);
    }
    if let Ok(t) = c2s {
        let _ = t.join();
    }
}

fn pump(from: &mut impl Read, to: &mut impl Write) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected loopback socket pair.
    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = l.accept().expect("accept");
        a.set_nodelay(true).ok();
        b.set_nodelay(true).ok();
        (a, b)
    }

    #[test]
    fn plans_are_deterministic_and_seeds_differ() {
        let p = FaultPlan::seeded(7);
        for i in 0..64 {
            assert_eq!(p.conn(i), p.conn(i), "same (seed, conn) → same plan");
        }
        let q = FaultPlan::seeded(8);
        assert!(
            (0..64).any(|i| p.conn(i) != q.conn(i)),
            "different seeds must differ somewhere in 64 connections"
        );
        // The default rate leaves a healthy share of clean connections.
        let clean = (0..1000).filter(|&i| p.conn(i).fault.is_none()).count();
        assert!(
            clean > 400,
            "expected mostly-clean connections, got {clean}"
        );
        let all = FaultPlan::seeded(7).with_fault_per_mille(1000);
        assert!((0..100).all(|i| all.conn(i).fault.is_some()));
    }

    #[test]
    fn torn_write_cuts_at_the_exact_byte() {
        let (a, mut b) = pair();
        let mut fs = FaultStream::new(
            a,
            ConnPlan {
                connect_delay_ms: 0,
                fault: Some(Fault::TornWrite { at: 5 }),
            },
        );
        let err = fs.write_all(&[0xAB; 16]).expect_err("write must tear");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // Exactly 5 bytes made it out, then the peer sees EOF.
        let mut got = Vec::new();
        b.read_to_end(&mut got).expect("peer reads the torn prefix");
        assert_eq!(got, vec![0xAB; 5]);
    }

    #[test]
    fn reset_read_cuts_at_the_exact_byte() {
        let (a, mut b) = pair();
        b.write_all(&[0xCD; 16]).expect("peer writes");
        let mut fs = FaultStream::new(
            a,
            ConnPlan {
                connect_delay_ms: 0,
                fault: Some(Fault::ResetRead { at: 3 }),
            },
        );
        let mut buf = [0u8; 16];
        let mut got = 0;
        // Reads are capped at the fault boundary, then the reset lands.
        loop {
            match fs.read(&mut buf) {
                Ok(n) => got += n,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
                    break;
                }
            }
        }
        assert_eq!(got, 3);
    }

    #[test]
    fn trickle_caps_every_transfer() {
        let (a, mut b) = pair();
        let mut fs = FaultStream::new(
            a,
            ConnPlan {
                connect_delay_ms: 0,
                fault: Some(Fault::Trickle { chunk: 2 }),
            },
        );
        assert_eq!(fs.write(&[1; 10]).expect("capped write"), 2);
        b.write_all(&[2; 10]).expect("peer writes");
        let mut buf = [0u8; 10];
        assert_eq!(fs.read(&mut buf).expect("capped read"), 2);
    }

    #[test]
    fn clean_plan_is_a_passthrough() {
        let (a, mut b) = pair();
        let clean = ConnPlan {
            connect_delay_ms: 0,
            fault: None,
        };
        let mut fs = FaultStream::new(a, clean);
        fs.write_all(b"hello").expect("clean write");
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).expect("peer reads");
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn chaos_proxy_forwards_clean_connections() {
        // An "upstream" echo: accept one connection, echo 4 bytes back.
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let upstream = l.local_addr().expect("addr");
        let echo = std::thread::spawn(move || {
            let (mut s, _) = l.accept().expect("accept");
            let mut buf = [0u8; 4];
            s.read_exact(&mut buf).expect("read");
            s.write_all(&buf).expect("write");
        });
        let proxy = ChaosProxy::spawn(upstream, FaultPlan::seeded(1).with_fault_per_mille(0))
            .expect("spawn proxy");
        let mut c = TcpStream::connect(proxy.local_addr()).expect("connect via proxy");
        c.write_all(b"ping").expect("write");
        let mut buf = [0u8; 4];
        c.read_exact(&mut buf)
            .expect("echoed back through the proxy");
        assert_eq!(&buf, b"ping");
        echo.join().expect("echo thread");
        proxy.shutdown();
    }
}
