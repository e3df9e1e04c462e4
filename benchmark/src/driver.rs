//! Load generation: a closed loop (each connection sends its next request
//! when the previous reply arrives) and an open loop (requests fall due on
//! a fixed schedule whatever the system does, and are timed from their due
//! time, so a stall shows in every request that fell due behind it).
//!
//! One thread per connection, never more: the connections share the
//! stream through one atomic cursor, so whichever is free takes the next
//! request.

use crate::sut::{Answer, Connection, Reply, Request};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One request as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Position in the phase's stream.
    pub index: usize,
    pub write: bool,
    /// Closed loop: reply − send. Open loop: reply − due time.
    pub latency_ns: u64,
    /// Open loop: send − due time (0 in a closed loop).
    pub late_ns: u64,
    /// Open loop: the connection was idle when the request fell due, so
    /// `late_ns` is the generator's own timer lateness, not queueing.
    pub on_time: bool,
    pub failed: bool,
    /// Ids in the answer (reads).
    pub ids: usize,
}

#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// `(stream index, answer)` of every read the caller asked to keep.
    pub kept: Vec<(usize, Answer)>,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    pub elapsed: Duration,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.kept.extend(other.kept);
        self.failures.extend(other.failures);
        self.failures.truncate(8);
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.failed).count()
    }

    pub fn latencies_us(&self, write: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.write == write && !s.failed)
            .map(|s| s.latency_ns as f64 / 1e3)
            .collect()
    }
}

fn record(
    phase: &mut Phase,
    index: usize,
    req: &Request,
    reply: Reply,
    keep: bool,
) -> (bool, usize) {
    match reply {
        Reply::Hits(answer) => {
            let ids = answer.as_ref().map_or(0, Vec::len);
            let failed = answer.is_err();
            if let Err(e) = &answer {
                phase.failures.push(format!("request {index}: {e}"));
            }
            if keep {
                phase.kept.push((index, answer));
            }
            (failed, ids)
        }
        Reply::Done => (false, 0),
        Reply::Failed(e) => {
            phase
                .failures
                .push(format!("request {index} ({}): {e}", kind(req)));
            (true, 0)
        }
    }
}

fn kind(req: &Request) -> &'static str {
    match req {
        Request::Query(_) => "query",
        Request::Write => "lifecycle op",
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Drives `stream` (wrapping around if it runs out) through every
/// connection for `duration`. Every `keep_every`-th read's answer is kept
/// (`0` keeps none).
pub fn closed_loop<C: Connection>(
    conns: &mut [C],
    stream: &[Request],
    duration: Duration,
    keep_every: usize,
) -> Phase {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let cursor = &cursor;
                scope.spawn(move || {
                    crate::alloc::mark_client_thread(true);
                    let mut local = Phase::default();
                    while started.elapsed() < duration {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let req = &stream[index % stream.len()];
                        let sent = Instant::now();
                        let reply = conn.send(req);
                        let latency_ns = ns(sent.elapsed());
                        let keep = keep_every > 0 && index.is_multiple_of(keep_every);
                        let (failed, ids) = record(&mut local, index, req, reply, keep);
                        local.samples.push(Sample {
                            index,
                            write: req.is_write(),
                            latency_ns,
                            late_ns: 0,
                            on_time: true,
                            failed,
                            ids,
                        });
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            phase.absorb(h.join().expect("client thread panicked"));
        }
    });
    phase.elapsed = started.elapsed();
    phase
}

/// Sends request `i` of `stream` at `schedule[i]` nanoseconds after the
/// phase starts, on whichever connection is free, and times it from that
/// due time. Ends when the schedule is exhausted.
pub fn open_loop<C: Connection>(conns: &mut [C], stream: &[Request], schedule: &[u64]) -> Phase {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let cursor = &cursor;
                scope.spawn(move || {
                    crate::alloc::mark_client_thread(true);
                    let mut local = Phase::default();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&due_ns) = schedule.get(index) else {
                            break;
                        };
                        let due = started + Duration::from_nanos(due_ns);
                        let now = Instant::now();
                        let on_time = now < due;
                        if on_time {
                            std::thread::sleep(due - now);
                        }
                        let req = &stream[index % stream.len()];
                        let sent = Instant::now();
                        let reply = conn.send(req);
                        let done = Instant::now();
                        let (failed, ids) = record(&mut local, index, req, reply, false);
                        local.samples.push(Sample {
                            index,
                            write: req.is_write(),
                            latency_ns: ns(done.saturating_duration_since(due)),
                            late_ns: ns(sent.saturating_duration_since(due)),
                            on_time,
                            failed,
                            ids,
                        });
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            phase.absorb(h.join().expect("client thread panicked"));
        }
    });
    phase.elapsed = started.elapsed();
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Percentiles;
    use crate::sut;

    /// A connection that answers after a fixed service time, except for
    /// one request that stalls.
    struct Fake {
        service: Duration,
        stall_at: usize,
        stall: Duration,
        served: usize,
    }

    impl Connection for Fake {
        fn send(&mut self, _req: &Request) -> Reply {
            let wait = if self.served == self.stall_at {
                self.stall
            } else {
                self.service
            };
            self.served += 1;
            std::thread::sleep(wait);
            Reply::Hits(Ok(vec![1, 2, 3]))
        }
    }

    fn stream(n: usize) -> Vec<Request> {
        (0..n)
            .map(|i| {
                Request::Query(sut::percentile_at_least(
                    sut::interval_rect(0.0, i as f64 + 1.0),
                    0.5,
                ))
            })
            .collect()
    }

    #[test]
    fn open_loop_times_from_due_time_so_a_stall_is_not_omitted() {
        // One connection, 1 ms service, one 100 ms stall, a request due
        // every 2 ms. Timed from send, one request is slow; timed from its
        // due time, every request that fell due during the stall is.
        let mut conns = [Fake {
            service: Duration::from_millis(1),
            stall_at: 10,
            stall: Duration::from_millis(100),
            served: 0,
        }];
        let schedule: Vec<u64> = (0..100).map(|i| i * 2_000_000).collect();
        let phase = open_loop(&mut conns, &stream(100), &schedule);
        assert_eq!(phase.samples.len(), 100);
        assert_eq!(phase.failed(), 0);
        let slow_from_due = phase
            .samples
            .iter()
            .filter(|s| s.latency_ns > 20_000_000)
            .count();
        let slow_from_send = phase
            .samples
            .iter()
            .filter(|s| s.latency_ns - s.late_ns > 20_000_000)
            .count();
        assert_eq!(
            slow_from_send, 1,
            "only the stalled request is slow once sent"
        );
        assert!(
            slow_from_due >= 20,
            "the stall delays everything due behind it ({slow_from_due} slow from due time)"
        );
        // The backlog is queueing, not generator lateness.
        let backlog = phase.samples.iter().filter(|s| !s.on_time).count();
        assert!(
            backlog >= 20,
            "{backlog} requests found the connection busy"
        );
        let p = Percentiles::of(phase.latencies_us(false));
        assert!(p.q(0.9) < 100_000.0 && p.q(1.0) >= 100_000.0);
    }

    #[test]
    fn closed_loop_hides_the_same_stall() {
        let mut conns = [Fake {
            service: Duration::from_millis(1),
            stall_at: 10,
            stall: Duration::from_millis(100),
            served: 0,
        }];
        let phase = closed_loop(&mut conns, &stream(16), Duration::from_millis(250), 4);
        let slow = phase
            .samples
            .iter()
            .filter(|s| s.latency_ns > 20_000_000)
            .count();
        assert_eq!(slow, 1, "a closed loop sends nothing while it waits");
        // The stream wraps, and every 4th answer is kept.
        assert!(phase.samples.len() > 16);
        assert!(phase.kept.iter().all(|(i, _)| i % 4 == 0));
        assert!(!phase.kept.is_empty());
    }

    #[test]
    fn free_connections_share_one_schedule() {
        let fake = || Fake {
            service: Duration::from_millis(4),
            stall_at: usize::MAX,
            stall: Duration::ZERO,
            served: 0,
        };
        let mut conns = [fake(), fake()];
        // Due every 3 ms with 4 ms service: one connection would fall
        // behind without bound, two keep up.
        let schedule: Vec<u64> = (0..60).map(|i| i * 3_000_000).collect();
        let phase = open_loop(&mut conns, &stream(60), &schedule);
        let mut seen: Vec<usize> = phase.samples.iter().map(|s| s.index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..60).collect::<Vec<_>>(), "every request sent once");
        let worst = phase.samples.iter().map(|s| s.latency_ns).max().unwrap();
        assert!(
            worst < 30_000_000,
            "two connections keep up (worst {worst} ns)"
        );
    }
}
