//! Load over the socket protocol: an open loop that sends on a fixed
//! schedule and times every request from when it was due, a closed loop
//! that measures capacity.
//!
//! Each request is one newline-terminated frame and each response one
//! line; on a single connection the server answers in request order, so
//! the k-th response line belongs to the k-th frame.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Checks response `line` to request `i`.
pub type Check<'a> = &'a (dyn Fn(usize, &str) -> bool + Sync);

/// Connects with Nagle off and a read timeout, so a dead server ends the
/// run instead of hanging it.
fn connect(addr: SocketAddr) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

/// Reads one response line; `None` on end of stream or error.
fn read_response(reader: &mut BufReader<TcpStream>, buf: &mut String) -> Option<()> {
    buf.clear();
    match reader.read_line(buf) {
        Ok(0) | Err(_) => None,
        Ok(_) => Some(()),
    }
}

/// Sleeps until `due`. It never spins: on a small host a spinning
/// generator takes a core from the server. The sleep's overshoot shows as
/// lateness and, since latency counts from the schedule, in the latency.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// When each request of an open loop was due, sent and answered, as
/// offsets from the loop's start.
#[derive(Debug, Default, Clone)]
pub struct OpenLoopLog {
    /// Scheduled send time of each request.
    pub due: Vec<Duration>,
    /// Actual send time of each request.
    pub sent: Vec<Duration>,
    /// Receive time of each answered request (a prefix of the requests).
    pub recv: Vec<Duration>,
    /// Requests outstanding when each request was sent.
    pub backlog: Vec<usize>,
    /// Answers that failed their check.
    pub wrong: u64,
}

impl OpenLoopLog {
    /// Latency of each answered request in ms, from its *scheduled* send:
    /// a stall that makes the generator late is charged to every request
    /// it delayed.
    pub fn latency_ms(&self) -> Vec<f64> {
        self.recv
            .iter()
            .zip(&self.due)
            .map(|(r, d)| r.saturating_sub(*d).as_secs_f64() * 1e3)
            .collect()
    }

    /// How late the generator sent each request, in ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .zip(&self.due)
            .map(|(s, d)| s.saturating_sub(*d).as_secs_f64() * 1e3)
            .collect()
    }

    /// Requests sent but never answered.
    pub fn missing(&self) -> u64 {
        (self.due.len() - self.recv.len()) as u64
    }
}

/// Sends `frames` on one connection at `rate_hz`, from this thread, while
/// one receiver thread reads and checks the answers.
pub fn open_loop(
    addr: SocketAddr,
    frames: &[String],
    rate_hz: f64,
    check: Check<'_>,
) -> std::io::Result<OpenLoopLog> {
    let (mut reader, mut writer) = connect(addr)?;
    let n = frames.len();
    let answered = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let mut log = OpenLoopLog {
        due: (0..n)
            .map(|i| Duration::from_secs_f64(i as f64 / rate_hz))
            .collect(),
        ..OpenLoopLog::default()
    };
    let (recv, wrong) = std::thread::scope(|s| {
        let answered = &answered;
        let receiver = s.spawn(move || {
            let mut recv = Vec::with_capacity(n);
            let mut wrong = 0u64;
            let mut line = String::new();
            for i in 0..n {
                if read_response(&mut reader, &mut line).is_none() {
                    break;
                }
                recv.push(start.elapsed());
                wrong += u64::from(!check(i, line.trim_end()));
                answered.store(i + 1, Ordering::Release);
            }
            (recv, wrong)
        });
        for (i, frame) in frames.iter().enumerate() {
            wait_until(start + log.due[i]);
            log.sent.push(start.elapsed());
            log.backlog.push(i - answered.load(Ordering::Acquire));
            if writer.write_all(frame.as_bytes()).is_err() {
                break;
            }
        }
        receiver.join().expect("receiver thread panicked")
    });
    log.recv = recv;
    log.wrong = wrong;
    Ok(log)
}

/// What a closed loop completed.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClosedLoop {
    /// Requests answered.
    pub completed: u64,
    /// Answers that failed their check.
    pub wrong: u64,
    /// Requests sent that got no answer.
    pub missing: u64,
    /// Wall time of the loop.
    pub elapsed_s: f64,
}

impl ClosedLoop {
    /// Answers per second.
    pub fn qps(&self) -> f64 {
        self.completed as f64 / self.elapsed_s.max(1e-9)
    }
}

/// `conns` connections, one thread each, each sending its next frame only
/// after the previous answer, for `duration`. Connection `c` walks
/// `frames` from offset `c` with stride `conns`, wrapping around.
pub fn closed_loop(
    addr: SocketAddr,
    frames: &[String],
    conns: usize,
    duration: Duration,
    check: Check<'_>,
) -> std::io::Result<ClosedLoop> {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let per_conn: Vec<std::io::Result<ClosedLoop>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let stop = &stop;
                s.spawn(move || -> std::io::Result<ClosedLoop> {
                    let (mut reader, mut writer) = connect(addr)?;
                    let mut out = ClosedLoop::default();
                    let mut line = String::new();
                    let mut i = c;
                    while !stop.load(Ordering::Relaxed) {
                        let k = i % frames.len();
                        writer.write_all(frames[k].as_bytes())?;
                        if read_response(&mut reader, &mut line).is_none() {
                            out.missing += 1;
                            break;
                        }
                        out.completed += 1;
                        out.wrong += u64::from(!check(k, line.trim_end()));
                        i += conns;
                    }
                    Ok(out)
                })
            })
            .collect();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let mut total = ClosedLoop {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..ClosedLoop::default()
    };
    for r in per_conn {
        let r = r?;
        total.completed += r.completed;
        total.wrong += r.wrong;
        total.missing += r.missing;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A line server that answers `ok:<line>` and stalls `stall` before
    /// its first answer.
    fn stalling_server(stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind test listener");
        let addr = listener.local_addr().expect("listener address");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept test client");
            let mut reader = BufReader::new(stream.try_clone().expect("clone test stream"));
            let mut writer = stream;
            let mut line = String::new();
            let mut first = true;
            while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                if writer.write_all(format!("ok:{line}").as_bytes()).is_err() {
                    break;
                }
                line.clear();
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_counts_from_the_scheduled_send() {
        // The generator fell 40 ms behind on request 1: charged from due.
        let ms = Duration::from_millis;
        let log = OpenLoopLog {
            due: vec![ms(0), ms(10), ms(20)],
            sent: vec![ms(0), ms(50), ms(51)],
            recv: vec![ms(1), ms(52), ms(53)],
            backlog: vec![0, 0, 1],
            wrong: 0,
        };
        let lat = log.latency_ms();
        assert!((lat[0] - 1.0).abs() < 1e-9);
        assert!(
            (lat[1] - 42.0).abs() < 1e-9,
            "not 2 ms from the actual send"
        );
        assert!((lat[2] - 33.0).abs() < 1e-9);
        let late = log.lateness_ms();
        assert!((late[1] - 40.0).abs() < 1e-9);
        assert_eq!(log.missing(), 0);
    }

    #[test]
    fn open_loop_charges_a_server_stall_to_queued_requests() {
        let stall = Duration::from_millis(80);
        let (addr, server) = stalling_server(stall);
        let frames: Vec<String> = (0..40).map(|i| format!("q{i}\n")).collect();
        let check = |i: usize, line: &str| line == format!("ok:q{i}");
        let log = open_loop(addr, &frames, 1000.0, &check).expect("open loop");
        server.join().expect("test server");
        assert_eq!(log.recv.len(), 40);
        assert_eq!(log.wrong, 0);
        let lat = log.latency_ms();
        // Request 20 was due at 20 ms and could not be answered before the
        // 80 ms stall ended: its latency covers the remaining wait, even
        // though it went out on time.
        assert!(lat[20] >= 55.0, "latency {} ms hides the stall", lat[20]);
        assert!(log.lateness_ms()[20] < 20.0, "the sender kept its schedule");
        assert!(log.backlog[30] > 0, "requests queued behind the stall");
    }

    #[test]
    fn closed_loop_checks_every_answer() {
        let (addr, server) = stalling_server(Duration::ZERO);
        let frames: Vec<String> = (0..5).map(|i| format!("q{i}\n")).collect();
        let check = |i: usize, line: &str| line == format!("ok:q{i}") && i != 3;
        let r =
            closed_loop(addr, &frames, 1, Duration::from_millis(50), &check).expect("closed loop");
        server.join().expect("test server");
        assert!(r.completed > 5, "the loop wraps around the frames");
        assert!(r.wrong >= 1, "every answer to request 3 is marked wrong");
        assert_eq!(r.wrong, (r.completed + 1) / 5, "and only those");
        assert!(r.qps() > 0.0);
    }
}
