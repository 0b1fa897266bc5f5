//! Fleet transports: how the supervisor reaches a worker.
//!
//! PR 8's supervisor talked to worker *subprocesses* through stdin/stdout
//! pipes it owned. This module decouples the supervisor from that one
//! shape behind [`Transport`] — framed JSONL write plus a detachable read
//! half — with two implementations:
//!
//! - [`PipeTransport`]: the original child-process pipes. `close()` kills
//!   and reaps the subprocess; the peer identity is its pid.
//! - [`TcpTransport`]: a socket to a long-lived `synran campaign agent`.
//!   Connecting runs a versioned, token-authenticated handshake (see
//!   [`handshake_accept`] for the agent half). `close()` shuts down only
//!   the *write* half: the agent sees EOF and returns to its accept loop,
//!   while any in-flight result still drains through the supervisor's
//!   reader thread into the stale-result discard instead of vanishing.
//!
//! Worker slots are declared with [`SlotSpec`] (`--workers
//! addr1,addr2[,local:N]`), so one fleet freely mixes remote agents with
//! local subprocesses.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Duration;

use crate::fleet::proto::{Hello, HelloReply, FLEET_SCHEMA_VERSION};

/// Upper bound on a handshake line. A hello/reply is tens of bytes; a
/// peer that streams more before its first newline is not speaking the
/// protocol.
const MAX_HANDSHAKE_BYTES: usize = 4096;

/// One worker slot in `--workers` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotSpec {
    /// A worker subprocess over stdin/stdout pipes.
    Local,
    /// A long-lived `campaign agent` at this `host:port` address.
    Tcp(String),
}

/// Parses a `--workers` list: comma-separated `host:port` addresses,
/// `local` (one subprocess slot), or `local:N` (N subprocess slots).
pub fn parse_workers(spec: &str) -> Result<Vec<SlotSpec>, String> {
    let mut slots = Vec::new();
    for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if item == "local" {
            slots.push(SlotSpec::Local);
        } else if let Some(count) = item.strip_prefix("local:") {
            let count: usize = count
                .parse()
                .map_err(|_| format!("--workers: bad local slot count in {item:?}"))?;
            if count == 0 {
                return Err(format!("--workers: {item:?} declares zero slots"));
            }
            for _ in 0..count {
                slots.push(SlotSpec::Local);
            }
        } else if item
            .rsplit_once(':')
            .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok())
        {
            slots.push(SlotSpec::Tcp(item.to_string()));
        } else {
            return Err(format!(
                "--workers: {item:?} is not host:port, local, or local:N"
            ));
        }
    }
    if slots.is_empty() {
        return Err("--workers: no worker slots given".to_string());
    }
    Ok(slots)
}

/// A framed JSONL channel to one worker, however it is reached.
pub(crate) trait Transport: Send {
    /// Writes one protocol line (newline appended) and flushes.
    fn send(&mut self, line: &str) -> std::io::Result<()>;
    /// Detaches the read half for the supervisor's reader thread. Yields
    /// `Some` exactly once.
    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>>;
    /// `"pipe"` or `"tcp"` — the sidecar's transport tag.
    fn kind(&self) -> &'static str;
    /// Peer identity: `pid=N` for pipes, the socket address for TCP.
    fn peer(&self) -> String;
    /// Tears the channel down. Pipes kill and reap the subprocess; TCP
    /// shuts down the write half only so in-flight peer output drains.
    fn close(&mut self);
}

/// The original child-process transport.
pub(crate) struct PipeTransport {
    child: Child,
    stdin: Option<ChildStdin>,
    reader: Option<Box<dyn Read + Send>>,
}

impl PipeTransport {
    /// Spawns `argv` with piped stdio and the fleet heartbeat cadence in
    /// its environment.
    pub fn spawn(argv: &[String], heartbeat: Duration) -> Result<PipeTransport, String> {
        let mut child = Command::new(&argv[0])
            .args(&argv[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .env(
                "SYNRAN_FLEET_HEARTBEAT_MS",
                heartbeat.as_millis().to_string(),
            )
            .spawn()
            .map_err(|e| format!("spawn {:?} failed: {e}", argv[0]))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        Ok(PipeTransport {
            child,
            stdin: Some(stdin),
            reader: Some(Box::new(stdout)),
        })
    }
}

impl Transport for PipeTransport {
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        let Some(stdin) = self.stdin.as_mut() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipe transport closed",
            ));
        };
        writeln!(stdin, "{line}")?;
        stdin.flush()
    }

    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>> {
        self.reader.take()
    }

    fn kind(&self) -> &'static str {
        "pipe"
    }

    fn peer(&self) -> String {
        format!("pid={}", self.child.id())
    }

    fn close(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for PipeTransport {
    fn drop(&mut self) {
        self.close();
    }
}

/// A socket to a remote `campaign agent`.
pub(crate) struct TcpTransport {
    stream: TcpStream,
    peer: String,
    reader: Option<Box<dyn Read + Send>>,
    closed: bool,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("peer", &self.peer)
            .field("closed", &self.closed)
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// Connects to `addr` and runs the supervisor half of the handshake:
    /// send `hello` (schema, token, heartbeat cadence), require a
    /// matching `hello_ok` within `timeout`. Any refusal, mismatch, or
    /// silence is a connect error — the caller retries with backoff like
    /// any other spawn failure.
    pub fn connect(
        addr: &str,
        token: &str,
        heartbeat: Duration,
        timeout: Duration,
    ) -> Result<TcpTransport, String> {
        let sockaddr = resolve(addr)?;
        let stream = TcpStream::connect_timeout(&sockaddr, timeout)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(timeout));
        let hello = Hello {
            schema: FLEET_SCHEMA_VERSION,
            token: token.to_string(),
            heartbeat_ms: heartbeat.as_millis() as u64,
        };
        let mut half = &stream;
        writeln!(half, "{}", hello.to_jsonl()).map_err(|e| format!("hello to {addr}: {e}"))?;
        let reply =
            read_handshake_line(&mut half).map_err(|e| format!("handshake with {addr}: {e}"))?;
        match HelloReply::from_jsonl(&reply) {
            Some(HelloReply::Ok { schema, .. }) if schema == FLEET_SCHEMA_VERSION => {}
            Some(HelloReply::Ok { schema, .. }) => {
                return Err(format!(
                    "agent {addr} speaks schema {schema}, supervisor speaks {FLEET_SCHEMA_VERSION}"
                ));
            }
            Some(HelloReply::Err { error }) => {
                return Err(format!("agent {addr} refused handshake: {error}"));
            }
            None => return Err(format!("agent {addr} sent a malformed handshake reply")),
        }
        let _ = stream.set_read_timeout(None);
        let reader = stream
            .try_clone()
            .map_err(|e| format!("clone socket to {addr}: {e}"))?;
        let peer = stream
            .peer_addr()
            .map_or_else(|_| addr.to_string(), |a| a.to_string());
        Ok(TcpTransport {
            stream,
            peer,
            reader: Some(Box::new(reader)),
            closed: false,
        })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        if self.closed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "tcp transport closed",
            ));
        }
        writeln!(self.stream, "{line}")?;
        self.stream.flush()
    }

    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>> {
        self.reader.take()
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn close(&mut self) {
        if !self.closed {
            self.closed = true;
            // Write half only: the read half keeps draining so a late
            // (stale) result reaches the book's discard path, and the
            // agent sees a clean EOF back to its accept loop.
            let _ = self.stream.shutdown(Shutdown::Write);
        }
    }
}

/// Runs the agent half of the handshake on a fresh connection: read the
/// supervisor's `hello` under a short deadline, check schema and token,
/// answer `hello_ok` (with this agent's pid and thread capability) or
/// `hello_err`. Returns the heartbeat cadence the supervisor asked for.
pub(crate) fn handshake_accept(
    stream: &TcpStream,
    token: &str,
    threads: usize,
) -> Result<Duration, String> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut half = stream;
    let line = read_handshake_line(&mut half)?;
    let refuse = |stream: &TcpStream, why: &str| -> Result<Duration, String> {
        let reply = HelloReply::Err {
            error: why.to_string(),
        };
        let mut half = stream;
        let _ = writeln!(half, "{}", reply.to_jsonl());
        Err(why.to_string())
    };
    let Some(hello) = Hello::from_jsonl(&line) else {
        return refuse(stream, "malformed hello");
    };
    if hello.schema != FLEET_SCHEMA_VERSION {
        return refuse(
            stream,
            &format!(
                "unsupported schema {} (agent speaks {FLEET_SCHEMA_VERSION})",
                hello.schema
            ),
        );
    }
    if hello.token != token {
        return refuse(stream, "bad token");
    }
    let reply = HelloReply::Ok {
        schema: FLEET_SCHEMA_VERSION,
        pid: std::process::id(),
        threads: threads as u64,
    };
    writeln!(half, "{}", reply.to_jsonl()).map_err(|e| format!("hello_ok write: {e}"))?;
    let _ = stream.set_read_timeout(None);
    Ok(Duration::from_millis(hello.heartbeat_ms.max(1)))
}

/// Reads one newline-terminated handshake line, byte by byte (the line is
/// tiny and this avoids buffering past it into the protocol stream).
fn read_handshake_line(reader: &mut impl Read) -> Result<String, String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => return Err("peer closed during handshake".to_string()),
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => {
                line.push(byte[0]);
                if line.len() > MAX_HANDSHAKE_BYTES {
                    return Err("handshake line too long".to_string());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err("handshake timed out".to_string());
            }
            Err(e) => return Err(format!("handshake read: {e}")),
        }
    }
    String::from_utf8(line).map_err(|_| "handshake line not UTF-8".to_string())
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no addresses"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parse_workers_mixes_remote_and_local() {
        assert_eq!(
            parse_workers("10.0.0.1:7000, 10.0.0.2:7000 ,local:2,local"),
            Ok(vec![
                SlotSpec::Tcp("10.0.0.1:7000".to_string()),
                SlotSpec::Tcp("10.0.0.2:7000".to_string()),
                SlotSpec::Local,
                SlotSpec::Local,
                SlotSpec::Local,
            ])
        );
    }

    #[test]
    fn parse_workers_rejects_nonsense() {
        for bad in ["", ",", "host", "host:notaport", "local:0", "local:x"] {
            assert!(parse_workers(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    /// One accept on an ephemeral listener, running the agent handshake
    /// with the given expected token.
    fn agent_once(token: &'static str) -> (String, std::thread::JoinHandle<Result<(), String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
            handshake_accept(&stream, token, 2).map(|_| ())
        });
        (addr, handle)
    }

    #[test]
    fn handshake_accepts_matching_token() {
        let (addr, agent) = agent_once("secret");
        let mut transport = TcpTransport::connect(
            &addr,
            "secret",
            Duration::from_millis(200),
            Duration::from_secs(5),
        )
        .expect("handshake succeeds");
        agent.join().unwrap().expect("agent side succeeds");
        assert_eq!(transport.kind(), "tcp");
        assert!(
            transport.peer().starts_with("127.0.0.1:"),
            "{}",
            transport.peer()
        );
        assert!(transport.take_reader().is_some());
        assert!(transport.take_reader().is_none(), "reader detaches once");
    }

    #[test]
    fn handshake_refuses_bad_token_with_a_reason() {
        let (addr, agent) = agent_once("secret");
        let err = TcpTransport::connect(
            &addr,
            "wrong",
            Duration::from_millis(200),
            Duration::from_secs(5),
        )
        .expect_err("handshake must fail");
        assert!(err.contains("bad token"), "{err}");
        assert!(agent.join().unwrap().is_err(), "agent reports the refusal");
    }

    #[test]
    fn handshake_refuses_non_protocol_peers() {
        // The "agent" is a plain listener that answers garbage: the
        // supervisor must classify it as a bad handshake, not hang.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Read the supervisor's hello line first: closing before it is
            // written would turn the supervisor's write into a connection
            // reset instead of the malformed reply under test.
            let mut hello = String::new();
            let _ = std::io::BufRead::read_line(&mut std::io::BufReader::new(&stream), &mut hello);
            let mut half = &stream;
            let _ = writeln!(half, "HTTP/1.1 400 Bad Request");
        });
        let err = TcpTransport::connect(
            &addr,
            "",
            Duration::from_millis(200),
            Duration::from_secs(5),
        )
        .expect_err("garbage reply must fail the handshake");
        assert!(err.contains("malformed handshake"), "{err}");
        peer.join().unwrap();
    }

    #[test]
    fn handshake_times_out_on_a_silent_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Nobody accepts or answers; the connect itself succeeds via the
        // listen backlog, so the timeout must come from the reply read.
        let err = TcpTransport::connect(
            &addr,
            "",
            Duration::from_millis(200),
            Duration::from_millis(300),
        )
        .expect_err("silent peer must time out");
        assert!(err.contains("timed out"), "{err}");
        drop(listener);
    }

    #[test]
    fn agent_rejects_schema_from_the_future() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let agent = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            handshake_accept(&stream, "", 0)
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut half = &stream;
        let hello = Hello {
            schema: FLEET_SCHEMA_VERSION + 1,
            token: String::new(),
            heartbeat_ms: 100,
        };
        writeln!(half, "{}", hello.to_jsonl()).unwrap();
        let reply = read_handshake_line(&mut half).unwrap();
        match HelloReply::from_jsonl(&reply) {
            Some(HelloReply::Err { error }) => {
                assert!(error.contains("unsupported schema"), "{error}");
            }
            other => panic!("expected hello_err, got {other:?}"),
        }
        assert!(agent.join().unwrap().is_err());
    }
}
