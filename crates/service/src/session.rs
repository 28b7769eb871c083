//! The connection layer `kplexd` ([`crate::server`]) and `kplexr`
//! ([`crate::router`]) share: one accept loop with a connection registry,
//! and one line loop per connection (capped framing, parse errors, the
//! tenancy gate, `PING`/`QUIT`/`AUTH`) that hands every other verb to the
//! server's [`Handler`]. Replies leave through [`Session::reply`], the one
//! token-redaction chokepoint, and every line is framed by [`write_line`].
//! An event-driven connection tier would replace this module.

use crate::auth::{Principal, PrincipalStore};
use crate::protocol::{self, Request, SubmitArgs};
use crate::sync::{OrderedMutex, Rank};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Longest request line a session buffers, in bytes, not counting its
/// `\n`. A `SUBMIT` needs well under 1 KiB; a peer that sends more without
/// a newline gets `ERR line too long` and is disconnected, so no client
/// can grow a connection's read buffer without bound.
const MAX_LINE_BYTES: usize = 64 * 1024;

const AUTH_REQUIRED: &str = "authentication required (AUTH <token>)";

/// What one server's connections share: its name, tenancy, shutdown flag
/// and open-connection registry.
pub(crate) struct Endpoint {
    /// The binary's name, for replies that say how to start it.
    name: &'static str,
    /// Principal store; `None` = tenancy disabled.
    pub(crate) principals: Option<PrincipalStore>,
    /// Every registered token, scrubbed from every reply line.
    pub(crate) secrets: Vec<String>,
    shutdown: AtomicBool,
    /// Open client connections by accept-order id (each thread removes its
    /// own), so [`Endpoint::begin_shutdown`] can sever them.
    conns: OrderedMutex<BTreeMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

impl Endpoint {
    /// A live endpoint for the binary `name`; tenancy iff `principals`.
    pub(crate) fn new(name: &'static str, principals: Option<PrincipalStore>) -> Endpoint {
        let secrets = principals
            .as_ref()
            .map(PrincipalStore::tokens)
            .unwrap_or_default();
        Endpoint {
            name,
            principals,
            secrets,
            shutdown: AtomicBool::new(false),
            conns: OrderedMutex::new(Rank::ServerConns, "server-conns", BTreeMap::new()),
            next_conn: AtomicU64::new(0),
        }
    }

    /// `true` once [`Endpoint::begin_shutdown`] ran.
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Raises the shutdown flag; with `sever`, also cuts every open
    /// connection mid-line, with no graceful `ERR`/`END` (crash simulation).
    pub(crate) fn begin_shutdown(&self, sever: bool) {
        self.shutdown.store(true, Ordering::Release);
        if sever {
            for conn in self.conns.lock().values() {
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

/// A server's own verbs: all the session layer does not answer itself.
pub(crate) trait Handler: Send + Sync + 'static {
    /// The state shared by this server's connections.
    fn endpoint(&self) -> &Endpoint;

    /// Answers one request that passed the tenancy gate. `PING`, `QUIT`
    /// and `AUTH` never get here.
    fn handle(self: &Arc<Self>, session: &mut Session<'_>, req: Request) -> io::Result<()>;
}

/// Accepts connections until shutdown, serving each on its own thread.
pub(crate) fn accept_loop<H: Handler>(listener: &TcpListener, state: &Arc<H>) {
    let endpoint = state.endpoint();
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if endpoint.shutting_down() {
                    return;
                }
                // ordering: connection ids only need uniqueness, nothing
                // else is published through this counter.
                let id = endpoint.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    endpoint.conns.lock().insert(id, clone);
                }
                let state = state.clone();
                std::thread::spawn(move || {
                    let _ = serve(stream, &state);
                    state.endpoint().conns.lock().remove(&id);
                });
            }
            Err(_) if endpoint.shutting_down() => return,
            Err(_) => continue,
        }
    }
}

/// An accept loop running on a background thread.
pub(crate) struct Acceptor {
    /// The bound address.
    pub(crate) addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

impl Acceptor {
    /// Runs [`accept_loop`] over `listener` on a new thread.
    pub(crate) fn spawn<H: Handler>(listener: TcpListener, state: Arc<H>) -> io::Result<Acceptor> {
        let addr = listener.local_addr()?;
        let thread = std::thread::spawn(move || accept_loop(&listener, &state));
        Ok(Acceptor { addr, thread })
    }

    /// Stops the loop, whose endpoint must already be shutting down: a
    /// throwaway connection pokes it out of `accept()`. Connection threads
    /// are detached; they exit as their clients disconnect.
    pub(crate) fn join(self) {
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

/// One client connection: where its replies go and which principal it has
/// authenticated as.
pub(crate) struct Session<'a, W: Write = TcpStream> {
    endpoint: &'a Endpoint,
    writer: W,
    /// Set by a successful `AUTH`; always `None` without a principal store.
    principal: Option<Principal>,
}

impl<W: Write> Session<'_, W> {
    /// Sends one reply line, scrubbed of every registered token. Streamed
    /// NDJSON result lines take [`Session::writer`] instead: they hold only
    /// vertex ids and framing, and they are the hot path.
    pub(crate) fn reply(&mut self, line: &str) -> io::Result<()> {
        if self.endpoint.secrets.is_empty() {
            write_line(&mut self.writer, line)
        } else {
            let redacted = protocol::redact_secrets(line, &self.endpoint.secrets);
            write_line(&mut self.writer, &redacted)
        }
    }

    /// The connection's writer, for streamed NDJSON result lines.
    pub(crate) fn writer(&mut self) -> &mut W {
        &mut self.writer
    }

    /// The authenticated principal, if any.
    pub(crate) fn principal(&self) -> Option<&Principal> {
        self.principal.as_ref()
    }

    /// May this connection observe a job owned by `owner`? Without tenancy
    /// all jobs are visible; otherwise the owner's and admins' are.
    pub(crate) fn may_see(&self, owner: Option<&str>) -> bool {
        match &self.principal {
            None => true,
            Some(p) => p.admin || owner == Some(p.name.as_str()),
        }
    }

    /// The principal a submission runs **as**: the authenticated one, or
    /// the one an admin tags (the router's proxy path); `None` without tenancy.
    pub(crate) fn effective_principal(
        &self,
        args: &SubmitArgs,
    ) -> Result<Option<Principal>, String> {
        let Some(store) = &self.endpoint.principals else {
            if args.principal.is_some() {
                return Err(format!(
                    "principal= requires starting {} with --principals",
                    self.endpoint.name
                ));
            }
            return Ok(None);
        };
        let Some(me) = &self.principal else {
            // Unreachable past the auth gate; kept as defence.
            return Err(AUTH_REQUIRED.into());
        };
        match args.principal.as_deref() {
            None => Ok(Some(me.clone())),
            Some(name) if name == me.name => Ok(Some(me.clone())),
            Some(_) if !me.admin => {
                Err("only an admin principal may submit on another principal's behalf".into())
            }
            Some(name) => store
                .by_name(name)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("unknown principal {name:?}")),
        }
    }

    /// Answers `AUTH <token>`, binding the connection on success.
    fn authenticate(&mut self, token: &str) -> String {
        let name = self.endpoint.name;
        match self
            .endpoint
            .principals
            .as_ref()
            .map(|s| s.authenticate(token))
        {
            None => format!("ERR authentication disabled (start {name} with --principals)"),
            // Deliberately does not echo the presented token.
            Some(None) => "ERR unknown token".to_string(),
            Some(Some(p)) => {
                self.principal = Some(p.clone());
                format!(
                    "OK principal={} weight={} admin={}",
                    p.name, p.weight, p.admin
                )
            }
        }
    }
}

/// The per-connection line loop.
fn serve<H: Handler>(stream: TcpStream, state: &Arc<H>) -> io::Result<()> {
    let mut session = Session {
        endpoint: state.endpoint(),
        writer: stream.try_clone()?,
        principal: None,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // The terminator stays in `buf`: the grammar splits on whitespace.
        let cap = MAX_LINE_BYTES as u64 + 1;
        if reader.by_ref().take(cap).read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            return session.reply("ERR line too long");
        }
        let line =
            std::str::from_utf8(&buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if line.trim().is_empty() {
            continue;
        }
        let req = match protocol::parse_request(line) {
            Ok(req) => req,
            Err(e) => {
                session.reply(&format!("ERR {e}"))?;
                continue;
            }
        };
        // The auth gate: with tenancy enabled, every verb except
        // PING/QUIT/AUTH requires a successful AUTH on this connection.
        if session.endpoint.principals.is_some()
            && session.principal.is_none()
            && !matches!(req, Request::Ping | Request::Quit | Request::Auth(_))
        {
            session.reply(&format!("ERR {AUTH_REQUIRED}"))?;
            continue;
        }
        match req {
            Request::Quit => return session.reply("OK bye"),
            Request::Ping => session.reply("OK pong")?,
            Request::Auth(token) => {
                let resp = session.authenticate(&token);
                session.reply(&resp)?;
            }
            req => state.handle(&mut session, req)?,
        }
    }
}

/// Writes `line` and its `\n` in one `write` call (one `writev` on a
/// socket) unless the writer takes less. Two writes would stall with Nagle's
/// algorithm on: the kernel holds the lone `\n` until the peer ACKs the
/// line, which a delayed-ACK peer does only after ~40 ms.
pub(crate) fn write_line<W: Write + ?Sized>(w: &mut W, line: &str) -> io::Result<()> {
    let mut parts = [IoSlice::new(line.as_bytes()), IoSlice::new(b"\n")];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket stand-in: each call is one syscall that takes at most
    /// `chunk` bytes.
    struct Socket {
        calls: usize,
        bytes: Vec<u8>,
        chunk: usize,
    }

    impl Write for Socket {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let start = self.bytes.len();
            for buf in bufs {
                let room = self.chunk - (self.bytes.len() - start);
                self.bytes.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.bytes.len() - start)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn session(endpoint: &Endpoint, chunk: usize) -> Session<'_, Socket> {
        let writer = Socket {
            calls: 0,
            bytes: Vec::new(),
            chunk,
        };
        Session {
            endpoint,
            writer,
            principal: None,
        }
    }

    #[test]
    fn each_reply_line_is_one_write() {
        let store = PrincipalStore::parse("tok-a:alice:1:0:0:-\n").unwrap();
        let endpoint = Endpoint::new("kplexr", Some(store));
        let mut s = session(&endpoint, usize::MAX);
        s.reply("OK pong").unwrap();
        s.reply("ERR loading \"/x/tok-a\"").unwrap();
        assert_eq!(s.writer.calls, 2);
        assert_eq!(s.writer.bytes, b"OK pong\nERR loading \"/x/****\"\n");
    }

    #[test]
    fn short_writes_still_deliver_the_whole_line() {
        let endpoint = Endpoint::new("kplexd", None);
        let mut s = session(&endpoint, 3);
        s.reply("OK bye").unwrap();
        assert_eq!((s.writer.calls, &s.writer.bytes[..]), (3, &b"OK bye\n"[..]));
    }

    #[test]
    fn tenancy_errors_name_the_binary() {
        let endpoint = Endpoint::new("kplexr", None);
        let mut s = session(&endpoint, usize::MAX);
        let disabled = "ERR authentication disabled (start kplexr with --principals)";
        assert_eq!(s.authenticate("tok-a"), disabled);
        let mut args = SubmitArgs::dataset("jazz", 2, 9);
        args.principal = Some("alice".into());
        let untagged = "principal= requires starting kplexr with --principals";
        assert_eq!(s.effective_principal(&args), Err(untagged.into()));
    }
}
