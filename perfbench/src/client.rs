//! Loopback SMTP and POP3 clients. Each replays one arrival, checks every
//! reply code against the script the arrival implies, and records what
//! the correctness check needs afterwards: every `queued as <id>` with its
//! recipients, and every mail that was retrieved and deleted over POP3.

use spamaware_trace::{ConnectionKind, ConnectionSpec};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Every client socket gives up on a silent server after this long; a
/// timeout counts as a failed operation.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Bytes per filler line: 78 letters and CRLF.
const LINE: usize = 80;
/// Distinct starting lines, so neighbouring mails differ in content.
const VARIANTS: usize = 1000;
/// Largest body the generators emit (the ham size model's clamp).
const MAX_BODY: usize = 5 * 1024 * 1024;

/// Shared body material. A mail's content is a function of its send
/// sequence number and its trace size only, so the check can rebuild
/// any body it reads back without keeping a copy.
pub struct Filler {
    bytes: Vec<u8>,
}

impl Filler {
    pub fn new() -> Filler {
        let lines = MAX_BODY / LINE + VARIANTS + 2;
        let mut bytes = Vec::with_capacity(lines * LINE);
        for j in 0..lines {
            for k in 0..LINE - 2 {
                bytes.push(b'a' + ((j * 7 + k) % 26) as u8);
            }
            bytes.extend_from_slice(b"\r\n");
        }
        Filler { bytes }
    }

    /// The DATA content of mail `seq` of nominal `size` as three pieces to
    /// send in order. No line starts with `.`, so no dot-stuffing applies;
    /// the content ends in CRLF, so the stored body is exactly the
    /// concatenation. The header names `seq` and `size`, which is all a
    /// reader needs to rebuild the body.
    pub fn pieces(&self, seq: u64, size: u32) -> (Vec<u8>, &[u8], &'static [u8]) {
        let header = format!("Message-Id: <{seq}.{size}@perfbench>\r\n\r\n").into_bytes();
        let rest = (size as usize).saturating_sub(header.len()).min(MAX_BODY);
        if rest < 3 {
            return (header, &[], b"");
        }
        let off = (seq as usize % VARIANTS) * LINE;
        let mut span = rest - 2;
        // Never end the span between a line's CR and LF: the line would
        // carry a bare CR. Drop that byte instead (the body is then one
        // byte under its nominal size, identically on both sides).
        if span % LINE == LINE - 1 {
            span -= 1;
        }
        (header, &self.bytes[off..off + span], b"\r\n")
    }

    /// The exact bytes the store must hold for mail `seq`.
    pub fn expected(&self, seq: u64, size: u32) -> Vec<u8> {
        let (h, span, tail) = self.pieces(seq, size);
        let mut v = Vec::with_capacity(h.len() + span.len() + tail.len());
        v.extend_from_slice(&h);
        v.extend_from_slice(span);
        v.extend_from_slice(tail);
        v
    }
}

/// Parses the `Message-Id: <seq.size@perfbench>` first line of a body.
pub fn parse_header(body: &[u8]) -> Option<(u64, u32)> {
    let line = body.split(|&b| b == b'\r').next()?;
    let s = std::str::from_utf8(line).ok()?;
    let inner = s
        .strip_prefix("Message-Id: <")?
        .strip_suffix("@perfbench>")?;
    let (seq, size) = inner.split_once('.')?;
    Some((seq.parse().ok()?, size.parse().ok()?))
}

/// A mail the server acknowledged with `250 … queued as <id>`. Its size
/// and recipients are those of mail `mail` of trace connection `conn`,
/// so the record holds no copy of them.
pub struct Acked {
    pub id: u64,
    pub seq: u64,
    pub conn: u32,
    pub mail: u32,
}

/// One client-side span. `conn` is shared by every span of one
/// connection; `name == "conn"` is the root the phases belong to.
pub struct Span {
    pub conn: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything one generator thread observed in one phase of a run.
#[derive(Default)]
pub struct Tally {
    /// Per SMTP connection, due time (open loop) or connect (closed loop)
    /// to `221`.
    pub conn_ns: Vec<u64>,
    /// Per mail, `MAIL FROM` sent to `250 … queued as`.
    pub mail_ns: Vec<u64>,
    /// Per POP3 session, due time to `+OK bye`.
    pub pop3_ns: Vec<u64>,
    /// How late each arrival started: after its due time (open loop) or
    /// after the thread's previous arrival ended (closed loop).
    pub late_ns: Vec<u64>,
    /// Sums over completed SMTP connections of the greet, pre-trust,
    /// trusted (DATA) and quit phases; they add up to `conn_ns`.
    pub phase_ns: [u64; 4],
    /// Mails, POP3 sessions and mail-less connections attempted / failed.
    pub attempted: u64,
    pub failed: u64,
    pub acked: Vec<Acked>,
    /// Mail body bytes times accepted recipients, over acked mails.
    pub delivered_bytes: u64,
    /// `(mailbox, seq)` of every mail retrieved, verified and deleted.
    pub retr_deleted: Vec<(u32, u64)>,
    pub pop3_sessions: u64,
    /// RETR answers whose message carried one extra trailing CRLF.
    pub retr_extra_crlf: u64,
    /// `RCPT` commands naming a missing mailbox, and how many drew `550`.
    pub bogus_rcpts: u64,
    pub bogus_550: u64,
    pub spans: Vec<Span>,
    /// First line of the first unexpected reply, for the report.
    pub first_error: Option<String>,
}

impl Tally {
    pub fn merge(&mut self, o: Tally) {
        self.conn_ns.extend(o.conn_ns);
        self.mail_ns.extend(o.mail_ns);
        self.pop3_ns.extend(o.pop3_ns);
        self.late_ns.extend(o.late_ns);
        for (a, b) in self.phase_ns.iter_mut().zip(o.phase_ns) {
            *a += b;
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.acked.extend(o.acked);
        self.delivered_bytes += o.delivered_bytes;
        self.retr_deleted.extend(o.retr_deleted);
        self.pop3_sessions += o.pop3_sessions;
        self.retr_extra_crlf += o.retr_extra_crlf;
        self.bogus_rcpts += o.bogus_rcpts;
        self.bogus_550 += o.bogus_550;
        self.spans.extend(o.spans);
        if self.first_error.is_none() {
            self.first_error = o.first_error;
        }
    }

    fn fail(&mut self, what: String) {
        if self.first_error.is_none() {
            self.first_error = Some(what);
        }
    }
}

/// A client socket with a small read buffer for reply lines. The socket
/// is nonblocking and polled in a loop that yields the CPU between
/// polls: the client never parks its vCPU while it waits for a reply, so
/// what it measures is the server, not how fast the host wakes an idle
/// vCPU (on a shared host that varied from microseconds to milliseconds
/// between runs).
struct Wire {
    s: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
}

/// Retries `op` while it would block, yielding between attempts, for at
/// most [`IO_TIMEOUT`].
fn poll_io<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let deadline = Instant::now() + IO_TIMEOUT;
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                std::thread::yield_now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            r => return r,
        }
    }
}

impl Wire {
    fn connect(addr: SocketAddr) -> io::Result<Wire> {
        let s = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
        Ok(Wire {
            s,
            buf: vec![0; 16 * 1024],
            pos: 0,
            len: 0,
        })
    }

    fn send(&mut self, mut b: &[u8]) -> io::Result<()> {
        while !b.is_empty() {
            match poll_io(|| self.s.write(b))? {
                0 => return Err(io::ErrorKind::WriteZero.into()),
                n => b = &b[n..],
            }
        }
        Ok(())
    }

    /// Reads one line into `out`, without its CRLF.
    fn line(&mut self, out: &mut Vec<u8>) -> io::Result<()> {
        out.clear();
        loop {
            if let Some(i) = self.buf[self.pos..self.len]
                .iter()
                .position(|&b| b == b'\n')
            {
                let end = self.pos + i;
                out.extend_from_slice(&self.buf[self.pos..end]);
                self.pos = end + 1;
                if out.last() == Some(&b'\r') {
                    out.pop();
                }
                return Ok(());
            }
            out.extend_from_slice(&self.buf[self.pos..self.len]);
            self.pos = 0;
            let (s, buf) = (&mut self.s, &mut self.buf);
            self.len = poll_io(|| s.read(buf))?;
            if self.len == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
    }

    /// Reads one SMTP reply (all continuation lines) and returns its code;
    /// `last` holds the final line.
    fn reply(&mut self, last: &mut Vec<u8>) -> io::Result<u16> {
        loop {
            self.line(last)?;
            let code = last
                .get(..3)
                .and_then(|c| std::str::from_utf8(c).ok())
                .and_then(|c| c.parse().ok())
                .ok_or(io::Error::from(io::ErrorKind::InvalidData))?;
            if last.get(3) != Some(&b'-') {
                return Ok(code);
            }
        }
    }
}

/// Why a dialog stopped early.
enum Stop {
    Io(io::Error),
    Code {
        sent: &'static str,
        want: u16,
        got: String,
    },
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Stop {
        Stop::Io(e)
    }
}

impl Stop {
    fn describe(&self) -> String {
        match self {
            Stop::Io(e) => format!("i/o: {e}"),
            Stop::Code { sent, want, got } => format!("{sent}: want {want}, got {got:?}"),
        }
    }
}

/// Per-call context of a generator thread.
pub struct Ctx<'a> {
    pub addr: SocketAddr,
    pub pop3_addr: SocketAddr,
    pub filler: &'a Filler,
    /// The trace the SMTP arrivals index into.
    pub conns: &'a [ConnectionSpec],
    pub mailbox_count: u32,
    /// Run epoch for span timestamps.
    pub epoch: Instant,
    pub traced: bool,
}

fn expect(w: &mut Wire, sent: &'static str, want: u16, last: &mut Vec<u8>) -> Result<(), Stop> {
    let got = w.reply(last)?;
    if got == want {
        Ok(())
    } else {
        Err(Stop::Code {
            sent,
            want,
            got: String::from_utf8_lossy(last).into_owned(),
        })
    }
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// What a scripted SMTP command does, which fixes the reply the script
/// wants for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Hello,
    From,
    /// A `RCPT` naming a mailbox the server does not host.
    BogusRcpt,
    Rcpt,
    /// `DATA`; the connection's next mail follows it on the wire.
    Data,
    /// `RSET` ending a mail that has no valid recipient.
    DropMail,
    Rset,
    Noop,
    Quit,
}

impl Role {
    fn want(self) -> u16 {
        match self {
            Role::BogusRcpt => 550,
            Role::Data => 354,
            Role::Quit => 221,
            _ => 250,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Role::Hello => "EHLO",
            Role::From => "MAIL",
            Role::BogusRcpt => "bogus RCPT",
            Role::Rcpt => "RCPT",
            Role::Data => "DATA",
            Role::DropMail | Role::Rset => "RSET",
            Role::Noop => "NOOP",
            Role::Quit => "QUIT",
        }
    }
}

/// One command line of a replayed connection, without its CRLF.
pub struct Step {
    pub line: String,
    pub role: Role,
}

/// The client side of one trace connection: the command lines the replay
/// sends and the `smtp` layer timings parse. In every mail the guessed
/// (invalid) recipients come before the valid ones, so the master answers
/// them before the first valid one delegates the connection.
pub fn script(spec: &ConnectionSpec, mailbox_count: u32) -> Vec<Step> {
    let mut out = Vec::new();
    let mut push = |line: String, role: Role| out.push(Step { line, role });
    let hello = || "EHLO client.perfbench.example".to_owned();
    let from = || "MAIL FROM:<sender@perfbench.example>".to_owned();
    let rcpt = |mailbox: u32| format!("RCPT TO:<user{mailbox}@dept.example>");
    match &spec.kind {
        ConnectionKind::Mail(mails) => {
            push(hello(), Role::Hello);
            for m in mails {
                push(from(), Role::From);
                for k in 0..u32::from(m.invalid_rcpts) {
                    push(rcpt(mailbox_count + k), Role::BogusRcpt);
                }
                for r in &m.valid_rcpts {
                    push(rcpt(r.0), Role::Rcpt);
                }
                if m.valid_rcpts.is_empty() {
                    push("RSET".to_owned(), Role::DropMail);
                } else {
                    push("DATA".to_owned(), Role::Data);
                }
            }
        }
        ConnectionKind::Bounce { rcpt_attempts } => {
            push(hello(), Role::Hello);
            push(from(), Role::From);
            for k in 0..u32::from(*rcpt_attempts) {
                push(rcpt(mailbox_count + k), Role::BogusRcpt);
            }
        }
        ConnectionKind::Unfinished { handshake_commands } => {
            for c in 0..*handshake_commands {
                match c {
                    0 => push(hello(), Role::Hello),
                    1 => push(from(), Role::From),
                    c if c % 2 == 0 => push("RSET".to_owned(), Role::Rset),
                    _ => push("NOOP".to_owned(), Role::Noop),
                }
            }
        }
    }
    push("QUIT".to_owned(), Role::Quit);
    out
}

/// Replays trace connection `conn` as one SMTP connection whose clock
/// starts at `start` (its due time in the open loop, the connect call in
/// the closed loop). `next_seq` numbers the mails sent, across threads.
pub fn smtp_conn(
    ctx: &Ctx<'_>,
    conn_id: u64,
    conn: usize,
    start: Instant,
    next_seq: &dyn Fn() -> u64,
    t: &mut Tally,
) {
    let spec = &ctx.conns[conn];
    let units = match &spec.kind {
        ConnectionKind::Mail(m) => m.len().max(1) as u64,
        _ => 1,
    };
    t.attempted += units;
    let mut acked_here = 0u64;
    let mut marks = [start; 3];
    let result = dialog(ctx, conn, next_seq, t, &mut acked_here, &mut marks);
    let end = Instant::now();
    match result {
        Ok(()) => {
            let [greet, trust, quit] = marks;
            t.conn_ns.push(ns(start, end));
            t.phase_ns[0] += ns(start, greet);
            t.phase_ns[1] += ns(greet, trust);
            t.phase_ns[2] += ns(trust, quit);
            t.phase_ns[3] += ns(quit, end);
            if ctx.traced {
                let at = |i: Instant| ns(ctx.epoch, i);
                for (name, a, b) in [
                    ("conn", start, end),
                    ("greet", start, greet),
                    ("pretrust", greet, trust),
                    ("data", trust, quit),
                    ("quit", quit, end),
                ] {
                    t.spans.push(Span {
                        conn: conn_id,
                        name,
                        start_ns: at(a),
                        end_ns: at(b),
                    });
                }
            }
        }
        Err(stop) => {
            t.failed += match &spec.kind {
                ConnectionKind::Mail(_) => units.saturating_sub(acked_here),
                _ => 1,
            };
            t.fail(stop.describe());
        }
    }
}

/// Sends [`script`] and checks each reply. `marks` receives the end of
/// the greeting, the end of the pre-trust phase (the first accepted
/// `RCPT`, or the last command before `QUIT` on a connection that never
/// earns trust) and the moment `QUIT` is sent.
fn dialog(
    ctx: &Ctx<'_>,
    conn: usize,
    next_seq: &dyn Fn() -> u64,
    t: &mut Tally,
    acked_here: &mut u64,
    marks: &mut [Instant; 3],
) -> Result<(), Stop> {
    let spec = &ctx.conns[conn];
    let mut w = Wire::connect(ctx.addr)?;
    let mut last = Vec::with_capacity(128);
    expect(&mut w, "connect", 220, &mut last)?;
    marks[0] = Instant::now();
    marks[1] = marks[0];
    let mut trusted = false;
    let mut t_mail = marks[0];
    let mut mail = 0usize;
    let mut line = Vec::with_capacity(64);
    for step in script(spec, ctx.mailbox_count) {
        let now = Instant::now();
        match step.role {
            Role::From => t_mail = now,
            Role::BogusRcpt => t.bogus_rcpts += 1,
            Role::Quit => {
                if !trusted {
                    marks[1] = now;
                }
                marks[2] = now;
            }
            _ => {}
        }
        line.clear();
        line.extend_from_slice(step.line.as_bytes());
        line.extend_from_slice(b"\r\n");
        w.send(&line)?;
        expect(&mut w, step.role.name(), step.role.want(), &mut last)?;
        match step.role {
            Role::BogusRcpt => t.bogus_550 += 1,
            Role::Rcpt if !trusted => {
                trusted = true;
                marks[1] = Instant::now();
            }
            Role::DropMail => {
                mail += 1;
                *acked_here += 1;
            }
            Role::Data => {
                let m = &spec.mails()[mail];
                let seq = next_seq();
                let (header, span, tail) = ctx.filler.pieces(seq, m.size);
                w.send(&header)?;
                w.send(span)?;
                w.send(tail)?;
                w.send(b".\r\n")?;
                expect(&mut w, "end of DATA", 250, &mut last)?;
                let id = queued_id(&last).ok_or_else(|| Stop::Code {
                    sent: "end of DATA",
                    want: 250,
                    got: String::from_utf8_lossy(&last).into_owned(),
                })?;
                t.mail_ns.push(ns(t_mail, Instant::now()));
                let body_len = (header.len() + span.len() + tail.len()) as u64;
                t.delivered_bytes += body_len * m.valid_rcpts.len() as u64;
                t.acked.push(Acked {
                    id,
                    seq,
                    conn: conn as u32,
                    mail: mail as u32,
                });
                mail += 1;
                *acked_here += 1;
            }
            _ => {}
        }
    }
    Ok(())
}

/// The id in `250 2.0.0 Ok: queued as 000000002A` (hex).
fn queued_id(line: &[u8]) -> Option<u64> {
    let s = std::str::from_utf8(line).ok()?;
    let hex = s.rsplit_once("queued as ")?.1.trim();
    u64::from_str_radix(hex, 16).ok()
}

/// Replays one POP3 session on mailbox `user<mailbox>`: `STAT`, and when
/// the mailbox holds mail, `RETR 1` (checked against the body rebuilt
/// from its header) and `DELE 1`, then `QUIT`.
pub fn pop3_session(ctx: &Ctx<'_>, mailbox: u32, start: Instant, t: &mut Tally) {
    t.attempted += 1;
    t.pop3_sessions += 1;
    match pop3_dialog(ctx, mailbox, t) {
        Ok(()) => t.pop3_ns.push(ns(start, Instant::now())),
        Err(stop) => {
            t.failed += 1;
            t.fail(format!("pop3 {}", stop.describe()));
        }
    }
}

fn pop3_ok(w: &mut Wire, sent: &'static str, last: &mut Vec<u8>) -> Result<(), Stop> {
    w.line(last)?;
    if last.starts_with(b"+OK") {
        Ok(())
    } else {
        Err(Stop::Code {
            sent,
            want: 0,
            got: String::from_utf8_lossy(last).into_owned(),
        })
    }
}

fn pop3_dialog(ctx: &Ctx<'_>, mailbox: u32, t: &mut Tally) -> Result<(), Stop> {
    let mut w = Wire::connect(ctx.pop3_addr)?;
    let mut last = Vec::with_capacity(128);
    pop3_ok(&mut w, "connect", &mut last)?;
    let mut cmd = Vec::with_capacity(64);
    write!(cmd, "USER user{mailbox}\r\n")?;
    w.send(&cmd)?;
    pop3_ok(&mut w, "USER", &mut last)?;
    w.send(b"PASS x\r\n")?;
    pop3_ok(&mut w, "PASS", &mut last)?;
    w.send(b"STAT\r\n")?;
    pop3_ok(&mut w, "STAT", &mut last)?;
    let count: u64 = std::str::from_utf8(&last)
        .ok()
        .and_then(|s| s.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
        .ok_or(io::Error::from(io::ErrorKind::InvalidData))?;
    let mut retrieved = None;
    if count > 0 {
        w.send(b"RETR 1\r\n")?;
        pop3_ok(&mut w, "RETR", &mut last)?;
        let mut msg = Vec::new();
        loop {
            w.line(&mut last)?;
            if last == b"." {
                break;
            }
            let l = last.strip_prefix(b".").unwrap_or(&last);
            msg.extend_from_slice(l);
            msg.extend_from_slice(b"\r\n");
        }
        let Some((seq, size)) = parse_header(&msg) else {
            return Err(Stop::Code {
                sent: "RETR",
                want: 0,
                got: "message without a perfbench header".to_owned(),
            });
        };
        let want = ctx.filler.expected(seq, size);
        if msg != want {
            // The message as sent, followed by one more empty line: the
            // server's RETR framing appends a CRLF to a body that already
            // ends in one. Counted and reported; anything else is corrupt.
            if msg.len() == want.len() + 2 && msg.starts_with(&want) && msg.ends_with(b"\r\n") {
                t.retr_extra_crlf += 1;
            } else {
                return Err(Stop::Code {
                    sent: "RETR",
                    want: 0,
                    got: format!("body of mail {seq} differs from what was sent"),
                });
            }
        }
        w.send(b"DELE 1\r\n")?;
        pop3_ok(&mut w, "DELE", &mut last)?;
        retrieved = Some(seq);
    }
    w.send(b"QUIT\r\n")?;
    pop3_ok(&mut w, "QUIT", &mut last)?;
    if let Some(seq) = retrieved {
        t.retr_deleted.push((mailbox, seq));
    }
    Ok(())
}
