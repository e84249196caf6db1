//! Trace-replay benchmark of the live fork-after-trust server.
//!
//! Generates one workload from `crates/trace` with the given seed,
//! replays it over loopback TCP against an unmodified `LiveServer` (the
//! `LiveConfig::localhost` defaults plus the workload's mailboxes and
//! blacklist) and a `Pop3Server` on the same store, checks every reply
//! and the store's final contents, and prints the metrics by name. The
//! last line of standard output is one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload univ|sinkhole|bounce_storm --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs the same
//! pass untraced and then traced on a fresh server, prints the per-layer
//! metrics of the traced pass, and reports how far tracing moved the
//! end-to-end numbers. See `perfbench/README.md`.

mod client;
mod layers;
mod procfs;
mod workload;

use client::{Ctx, Filler, Tally};
use procfs::{Host, ThreadStat};
use spamaware_core::{LiveConfig, LiveServer, Pop3Server};
use spamaware_dnsbl::{BlacklistDb, DnsblServer, LatencyModel};
use spamaware_metrics::Registry;
use spamaware_mfs::MailId;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use workload::{mailbox_name, Arrival, Kind, Workload};

const USAGE: &str =
    "usage: perfbench --workload univ|sinkhole|bounce_storm --seed N --seconds S --trace 0|1";

/// Set-ups per run; `setup_s` is their median. Starting the server over
/// `sinkhole`'s 5,000-mailbox store varied by ±20% between set-ups of one
/// run, so one run takes at least nine. Cheaper set-ups are repeated
/// while all of them together took less than [`SETUP_BUDGET`], up to
/// [`MAX_SETUPS`]: a 40 ms set-up varied by ±25% between runs at nine.
const SETUPS: usize = 9;
const MAX_SETUPS: usize = 41;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Untimed load before the measured window: fills buffer pools, the
/// store's mailboxes and the page cache.
const WARMUP: Duration = Duration::from_secs(1);
/// Client connections open at once (one per generator thread), capped at
/// the host's cores.
const MAX_GENERATORS: usize = 2;
/// POP3 sessions replayed after the window to read back and verify what
/// the run stored; on the closed loops they also give the `pop3` layer
/// its numbers.
const READBACK_SESSIONS: u32 = 200;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or("unknown workload")?),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A server pair over one store plus the workload it serves.
struct Bench {
    w: Workload,
    server: LiveServer,
    pop3: Pop3Server,
    dir: PathBuf,
    /// The mails pre-seeded over SMTP before the timed set-ups.
    seeded: Tally,
    /// Resident memory before the first server started: the benchmark's
    /// own share (body filler, one generated workload), left out of
    /// `peak_rss_mb`.
    base_rss_kib: u64,
    /// How many set-ups `setup_s` is the median of.
    setups: usize,
}

/// Send sequence numbers of pre-seeded mails start here, far above any
/// the clients reach in the window.
const SEED_SEQ: u64 = 1 << 48;

/// Pre-seeds the store behind `server` with the trace's own mails: it
/// replays the trace's mail connections over SMTP, in trace order,
/// skipping those that add no new recipient, until every mailbox the
/// trace delivers to holds mail. No mailbox file is then created inside
/// the measured window, and what POP3 reads is mail of the workload's
/// sizes that went through the server. Returns what was acknowledged.
fn preseed(w: &Workload, server: &LiveServer, pop3: &Pop3Server, filler: &Filler) -> Tally {
    let mut want = vec![false; w.mailbox_count as usize];
    for m in w.conns.iter().flat_map(|c| c.mails()) {
        for r in &m.valid_rcpts {
            want[r.0 as usize] = true;
        }
    }
    let mut missing = want.iter().filter(|&&x| x).count();
    let ctx = Ctx {
        addr: server.local_addr(),
        pop3_addr: pop3.local_addr(),
        filler,
        conns: &w.conns,
        mailbox_count: w.mailbox_count,
        epoch: Instant::now(),
        traced: false,
    };
    let seq = AtomicU64::new(SEED_SEQ);
    let next_seq = || seq.fetch_add(1, Ordering::Relaxed);
    let mut seeded = Tally::default();
    for (c, spec) in w.conns.iter().enumerate() {
        if missing == 0 {
            break;
        }
        let rcpts = || spec.mails().iter().flat_map(|m| &m.valid_rcpts);
        if !rcpts().any(|r| want[r.0 as usize]) {
            continue;
        }
        client::smtp_conn(&ctx, c as u64, c, Instant::now(), &next_seq, &mut seeded);
        for r in rcpts() {
            if std::mem::take(&mut want[r.0 as usize]) {
                missing -= 1;
            }
        }
    }
    seeded
}

/// Starts both servers for `w` over the store at `dir` (the SMTP
/// server's start runs the store's fsck and replay).
fn start(w: &Workload, dir: &Path) -> (LiveServer, Pop3Server) {
    let mut cfg = LiveConfig::localhost(dir, w.mailboxes());
    let db: BlacklistDb = w.blacklist.iter().copied().collect();
    cfg.dnsbl = Some(DnsblServer::new(
        "bl.perfbench",
        db,
        LatencyModel::new(40.0, 0.8, 0.05),
    ));
    let server = LiveServer::start(cfg).expect("start live server");
    let pop3 = Pop3Server::start(
        "127.0.0.1:0".parse().expect("literal address"),
        server.store(),
        w.mailboxes(),
    )
    .expect("start pop3 server");
    (server, pop3)
}

fn teardown(b: Bench) {
    b.pop3.shutdown();
    b.server.shutdown();
    let _ = std::fs::remove_dir_all(&b.dir);
    sync_fs(b.dir.parent().unwrap_or(&b.dir));
}

/// Flushes the filesystem holding `path` (`sync -f`) and waits for it.
/// Called outside every measured interval: after deleting a store, so
/// its journal commit and block discards do not land in the next run's
/// window, and before and after pre-seeding, so neither earlier
/// writeback (a build's, say) nor the seeded files' does.
fn sync_fs(path: &Path) {
    let _ = std::process::Command::new("sync")
        .arg("-f")
        .arg(path)
        .status();
}

/// Pre-seeds a fresh store (untimed, returned as `preseed_s`), then sets
/// up [`SETUPS`] or more times over it, each set-up generating the
/// workload and starting both servers, and keeps the last set-up.
/// Returns the bench with the median set-up time in seconds.
fn timed_setup(kind: Kind, seed: u64, dir: &Path, filler: &Filler) -> (Bench, f64, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::create_dir_all(dir);
    sync_fs(dir);
    let t = Instant::now();
    let w = Workload::generate(kind, seed);
    let base_rss_kib = procfs::rss_kib();
    let (server, pop3) = start(&w, dir);
    let seeded = preseed(&w, &server, &pop3, filler);
    pop3.shutdown();
    server.shutdown();
    drop(w);
    sync_fs(dir);
    let preseed_s = t.elapsed().as_secs_f64();
    let mut times = Vec::with_capacity(MAX_SETUPS);
    let mut last = None;
    while times.len() < SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        if let Some((_, server, pop3)) = last.take() {
            Pop3Server::shutdown(pop3);
            LiveServer::shutdown(server);
        }
        let t = Instant::now();
        let w = Workload::generate(kind, seed);
        let (server, pop3) = start(&w, dir);
        times.push(t.elapsed().as_secs_f64());
        last = Some((w, server, pop3));
    }
    times.sort_by(f64::total_cmp);
    let (w, server, pop3) = last.expect("at least one set-up");
    let bench = Bench {
        w,
        server,
        pop3,
        dir: dir.to_path_buf(),
        seeded,
        base_rss_kib,
        setups: times.len(),
    };
    (bench, times[times.len() / 2], preseed_s)
}

/// Span histograms and counters read from the server's registry.
const SPANS: &[&str] = &[
    "master.pretrust_ns",
    "worker.queue_wait_ns",
    "worker.data_ns",
    "worker.storage_ns",
    "mfs.write_ns",
    "mfs.read_ns",
    "mfs.delete_ns",
    "mfs.shard_contention_ns",
];
const COUNTERS: &[&str] = &[
    "master.wakeups",
    "master.io_events",
    "live.accepted",
    "live.delegated",
    "live.shed_connections",
    "live.shed_per_ip",
    "live.shed_draining",
    "live.shed_worker_busy",
    "live.pool_reuse",
    "live.pool_miss",
    "mfs.shared_bytes",
    "mfs.private_bytes",
    "dnsbl.agent_dropped",
    "smtp.verb.helo",
    "smtp.verb.ehlo",
    "smtp.verb.mail",
    "smtp.verb.rcpt",
    "smtp.verb.data",
    "smtp.verb.rset",
    "smtp.verb.noop",
    "smtp.verb.vrfy",
    "smtp.verb.quit",
    "smtp.verb.unknown",
];

/// `(count, sum)` of each span and `(value, 0)` of each counter.
type Reg = HashMap<&'static str, (u64, u64)>;

fn read_registry(r: &Registry) -> Reg {
    let mut out = Reg::new();
    for &name in SPANS {
        let h = r.histogram(name);
        out.insert(name, (h.count(), h.sum()));
    }
    for &name in COUNTERS {
        out.insert(name, (r.counter_value(name).unwrap_or(0), 0));
    }
    out
}

/// Everything read at one edge of a measured interval.
struct Snap {
    at: Instant,
    proc_cpu_ns: u64,
    steal_ns: u64,
    threads: HashMap<u64, (String, ThreadStat)>,
    reg: Reg,
}

fn snap(r: &Registry) -> Snap {
    Snap {
        at: Instant::now(),
        proc_cpu_ns: procfs::process_cpu_ns(),
        steal_ns: procfs::steal_ns(),
        threads: procfs::threads(),
        reg: read_registry(r),
    }
}

/// Per-interval differences between two snapshots.
struct Delta {
    secs: f64,
    proc_cpu_ns: u64,
    steal_ns: u64,
    /// Thread-name group → summed counters of threads alive at both ends.
    groups: BTreeMap<&'static str, ThreadStat>,
    /// CPU of everything not in a live non-POP3 thread: the POP3 acceptor
    /// and its short-lived session threads.
    pop3_cpu_ns: u64,
    reg: HashMap<&'static str, (u64, u64)>,
}

fn group_of(name: &str) -> &'static str {
    match name {
        "master" => "master",
        "dnsbl-agent" => "dnsbl",
        n if n.starts_with("smtpd-") => "live",
        n if n.starts_with("gen-") => "gen",
        n if n.starts_with("pop3") => "pop3",
        "admin" => "admin",
        _ => "bench",
    }
}

fn delta(a: &Snap, b: &Snap) -> Delta {
    let mut groups: BTreeMap<&'static str, ThreadStat> = BTreeMap::new();
    let mut non_pop3 = 0u64;
    for (tid, (name, after)) in &b.threads {
        let Some((_, before)) = a.threads.get(tid) else {
            continue;
        };
        let d = after.minus(*before);
        let g = group_of(name);
        let e = groups.entry(g).or_default();
        *e = e.plus(d);
        if g != "pop3" {
            non_pop3 += d.cpu_ns;
        }
    }
    let proc_cpu_ns = b.proc_cpu_ns.saturating_sub(a.proc_cpu_ns);
    let reg = b
        .reg
        .iter()
        .map(|(k, &(c, s))| {
            let (c0, s0) = a.reg.get(k).copied().unwrap_or((0, 0));
            (*k, (c.saturating_sub(c0), s.saturating_sub(s0)))
        })
        .collect();
    Delta {
        secs: b.at.saturating_duration_since(a.at).as_secs_f64(),
        proc_cpu_ns,
        steal_ns: b.steal_ns.saturating_sub(a.steal_ns),
        groups,
        pop3_cpu_ns: proc_cpu_ns.saturating_sub(non_pop3),
        reg,
    }
}

impl Delta {
    fn group(&self, g: &str) -> ThreadStat {
        self.groups.get(g).copied().unwrap_or_default()
    }
    fn count(&self, name: &str) -> u64 {
        self.reg.get(name).map_or(0, |v| v.0)
    }
    fn sum(&self, name: &str) -> u64 {
        self.reg.get(name).map_or(0, |v| v.1)
    }
    /// Mean of a span over the interval, µs.
    fn mean_us(&self, name: &str) -> f64 {
        self.sum(name) as f64 / self.count(name).max(1) as f64 / 1e3
    }
}

/// Length of one measurement slice: the unit in which a burst of
/// hypervisor steal is cut out of the window. Every end-to-end metric
/// except the set-up time and peak memory pools the slices kept.
const SLICE: Duration = Duration::from_secs(2);

/// The share of the machine's CPU the hypervisor may steal in a slice
/// before the slice is left out of the end-to-end metrics. Steal is
/// counted in 10 ms ticks: a quiet 2 s slice on a 2-vCPU host showed
/// 0–20 ms of its 4 CPU-seconds, a run with 8% steal 320 ms a slice.
const STEAL_MAX: f64 = 0.02;

/// What one measured pass produced.
struct Pass {
    /// The warm-up's observations (checked, not measured).
    warm: Tally,
    /// The window's observations per slice, by arrival time.
    slices: Vec<Tally>,
    /// The whole window (filled from `slices` once they are reported).
    win: Tally,
    /// Whole-window and per-slice resource and registry deltas.
    d: Delta,
    slice_d: Vec<Delta>,
    /// Generator threads' CPU over the window.
    gen: ThreadStat,
    /// Peak resident memory from the start of the warm-up until the
    /// workload's [`Workload::rss_arrivals`]-th arrival completed.
    peak_rss_kib: u64,
}

/// Replays warm-up plus a `seconds` window with [`MAX_GENERATORS`]
/// client threads, snapshotting the process and the server's registry
/// at every slice edge. Each arrival counts in the slice in which it
/// completed, so an open loop that falls behind its schedule shows as
/// fewer completions per slice; the last slice runs until the last
/// arrival has finished.
fn pass(b: &Bench, filler: &Filler, epoch: Instant, seconds: u64, traced: bool) -> Pass {
    let gens = host_cpus().clamp(1, MAX_GENERATORS);
    let ctx = Ctx {
        addr: b.server.local_addr(),
        pop3_addr: b.pop3.local_addr(),
        filler,
        conns: &b.w.conns,
        mailbox_count: b.w.mailbox_count,
        epoch,
        traced,
    };
    let next = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let rss_at = AtomicU64::new(0);
    let seq = AtomicU64::new(1);
    let conn_ids = AtomicU64::new(0);
    let busy: Mutex<HashSet<u32>> = Mutex::new(HashSet::new());
    let done = Barrier::new(gens + 1);
    let release = Barrier::new(gens + 1);
    let window = Duration::from_secs(seconds);
    let n_slices = (window.as_secs_f64() / SLICE.as_secs_f64()).ceil().max(1.0) as usize;
    let rate = workload::UNIV_RATE;
    let warm_n = (WARMUP.as_secs_f64() * rate) as u64;
    let total_n = warm_n + (window.as_secs_f64() * rate) as u64;
    let registry = b.server.metrics();
    procfs::reset_peak_rss();
    let base = Instant::now();
    let t0 = base + WARMUP;
    let slice_of = |at: Instant| -> Option<usize> {
        let since = at.checked_duration_since(t0)?;
        Some(((since.as_secs_f64() / SLICE.as_secs_f64()) as usize).min(n_slices - 1))
    };

    let gen = || -> (Tally, Vec<Tally>) {
        let mut warm = Tally::default();
        let mut slices: Vec<Tally> = (0..n_slices).map(|_| Tally::default()).collect();
        let next_seq = || seq.fetch_add(1, Ordering::Relaxed);
        let mut prev_end: Option<Instant> = None;
        let mut cur = Tally::default();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let start = if b.w.open_loop() {
                if i >= total_n {
                    break;
                }
                let due = base + Duration::from_secs_f64(i as f64 / rate);
                while Instant::now() < due {
                    std::thread::yield_now();
                }
                due
            } else {
                let now = Instant::now();
                if now >= t0 + window {
                    break;
                }
                now
            };
            let late_from = if b.w.open_loop() {
                Some(start)
            } else {
                prev_end
            };
            if let Some(from) = late_from {
                cur.late_ns
                    .push(Instant::now().saturating_duration_since(from).as_nanos() as u64);
            }
            match b.w.arrival(i) {
                Arrival::Smtp(c) => {
                    let id = conn_ids.fetch_add(1, Ordering::Relaxed);
                    client::smtp_conn(&ctx, id, c, start, &next_seq, &mut cur);
                }
                Arrival::Pop3(first) => {
                    let mailbox = claim(&busy, first, b.w.mailbox_count);
                    client::pop3_session(&ctx, mailbox, start, &mut cur);
                    busy.lock().expect("mailbox set").remove(&mailbox);
                }
            }
            let end = Instant::now();
            if completed.fetch_add(1, Ordering::Relaxed) + 1 == b.w.rss_arrivals() {
                rss_at.store(procfs::peak_rss_kib(), Ordering::Relaxed);
            }
            match slice_of(end) {
                Some(k) => slices[k].merge(std::mem::take(&mut cur)),
                None => warm.merge(std::mem::take(&mut cur)),
            }
            prev_end = Some(end);
        }
        done.wait();
        release.wait();
        (warm, slices)
    };

    let (tallies, snaps, peak_rss_kib) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..gens)
            .map(|k| {
                std::thread::Builder::new()
                    .name(format!("gen-{k}"))
                    .spawn_scoped(s, gen)
                    .expect("spawn generator")
            })
            .collect();
        // Snapshots at t0 and each inner slice edge; the last one after
        // every generator has finished its final arrival.
        let mut snaps = Vec::with_capacity(n_slices + 1);
        for k in 0..n_slices {
            let edge = t0 + SLICE * k as u32;
            let now = Instant::now();
            if edge > now {
                std::thread::sleep(edge - now);
            }
            snaps.push(snap(registry));
        }
        done.wait();
        snaps.push(snap(registry));
        // A run too short to reach the mark keeps the peak at its end.
        let peak_rss_kib = match rss_at.load(Ordering::Relaxed) {
            0 => procfs::peak_rss_kib(),
            at => at,
        };
        release.wait();
        let tallies: Vec<(Tally, Vec<Tally>)> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect();
        (tallies, snaps, peak_rss_kib)
    });
    let mut warm = Tally::default();
    let mut slices: Vec<Tally> = (0..n_slices).map(|_| Tally::default()).collect();
    for (w, per) in tallies {
        warm.merge(w);
        for (into, from) in slices.iter_mut().zip(per) {
            into.merge(from);
        }
    }
    let d = delta(&snaps[0], &snaps[n_slices]);
    let slice_d = snaps.windows(2).map(|w| delta(&w[0], &w[1])).collect();
    let gen = d.group("gen");
    Pass {
        warm,
        slices,
        win: Tally::default(),
        d,
        slice_d,
        gen,
        peak_rss_kib,
    }
}

/// Picks `first` or the next mailbox no other POP3 session holds, so two
/// concurrent sessions never retrieve and delete the same mail.
fn claim(busy: &Mutex<HashSet<u32>>, first: u32, count: u32) -> u32 {
    let mut set = busy.lock().expect("mailbox set");
    let mut m = first;
    while !set.insert(m) {
        m = (m + 1) % count;
    }
    m
}

/// POP3 read-back after the window, on the calling thread.
fn readback(b: &Bench, filler: &Filler, epoch: Instant) -> (Tally, Delta) {
    let ctx = Ctx {
        addr: b.server.local_addr(),
        pop3_addr: b.pop3.local_addr(),
        filler,
        conns: &b.w.conns,
        mailbox_count: b.w.mailbox_count,
        epoch,
        traced: false,
    };
    let registry = b.server.metrics();
    let mut t = Tally::default();
    let a = snap(registry);
    for i in 0..READBACK_SESSIONS {
        let mailbox = b.w.mailbox_for((1 << 40) + u64::from(i));
        client::pop3_session(&ctx, mailbox, Instant::now(), &mut t);
    }
    let z = snap(registry);
    (t, delta(&a, &z))
}

/// The store-level correctness check: every acknowledged mail is in each
/// accepted recipient's mailbox exactly once, unless it was retrieved
/// byte-identical and deleted over POP3, and no mailbox holds anything
/// else. A sample of stored bodies is compared byte for byte.
fn check_store(b: &Bench, filler: &Filler, parts: &[&Tally]) -> Vec<String> {
    let mut problems = Vec::new();
    let acked: Vec<&client::Acked> = parts.iter().flat_map(|t| &t.acked).collect();
    let retr: Vec<(u32, u64)> = parts
        .iter()
        .flat_map(|t| t.retr_deleted.iter().copied())
        .collect();
    let by_seq: HashMap<u64, u64> = acked.iter().map(|a| (a.seq, a.id)).collect();
    let deleted: HashSet<(u32, u64)> = retr
        .iter()
        .filter_map(|&(m, seq)| by_seq.get(&seq).map(|&id| (m, id)))
        .collect();
    if deleted.len() != retr.len() {
        problems.push("a retrieved mail was never acknowledged, or retrieved twice".to_owned());
    }
    let mail = |a: &client::Acked| &b.w.conns[a.conn as usize].mails()[a.mail as usize];
    let mut want: HashMap<u32, Vec<u64>> = HashMap::new();
    for a in &acked {
        for r in &mail(a).valid_rcpts {
            if !deleted.contains(&(r.0, a.id)) {
                want.entry(r.0).or_default().push(a.id);
            }
        }
    }
    let store = b.server.store();
    for m in 0..b.w.mailbox_count {
        let mut have: Vec<u64> = store
            .list_mailbox(&mailbox_name(m))
            .into_iter()
            .map(|(id, _)| id.0)
            .collect();
        have.sort_unstable();
        let mut expect = want.remove(&m).unwrap_or_default();
        expect.sort_unstable();
        if have != expect {
            problems.push(format!(
                "mailbox user{m}: holds {} mails, {} expected",
                have.len(),
                expect.len()
            ));
        }
    }
    let stride = (acked.len() / 500).max(1);
    for a in acked.iter().step_by(stride) {
        let m = mail(a);
        let Some(r) = m
            .valid_rcpts
            .iter()
            .map(|r| r.0)
            .find(|&r| !deleted.contains(&(r, a.id)))
        else {
            continue;
        };
        match store.read_mail(&mailbox_name(r), MailId(a.id)) {
            Ok(stored) if stored.body == filler.expected(a.seq, m.size) => {}
            Ok(_) => problems.push(format!("mail {} in user{r}: body differs", a.id)),
            Err(e) => problems.push(format!("mail {} in user{r}: {e}", a.id)),
        }
    }
    let bogus: u64 = parts.iter().map(|t| t.bogus_rcpts).sum();
    let bogus_550: u64 = parts.iter().map(|t| t.bogus_550).sum();
    if bogus_550 != bogus {
        problems.push(format!(
            "{bogus_550} of {bogus} RCPTs to missing mailboxes drew 550"
        ));
    }
    problems
}

/// Nearest-rank percentile of nanosecond samples, in ms.
fn pct_ms(v: &mut [u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1] as f64 / 1e6
}

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind a timing, printed beside it.
    samples: Option<usize>,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    fn print(&self, title: &str) {
        println!("{title}");
        for m in &self.0 {
            match m.samples {
                Some(n) => println!("  {:<34} {:>14.4} {:<6} (n={n})", m.name, m.value, m.unit),
                None => println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit),
            }
        }
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push('}');
        s
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The end-to-end metrics of one pass (those `BENCHMARK.json` lists,
/// in `e2e`) and the ones printed beside them (`extra`). Rates, latency
/// percentiles and CPU pool every slice of the window, less those in
/// which the hypervisor stole more than [`STEAL_MAX`] of the machine's
/// CPU (at most half of them). Afterwards `p.win` holds the whole window.
fn end_to_end(p: &mut Pass, b: &Bench, setup_s: f64) -> (Metrics, Metrics) {
    // A slice in which the hypervisor stole CPU from this machine
    // measures the host, not the server: steal comes in bursts on a
    // shared host. Such slices are left out, the most-stolen first, but
    // never more than half of them.
    let cpus = host_cpus() as f64;
    let stolen = |d: &Delta| d.steal_ns as f64 / (d.secs * 1e9 * cpus);
    let n = p.slices.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        stolen(&p.slice_d[a])
            .total_cmp(&stolen(&p.slice_d[b]))
            .then(a.cmp(&b))
    });
    let clean = order
        .iter()
        .filter(|&&k| stolen(&p.slice_d[k]) <= STEAL_MAX)
        .count();
    order.truncate(clean.max(n.div_ceil(2)));
    let (mut conn_ns, mut mail_ns, mut pop3_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut secs, mut cpu_ns) = (0.0, 0u64);
    for &k in &order {
        let (t, d) = (&p.slices[k], &p.slice_d[k]);
        conn_ns.extend_from_slice(&t.conn_ns);
        mail_ns.extend_from_slice(&t.mail_ns);
        pop3_ns.extend_from_slice(&t.pop3_ns);
        secs += d.secs;
        let bench_cpu = d.group("gen").cpu_ns + d.group("bench").cpu_ns;
        cpu_ns += d.proc_cpu_ns.saturating_sub(bench_cpu);
    }
    let (conns, mails, pop3) = (conn_ns.len(), mail_ns.len(), pop3_ns.len());
    let mut e2e = Metrics::default();
    let mut extra = Metrics::default();
    e2e.add("goodput_mps", mails as f64 / secs, "1/s", Some(mails));
    e2e.add("conn_rate_cps", conns as f64 / secs, "1/s", Some(conns));
    e2e.add("mail_p50_ms", pct_ms(&mut mail_ns, 50.0), "ms", Some(mails));
    e2e.add("mail_p90_ms", pct_ms(&mut mail_ns, 90.0), "ms", Some(mails));
    e2e.add("conn_p50_ms", pct_ms(&mut conn_ns, 50.0), "ms", Some(conns));
    e2e.add("conn_p90_ms", pct_ms(&mut conn_ns, 90.0), "ms", Some(conns));
    e2e.add(
        "server_cpu_us_per_conn",
        cpu_ns as f64 / 1e3 / (conns + pop3).max(1) as f64,
        "us",
        Some(conns + pop3),
    );
    e2e.add(
        "peak_rss_mb",
        p.peak_rss_kib.saturating_sub(b.base_rss_kib) as f64 / 1024.0,
        "MiB",
        None,
    );
    e2e.add("setup_s", setup_s, "s", Some(b.setups));
    // Printed only: on a shared 2-vCPU host the per-run p99 did not
    // repeat within a tenth, so the tail in `BENCHMARK.json` is p90.
    extra.add("mail_p99_ms", pct_ms(&mut mail_ns, 99.0), "ms", Some(mails));
    extra.add("conn_p99_ms", pct_ms(&mut conn_ns, 99.0), "ms", Some(conns));
    if pop3 > 0 {
        extra.add("pop3_p50_ms", pct_ms(&mut pop3_ns, 50.0), "ms", Some(pop3));
        extra.add("pop3_p99_ms", pct_ms(&mut pop3_ns, 99.0), "ms", Some(pop3));
    }
    extra.add("host_steal_share", stolen(&p.d), "ratio", None);
    extra.add("slices_kept", order.len() as f64, "count", Some(n));
    let mut win = Tally::default();
    for t in p.slices.drain(..) {
        win.merge(t);
    }
    extra.add(
        "fail_ratio",
        win.failed as f64 / win.attempted.max(1) as f64,
        "ratio",
        Some(win.attempted as usize),
    );
    p.win = win;
    (e2e, extra)
}

/// Per-layer metrics of the traced pass.
fn per_layer(
    registry: &Registry,
    p: &mut Pass,
    rb: &(Tally, Delta),
    lt: &layers::LayerTimes,
    untraced: &Metrics,
    traced: &Metrics,
) -> (Metrics, Metrics) {
    let mut m = Metrics::default();
    let mut extra = Metrics::default();
    let d = &p.d;
    let win = &mut p.win;
    let conns = win.conn_ns.len().max(1) as f64;
    let mails = win.mail_ns.len().max(1) as f64;

    let late = win.late_ns.len();
    m.add(
        "gen.late_p99_ms",
        pct_ms(&mut win.late_ns, 99.0),
        "ms",
        Some(late),
    );
    m.add(
        "gen.late_max_ms",
        pct_ms(&mut win.late_ns, 100.0),
        "ms",
        Some(late),
    );
    m.add("gen.cpu_s", p.gen.cpu_ns as f64 / 1e9, "s", None);

    let names = ["greet", "pretrust", "data", "quit"];
    for (i, n) in names.iter().enumerate() {
        m.add(
            &format!("phase.{n}_us"),
            win.phase_ns[i] as f64 / 1e3 / conns,
            "us",
            Some(win.conn_ns.len()),
        );
    }

    let master = d.group("master");
    m.add(
        "pretrust.cpu_us_per_conn",
        master.cpu_ns as f64 / 1e3 / conns,
        "us",
        None,
    );
    m.add(
        "pretrust.runq_wait_us_per_conn",
        master.runq_ns as f64 / 1e3 / conns,
        "us",
        None,
    );
    m.add(
        "pretrust.ctxsw_per_conn",
        master.ctxsw as f64 / conns,
        "count",
        None,
    );
    m.add(
        "pretrust.dialog_us_mean",
        d.mean_us("master.pretrust_ns"),
        "us",
        Some(d.count("master.pretrust_ns") as usize),
    );
    m.add(
        "pretrust.wakeups_per_conn",
        d.count("master.wakeups") as f64 / conns,
        "count",
        None,
    );
    m.add(
        "pretrust.io_events_per_conn",
        d.count("master.io_events") as f64 / conns,
        "count",
        None,
    );
    m.add(
        "pretrust.delegated_share",
        d.count("live.delegated") as f64 / d.count("live.accepted").max(1) as f64,
        "ratio",
        None,
    );
    let shed = d.count("live.shed_connections")
        + d.count("live.shed_per_ip")
        + d.count("live.shed_draining");
    m.add("pretrust.shed", shed as f64, "count", None);

    let live = d.group("live");
    m.add(
        "live.cpu_us_per_mail",
        live.cpu_ns as f64 / 1e3 / mails,
        "us",
        None,
    );
    m.add(
        "live.runq_wait_us_per_mail",
        live.runq_ns as f64 / 1e3 / mails,
        "us",
        None,
    );
    m.add(
        "live.ctxsw_per_mail",
        live.ctxsw as f64 / mails,
        "count",
        None,
    );
    m.add(
        "live.queue_wait_us_mean",
        d.mean_us("worker.queue_wait_ns"),
        "us",
        Some(d.count("worker.queue_wait_ns") as usize),
    );
    m.add(
        "live.data_us_mean",
        d.mean_us("worker.data_ns"),
        "us",
        Some(d.count("worker.data_ns") as usize),
    );
    m.add(
        "live.shed_worker_busy",
        d.count("live.shed_worker_busy") as f64,
        "count",
        None,
    );
    let (reuse, miss) = (d.count("live.pool_reuse"), d.count("live.pool_miss"));
    m.add(
        "live.pool_reuse_ratio",
        reuse as f64 / (reuse + miss).max(1) as f64,
        "ratio",
        None,
    );

    m.add(
        "mfs.write_us_mean",
        d.mean_us("mfs.write_ns"),
        "us",
        Some(d.count("mfs.write_ns") as usize),
    );
    m.add(
        "mfs.lock_wait_us_per_mail",
        d.sum("mfs.shard_contention_ns") as f64 / 1e3 / mails,
        "us",
        None,
    );
    let stored = d.count("mfs.shared_bytes") + d.count("mfs.private_bytes");
    m.add(
        "mfs.bytes_per_delivery",
        stored as f64 / win.delivered_bytes.max(1) as f64,
        "ratio",
        None,
    );
    // Reads and deletes come from the window's POP3 sessions where the
    // workload has them (univ) and from the read-back otherwise.
    let (rd, rt) = (&rb.1, &rb.0);
    let (reads, pop3_cpu, pop3_sessions) = if win.pop3_sessions > 0 {
        (d, d.pop3_cpu_ns, win.pop3_sessions)
    } else {
        (rd, rd.pop3_cpu_ns, rt.pop3_sessions)
    };
    m.add(
        "mfs.read_us_mean",
        reads.mean_us("mfs.read_ns"),
        "us",
        Some(reads.count("mfs.read_ns") as usize),
    );
    m.add(
        "mfs.delete_us_mean",
        reads.mean_us("mfs.delete_ns"),
        "us",
        Some(reads.count("mfs.delete_ns") as usize),
    );
    m.add(
        "mfs.deliver_us_p50",
        lt.mfs_deliver_us_p50,
        "us",
        Some(lt.mfs_deliveries),
    );

    m.add(
        "smtp.parse_ns_per_cmd",
        lt.smtp_parse_ns,
        "ns",
        Some(lt.smtp_cmds),
    );
    m.add(
        "smtp.session_ns_per_cmd",
        lt.smtp_session_ns,
        "ns",
        Some(lt.smtp_cmds),
    );
    m.add("smtp.linebuf_ns_per_kib", lt.linebuf_ns_per_kib, "ns", None);
    let verbs: u64 = COUNTERS
        .iter()
        .filter(|n| n.starts_with("smtp.verb."))
        .map(|n| d.count(n))
        .sum();
    m.add("smtp.cmds_per_conn", verbs as f64 / conns, "count", None);

    m.add(
        "dnsbl.agent_cpu_us_per_conn",
        d.group("dnsbl").cpu_ns as f64 / 1e3 / conns,
        "us",
        None,
    );
    m.add(
        "dnsbl.agent_dropped",
        d.count("dnsbl.agent_dropped") as f64,
        "count",
        None,
    );
    m.add(
        "dnsbl.lookup_ns_p50",
        lt.dnsbl_lookup_ns_p50,
        "ns",
        Some(lt.dnsbl_lookups),
    );
    m.add(
        "dnsbl.miss_ratio",
        lt.dnsbl_miss_ratio,
        "ratio",
        Some(lt.dnsbl_lookups),
    );

    m.add(
        "pop3.cpu_us_per_session",
        pop3_cpu as f64 / 1e3 / pop3_sessions.max(1) as f64,
        "us",
        Some(pop3_sessions as usize),
    );
    m.add("pop3.sessions", pop3_sessions as f64, "count", None);

    // Closure: the server's own stage time per connection against the
    // client's mean connection time.
    let stage_ns: u64 = [
        "master.pretrust_ns",
        "worker.queue_wait_ns",
        "worker.data_ns",
        "worker.storage_ns",
    ]
    .iter()
    .map(|n| d.sum(n))
    .sum();
    let conn_mean_ns = win.conn_ns.iter().sum::<u64>() as f64 / conns;
    m.add(
        "closure.unaccounted_share",
        1.0 - stage_ns as f64 / conns / conn_mean_ns.max(1.0),
        "ratio",
        None,
    );

    // Latencies, not rates: while the server keeps up, the open loop's
    // rates follow its schedule and would read about 0 here.
    for n in ["conn_p50_ms", "conn_p90_ms"] {
        let (u, t) = (untraced.get(n), traced.get(n));
        m.add(
            &format!("trace.overhead_{n}"),
            (t - u) / u.max(f64::MIN_POSITIVE),
            "ratio",
            None,
        );
    }

    // Printed only: these read the registry's log2 histograms, whose
    // bucket edges are a factor of two apart, so they cannot show a
    // change smaller than 2x and often read the same on every run.
    for (n, span) in [
        ("live.queue_wait_us_p99", "worker.queue_wait_ns"),
        ("mfs.write_us_p99", "mfs.write_ns"),
    ] {
        let h = registry.histogram(span);
        extra.add(
            n,
            h.quantile(99) as f64 / 1e3,
            "us",
            Some(h.count() as usize),
        );
    }
    (m, extra)
}

/// Minimal JSON string escaping for the stamp's free-text fields.
fn js(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One full pass on a fresh server: set-up, warm-up and window, POP3
/// read-back, then the correctness check on the store.
struct Run {
    seeded: Tally,
    pass: Pass,
    readback: (Tally, Delta),
    problems: Vec<String>,
    store_fs: String,
    mailboxes: u32,
    e2e: Metrics,
    extra: Metrics,
}

fn run(args: &Args, filler: &Filler, dir: &Path, epoch: Instant, traced: bool) -> (Run, Bench) {
    let (mut b, setup_s, preseed_s) = timed_setup(args.kind, args.seed, dir, filler);
    let mut pass = pass(&b, filler, epoch, args.seconds, traced);
    let readback = readback(&b, filler, epoch);
    let (e2e, mut extra) = end_to_end(&mut pass, &b, setup_s);
    extra.add("preseed_s", preseed_s, "s", Some(b.seeded.acked.len()));
    let problems = check_store(&b, filler, &[&b.seeded, &pass.warm, &pass.win, &readback.0]);
    let store_fs = procfs::fs_type(dir);
    (
        Run {
            seeded: std::mem::take(&mut b.seeded),
            pass,
            readback,
            problems,
            store_fs,
            mailboxes: b.w.mailbox_count,
            e2e,
            extra,
        },
        b,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let host = Host::probe(here.parent().unwrap_or(here));
    let filler = Filler::new();
    let dir = here
        .join(".store")
        .join(format!("{}-{}", args.kind.name(), std::process::id()));
    let epoch = Instant::now();

    let (first, b) = run(&args, &filler, &dir, epoch, false);
    teardown(b);
    // The traced pass and its per-layer metrics.
    let traced = args.trace.then(|| {
        let (mut traced, b) = run(&args, &filler, &dir, epoch, true);
        let shards = LiveConfig::localhost(&dir, Vec::new()).store_shards;
        let lt = layers::measure(&b.w, &filler, &dir.with_extension("layers"), shards);
        let layer = per_layer(
            b.server.metrics(),
            &mut traced.pass,
            &traced.readback,
            &lt,
            &first.e2e,
            &traced.e2e,
        );
        teardown(b);
        (traced, layer)
    });
    let _ = std::fs::remove_dir(here.join(".store"));

    let mut parts: Vec<&Tally> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    for r in std::iter::once(&first).chain(traced.as_ref().map(|(r, _)| r)) {
        parts.extend([&r.seeded, &r.pass.warm, &r.pass.win, &r.readback.0]);
        problems.extend(r.problems.iter().cloned());
    }
    let attempted: u64 = parts.iter().map(|t| t.attempted).sum();
    let failed: u64 = parts.iter().map(|t| t.failed).sum();
    let extra_crlf: u64 = parts.iter().map(|t| t.retr_extra_crlf).sum();
    if let Some(e) = parts.iter().find_map(|t| t.first_error.as_deref()) {
        problems.push(format!("first failed operation: {e}"));
    }
    let correct = failed == 0 && problems.is_empty();

    let cfg = LiveConfig::localhost(&dir, Vec::new());
    let mut stamp = String::new();
    let _ = write!(
        stamp,
        "{{\"host_key\": {}, \"nproc\": {}, \"kernel\": {}, \"cpu\": {}, \"rustc\": {}, \
         \"commit\": {}, \"store_fs\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"generators\": {}, \"univ_rate\": {}, \"univ_pop3_every\": {}, \
         \"server\": {{\"workers\": {}, \"worker_queue\": {}, \"store_shards\": {}, \
         \"max_connections\": {}, \"max_pretrust_per_ip\": {}, \"mailboxes\": {}, \
         \"dnsbl\": \"in-process\"}}}}",
        js(&host.key()),
        host.nproc,
        js(&host.kernel),
        js(&host.cpu),
        js(&host.rustc),
        js(&host.commit),
        js(&first.store_fs),
        js(args.kind.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc.clamp(1, MAX_GENERATORS),
        workload::UNIV_RATE,
        workload::UNIV_POP3_EVERY,
        cfg.workers,
        cfg.worker_queue,
        cfg.store_shards,
        cfg.max_connections,
        cfg.max_pretrust_per_ip,
        first.mailboxes,
    );

    println!(
        "perfbench {} seed {} ({} s window)",
        args.kind.name(),
        args.seed,
        args.seconds
    );
    println!("stamp {stamp}");
    first.e2e.print("end-to-end (untraced):");
    first.extra.print("also:");
    if let Some((traced, (layer, layer_extra))) = &traced {
        traced.e2e.print("end-to-end (traced pass):");
        layer.print("per-layer (traced pass):");
        layer_extra.print("also:");
    }
    if extra_crlf > 0 {
        println!(
            "known defect: {extra_crlf} POP3 RETR answers carried one extra CRLF after a \
             message that already ends in CRLF (RETR framing in crates/core/src/pop3.rs)"
        );
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "correctness: {} ({attempted} operations, {failed} failed)",
        if correct { "ok" } else { "FAILED" }
    );

    let metrics = match &traced {
        Some((_, (layer, _))) => layer.json(),
        None => first.e2e.json(),
    };
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    let out = here.join("out").join(host.key());
    let stem = format!(
        "{}-seed{}-trace{}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    if std::fs::create_dir_all(&out).is_ok() {
        let record = format!(
            "{{\"stamp\": {stamp}, \"end_to_end\": {}, \"end_to_end_extra\": {}, \"result\": {result}}}\n",
            first.e2e.json(),
            first.extra.json()
        );
        let _ = std::fs::write(out.join(format!("{stem}.json")), record);
        if let Some((traced, _)) = &traced {
            let _ = std::fs::write(
                out.join(format!("{stem}.spans.jsonl")),
                spans_jsonl(&traced.pass),
            );
        }
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

/// The traced pass's client spans, one JSON object a line: each phase
/// names its connection's root `conn` span as its parent.
fn spans_jsonl(p: &Pass) -> String {
    let mut s = String::new();
    for sp in p.warm.spans.iter().chain(&p.win.spans) {
        let parent = if sp.name == "conn" {
            "null"
        } else {
            "\"conn\""
        };
        let _ = writeln!(
            s,
            "{{\"conn\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            sp.conn, sp.name, sp.start_ns, sp.end_ns
        );
    }
    s
}
