//! In-process timings of single layers, run by the traced pass on the
//! workload's own inputs: the benchmark calls each layer's public
//! functions and times the calls itself.

use crate::client::{script, Filler, Role, Step};
use crate::workload::{mailbox_name, Workload};
use spamaware_core::{Command, LineBuffer, MailAddr, ServerSession, SessionConfig};
use spamaware_dnsbl::{BlacklistDb, CacheScheme, CachingResolver, DnsblServer, LatencyModel};
use spamaware_mfs::{DataRef, MailId, RealDir, ShardedStore};
use spamaware_sim::Nanos;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Connections of the trace each timing walks.
const SAMPLE_CONNS: usize = 2_000;

pub struct LayerTimes {
    /// Median `ShardedStore::deliver` over `RealDir`, µs.
    pub mfs_deliver_us_p50: f64,
    pub mfs_deliveries: usize,
    /// Mean `Command::parse`, ns.
    pub smtp_parse_ns: f64,
    /// Mean `ServerSession::handle`, ns.
    pub smtp_session_ns: f64,
    pub smtp_cmds: usize,
    /// `LineBuffer` push + pop over the dialog and body bytes, ns per KiB.
    pub linebuf_ns_per_kib: f64,
    /// Median `CachingResolver::lookup`, ns, and the share of lookups that
    /// missed the per-/25 cache.
    pub dnsbl_lookup_ns_p50: f64,
    pub dnsbl_miss_ratio: f64,
    pub dnsbl_lookups: usize,
}

pub fn median(v: &mut [u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    v[v.len() / 2] as f64
}

/// Times each layer on the first [`SAMPLE_CONNS`] connections of the
/// trace, with a scratch store of `shards` shards at `scratch`.
pub fn measure(w: &Workload, filler: &Filler, scratch: &Path, shards: usize) -> LayerTimes {
    let conns = &w.conns[..w.conns.len().min(SAMPLE_CONNS)];
    let scripts: Vec<Vec<Step>> = conns.iter().map(|c| script(c, w.mailbox_count)).collect();

    // smtp: Command::parse over every line, then the session state
    // machine over the parsed commands, a fresh session per connection.
    let lines: usize = scripts.iter().map(Vec::len).sum();
    let t = Instant::now();
    for s in &scripts {
        for step in s {
            let _ = black_box(Command::parse(black_box(&step.line)));
        }
    }
    let smtp_parse_ns = t.elapsed().as_nanos() as f64 / lines.max(1) as f64;
    let parsed: Vec<Vec<Command>> = scripts
        .iter()
        .map(|s| {
            s.iter()
                .filter_map(|st| Command::parse(&st.line).ok())
                .collect()
        })
        .collect();
    let hosted = w.mailbox_count;
    let exists = |a: &MailAddr| {
        a.local_part()
            .strip_prefix("user")
            .and_then(|n| n.parse::<u32>().ok())
            .is_some_and(|n| n < hosted)
    };
    let mut handled = 0usize;
    let mut handle_ns = 0u128;
    for cmds in parsed {
        let mut session = ServerSession::new(SessionConfig::default());
        let t = Instant::now();
        for c in cmds {
            let data = c == Command::Data;
            let r = session.handle(c, &exists);
            if data && r.code() == 354 {
                let _ = session.finish_data_sized("0", 1);
            }
            black_box(r);
            handled += 1;
        }
        handle_ns += t.elapsed().as_nanos();
    }
    let smtp_session_ns = handle_ns as f64 / handled.max(1) as f64;

    // linebuf: the same dialog with every body after its DATA, in 4 KiB
    // reads.
    let mut wire: Vec<u8> = Vec::new();
    let mut seq = 0u64;
    for (c, s) in conns.iter().zip(&scripts) {
        let mut mails = c.mails().iter();
        for step in s {
            wire.extend_from_slice(step.line.as_bytes());
            wire.extend_from_slice(b"\r\n");
            if step.role == Role::Data {
                let m = mails.next().expect("a mail for every DATA");
                wire.extend_from_slice(&filler.expected(seq, m.size));
                wire.extend_from_slice(b".\r\n");
                seq += 1;
            }
        }
    }
    let t = Instant::now();
    let mut lb = LineBuffer::new();
    let mut n = 0usize;
    for chunk in wire.chunks(4096) {
        lb.push(chunk);
        while let Ok(Some(line)) = lb.pop_line() {
            n += line.len();
            black_box(&line);
        }
    }
    black_box(n);
    let linebuf_ns_per_kib = t.elapsed().as_nanos() as f64 / (wire.len() as f64 / 1024.0);

    // dnsbl: the per-/25 caching resolver over the trace's client IPs in
    // arrival order, against the workload's blacklist.
    let db: BlacklistDb = w.blacklist.iter().copied().collect();
    let server = DnsblServer::new("bl.perfbench", db, LatencyModel::new(40.0, 0.8, 0.05));
    let mut resolver = CachingResolver::new(CacheScheme::PerPrefix, Nanos::from_secs(86_400));
    let mut rng = spamaware_sim::det_rng(w.seed);
    let mut lookup_ns: Vec<u64> = Vec::with_capacity(w.conns.len());
    for c in &w.conns {
        let t = Instant::now();
        black_box(resolver.lookup(c.client_ip, c.arrival, &server, &mut rng));
        lookup_ns.push(t.elapsed().as_nanos() as u64);
    }
    let dnsbl_lookups = lookup_ns.len();
    let st = resolver.stats();
    let dnsbl_miss_ratio = st.queries_issued as f64 / st.lookups.max(1) as f64;
    let dnsbl_lookup_ns_p50 = median(&mut lookup_ns);

    // mfs: ShardedStore::deliver over RealDir with the trace's recipients
    // and sizes, on a scratch store of the server's shard count.
    let _ = std::fs::remove_dir_all(scratch);
    let store =
        ShardedStore::open_with(shards, || RealDir::new(scratch)).expect("open scratch store");
    let mut deliver_ns = Vec::new();
    let mut id = 1u64;
    // The first round creates every mailbox's files and is not timed; the
    // second measures deliveries into mailboxes that already exist, as in
    // the server after its warm-up.
    for round in 0..2 {
        for m in conns.iter().flat_map(|c| c.mails()) {
            if m.valid_rcpts.is_empty() {
                continue;
            }
            let names: Vec<String> = m.valid_rcpts.iter().map(|r| mailbox_name(r.0)).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let body = filler.expected(id, m.size);
            let t = Instant::now();
            store
                .deliver(MailId(id), &refs, DataRef::Bytes(&body))
                .expect("scratch deliver");
            if round == 1 {
                deliver_ns.push(t.elapsed().as_nanos() as u64);
            }
            id += 1;
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(scratch);
    let mfs_deliveries = deliver_ns.len();
    let mfs_deliver_us_p50 = median(&mut deliver_ns) / 1e3;

    LayerTimes {
        mfs_deliver_us_p50,
        mfs_deliveries,
        smtp_parse_ns,
        smtp_session_ns,
        smtp_cmds: handled,
        linebuf_ns_per_kib,
        dnsbl_lookup_ns_p50,
        dnsbl_miss_ratio,
        dnsbl_lookups,
    }
}
