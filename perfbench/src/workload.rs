//! The three replayed workloads, generated from `crates/trace` with the
//! run's seed. The server under test never sees the seed, only the
//! connections and POP3 sessions built from it.

use spamaware_core::combined_workload;
use spamaware_netaddr::Ipv4;
use spamaware_trace::{
    bounce_sweep_trace, ConnectionSpec, EcnSeries, SinkholeConfig, Trace, UnivConfig,
};

/// Which traffic mix a run replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Department server: open loop at a fixed arrival rate, Univ trace
    /// connections plus POP3 `STAT`/`RETR`/`DELE` sessions.
    Univ,
    /// Capacity under spam: closed loop over the §8 combined workload
    /// (sinkhole mail plus ECN-mean bounces and unfinished dialogs).
    Sinkhole,
    /// The §4.1 random-guessing storm: closed loop, 80% bounces.
    BounceStorm,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "univ" => Some(Kind::Univ),
            "sinkhole" => Some(Kind::Sinkhole),
            "bounce_storm" => Some(Kind::BounceStorm),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Univ => "univ",
            Kind::Sinkhole => "sinkhole",
            Kind::BounceStorm => "bounce_storm",
        }
    }
}

/// Arrivals per second offered by the `univ` open loop. Chosen so two
/// sequential generator threads stay on schedule on a 2-vCPU host whose
/// hypervisor steals CPU in bursts: at 1,000/s, three runs in ten fell
/// behind for whole seconds and their p90 connection time rose up to
/// 20-fold; at 500/s none did.
pub const UNIV_RATE: f64 = 500.0;
/// One `univ` arrival in this many is a POP3 session.
pub const UNIV_POP3_EVERY: u64 = 10;

/// One unit of offered load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Replay `Workload::conns[i]` as one SMTP connection.
    Smtp(usize),
    /// One POP3 session on mailbox `user<n>`.
    Pop3(u32),
}

/// A generated workload: the connections to replay plus what the server
/// is configured with (mailboxes, DNSBL listings).
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub conns: Vec<ConnectionSpec>,
    pub mailbox_count: u32,
    pub blacklist: Vec<Ipv4>,
}

impl Workload {
    /// Generates the workload for `seed`. The replay walks the trace in
    /// order and wraps around when a run needs more connections than the
    /// trace holds (the closed loops replay it several times in 20 s).
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let (trace, blacklist): (Trace, Vec<Ipv4>) = match kind {
            Kind::Univ => {
                let mut cfg = UnivConfig::scaled(0.01);
                cfg.seed = seed;
                let t = cfg.generate();
                (t.trace, t.blacklisted)
            }
            Kind::Sinkhole => {
                let mut cfg = SinkholeConfig::scaled(0.25);
                cfg.seed = seed;
                let sink = cfg.generate();
                let ecn = EcnSeries::generate(seed, 395);
                let mixed =
                    combined_workload(&sink.trace, ecn.mean_bounce(), ecn.mean_unfinished(), seed);
                (mixed, sink.blacklisted)
            }
            Kind::BounceStorm => (bounce_sweep_trace(seed, 40_000, 0.8, 400), Vec::new()),
        };
        Workload {
            kind,
            seed,
            conns: trace.connections,
            mailbox_count: trace.mailbox_count,
            blacklist,
        }
    }

    /// Whether this workload is replayed on a fixed schedule.
    pub fn open_loop(&self) -> bool {
        self.kind == Kind::Univ
    }

    /// How many arrivals, counted from the start of the warm-up, the
    /// `peak_rss_mb` figure covers. The server's memory grows with every
    /// mail it stores, so a peak over a fixed time would grow with the
    /// throughput; over a fixed number of arrivals it does not. The count
    /// is reached about half-way through a 30 s window on a 2-vCPU host
    /// (`univ`: 20 s into its fixed schedule).
    pub fn rss_arrivals(&self) -> u64 {
        match self.kind {
            Kind::Univ => 10_000,
            Kind::Sinkhole => 60_000,
            Kind::BounceStorm => 120_000,
        }
    }

    /// The `i`-th arrival of the replay. In `univ` every
    /// [`UNIV_POP3_EVERY`]-th arrival is a POP3 session on a mailbox
    /// drawn from the seed; everything else walks the trace in order.
    pub fn arrival(&self, i: u64) -> Arrival {
        if self.kind == Kind::Univ {
            if i % UNIV_POP3_EVERY == UNIV_POP3_EVERY - 1 {
                return Arrival::Pop3(self.mailbox_for(i));
            }
            let smtp = i - i / UNIV_POP3_EVERY;
            return Arrival::Smtp(smtp as usize % self.conns.len());
        }
        Arrival::Smtp(i as usize % self.conns.len())
    }

    /// A mailbox drawn from `(seed, i)` by a fixed integer mix.
    pub fn mailbox_for(&self, i: u64) -> u32 {
        (splitmix(self.seed ^ i.wrapping_mul(0x9E37_79B9)) % u64::from(self.mailbox_count)) as u32
    }

    /// Mailbox local parts the server hosts.
    pub fn mailboxes(&self) -> Vec<String> {
        (0..self.mailbox_count).map(mailbox_name).collect()
    }
}

pub fn mailbox_name(id: u32) -> String {
    format!("user{id}")
}

/// SplitMix64 finaliser: a cheap, well-spread hash of one word.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
