//! TOML-style cluster configuration for multi-process deployments.
//!
//! A minimal, dependency-free parser for the subset of TOML the cluster
//! needs — one optional `[cluster]` table of scalar settings and one
//! `[[peers]]` array-of-tables entry per replica:
//!
//! ```toml
//! [cluster]
//! scheme = "sim"        # vote scheme, "sim" or "bls" (cluster-wide)
//! internal = 2          # aggregators per tree (default: round(√(n−1)), at least 1)
//! batch = 100           # max requests per block
//! payload = 64          # bytes per request
//! rate = 10000          # open-loop client requests/second
//! duration_secs = 10    # load duration
//! # metrics_dir = "/tmp/iniva-obs"   # optional: per-process observability dumps
//! # client_listen = "127.0.0.1:7200" # optional: client ingress base address
//! # mempool = 65536                  # ingress mempool capacity (requests)
//! # client_rate = 1000               # per-client token refill rate (submits/s)
//! # client_burst = 256               # per-client token bucket burst
//!
//! [[peers]]
//! id = 0
//! addr = "127.0.0.1:7100"
//!
//! [[peers]]
//! id = 1
//! addr = "127.0.0.1:7101"
//! ```
//!
//! Comments (`# ...`), blank lines, integer and quoted-string values are
//! supported; anything else is rejected with a line-numbered error.

use iniva::Topology;
use std::fmt;
use std::net::SocketAddr;

/// One replica endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Peer {
    /// Committee id (must be `0..n`, unique).
    pub id: u32,
    /// Listen/dial address.
    pub addr: SocketAddr,
}

/// A parsed cluster configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// The committee, sorted by id (`peers.len()` is `n`).
    pub peers: Vec<Peer>,
    /// Internal aggregators per tree.
    pub internal: u32,
    /// Max requests batched per block.
    pub max_batch: u32,
    /// Payload bytes per request.
    pub payload_per_req: u32,
    /// Open-loop client request rate (requests/second).
    pub request_rate: u64,
    /// Load duration in seconds.
    pub duration_secs: u64,
    /// Vote scheme every process of the cluster must run (`"sim"` or
    /// `"bls"`). Part of the shared config because it is as much common
    /// knowledge as the peer list: a replica decoding frames under the
    /// wrong scheme would silently drop every connection and stall, so
    /// launchers validate their compiled scheme against this field and
    /// fail by name instead.
    pub scheme: String,
    /// Directory for observability dumps (`metrics-<id>.json`,
    /// `trace-<id>.jsonl` per process), shared like the peer list so one
    /// key turns tracing on for the whole cluster and `view_timeline`
    /// finds every node's dump in one place. `None` (default) disables
    /// observability.
    pub metrics_dir: Option<String>,
    /// Base address for the client ingress tier: replica `id` listens
    /// for client connections on this address's port **plus `id`**
    /// (mirroring how [`Self::local`] lays out peer ports). `None`
    /// (default) disables ingress — replicas draft from the synthetic
    /// open-loop workload model instead.
    pub client_listen: Option<SocketAddr>,
    /// Ingress mempool capacity in requests (admissions beyond it evict
    /// the cheapest queued request or shed with `Busy`).
    pub mempool: u64,
    /// Per-client token-bucket refill rate, submits/second (0 disables
    /// rate limiting).
    pub client_rate: u64,
    /// Per-client token-bucket burst size.
    pub client_burst: u64,
}

impl ClusterConfig {
    /// Committee size.
    pub fn n(&self) -> usize {
        self.peers.len()
    }

    /// The peer list as `(id, addr)` pairs for [`crate::Transport`].
    pub fn peer_addrs(&self) -> Vec<(u32, SocketAddr)> {
        self.peers.iter().map(|p| (p.id, p.addr)).collect()
    }

    /// The address of peer `id`.
    pub fn addr_of(&self, id: u32) -> Option<SocketAddr> {
        self.peers.iter().find(|p| p.id == id).map(|p| p.addr)
    }

    /// The client ingress listen address of peer `id`: `client_listen`'s
    /// port plus `id`; `None` when ingress is off or the port passes 65535.
    pub fn client_addr_of(&self, id: u32) -> Option<SocketAddr> {
        let mut addr = self.client_listen?;
        addr.set_port(addr.port().checked_add(u16::try_from(id).ok()?)?);
        Some(addr)
    }

    /// The mempool / rate-limit knobs as [`iniva_ingress::IngressOptions`].
    pub fn ingress_options(&self) -> iniva_ingress::IngressOptions {
        iniva_ingress::IngressOptions {
            capacity: self.mempool as usize,
            rate_per_client: self.client_rate,
            burst: self.client_burst,
        }
    }

    /// A loopback cluster of `n` consecutive ports starting at `base_port`.
    pub fn local(n: usize, base_port: u16) -> Self {
        ClusterConfig {
            peers: (0..n)
                .map(|i| Peer {
                    id: i as u32,
                    addr: format!("127.0.0.1:{}", base_port + i as u16)
                        .parse()
                        .unwrap(),
                })
                .collect(),
            internal: Topology::balanced(n as u32).map_or(0, |t| t.internal_count()),
            ..ClusterConfig::defaults()
        }
    }

    fn defaults() -> Self {
        let ingress = iniva_ingress::IngressOptions::default();
        ClusterConfig {
            peers: Vec::new(),
            internal: 0, // set from the committee size
            max_batch: 100,
            payload_per_req: 64,
            request_rate: 10_000,
            duration_secs: 10,
            scheme: "sim".to_string(),
            metrics_dir: None,
            client_listen: None,
            mempool: ingress.capacity as u64,
            client_rate: ingress.rate_per_client,
            client_burst: ingress.burst,
        }
    }

    /// Parses the TOML-style format described in the module docs.
    ///
    /// # Errors
    /// Returns [`ConfigError`] with the offending line on malformed input,
    /// unknown keys, an integer too large for its key, duplicate or
    /// non-contiguous peer ids, an empty peer list, an `internal` count
    /// the committee cannot host, or client ports past 65535.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        #[derive(PartialEq)]
        enum Section {
            None,
            Cluster,
            Peer,
        }
        let mut cfg = ClusterConfig::defaults();
        let last = text.lines().count();
        // Checked against the whole committee, so their lines are kept.
        let (mut internal, mut client_line): (Option<(u32, usize)>, usize) = (None, last);
        let mut section = Section::None;
        let mut pending: Option<(Option<u32>, Option<SocketAddr>)> = None;

        let finish_peer = |pending: &mut Option<(Option<u32>, Option<SocketAddr>)>,
                           peers: &mut Vec<Peer>,
                           line: usize|
         -> Result<(), ConfigError> {
            if let Some((id, addr)) = pending.take() {
                match (id, addr) {
                    (Some(id), Some(addr)) => peers.push(Peer { id, addr }),
                    _ => return Err(ConfigError::at(line, "[[peers]] needs both id and addr")),
                }
            }
            Ok(())
        };

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[peers]]" {
                finish_peer(&mut pending, &mut cfg.peers, lineno)?;
                pending = Some((None, None));
                section = Section::Peer;
                continue;
            }
            if line == "[cluster]" {
                finish_peer(&mut pending, &mut cfg.peers, lineno)?;
                section = Section::Cluster;
                continue;
            }
            if line.starts_with('[') {
                return Err(ConfigError::at(lineno, "unknown section"));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError::at(lineno, "expected key = value"));
            };
            let (key, value) = (key.trim(), value.trim());
            match section {
                Section::None => return Err(ConfigError::at(lineno, "key outside any section")),
                Section::Cluster => match key {
                    "internal" => internal = Some((parse_u32(value, lineno)?, lineno)),
                    "batch" => cfg.max_batch = parse_u32(value, lineno)?,
                    "payload" => cfg.payload_per_req = parse_u32(value, lineno)?,
                    "rate" => cfg.request_rate = parse_int(value, lineno)?,
                    "duration_secs" => cfg.duration_secs = parse_int(value, lineno)?,
                    "scheme" => {
                        let s = parse_string(value, lineno)?;
                        if s != "sim" && s != "bls" {
                            return Err(ConfigError::at(
                                lineno,
                                "scheme must be \"sim\" or \"bls\"",
                            ));
                        }
                        cfg.scheme = s;
                    }
                    "metrics_dir" => cfg.metrics_dir = Some(parse_string(value, lineno)?),
                    "client_listen" => {
                        let addr = parse_string(value, lineno)?.parse().map_err(|_| {
                            ConfigError::at(lineno, "client_listen is not a socket address")
                        })?;
                        cfg.client_listen = Some(addr);
                        client_line = lineno;
                    }
                    "mempool" => cfg.mempool = parse_int(value, lineno)?,
                    "client_rate" => cfg.client_rate = parse_int(value, lineno)?,
                    "client_burst" => cfg.client_burst = parse_int(value, lineno)?,
                    _ => return Err(ConfigError::at(lineno, "unknown [cluster] key")),
                },
                Section::Peer => {
                    let slot = pending.as_mut().expect("inside [[peers]]");
                    match key {
                        "id" => slot.0 = Some(parse_u32(value, lineno)?),
                        "addr" => {
                            let s = parse_string(value, lineno)?;
                            let addr = s.parse().map_err(|_| {
                                ConfigError::at(lineno, "addr is not a socket address")
                            })?;
                            slot.1 = Some(addr);
                        }
                        _ => return Err(ConfigError::at(lineno, "unknown [[peers]] key")),
                    }
                }
            }
        }
        finish_peer(&mut pending, &mut cfg.peers, last)?;

        if cfg.peers.is_empty() {
            return Err(ConfigError::at(last, "no [[peers]] defined"));
        }
        cfg.peers.sort_by_key(|p| p.id);
        for (i, p) in cfg.peers.iter().enumerate() {
            if p.id != i as u32 {
                return Err(ConfigError::at(
                    last,
                    "peer ids must be unique and contiguous from 0",
                ));
            }
        }
        // A tree shape the committee hosts; unset, the balanced one.
        let n = cfg.peers.len() as u32;
        let (shape, line) = match internal {
            Some((k, line)) => (Topology::new(n, k), line),
            None => (Topology::balanced(n), last),
        };
        let bad_shape = "internal must be at least 1 and below the committee size";
        cfg.internal = shape
            .map_err(|_| ConfigError::at(line, bad_shape))?
            .internal_count();
        if cfg.client_listen.is_some() && cfg.client_addr_of(n - 1).is_none() {
            let message = "client_listen leaves no port for every peer (port + id > 65535)";
            return Err(ConfigError::at(client_line, message));
        }
        Ok(cfg)
    }
}

fn parse_int(value: &str, line: usize) -> Result<u64, ConfigError> {
    value
        .replace('_', "")
        .parse()
        .map_err(|_| ConfigError::at(line, "expected an integer"))
}

fn parse_u32(value: &str, line: usize) -> Result<u32, ConfigError> {
    u32::try_from(parse_int(value, line)?)
        .map_err(|_| ConfigError::at(line, "integer does not fit in 32 bits"))
}

fn parse_string(value: &str, line: usize) -> Result<String, ConfigError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(ConfigError::at(line, "expected a quoted string"))
    }
}

/// A config-file parse error with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl ConfigError {
    fn at(line: usize, message: &'static str) -> Self {
        ConfigError { line, message }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
# a three-replica cluster
[cluster]
internal = 1
batch = 200
rate = 20_000
metrics_dir = "/tmp/iniva-metrics"

[[peers]]
id = 1
addr = "127.0.0.1:7101"

[[peers]]
id = 0
addr = "127.0.0.1:7100"

[[peers]]
id = 2
addr = "127.0.0.1:7102"
"#;

    #[test]
    fn parses_sections_settings_and_peers() {
        let cfg = ClusterConfig::parse(EXAMPLE).unwrap();
        assert_eq!(cfg.n(), 3);
        assert_eq!(cfg.internal, 1);
        assert_eq!(cfg.max_batch, 200);
        assert_eq!(cfg.request_rate, 20_000);
        assert_eq!(cfg.payload_per_req, 64, "unset keys keep defaults");
        assert_eq!(cfg.scheme, "sim", "unset scheme defaults to sim");
        assert_eq!(cfg.metrics_dir.as_deref(), Some("/tmp/iniva-metrics"));
        let bare = ClusterConfig::parse("[[peers]]\nid = 0\naddr = \"127.0.0.1:7100\"").unwrap();
        assert_eq!(bare.metrics_dir, None, "observability defaults off");
        assert_eq!(bare.internal, 0, "unset, internal follows the committee");
        assert_eq!(ClusterConfig::local(21, 9000).internal, 4);
        // Peers come out sorted by id regardless of file order.
        assert_eq!(cfg.peers[0].id, 0);
        assert_eq!(cfg.addr_of(2).unwrap().port(), 7102);
    }

    #[test]
    fn rejects_malformed_input_with_line_numbers() {
        const TWO_PEERS: &str =
            "[[peers]]\nid = 0\naddr = \"1.2.3.4:1\"\n[[peers]]\nid = 1\naddr = \"1.2.3.4:2\"";
        let cluster = |keys: &str| format!("[cluster]\n{keys}\n{TWO_PEERS}");
        for (text, needle, line) in [
            (
                "[cluster]\nwhat = 1\n[[peers]]\nid = 0\naddr = \"1.2.3.4:1\"".into(),
                "unknown",
                2,
            ),
            ("[[peers]]\nid = 0".into(), "both id and addr", 2),
            ("rate = 1".into(), "outside any section", 1),
            (cluster("rate = abc"), "integer", 2),
            ("[[peers]]\nid = 0\naddr = 127.0.0.1:9".into(), "quoted", 3),
            (
                "[[peers]]\nid = 0\naddr = \"nonsense\"".into(),
                "socket address",
                3,
            ),
            ("[cluster]\nrate = 5".into(), "no [[peers]]", 2),
            (
                "[[peers]]\nid = 0\naddr = \"1.1.1.1:1\"\n[[peers]]\nid = 0\naddr = \"1.1.1.1:2\""
                    .into(),
                "contiguous",
                6,
            ),
            (
                "[[peers]]\nid = 5\naddr = \"1.1.1.1:1\"".into(),
                "contiguous",
                3,
            ),
            (cluster("scheme = \"rsa\""), "scheme must be", 2),
            // Client ports past 65535 would wrap to 0 (an ephemeral port).
            (
                cluster("client_listen = \"127.0.0.1:65535\""),
                "port + id",
                2,
            ),
            // A tree shape the committee cannot host: named here, not
            // panicked on in every replica process.
            (cluster("internal = 2"), "internal must be", 2),
            (cluster("internal = 0"), "internal must be", 2),
            // 32-bit keys are range-checked, not truncated.
            (cluster("internal = 4294967297"), "32 bits", 2),
            (cluster("batch = 4294967296"), "32 bits", 2),
            (cluster("payload = 4294967296"), "32 bits", 2),
            (
                "[[peers]]\nid = 4294967296\naddr = \"1.2.3.4:1\"".into(),
                "32 bits",
                2,
            ),
        ] {
            let text: String = text;
            let err = ClusterConfig::parse(&text).unwrap_err();
            assert!(
                err.message.contains(needle) && err.line == line,
                "{text:?} -> {err} (wanted {needle:?} at line {line})"
            );
        }
    }

    #[test]
    fn parses_ingress_keys_and_spreads_client_ports() {
        let cfg = ClusterConfig::parse(
            "[cluster]\nclient_listen = \"127.0.0.1:7200\"\nmempool = 1024\n\
             client_rate = 50\nclient_burst = 10\n\
             [[peers]]\nid = 0\naddr = \"127.0.0.1:7100\"\n\
             [[peers]]\nid = 1\naddr = \"127.0.0.1:7101\"",
        )
        .unwrap();
        assert_eq!(cfg.client_addr_of(0).unwrap().port(), 7200);
        assert_eq!(cfg.client_addr_of(1).unwrap().port(), 7201);
        let opts = cfg.ingress_options();
        assert_eq!(opts.capacity, 1024);
        assert_eq!(opts.rate_per_client, 50);
        assert_eq!(opts.burst, 10);

        let off = ClusterConfig::parse("[[peers]]\nid = 0\naddr = \"127.0.0.1:7100\"").unwrap();
        assert_eq!(off.client_addr_of(0), None, "ingress defaults off");
        let defaults = iniva_ingress::IngressOptions::default();
        assert_eq!(off.ingress_options().capacity, defaults.capacity);

        let err = ClusterConfig::parse(
            "[cluster]\nclient_listen = \"nonsense\"\n[[peers]]\nid = 0\naddr = \"1.2.3.4:1\"",
        )
        .unwrap_err();
        assert!(err.message.contains("socket address"), "{err}");
    }

    #[test]
    fn local_builder_counts_ports_up() {
        let cfg = ClusterConfig::local(4, 9000);
        assert_eq!(cfg.n(), 4);
        assert_eq!(cfg.peers[3].addr.port(), 9003);
        let addrs = cfg.peer_addrs();
        assert_eq!(addrs.len(), 4);
    }
}
