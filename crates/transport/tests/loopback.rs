//! Live-cluster integration tests: real Iniva replicas over real TCP.

use iniva::protocol::InivaConfig;
use iniva_crypto::bls::BlsScheme;
use iniva_crypto::sim_scheme::SimScheme;
use iniva_net::wire::{DecodeError, Decoder, Encoder, WireDecode, WireEncode};
use iniva_net::{Actor, Context, NodeId};
use iniva_transport::cluster::ClusterBuilder;
use iniva_transport::{CpuMode, LinkFaults, NodeFaults, Runtime, Transport, TransportOptions};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A 4-replica Iniva cluster on loopback TCP must commit at least 10
/// blocks and agree on the committed prefix — consensus safety and
/// liveness, demonstrated over sockets instead of the simulator.
#[test]
fn four_replica_cluster_commits_and_agrees() {
    let mut cfg = InivaConfig::for_tests(4, 1);
    cfg.request_rate = 20_000;
    let mut run = None;
    // Real clocks make the run timing-sensitive; retry once on a slow CI
    // machine before declaring the liveness property broken.
    for attempt in 0..2 {
        let r = ClusterBuilder::new(&cfg, Duration::from_secs(2))
            .scheme::<SimScheme>()
            .spawn()
            .expect("cluster starts");
        let committed = r
            .nodes
            .iter()
            .map(|n| n.replica.chain.committed_height())
            .min()
            .unwrap();
        if committed >= 10 || attempt == 1 {
            run = Some(r);
            break;
        }
    }
    let run = run.unwrap();

    // Liveness: ≥ 10 blocks committed by every replica.
    for (id, node) in run.nodes.iter().enumerate() {
        assert!(
            node.replica.chain.committed_height() >= 10,
            "replica {id} committed only {} blocks",
            node.replica.chain.committed_height()
        );
    }

    // Safety: all replicas agree on the committed prefix.
    let agreed = run.agreed_prefix_height().expect("no divergence");
    assert!(agreed >= 10);

    // The run exercised the actual sockets: every replica sent and
    // received frames.
    for node in &run.nodes {
        assert!(node.transport.msgs_sent > 0);
        assert!(node.transport.msgs_received > 0);
        assert!(node.runtime.msgs_delivered > 0);
    }

    // Requests were committed and latency accounted, so the perf metrics
    // downstream of this harness are non-degenerate.
    let m = &run.nodes[0].replica.chain.metrics;
    assert!(m.committed_reqs > 0);
    assert!(m.mean_latency() > 0.0);
}

/// Two clusters in sequence must not interfere (ports are ephemeral and
/// sockets are torn down by `finish`).
#[test]
fn clusters_tear_down_cleanly() {
    let cfg = InivaConfig::for_tests(4, 1);
    for _ in 0..2 {
        let run = ClusterBuilder::new(&cfg, Duration::from_millis(400))
            .cpu(CpuMode::Scaled(0.2))
            .spawn()
            .expect("cluster starts");
        assert!(run.agreed_prefix_height().is_ok());
    }
}

/// The acceptance pin for real crypto over the wire: a 4-replica cluster
/// running **`BlsScheme`** — genuine BLS12-381 pairing verification, with
/// 48-byte compressed G1 aggregates as the actual frame bytes — must
/// commit blocks over loopback TCP and reach cluster-wide agreement on
/// the committed prefix. Pairing verification costs ~50 ms per aggregate,
/// so timers are widened (`tune_for_real_crypto`) and the liveness floor
/// is lower than the sim-scheme test's.
#[test]
fn four_replica_bls_cluster_commits_and_agrees() {
    let mut cfg = InivaConfig::for_tests(4, 1);
    cfg.request_rate = 200;
    cfg.tune_for_real_crypto();
    let mut run = None;
    // Real pairing on shared CI cores is timing-sensitive; retry once.
    for attempt in 0..2 {
        let r = ClusterBuilder::new(&cfg, Duration::from_secs(12))
            .scheme::<BlsScheme>()
            .spawn()
            .expect("cluster starts");
        let committed = r
            .nodes
            .iter()
            .map(|n| n.replica.chain.committed_height())
            .min()
            .unwrap();
        if committed >= 3 || attempt == 1 {
            run = Some(r);
            break;
        }
    }
    let run = run.unwrap();

    // Liveness: every replica committed blocks certified by real
    // aggregate signatures.
    for (id, node) in run.nodes.iter().enumerate() {
        assert!(
            node.replica.chain.committed_height() >= 3,
            "replica {id} committed only {} blocks under BLS",
            node.replica.chain.committed_height()
        );
    }

    // Safety: cluster-wide agreement on the committed prefix.
    let agreed = run.agreed_prefix_height().expect("no divergence");
    assert!(agreed >= 3);

    // The committed chain is backed by *verifiable* BLS certificates: the
    // retained QCs re-verify against a freshly derived committee keyring
    // (what any third party auditing the chain would do).
    let auditor = iniva_crypto::bls::BlsScheme::new(4, iniva_transport::cluster::CLUSTER_SEED);
    let node = &run.nodes[0].replica;
    let mut audited = 0;
    for height in 1..=node.chain.committed_height() {
        if let Some((block, qc)) = node.chain.committed_entry(height) {
            use iniva_crypto::multisig::VoteScheme;
            let msg = iniva_consensus::types::vote_message(&block.hash(), qc.view);
            assert!(
                auditor.verify(&msg, &qc.agg),
                "height {height}: committed QC fails BLS verification"
            );
            audited += 1;
        }
    }
    assert!(audited > 0, "no committed QC was retained for audit");

    // Real frames crossed real sockets.
    for node in &run.nodes {
        assert!(node.transport.msgs_sent > 0);
        assert!(node.transport.msgs_received > 0);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Num(u64);

impl WireEncode for Num {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.0);
    }
}

impl WireDecode for Num {
    fn decode(dec: &mut Decoder) -> Result<Self, DecodeError> {
        Ok(Num(dec.get_u64()?))
    }
}

/// Records every received number.
struct Sink {
    got: Vec<u64>,
}

impl Actor for Sink {
    type Msg = Num;
    fn on_message(&mut self, _ctx: &mut Context<Num>, _from: NodeId, msg: Num) {
        self.got.push(msg.0);
    }
}

fn wait_for(rt: &mut Runtime<Sink>, count: usize, limit: Duration) {
    let deadline = Instant::now() + limit;
    while rt.actor().got.len() < count && Instant::now() < deadline {
        rt.run_for(Duration::from_millis(50));
    }
}

/// A frame replayed on a *new* connection (what a reconnecting lane does
/// when it cannot know whether its last write landed) must be dropped by
/// the transport-wide duplicate filter, not delivered twice.
#[test]
fn duplicate_frames_across_reconnects_are_dropped() {
    use iniva_net::wire::Codec;
    use iniva_transport::frame;
    use std::net::TcpStream;

    let loopback = "127.0.0.1:0".to_socket_addrs().unwrap().next().unwrap();
    let listener = TcpListener::bind(loopback).unwrap();
    let addr = listener.local_addr().unwrap();
    let tb = Transport::<Num>::start(1, listener, &[]).unwrap();
    let mut rb = Runtime::new(Sink { got: vec![] }, tb, CpuMode::Off);

    // First connection: frame seq=1.
    let mut c1 = TcpStream::connect(addr).unwrap();
    frame::write_handshake(&mut c1, 5, 0).unwrap();
    frame::write_frame(&mut c1, 1, &Num(41).to_frame()).unwrap();
    wait_for(&mut rb, 1, Duration::from_secs(5));
    drop(c1);

    // Second connection, same sender id: replay seq=1, then send seq=2.
    let mut c2 = TcpStream::connect(addr).unwrap();
    frame::write_handshake(&mut c2, 5, 0).unwrap();
    frame::write_frame(&mut c2, 1, &Num(41).to_frame()).unwrap();
    frame::write_frame(&mut c2, 2, &Num(42).to_frame()).unwrap();
    wait_for(&mut rb, 2, Duration::from_secs(5));

    assert_eq!(
        rb.actor().got,
        vec![41, 42],
        "the replay must not re-deliver"
    );
    let stats = rb.transport_stats().snapshot();
    assert_eq!(stats.dups_dropped, 1);
}

/// Killing the receiving peer's socket mid-run must not wedge the sender:
/// when the peer comes back on the same address, the outbound lane
/// reconnects and delivery resumes.
#[test]
fn outbound_lane_reconnects_after_peer_restart() {
    let loopback = "127.0.0.1:0".to_socket_addrs().unwrap().next().unwrap();
    // Receiver (node 1) on an ephemeral port that the restart will reuse.
    let listener = TcpListener::bind(loopback).unwrap();
    let b_addr = listener.local_addr().unwrap();
    let tb = Transport::<Num>::start(1, listener, &[]).unwrap();
    let mut rb = Runtime::new(Sink { got: vec![] }, tb, CpuMode::Off);

    // Sender (node 0) drives its lane directly — no runtime needed.
    let mut ta = Transport::<Num>::bind(0, loopback, &[(1, b_addr)]).unwrap();

    // Phase 1: normal delivery.
    for i in 0..5 {
        ta.send(1, &Num(i));
    }
    wait_for(&mut rb, 5, Duration::from_secs(5));
    assert_eq!(rb.actor().got, vec![0, 1, 2, 3, 4]);

    // Phase 2: kill the receiver's sockets mid-run (listener and accepted
    // connections all close) …
    let (_, _, snapshot_b) = rb.finish();
    assert_eq!(snapshot_b.msgs_received, 5);
    // Give the FIN a moment to reach the sender, so its next write probes
    // the connection as dead instead of racing the close.
    std::thread::sleep(Duration::from_millis(100));
    // … keep sending while the peer is down (frames queue on the lane) …
    for i in 5..10 {
        ta.send(1, &Num(i));
    }
    // … and restart the peer on the same address.
    let listener = {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match TcpListener::bind(b_addr) {
                Ok(l) => break l,
                Err(e) => {
                    assert!(Instant::now() < deadline, "rebind never succeeded: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    };
    let tb2 = Transport::<Num>::start(1, listener, &[]).unwrap();
    let mut rb2 = Runtime::new(Sink { got: vec![] }, tb2, CpuMode::Off);
    wait_for(&mut rb2, 5, Duration::from_secs(10));
    assert_eq!(
        rb2.actor().got,
        vec![5, 6, 7, 8, 9],
        "delivery must resume after the peer restarts"
    );
    // The redial after the restart is a reconnect; the initial dial is
    // not (a healthy run reports zero, see
    // `fault_free_run_reports_zero_reconnects`).
    assert!(ta.stats().snapshot().reconnects >= 1);
}

/// A healthy run must report **zero** reconnects: the initial dial of
/// each lane is the lane coming up, not a recovery. (A previous version
/// counted every first dial, so a fault-free 4-replica run reported 12
/// phantom reconnects and the counter was useless as a health signal.)
#[test]
fn fault_free_run_reports_zero_reconnects() {
    let mut cfg = InivaConfig::for_tests(4, 1);
    cfg.request_rate = 20_000;
    let run = ClusterBuilder::new(&cfg, Duration::from_secs(2))
        .scheme::<SimScheme>()
        .spawn()
        .expect("cluster starts");
    for (id, node) in run.nodes.iter().enumerate() {
        assert!(node.transport.msgs_sent > 0, "replica {id} sent nothing");
        assert_eq!(
            node.transport.reconnects, 0,
            "replica {id} reported phantom reconnects in a fault-free run"
        );
    }
}

/// The push-on-commit client path end to end: a real TCP client sends
/// `Follow` then `Submit`, and must receive the `SubmitAck { Accepted }` and
/// then an unsolicited `Committed` push carrying its nonce once the
/// request lands in a committed block — without ever sending `Query`.
#[test]
fn followed_client_receives_commit_push() {
    use iniva_ingress::{read_frame, write_frame, ClientMsg, IngressOptions, SubmitStatus};
    use std::io::ErrorKind;
    use std::net::TcpStream;

    let cfg = InivaConfig::for_tests(4, 1);
    let handle = ClusterBuilder::new(&cfg, Duration::from_secs(4))
        .scheme::<SimScheme>()
        .ingress(IngressOptions::default())
        .launch()
        .expect("cluster launches");
    let addr = handle.ingress().expect("ingress tier").client_addrs[0];

    let mut stream = TcpStream::connect(addr).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    write_frame(&mut stream, &ClientMsg::Follow).expect("send Follow");
    write_frame(
        &mut stream,
        &ClientMsg::Submit {
            fee: 7,
            nonce: 42,
            payload: bytes::Bytes::copy_from_slice(b"push me"),
        },
    )
    .expect("send Submit");

    let deadline = Instant::now() + Duration::from_secs(4);
    let mut accepted = false;
    let mut pushed_height = None;
    while Instant::now() < deadline && pushed_height.is_none() {
        match read_frame(&mut stream) {
            Ok(Some(ClientMsg::SubmitAck { nonce, status })) => {
                assert_eq!(nonce, 42, "ack echoes the submitted nonce");
                assert_eq!(status, SubmitStatus::Accepted, "submit admitted");
                accepted = true;
            }
            Ok(Some(ClientMsg::Committed { nonce, height })) => {
                assert_eq!(nonce, 42, "push names the committed nonce");
                pushed_height = Some(height);
            }
            Ok(Some(other)) => panic!("unexpected server frame {other:?}"),
            Ok(None) => panic!("server closed the connection before the push"),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => panic!("client read failed: {e}"),
        }
    }
    assert!(accepted, "no SubmitAck arrived");
    let height = pushed_height.expect("no Committed push arrived within the run");
    assert!(height > 0, "pushed height must name a real block");

    drop(stream);
    let run = handle.join().expect("cluster shuts down cleanly");
    assert!(run.agreed_prefix_height().expect("prefixes agree") >= height);
}

/// An outbound lane towards an unreachable peer must not grow without
/// bound: past `lane_capacity` the oldest frames are shed (and counted),
/// and `queue_depth` reports the backlog.
#[test]
fn bounded_lane_sheds_oldest_while_peer_unreachable() {
    let loopback = "127.0.0.1:0".to_socket_addrs().unwrap().next().unwrap();
    // A peer address nothing listens on: bind, learn the port, drop.
    let dead_addr = {
        let l = TcpListener::bind(loopback).unwrap();
        l.local_addr().unwrap()
    };
    let listener = TcpListener::bind(loopback).unwrap();
    let mut ta = Transport::<Num>::start_with(
        0,
        listener,
        &[(1, dead_addr)],
        TransportOptions { lane_capacity: 8 },
        Arc::new(NodeFaults::new()),
        Arc::new(LinkFaults::new()),
    )
    .unwrap();

    for i in 0..100 {
        ta.send(1, &Num(i));
    }
    let snap = ta.snapshot();
    assert_eq!(snap.msgs_sent, 100);
    assert!(
        snap.queue_depth <= 8,
        "queue depth {} exceeds the configured lane capacity",
        snap.queue_depth
    );
    // ≤ 8 queued (the lane claims nothing while it has no connection):
    // everything else was evicted oldest-first.
    assert!(
        snap.lane_evicted >= 91,
        "only {} evictions recorded",
        snap.lane_evicted
    );
}

/// Rebuilding a node's transport (what a restart-capable harness does on
/// every revive) must not lose the stats the dying incarnation counted:
/// both incarnations write into one shared [`TransportStats`], so the
/// final snapshot is the node's cumulative total — lane evictions from
/// before the rebuild included.
#[test]
fn rebuilt_transport_keeps_cumulative_stats() {
    use iniva_transport::TransportStats;

    let loopback = "127.0.0.1:0".to_socket_addrs().unwrap().next().unwrap();
    // A peer address nothing listens on, so every send backs up the lane.
    let dead_addr = {
        let l = TcpListener::bind(loopback).unwrap();
        l.local_addr().unwrap()
    };
    let shared = Arc::new(TransportStats::default());
    let start = |stats: &Arc<TransportStats>| {
        Transport::<Num>::start_with_stats(
            0,
            TcpListener::bind(loopback).unwrap(),
            &[(1, dead_addr)],
            TransportOptions { lane_capacity: 8 },
            Arc::new(NodeFaults::new()),
            Arc::new(LinkFaults::new()),
            Arc::clone(stats),
        )
        .unwrap()
    };

    // Incarnation 1 floods the unreachable peer and dies.
    let mut t1 = start(&shared);
    for i in 0..50 {
        t1.send(1, &Num(i));
    }
    let before = shared.snapshot();
    assert_eq!(before.msgs_sent, 50);
    assert!(before.lane_evicted >= 41, "first incarnation must evict");
    t1.shutdown();
    drop(t1);

    // Incarnation 2 starts from the same stats block; its traffic lands
    // on top of the first life's counters instead of a fresh zero.
    let mut t2 = start(&shared);
    for i in 0..50 {
        t2.send(1, &Num(i));
    }
    let after = shared.snapshot();
    assert_eq!(after.msgs_sent, 100, "counters span both incarnations");
    assert!(
        after.lane_evicted >= before.lane_evicted + 41,
        "evictions counted before the rebuild ({}) must survive it ({})",
        before.lane_evicted,
        after.lane_evicted
    );
    t2.shutdown();
}

/// A client listener served by a peerless transport's poller, admitting
/// into a fresh mempool: the reactor client path with no consensus
/// behind it, so a test can play the proposer (`draft` / `committed`)
/// itself. The transport owns the poller; keep it alive for the test.
fn serve_pool(
    opts: iniva_ingress::IngressOptions,
) -> (
    Arc<iniva_ingress::Mempool>,
    Transport<Num>,
    std::net::SocketAddr,
) {
    let loopback = "127.0.0.1:0".to_socket_addrs().unwrap().next().unwrap();
    let pool = Arc::new(iniva_ingress::Mempool::new(&opts));
    let transport = Transport::<Num>::bind(0, loopback, &[]).unwrap();
    let listener = TcpListener::bind(loopback).unwrap();
    let addr = listener.local_addr().unwrap();
    transport
        .serve_clients(listener, Arc::clone(&pool), &opts)
        .unwrap();
    (pool, transport, addr)
}

fn connect_client(addr: std::net::SocketAddr) -> std::net::TcpStream {
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

/// One blocking submit/ack round trip.
fn submit(stream: &mut std::net::TcpStream, fee: u64, nonce: u64) -> iniva_ingress::SubmitStatus {
    use iniva_ingress::{read_frame, write_frame, ClientMsg};
    write_frame(
        stream,
        &ClientMsg::Submit {
            fee,
            nonce,
            payload: bytes::Bytes::copy_from_slice(b"req"),
        },
    )
    .unwrap();
    match read_frame(stream).unwrap() {
        Some(ClientMsg::SubmitAck { nonce: n, status }) => {
            assert_eq!(n, nonce);
            status
        }
        other => panic!("expected ack, got {other:?}"),
    }
}

/// Per-connection rate limiting at the edge: the burst is admitted, the
/// excess gets `Busy` acks, a replayed nonce is a `Duplicate` once a token
/// is available again, and the mempool's counters match the acks.
#[test]
fn client_burst_is_admitted_then_rate_limited() {
    use iniva_ingress::{IngressOptions, SubmitStatus};
    let (pool, _transport, addr) = serve_pool(IngressOptions {
        capacity: 1024,
        rate_per_client: 1, // one refill/sec: only the burst passes
        burst: 4,
    });
    let mut stream = connect_client(addr);
    let mut accepted = 0;
    let mut busy = 0;
    for nonce in 0..8 {
        match submit(&mut stream, 10, nonce) {
            SubmitStatus::Accepted => accepted += 1,
            SubmitStatus::Busy => busy += 1,
            SubmitStatus::Duplicate => panic!("unexpected duplicate"),
        }
    }
    assert_eq!(accepted, 4);
    assert_eq!(busy, 4);
    // The bucket check comes before the dedup check, so the replay needs
    // a token: give the bucket its one-per-second refill.
    std::thread::sleep(Duration::from_millis(1100));
    assert_eq!(submit(&mut stream, 10, 0), SubmitStatus::Duplicate);
    let stats = pool.stats();
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.shed_busy, 4);
    assert_eq!(stats.duplicates, 1);
}

/// `Query` answers from the height the mempool has seen settle.
#[test]
fn client_query_tracks_committed_height() {
    use iniva_ingress::{
        read_frame, write_frame, ClientMsg, IngressOptions, RequestSource, SubmitStatus,
    };
    let (pool, _transport, addr) = serve_pool(IngressOptions::default());
    let mut stream = connect_client(addr);
    assert_eq!(submit(&mut stream, 1, 0), SubmitStatus::Accepted);
    assert_eq!(pool.draft(0, 10), 1);
    pool.committed(5, 0, 1);
    write_frame(&mut stream, &ClientMsg::Query { height: 4 }).unwrap();
    match read_frame(&mut stream).unwrap() {
        Some(ClientMsg::QueryResponse {
            height: 4,
            committed_height: 5,
            committed: true,
        }) => {}
        other => panic!("unexpected reply: {other:?}"),
    }
}

/// A length prefix past `MAX_CLIENT_FRAME` costs the sender its
/// connection — before any allocation for the body — and nobody else
/// theirs: a second client on the same listener is still served.
#[test]
fn hostile_client_frame_drops_that_connection_only() {
    use iniva_ingress::{IngressOptions, SubmitStatus, MAX_CLIENT_FRAME};
    use std::io::{Read, Write};
    let (pool, _transport, addr) = serve_pool(IngressOptions::default());
    let mut bad = connect_client(addr);
    bad.write_all(&(MAX_CLIENT_FRAME as u32 + 1).to_le_bytes())
        .unwrap();
    let mut probe = [0u8; 1];
    assert_eq!(
        bad.read(&mut probe).unwrap_or(0),
        0,
        "the hostile connection must be closed"
    );
    let mut good = connect_client(addr);
    assert_eq!(submit(&mut good, 1, 0), SubmitStatus::Accepted);
    assert_eq!(pool.stats().admitted, 1);
}

/// Fabric scale: 50 replicas on one machine — 50 pollers, 2,450 lanes and
/// as many inbound connections (≈ 4.9k fds, hence `#[ignore]`; CI runs it
/// by name) — must still commit a prefix every replica agrees on. CPU
/// costs are scaled down so 50 replicas share the host; the offered rate
/// is modest (the point is the fabric, not saturation).
#[test]
#[ignore = "opens ~4.9k file descriptors; run by name"]
fn fifty_replicas_commit_an_agreed_prefix() {
    let mut cfg = InivaConfig::for_tests(50, 7);
    cfg.request_rate = 500;
    let run = ClusterBuilder::new(&cfg, Duration::from_secs(4))
        .cpu(CpuMode::Scaled(0.01))
        .spawn()
        .expect("cluster starts");
    let agreed = run.agreed_prefix_height().expect("prefixes agree");
    assert!(agreed >= 1, "50 replicas committed no agreed prefix");
}

/// One open-loop client of the flood test: a submit every `pace` until
/// `stop`, one ack read per submit. Ends quietly when the server goes
/// away (the run is over).
fn flood_client(
    addr: std::net::SocketAddr,
    fee: u64,
    pace: Duration,
    stop: &std::sync::atomic::AtomicBool,
) {
    use iniva_ingress::{read_frame, write_frame, ClientMsg};
    use std::io::ErrorKind;
    use std::sync::atomic::Ordering;
    let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
        return;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let payload = bytes::Bytes::from(vec![0x5au8; 64]);
    for nonce in 0.. {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let msg = ClientMsg::Submit {
            fee,
            nonce,
            payload: payload.clone(),
        };
        if write_frame(&mut stream, &msg).is_err() {
            return;
        }
        loop {
            match read_frame(&mut stream) {
                Ok(Some(_)) => break,
                Ok(None) => return,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
        std::thread::sleep(pace);
    }
}

/// A hostile fleet offering several times its token budget at fee 1,
/// beside an honest fleet under budget at fee 1000, must be turned into
/// `Busy` acks at the edge — a bucket check, no shared state — leaving
/// consensus at ≥ 80% of the block rate the same cluster reaches with no
/// ingress tier at all. A ratio of two wall-clock runs, hence `#[ignore]`
/// (CI runs it by name, serially).
#[test]
#[ignore = "wall-clock throughput ratio; run by name, serially"]
fn hostile_flood_is_shed_at_the_edge() {
    use iniva_ingress::IngressOptions;
    use std::sync::atomic::{AtomicBool, Ordering};
    const SECS: u64 = 4;
    let mut cfg = InivaConfig::for_tests(4, 1);
    cfg.request_rate = 2_500;
    let blocks_per_sec = |run: &iniva_transport::cluster::ClusterRun| {
        let blocks = run
            .nodes
            .iter()
            .map(|n| n.replica.chain.metrics.committed_blocks)
            .max()
            .unwrap();
        blocks as f64 / SECS as f64
    };

    let unloaded = ClusterBuilder::new(&cfg, Duration::from_secs(SECS))
        .spawn()
        .expect("cluster starts");
    let unloaded = blocks_per_sec(&unloaded);

    let handle = ClusterBuilder::new(&cfg, Duration::from_secs(SECS))
        .ingress(IngressOptions {
            capacity: 8_192,
            rate_per_client: 15,
            burst: 16,
        })
        .launch()
        .expect("cluster launches");
    let addrs = handle.ingress().expect("ingress tier").client_addrs.clone();
    let stop = AtomicBool::new(false);
    let run = std::thread::scope(|s| {
        for i in 0..16 {
            let (addr, stop) = (addrs[i % addrs.len()], &stop);
            // 8 honest clients at 10 submits/s, 8 hostile at 50/s,
            // against a 15/s budget.
            let (fee, pace_ms) = if i < 8 { (1_000, 100) } else { (1, 20) };
            s.spawn(move || flood_client(addr, fee, Duration::from_millis(pace_ms), stop));
        }
        let run = handle.join();
        stop.store(true, Ordering::SeqCst);
        run
    })
    .expect("cluster shuts down cleanly");

    let stats = run.ingress.as_ref().expect("ingress tier").mempool.stats();
    assert!(
        stats.shed_busy > 0,
        "the hostile fleet was never rate-limited"
    );
    assert!(stats.committed > 0, "nothing committed through consensus");
    let flooded = blocks_per_sec(&run);
    assert!(
        flooded >= 0.8 * unloaded,
        "the flood dragged consensus to {flooded:.1} blocks/s from {unloaded:.1} unloaded"
    );
}
