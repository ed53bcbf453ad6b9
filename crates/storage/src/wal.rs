//! The append-only write-ahead log of durable chain state.
//!
//! Two layers:
//!
//! * [`Wal`] — the raw segment: CRC-framed byte records appended to one
//!   file, each append followed by `fdatasync`, with recovery that scans
//!   from the start and **truncates** the first torn, bit-flipped or
//!   undecodable tail record instead of failing (a `kill -9` mid-append
//!   loses at most the record being written, never the prefix).
//! * [`ChainWal`] — the typed log the consensus layer writes through: one
//!   [`WalRecord`] per committed block (with the QC certifying it, when
//!   known) and per entered view, encoded with the same
//!   [`wire`](iniva_net::wire) codec the transport ships, so the modeled
//!   and durable representations cannot drift apart.
//!
//! Record framing on disk:
//!
//! ```text
//! u32-le body length | u32-le crc32(body) | body bytes
//! ```
//!
//! Durability stance: an append that fails to reach the disk **panics**
//! (fail-stop). A replica that kept running after a failed fsync would
//! vote on state it may not remember after the next crash — the exact
//! safety violation the log exists to prevent.

use crate::crc32::crc32;
use iniva_consensus::chain::CommitSink;
use iniva_consensus::types::{Block, Qc};
use iniva_crypto::multisig::VoteScheme;
use iniva_net::wire::{Decoder, Encoder, WireDecode, WireEncode};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Name of the log file inside a replica's WAL directory.
pub const WAL_FILE: &str = "chain.wal";

/// Upper bound on one record body; a length prefix beyond this is treated
/// as tail corruption (never allocated for).
pub const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

/// Bytes of framing per record (length + checksum).
const RECORD_HEADER: usize = 8;

/// Observability sink of a [`Wal`], bound via [`Wal::set_observability`]:
/// fsync latency and volume series plus per-fsync trace events.
struct WalObs {
    fsync_ns: iniva_obs::Histogram,
    syncs: iniva_obs::Counter,
    bytes: iniva_obs::Counter,
    tracer: iniva_obs::Tracer,
}

/// The raw CRC-framed append-only segment.
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes of intact records currently on disk.
    len: u64,
    /// Data syncs issued so far (test/diagnostic hook: batch appends must
    /// not multiply fsyncs).
    syncs: u64,
    /// Metrics/tracing sink; `None` (free) unless bound.
    obs: Option<WalObs>,
}

impl Wal {
    /// Opens (creating if absent) the segment at `path` and recovers its
    /// intact record prefix: every record up to the first torn, oversized
    /// or checksum-failing one. The corrupt tail, if any, is truncated
    /// away so subsequent appends extend a clean log.
    ///
    /// # Errors
    /// I/O errors opening, reading or truncating the file. Corruption is
    /// **not** an error — it is repaired.
    pub fn open(path: &Path) -> io::Result<(Self, Vec<Vec<u8>>)> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        // Make the file's *existence* durable too: fdatasync covers the
        // contents but not the directory entry — without this, a power
        // cut right after the first run can roll back to "no log at
        // all", silently discarding a synced prefix. (Best-effort on
        // platforms where directories cannot be opened/synced.)
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut records = Vec::new();
        let mut offset = 0usize;
        while let Some((body, next)) = next_record(&bytes, offset) {
            records.push(body);
            offset = next;
        }
        if offset < bytes.len() {
            // Torn or corrupt tail: drop it so the next append starts at a
            // record boundary.
            file.set_len(offset as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(offset as u64))?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                len: offset as u64,
                syncs: 0,
                obs: None,
            },
            records,
        ))
    }

    /// Binds fsync metrics (`wal.fsync_ns`, `wal.syncs`, `wal.bytes`) and
    /// per-fsync trace events. The tracer timestamps events with its own
    /// clock ([`iniva_obs::Tracer::live`]), so hand it one built on the
    /// same epoch as the replica's runtime.
    pub fn set_observability(&mut self, registry: &iniva_obs::Registry, tracer: iniva_obs::Tracer) {
        self.obs = Some(WalObs {
            fsync_ns: registry.histogram("wal.fsync_ns"),
            syncs: registry.counter("wal.syncs"),
            bytes: registry.counter("wal.bytes"),
            tracer,
        });
    }

    /// Frames one record body into `framed`, validating its size.
    fn frame_into(framed: &mut Vec<u8>, body: &[u8]) -> io::Result<()> {
        let len = u32::try_from(body.len())
            .ok()
            .filter(|&l| l <= MAX_RECORD_BYTES)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "oversized WAL record"))?;
        framed.extend_from_slice(&len.to_le_bytes());
        framed.extend_from_slice(&crc32(body).to_le_bytes());
        framed.extend_from_slice(body);
        Ok(())
    }

    /// Appends one record and syncs it to disk.
    ///
    /// # Errors
    /// The record exceeds [`MAX_RECORD_BYTES`], or the write/sync failed —
    /// in which case the in-memory length is left unchanged (the partial
    /// record, if any, will be truncated by the next recovery).
    pub fn append(&mut self, body: &[u8]) -> io::Result<()> {
        self.write_and_sync(&[body])
    }

    /// Appends every record in `bodies` and syncs them to disk under a
    /// **single** `fdatasync` — the commit path batches multi-block
    /// commits through here so larger (BLS-sized) records don't multiply
    /// sync stalls. Atomicity is per *record*, not per batch: a crash
    /// mid-batch loses the torn tail record and everything after it, never
    /// the already-framed prefix (recovery truncates at the tear, exactly
    /// as for single appends).
    ///
    /// # Errors
    /// Any record exceeds [`MAX_RECORD_BYTES`] (nothing is written), or
    /// the write/sync failed — the in-memory length is left unchanged and
    /// the partial tail, if any, is truncated by the next recovery. An
    /// empty batch is a no-op (no sync).
    pub fn append_batch(&mut self, bodies: &[Vec<u8>]) -> io::Result<()> {
        let refs: Vec<&[u8]> = bodies.iter().map(Vec::as_slice).collect();
        self.write_and_sync(&refs)
    }

    fn write_and_sync(&mut self, bodies: &[&[u8]]) -> io::Result<()> {
        if bodies.is_empty() {
            return Ok(());
        }
        let total: usize = bodies.iter().map(|b| RECORD_HEADER + b.len()).sum();
        let mut framed = Vec::with_capacity(total);
        for body in bodies {
            Self::frame_into(&mut framed, body)?;
        }
        let t0 = self.obs.as_ref().map(|_| std::time::Instant::now());
        self.file.write_all(&framed)?;
        self.file.sync_data()?;
        self.syncs += 1;
        self.len += framed.len() as u64;
        if let (Some(obs), Some(t0)) = (&self.obs, t0) {
            let wall_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            obs.fsync_ns.record(wall_ns);
            obs.syncs.inc();
            obs.bytes.add(framed.len() as u64);
            obs.tracer.emit(
                obs.tracer.now(),
                iniva_obs::EventKind::WalFsync {
                    wall_ns,
                    bytes: framed.len() as u64,
                },
            );
        }
        Ok(())
    }

    /// Data syncs issued since this handle was opened.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Truncates the segment to its first `keep` records, where `records`
    /// is the slice returned by [`Self::open`]. A typed layer uses this to
    /// discard a CRC-intact tail it cannot *decode* (a record written by
    /// a different schema version): leaving such a record in place would
    /// poison the log — every future replay would stop there, silently
    /// hiding everything appended after it.
    ///
    /// # Errors
    /// I/O errors truncating or syncing.
    pub fn truncate_records(&mut self, records: &[Vec<u8>], keep: usize) -> io::Result<()> {
        let offset: u64 = records[..keep]
            .iter()
            .map(|r| (RECORD_HEADER + r.len()) as u64)
            .sum();
        if offset >= self.len {
            return Ok(());
        }
        self.file.set_len(offset)?;
        self.file.sync_data()?;
        self.file.seek(SeekFrom::Start(offset))?;
        self.len = offset;
        Ok(())
    }

    /// Bytes of intact records on disk.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The segment's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Parses the record starting at `offset`; `None` on a torn, oversized or
/// checksum-failing record (i.e. the end of the intact prefix).
fn next_record(bytes: &[u8], offset: usize) -> Option<(Vec<u8>, usize)> {
    let header = bytes.get(offset..offset + RECORD_HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    if len > MAX_RECORD_BYTES {
        return None;
    }
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    let start = offset + RECORD_HEADER;
    let body = bytes.get(start..start + len as usize)?;
    if crc32(body) != crc {
        return None;
    }
    Some((body.to_vec(), start + len as usize))
}

/// One durable chain event.
#[derive(Debug, Clone)]
pub enum WalRecord<S: VoteScheme> {
    /// A block reached the committed prefix; `qc` is the certificate for
    /// *this* block when the replica had observed one by commit time
    /// (blocks committed as ancestors of a three-chain tip may lack it).
    Commit {
        /// The committed block.
        block: Block,
        /// The QC certifying `block`, if observed.
        qc: Option<Qc<S>>,
    },
    /// The replica entered `view` (monotonic; the last one wins).
    View {
        /// The entered view.
        view: u64,
    },
}

impl<S: VoteScheme> WireEncode for WalRecord<S>
where
    S::Aggregate: WireEncode,
{
    fn encode(&self, enc: &mut Encoder) {
        match self {
            WalRecord::Commit { block, qc } => {
                enc.put_u8(0);
                block.encode(enc);
                enc.put_opt(qc);
            }
            WalRecord::View { view } => {
                enc.put_u8(1).put_u64(*view);
            }
        }
    }
}

impl<S: VoteScheme> WireDecode for WalRecord<S>
where
    S::Aggregate: WireDecode,
{
    fn decode(dec: &mut Decoder) -> Result<Self, iniva_net::wire::DecodeError> {
        match dec.get_u8()? {
            0 => Ok(WalRecord::Commit {
                block: Block::decode(dec)?,
                qc: dec.get_opt()?,
            }),
            1 => Ok(WalRecord::View {
                view: dec.get_u64()?,
            }),
            tag => Err(iniva_net::wire::DecodeError::InvalidTag {
                tag,
                context: "WalRecord",
            }),
        }
    }
}

/// The chain state recovered from a [`ChainWal`].
#[derive(Debug)]
pub struct Recovered<S: VoteScheme> {
    /// The committed prefix, ascending by height, with per-block QCs where
    /// the log has them.
    pub commits: Vec<(Block, Option<Qc<S>>)>,
    /// The highest view the replica had entered (0 for a fresh log).
    pub view: u64,
}

impl<S: VoteScheme> Default for Recovered<S> {
    fn default() -> Self {
        Recovered {
            commits: Vec::new(),
            view: 0,
        }
    }
}

/// The typed write-ahead log of one replica's chain: committed blocks with
/// their QCs, plus the current view. Implements [`CommitSink`], so
/// plugging it into a `ChainState` makes every commit durable before the
/// replica acts on it further.
pub struct ChainWal<S: VoteScheme> {
    wal: Wal,
    _scheme: std::marker::PhantomData<fn() -> S>,
}

impl<S: VoteScheme> ChainWal<S>
where
    S::Aggregate: WireEncode + WireDecode,
{
    /// Opens the log under `dir` (creating the directory as needed) and
    /// replays it into a [`Recovered`] snapshot: the committed prefix in
    /// height order plus the last recorded view. Records whose CRC is
    /// intact but whose body no longer decodes (a schema from a different
    /// build) end the replay at the last understood record, mirroring the
    /// raw layer's truncate-the-tail stance.
    ///
    /// # Errors
    /// I/O errors from the underlying [`Wal::open`].
    pub fn open(dir: &Path) -> io::Result<(Self, Recovered<S>)> {
        let (mut wal, raw) = Wal::open(&dir.join(WAL_FILE))?;
        let mut recovered = Recovered::default();
        let mut understood = 0usize;
        for body in &raw {
            let mut dec = Decoder::new(bytes::Bytes::from(body.clone()));
            let Ok(record) = WalRecord::<S>::decode(&mut dec) else {
                break;
            };
            if dec.remaining() > 0 {
                break;
            }
            understood += 1;
            match record {
                WalRecord::Commit { block, qc } => {
                    // Heights must ascend (the committed log may contain
                    // gaps, but never regressions); a replay glitch
                    // (duplicate append before a crash) is idempotent.
                    let last = recovered.commits.last().map_or(0, |(b, _)| b.height);
                    if block.height > last {
                        recovered.commits.push((block, qc));
                    }
                }
                WalRecord::View { view } => {
                    recovered.view = recovered.view.max(view);
                }
            }
        }
        if understood < raw.len() {
            // A CRC-intact record this build cannot decode must be cut
            // out, not skipped over: appends land after the live tail,
            // and a poison record mid-log would end every future replay
            // there — permanently hiding the commits journaled after it.
            wal.truncate_records(&raw, understood)?;
        }
        Ok((
            ChainWal {
                wal,
                _scheme: std::marker::PhantomData,
            },
            recovered,
        ))
    }

    /// Durably appends one committed block (and its QC, when known).
    ///
    /// # Errors
    /// Propagates the underlying write/sync failure.
    pub fn append_commit(&mut self, block: &Block, qc: Option<&Qc<S>>) -> io::Result<()> {
        let record: WalRecord<S> = WalRecord::Commit {
            block: block.clone(),
            qc: qc.cloned(),
        };
        self.wal.append(&record.to_wire())
    }

    /// Durably appends a whole batch of committed blocks under a
    /// **single** fsync — the three-chain rule can commit several blocks
    /// at once, and per-block syncs would multiply the stall now that QC
    /// records carry real (48-byte-point + per-signer) BLS aggregates.
    /// Record framing is identical to per-block appends, so recovery
    /// treats a torn batch tail exactly like a torn single append: the
    /// torn record and everything after it is truncated, the prefix
    /// survives.
    ///
    /// # Errors
    /// Propagates the underlying write/sync failure.
    pub fn append_batch(&mut self, items: &[(Block, Option<Qc<S>>)]) -> io::Result<()> {
        let bodies: Vec<Vec<u8>> = items
            .iter()
            .map(|(block, qc)| {
                let record: WalRecord<S> = WalRecord::Commit {
                    block: block.clone(),
                    qc: qc.clone(),
                };
                record.to_wire().to_vec()
            })
            .collect();
        self.wal.append_batch(&bodies)
    }

    /// Durably records that the replica entered `view`.
    ///
    /// # Errors
    /// Propagates the underlying write/sync failure.
    pub fn append_view(&mut self, view: u64) -> io::Result<()> {
        let record: WalRecord<S> = WalRecord::View { view };
        self.wal.append(&record.to_wire())
    }

    /// The underlying segment (test/diagnostic hook).
    pub fn segment(&self) -> &Wal {
        &self.wal
    }

    /// Binds fsync observability on the underlying segment (see
    /// [`Wal::set_observability`]).
    pub fn set_observability(&mut self, registry: &iniva_obs::Registry, tracer: iniva_obs::Tracer) {
        self.wal.set_observability(registry, tracer);
    }
}

impl<S: VoteScheme> CommitSink<S> for ChainWal<S>
where
    S::Aggregate: WireEncode + WireDecode,
{
    fn committed(&mut self, items: &[(Block, Option<Qc<S>>)]) {
        self.append_batch(items)
            .expect("WAL batch append failed; fail-stop to preserve durability");
    }

    fn entered_view(&mut self, view: u64) {
        self.append_view(view)
            .expect("WAL append failed; fail-stop to preserve durability");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iniva_consensus::types::vote_message;
    use iniva_crypto::sim_scheme::SimScheme;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iniva-wal-{name}-{}", std::process::id(),));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn block_at(height: u64) -> Block {
        Block {
            view: height,
            height,
            parent: [height as u8; 32],
            proposer: 0,
            batch_start: height * 10,
            batch_len: 10,
            payload_per_req: 64,
        }
    }

    fn qc_for(s: &SimScheme, b: &Block) -> Qc<SimScheme> {
        let msg = vote_message(&b.hash(), b.view);
        let mut agg = s.sign(0, &msg);
        for i in 1..3 {
            agg = s.combine(&agg, &s.sign(i, &msg));
        }
        Qc {
            block_hash: b.hash(),
            view: b.view,
            height: b.height,
            agg,
        }
    }

    #[test]
    fn raw_records_roundtrip_across_reopen() {
        let dir = tmp_dir("raw");
        let path = dir.join("seg.wal");
        let (mut wal, recovered) = Wal::open(&path).unwrap();
        assert!(recovered.is_empty());
        wal.append(b"alpha").unwrap();
        wal.append(b"").unwrap();
        wal.append(&[7u8; 1000]).unwrap();
        drop(wal);
        let (wal, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.len(), 3);
        assert_eq!(recovered[0], b"alpha");
        assert_eq!(recovered[1], b"");
        assert_eq!(recovered[2], vec![7u8; 1000]);
        assert!(!wal.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = tmp_dir("torn");
        let path = dir.join("seg.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(b"keep-me").unwrap();
        wal.append(b"lose-my-tail").unwrap();
        drop(wal);
        // Tear the last record mid-body, as a crash mid-write would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (mut wal, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered, vec![b"keep-me".to_vec()]);
        // The log is clean again: appends land on a record boundary.
        wal.append(b"after-repair").unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(
            recovered,
            vec![b"keep-me".to_vec(), b"after-repair".to_vec()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_append_syncs_once_and_recovers() {
        let dir = tmp_dir("batch");
        let s = SimScheme::new(4, b"wal-batch");
        let (mut wal, _) = ChainWal::<SimScheme>::open(&dir).unwrap();
        let items: Vec<(Block, Option<Qc<SimScheme>>)> = (1..=5u64)
            .map(|h| {
                let b = block_at(h);
                let qc = qc_for(&s, &b);
                (b, Some(qc))
            })
            .collect();
        wal.append_batch(&items).unwrap();
        assert_eq!(
            wal.segment().syncs(),
            1,
            "one fsync must cover the whole batch"
        );
        // An empty batch is a no-op, not a gratuitous sync.
        wal.append_batch(&[]).unwrap();
        assert_eq!(wal.segment().syncs(), 1);
        drop(wal);
        let (_, recovered) = ChainWal::<SimScheme>::open(&dir).unwrap();
        assert_eq!(recovered.commits.len(), 5);
        for (i, (b, qc)) in recovered.commits.iter().enumerate() {
            assert_eq!(b.height, i as u64 + 1);
            let qc = qc.as_ref().expect("QC persisted");
            assert!(s.verify(&vote_message(&b.hash(), b.view), &qc.agg));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_batch_tail_truncates_to_intact_records() {
        let dir = tmp_dir("batch-torn");
        let (mut wal, _) = ChainWal::<SimScheme>::open(&dir).unwrap();
        let items: Vec<(Block, Option<Qc<SimScheme>>)> =
            (1..=3u64).map(|h| (block_at(h), None)).collect();
        wal.append_batch(&items).unwrap();
        drop(wal);
        // Tear the batch mid-third-record, as a crash mid-batch-write
        // would: the first two records must survive recovery, and the log
        // must be appendable again at a record boundary.
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut wal, recovered) = ChainWal::<SimScheme>::open(&dir).unwrap();
        let heights: Vec<u64> = recovered.commits.iter().map(|(b, _)| b.height).collect();
        assert_eq!(heights, vec![1, 2], "torn batch tail dropped, prefix kept");
        wal.append_commit(&block_at(3), None).unwrap();
        drop(wal);
        let (_, recovered) = ChainWal::<SimScheme>::open(&dir).unwrap();
        let heights: Vec<u64> = recovered.commits.iter().map(|(b, _)| b.height).collect();
        assert_eq!(heights, vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chain_wal_recovers_commits_and_view() {
        let dir = tmp_dir("chain");
        let s = SimScheme::new(4, b"wal-test");
        let (mut wal, recovered) = ChainWal::<SimScheme>::open(&dir).unwrap();
        assert!(recovered.commits.is_empty());
        assert_eq!(recovered.view, 0);
        for h in 1..=5u64 {
            let b = block_at(h);
            let qc = qc_for(&s, &b);
            wal.append_commit(&b, if h == 3 { None } else { Some(&qc) })
                .unwrap();
            wal.append_view(h + 2).unwrap();
        }
        drop(wal);
        let (_, recovered) = ChainWal::<SimScheme>::open(&dir).unwrap();
        assert_eq!(recovered.commits.len(), 5);
        assert_eq!(recovered.view, 7);
        for (i, (b, qc)) in recovered.commits.iter().enumerate() {
            assert_eq!(b.height, i as u64 + 1);
            assert_eq!(qc.is_none(), b.height == 3);
            if let Some(qc) = qc {
                assert_eq!(qc.block_hash, b.hash());
                assert!(s.verify(&vote_message(&b.hash(), b.view), &qc.agg));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_record_is_cut_out_not_skipped() {
        let dir = tmp_dir("poison");
        let (mut wal, _) = ChainWal::<SimScheme>::open(&dir).unwrap();
        wal.append_commit(&block_at(1), None).unwrap();
        drop(wal);
        // Plant a CRC-intact record from a "future schema" (unknown tag):
        // the raw layer accepts it, the typed replay cannot decode it.
        let (mut raw, _) = Wal::open(&dir.join(WAL_FILE)).unwrap();
        raw.append(&[0xEE, 1, 2, 3]).unwrap();
        drop(raw);
        // Reopen: replay stops at the poison record AND the segment is
        // truncated there, so commits appended now stay recoverable.
        let (mut wal, recovered) = ChainWal::<SimScheme>::open(&dir).unwrap();
        assert_eq!(recovered.commits.len(), 1);
        wal.append_commit(&block_at(2), None).unwrap();
        drop(wal);
        let (_, recovered) = ChainWal::<SimScheme>::open(&dir).unwrap();
        assert_eq!(
            recovered.commits.len(),
            2,
            "post-poison appends must survive the next recovery"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chain_wal_roundtrips_bls_records() {
        // The WAL is scheme-generic: real BLS records — 48-byte compressed
        // G1 points inside the QC — must survive the disk round-trip and
        // still verify after recovery.
        use iniva_crypto::bls::BlsScheme;
        let dir = tmp_dir("bls");
        let s = BlsScheme::new(4, b"wal-bls");
        let (mut wal, _) = ChainWal::<BlsScheme>::open(&dir).unwrap();
        let b = block_at(1);
        let msg = vote_message(&b.hash(), b.view);
        let mut agg = s.sign(0, &msg);
        for i in 1..3 {
            agg = s.combine(&agg, &s.sign(i, &msg));
        }
        let qc = Qc {
            block_hash: b.hash(),
            view: b.view,
            height: b.height,
            agg,
        };
        wal.append_batch(&[(b.clone(), Some(qc))]).unwrap();
        wal.append_view(4).unwrap();
        drop(wal);
        let (_, recovered) = ChainWal::<BlsScheme>::open(&dir).unwrap();
        assert_eq!(recovered.view, 4);
        assert_eq!(recovered.commits.len(), 1);
        let (rb, rqc) = &recovered.commits[0];
        assert_eq!(rb.hash(), b.hash());
        let rqc = rqc.as_ref().expect("QC recovered");
        assert!(s.verify(&vote_message(&rb.hash(), rb.view), &rqc.agg));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_keeps_heights_ascending() {
        let dir = tmp_dir("ascending");
        let (mut wal, _) = ChainWal::<SimScheme>::open(&dir).unwrap();
        wal.append_commit(&block_at(1), None).unwrap();
        wal.append_commit(&block_at(1), None).unwrap(); // duplicate: ignored
        wal.append_commit(&block_at(2), None).unwrap();
        wal.append_commit(&block_at(9), None).unwrap(); // gap: legitimate
        wal.append_commit(&block_at(4), None).unwrap(); // regression: ignored
        drop(wal);
        let (_, recovered) = ChainWal::<SimScheme>::open(&dir).unwrap();
        let heights: Vec<u64> = recovered.commits.iter().map(|(b, _)| b.height).collect();
        assert_eq!(heights, vec![1, 2, 9]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
