//! The client side: the ingress-client listener and one [`ClientSession`]
//! per accepted socket, speaking the `iniva-ingress` wire protocol on the
//! node's reactor. Sessions share no state with the peer fabric, so they
//! are sources for any reactor context.

use super::{accept_all, would_block, READ_CHUNK};
use crate::reactor::{Action, Ctl, Handle, Interest, Source};
use iniva_ingress::wire::frame_len;
use iniva_ingress::{ClientMsg, CommitInbox, IngressOptions, Mempool, SubmitStatus, TokenBucket};
use iniva_net::wire::Codec;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// A client session buffering more than this much un-flushed reply data
/// is judged non-draining and dropped: consensus never waits on, and the
/// node never buffers without bound for, a slow client socket.
const CLIENT_WBUF_CAP: usize = 256 * 1024;

/// What every ingress-client source shares.
pub(crate) struct ClientCtx {
    pub(crate) mempool: Arc<Mempool>,
    pub(crate) opts: IngressOptions,
    /// For commit-push wakers: the inbox fills on whichever replica's
    /// thread commits, and must wake this node's poller to flush.
    pub(crate) handle: Handle,
}

/// Accepts ingress-client connections onto the shared poller.
pub(crate) struct ClientListener {
    pub(crate) listener: TcpListener,
    pub(crate) ctx: Arc<ClientCtx>,
}

impl<C> Source<C> for ClientListener {
    fn ready(&mut self, ctl: &mut Ctl<'_, C>, _readable: bool, _writable: bool) -> Action {
        let ctx = &self.ctx;
        accept_all(&self.listener, ctl, |stream| {
            Box::new(ClientSession {
                stream,
                client: ctx.mempool.next_client_id(),
                ctx: Arc::clone(ctx),
                bucket: TokenBucket::new(ctx.opts.rate_per_client, ctx.opts.burst),
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                inbox: None,
            })
        })
    }
}

/// One ingress-client connection: the `iniva-ingress` submit / query /
/// follow protocol served on the poller, without a thread per client.
/// Per submit: bounded frame decode → token-bucket check (a client over
/// budget gets a `Busy` ack that touches no shared state) → mempool
/// admission → ack.
struct ClientSession {
    stream: TcpStream,
    client: u64,
    ctx: Arc<ClientCtx>,
    bucket: TokenBucket,
    rbuf: Vec<u8>,
    /// Pending reply bytes; `wpos` bytes of the front already written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Present after a `Follow`: commit notes to push.
    inbox: Option<Arc<CommitInbox>>,
}

impl ClientSession {
    /// Queues a reply frame; `false` (tear the session down) if the encoded
    /// body can not be framed.
    #[must_use]
    fn enqueue(&mut self, msg: &ClientMsg) -> bool {
        let body = msg.to_frame();
        let Ok(len) = u32::try_from(body.len()) else {
            return false; // reply exceeds the u32 length prefix: drop client
        };
        self.wbuf.extend_from_slice(&len.to_le_bytes());
        self.wbuf.extend_from_slice(&body);
        true
    }

    /// Decodes every complete frame buffered, sharing one allocation
    /// across the batch (the peer path's zero-copy discipline; a Submit
    /// payload is never copied before admission inspects it).
    fn drain<C>(&mut self, ctl: &mut Ctl<'_, C>) -> Action {
        match frame_len(&self.rbuf) {
            Ok(Some(_)) => {}
            Ok(None) => return Action::Keep,
            Err(_) => return Action::Drop, // hostile length prefix
        }
        let shared = bytes::Bytes::from(std::mem::take(&mut self.rbuf));
        let mut offset = 0usize;
        let verdict = loop {
            match frame_len(&shared[offset..]) {
                Ok(None) => break Action::Keep,
                Err(_) => break Action::Drop,
                Ok(Some(len)) => {
                    let body = shared.slice(offset + 4..offset + 4 + len);
                    offset += 4 + len;
                    let Ok(msg) = ClientMsg::from_frame(body) else {
                        break Action::Drop;
                    };
                    if self.handle_msg(ctl, msg) == Action::Drop {
                        break Action::Drop;
                    }
                }
            }
        };
        if verdict == Action::Keep && offset < shared.len() {
            self.rbuf.extend_from_slice(&shared[offset..]);
        }
        verdict
    }

    fn handle_msg<C>(&mut self, ctl: &mut Ctl<'_, C>, msg: ClientMsg) -> Action {
        match msg {
            ClientMsg::Submit {
                fee,
                nonce,
                payload,
            } => {
                let status = if self.bucket.try_take() {
                    self.ctx
                        .mempool
                        .submit(self.client, nonce, fee, payload.len())
                } else {
                    self.ctx.mempool.note_rate_limited();
                    SubmitStatus::Busy
                };
                if !self.enqueue(&ClientMsg::SubmitAck { nonce, status }) {
                    return Action::Drop;
                }
            }
            ClientMsg::Query { height } => {
                let committed_height = self.ctx.mempool.committed_height();
                if !self.enqueue(&ClientMsg::QueryResponse {
                    height,
                    committed_height,
                    committed: height <= committed_height && committed_height > 0,
                }) {
                    return Action::Drop;
                }
            }
            ClientMsg::Follow => {
                if self.inbox.is_none() {
                    let inbox = self.ctx.mempool.follow(self.client);
                    let handle = self.ctx.handle.clone();
                    let token = ctl.token();
                    inbox.set_waker(Box::new(move || handle.notify(token)));
                    self.inbox = Some(inbox);
                }
            }
            // Server-to-client messages arriving here mean a broken peer.
            ClientMsg::SubmitAck { .. }
            | ClientMsg::QueryResponse { .. }
            | ClientMsg::Committed { .. } => return Action::Drop,
        }
        Action::Keep
    }

    /// Turns pending commit notes into `Committed` frames; `false` tears
    /// the session down.
    #[must_use]
    fn push_commits(&mut self) -> bool {
        if let Some(inbox) = self.inbox.clone() {
            for note in inbox.drain() {
                if !self.enqueue(&ClientMsg::Committed {
                    nonce: note.nonce,
                    height: note.height,
                }) {
                    return false;
                }
            }
        }
        true
    }

    fn flush<C>(&mut self, ctl: &mut Ctl<'_, C>) -> Action {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Action::Drop,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if would_block(&e) => {
                    if self.wbuf.len() - self.wpos > CLIENT_WBUF_CAP {
                        return Action::Drop; // non-draining client
                    }
                    ctl.set_interest(Interest::BOTH);
                    return Action::Keep;
                }
                Err(_) => return Action::Drop,
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        ctl.set_interest(Interest::READ);
        Action::Keep
    }
}

impl<C> Source<C> for ClientSession {
    fn ready(&mut self, ctl: &mut Ctl<'_, C>, readable: bool, _writable: bool) -> Action {
        if readable {
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => return Action::Drop,
                    Ok(n) => {
                        self.rbuf.extend_from_slice(&chunk[..n]);
                        if self.drain(ctl) == Action::Drop {
                            return Action::Drop;
                        }
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if would_block(&e) => break,
                    Err(_) => return Action::Drop,
                }
            }
        }
        if !self.push_commits() {
            return Action::Drop;
        }
        self.flush(ctl)
    }

    fn notified(&mut self, ctl: &mut Ctl<'_, C>) -> Action {
        if !self.push_commits() {
            return Action::Drop;
        }
        self.flush(ctl)
    }
}

impl Drop for ClientSession {
    fn drop(&mut self) {
        if self.inbox.is_some() {
            self.ctx.mempool.unfollow(self.client);
        }
    }
}
