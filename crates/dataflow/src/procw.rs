//! The worker-process side of the multi-process executor backend.
//!
//! A worker is one OS process owning the partition shards of one executor
//! slot. It connects back to the driver's Unix socket, announces itself
//! with a `Hello { slot, epoch }` frame, then serves requests from a
//! sequential frame loop: `Run` a named [`crate::ops`] operator (outputs
//! land in the worker's `OpStore`), `Get` a stored block's
//! bytes (the remote shuffle-fetch path), `Stats`, `Shutdown`. A separate
//! thread writes `Heartbeat` keepalives every half heartbeat interval —
//! those are the *only* liveness signal the driver has, so a `SIGKILL`ed
//! worker goes silent and is detected by missed heartbeats, exactly like
//! a dead executor process in a real cluster.
//!
//! The worker holds no lineage and no recovery logic: it is a dumb,
//! deterministic block holder. Everything it stores can be regenerated
//! bit-identically by re-running the same operators on a replacement
//! incarnation, which is what the driver's lineage replay does.

use crate::frame::FrameError;
use crate::ops::OpStore;
use crate::sync::Mutex;
use crate::wire::{self, Frame, ReplyBody, RequestBody};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a worker process needs to come up: where to connect and who it is.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Path of the driver's Unix listener socket.
    pub socket: std::path::PathBuf,
    /// Executor slot this worker owns.
    pub slot: u64,
    /// Incarnation it was spawned for.
    pub epoch: u64,
    /// Keepalive spacing (already halved and clamped by the driver).
    pub heartbeat: Duration,
}

/// The worker's operator store plus the op-progress counter its
/// heartbeats report.
struct WorkerState {
    epoch: u64,
    store: OpStore,
    op_progress: Arc<AtomicU64>,
}

impl WorkerState {
    fn handle(&mut self, body: RequestBody) -> ReplyBody {
        match body {
            RequestBody::Run {
                op,
                args,
                inputs,
                out_keys,
            } => match self
                .store
                .run(&op, &args, &inputs, &out_keys, &self.op_progress)
            {
                Ok(metas) => ReplyBody::RunOk(metas),
                Err(msg) => ReplyBody::OpError(msg),
            },
            RequestBody::Get { key } => match self.store.get(key) {
                Some(bytes) => ReplyBody::GetOk(bytes),
                None => ReplyBody::NotFound,
            },
            RequestBody::Stats => ReplyBody::StatsOk(self.store.stats(self.epoch)),
            RequestBody::Shutdown => ReplyBody::ShuttingDown,
        }
    }
}

/// Runs the worker until the driver shuts it down or the connection dies;
/// returns the process exit code. Called by the `spangle_worker` binary.
pub fn worker_main(cfg: &WorkerConfig) -> i32 {
    let stream = match UnixStream::connect(&cfg.socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("spangle_worker: connect {:?}: {e}", cfg.socket);
            return 1;
        }
    };
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("spangle_worker: clone stream: {e}");
            return 1;
        }
    };
    let writer = Arc::new(Mutex::new(stream));
    if wire::write_frame(
        &mut *writer.lock(),
        &Frame::Hello {
            slot: cfg.slot,
            epoch: cfg.epoch,
        },
    )
    .is_err()
    {
        return 1;
    }

    let op_progress = Arc::new(AtomicU64::new(0));
    {
        // Keepalives ride their own thread so a long operator body cannot
        // silence the worker: heartbeat silence must mean the *process*
        // is gone. The thread exits with the process when a write fails
        // (driver gone) — no join needed.
        let writer = Arc::clone(&writer);
        let op_progress = Arc::clone(&op_progress);
        let interval = cfg.heartbeat;
        std::thread::spawn(move || {
            let mut beats = 0u64;
            loop {
                beats += 1;
                let frame = Frame::Heartbeat {
                    beats,
                    op_progress: op_progress.load(Ordering::Relaxed),
                };
                if wire::write_frame(&mut *writer.lock(), &frame).is_err() {
                    std::process::exit(0);
                }
                std::thread::sleep(interval);
            }
        });
    }

    let mut state = WorkerState {
        epoch: cfg.epoch,
        store: OpStore::default(),
        op_progress,
    };
    loop {
        match wire::read_frame(&mut reader) {
            Ok(Frame::Request { req_id, body }) => {
                let reply = state.handle(body);
                let is_shutdown = matches!(reply, ReplyBody::ShuttingDown);
                if wire::write_frame(
                    &mut *writer.lock(),
                    &Frame::Reply {
                        req_id,
                        body: reply,
                    },
                )
                .is_err()
                    || is_shutdown
                {
                    return 0;
                }
            }
            // Workers only expect requests; a stray frame is ignored so a
            // future protocol extension stays backwards-compatible.
            Ok(_) => {}
            // The driver closed the socket (context drop): exit quietly.
            Err(FrameError::Eof) => return 0,
            Err(e) => {
                eprintln!("spangle_worker[{}]: {e}", cfg.slot);
                return 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_map_onto_the_store_and_back_to_replies() {
        use crate::wire::OpInput;
        let mut state = WorkerState {
            epoch: 3,
            store: OpStore::default(),
            op_progress: Arc::new(AtomicU64::new(0)),
        };
        let payload = crate::ops::encode_pairs(&[(1, 2)]);
        let run = RequestBody::Run {
            op: "test.echo".into(),
            args: vec![],
            inputs: vec![OpInput::Inline(payload.clone())],
            out_keys: vec![(9, 0)],
        };
        let ReplyBody::RunOk(metas) = state.handle(run.clone()) else {
            panic!("run must succeed");
        };
        assert_eq!(metas[0].len, payload.len() as u64);
        assert!(matches!(state.handle(run), ReplyBody::RunOk(m) if m == metas));
        let ReplyBody::GetOk(bytes) = state.handle(RequestBody::Get { key: (9, 0) }) else {
            panic!("stored block must be fetchable");
        };
        assert_eq!(bytes, payload);
        assert!(matches!(
            state.handle(RequestBody::Get { key: (9, 1) }),
            ReplyBody::NotFound
        ));
        let ReplyBody::StatsOk(stats) = state.handle(RequestBody::Stats) else {
            panic!("stats must answer");
        };
        assert_eq!((stats.blocks, stats.epoch), (1, 3));
        let failed = state.handle(RequestBody::Run {
            op: "test.fail".into(),
            args: b"kaput".to_vec(),
            inputs: vec![],
            out_keys: vec![],
        });
        assert!(matches!(failed, ReplyBody::OpError(msg) if msg == "kaput"));
    }
}
