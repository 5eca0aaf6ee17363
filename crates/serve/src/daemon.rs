//! `tlrd` — the cross-process snapshot server.
//!
//! A [`Daemon`] owns a [`SnapshotRegistry`] and exposes it over a
//! Unix-domain socket speaking the [`crate::proto`] protocol, so many
//! simulator *processes* share one resident pool of warm RTMs instead
//! of each paying its own warm-load. The model is deliberately boring:
//!
//! * **blocking, thread-per-connection** — each accepted client gets a
//!   handler thread; the registry is already sharded and lock-scoped
//!   for exactly this shape of concurrency;
//! * **graceful shutdown** — a [`DaemonHandle`] flips a stop flag and
//!   nudges the accept loop awake; `run` then joins every handler (and
//!   the refresh ticker) and removes the socket file before returning;
//! * **background refresh** — an optional [`RefreshTicker`] rescans the
//!   snapshot directory ([`SnapshotRegistry::refresh`]) on an interval,
//!   so snapshots dropped into the directory by other processes reach
//!   resident entries without a restart. The ticker is independent of
//!   the daemon: in-process `tlrsim serve` uses the same type.
//!
//! A protocol *request* error (unknown program, bad snapshot, geometry
//! mismatch) answers with a named [`crate::proto::Reply::Error`] and
//! keeps the session; a *framing* error (bad length, checksum mismatch,
//! garbage tag) closes the connection, because the byte stream can no
//! longer be trusted. Neither ever takes the daemon down.

use crate::proto::{self, ErrorCode, ProtoError, Reply, Request, PROTOCOL_VERSION};
use crate::registry::{ServeError, SnapshotRegistry};
use std::io::{BufReader, BufWriter};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A bound-but-not-yet-serving `tlrd` instance.
pub struct Daemon {
    listener: UnixListener,
    registry: Arc<SnapshotRegistry>,
    path: PathBuf,
    stop: Arc<AtomicBool>,
}

/// Shuts a running [`Daemon`] down from another thread.
#[derive(Clone)]
pub struct DaemonHandle {
    path: PathBuf,
    stop: Arc<AtomicBool>,
}

impl DaemonHandle {
    /// Ask the daemon to stop: no new connections are accepted, live
    /// handler threads finish their sessions, then
    /// [`Daemon::run`] returns. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept awake; if the daemon is already
        // gone the connect just fails, which is fine.
        let _ = UnixStream::connect(&self.path);
    }
}

impl Daemon {
    /// Bind a daemon for `registry` on the Unix socket at `path`. A
    /// stale socket file from a previous run is removed first; any
    /// other pre-existing file makes the bind fail as it should.
    pub fn bind(path: &Path, registry: Arc<SnapshotRegistry>) -> Result<Daemon, ServeError> {
        // Only unlink something that actually is a socket: never
        // clobber a regular file the caller mistyped.
        if let Ok(meta) = std::fs::symlink_metadata(path) {
            use std::os::unix::fs::FileTypeExt;
            if meta.file_type().is_socket() {
                let _ = std::fs::remove_file(path);
            }
        }
        let listener = UnixListener::bind(path).map_err(|e| {
            ServeError::Proto(ProtoError::Io(std::io::Error::new(
                e.kind(),
                format!("cannot bind {}: {e}", path.display()),
            )))
        })?;
        Ok(Daemon {
            listener,
            registry,
            path: path.to_path_buf(),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The socket path this daemon is bound on.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The registry this daemon serves.
    pub fn registry(&self) -> &Arc<SnapshotRegistry> {
        &self.registry
    }

    /// A handle that can stop this daemon from another thread.
    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle {
            path: self.path.clone(),
            stop: Arc::clone(&self.stop),
        }
    }

    /// Serve until [`DaemonHandle::shutdown`]: accept clients, one
    /// handler thread each. Joins every handler and removes the socket
    /// file before returning.
    pub fn run(self) -> Result<(), ServeError> {
        let result = std::thread::scope(|scope| {
            for conn in self.listener.incoming() {
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match conn {
                    Ok(stream) => stream,
                    // Accept errors (e.g. EMFILE) are transient; keep
                    // serving the clients we have.
                    Err(_) => continue,
                };
                let registry = Arc::clone(&self.registry);
                scope.spawn(move || serve_connection(stream, &registry));
            }
            Ok(())
        });
        let _ = std::fs::remove_file(&self.path);
        result
    }
}

/// One client session: Hello first, then request/reply until EOF or a
/// framing error. Never panics; never takes the registry down.
fn serve_connection(stream: UnixStream, registry: &SnapshotRegistry) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    // Session opening: exactly one Hello with a version we speak.
    match proto::read_request(&mut reader) {
        Ok(Some(Request::Hello { version })) if version == PROTOCOL_VERSION => {
            let reply = Reply::HelloOk {
                version: PROTOCOL_VERSION,
                programs: registry.fingerprints().len() as u64,
            };
            if proto::write_reply(&mut writer, &reply).is_err() {
                return;
            }
        }
        Ok(Some(Request::Hello { version })) => {
            let _ = proto::write_reply(
                &mut writer,
                &Reply::Error {
                    code: ErrorCode::UnsupportedVersion,
                    message: format!(
                        "client speaks protocol version {version}, server speaks \
                         {PROTOCOL_VERSION}"
                    ),
                },
            );
            return;
        }
        Ok(Some(_)) => {
            let _ = proto::write_reply(
                &mut writer,
                &Reply::Error {
                    code: ErrorCode::HelloRequired,
                    message: "the first message of a session must be Hello".into(),
                },
            );
            return;
        }
        Ok(None) => return,
        Err(e) => {
            let _ = proto::write_reply(
                &mut writer,
                &Reply::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("{e}"),
                },
            );
            return;
        }
    }
    loop {
        let request = match proto::read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) => {
                // Framing is broken: answer once if the pipe still
                // works, then hang up.
                let _ = proto::write_reply(
                    &mut writer,
                    &Reply::Error {
                        code: ErrorCode::BadRequest,
                        message: format!("{e}"),
                    },
                );
                return;
            }
        };
        let payload = answer_payload(registry, request);
        let sent = match payload {
            Ok(payload) => proto::write_frame(&mut writer, &payload).is_ok(),
            // Encoding failed (snapshot too large for a frame, say):
            // tell the client by name rather than hanging up silently.
            Err(e) => proto::write_reply(
                &mut writer,
                &Reply::Error {
                    code: ErrorCode::Internal,
                    message: format!("{e}"),
                },
            )
            .is_ok(),
        };
        if !sent {
            return;
        }
    }
}

/// Map one request onto the registry, producing the encoded reply
/// payload. `Get` and `GetShape` answer from the registry's cached
/// serialized image ([`SnapshotRegistry::get_image`]) — repeated fetches
/// of the same resident state share one immutable buffer and never
/// re-serialize.
fn answer_payload(
    registry: &SnapshotRegistry,
    request: Request,
) -> Result<Vec<u8>, proto::ProtoError> {
    let reply = match request {
        Request::Hello { .. } => Reply::Error {
            code: ErrorCode::BadRequest,
            message: "Hello is only valid as the first message".into(),
        },
        Request::Get { fingerprint } => {
            return image_reply(fingerprint, registry.get_image(fingerprint))
        }
        Request::Publish {
            fingerprint,
            snapshot,
        } => match registry.publish(fingerprint, &snapshot) {
            Ok(()) => Reply::PublishOk,
            Err(e) => error_reply(e),
        },
        // Shape resolution installs a resident entry under the client's
        // fingerprint, so the image cache serves it exactly like a plain
        // Get, and the request counts one fetch.
        Request::GetShape { fingerprint, shape } => {
            return image_reply(fingerprint, registry.get_image_by_shape(fingerprint, shape))
        }
        Request::Stats => Reply::Stats(registry.stats()),
        Request::Refresh => match registry.refresh() {
            Ok(outcome) => Reply::RefreshOk {
                new_files: outcome.new_files,
                refreshed: outcome.refreshed,
                skipped: outcome.skipped,
                unchanged: outcome.unchanged,
            },
            Err(e) => error_reply(e),
        },
    };
    proto::encode_reply(&reply)
}

/// A `Snapshot` reply carrying `image`. Zero-copy: the registry's cached
/// image bytes go straight into the reply frame; only the tag/present
/// prefix is new.
fn image_reply(
    fingerprint: u64,
    image: Result<Option<Arc<[u8]>>, ServeError>,
) -> Result<Vec<u8>, proto::ProtoError> {
    match image {
        Ok(image) => Ok(proto::encode_snapshot_reply_image(
            fingerprint,
            image.as_deref(),
        )),
        Err(e) => proto::encode_reply(&error_reply(e)),
    }
}

fn error_reply(e: ServeError) -> Reply {
    let code = match &e {
        ServeError::Persist(_) => ErrorCode::Persist,
        ServeError::Merge(_) => ErrorCode::Merge,
        ServeError::Proto(_) => ErrorCode::Internal,
    };
    Reply::Error {
        code,
        message: format!("{e}"),
    }
}

/// A background thread calling [`SnapshotRegistry::refresh`] on an
/// interval, used by the daemon and by in-process `tlrsim serve` alike.
/// Stops (and joins) on [`RefreshTicker::stop`] or drop.
pub struct RefreshTicker {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RefreshTicker {
    /// Spawn a ticker refreshing `registry` every `interval`. Refresh
    /// errors (e.g. a directory made unreadable mid-run) are swallowed
    /// and retried next tick — background maintenance must not kill a
    /// serving process.
    pub fn spawn(registry: Arc<SnapshotRegistry>, interval: Duration) -> RefreshTicker {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_seen = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            // Sleep in short slices so stop() never waits a full
            // interval.
            let slice = Duration::from_millis(25).min(interval);
            let mut elapsed = Duration::ZERO;
            loop {
                if stop_seen.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(slice);
                elapsed += slice;
                if elapsed >= interval {
                    elapsed = Duration::ZERO;
                    let _ = registry.refresh();
                }
            }
        });
        RefreshTicker {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop the ticker and join its thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for RefreshTicker {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use tlr_core::{RtmConfig, TraceRecord};
    use tlr_isa::Loc;
    use tlr_persist::save_snapshot;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tlr-daemon-unit").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snapshot_of(pc: u32, v: u64) -> tlr_core::RtmSnapshot {
        let mut rtm = tlr_core::ReuseTraceMemory::new(RtmConfig::RTM_512);
        rtm.insert(TraceRecord {
            start_pc: pc,
            next_pc: pc + 2,
            len: 2,
            ins: vec![(Loc::IntReg(1), v)].into_boxed_slice(),
            outs: vec![(Loc::IntReg(2), v * 3)].into_boxed_slice(),
            mix: Default::default(),
        });
        rtm.export()
    }

    #[test]
    fn daemon_shuts_down_gracefully_and_removes_socket() {
        let dir = temp_dir("shutdown");
        save_snapshot(&dir.join("p.tlrsnap"), 1, &snapshot_of(8, 5)).unwrap();
        let registry = Arc::new(SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap());
        let sock = dir.join("tlrd.sock");
        let daemon = Daemon::bind(&sock, registry).unwrap();
        let handle = daemon.handle();
        let server = std::thread::spawn(move || daemon.run());
        // The daemon is accepting; a remote client can speak to it.
        let remote = crate::remote::RemoteRegistry::connect(&sock).unwrap();
        assert_eq!(remote.get(1).unwrap().unwrap().len(), 1);
        drop(remote);
        handle.shutdown();
        server.join().unwrap().unwrap();
        assert!(!sock.exists(), "socket file left behind");
        // Shutdown is idempotent.
        handle.shutdown();
    }

    #[test]
    fn stale_socket_file_is_replaced_but_regular_file_is_not() {
        let dir = temp_dir("stale");
        let registry = Arc::new(SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap());
        let sock = dir.join("tlrd.sock");
        // First bind creates the socket; dropping the daemon without
        // running leaves a stale file a second bind must replace.
        let first = Daemon::bind(&sock, Arc::clone(&registry)).unwrap();
        drop(first);
        assert!(sock.exists(), "bind did not create the socket file");
        let second = Daemon::bind(&sock, Arc::clone(&registry)).unwrap();
        drop(second);

        let file = dir.join("not-a-socket");
        std::fs::write(&file, b"precious data").unwrap();
        assert!(
            Daemon::bind(&file, registry).is_err(),
            "bind clobbered a regular file"
        );
        assert_eq!(std::fs::read(&file).unwrap(), b"precious data");
    }

    #[test]
    fn refresh_ticker_picks_up_new_files() {
        let dir = temp_dir("ticker");
        save_snapshot(&dir.join("a.tlrsnap"), 1, &snapshot_of(8, 1)).unwrap();
        let registry = Arc::new(SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap());
        registry.get(1).unwrap().unwrap();
        let ticker = RefreshTicker::spawn(Arc::clone(&registry), Duration::from_millis(25));
        save_snapshot(&dir.join("b.tlrsnap"), 1, &snapshot_of(40, 2)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if registry.entry_stats(1).unwrap().refreshes >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "ticker never refreshed the resident entry"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        ticker.stop();
        assert_eq!(registry.get(1).unwrap().unwrap().len(), 2);
    }
}
