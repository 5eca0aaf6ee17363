//! Integration tests for the `tlrd` daemon: hostile bytes on the
//! server read path (malformed / truncated / bit-flipped frames),
//! concurrent multi-client serving with consistent registry accounting,
//! and exact per-request fetch accounting.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use trace_reuse::core::{ReuseTraceMemory, RtmConfig, RtmSnapshot, TraceRecord};
use trace_reuse::isa::Loc;
use trace_reuse::persist::save_snapshot;
use trace_reuse::serve::proto::{self, Reply, Request};
use trace_reuse::serve::{
    Daemon, DaemonHandle, RegistryConfig, RegistryStats, RemoteRegistry, SnapshotRegistry,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tlr-daemon-proto").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn snapshot_of(values: &[u64]) -> RtmSnapshot {
    let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
    for &v in values {
        rtm.insert(TraceRecord {
            start_pc: 8,
            next_pc: 10,
            len: 2,
            ins: vec![(Loc::IntReg(1), v)].into_boxed_slice(),
            outs: vec![(Loc::IntReg(2), v * 3)].into_boxed_slice(),
            mix: Default::default(),
        });
    }
    rtm.export()
}

/// A daemon over a directory holding one snapshot for fingerprint 1.
fn start_daemon(
    name: &str,
) -> (
    PathBuf,
    DaemonHandle,
    std::thread::JoinHandle<Result<(), trace_reuse::serve::ServeError>>,
) {
    let dir = temp_dir(name);
    save_snapshot(&dir.join("p1.tlrsnap"), 1, &snapshot_of(&[5])).unwrap();
    let registry = Arc::new(SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap());
    let sock = dir.join("tlrd.sock");
    let daemon = Daemon::bind(&sock, registry).unwrap();
    let handle = daemon.handle();
    let server = std::thread::spawn(move || daemon.run());
    (sock, handle, server)
}

/// Write raw bytes to the daemon and drain whatever it answers until it
/// hangs up. The call must return (the server closes broken sessions)
/// and the daemon must survive.
fn poke(sock: &Path, bytes: &[u8]) -> Vec<u8> {
    let mut stream = UnixStream::connect(sock).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut answer = Vec::new();
    let _ = stream.read_to_end(&mut answer);
    answer
}

fn hello_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    proto::write_request(
        &mut buf,
        &Request::Hello {
            version: proto::PROTOCOL_VERSION,
        },
    )
    .unwrap();
    buf
}

#[test]
fn malformed_and_truncated_frames_do_not_kill_the_daemon() {
    let (sock, handle, server) = start_daemon("malformed");

    // Not the protocol at all: an HTTP-ish greeting whose first bytes
    // decode to a ~542 MB length prefix.
    poke(&sock, b"GET /snapshots HTTP/1.1\r\n\r\n");
    // An explicit oversized length prefix.
    let mut oversized = (proto::MAX_MESSAGE + 1).to_le_bytes().to_vec();
    oversized.extend_from_slice(&[0u8; 64]);
    poke(&sock, &oversized);
    // A zero length prefix.
    poke(&sock, &0u32.to_le_bytes());
    // Hello, then a frame truncated mid-payload.
    let mut truncated = hello_bytes();
    let mut get = Vec::new();
    proto::write_request(&mut get, &Request::Get { fingerprint: 1 }).unwrap();
    truncated.extend_from_slice(&get[..get.len() / 2]);
    poke(&sock, &truncated);
    // A request before Hello is refused by name.
    let answer = poke(&sock, &get);
    let reply = proto::read_reply(&mut answer.as_slice()).unwrap().unwrap();
    match reply {
        Reply::Error { code, .. } => assert_eq!(code, proto::ErrorCode::HelloRequired),
        other => panic!("expected HELLO_REQUIRED, got {other:?}"),
    }
    // A Hello with a version from the future is refused by name.
    let mut future = Vec::new();
    proto::write_request(&mut future, &Request::Hello { version: 999 }).unwrap();
    let answer = poke(&sock, &future);
    let reply = proto::read_reply(&mut answer.as_slice()).unwrap().unwrap();
    match reply {
        Reply::Error { code, .. } => {
            assert_eq!(code, proto::ErrorCode::UnsupportedVersion)
        }
        other => panic!("expected UNSUPPORTED_VERSION, got {other:?}"),
    }

    // After all that abuse a well-behaved client is served normally.
    let remote = RemoteRegistry::connect(&sock).unwrap();
    assert_eq!(remote.get(1).unwrap().unwrap().len(), 1);
    drop(remote);
    handle.shutdown();
    server.join().unwrap().unwrap();
}

#[test]
fn bit_flip_fuzz_on_the_server_read_path() {
    let (sock, handle, server) = start_daemon("bitflip");

    // A pristine session: Hello + Publish of a 30-trace snapshot.
    let mut pristine = hello_bytes();
    proto::write_request(
        &mut pristine,
        &Request::Publish {
            fingerprint: 7,
            snapshot: snapshot_of(&(100..130).collect::<Vec<u64>>()),
        },
    )
    .unwrap();

    // Flip a bit at a spread of positions covering the frame header,
    // the embedded snapshot, and the trailing checksum. The server must
    // survive every variant; damage past the Hello may be answered with
    // a named error or just a hangup, never a crash.
    for pos in (0..pristine.len()).step_by(11) {
        let mut damaged = pristine.clone();
        damaged[pos] ^= 0x08;
        poke(&sock, &damaged);
    }

    // The daemon still serves, and fingerprint 7 is either absent or
    // holds a fully validated snapshot — a damaged publish can be
    // rejected or (if the flip hit a bit the codec never reads) land,
    // but it can never wedge the registry.
    let remote = RemoteRegistry::connect(&sock).unwrap();
    assert_eq!(remote.get(1).unwrap().unwrap().len(), 1);
    if let Some(snapshot) = remote.get(7).unwrap() {
        assert!(snapshot.len() <= 30);
    }
    let stats = remote.stats().unwrap();
    assert!(stats.hits + stats.misses > 0);
    drop(remote);
    handle.shutdown();
    server.join().unwrap().unwrap();
}

#[test]
fn concurrent_clients_publish_and_get_with_consistent_stats() {
    let (sock, handle, server) = start_daemon("concurrent");
    const CLIENTS: u64 = 8;
    const GETS: u64 = 3;

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let sock = &sock;
            scope.spawn(move || {
                let remote = RemoteRegistry::connect(sock).unwrap();
                let fingerprint = 100 + client;
                // Unknown until published.
                assert!(remote.get(fingerprint).unwrap().is_none());
                remote
                    .publish(fingerprint, &snapshot_of(&[client, client + 50]))
                    .unwrap();
                for _ in 0..GETS {
                    let snapshot = remote.get(fingerprint).unwrap().expect("published state");
                    assert_eq!(snapshot.len(), 2);
                }
                // A second publish refreshes the resident entry.
                remote
                    .publish(fingerprint, &snapshot_of(&[client + 200]))
                    .unwrap();
                assert_eq!(remote.get(fingerprint).unwrap().unwrap().len(), 3);
            });
        }
    });

    // Every client's activity is visible in the aggregates: per client
    // one unknown fetch, GETS + 1 resident hits, two publish merges.
    let remote = RemoteRegistry::connect(&sock).unwrap();
    let stats = remote.stats().unwrap();
    assert_eq!(stats.unknown, CLIENTS);
    assert_eq!(stats.hits, CLIENTS * (GETS + 1));
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.refreshes, CLIENTS * 2);
    assert_eq!(stats.resident, CLIENTS);
    drop(remote);
    handle.shutdown();
    server.join().unwrap().unwrap();
}

/// The fetch counters one request moved:
/// `(hits, misses, unknown, image_hits, image_builds)`.
fn fetch_delta(before: &RegistryStats, after: &RegistryStats) -> (u64, u64, u64, u64, u64) {
    (
        after.hits - before.hits,
        after.misses - before.misses,
        after.unknown - before.unknown,
        after.image_hits - before.image_hits,
        after.image_builds - before.image_builds,
    )
}

#[test]
fn every_fetch_request_counts_exactly_one_fetch() {
    let (sock, handle, server) = start_daemon("fetch-accounting");
    // Fingerprint 1 is on disk (from `start_daemon`); so is 2, which
    // only `GetShape` fetches.
    let dir = sock.parent().unwrap();
    save_snapshot(&dir.join("p2.tlrsnap"), 2, &snapshot_of(&[6])).unwrap();
    let remote = RemoteRegistry::connect(&sock).unwrap();
    remote.refresh().unwrap();

    type Fetch = dyn Fn(&RemoteRegistry) -> Option<Arc<RtmSnapshot>>;
    let check = |kind: &str, fetch: &Fetch, present: bool, expected| {
        let before = remote.stats().unwrap();
        assert_eq!(fetch(&remote).is_some(), present, "{kind}: answer");
        let after = remote.stats().unwrap();
        assert_eq!(
            fetch_delta(&before, &after),
            expected,
            "{kind}: (hits, misses, unknown, image_hits, image_builds)"
        );
    };
    // Cold: one disk load (a miss), and the image built for the reply.
    check("Get cold", &|r| r.get(1).unwrap(), true, (0, 1, 0, 0, 1));
    // Warm: one resident hit, answered from the cached image.
    check("Get warm", &|r| r.get(1).unwrap(), true, (1, 0, 0, 1, 0));
    check(
        "Get unknown",
        &|r| r.get(404).unwrap(),
        false,
        (0, 0, 1, 0, 0),
    );
    let shape = |fp| move |r: &RemoteRegistry| r.get_by_shape(fp, 0).unwrap();
    check("GetShape cold", &shape(2), true, (0, 1, 0, 0, 1));
    check("GetShape warm", &shape(2), true, (1, 0, 0, 1, 0));
    check("GetShape unknown", &shape(405), false, (0, 0, 1, 0, 0));
    // A shape no program has published resolves nothing: one unknown.
    let no_donor = |r: &RemoteRegistry| r.get_by_shape(406, 77).unwrap();
    check("GetShape unknown shape", &no_donor, false, (0, 0, 1, 0, 0));
    drop(remote);
    handle.shutdown();
    server.join().unwrap().unwrap();
}

#[test]
fn shape_resolved_fetch_counts_exactly_one_fetch() {
    let (sock, handle, server) = start_daemon("shape-accounting");
    // Two same-shape donors for an unknown client: fingerprint 3 made
    // resident by a `Get`, fingerprint 4 only on disk.
    let dir = sock.parent().unwrap();
    for (fp, value) in [(3, 7), (4, 8)] {
        let mut snap = snapshot_of(&[value]);
        snap.shape = 77;
        save_snapshot(&dir.join(format!("p{fp}.tlrsnap")), fp, &snap).unwrap();
    }
    let remote = RemoteRegistry::connect(&sock).unwrap();
    remote.refresh().unwrap();
    assert!(remote.get(3).unwrap().is_some());

    // `(hits, misses, unknown, shape_hits)` one request moved.
    let check = |kind: &str, fingerprint, expected| {
        let before = remote.stats().unwrap();
        assert!(
            remote.get_by_shape(fingerprint, 77).unwrap().is_some(),
            "{kind}: answer"
        );
        let after = remote.stats().unwrap();
        let delta = (
            after.hits - before.hits,
            after.misses - before.misses,
            after.unknown - before.unknown,
            after.shape_hits - before.shape_hits,
        );
        assert_eq!(
            delta, expected,
            "{kind}: (hits, misses, unknown, shape_hits)"
        );
    };
    // Resolved through the donors: a miss plus a shape hit on the new
    // entry, and nothing for the exact probe or the two donor reads.
    check("GetShape shape-resolved", 500, (0, 1, 0, 1));
    // The client's entry is now resident: one plain hit.
    check("GetShape shape-resolved warm", 500, (1, 0, 0, 0));
    drop(remote);
    handle.shutdown();
    server.join().unwrap().unwrap();
}
