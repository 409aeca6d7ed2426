//! The SIGTERM drain path, in a test binary of its own: the termination
//! flag is process-global, so setting it here cannot drain the servers of
//! other test files.

use disc_datagen::QuestConfig;
use disc_server::{signal, SchedulerConfig, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn http(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(body).unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let text = String::from_utf8_lossy(&resp).into_owned();
    let status: u16 = text.get(9..12).and_then(|s| s.parse().ok()).expect("status line");
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn sigterm_returns_run_and_leaves_the_running_job_resumable() {
    let dir = std::env::temp_dir().join(format!("disc-sigterm-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::new(ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: dir.clone(),
        // One slice would mine the whole job (seconds): only a SIGTERM
        // that stops the running slice leaves the job unfinished.
        scheduler: SchedulerConfig {
            threads: 2,
            slice_ops: u64::MAX / 4,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    });
    let runner = server.clone();
    let handle = std::thread::spawn(move || runner.run().expect("server run"));
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Some(a) = server.local_addr() {
            break a;
        }
        assert!(Instant::now() < deadline, "server never bound");
        std::thread::sleep(Duration::from_millis(5));
    };

    let db = QuestConfig::paper_table11()
        .with_ncust(60)
        .with_nitems(40)
        .with_pools(40, 80)
        .with_slen(8.0)
        .with_seed(5)
        .generate();
    assert_eq!(http(addr, "POST", "/dbs?name=q", &disc_core::encode_database(&db)).0, 201);
    let (status, body) = http(addr, "POST", "/jobs?db=q&delta=4", b"");
    assert_eq!(status, 202, "{body}");
    let id = 1;
    // Once the slice is mining, raise the flag a SIGTERM raises.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = http(addr, "GET", &format!("/jobs/{id}"), b"");
        assert!(!body.contains("\"state\":\"done\""), "job finished before the SIGTERM");
        if body.contains("\"state\":\"running\"") && !body.contains("\"ops\":0,") {
            break;
        }
        assert!(Instant::now() < deadline, "the job never started: {body}");
        std::thread::sleep(Duration::from_millis(2));
    }
    signal::request_termination();

    // No further connection is made: the slice stops at its next
    // checkpoint, the scheduler loop turns the flag into a drain, and the
    // drain wakes the blocked accept loop.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !handle.is_finished() {
        assert!(Instant::now() < deadline, "Server::run did not return after the SIGTERM");
        std::thread::sleep(Duration::from_millis(5));
    }
    let queued = handle.join().expect("server thread");
    assert_eq!(queued, vec![id], "the running job is left queued");
    assert!(dir.join(format!("jobs/{id}/mine.dscck")).is_file(), "with its checkpoint");
    let manifest = std::fs::read_to_string(dir.join("manifest")).unwrap();
    assert!(
        manifest.lines().any(|l| l.starts_with(&format!("job {id} ")) && l.ends_with(" queued")),
        "and recorded as queued for the next process: {manifest}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
