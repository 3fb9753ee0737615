//! End-to-end router smoke: a 2-node fleet behind the router tier must
//! be indistinguishable — byte for byte — from a single gatekeeper.
//!
//! Pinned here:
//! - every score through the router matches a local bitwise twin;
//! - proxied error bodies are byte-identical to the backend's direct
//!   response (the router forwards frames verbatim in both directions);
//! - joining a third node mid-stream drains checkpoints over and every
//!   tenant's score stream continues bitwise on its new owner;
//! - killing a backend yields typed `502`s immediately — never a hang —
//!   and the fleet keeps serving the surviving node's keys;
//! - saturation sheds with `503` + `Retry-After`, the contract the
//!   load_gen client's backoff-retry loop relies on.

use exathlon_ad::stream::StreamingEwma;
use exathlon_core::checkpoint::ServingProfile;
use exathlon_core::route::{Router, RouterConfig};
use exathlon_core::serve::{Gatekeeper, GatekeeperConfig};
use exathlon_core::wire::json_num;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn profile() -> ServingProfile {
    ServingProfile::new(StreamingEwma::new(0.25, vec![1.0, 1.5, 0.5]).into(), 0.8)
}

fn gk_config(spill: Option<PathBuf>) -> GatekeeperConfig {
    GatekeeperConfig { workers: 2, spill_dir: spill, ..GatekeeperConfig::default() }
}

/// One request over a fresh connection; returns (status, body, head).
fn call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: smoke\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("no header break") + 4;
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, raw[split..].to_vec(), head)
}

fn score_of(body: &[u8]) -> f64 {
    let v = serde_json::parse_value(std::str::from_utf8(body).unwrap()).unwrap();
    json_num(v.get("score").unwrap()).unwrap()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exathlon-rsmoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn two_node_fleet_is_bitwise_and_survives_rebalance_and_node_death() {
    let base = tempdir("fleet");
    let gk_a = Gatekeeper::bind("127.0.0.1:0", gk_config(Some(base.join("node-a")))).unwrap();
    let gk_b = Gatekeeper::bind("127.0.0.1:0", gk_config(Some(base.join("node-b")))).unwrap();
    let rt = Router::bind(
        "127.0.0.1:0",
        &[("node-a", gk_a.local_addr()), ("node-b", gk_b.local_addr())],
        RouterConfig::default(),
    )
    .unwrap();
    let addr = rt.local_addr();

    // --- Phase 1: install tenants and verify bitwise against twins.
    let mut twins: Vec<(String, ServingProfile)> =
        (0..10).map(|i| (format!("run-{i}"), profile())).collect();
    for (name, twin) in &twins {
        let (status, _, _) =
            call(addr, "PUT", &format!("/v1/profile/spark/{name}"), &twin.to_bytes());
        assert_eq!(status, 200, "install {name}");
    }
    for round in 0..6 {
        for (name, twin) in &mut twins {
            let rec = [round as f64 * 0.7 - 1.0, (round as f64).sin(), 0.25];
            let (want, _) = twin.ingest(&rec);
            let body = format!("{{\"record\":[{},{},{}]}}", rec[0], rec[1], rec[2]);
            let (status, resp, _) =
                call(addr, "POST", &format!("/v1/ingest/spark/{name}"), body.as_bytes());
            assert_eq!(status, 200, "{name}: {}", String::from_utf8_lossy(&resp));
            assert_eq!(
                score_of(&resp).to_bits(),
                want.to_bits(),
                "{name} diverged from the single-node twin at round {round}"
            );
        }
    }
    // The ring actually spread the tenants: both nodes host some.
    assert!(gk_a.stats().resident_profiles > 0, "node-a hosts nothing");
    assert!(gk_b.stats().resident_profiles > 0, "node-b hosts nothing");

    // --- Phase 2: proxied error bodies are byte-identical to direct.
    // Unknown profile: an entity no node hosts 404s identically through
    // the router and against a backend directly.
    let (ps, pbody, _) = call(addr, "POST", "/v1/ingest/spark/ghost", b"{\"record\":[1,2,3]}");
    let (ds, dbody, _) =
        call(gk_a.local_addr(), "POST", "/v1/ingest/spark/ghost", b"{\"record\":[1,2,3]}");
    assert_eq!(ps, 404);
    assert_eq!(ps, ds);
    assert_eq!(pbody, dbody, "proxied error body must be byte-identical to direct");
    // Malformed body: install a key directly on node-a (bypassing the
    // router) so both sides parse the same bad bytes past the lookup.
    let (s, _, _) =
        call(gk_a.local_addr(), "PUT", "/v1/profile/spark/direct-only", &profile().to_bytes());
    assert_eq!(s, 200);
    let (ps, pbody, _) = call(addr, "POST", "/v1/ingest/spark/run-0", b"{\"record\":");
    assert_eq!(ps, 400);
    let (ds, dbody, _) =
        call(gk_a.local_addr(), "POST", "/v1/ingest/spark/direct-only", b"{\"record\":");
    assert_eq!(ds, 400);
    assert_eq!(pbody, dbody, "malformed-body error must pass through unmodified");

    // --- Phase 3: join a third node mid-stream; checkpoints drain over
    // and every stream continues bitwise wherever it now lives.
    let gk_c = Gatekeeper::bind("127.0.0.1:0", gk_config(Some(base.join("node-c")))).unwrap();
    let report = rt.add_backend("node-c", gk_c.local_addr()).unwrap();
    assert_eq!(report.tracked, 10);
    assert!(report.failed.is_empty(), "migrations must not fail: {:?}", report.failed);
    assert!(!report.moved.is_empty(), "adding a node must capture some keys");
    assert!(
        report.moved.len() < 10,
        "adding one node of three must not move every key (moved {})",
        report.moved.len()
    );
    for round in 0..4 {
        for (name, twin) in &mut twins {
            let rec = [0.1 * round as f64, -0.3, (round as f64).cos()];
            let (want, _) = twin.ingest(&rec);
            let body = format!("{{\"record\":[{},{},{}]}}", rec[0], rec[1], rec[2]);
            let (status, resp, _) =
                call(addr, "POST", &format!("/v1/ingest/spark/{name}"), body.as_bytes());
            assert_eq!(status, 200, "{name} after rebalance");
            assert_eq!(
                score_of(&resp).to_bits(),
                want.to_bits(),
                "{name} diverged after the node-c join"
            );
        }
    }
    assert!(gk_c.stats().resident_profiles > 0, "node-c must host its captured keys");

    // --- Phase 4: kill node-c without draining. Its keys answer typed
    // 502s (never hangs); keys on surviving nodes keep scoring.
    let moved_to_c: Vec<String> = report.moved.iter().map(|(_, e)| e.clone()).collect();
    gk_c.shutdown();
    for (name, twin) in &mut twins {
        let (want, _) = twin.ingest(&[0.0, 0.0, 0.0]);
        let (status, resp, _) =
            call(addr, "POST", &format!("/v1/ingest/spark/{name}"), b"{\"record\":[0,0,0]}");
        if moved_to_c.contains(name) {
            assert_eq!(status, 502, "{name} lives on the dead node: must be a typed 502");
            assert_eq!(resp, b"{\"error\":\"upstream unavailable\"}");
        } else {
            assert_eq!(status, 200, "{name} lives on a survivor: must keep scoring");
            assert_eq!(score_of(&resp).to_bits(), want.to_bits());
        }
    }
    assert!(rt.stats().upstream_errors > 0);

    rt.shutdown();
    gk_a.shutdown();
    gk_b.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn saturation_sheds_with_retry_after_contract() {
    // max_inflight 0 makes every keyed request shed — the point is the
    // response contract (503 + retry-after + JSON body), which the
    // load_gen retry loop parses.
    let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
    let config = RouterConfig { max_inflight_per_backend: 0, ..RouterConfig::default() };
    let rt = Router::bind("127.0.0.1:0", &[("n", dead)], config).unwrap();
    let (status, body, head) = call(rt.local_addr(), "POST", "/v1/ingest/a/b", b"{\"record\":[1]}");
    assert_eq!(status, 503);
    let retry_after: u64 = head
        .lines()
        .find_map(|l| l.strip_prefix("retry-after: "))
        .expect("503 must carry retry-after")
        .trim()
        .parse()
        .unwrap();
    assert!(retry_after >= 1);
    assert_eq!(body, b"{\"error\":\"backend saturated\"}");
    assert_eq!(rt.stats().shed, 1);
    rt.shutdown();
}

#[test]
fn router_shutdown_is_prompt() {
    let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
    let rt = Router::bind("127.0.0.1:0", &[("n", dead)], RouterConfig::default()).unwrap();
    let addr = rt.local_addr();
    let started = std::time::Instant::now();
    rt.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "shutdown took {:?}", started.elapsed());
    assert!(
        TcpStream::connect(addr).is_err() || {
            // The OS may still accept briefly; a read must see EOF fast.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
            let mut buf = [0u8; 1];
            matches!(s.read(&mut buf), Ok(0) | Err(_))
        }
    );
}

/// Thread ids of this process.
fn task_ids() -> std::collections::BTreeSet<u32> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// A thread's name, and its voluntary + involuntary context switches.
fn task_switches(tid: u32) -> Option<(String, u64)> {
    let dir = format!("/proc/self/task/{tid}");
    let comm = std::fs::read_to_string(format!("{dir}/comm")).ok()?;
    let status = std::fs::read_to_string(format!("{dir}/status")).ok()?;
    let switches = status
        .lines()
        .filter(|l| l.starts_with("voluntary_ctxt_switches") || l.starts_with("nonvoluntary"))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum();
    Some((comm.trim().to_string(), switches))
}

#[test]
fn idle_workers_sleep_until_a_socket_needs_them() {
    // A router in front of one gatekeeper, one keep-alive client, one
    // request, then 1 s of quiet: every worker must stay asleep in its
    // poll, whether it holds a connection or not.
    let long = Duration::from_secs(10);
    let gk_cfg = GatekeeperConfig { read_timeout: long, ..gk_config(None) };
    let rt_cfg = RouterConfig { read_timeout: long, ..RouterConfig::default() };
    let want = gk_cfg.workers + rt_cfg.workers;
    // Tests in this file run concurrently and name their workers alike:
    // retry until exactly this fleet's workers appeared while it bound.
    for attempt in 1..=5 {
        let before = task_ids();
        let gk = Gatekeeper::bind("127.0.0.1:0", gk_cfg.clone()).unwrap();
        let rt = Router::bind("127.0.0.1:0", &[("solo", gk.local_addr())], rt_cfg.clone()).unwrap();
        let spawned: Vec<u32> = task_ids().difference(&before).copied().collect();

        let mut client = TcpStream::connect(rt.local_addr()).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let image = profile().to_bytes();
        let head = format!(
            "PUT /v1/profile/spark/idle HTTP/1.1\r\nhost: smoke\r\ncontent-length: {}\r\n\r\n",
            image.len()
        );
        client.write_all(head.as_bytes()).unwrap();
        client.write_all(&image).unwrap();
        let mut raw = Vec::new();
        let mut chunk = [0u8; 1024];
        while !raw.ends_with(b"}") {
            let n = client.read(&mut chunk).unwrap();
            assert!(n > 0, "router closed the keep-alive connection");
            raw.extend_from_slice(&chunk[..n]);
        }
        assert!(raw.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&raw));
        // Let every worker reach its poll.
        std::thread::sleep(Duration::from_millis(100));

        let workers: Vec<(u32, String, u64)> = spawned
            .iter()
            .filter_map(|&tid| {
                let (name, n) = task_switches(tid)?;
                let worker = name.starts_with("gk-worker-") || name.starts_with("rt-worker-");
                worker.then_some((tid, name, n))
            })
            .collect();
        if workers.len() != want {
            assert!(attempt < 5, "could not isolate this fleet's {want} workers: {workers:?}");
            continue;
        }
        std::thread::sleep(Duration::from_secs(1));
        for (tid, name, start) in &workers {
            let (_, end) = task_switches(*tid).expect("worker alive while its tier runs");
            assert!(
                end - start <= 10,
                "{name} switched context {} times in 1 s of idle time",
                end - start
            );
        }
        drop(client);
        rt.shutdown();
        gk.shutdown();
        return;
    }
}
