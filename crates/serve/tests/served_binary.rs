//! The `cdrib-served` *process*: boot, the port line on stdout, replies
//! bitwise equal to an identically seeded in-process engine, a delta over
//! the wire, wire shutdown and the exit status — the one surface the
//! in-process suites (`tests/net_serving.rs`) cannot reach.

use cdrib_data::{Direction, DomainId};
use cdrib_graph::GraphDelta;
use cdrib_serve::net::preset_engine;
use cdrib_serve::proto::{ClientMsg, IngestReq, ServerMsg};
use cdrib_serve::{Client, Recommendation, Request};
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(30);

/// Kills the child on drop, so a failed assert cannot leak a listener.
struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn served(args: &str) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_cdrib-served"));
    command
        .args(args.split(' '))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    command
}

fn bits(recs: &[Recommendation]) -> Vec<(u32, u32)> {
    recs.iter().map(|r| (r.item, r.score.to_bits())).collect()
}

/// One round trip, checked bit for bit against the in-process twin's answer.
fn assert_served(client: &mut Client, req_id: u64, request: &Request, expect: &[Recommendation]) {
    match client.recommend(req_id, request).expect("round trip") {
        ServerMsg::Recommendations(ok) => {
            assert_eq!(ok.req_id, req_id);
            assert_eq!(bits(&ok.recs), bits(expect), "request {req_id}: {request:?}");
        }
        other => panic!("request {req_id}: unexpected reply {other:?}"),
    }
}

#[test]
fn boots_serves_bitwise_ingests_and_shuts_down_over_the_wire() {
    let args =
        "--preset tiny --seed 42 --addr 127.0.0.1:0 --queue-cap 128 --max-batch 64 --max-wait-us 200 --workers 1";
    let mut child = Served(served(args).spawn().expect("spawn cdrib-served"));
    // The port line, read off a thread so a silent child fails the deadline
    // instead of hanging the suite.
    let mut stdout = BufReader::new(child.0.stdout.take().expect("piped stdout"));
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let _ = tx.send(line);
    });
    let line = rx.recv_timeout(DEADLINE).expect("no stdout line before the deadline");
    let addr = line
        .trim()
        .strip_prefix("cdrib-served listening on ")
        .unwrap_or_else(|| panic!("unexpected first stdout line {line:?}"));

    let (mut reference, scenario) = preset_engine("tiny", 42).expect("reference engine");
    let (mut client, hello) = Client::connect(addr).expect("connect");
    client.set_read_timeout(Some(DEADLINE)).expect("read timeout");
    assert_eq!(hello.epoch, 0);
    let mut expect = Vec::new();
    for i in 0..64usize {
        let (direction, bound) = [
            (Direction::X_TO_Y, scenario.x.n_users),
            (Direction::Y_TO_X, scenario.y.n_users),
        ][i % 2];
        let (user, k) = ((i * 13 % bound) as u32, 5 + i % 7);
        let request = Request { direction, user, k };
        reference.recommend(&request, &mut expect).expect("reference");
        assert_served(&mut client, i as u64, &request, &expect);
    }

    // One delta lists a new Y item; the epoch advances and a whole-catalogue
    // request recommends it, still bit for bit what the twin answers.
    let new_item = scenario.y.n_items as u32;
    let (req_id, domain, mut delta) = (100, DomainId::Y, GraphDelta::empty());
    delta.add_items = 1;
    delta.edges.push((scenario.y.n_users as u32 - 1, new_item));
    reference.apply_delta(domain, &delta).expect("reference delta");
    let ingest = ClientMsg::IngestDelta(IngestReq { req_id, domain, delta });
    client.send(&ingest).expect("send delta");
    assert!(matches!(client.recv().expect("delta reply"), ServerMsg::DeltaApplied(ok) if ok.req_id == 100));
    client.send(&ClientMsg::Stats(101)).expect("send stats");
    assert!(matches!(client.recv().expect("stats reply"), ServerMsg::Stats(s) if s.epoch == 1));
    let (direction, user, k) = (Direction::X_TO_Y, 0, new_item as usize + 1);
    let request = Request { direction, user, k };
    reference.recommend(&request, &mut expect).expect("reference");
    assert!(expect.iter().any(|r| r.item == new_item), "the new item must be served");
    assert_served(&mut client, 102, &request, &expect);

    client.send(&ClientMsg::Shutdown).expect("send shutdown");
    assert!(matches!(client.recv(), Ok(ServerMsg::ShuttingDown) | Err(_)));
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.0.try_wait().expect("try_wait") {
            break status;
        }
        assert!(started.elapsed() < DEADLINE, "no exit after Shutdown");
        std::thread::sleep(Duration::from_millis(10));
    };
    let (mut pipe, mut stderr) = (child.0.stderr.take().expect("piped stderr"), String::new());
    pipe.read_to_string(&mut stderr).expect("stderr");
    assert_eq!(status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("shut down after"), "{stderr}");
}

#[test]
fn wal_without_a_recovery_base_exits_2_naming_it() {
    let out = served("--wal x").output().expect("run cdrib-served");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--artifact") && stderr.contains("--v2"), "{stderr}");
}
