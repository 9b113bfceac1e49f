//! Malformed-wire-input suite, mirroring the artifact layer's
//! corrupt-input tests: truncated headers, oversized `Content-Length`,
//! bad UTF-8, hostile JSON nesting — every one must come back as a
//! clean `400` with a JSON error body, with allocation bounded by the
//! parser caps (an oversized body is rejected from the head alone,
//! before a body byte is read). The slow-loris cases close it: a
//! trickled header, a connection that never sends a byte and a client
//! that never reads its answer are each shed, and the handler they held
//! serves the next client.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_engine::{CompiledVit, Engine};
use vitcod_model::{ViTConfig, VisionTransformer};
use vitcod_serve::{BatchConfig, ModelRegistry, Server};
use vitcod_tensor::Initializer;
use vitcod_transport::{api::tokens_json, http, HttpClient, HttpServer, Json, TransportConfig};

/// Input features of the served model.
const IN_DIM: usize = 8;

fn start_http() -> HttpServer {
    start_http_with(TransportConfig {
        idle_timeout: Duration::from_secs(2),
        ..TransportConfig::default()
    })
}

/// The reduced DeiT-Tiny as model `m` behind a transport with `config`.
fn start_http_with(config: TransportConfig) -> HttpServer {
    let cfg = ViTConfig::deit_tiny().reduced_for_training();
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let vit = VisionTransformer::new(&cfg, IN_DIM, 4, &mut store, &mut rng);
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "m",
            Engine::builder(CompiledVit::from_parts(&vit, &store)).build(),
        )
        .unwrap();
    let server = Server::start(registry, BatchConfig::default());
    HttpServer::bind("127.0.0.1:0", server, config).unwrap()
}

/// One handler and a short idle budget: a connection that pins the
/// handler past `idle_timeout` locks every other client out.
fn one_handler_idling_out_at(idle_timeout: Duration) -> HttpServer {
    start_http_with(TransportConfig {
        handler_threads: 1,
        idle_timeout,
        ..TransportConfig::default()
    })
}

/// `GET /v1/health` on a fresh connection whose read gives up after 5 s,
/// so a handler that is never freed fails the test instead of hanging it.
fn health_status(server: &HttpServer) -> u16 {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /v1/health HTTP/1.1\r\nHost: fresh\r\n\r\n")
        .unwrap();
    http::read_response(&mut stream)
        .expect("a fresh client must be served within 5 s")
        .status
}

/// Reads until the server closes `stream` (EOF or reset), returning the
/// bytes it sent first; panics if it is still open after 5 s.
fn read_until_closed(stream: &mut TcpStream) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut got = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return got,
            Ok(n) => got.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                panic!("the server kept the connection open for 5 s")
            }
            Err(_) => return got, // reset: shed all the same
        }
    }
}

/// Sends raw bytes, half-closes the write side, and reads the response.
fn send_raw(server: &HttpServer, bytes: &[u8]) -> http::HttpResponse {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // The server may reject and reset the connection while we are still
    // mid-write (e.g. the oversized header section trips the cap long
    // before the last byte), so a failed write or half-close only means
    // the rejection already happened; the buffered response stays
    // readable and the read below is the assertion that matters.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    http::read_response(&mut stream).expect("server must respond, not drop")
}

#[test]
fn truncated_headers_get_a_clean_400() {
    let server = start_http();
    // The peer gives up mid-header; the server answers instead of
    // hanging or dropping silently.
    let resp = send_raw(
        &server,
        b"POST /v1/models/m/classify HTTP/1.1\r\nContent-Le",
    );
    assert_eq!(resp.status, 400);
    assert!(
        resp.json().unwrap().get("error").is_some(),
        "error body must be JSON: {}",
        resp.body_str()
    );
    // Same for a body cut short of its Content-Length.
    let resp = send_raw(
        &server,
        b"POST /v1/models/m/classify HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"tokens\"",
    );
    assert_eq!(resp.status, 400);
    server.shutdown();
}

#[test]
fn oversized_content_length_is_rejected_from_the_head_alone() {
    let server = start_http();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Claim a 10 GiB body — far past the 16 MiB cap — and send none of
    // it. The refusal must come immediately, from the head, without
    // the server buffering toward the claim.
    let t = Instant::now();
    stream
        .write_all(b"POST /v1/models/m/classify HTTP/1.1\r\nContent-Length: 10737418240\r\n\r\n")
        .unwrap();
    let resp = http::read_response(&mut stream).unwrap();
    assert_eq!(resp.status, 400);
    assert!(
        resp.body_str().contains("exceeds the body limit"),
        "{}",
        resp.body_str()
    );
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "rejection must not wait on the declared body"
    );
    server.shutdown();
}

#[test]
fn oversized_header_section_is_capped() {
    let server = start_http();
    let mut raw = b"GET /v1/health HTTP/1.1\r\n".to_vec();
    for i in 0..2048 {
        raw.extend_from_slice(format!("X-Filler-{i}: aaaaaaaaaaaaaaaa\r\n").as_bytes());
    }
    raw.extend_from_slice(b"\r\n");
    let resp = send_raw(&server, &raw);
    assert_eq!(resp.status, 400);
    assert!(resp.body_str().contains("header"), "{}", resp.body_str());
    server.shutdown();
}

#[test]
fn bad_utf8_bodies_and_garbage_request_lines_are_400s() {
    let server = start_http();
    // Invalid UTF-8 in the body of an otherwise well-formed request.
    let mut raw = b"POST /v1/models/m/classify HTTP/1.1\r\nContent-Length: 4\r\n\r\n".to_vec();
    raw.extend_from_slice(&[0xff, 0xfe, 0x80, 0x81]);
    let resp = send_raw(&server, &raw);
    assert_eq!(resp.status, 400);
    assert!(resp.body_str().contains("UTF-8"), "{}", resp.body_str());

    for raw in [
        &b"TOTAL GARBAGE\r\n\r\n"[..],
        b"POST /v1/models/m/classify HTTP/9.9\r\n\r\n",
        b"POST /v1/models/m/classify HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        b"POST /v1/models/m/classify HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    ] {
        assert_eq!(send_raw(&server, raw).status, 400);
    }
    server.shutdown();
}

#[test]
fn hostile_json_is_a_400_not_a_stack_overflow() {
    let server = start_http();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    // Nesting far past the codec cap.
    let hostile = "[".repeat(100_000);
    let resp = client
        .post("/v1/models/m/classify", &hostile)
        .expect("connection survives in the sense of getting a response");
    assert_eq!(resp.status, 400);
    assert!(resp.body_str().contains("nesting"), "{}", resp.body_str());

    // Structurally valid JSON, wrong shapes: still 400 with the field
    // named, on a fresh connection (parse failures close the socket).
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    for (body, needle) in [
        ("{", "json"),
        ("null", "tokens"),
        (r#"{"tokens": [[1], [1, 2]]}"#, "ragged"),
        (r#"{"batch": []}"#, "empty"),
        ("", "empty body"),
    ] {
        let resp = client.post("/v1/models/m/classify", body).unwrap();
        assert_eq!(resp.status, 400, "{body}");
        assert!(
            resp.body_str().to_lowercase().contains(needle),
            "{body} -> {}",
            resp.body_str()
        );
    }
    // The model is unharmed by any of it.
    let health = client.get("/v1/health").unwrap();
    assert_eq!(health.status, 200);
    server.shutdown();
}

#[test]
fn slow_loris_headers_are_shed_at_the_request_deadline() {
    // Trickling one header byte per poll keeps `idle_timeout` reset
    // forever; the per-request deadline must shed the connection anyway.
    let server = start_http_with(TransportConfig {
        idle_timeout: Duration::from_secs(10),
        request_deadline: Duration::from_millis(300),
        ..TransportConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(b"POST /v1/models/m/classify HTTP/1.1\r\nX-Slow: ")
        .unwrap();
    let t = Instant::now();
    // Trickle until the server hangs up on us (write error) or answers.
    stream
        .set_read_timeout(Some(Duration::from_millis(25)))
        .unwrap();
    let resp = loop {
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "server never shed the slow-loris connection"
        );
        if stream.write_all(b"a").is_err() {
            // Shed via reset before we managed to read the 408 — the
            // connection is gone either way, which is the point.
            server.shutdown();
            return;
        }
        match http::read_response(&mut stream) {
            Ok(resp) => break resp,
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    };
    assert_eq!(resp.status, 408, "{}", resp.body_str());
    assert!(
        t.elapsed() >= Duration::from_millis(250),
        "shed before the request deadline"
    );
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "shed far too late: {:?}",
        t.elapsed()
    );
    // A well-behaved client on a fresh connection is unaffected.
    let mut ok = HttpClient::connect(server.local_addr()).unwrap();
    assert_eq!(ok.get("/v1/health").unwrap().status, 200);
    server.shutdown();
}

#[test]
fn half_open_connections_are_closed_at_the_idle_timeout() {
    // A connection that never sends a byte has no request to time out;
    // the idle budget alone must close it and free the only handler.
    let server = one_handler_idling_out_at(Duration::from_millis(300));
    let mut silent = TcpStream::connect(server.local_addr()).unwrap();
    let t = Instant::now();
    let sent = read_until_closed(&mut silent);
    assert!(
        sent.is_empty(),
        "a silent connection is closed, not answered"
    );
    assert!(
        t.elapsed() >= Duration::from_millis(250),
        "closed before the idle timeout: {:?}",
        t.elapsed()
    );
    assert_eq!(health_status(&server), 200);
    server.shutdown();
}

#[test]
fn a_client_that_never_reads_its_answer_is_shed() {
    // The answer lands in the socket's send buffer, so the handler is
    // not stuck writing; the deaf client then idles out like any other.
    let server = one_handler_idling_out_at(Duration::from_millis(300));
    let tokens = Initializer::Normal { std: 1.0 }.sample(
        ViTConfig::deit_tiny().reduced_for_training().tokens,
        IN_DIM,
        9,
    );
    let body = Json::Object(vec![("tokens".into(), tokens_json(&tokens))]).to_string();
    let mut deaf = TcpStream::connect(server.local_addr()).unwrap();
    deaf.write_all(
        format!(
            "POST /v1/models/m/classify HTTP/1.1\r\nHost: deaf\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    // With one handler, the fresh client is served only once the deaf
    // connection has let it go.
    let t = Instant::now();
    assert_eq!(health_status(&server), 200);
    assert!(
        t.elapsed() >= Duration::from_millis(250),
        "the deaf connection was dropped before its idle timeout: {:?}",
        t.elapsed()
    );
    // It was shed after its classify was answered, not instead of it.
    let sent = read_until_closed(&mut deaf);
    assert!(
        sent.starts_with(b"HTTP/1.1 200"),
        "{}",
        String::from_utf8_lossy(&sent)
    );
    server.shutdown();
}
