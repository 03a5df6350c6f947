//! The embedded scrape endpoint: a tiny hand-rolled blocking HTTP/1.1
//! listener on `std::net::TcpListener` (this build links no HTTP crate).
//!
//! Routes:
//!
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4).
//! * `GET /healthz` — `200 ok` or `503` with a reason, from the health
//!   closure (queue saturation, egress errors).
//! * `GET /stats.json` — the JSON rendering of the registry.
//!
//! Scrapes are rare (seconds apart) and tiny, so connections are
//! handled inline on the accept thread with short socket timeouts; a
//! stalled scraper can delay the next scrape but never the pipeline.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::registry::MetricsRegistry;

/// Accept-loop poll interval while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// Per-connection socket read/write timeout.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);
/// Upper bound on the request head we will read.
const MAX_REQUEST_BYTES: usize = 4096;

/// What `/healthz` reports.
#[derive(Debug, Clone)]
pub struct HealthStatus {
    /// `true` → `200`, `false` → `503`.
    pub healthy: bool,
    /// Human-readable detail included in the body.
    pub detail: String,
}

impl HealthStatus {
    /// A healthy status with detail text.
    pub fn ok(detail: impl Into<String>) -> Self {
        HealthStatus {
            healthy: true,
            detail: detail.into(),
        }
    }

    /// An unhealthy status with a reason.
    pub fn unhealthy(reason: impl Into<String>) -> Self {
        HealthStatus {
            healthy: false,
            detail: reason.into(),
        }
    }
}

/// The health probe the server calls on every `/healthz` request.
pub type HealthCheck = Arc<dyn Fn() -> HealthStatus + Send + Sync>;

/// The embedded metrics endpoint. Dropping (or [`shutdown`]) stops the
/// accept loop and joins its thread.
///
/// [`shutdown`]: MetricsServer::shutdown
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (port 0 picks an ephemeral port) and start serving.
    pub fn start(
        addr: SocketAddr,
        registry: Arc<MetricsRegistry>,
        health: HealthCheck,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("flowdns-metrics".into())
            .spawn(move || accept_loop(listener, registry, health, thread_stop))?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join its thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: TcpListener,
    registry: Arc<MetricsRegistry>,
    health: HealthCheck,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Errors on one scrape connection must not take the
                // endpoint down.
                let _ = serve_connection(stream, &registry, &health);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    registry: &MetricsRegistry,
    health: &HealthCheck,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;

    // Read until the end of the request head (or the size cap).
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() >= MAX_REQUEST_BYTES {
            return respond(&mut stream, 400, "text/plain", "request too large\n");
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) => return Err(e),
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    // Ignore any query string: scrapers may append one.
    match path.split('?').next().unwrap_or("") {
        "/metrics" => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &registry.render_prometheus(),
        ),
        "/healthz" => {
            let status = health();
            let code = if status.healthy { 200 } else { 503 };
            let body = format!(
                "{}\n{}\n",
                if status.healthy { "ok" } else { "unhealthy" },
                status.detail
            );
            respond(&mut stream, code, "text/plain; charset=utf-8", &body)
        }
        "/stats.json" => respond(
            &mut stream,
            200,
            "application/json; charset=utf-8",
            &registry.render_json(),
        ),
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut conn = TcpStream::connect(addr).expect("connect");
        write!(conn, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        let code: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status code");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (code, body)
    }

    #[test]
    fn serves_metrics_health_and_stats() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter_fn("up_total", "Liveness counter.", &[], || 3);
        let health: HealthCheck = Arc::new(|| HealthStatus::ok("all queues idle"));
        let server = MetricsServer::start(
            "127.0.0.1:0".parse().unwrap(),
            Arc::clone(&registry),
            health,
        )
        .expect("bind metrics server");
        let addr = server.local_addr();

        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("# TYPE up_total counter"));
        assert!(body.contains("up_total 3"));

        let (code, body) = get(addr, "/healthz");
        assert_eq!(code, 200);
        assert!(body.starts_with("ok\n"));
        assert!(body.contains("all queues idle"));

        let (code, body) = get(addr, "/stats.json");
        assert_eq!(code, 200);
        assert!(body.trim_start().starts_with('{'));
        assert!(body.contains("\"up_total\""));

        let (code, _) = get(addr, "/nope");
        assert_eq!(code, 404);

        server.shutdown();
        // The port is released: a fresh bind on the same address works.
        let relisten = TcpListener::bind(addr);
        assert!(relisten.is_ok(), "server thread did not release the port");
    }

    #[test]
    fn unhealthy_probe_returns_503() {
        let registry = Arc::new(MetricsRegistry::new());
        let health: HealthCheck = Arc::new(|| HealthStatus::unhealthy("egress error: disk full"));
        let server =
            MetricsServer::start("127.0.0.1:0".parse().unwrap(), registry, health).unwrap();
        let (code, body) = get(server.local_addr(), "/healthz");
        assert_eq!(code, 503);
        assert!(body.contains("disk full"));
    }

    #[test]
    fn non_get_is_rejected() {
        let registry = Arc::new(MetricsRegistry::new());
        let health: HealthCheck = Arc::new(|| HealthStatus::ok(""));
        let server =
            MetricsServer::start("127.0.0.1:0".parse().unwrap(), registry, health).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        write!(conn, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"));
    }
}
