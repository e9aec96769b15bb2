//! In-process daemons for the experiments that measure the service, and
//! the one HTTP client they talk to them with: the cluster coordinator's
//! own [`ermesd::http::write_request`] and [`ermesd::http::read_response`].

use ermesd::{ClusterConfig, Server, ServerConfig};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::thread::JoinHandle;

/// Largest response body the bench clients buffer.
pub const MAX_RESPONSE: usize = 64 << 20;

/// Sends one request on its own connection (closed after the exchange)
/// and reads the whole response.
///
/// # Errors
///
/// Connection and transport failures, and malformed or oversized
/// responses (`InvalidData`).
pub fn exchange(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<ermesd::http::ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    ermesd::http::write_request(&mut stream, method, path, &[], body)?;
    ermesd::http::read_response(&mut BufReader::new(stream), MAX_RESPONSE)
}

/// [`exchange`] for the experiments: the status and the body as text.
///
/// # Panics
///
/// On any transport failure or a non-UTF-8 body — an experiment cannot
/// go on without the reply.
#[must_use]
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let response = exchange(addr, method, path, body.as_bytes())
        .unwrap_or_else(|e| panic!("{method} {path} on {addr}: {e}"));
    let body = String::from_utf8(response.body).expect("utf-8 body");
    (response.status, body)
}

/// One daemon serving on an ephemeral port from a thread of this
/// process.
#[derive(Debug)]
pub struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds and starts serving.
    ///
    /// # Panics
    ///
    /// If the daemon cannot bind.
    #[must_use]
    pub fn start(config: ServerConfig) -> Self {
        let server = Server::start(config).expect("bind an ephemeral port");
        let addr = server.addr();
        Daemon {
            addr,
            handle: std::thread::spawn(move || server.run()),
        }
    }

    /// The address it serves on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `POST /shutdown`, then waits for the drain.
    ///
    /// # Panics
    ///
    /// Unless the shutdown is acknowledged and the daemon drains cleanly.
    pub fn shutdown(self) {
        let (status, body) = request(self.addr, "POST", "/shutdown", "");
        assert_eq!(status, 200, "shutdown of {}: {body}", self.addr);
        self.handle
            .join()
            .expect("daemon thread")
            .expect("clean drain");
    }
}

/// A coordinator over `n` worker daemons of one pool thread each, all in
/// this process.
#[derive(Debug)]
pub struct Fleet {
    coordinator: Daemon,
    workers: Vec<Daemon>,
}

impl Fleet {
    /// Starts the workers, then a coordinator that probes them every
    /// 200 ms.
    #[must_use]
    pub fn start(n: usize) -> Self {
        let workers: Vec<Daemon> = (0..n)
            .map(|_| {
                Daemon::start(ServerConfig {
                    workers: 1,
                    ..ServerConfig::default()
                })
            })
            .collect();
        let mut cluster = ClusterConfig::new(workers.iter().map(|w| w.addr.to_string()).collect());
        cluster.probe_interval_ms = 200;
        let coordinator = Daemon::start(ServerConfig {
            cluster: Some(cluster),
            ..ServerConfig::default()
        });
        Fleet {
            coordinator,
            workers,
        }
    }

    /// The coordinator's address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.coordinator.addr
    }

    /// Shuts the coordinator down, then every worker, checking that each
    /// drains cleanly.
    pub fn shutdown(self) {
        self.coordinator.shutdown();
        for worker in self.workers {
            worker.shutdown();
        }
    }
}
