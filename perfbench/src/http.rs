//! A keep-alive HTTP/1.1 client for driving in-process daemons,
//! plus the daemon handle the workloads start and stop.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

/// One response: status, the `x-ermes-session` header if present, body.
pub struct Reply {
    pub status: u16,
    pub session: Option<String>,
    pub body: String,
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends one request and reads the whole response. The request head
    /// is written here because `ermesd::http::write_request` always asks
    /// to close the connection. `trace` is an
    /// optional `x-ermes-trace` value, which makes the daemon's request
    /// span a child of the caller's span.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        trace: Option<&str>,
    ) -> io::Result<Reply> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n",
            body.len()
        );
        if let Some(ctx) = trace {
            head.push_str("x-ermes-trace: ");
            head.push_str(ctx);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;

        let reply = ermesd::http::read_response(&mut self.reader, usize::MAX)?;
        let session = reply.header("x-ermes-session").map(str::to_string);
        let body = String::from_utf8(reply.body).map_err(|_| io::Error::other("non-UTF-8 body"))?;
        Ok(Reply {
            status: reply.status,
            session,
            body,
        })
    }
}

/// One request on a fresh connection.
pub fn once(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    Conn::open(addr)?.send(method, path, body, None)
}

/// An in-process `ermesd` serving on an ephemeral loopback port.
pub struct Daemon {
    pub addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    pub fn start(config: ermesd::ServerConfig) -> Daemon {
        let server = ermesd::Server::start(config).expect("bind an ephemeral loopback port");
        let addr = server.addr();
        let thread = std::thread::spawn(move || server.run());
        Daemon { addr, thread }
    }

    /// `POST /shutdown`, then waits for the drain to finish.
    pub fn stop(self) {
        let reply = once(self.addr, "POST", "/shutdown", "").expect("shutdown request");
        assert_eq!(reply.status, 200, "shutdown refused: {}", reply.body);
        self.thread
            .join()
            .expect("server thread panicked")
            .expect("server drains cleanly");
    }
}
