//! The `sla-serve` side of `serve_mixed`: the server child and the
//! closed-loop client.
//!
//! The child is this binary re-executed in `--serve-child` mode, which runs
//! the `sla-serve` accept loop (`sla_store::server::serve`) on an ephemeral
//! loopback port with `SLA_THREADS=1`, so client plus server load at most
//! two cores.

use crate::check::Served;
use sla_store::proto::{self, Message, Request};
use sla_store::server::{serve, ServeOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Child-process entry point: bind, announce the address on stdout, serve
/// until a shutdown frame arrives.
pub fn child_main(store_dir: PathBuf, capacity: usize) -> Result<(), String> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind failed: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr failed: {e}"))?;
    println!("listening on {addr}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    let options = ServeOptions {
        store_dir,
        capacity,
        max_requests: None,
    };
    serve(listener, &options).map_err(|e| format!("serve failed: {e}"))
}

/// A running server child with a fresh store.
pub struct Server {
    child: Option<Child>,
    addr: String,
    store_dir: PathBuf,
}

impl Server {
    /// Spawns the child with an empty store in `store_dir` and waits for
    /// its address line. The child's diagnostics go to `log`.
    pub fn spawn(store_dir: &Path, capacity: usize, log: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(store_dir);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let log = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--serve-child")
            .arg(store_dir)
            .arg(capacity.to_string())
            .env("SLA_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawning the server child failed: {e}"))?;
        let mut banner = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut banner));
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
            store_dir: store_dir.to_path_buf(),
        };
        match (read, banner.trim().strip_prefix("listening on ")) {
            (Some(Ok(_)), Some(addr)) => {
                server.addr = addr.to_string();
                Ok(server)
            }
            _ => Err(format!(
                "server child did not announce an address: {banner:?}"
            )),
        }
    }

    /// Opens the client connection.
    pub fn connect(&self) -> Result<Client, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        // The request's length prefix and body are separate writes; without
        // this the second waits for the server's delayed ACK.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let input = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client {
            input,
            output: BufWriter::new(stream),
        })
    }

    /// Peak resident set of the child so far, in KiB (`VmHWM`).
    pub fn peak_rss_kib(&self) -> Option<u64> {
        self.child
            .as_ref()
            .and_then(|c| crate::vm_hwm_kib(&format!("/proc/{}/status", c.id())))
    }

    /// Asks the child to exit over `client` and reaps it.
    pub fn shutdown(mut self, mut client: Client) -> Result<(), String> {
        proto::write_message(&mut client.output, &Message::Shutdown)
            .map_err(|e| format!("shutdown write failed: {e}"))?;
        let child = self.child.take();
        drop(client);
        let status = child
            .map(|mut c| c.wait())
            .transpose()
            .map_err(|e| format!("waiting for the server child failed: {e}"))?;
        let _ = std::fs::remove_dir_all(&self.store_dir);
        match status {
            Some(s) if s.success() => Ok(()),
            other => Err(format!("server child exited with {other:?}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

/// The client end of one connection.
pub struct Client {
    input: BufReader<TcpStream>,
    output: BufWriter<TcpStream>,
}

impl Client {
    /// Sends `request` and collects the verdict stream and the summary.
    pub fn round_trip(&mut self, request: &Message) -> Result<Served, String> {
        proto::write_message(&mut self.output, request)
            .map_err(|e| format!("request write failed: {e}"))?;
        let mut verdicts = Vec::new();
        loop {
            let msg = proto::read_message(&mut self.input)
                .map_err(|e| format!("response read failed: {e:?}"))?
                .ok_or("server closed the connection mid-response")?;
            match msg {
                Message::Verdict { index, status } => verdicts.push((index, status)),
                Message::Done(summary) => return Ok(Served { verdicts, summary }),
                Message::Error(text) => return Err(format!("server error: {text}")),
                other => return Err(format!("unexpected server message: {other:?}")),
            }
        }
    }
}

/// The request message for one design.
pub fn request(inputs: &crate::inputs::Inputs, design: usize) -> Message {
    let d = &inputs.designs[design];
    Message::Request(Request {
        name: d.name.clone(),
        bench: d.bench.clone(),
        faults: d.faults.clone(),
        learn: Some(inputs.learn.clone()),
        atpg: inputs.atpg,
    })
}
