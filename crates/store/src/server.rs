//! The `sla-serve` request loop.
//!
//! A deliberately single-threaded accept loop: requests on one socket are
//! served in arrival order, and parallelism lives where it always lives —
//! inside the session, which shards fault searches across the `sla-par`
//! worker pool. That keeps the service inside the workspace determinism
//! contract (no `std::thread`/`std::sync` outside `crates/par`) and makes
//! the answer to any request independent of connection interleaving.
//!
//! One [`LearnedStore`] is opened at startup and shared across all requests
//! and connections, so the second request for a design skips learning
//! entirely. Cache failures never fail a request: a corrupt entry is logged
//! (full error chain) and repopulated from a fresh learning run.

use crate::proto::{self, Message, ProtoError, Request, Summary};
use crate::{error_chain, CacheOutcome, LearnedStore, Session};
use sla_netlist::parser::parse_bench;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

/// Configuration of a [`serve`] loop.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Directory of the persistent learned-knowledge store.
    pub store_dir: PathBuf,
    /// Maximum number of cached learned databases.
    pub capacity: usize,
    /// Stop after this many requests (used by tests); `None` = run until a
    /// [`Message::Shutdown`] arrives.
    pub max_requests: Option<usize>,
}

/// What a connection asked the server to do next.
enum Flow {
    /// Keep accepting connections.
    Continue,
    /// Exit the serve loop cleanly.
    Stop,
}

/// Accepts connections on `listener` and serves requests until a
/// [`Message::Shutdown`] arrives or the request quota is exhausted.
/// Per-connection failures are logged and do not stop the loop.
pub fn serve(listener: TcpListener, options: &ServeOptions) -> std::io::Result<()> {
    let (mut store, reset) = LearnedStore::open_or_reset(&options.store_dir, options.capacity);
    if let Some(err) = reset {
        eprintln!(
            "sla-serve: store at {} reset to empty: {}",
            store.dir().display(),
            error_chain(&err)
        );
    }
    let mut served = 0usize;
    for conn in listener.incoming() {
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sla-serve: accept failed: {e}");
                continue;
            }
        };
        // Every verdict frame is flushed as its own small write. With Nagle's
        // algorithm on, each such write after the first waits for the
        // client's delayed ACK, which stalls a request by tens of ms.
        if let Err(e) = stream.set_nodelay(true) {
            eprintln!("sla-serve: cannot disable Nagle's algorithm: {e}");
        }
        match handle_connection(&stream, &mut store, &mut served, options.max_requests) {
            Ok(Flow::Continue) => {}
            Ok(Flow::Stop) => return Ok(()),
            Err(e) => eprintln!("sla-serve: connection dropped: {e}"),
        }
        if let Some(max) = options.max_requests {
            if served >= max {
                return Ok(());
            }
        }
    }
    Ok(())
}

/// Serves one connection until the client hangs up or asks for shutdown.
fn handle_connection(
    stream: &TcpStream,
    store: &mut LearnedStore,
    served: &mut usize,
    max_requests: Option<usize>,
) -> std::io::Result<Flow> {
    let mut input = BufReader::new(stream);
    let mut output = BufWriter::new(stream);
    loop {
        let msg = match proto::read_message(&mut input) {
            Ok(Some(msg)) => msg,
            Ok(None) => return Ok(Flow::Continue),
            Err(ProtoError::Io(e)) => return Err(e),
            Err(e) => {
                // A malformed frame poisons the stream framing; answer with
                // the reason and drop the connection.
                eprintln!("sla-serve: bad frame: {}", error_chain(&e));
                let _ = proto::write_message(&mut output, &Message::Error(error_chain(&e)));
                return Ok(Flow::Continue);
            }
        };
        match msg {
            Message::Shutdown => {
                eprintln!("sla-serve: shutdown requested");
                return Ok(Flow::Stop);
            }
            Message::Request(req) => {
                handle_request(&req, store, &mut output)?;
                *served += 1;
                if let Some(max) = max_requests {
                    if *served >= max {
                        output.flush()?;
                        return Ok(Flow::Stop);
                    }
                }
            }
            other => {
                let text = format!("unexpected client message: {other:?}");
                eprintln!("sla-serve: {text}");
                proto::write_message(&mut output, &Message::Error(text))?;
            }
        }
    }
}

/// Runs one request through the session API, streaming verdicts in strict
/// fault order followed by the summary frame.
fn handle_request(
    req: &Request,
    store: &mut LearnedStore,
    output: &mut impl Write,
) -> std::io::Result<()> {
    let netlist = match parse_bench(&req.name, &req.bench) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("sla-serve: request '{}' rejected: {e}", req.name);
            return proto::write_message(output, &Message::Error(format!("bad netlist: {e}")));
        }
    };
    let faults = match proto::resolve_faults(&netlist, &req.faults) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sla-serve: request '{}' rejected: {e}", req.name);
            return proto::write_message(output, &Message::Error(format!("bad fault list: {e}")));
        }
    };
    let mut session = Session::open(&netlist);
    let (cache, learn_work_units) = match &req.learn {
        None => (CacheOutcome::Uncached, 0),
        Some(opts) => match session.learn_cached(opts, store) {
            Ok(report) => {
                if let Some(store_err) = &report.store_error {
                    eprintln!(
                        "sla-serve: cache entry for '{}' rejected: {}",
                        req.name,
                        error_chain(store_err)
                    );
                }
                (report.outcome, report.work_units)
            }
            Err(e) => {
                eprintln!("sla-serve: learning for '{}' failed: {e}", req.name);
                return proto::write_message(
                    output,
                    &Message::Error(format!("learning failed: {e}")),
                );
            }
        },
    };
    eprintln!(
        "sla-serve: request '{}': {} faults, cache {:?}, {} learning work units",
        req.name,
        req.faults.len(),
        cache,
        learn_work_units
    );
    let mut stream_err: Option<std::io::Error> = None;
    let run = session.atpg_streaming(&req.atpg, &faults, |index, status| {
        if stream_err.is_none() {
            if let Err(e) = proto::write_message(
                output,
                &Message::Verdict {
                    index: index as u32,
                    status,
                },
            ) {
                stream_err = Some(e);
            }
        }
    });
    if let Some(e) = stream_err {
        return Err(e);
    }
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("sla-serve: ATPG for '{}' failed: {e}", req.name);
            return proto::write_message(output, &Message::Error(format!("atpg failed: {e}")));
        }
    };
    proto::write_message(
        output,
        &Message::Done(Summary {
            total_faults: run.stats.total_faults as u32,
            detected: run.stats.detected as u32,
            untestable: run.stats.untestable as u32,
            aborted: run.stats.aborted as u32,
            backtracks: run.stats.backtracks as u64,
            decisions: run.stats.decisions as u64,
            sequences: run.stats.sequences as u32,
            test_vectors: run.stats.test_vectors as u64,
            budget_spent: run.stats.budget_spent,
            cache,
            learn_work_units,
        }),
    )
}
