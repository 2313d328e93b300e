//! A blocking client for the serve protocol: `twpp query --remote`,
//! `twpp serve-bench`, and the e2e tests all connect through here.
//!
//! `Busy` replies are retried transparently (bounded, honouring the
//! server's `retry_after_ms` hint); typed `Error` replies surface as
//! [`ClientError::Refused`] carrying the wire code, so callers can map
//! `ERR_DEGRADED` to the same degraded exit the local CLI uses.

use std::time::Duration;

use twpp::daemon::ConnStream;
use twpp::net::{
    Answer, ArchiveStat, BudgetSpec, CurrencyReq, Frame, FramedStream, NetError, QueryReq,
    SliceReq,
};

/// Errors talking to a serve daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting or framing failed.
    Net(NetError),
    /// Connecting failed at the socket layer.
    Io(String),
    /// The server refused the request with a typed `Error` frame.
    Refused {
        /// One of the `ERR_*` codes.
        code: u32,
        /// The server's message.
        message: String,
    },
    /// The server stayed `Busy` through every retry.
    Busy,
    /// The server replied with a frame the request cannot produce.
    UnexpectedReply(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Net(e) => write!(f, "network: {e}"),
            ClientError::Io(m) => write!(f, "connect: {m}"),
            ClientError::Refused { code, message } => {
                write!(f, "server refused (code {code}): {message}")
            }
            ClientError::Busy => write!(f, "server busy through every retry"),
            ClientError::UnexpectedReply(kind) => write!(f, "unexpected reply frame: {kind}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<NetError> for ClientError {
    fn from(e: NetError) -> Self {
        ClientError::Net(e)
    }
}

/// A connected serve-protocol client.
pub struct Client {
    framed: FramedStream<Box<dyn ConnStream>>,
    /// Maximum `Busy` replies absorbed per request before giving up.
    pub busy_retries: u32,
}

impl Client {
    /// Connects to `spec`: `tcp:HOST:PORT`, `unix:PATH`, or a bare
    /// `HOST:PORT` (treated as TCP).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the socket cannot be opened.
    pub fn connect(spec: &str) -> Result<Client, ClientError> {
        let stream = twpp::daemon::connect(spec).map_err(|e| ClientError::Io(e.to_string()))?;
        Ok(Client { framed: FramedStream::new(stream), busy_retries: 20 })
    }

    /// Sends `request` and returns the substantive reply, absorbing up
    /// to [`Client::busy_retries`] `Busy` frames.
    ///
    /// # Errors
    ///
    /// [`ClientError::Refused`] for typed `Error` replies,
    /// [`ClientError::Busy`] when retries run out, transport errors
    /// otherwise.
    pub fn request(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        for _ in 0..=self.busy_retries {
            self.framed.send(request)?;
            match self.framed.recv()? {
                Frame::Busy { retry_after_ms } => {
                    std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1_000)));
                }
                Frame::Error { code, message } => {
                    return Err(ClientError::Refused { code, message })
                }
                reply => return Ok(reply),
            }
        }
        Err(ClientError::Busy)
    }

    fn expect_answer(&mut self, request: &Frame) -> Result<Answer, ClientError> {
        match self.request(request)? {
            Frame::Answer(a) => Ok(*a),
            Frame::Archives { .. } => Err(ClientError::UnexpectedReply("Archives")),
            _ => Err(ClientError::UnexpectedReply("non-answer")),
        }
    }

    /// Remote `twpp query`.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn query(&mut self, req: QueryReq, budget: BudgetSpec) -> Result<Answer, ClientError> {
        self.expect_answer(&Frame::Query { req, budget })
    }

    /// Remote `twpp slice`.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn slice(&mut self, req: SliceReq, budget: BudgetSpec) -> Result<Answer, ClientError> {
        self.expect_answer(&Frame::Slice { req, budget })
    }

    /// Remote `twpp currency`.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn currency(&mut self, req: CurrencyReq, budget: BudgetSpec) -> Result<Answer, ClientError> {
        self.expect_answer(&Frame::Currency { req, budget })
    }

    /// Enumerates the served fleet, name-sorted.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn list_archives(&mut self) -> Result<Vec<ArchiveStat>, ClientError> {
        match self.request(&Frame::ListArchives)? {
            Frame::Archives { entries } => Ok(entries),
            _ => Err(ClientError::UnexpectedReply("non-archives")),
        }
    }

    /// Stats one archive.
    ///
    /// # Errors
    ///
    /// As [`Client::request`]; `ERR_UNKNOWN_ARCHIVE` for absent names.
    pub fn stat(&mut self, archive: &str) -> Result<ArchiveStat, ClientError> {
        match self.request(&Frame::Stat { archive: archive.to_owned() })? {
            Frame::Archives { mut entries } if entries.len() == 1 => Ok(entries.remove(0)),
            Frame::Archives { .. } => Err(ClientError::UnexpectedReply("multi-entry stat")),
            _ => Err(ClientError::UnexpectedReply("non-archives")),
        }
    }
}
