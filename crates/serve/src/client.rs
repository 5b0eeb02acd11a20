//! The blocking TCP client for the serve protocol: one connection, one
//! request in flight, speaking the length-prefixed
//! [`protocol`](crate::protocol) frames to a
//! [`ShardedServer`](crate::ShardedServer). The
//! [`ResilientClient`](crate::ResilientClient) wraps it with seeded
//! retries and reconnects.

use crate::batch::InferReply;
use crate::protocol::{
    read_frame, write_frame, HealthReport, HealthRequest, HealthResponse, Request, RequestV2,
    Response, TelemetryRequest, TelemetryResponse,
};
use csp_telemetry::Snapshot;
use csp_tensor::{CspError, CspResult, Tensor};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn sock_err(what: String) -> CspError {
    CspError::Io {
        path: "serve-socket".to_string(),
        what,
    }
}

/// A blocking TCP client for the serve protocol.
#[derive(Debug)]
pub struct TcpClient {
    stream: TcpStream,
    next_id: u64,
}

impl TcpClient {
    /// Connect to a [`ShardedServer`](crate::ShardedServer).
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Io`] when the connection fails.
    pub fn connect(addr: &SocketAddr) -> CspResult<TcpClient> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| sock_err(format!("connect {addr} failed: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| sock_err(format!("set_nodelay failed: {e}")))?;
        Ok(TcpClient { stream, next_id: 1 })
    }

    /// Run one inference over the wire (legacy v1 framing). `budget`, if
    /// given, becomes the request's server-side deadline.
    ///
    /// # Errors
    ///
    /// The engine's typed error (decoded from the response frame), or
    /// [`CspError::Io`] / [`CspError::Corrupt`] for transport failures.
    pub fn infer(
        &mut self,
        model: &str,
        input: &Tensor,
        budget: Option<Duration>,
    ) -> CspResult<InferReply> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request {
            id,
            model: model.to_string(),
            deadline_us: budget.map_or(0, |b| b.as_micros() as u64),
            input: input.clone(),
        };
        write_frame(&mut self.stream, &req.encode())?;
        let resp = Response::decode(&self.read_reply()?)?;
        self.check_id(resp.id, id, "serve-response")?;
        resp.result
    }

    /// Run one inference in v2 framing: carries the idempotency key and
    /// attempt counter, and verifies the response CRC — a corrupted
    /// reply is a typed [`CspError::Corrupt`], never silently wrong
    /// logits.
    ///
    /// # Errors
    ///
    /// The engine's typed error, or [`CspError::Io`] /
    /// [`CspError::Corrupt`] for transport failures.
    pub fn infer_v2(
        &mut self,
        model: &str,
        input: &Tensor,
        budget: Option<Duration>,
        token: u64,
        id: u64,
        attempt: u32,
    ) -> CspResult<InferReply> {
        self.next_id = self.next_id.max(id + 1);
        let req = RequestV2 {
            token,
            id,
            attempt,
            model: model.to_string(),
            deadline_us: budget.map_or(0, |b| b.as_micros() as u64),
            input: input.clone(),
        };
        write_frame(&mut self.stream, &req.encode())?;
        let resp = Response::decode_v2(&self.read_reply()?)?;
        self.check_id(resp.id, id, "serve-response-v2")?;
        resp.result
    }

    /// Fetch the server's health report.
    ///
    /// # Errors
    ///
    /// The server's typed error, or [`CspError::Io`] /
    /// [`CspError::Corrupt`] for transport failures.
    pub fn health(&mut self) -> CspResult<HealthReport> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &HealthRequest { id }.encode())?;
        let resp = HealthResponse::decode(&self.read_reply()?)?;
        self.check_id(resp.id, id, "serve-health-response")?;
        resp.result
    }

    /// Fetch the server's merged telemetry snapshot (serving counters plus
    /// the remote process's global kernel/runtime/accelerator metrics).
    ///
    /// # Errors
    ///
    /// The engine's typed error (decoded from the response frame), or
    /// [`CspError::Io`] / [`CspError::Corrupt`] for transport failures —
    /// including a snapshot blob failing its CRC or version check.
    pub fn telemetry(&mut self) -> CspResult<Snapshot> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &TelemetryRequest { id }.encode())?;
        let resp = TelemetryResponse::decode(&self.read_reply()?)?;
        self.check_id(resp.id, id, "serve-telemetry-response")?;
        resp.result
    }

    fn read_reply(&mut self) -> CspResult<Vec<u8>> {
        read_frame(&mut self.stream)?
            .ok_or_else(|| sock_err("server closed the connection before responding".to_string()))
    }

    fn check_id(&self, got: u64, want: u64, artifact: &str) -> CspResult<()> {
        if got != want && got != 0 {
            return Err(CspError::Corrupt {
                artifact: artifact.to_string(),
                what: format!("response id {got} does not match request id {want}"),
            });
        }
        Ok(())
    }
}
