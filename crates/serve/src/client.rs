//! A small blocking client for the daemon's wire protocol — used by
//! the CLI, the bench harness, and the loopback tests. One request is
//! in flight per connection at a time (the protocol is strictly
//! request/response).

use std::net::{TcpStream, ToSocketAddrs};

use crate::wire::{self, KnnResponse, MetricsFormat, RangeResponse};
use crate::{Result, ServeError};

/// A blocking connection to a running [`crate::Server`].
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a daemon.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    fn roundtrip(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        wire::write_frame(&mut self.stream, request)?;
        match wire::read_frame(&mut self.stream, wire::MAX_FRAME)? {
            Some(payload) => Ok(payload),
            None => Err(ServeError::Protocol("server closed the connection".into())),
        }
    }

    /// Answer `queries` (raw series) with their `k` nearest neighbours.
    ///
    /// # Errors
    ///
    /// I/O failures, or the server's error message as
    /// [`ServeError::Protocol`].
    pub fn knn(&mut self, queries: &[Vec<f64>], k: usize) -> Result<KnnResponse> {
        let payload = self.roundtrip(&wire::encode_knn_request(queries, k))?;
        wire::decode_knn_response(&payload).map_err(ServeError::Protocol)
    }

    /// All indexed series within `epsilon` of `query`.
    ///
    /// # Errors
    ///
    /// As for [`Client::knn`].
    pub fn range(&mut self, query: &[f64], epsilon: f64) -> Result<RangeResponse> {
        let payload = self.roundtrip(&wire::encode_range_request(query, epsilon))?;
        wire::decode_range_response(&payload).map_err(ServeError::Protocol)
    }

    /// The server's stats document (JSON: a `server` section of plain
    /// counters plus the `sapla-obs` snapshot when built with obs).
    ///
    /// # Errors
    ///
    /// As for [`Client::knn`].
    pub fn stats(&mut self) -> Result<String> {
        let payload = self.roundtrip(&wire::encode_bare_request(wire::OP_STATS))?;
        let mut r = wire::check_status(&payload).map_err(ServeError::Protocol)?;
        let text = r.blob().map_err(ServeError::Protocol)?;
        let text = String::from_utf8_lossy(text).into_owned();
        r.finish().map_err(ServeError::Protocol)?;
        Ok(text)
    }

    /// The server's metrics exposition: JSON (stats extended with
    /// `latency` percentile rows and `trace` sections — recent flight
    /// recorder traces and the `--slow-ms` slow-query log) or a
    /// Prometheus-style text document.
    ///
    /// # Errors
    ///
    /// As for [`Client::knn`].
    pub fn metrics(&mut self, format: MetricsFormat) -> Result<String> {
        let payload = self.roundtrip(&wire::encode_metrics_request(format))?;
        let mut r = wire::check_status(&payload).map_err(ServeError::Protocol)?;
        let text = r.blob().map_err(ServeError::Protocol)?;
        let text = String::from_utf8_lossy(text).into_owned();
        r.finish().map_err(ServeError::Protocol)?;
        Ok(text)
    }

    /// The server's current index as a `sapla-store` image — raw
    /// series, representations and built trees — that
    /// `sapla_index::Engine::from_snapshot_image` loads and
    /// [`Client::reload`] accepts.
    ///
    /// # Errors
    ///
    /// As for [`Client::knn`].
    pub fn snapshot(&mut self) -> Result<Vec<u8>> {
        let payload = self.roundtrip(&wire::encode_bare_request(wire::OP_SNAPSHOT))?;
        let mut r = wire::check_status(&payload).map_err(ServeError::Protocol)?;
        let blob = r.blob().map_err(ServeError::Protocol)?.to_vec();
        r.finish().map_err(ServeError::Protocol)?;
        Ok(blob)
    }

    /// Atomically swap the served engine for the one the `sapla-store`
    /// image `blob` holds (pass an empty blob to re-read the server's
    /// configured index file). The image is self-contained, so the
    /// membership may change. Returns the record count. In-flight
    /// queries finish on the old engine.
    ///
    /// # Errors
    ///
    /// As for [`Client::knn`]; a corrupt image, or an empty blob sent to
    /// a server without an index file, is rejected server-side and the
    /// old engine keeps serving.
    pub fn reload(&mut self, blob: &[u8]) -> Result<u64> {
        let payload = self.roundtrip(&wire::encode_reload_request(blob))?;
        let mut r = wire::check_status(&payload).map_err(ServeError::Protocol)?;
        let records = r.u64().map_err(ServeError::Protocol)?;
        r.finish().map_err(ServeError::Protocol)?;
        Ok(records)
    }

    /// Ask the daemon to shut down (it finishes queued queries first).
    ///
    /// # Errors
    ///
    /// As for [`Client::knn`].
    pub fn shutdown(&mut self) -> Result<()> {
        let payload = self.roundtrip(&wire::encode_bare_request(wire::OP_SHUTDOWN))?;
        let r = wire::check_status(&payload).map_err(ServeError::Protocol)?;
        r.finish().map_err(ServeError::Protocol)
    }
}
