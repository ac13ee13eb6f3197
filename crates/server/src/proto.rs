//! The wire protocol: length-prefixed JSON frames over a byte stream.
//!
//! Every message is a 4-byte big-endian payload length followed by that
//! many bytes of compact JSON. Requests are tagged objects
//! (`{"op": "compile" | "status" | "shutdown", ...}`); responses carry
//! `"ok": true` plus the payload, or `"ok": false` plus a typed error
//! kind (`overloaded`, `deadline-exceeded`, `bad-request`) and a
//! user-facing message. Frames are capped at [`MAX_FRAME`] bytes so a
//! corrupt or hostile length prefix cannot make either side allocate
//! unboundedly.

use crate::json::{parse, Json};
use crate::service::{CompileOutcome, CompileRequest, CompileSource, ServedResult, ServiceError};
use dbds_core::OptLevel;
use std::fmt;
use std::io::{Read, Write};

/// Protocol version tag, included in status responses.
pub const PROTO_VERSION: &str = "dbds-server-proto-v1";

/// Upper bound on one frame's payload (16 MiB — an artifact for the
/// largest built-in workload is well under 1 MiB).
pub const MAX_FRAME: usize = 16 << 20;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Compile something.
    Compile(CompileRequest),
    /// Report service counters and store health.
    Status,
    /// Drain and stop the daemon.
    Shutdown,
}

/// Parses an opt level from its stable lowercase name.
pub fn level_from_name(name: &str) -> Option<OptLevel> {
    [
        OptLevel::Baseline,
        OptLevel::Dbds,
        OptLevel::Dupalot,
        OptLevel::Backtracking,
    ]
    .into_iter()
    .find(|l| l.name() == name)
}

impl Request {
    /// Encodes the request for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Status => Json::Obj(vec![("op".into(), Json::str("status"))]),
            Request::Shutdown => Json::Obj(vec![("op".into(), Json::str("shutdown"))]),
            Request::Compile(req) => {
                let mut pairs = vec![("op".into(), Json::str("compile"))];
                match &req.source {
                    CompileSource::Workload(name) => {
                        pairs.push(("workload".into(), Json::str(name.clone())));
                    }
                    CompileSource::IrText(text) => {
                        pairs.push(("ir".into(), Json::str(text.clone())));
                    }
                }
                pairs.push(("level".into(), Json::str(req.level.name())));
                if let Some(ms) = req.deadline_ms {
                    pairs.push(("deadline_ms".into(), Json::num(ms)));
                }
                Json::Obj(pairs)
            }
        }
    }

    /// Decodes a request from a wire JSON object.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for malformed requests (unknown
    /// op or level, missing fields) — the daemon turns it into a
    /// `bad-request` response.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing `op` field")?;
        match op {
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            "compile" => {
                let source = match (
                    v.get("workload").and_then(Json::as_str),
                    v.get("ir").and_then(Json::as_str),
                ) {
                    (Some(name), None) => CompileSource::Workload(name.to_string()),
                    (None, Some(text)) => CompileSource::IrText(text.to_string()),
                    _ => return Err("compile needs exactly one of `workload` or `ir`".into()),
                };
                let level_name = v
                    .get("level")
                    .and_then(Json::as_str)
                    .ok_or("missing `level` field")?;
                let level = level_from_name(level_name)
                    .ok_or_else(|| format!("unknown level `{level_name}`"))?;
                let deadline_ms = match v.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(n) => Some(n.as_u64().ok_or("`deadline_ms` must be a u64")?),
                };
                Ok(Request::Compile(CompileRequest {
                    source,
                    level,
                    deadline_ms,
                }))
            }
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// Encodes one compile outcome as a response object.
pub fn response_json(outcome: &CompileOutcome) -> Json {
    match outcome {
        Ok(served) => {
            let a = &served.artifact;
            let c = &a.counters;
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("cached".into(), Json::Bool(served.cached)),
                ("key".into(), Json::str(a.key.to_string())),
                ("level".into(), Json::str(a.level.clone())),
                ("work".into(), Json::num(c.work)),
                ("iterations".into(), Json::num(c.iterations)),
                ("candidates".into(), Json::num(c.candidates)),
                ("duplications".into(), Json::num(c.duplications)),
                ("final_size".into(), Json::num(c.final_size)),
                ("classes".into(), Json::str(a.classes.clone())),
                ("ir".into(), Json::str(a.ir.clone())),
            ])
        }
        Err(e) => error_json(e),
    }
}

/// Encodes a typed service error as a response object. The `message`
/// field carries the bare payload for `bad-request` (so the error
/// round-trips exactly) and the display string otherwise.
pub fn error_json(e: &ServiceError) -> Json {
    let message = match e {
        ServiceError::BadRequest(msg) => msg.clone(),
        other => other.to_string(),
    };
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::str(e.kind())),
        ("message".into(), Json::str(message)),
    ])
}

/// Client-side decode of a compile response back into an outcome.
///
/// # Errors
///
/// Returns a message when the response is not a well-formed compile
/// response at all (protocol violation, as opposed to a typed error).
pub fn parse_response(v: &Json) -> Result<CompileOutcome, String> {
    let ok = v.get("ok").and_then(Json::as_bool).ok_or("missing `ok`")?;
    if !ok {
        let kind = v
            .get("error")
            .and_then(Json::as_str)
            .ok_or("missing `error`")?;
        let msg = v
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        return Ok(Err(match kind {
            "overloaded" => ServiceError::Overloaded,
            "deadline-exceeded" => ServiceError::DeadlineExceeded,
            "bad-request" => ServiceError::BadRequest(msg),
            "frame-too-large" => ServiceError::FrameTooLarge,
            other => return Err(format!("unknown error kind `{other}`")),
        }));
    }
    let field = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
    let num = |k: &str| v.get(k).and_then(Json::as_u64);
    let key = field("key")
        .ok_or("missing `key`")?
        .parse()
        .map_err(|e: String| e)?;
    Ok(Ok(ServedResult {
        cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
        artifact: crate::artifact::CompiledArtifact {
            key,
            level: field("level").ok_or("missing `level`")?,
            classes: field("classes").ok_or("missing `classes`")?,
            ir: field("ir").ok_or("missing `ir`")?,
            counters: crate::artifact::ArtifactCounters {
                work: num("work").ok_or("missing `work`")?,
                iterations: num("iterations").ok_or("missing `iterations`")?,
                candidates: num("candidates").ok_or("missing `candidates`")?,
                duplications: num("duplications").ok_or("missing `duplications`")?,
                final_size: num("final_size").ok_or("missing `final_size`")?,
            },
        },
    }))
}

/// Why a frame could not be written: the caller must distinguish an
/// oversized payload (the stream is still intact — a typed error
/// response can go out in its place) from a dead connection.
#[derive(Debug)]
pub enum FrameError {
    /// The encoded payload exceeds [`MAX_FRAME`]; nothing was written,
    /// the stream is still usable. Carries the offending payload size.
    TooLarge(usize),
    /// The underlying stream failed mid-write; the connection is gone.
    Io(std::io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Io(e) => write!(f, "frame write failed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for std::io::Error {
    fn from(e: FrameError) -> std::io::Error {
        match e {
            FrameError::TooLarge(_) => {
                std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
            }
            FrameError::Io(io) => io,
        }
    }
}

/// Writes one frame: 4-byte big-endian length, then the compact JSON.
///
/// The cap is enforced *before* the length prefix goes out: an
/// oversized payload must never truncate the 4-byte prefix mid-stream
/// (`payload.len() as u32` would silently wrap) and corrupt every
/// following frame.
///
/// # Errors
///
/// [`FrameError::TooLarge`] for a frame over [`MAX_FRAME`] (stream
/// untouched), [`FrameError::Io`] for an underlying write failure.
pub fn write_frame(w: &mut impl Write, v: &Json) -> Result<(), FrameError> {
    let payload = v.compact().into_bytes();
    if payload.len() > MAX_FRAME {
        return Err(FrameError::TooLarge(payload.len()));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())
        .map_err(FrameError::Io)?;
    w.write_all(&payload).map_err(FrameError::Io)?;
    w.flush().map_err(FrameError::Io)
}

/// Reads one frame; `Ok(None)` on clean EOF before the length prefix.
///
/// # Errors
///
/// Returns the underlying I/O error, an error for an oversized length
/// prefix, or a parse error for a malformed payload.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Json>> {
    let Some(text) = read_frame_text(r)? else {
        return Ok(None);
    };
    parse(&text)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Reads one frame's payload as text without decoding it, so a server
/// can answer a malformed payload on the still-intact stream; `Ok(None)`
/// on clean EOF before the length prefix.
///
/// # Errors
///
/// Returns the underlying I/O error, or an error for an oversized
/// length prefix or a payload that is not UTF-8.
pub(crate) fn read_frame_text(r: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "EOF inside frame length",
            ));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Status,
            Request::Shutdown,
            Request::Compile(CompileRequest {
                source: CompileSource::Workload("wordcount".into()),
                level: OptLevel::Dbds,
                deadline_ms: Some(250),
            }),
            Request::Compile(CompileRequest {
                source: CompileSource::IrText("func @f() -> i64 { ... }".into()),
                level: OptLevel::Baseline,
                deadline_ms: None,
            }),
        ];
        for req in reqs {
            assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        for (text, needle) in [
            (r#"{"op":"fly"}"#, "unknown op"),
            (r#"{"op":"compile","level":"dbds"}"#, "exactly one of"),
            (
                r#"{"op":"compile","workload":"a","ir":"b","level":"dbds"}"#,
                "exactly one of",
            ),
            (
                r#"{"op":"compile","workload":"a","level":"O9"}"#,
                "unknown level",
            ),
            (r#"{"hello":1}"#, "missing `op`"),
        ] {
            let v = parse(text).unwrap();
            let err = Request::from_json(&v).unwrap_err();
            assert!(err.contains(needle), "`{err}` missing `{needle}`");
        }
    }

    #[test]
    fn error_responses_round_trip() {
        for e in [
            ServiceError::Overloaded,
            ServiceError::DeadlineExceeded,
            ServiceError::BadRequest("nope".into()),
            ServiceError::FrameTooLarge,
        ] {
            let parsed = parse_response(&error_json(&e)).unwrap();
            assert_eq!(parsed, Err(e));
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let v = Request::Status.to_json();
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(v));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");

        let mut bad = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        bad.extend_from_slice(b"xx");
        assert!(read_frame(&mut &bad[..]).is_err());
    }

    #[test]
    fn oversized_write_is_typed_and_leaves_the_stream_clean() {
        // A payload just over the cap: the JSON string body alone
        // exceeds MAX_FRAME once quoted.
        let huge = Json::str("x".repeat(MAX_FRAME));
        let mut buf = Vec::new();
        match write_frame(&mut buf, &huge) {
            Err(FrameError::TooLarge(len)) => assert!(len > MAX_FRAME, "{len}"),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert!(
            buf.is_empty(),
            "an oversized frame must not emit a length prefix: a \
             truncated `len as u32` would corrupt every following frame"
        );
        // The stream is still usable: a typed error goes out in place
        // of the oversized response.
        write_frame(&mut buf, &error_json(&ServiceError::FrameTooLarge)).unwrap();
        let parsed = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(
            parse_response(&parsed),
            Ok(Err(ServiceError::FrameTooLarge))
        );
    }
}
