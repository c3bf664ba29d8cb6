//! Wire protocol: request parsing, reply building, transaction codec.
//!
//! One request per line, one reply per line, both JSON objects. Every
//! request carries a `"verb"`; tenant-scoped verbs add `"tenant"`. The
//! daemon never disconnects on a bad request — it answers
//! `{"ok":false,"error":CODE,"detail":TEXT}` and keeps reading, so one
//! malformed producer cannot take down a shared connection's batch
//! pipeline. See the crate docs for the verb table.
//!
//! Transactions travel as 11-element arrays of numbers,
//!
//! ```text
//! [timestamp, user, device, site, action, scheme,
//!  category, subtype, app_type, reputation, private]
//! ```
//!
//! with the enum fields encoded as their feature-column indices
//! ([`proxylog::HttpAction::index`] etc.) and `private` as `0`/`1`. The
//! codec validates every field range; a reply-side decision is the same
//! shape in object form.

use crate::json::{self, Json};
use proxylog::{
    AppTypeId, CategoryId, DeviceId, HttpAction, Reputation, SiteId, SubtypeId, Timestamp,
    Transaction, UriScheme, UserId,
};
use std::fmt;

/// Longest accepted tenant name.
pub const MAX_TENANT_NAME: usize = 64;

/// A protocol-level failure: an error `code` for machines plus a `detail`
/// for humans. Converts into the standard error reply line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable machine-readable code (`parse`, `bad_request`,
    /// `unknown_verb`, `unknown_tenant`, `draining`,
    /// `line_too_long`, `invalid_utf8`, `store`, `internal`).
    pub code: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl ProtoError {
    /// Builds an error.
    pub fn new(code: &'static str, detail: impl Into<String>) -> Self {
        Self { code, detail: detail.into() }
    }

    /// A `bad_request` error.
    pub fn bad(detail: impl Into<String>) -> Self {
        Self::new("bad_request", detail)
    }

    /// The error as a one-line reply.
    pub fn to_reply_line(&self) -> String {
        Json::Obj(vec![
            ("ok".into(), Json::Bool(false)),
            ("error".into(), Json::str(self.code)),
            ("detail".into(), Json::str(&self.detail)),
        ])
        .to_line()
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for ProtoError {}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Health,
    /// Daemon + per-tenant counters.
    Stats,
    /// Stop accepting connections, flush every tenant, prepare to exit.
    Drain,
    /// Create (or replace) a tenant from a profile directory.
    LoadProfiles {
        /// Tenant namespace.
        tenant: String,
        /// [`streamid::ModelStore`] directory path.
        dir: String,
        /// Start degraded on partly-corrupt stores
        /// ([`streamid::ModelStore::load_lossy`]).
        lossy: bool,
    },
    /// Feed a batch of transactions to a tenant's engine.
    Ingest {
        /// Tenant namespace.
        tenant: String,
        /// The batch, event-time ordered per device as usual.
        txs: Vec<Transaction>,
    },
    /// Collect buffered window decisions.
    Decide {
        /// Tenant namespace.
        tenant: String,
        /// Restrict to one device.
        device: Option<DeviceId>,
    },
}

/// Parses one request line. Never panics; every malformed input maps to a
/// [`ProtoError`] whose reply line is itself well-formed JSON.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let value = json::parse(line).map_err(|e| ProtoError::new("parse", e.to_string()))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(ProtoError::bad("request must be a JSON object"));
    }
    let verb = value
        .get("verb")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::bad("missing string field \"verb\""))?;
    match verb {
        "health" => Ok(Request::Health),
        "stats" => Ok(Request::Stats),
        "drain" => Ok(Request::Drain),
        "load_profiles" => {
            let tenant = tenant_field(&value)?;
            let dir = value
                .get("dir")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::bad("load_profiles needs a string \"dir\""))?;
            let lossy = match value.get("lossy") {
                None => false,
                Some(v) => {
                    v.as_bool().ok_or_else(|| ProtoError::bad("\"lossy\" must be a boolean"))?
                }
            };
            Ok(Request::LoadProfiles { tenant, dir: dir.to_string(), lossy })
        }
        "ingest" => {
            let tenant = tenant_field(&value)?;
            let items = value
                .get("txs")
                .and_then(Json::as_arr)
                .ok_or_else(|| ProtoError::bad("ingest needs an array \"txs\""))?;
            let txs = items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    tx_from_json(item)
                        .map_err(|e| ProtoError::bad(format!("txs[{i}]: {}", e.detail)))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Ingest { tenant, txs })
        }
        "decide" => {
            let tenant = tenant_field(&value)?;
            let device = match value.get("device") {
                None | Some(Json::Null) => None,
                Some(v) => Some(DeviceId(field_u32(v, "device")?)),
            };
            Ok(Request::Decide { tenant, device })
        }
        other => Err(ProtoError::new("unknown_verb", format!("unknown verb {other:?}"))),
    }
}

fn tenant_field(value: &Json) -> Result<String, ProtoError> {
    let tenant = value
        .get("tenant")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::bad("missing string field \"tenant\""))?;
    validate_tenant(tenant)?;
    Ok(tenant.to_string())
}

/// Validates a tenant name: 1–[`MAX_TENANT_NAME`] chars of
/// `[A-Za-z0-9_-]` (names appear in reply objects and thread names, so
/// they stay boring).
pub fn validate_tenant(name: &str) -> Result<(), ProtoError> {
    if name.is_empty() || name.len() > MAX_TENANT_NAME {
        return Err(ProtoError::bad(format!(
            "tenant name must be 1..={MAX_TENANT_NAME} characters"
        )));
    }
    if !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-') {
        return Err(ProtoError::bad("tenant name must match [A-Za-z0-9_-]+"));
    }
    Ok(())
}

fn field_num(value: &Json, what: &str) -> Result<f64, ProtoError> {
    value.as_num().ok_or_else(|| ProtoError::bad(format!("{what} must be a number")))
}

fn field_i64(value: &Json, what: &str) -> Result<i64, ProtoError> {
    let n = field_num(value, what)?;
    if n.fract() != 0.0 || n.abs() >= 9.0e15 {
        return Err(ProtoError::bad(format!("{what} must be an integer, got {n}")));
    }
    Ok(n as i64)
}

fn field_u32(value: &Json, what: &str) -> Result<u32, ProtoError> {
    let n = field_i64(value, what)?;
    u32::try_from(n).map_err(|_| ProtoError::bad(format!("{what} out of u32 range: {n}")))
}

fn field_u16(value: &Json, what: &str) -> Result<u16, ProtoError> {
    let n = field_i64(value, what)?;
    u16::try_from(n).map_err(|_| ProtoError::bad(format!("{what} out of u16 range: {n}")))
}

fn field_enum<T: Copy>(value: &Json, what: &str, all: &[T]) -> Result<T, ProtoError> {
    let index = field_i64(value, what)?;
    usize::try_from(index)
        .ok()
        .and_then(|i| all.get(i))
        .copied()
        .ok_or_else(|| ProtoError::bad(format!("{what} must be 0..{}", all.len())))
}

/// Encodes a transaction as its wire tuple.
pub fn tx_to_json(tx: &Transaction) -> Json {
    Json::Arr(vec![
        Json::Num(tx.timestamp.as_secs() as f64),
        Json::Num(f64::from(tx.user.0)),
        Json::Num(f64::from(tx.device.0)),
        Json::Num(f64::from(tx.site.0)),
        Json::Num(tx.action.index() as f64),
        Json::Num(tx.scheme.index() as f64),
        Json::Num(f64::from(tx.category.0)),
        Json::Num(f64::from(tx.subtype.0)),
        Json::Num(f64::from(tx.app_type.0)),
        Json::Num(reputation_index(tx.reputation) as f64),
        Json::Num(if tx.private_destination { 1.0 } else { 0.0 }),
    ])
}

/// Decodes a wire tuple back into a transaction, validating every field.
pub fn tx_from_json(value: &Json) -> Result<Transaction, ProtoError> {
    let items = value.as_arr().ok_or_else(|| ProtoError::bad("transaction must be an array"))?;
    if items.len() != 11 {
        return Err(ProtoError::bad(format!("transaction needs 11 fields, got {}", items.len())));
    }
    let private = match field_i64(&items[10], "private")? {
        0 => false,
        1 => true,
        other => return Err(ProtoError::bad(format!("private must be 0 or 1, got {other}"))),
    };
    Ok(Transaction {
        timestamp: Timestamp(field_i64(&items[0], "timestamp")?),
        user: UserId(field_u32(&items[1], "user")?),
        device: DeviceId(field_u32(&items[2], "device")?),
        site: SiteId(field_u32(&items[3], "site")?),
        action: field_enum(&items[4], "action", &HttpAction::ALL)?,
        scheme: field_enum(&items[5], "scheme", &UriScheme::ALL)?,
        category: CategoryId(field_u16(&items[6], "category")?),
        subtype: SubtypeId(field_u16(&items[7], "subtype")?),
        app_type: AppTypeId(field_u16(&items[8], "app_type")?),
        reputation: field_enum(&items[9], "reputation", &Reputation::ALL)?,
        private_destination: private,
    })
}

fn reputation_index(reputation: Reputation) -> usize {
    Reputation::ALL.iter().position(|&r| r == reputation).expect("ALL covers every variant")
}

/// One scored window as it travels on the wire — the owned, serializable
/// form of a [`streamid::WindowDecision`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Device the window was observed on.
    pub device: u32,
    /// Window start (epoch seconds).
    pub start: i64,
    /// Transactions aggregated into the window.
    pub transactions: u64,
    /// Users whose models accepted the window, ascending.
    pub accepted: Vec<u32>,
    /// Ground-truth users active in the window, ascending.
    pub actual: Vec<u32>,
    /// Trailing majority vote, if one exists.
    pub vote: Option<u32>,
    /// Microseconds the window waited closed-but-unscored (decision
    /// latency attributable to micro-batching).
    pub queue_us: u64,
}

impl DecisionRecord {
    /// Converts an engine decision.
    pub fn from_decision(decision: &streamid::WindowDecision) -> Self {
        Self {
            device: decision.device.0,
            start: decision.start.as_secs(),
            transactions: decision.transaction_count as u64,
            accepted: decision.accepted_by.iter().map(|u| u.0).collect(),
            actual: decision.actual_users.iter().map(|u| u.0).collect(),
            vote: decision.vote.map(|u| u.0),
            queue_us: decision.queue_latency.as_micros().min(u128::from(u64::MAX)) as u64,
        }
    }

    /// The reply-side object form.
    pub fn to_json(&self) -> Json {
        let ids = |ids: &[u32]| Json::Arr(ids.iter().map(|&u| Json::Num(f64::from(u))).collect());
        Json::Obj(vec![
            ("device".into(), Json::Num(f64::from(self.device))),
            ("start".into(), Json::Num(self.start as f64)),
            ("txs".into(), Json::Num(self.transactions as f64)),
            ("accepted".into(), ids(&self.accepted)),
            ("actual".into(), ids(&self.actual)),
            ("vote".into(), self.vote.map_or(Json::Null, |u| Json::Num(f64::from(u)))),
            ("queue_us".into(), Json::Num(self.queue_us as f64)),
        ])
    }

    /// Parses the object form (the client side of [`to_json`](Self::to_json)).
    pub fn from_json(value: &Json) -> Result<Self, ProtoError> {
        let ids = |key: &str| -> Result<Vec<u32>, ProtoError> {
            value
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| ProtoError::bad(format!("decision needs an array {key:?}")))?
                .iter()
                .map(|v| field_u32(v, key))
                .collect()
        };
        let field = |key: &str| {
            value.get(key).ok_or_else(|| ProtoError::bad(format!("decision missing {key:?}")))
        };
        let vote = match value.get("vote") {
            None | Some(Json::Null) => None,
            Some(v) => Some(field_u32(v, "vote")?),
        };
        Ok(Self {
            device: field_u32(field("device")?, "device")?,
            start: field_i64(field("start")?, "start")?,
            transactions: field_i64(field("txs")?, "txs")?.max(0) as u64,
            accepted: ids("accepted")?,
            actual: ids("actual")?,
            vote,
            queue_us: field_i64(field("queue_us")?, "queue_us")?.max(0) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tx() -> Transaction {
        Transaction {
            timestamp: Timestamp(-1_234_567),
            user: UserId(7),
            device: DeviceId(3),
            site: SiteId(99),
            action: HttpAction::Connect,
            scheme: UriScheme::Https,
            category: CategoryId(12),
            subtype: SubtypeId(4),
            app_type: AppTypeId(2),
            reputation: Reputation::High,
            private_destination: true,
        }
    }

    #[test]
    fn transaction_codec_round_trips() {
        let tx = sample_tx();
        assert_eq!(tx_from_json(&tx_to_json(&tx)).unwrap(), tx);
        // Every enum variant survives.
        for action in HttpAction::ALL {
            for scheme in UriScheme::ALL {
                for reputation in Reputation::ALL {
                    let tx = Transaction { action, scheme, reputation, ..sample_tx() };
                    assert_eq!(tx_from_json(&tx_to_json(&tx)).unwrap(), tx);
                }
            }
        }
    }

    #[test]
    fn transaction_decode_rejects_bad_fields() {
        let mut fields = match tx_to_json(&sample_tx()) {
            Json::Arr(items) => items,
            _ => unreachable!(),
        };
        fields[4] = Json::Num(9.0); // action out of range
        assert!(tx_from_json(&Json::Arr(fields.clone())).is_err());
        fields[4] = Json::Num(1.5); // non-integral
        assert!(tx_from_json(&Json::Arr(fields.clone())).is_err());
        fields.pop();
        assert!(tx_from_json(&Json::Arr(fields)).is_err(), "ten fields");
        assert!(tx_from_json(&Json::str("x")).is_err());
    }

    #[test]
    fn request_parsing_covers_every_verb() {
        assert_eq!(parse_request("{\"verb\":\"health\"}").unwrap(), Request::Health);
        assert_eq!(parse_request("{\"verb\":\"stats\"}").unwrap(), Request::Stats);
        assert_eq!(parse_request("{\"verb\":\"drain\"}").unwrap(), Request::Drain);
        assert_eq!(
            parse_request("{\"verb\":\"load_profiles\",\"tenant\":\"t0\",\"dir\":\"/x\"}").unwrap(),
            Request::LoadProfiles { tenant: "t0".into(), dir: "/x".into(), lossy: false }
        );
        let tx_line = tx_to_json(&sample_tx()).to_line();
        let parsed = parse_request(&format!(
            "{{\"verb\":\"ingest\",\"tenant\":\"a-b_1\",\"txs\":[{tx_line}]}}"
        ))
        .unwrap();
        assert_eq!(parsed, Request::Ingest { tenant: "a-b_1".into(), txs: vec![sample_tx()] });
        assert_eq!(
            parse_request("{\"verb\":\"decide\",\"tenant\":\"t0\",\"device\":4}").unwrap(),
            Request::Decide { tenant: "t0".into(), device: Some(DeviceId(4)) }
        );
        assert_eq!(
            parse_request("{\"verb\":\"decide\",\"tenant\":\"t0\",\"device\":null}").unwrap(),
            Request::Decide { tenant: "t0".into(), device: None }
        );
    }

    #[test]
    fn request_errors_are_structured() {
        for (line, code) in [
            ("nonsense", "parse"),
            ("[]", "bad_request"),
            ("{\"verb\":\"frobnicate\"}", "unknown_verb"),
            ("{\"verb\":\"ingest\",\"tenant\":\"t\"}", "bad_request"),
            ("{\"verb\":\"ingest\",\"tenant\":\"bad name!\",\"txs\":[]}", "bad_request"),
            ("{\"verb\":\"decide\"}", "bad_request"),
            ("{\"verb\":\"decide\",\"tenant\":\"t\",\"device\":-1}", "bad_request"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, code, "line {line:?} gave {err}");
            // The error reply is itself a well-formed protocol line.
            let reply = json::parse(&err.to_reply_line()).unwrap();
            assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
            assert!(reply.get("error").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn decision_record_round_trips() {
        let record = DecisionRecord {
            device: 3,
            start: 1_420_416_000,
            transactions: 17,
            accepted: vec![1, 5, 9],
            actual: vec![5],
            vote: Some(5),
            queue_us: 1234,
        };
        assert_eq!(DecisionRecord::from_json(&record.to_json()).unwrap(), record);
        let none = DecisionRecord { vote: None, accepted: vec![], ..record };
        assert_eq!(DecisionRecord::from_json(&none.to_json()).unwrap(), none);
    }
}
