//! `identd` — multi-tenant identification-as-a-service.
//!
//! A dependency-free daemon that puts the [`streamid`] engine behind a
//! TCP socket: clients stream proxy-log transactions in and poll
//! window-vote identification decisions out, per tenant namespace.
//!
//! # Wire protocol
//!
//! Newline-delimited JSON over TCP: one request object per line, one
//! reply object per line, always in order. Replies carry `"ok":true` or
//! `{"ok":false,"error":CODE,"detail":TEXT}`; the daemon never
//! disconnects a client for a malformed request.
//!
//! | verb | request fields | reply fields |
//! |------|----------------|--------------|
//! | `health` | — | `status` (`"up"`/`"draining"`) |
//! | `load_profiles` | `tenant`, `dir`, `lossy?` | `profiles`, `skipped` |
//! | `ingest` | `tenant`, `txs` (array of 11-number tuples) | `accepted`, `decided` |
//! | `decide` | `tenant`, `device?` | `decisions` (array of objects) |
//! | `stats` | — | `daemon`, `tenants` counter objects |
//! | `drain` | — | `draining`, `flushed` |
//!
//! Example session:
//!
//! ```text
//! → {"verb":"load_profiles","tenant":"t0","dir":"/var/identd/t0"}
//! ← {"ok":true,"tenant":"t0","profiles":100,"skipped":0}
//! → {"verb":"ingest","tenant":"t0","txs":[[1420416000,7,3,99,1,1,12,4,2,0,0]]}
//! ← {"ok":true,"accepted":1,"decided":0}
//! → {"verb":"decide","tenant":"t0"}
//! ← {"ok":true,"decisions":[{"device":3,"start":1420416000,"txs":21,"accepted":[7],"actual":[7],"vote":7,"queue_us":912}]}
//! → {"verb":"drain"}
//! ← {"ok":true,"draining":true,"flushed":4}
//! ```
//!
//! Transactions travel as `[timestamp, user, device, site, action,
//! scheme, category, subtype, app_type, reputation, private]` with enum
//! fields as feature-column indices — see [`proto`]. The protocol assumes
//! the paper-scale taxonomy ([`proxylog::Taxonomy::paper_scale`]) on both
//! ends; profiles trained under a different taxonomy will score garbage.
//!
//! # Architecture
//!
//! One non-blocking accept thread feeds a [`parcore::default_workers`]-
//! sized worker pool over a bounded queue; a worker serves one connection
//! at a time, one request after another. Each tenant namespace is one
//! value behind one mutex: a [`streamid::StreamEngine`] that owns the
//! tenant's profiles (and shares one process-wide paper-scale
//! vocabulary), the decision buffer `decide` drains, and the devices a
//! drain flushes. The worker serving a request locks the tenant and runs
//! the engine on its own thread — no request is handed to another
//! thread. Requests for one tenant take turns at its lock, so the engine
//! sees each request's transactions in order, as a single writer would.
//! There is no queue of its own to shed: a client that outpaces its
//! tenant waits for its reply, and TCP holds back what it sends next.
//! A request that panics inside an engine poisons that tenant, which then
//! answers `{"ok":false,"error":"internal"}` until `load_profiles`
//! replaces it; the worker lives on. `load_profiles` on a loaded name
//! swaps in a fresh tenant; requests already running finish on the old
//! one.
//!
//! `drain` stops the accept loop (joined before the reply, so refusal of
//! new connections is observable), flushes every open window through the
//! engine's eviction path, and leaves tenants alive so the draining
//! client can collect flushed decisions with a final `decide`; the
//! process then exits 0 once connections close. Decisions are
//! bit-identical to the offline [`webprofiler::identify_on_device`] path
//! — the daemon adds transport, not modelling.

pub mod client;
pub mod json;
pub mod proto;
mod server;
mod tenant;

pub use client::Client;
pub use server::{Daemon, DaemonConfig};
pub use tenant::TenantStats;
