//! `migrated`: a migration-as-a-service job server over the pipeline
//! facade.
//!
//! The synthesizer in `migrator` is a batch tool; this crate turns it into
//! a long-running service. A [`Server`] accepts refactoring jobs over a
//! line-oriented JSON protocol on plain TCP (no dependencies beyond `std`),
//! queues them, runs them on a bounded worker pool scheduled against
//! `parpool`'s single global thread budget — so N tenants cannot
//! oversubscribe one box — and streams each job's observer events to any
//! number of `watch` subscribers as `pipeline::wire` NDJSON.
//!
//! # Protocol
//!
//! One JSON object per line, one request per connection. The server
//! answers every request with a single JSON line whose `ok` field says
//! whether it succeeded — except `watch`, which streams the job's NDJSON
//! event lines (strictly increasing `seq`, terminal `run_finished`) and
//! then closes the connection.
//!
//! | request | reply |
//! |---|---|
//! | `{"cmd":"submit","job":{…}}` | `{"ok":true,"id":N,"status":"queued"}` |
//! | `{"cmd":"status","id":N}` | `{"ok":true,"id":N,"status":…,"outcome":…}` |
//! | `{"cmd":"list"}` | `{"ok":true,"jobs":[…]}` |
//! | `{"cmd":"result","id":N}` | `{"ok":true,…,"document":{…}}` |
//! | `{"cmd":"watch","id":N}` | NDJSON stream, then close |
//! | `{"cmd":"cancel","id":N}` | `{"ok":true,"id":N}` |
//! | `{"cmd":"shutdown","mode":"drain"\|"cancel"}` | `{"ok":true,…}` |
//!
//! The `job` object of `submit` is a [`pipeline::JobSpec`] in its JSON
//! encoding: `source_ddl`, `target_ddl` and `program` texts plus optional
//! `dialect`, `config`, `budget_secs`, `backend`, `rows`, `validate` and
//! `max_value_correspondences`.
//!
//! # Determinism
//!
//! A watched stream carries only the *main* observer channel (the
//! speculation side channel is scheduling-dependent and would perturb
//! `seq`), so the stream of a job is byte-identical to a serial
//! `migrate --events` export of the same spec, at any thread count and
//! any number of concurrent jobs. Every stream terminates: jobs cancelled
//! before they ever ran still get their `run_finished` line.
//!
//! # Budgets and cancellation
//!
//! A job's `budget_secs` becomes a deadline linked to the server's own
//! cancel token for the job ([`migrator::CancelToken::linked_with_timeout`]
//! inside the facade), so whichever fires first — the submitted budget, an
//! explicit `cancel`, or a cancelling shutdown — stops the run at its next
//! cancellation point, with the outcome kind (`timeout` vs `cancelled`)
//! preserving *why*. Failed and interrupted jobs return forensics: a
//! [`pipeline::SearchLedger`] is attached to every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod pack;
mod server;

pub use client::{client_cli, request, submit, wait_done, watch_into, CLIENT_USAGE};
pub use server::{serve_cli, Server, ServerConfig, ShutdownMode, SERVE_USAGE};
