//! # obs — observability for the Migrator pipeline
//!
//! Three small pieces, shared by every layer of the workspace:
//!
//! * [`Trace`] — hierarchical timed spans for pipeline stages, rendered as
//!   a human-readable tree or as Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`), built with the in-tree
//!   `sqlbridge::Json` writer;
//! * [`PipelineEvent`] / [`PipelineObserver`] — stage events for ingest,
//!   emission, backend execution and validation, complementing the
//!   synthesis-loop event stream;
//! * [`SearchLedger`] — search forensics: a deterministic, bounded-memory
//!   rejection taxonomy plus MFI-kill / death-depth / hole-domain
//!   histograms, explaining *why* a synthesis run failed.
//!
//! ```
//! use obs::{PipelineEvent, PipelineEventLog, PipelineObserver, Trace};
//! use std::time::Duration;
//!
//! // Spans nest by begin/end order and export as Chrome trace JSON.
//! let trace = Trace::new();
//! let stage = trace.begin("synthesize");
//! trace.end(stage);
//! trace.add_phase(stage, "plan compile", Duration::from_millis(2));
//! let json = trace.to_chrome_json().to_pretty_string();
//! assert!(json.contains("traceEvents"));
//!
//! // Pipeline events narrate the stages outside the synthesis loop.
//! let log = PipelineEventLog::new();
//! log.pipeline_event(&PipelineEvent::DdlParsed { input: "source".into(), tables: 1 });
//! assert!(log.render().contains("parsed source DDL"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod forensics;
mod trace;

pub use event::{PipelineEvent, PipelineEventLog, PipelineObserver};
pub use forensics::SearchLedger;
pub use trace::{SpanHandle, Trace};
