//! # ecad-cli
//!
//! Library backing the `ecad` command-line tool — the "streamlined"
//! front end the paper's Future Directions section promises: point it
//! at a CSV table and a configuration file and get a co-designed
//! MLP + hardware configuration back.
//!
//! The binary is a thin shell over [`run`]; everything it does
//! (argument parsing, command dispatch, report formatting) lives here
//! so it is unit-testable.
//!
//! ```text
//! ecad search   --data table.csv [--config ecad.ini] [--trace out.csv]
//!               [--serve ADDR] [--trace-out out.jsonl]
//!               [--profile-out out.json [--profile-clock wall|ticks]]
//! ecad analyze  --file trace.jsonl [--format text|json|csv]
//! ecad trace    --file trace.jsonl [--require E1,E2]
//! ecad profile  --file profile.json [--format text|json|collapsed]
//! ecad datasets [--generate NAME --out FILE [--samples N] [--seed N]]
//! ecad devices
//! ecad estimate --layers 784,256,10 [--device NAME] [--batch N]
//!               [--grid RxCxV[,ILMxILN]] [--banks N]
//! ecad bench    run|list|trend|gate [--suite NAME] [--filter SUBSTR]
//!               [--threshold-p95-ms MS] [--max-p95-regression-pct PCT]
//! ecad cluster  worker --listen HOST:PORT [--serve ADDR]
//! ecad cluster  search --workers HOST:PORT,... [--serve ADDR]
//! ```

#![warn(missing_docs)]

mod analyze;
mod args;
mod bench_cmd;
mod commands;
mod profile;

pub use args::{ArgError, Parsed};
pub use commands::{run, CliError};
