//! Bank-level DDR4 DRAM timing model.
//!
//! This crate is the memory-device substrate for the AQUA Rowhammer-mitigation
//! reproduction. It models the parts of a DDR4 memory system that matter for
//! row-migration mitigation studies:
//!
//! - [`DramGeometry`]: channels / ranks / banks / rows / row size (Table I of the
//!   paper: 16 banks x 1 rank x 1 channel, 128K rows per bank, 8 KB rows).
//! - [`DdrTiming`]: the JEDEC timing parameters (`tRC`, `tRCD`, `tCL`, `tRP`,
//!   `tREFI`, `tRFC`, `tREFW`, `tCCD`) and derived quantities such as the maximum
//!   activation budget per bank per refresh window ([`DdrTiming::act_max`]) and
//!   the row-migration latency ([`DdrTiming::row_migration_latency`]).
//! - [`Bank`]: a per-bank state machine with an open-row (row-buffer) model that
//!   reports, for each access, whether an activation happened and when the data
//!   transfer completes.
//! - [`Channel`]: shared-channel accounting, used to model the channel-blocking
//!   cost of row migrations (the dominant slowdown source in the paper).
//! - [`RefreshScheduler`]: periodic refresh windows (`tREFI`/`tRFC`) that make
//!   banks unavailable.
//!
//! Time is represented in integer picoseconds ([`Time`], [`Duration`]) so that
//! fractional-nanosecond DDR4 parameters (e.g. `tRCD` = 14.2 ns) stay exact.
//!
//! # Example
//!
//! ```
//! use aqua_dram::{BaselineConfig, Bank, Time};
//!
//! let cfg = BaselineConfig::paper_table1();
//! let mut bank = Bank::new(cfg.timing);
//! let first = bank.access(5, Time::ZERO);
//! assert!(first.activated); // empty row buffer: the access opens the row
//! let second = bank.access(5, first.data_ready);
//! assert!(!second.activated); // row-buffer hit
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod address;
mod bank;
mod channel;
mod config;
mod error;
mod geometry;
pub mod mitigation;
mod refresh;
mod stats;
mod time;
mod timing;

pub use address::{BankId, GlobalRowId, RowAddr};
pub use bank::{AccessResult, Bank, PagePolicy};
pub use channel::{Channel, ChannelStats};
pub use config::BaselineConfig;
pub use error::{AddressError, DramError};
pub use geometry::DramGeometry;
pub use refresh::RefreshScheduler;
pub use stats::CommandStats;
pub use time::{Duration, Time};
pub use timing::DdrTiming;
