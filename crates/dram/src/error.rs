//! Error types for the DRAM model.

use std::error::Error;
use std::fmt;

/// An address fell outside the configured geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressError {
    /// Bank index exceeds the number of banks.
    BankOutOfRange {
        /// Offending bank index.
        bank: u32,
        /// Number of banks in the module.
        banks: u32,
    },
    /// Row index exceeds rows per bank.
    RowOutOfRange {
        /// Offending row index.
        row: u32,
        /// Rows per bank.
        rows: u32,
    },
    /// Flat row id exceeds total rows.
    GlobalRowOutOfRange {
        /// Offending flat id.
        id: u64,
        /// Total rows in the module.
        rows: u64,
    },
}

impl fmt::Display for AddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressError::BankOutOfRange { bank, banks } => {
                write!(
                    f,
                    "bank index {bank} out of range (module has {banks} banks)"
                )
            }
            AddressError::RowOutOfRange { row, rows } => {
                write!(f, "row index {row} out of range (bank has {rows} rows)")
            }
            AddressError::GlobalRowOutOfRange { id, rows } => {
                write!(
                    f,
                    "global row id {id} out of range (module has {rows} rows)"
                )
            }
        }
    }
}

impl Error for AddressError {}

/// Top-level error type for DRAM-model operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramError {
    /// An address was invalid for the configured geometry.
    Address(AddressError),
    /// A simulation exceeded its per-job wall-clock budget. The bench
    /// harness converts this into a failed matrix cell whose reason names
    /// the budget, instead of letting a hung cell stall the whole matrix.
    WatchdogExpired {
        /// Wall-clock budget the run was given, in milliseconds.
        budget_ms: u64,
    },
    /// A DRAM command was issued to the array but its side-channel
    /// notification was lost (one-shot command fault): the mitigation never
    /// observed the activation.
    CommandFault {
        /// Simulation time of the dropped notification, picoseconds.
        at_ps: u64,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::Address(e) => write!(f, "invalid address: {e}"),
            DramError::WatchdogExpired { budget_ms } => {
                write!(
                    f,
                    "watchdog: simulation exceeded its {budget_ms} ms wall-clock budget"
                )
            }
            DramError::CommandFault { at_ps } => {
                write!(
                    f,
                    "command fault: activation notification lost at {at_ps} ps"
                )
            }
        }
    }
}

impl Error for DramError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DramError::Address(e) => Some(e),
            DramError::WatchdogExpired { .. } | DramError::CommandFault { .. } => None,
        }
    }
}

impl From<AddressError> for DramError {
    fn from(e: AddressError) -> Self {
        DramError::Address(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let e = AddressError::BankOutOfRange { bank: 9, banks: 4 };
        assert!(e.to_string().contains("bank index 9"));
        let top: DramError = e.into();
        assert!(top.source().is_some());
        assert!(top.to_string().contains("invalid address"));
    }
}
