//! Row-address newtypes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies one bank within one channel.
///
/// Ranks are flattened into the bank index: bank `b` of rank `r` has index
/// `r * banks_per_rank + b`.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct BankId(u32);

impl BankId {
    /// Creates a bank id from a flat index.
    pub const fn new(index: u32) -> Self {
        BankId(index)
    }

    /// The flat bank index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bank{}", self.0)
    }
}

/// A physical row location: a bank plus a row index within that bank.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct RowAddr {
    /// The bank holding the row.
    pub bank: BankId,
    /// Row index within the bank.
    pub row: u32,
}

impl fmt::Display for RowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:row{}", self.bank, self.row)
    }
}

/// A channel-wide flat row id (`bank * rows_per_bank + row`).
///
/// Mitigation schemes index their tables with this id; use
/// [`DramGeometry::flatten`](crate::DramGeometry::flatten) /
/// [`DramGeometry::expand`](crate::DramGeometry::expand) to convert. In a
/// multi-channel system each channel has its own independent id space.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct GlobalRowId(u64);

impl GlobalRowId {
    /// Creates a flat row id.
    pub const fn new(index: u64) -> Self {
        GlobalRowId(index)
    }

    /// The flat row index.
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for GlobalRowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grow{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", BankId::new(3)), "bank3");
        assert_eq!(
            format!(
                "{}",
                RowAddr {
                    bank: BankId::new(3),
                    row: 9
                }
            ),
            "bank3:row9"
        );
        assert_eq!(format!("{}", GlobalRowId::new(42)), "grow42");
    }

    #[test]
    fn ordering_is_by_index() {
        assert!(BankId::new(1) < BankId::new(2));
        assert!(GlobalRowId::new(1) < GlobalRowId::new(2));
    }
}
