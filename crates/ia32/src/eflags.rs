//! EFLAGS condition-code masks and per-instruction eflags effects.
//!
//! Level 2 of the adaptive instruction representation decodes "just enough to
//! determine the opcode and the instruction's effect on the eflags", because
//! on IA-32 "many instructions modify the eflags register, making them an
//! important factor to consider in any code transformation" (paper §3.1).
//!
//! An instruction's effect is captured by [`EflagsEffect`]: one mask of the
//! arithmetic flags it *reads* and one of the flags it *writes* (flags left
//! undefined by the architecture count as written — they are clobbered).

use std::fmt;

/// Bit masks for the six arithmetic EFLAGS bits, at their architectural
/// positions in the 32-bit EFLAGS register.
///
/// # Examples
///
/// ```
/// use rio_ia32::Eflags;
/// let flags = Eflags::CF | Eflags::ZF;
/// assert!(flags.contains(Eflags::CF));
/// assert!(!flags.contains(Eflags::OF));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Eflags(pub u32);

impl Eflags {
    /// Carry flag (bit 0).
    pub const CF: Eflags = Eflags(1 << 0);
    /// Parity flag (bit 2).
    pub const PF: Eflags = Eflags(1 << 2);
    /// Auxiliary carry flag (bit 4).
    pub const AF: Eflags = Eflags(1 << 4);
    /// Zero flag (bit 6).
    pub const ZF: Eflags = Eflags(1 << 6);
    /// Sign flag (bit 7).
    pub const SF: Eflags = Eflags(1 << 7);
    /// Overflow flag (bit 11).
    pub const OF: Eflags = Eflags(1 << 11);

    /// No flags.
    pub const NONE: Eflags = Eflags(0);
    /// All six arithmetic flags.
    pub const ALL6: Eflags =
        Eflags(Self::CF.0 | Self::PF.0 | Self::AF.0 | Self::ZF.0 | Self::SF.0 | Self::OF.0);
    /// The five flags written by `inc`/`dec` (everything except CF).
    pub const NOT_CF: Eflags = Eflags(Self::ALL6.0 & !Self::CF.0);
    /// OF | SF | ZF | PF | CF — the flags written by logic ops (AF undefined,
    /// counted as written separately).
    pub const OSZPC: Eflags =
        Eflags(Self::OF.0 | Self::SF.0 | Self::ZF.0 | Self::PF.0 | Self::CF.0);

    /// Whether every flag in `other` is present in `self`.
    pub fn contains(self, other: Eflags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if no flags are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for Eflags {
    type Output = Eflags;
    fn bitor(self, rhs: Eflags) -> Eflags {
        Eflags(self.0 | rhs.0)
    }
}

impl std::ops::BitAnd for Eflags {
    type Output = Eflags;
    fn bitand(self, rhs: Eflags) -> Eflags {
        Eflags(self.0 & rhs.0)
    }
}

impl std::ops::Not for Eflags {
    type Output = Eflags;
    fn not(self) -> Eflags {
        Eflags(!self.0 & Eflags::ALL6.0)
    }
}

impl fmt::Display for Eflags {
    /// Formats in the paper's Figure 2 order: `CPAZSO` subset.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        for (mask, ch) in [
            (Eflags::CF, 'C'),
            (Eflags::PF, 'P'),
            (Eflags::AF, 'A'),
            (Eflags::ZF, 'Z'),
            (Eflags::SF, 'S'),
            (Eflags::OF, 'O'),
        ] {
            if self.contains(mask) {
                write!(f, "{ch}")?;
            }
        }
        Ok(())
    }
}

/// The read/written arithmetic-flag sets of one instruction.
///
/// This is the Level 2 payload of the adaptive representation. A flag that an
/// instruction leaves *undefined* is reported as written, because a
/// transformation must treat its prior value as destroyed.
///
/// # Examples
///
/// ```
/// use rio_ia32::{EflagsEffect, Eflags};
/// let add = EflagsEffect::writes(Eflags::ALL6);
/// assert!(add.written.contains(Eflags::CF));
/// let inc = EflagsEffect::writes(Eflags::NOT_CF);
/// assert!(!inc.written.contains(Eflags::CF)); // inc preserves CF
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct EflagsEffect {
    /// Flags whose incoming value the instruction observes.
    pub read: Eflags,
    /// Flags whose value the instruction defines or clobbers.
    pub written: Eflags,
}

impl EflagsEffect {
    /// An effect that neither reads nor writes flags.
    pub const NONE: EflagsEffect = EflagsEffect {
        read: Eflags::NONE,
        written: Eflags::NONE,
    };

    /// An effect that only writes the given flags.
    pub const fn writes(written: Eflags) -> EflagsEffect {
        EflagsEffect {
            read: Eflags::NONE,
            written,
        }
    }

    /// An effect that only reads the given flags.
    pub const fn reads(read: Eflags) -> EflagsEffect {
        EflagsEffect {
            read,
            written: Eflags::NONE,
        }
    }

    /// An effect that reads and writes the given flag sets.
    pub const fn read_write(read: Eflags, written: Eflags) -> EflagsEffect {
        EflagsEffect { read, written }
    }

    /// Merge two effects (union of reads and writes).
    pub fn union(self, other: EflagsEffect) -> EflagsEffect {
        EflagsEffect {
            read: self.read | other.read,
            written: self.written | other.written,
        }
    }
}

impl fmt::Display for EflagsEffect {
    /// Formats like Figure 2: `WCPAZSO` for writes, `RSO` for reads, `-` for
    /// no effect.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.read.is_empty() && self.written.is_empty() {
            return write!(f, "-");
        }
        if !self.read.is_empty() {
            write!(f, "R{}", self.read)?;
        }
        if !self.written.is_empty() {
            write!(f, "W{}", self.written)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_match_architectural_bit_positions() {
        assert_eq!(Eflags::CF.0, 0x001);
        assert_eq!(Eflags::PF.0, 0x004);
        assert_eq!(Eflags::AF.0, 0x010);
        assert_eq!(Eflags::ZF.0, 0x040);
        assert_eq!(Eflags::SF.0, 0x080);
        assert_eq!(Eflags::OF.0, 0x800);
    }

    #[test]
    fn display_matches_figure2_style() {
        assert_eq!(EflagsEffect::writes(Eflags::ALL6).to_string(), "WCPAZSO");
        assert_eq!(
            EflagsEffect::reads(Eflags::SF | Eflags::OF).to_string(),
            "RSO"
        );
        assert_eq!(EflagsEffect::NONE.to_string(), "-");
    }

    #[test]
    fn not_cf_excludes_only_carry() {
        assert!(!Eflags::NOT_CF.contains(Eflags::CF));
        assert!(Eflags::NOT_CF.contains(Eflags::OF));
        assert!(Eflags::NOT_CF.contains(Eflags::ZF));
    }

    #[test]
    fn union_merges_reads_and_writes() {
        let a = EflagsEffect::reads(Eflags::CF);
        let b = EflagsEffect::writes(Eflags::ZF);
        let u = a.union(b);
        assert_eq!(u.read, Eflags::CF);
        assert_eq!(u.written, Eflags::ZF);
    }

    #[test]
    fn not_operator_stays_within_arithmetic_flags() {
        let inv = !Eflags::CF;
        assert_eq!(inv, Eflags::NOT_CF);
        assert_eq!(!Eflags::ALL6, Eflags::NONE);
    }
}
