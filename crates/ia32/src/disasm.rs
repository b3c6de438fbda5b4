//! Disassembly in the DynamoRIO `srcs -> dsts` style shown in Figure 2.
//!
//! The printer shows explicit *and* implicit operands, so `pop %ebx` prints
//! as `pop %esp (%esp) -> %ebx %esp` — the complete dataflow of the
//! instruction, which is the form transformations reason about.

use std::fmt;

use crate::instr::{Instr, Level};

/// Format one instruction: mnemonic, sources, `->`, destinations.
pub(crate) fn fmt_instr(instr: &Instr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match instr.level() {
        Level::L0 => {
            write!(
                f,
                "<bundle of {} instrs, {} bytes>",
                instr.bundle_count(),
                instr.raw_bytes().map_or(0, <[u8]>::len)
            )
        }
        Level::L1 => {
            write!(f, "<raw")?;
            if let Some(bytes) = instr.raw_bytes() {
                for b in bytes {
                    write!(f, " {b:02x}")?;
                }
            }
            write!(f, ">")
        }
        Level::L2 => {
            let op = instr.opcode().expect("L2 has opcode");
            write!(f, "{} [{}]", op, instr.eflags())
        }
        _ => {
            let op = instr.opcode().expect("L3/L4 has opcode");
            if instr.is_label() {
                return write!(f, "<label>");
            }
            write!(f, "{op}")?;
            for s in instr.srcs() {
                write!(f, " {s}")?;
            }
            if !instr.dsts().is_empty() {
                write!(f, " ->")?;
                for d in instr.dsts() {
                    write!(f, " {d}")?;
                }
            }
            Ok(())
        }
    }
}

/// One row of a Figure 2-style listing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DisasmLine {
    /// Application address of the instruction.
    pub pc: u32,
    /// Raw bytes, formatted as space-separated hex.
    pub raw: String,
    /// Mnemonic and operands (empty below Level 2).
    pub text: String,
    /// Eflags-effect column (empty below Level 2).
    pub eflags: String,
}

/// Disassemble a byte sequence into Figure 2-style lines at full detail.
///
/// # Errors
///
/// Returns [`DecodeError`](crate::DecodeError) on invalid encodings.
///
/// # Examples
///
/// ```
/// use rio_ia32::disasm::disassemble;
/// let lines = disassemble(&[0x8b, 0x46, 0x0c], 0x1000)?;
/// assert_eq!(lines[0].text, "mov 0xc(%esi) -> %eax");
/// # Ok::<(), rio_ia32::DecodeError>(())
/// ```
pub fn disassemble(bytes: &[u8], pc: u32) -> Result<Vec<DisasmLine>, crate::DecodeError> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let (instr, len) = crate::decode::decode_instr(&bytes[off..], pc + off as u32)?;
        let raw = bytes[off..off + len as usize]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect::<Vec<_>>()
            .join(" ");
        out.push(DisasmLine {
            pc: pc + off as u32,
            raw,
            text: instr.to_string(),
            eflags: instr.eflags().to_string(),
        });
        off += len as usize;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::create;
    use crate::instr::Target;
    use crate::opnd::{MemRef, OpSize};
    use crate::reg::Reg;

    #[test]
    fn figure2_rendering() {
        // The paper's Figure 2 sequence, Level 3 rows.
        let bytes: &[u8] = &[
            0x8d, 0x34, 0x01, 0x8b, 0x46, 0x0c, 0x2b, 0x46, 0x1c, 0x0f, 0xb7, 0x4e, 0x08, 0xc1,
            0xe1, 0x07, 0x3b, 0xc1, 0x0f, 0x8d, 0xa2, 0x0a, 0x00, 0x00,
        ];
        let lines = disassemble(bytes, 0x77f5_17af).unwrap();
        let texts: Vec<&str> = lines.iter().map(|l| l.text.as_str()).collect();
        assert_eq!(
            texts,
            vec![
                "lea (%ecx,%eax,1) -> %esi",
                "mov 0xc(%esi) -> %eax",
                "sub 0x1c(%esi) %eax -> %eax",
                "movzx 0x8(%esi) -> %ecx",
                "shl $0x7 %ecx -> %ecx",
                "cmp %eax %ecx",
                "jnl $0x77f52269",
            ]
        );
        let flags: Vec<&str> = lines.iter().map(|l| l.eflags.as_str()).collect();
        assert_eq!(
            flags,
            vec!["-", "-", "WCPAZSO", "-", "WCPAZSO", "WCPAZSO", "RSO"]
        );
    }

    #[test]
    fn synthesized_instruction_display() {
        let i = create::add(Opnd::reg(Reg::Eax), Opnd::imm8(1));
        assert_eq!(i.to_string(), "add $0x1 %eax -> %eax");
        let m = create::mov(
            Opnd::Mem(MemRef::base_disp(Reg::Ebp, -4, OpSize::S32)),
            Opnd::reg(Reg::Ecx),
        );
        assert_eq!(m.to_string(), "mov %ecx -> -0x4(%ebp)");
    }

    #[test]
    fn level_specific_display() {
        let raw = crate::Instr::raw(&[0x40], 0);
        assert_eq!(raw.to_string(), "<raw 40>");
        let bundle = crate::Instr::bundle(vec![0x40, 0x41], 0, 1, 2);
        assert_eq!(bundle.to_string(), "<bundle of 2 instrs, 2 bytes>");
        let jmp = create::jmp(Target::Pc(0x1234));
        assert_eq!(jmp.to_string(), "jmp $0x00001234");
    }

    use crate::opnd::Opnd;
}
