//! Self-modifying-code workloads for the cache-consistency harness.
//!
//! Each program patches its own instructions with `poke` (a compiler
//! intrinsic emitting a plain 32-bit store), so under the code cache every
//! patch raises a `CodeWrite` exit and precise invalidation. The programs
//! are deterministic: native, emulation, and cache runs must produce
//! byte-identical output, and any stale fragment surviving an overlapping
//! write changes the printed values.
//!
//! The patch encoding used throughout overwrites a victim function's first
//! six bytes with `mov %eax, imm32; ret` (`B8 xx xx xx xx C3`) via two
//! word stores:
//!
//! * word 0 at `&f`:     `B8 val 00 00` — little-endian `184 + 256 * val`
//!   (valid for `0 <= val < 128`),
//! * word 1 at `&f + 4`: `00 C3 00 00` — little-endian `49920`
//!   ([`RET_WORD`]): the final zero immediate byte, then `ret`.
//!
//! Between the two stores the victim's bytes are a torn, undecodable
//! instruction — legal, because nothing executes the victim until both
//! words land (consistency only requires that *executed* code is current).

/// Second patch word: last immediate byte of the `mov`, then `ret`.
pub const RET_WORD: u32 = 49920;

/// A store that overwrites the *writer's own basic block* with identical
/// bytes (read back via `peek` first). The write overlaps the fragment
/// containing the store itself, so the engine must invalidate the fragment
/// it is currently executing and still make forward progress — the
/// self-write-loop guard. Prints 45, exits 0.
pub fn self_write() -> String {
    "fn main() {
         var p = &main;
         var w = peek(p);
         poke(p, w);
         var i = 0;
         var s = 0;
         while (i < 10) { s = s + i; i++; }
         print(s);
         return 0;
     }"
    .to_string()
}

/// Expected printed value of [`self_write`] (`0 + 1 + ... + 9`).
pub const SELF_WRITE_SUM: i32 = 45;

/// A hot loop that re-patches a victim function's return value every
/// iteration and calls it. The victim's fragment (and any trace it was
/// stitched into) must be invalidated on every patch, rebuilt from the new
/// bytes on the next call, and the running sum proves no stale copy ever
/// executed. Prints 765, exits 0.
pub fn patch_loop() -> String {
    format!(
        "fn stub() {{
             var pad1 = 1;
             var pad2 = 2;
             return pad1 + pad2 + 2;
         }}

         fn main() {{
             var p = &stub;
             var s = stub();
             var i = 0;
             while (i < 16) {{
                 poke(p, 184 + 256 * (40 + i));
                 poke(p + 4, {RET_WORD});
                 s = s + stub();
                 i++;
             }}
             print(s);
             return 0;
         }}"
    )
}

/// Expected printed value of [`patch_loop`]:
/// `5 + sum(40 + i for i in 0..16)`.
pub const PATCH_LOOP_SUM: i32 = 5 + 16 * 40 + 120;

/// Writes fresh code over a victim function, then jumps to it through a
/// function *pointer* (`icall`), exercising the indirect-branch lookup
/// against an invalidated fragment: the lookup must miss and rebuild, not
/// hit the stale copy. Prints 6 then 99, exits 0.
pub fn write_then_icall() -> String {
    format!(
        "fn scratch() {{
             var a = 1;
             var b = 2;
             var c = 3;
             return a + b + c;
         }}

         fn main() {{
             var p = &scratch;
             var before = scratch();
             poke(p, 184 + 256 * 99);
             poke(p + 4, {RET_WORD});
             var after = icall(p);
             print(before);
             print(after);
             return 0;
         }}"
    )
}

/// Expected printed values of [`write_then_icall`].
pub const WRITE_THEN_ICALL_BEFORE: i32 = 6;
/// Value the freshly written code returns.
pub const WRITE_THEN_ICALL_AFTER: i32 = 99;
