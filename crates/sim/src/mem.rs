//! Sparse flat 32-bit memory.
//!
//! Pages are allocated lazily on first write; reads of untouched memory
//! return zero. This keeps multi-gigabyte address-space layouts (application
//! image low, stack in the middle, code cache high) cheap to model.
//!
//! Lookup is a two-level page table, like the hardware it models: the top
//! ten address bits pick one of 1024 directory entries, the next ten one of
//! 1024 page slots in a lazily allocated leaf, and the low twelve the byte.
//! The directory itself comes with the first write, so an empty memory
//! allocates nothing.
//! An access is two dependent array loads with no hashing, and bulk
//! transfers move whole page-sized slices at a time.

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;
/// Address bits above the page offset that select a page within a leaf.
const LEAF_BITS: u32 = 10;
const LEAF_SIZE: usize = 1 << LEAF_BITS;
const LEAF_SHIFT: u32 = PAGE_SHIFT + LEAF_BITS;
const DIR_SIZE: usize = 1 << (32 - LEAF_SHIFT);

type Page = [u8; PAGE_SIZE];
type Leaf = [Option<Box<Page>>; LEAF_SIZE];

/// A boxed array of `N` empty slots, built on the heap.
fn empty_slots<T, const N: usize>() -> Box<[Option<T>; N]> {
    let slots: Box<[Option<T>]> = (0..N).map(|_| None).collect();
    match slots.try_into() {
        Ok(array) => array,
        Err(_) => unreachable!("collected exactly N slots"),
    }
}

/// A sparse, lazily allocated 4 GiB byte-addressable memory.
///
/// # Examples
///
/// ```
/// use rio_sim::Memory;
/// let mut m = Memory::new();
/// m.write_u32(0x0800_0000, 0xdead_beef);
/// assert_eq!(m.read_u32(0x0800_0000), 0xdead_beef);
/// assert_eq!(m.read_u32(0x0800_0004), 0); // untouched memory reads zero
/// ```
#[derive(Default)]
pub struct Memory {
    dir: Option<Box<[Option<Box<Leaf>>; DIR_SIZE]>>,
    resident: usize,
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Memory({} pages)", self.resident)
    }
}

impl Memory {
    /// Create an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident pages (for memory accounting).
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&Page> {
        let leaf = self.dir.as_deref()?[(addr >> LEAF_SHIFT) as usize].as_deref()?;
        leaf[((addr >> PAGE_SHIFT) as usize) & (LEAF_SIZE - 1)].as_deref()
    }

    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut Page {
        let dir = self.dir.get_or_insert_with(empty_slots);
        let leaf = dir[(addr >> LEAF_SHIFT) as usize].get_or_insert_with(empty_slots);
        let slot = &mut leaf[((addr >> PAGE_SHIFT) as usize) & (LEAF_SIZE - 1)];
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(|| {
            // Zeroed straight from the allocator, never staged on the stack.
            match vec![0u8; PAGE_SIZE].into_boxed_slice().try_into() {
                Ok(page) => page,
                Err(_) => unreachable!("allocated exactly one page"),
            }
        })
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = v;
    }

    /// Read a little-endian 16-bit value.
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
    }

    /// Write a little-endian 16-bit value.
    pub fn write_u16(&mut self, addr: u32, v: u16) {
        for (i, b) in v.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Read a little-endian 32-bit value.
    pub fn read_u32(&self, addr: u32) -> u32 {
        // Fast path: within one page.
        let off = (addr & PAGE_MASK) as usize;
        if off + 4 <= PAGE_SIZE {
            match self.page(addr) {
                Some(p) => u32::from_le_bytes(p[off..off + 4].try_into().unwrap()),
                None => 0,
            }
        } else {
            u32::from_le_bytes([
                self.read_u8(addr),
                self.read_u8(addr.wrapping_add(1)),
                self.read_u8(addr.wrapping_add(2)),
                self.read_u8(addr.wrapping_add(3)),
            ])
        }
    }

    /// Write a little-endian 32-bit value.
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        let off = (addr & PAGE_MASK) as usize;
        if off + 4 <= PAGE_SIZE {
            self.page_mut(addr)[off..off + 4].copy_from_slice(&v.to_le_bytes());
        } else {
            for (i, b) in v.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b);
            }
        }
    }

    /// Copy a byte slice into memory at `addr` (wrapping past the top of
    /// the address space).
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let mut a = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(rest.len());
            self.page_mut(a)[off..off + n].copy_from_slice(&rest[..n]);
            a = a.wrapping_add(n as u32);
            rest = &rest[n..];
        }
    }

    /// Copy `buf.len()` bytes out of memory starting at `addr` (wrapping
    /// past the top of the address space), one page-sized slice at a time.
    pub fn read_bytes(&self, addr: u32, buf: &mut [u8]) {
        let mut a = addr;
        let mut rest = buf;
        while !rest.is_empty() {
            let off = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(rest.len());
            let (chunk, tail) = rest.split_at_mut(n);
            match self.page(a) {
                Some(p) => chunk.copy_from_slice(&p[off..off + n]),
                None => chunk.fill(0),
            }
            a = a.wrapping_add(n as u32);
            rest = tail;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xFFFF_FFFC), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trip_all_widths() {
        let mut m = Memory::new();
        m.write_u8(0x1000, 0xAB);
        m.write_u16(0x2000, 0xBEEF);
        m.write_u32(0x3000, 0x1234_5678);
        assert_eq!(m.read_u8(0x1000), 0xAB);
        assert_eq!(m.read_u16(0x2000), 0xBEEF);
        assert_eq!(m.read_u32(0x3000), 0x1234_5678);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        m.write_u32(0x1FFE, 0xAABB_CCDD);
        assert_eq!(m.read_u32(0x1FFE), 0xAABB_CCDD);
        assert_eq!(m.read_u8(0x1FFE), 0xDD);
        assert_eq!(m.read_u8(0x2001), 0xAA);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bulk_write_spanning_pages() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x0FFF_F0F0, &data);
        let mut out = vec![0u8; 256];
        m.read_bytes(0x0FFF_F0F0, &mut out);
        assert_eq!(out, data);
    }

    /// xorshift64 — a dependency-free deterministic stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Byte-at-a-time reference model: a map of written bytes, zero
    /// elsewhere, plus the set of pages any write has touched.
    #[derive(Default)]
    struct Model {
        bytes: HashMap<u32, u8>,
        pages: HashSet<u32>,
    }

    impl Model {
        fn read(&self, addr: u32, len: usize) -> Vec<u8> {
            (0..len as u32)
                .map(|i| *self.bytes.get(&addr.wrapping_add(i)).unwrap_or(&0))
                .collect()
        }

        fn write(&mut self, addr: u32, data: &[u8]) {
            for (i, &b) in data.iter().enumerate() {
                let a = addr.wrapping_add(i as u32);
                self.bytes.insert(a, b);
                self.pages.insert(a >> PAGE_SHIFT);
            }
        }
    }

    use std::collections::{HashMap, HashSet};

    #[test]
    fn differential_sweep_against_a_byte_map() {
        // Addresses cluster around the places a page table gets wrong: the
        // first leaf boundary, page boundaries, and the top of the address
        // space where accesses wrap to zero.
        const HOT: [u32; 6] = [
            0x003F_FFFE,
            0x0040_0000,
            0x0800_0FFE,
            0x7000_0000,
            0xFFFF_FFF0,
            0,
        ];
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut m = Memory::new();
        let mut model = Model::default();
        for step in 0..10_000 {
            let addr = match rng.below(4) {
                0 => rng.next() as u32,
                1 => (rng.next() as u32 & !PAGE_MASK).wrapping_sub(rng.below(8) as u32),
                _ => HOT[rng.below(HOT.len() as u64) as usize]
                    .wrapping_add(rng.below(32) as u32)
                    .wrapping_sub(16),
            };
            let v = rng.next() as u32;
            match rng.below(9) {
                0 => {
                    m.write_u8(addr, v as u8);
                    model.write(addr, &[v as u8]);
                }
                1 => {
                    m.write_u16(addr, v as u16);
                    model.write(addr, &(v as u16).to_le_bytes());
                }
                2 => {
                    m.write_u32(addr, v);
                    model.write(addr, &v.to_le_bytes());
                }
                3 => {
                    let data: Vec<u8> = (0..rng.below(PAGE_SIZE as u64 + 32))
                        .map(|_| rng.next() as u8)
                        .collect();
                    m.write_bytes(addr, &data);
                    model.write(addr, &data);
                }
                4 => assert_eq!(m.read_u8(addr), model.read(addr, 1)[0], "step {step}"),
                5 => assert_eq!(
                    m.read_u16(addr).to_le_bytes().to_vec(),
                    model.read(addr, 2),
                    "step {step} addr {addr:#x}"
                ),
                6 => assert_eq!(
                    m.read_u32(addr).to_le_bytes().to_vec(),
                    model.read(addr, 4),
                    "step {step} addr {addr:#x}"
                ),
                _ => {
                    // Long reads cross unmapped pages and the wrap.
                    let mut buf = vec![0xAA; rng.below(2 * PAGE_SIZE as u64) as usize];
                    m.read_bytes(addr, &mut buf);
                    assert!(
                        buf == model.read(addr, buf.len()),
                        "step {step}: read_bytes({addr:#x}, {})",
                        buf.len()
                    );
                }
            }
            assert_eq!(m.resident_pages(), model.pages.len(), "step {step}");
        }
        assert!(
            model.pages.len() > 100,
            "the sweep must spread over many pages"
        );
    }

    #[test]
    fn accesses_straddling_the_top_wrap_to_zero() {
        let mut m = Memory::new();
        m.write_u32(0xFFFF_FFFE, 0x4433_2211);
        assert_eq!(m.read_u8(0xFFFF_FFFF), 0x22);
        assert_eq!(m.read_u16(0), 0x4433);
        assert_eq!(m.read_u32(0xFFFF_FFFE), 0x4433_2211);
        let mut buf = [0u8; 4];
        m.read_bytes(0xFFFF_FFFE, &mut buf);
        assert_eq!(buf, [0x11, 0x22, 0x33, 0x44]);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn leaf_boundary_access() {
        // 0x003F_FFFE..0x0040_0002 spans the last page of the first leaf
        // and the first page of the second.
        let mut m = Memory::new();
        m.write_u32(0x003F_FFFE, 0xCAFE_F00D);
        assert_eq!(m.read_u32(0x003F_FFFE), 0xCAFE_F00D);
        assert_eq!(m.read_u16(0x0040_0000), 0xCAFE);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read_u32(0x0080_0000), 0); // unallocated leaf
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 1);
        assert_eq!(m.read_u8(0x103), 4);
    }
}
