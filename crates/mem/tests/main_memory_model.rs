//! Model-based test of `MainMemory`: random byte, half-word and word
//! accesses, clustered around 4 KiB page edges, 4 MiB directory edges
//! and the top of the address space, must read back exactly what a
//! byte-per-address `BTreeMap` model holds.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use patmos_mem::{MainMemory, MemConfig};

/// One access: a width in bytes (1, 2 or 4), whether it writes, an
/// address and the value written (truncated to the width).
#[derive(Debug, Clone, Copy)]
struct Access {
    width: u32,
    write: bool,
    addr: u32,
    value: u32,
}

/// The byte-per-address reference: untouched bytes read as zero.
#[derive(Debug, Clone, Default)]
struct Model {
    bytes: BTreeMap<u32, u8>,
}

impl Model {
    fn write(&mut self, addr: u32, width: u32, value: u32) {
        for (i, b) in value
            .to_le_bytes()
            .into_iter()
            .take(width as usize)
            .enumerate()
        {
            self.bytes.insert(addr.wrapping_add(i as u32), b);
        }
    }

    fn read(&self, addr: u32, width: u32) -> u32 {
        (0..width).fold(0, |acc, i| {
            let b = self.bytes.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            acc | u32::from(b) << (8 * i)
        })
    }

    /// Distinct 4 KiB pages holding a written byte.
    fn pages(&self) -> usize {
        self.bytes
            .keys()
            .map(|a| a >> 12)
            .collect::<BTreeSet<_>>()
            .len()
    }
}

fn write(mem: &mut MainMemory, addr: u32, width: u32, value: u32) {
    match width {
        1 => mem.write_byte(addr, value as u8),
        2 => mem.write_half(addr, value as u16),
        _ => mem.write_word(addr, value),
    }
}

fn read(mem: &MainMemory, addr: u32, width: u32) -> u32 {
    match width {
        1 => u32::from(mem.read_byte(addr)),
        2 => u32::from(mem.read_half(addr)),
        _ => mem.read_word(addr),
    }
}

fn resident_pages(mem: &MainMemory) -> usize {
    let text = format!("{mem:?}");
    let tail = text
        .split("resident_pages: ")
        .nth(1)
        .expect("Debug names resident_pages");
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("resident_pages is a count")
}

/// Addresses built from directory indexes (bits 31..22), table indexes
/// (bits 21..12) and page offsets near the edges, so accesses straddle
/// 4 KiB pages, 4 MiB directory entries and the wrap from `0xFFFF_FFFF`
/// to `0`, and pages whose indexes differ in one high bit are both live
/// (a truncated index would alias them); or anywhere at all.
fn address() -> impl Strategy<Value = u32> {
    let edges = (
        prop::sample::select(vec![0u32, 1, 0x1C, 0x1FF, 0x200, 0x3FF]),
        prop::sample::select(vec![0u32, 1, 0x1FF, 0x200, 0x3FE, 0x3FF]),
        prop::sample::select(vec![0u32, 1, 2, 3, 0x7FF, 0xFFC, 0xFFD, 0xFFE, 0xFFF]),
    )
        .prop_map(|(dir, table, offset)| dir << 22 | table << 12 | offset);
    prop_oneof![edges, any::<u32>()]
}

fn access() -> impl Strategy<Value = Access> {
    (
        prop::sample::select(vec![1u32, 2, 4]),
        any::<bool>(),
        address(),
        any::<u32>(),
    )
        .prop_map(|(width, write, addr, value)| Access {
            width,
            write,
            addr,
            value,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every read agrees with the model, during the sequence and over
    /// every written byte after it, and `resident_pages` counts exactly
    /// the pages written: a read of untouched memory allocates nothing.
    #[test]
    fn reads_and_writes_match_a_byte_model(accesses in prop::collection::vec(access(), 0..96)) {
        let mut mem = MainMemory::new(MemConfig::default());
        let mut model = Model::default();
        for a in &accesses {
            if a.write {
                write(&mut mem, a.addr, a.width, a.value);
                model.write(a.addr, a.width, a.value);
            } else {
                prop_assert_eq!(read(&mem, a.addr, a.width), model.read(a.addr, a.width), "{:?}", a);
            }
        }
        for (&addr, &byte) in &model.bytes {
            prop_assert_eq!(mem.read_byte(addr), byte, "byte at {:#x}", addr);
        }
        prop_assert_eq!(resident_pages(&mem), model.pages());
    }

    /// A clone is independent: writes to the clone, over the same
    /// addresses and fresh ones, leave the original as its model says.
    #[test]
    fn writes_to_a_clone_leave_the_original_unchanged(
        accesses in prop::collection::vec(access(), 1..64),
    ) {
        let mut mem = MainMemory::new(MemConfig::default());
        let mut model = Model::default();
        for a in accesses.iter().filter(|a| a.write) {
            write(&mut mem, a.addr, a.width, a.value);
            model.write(a.addr, a.width, a.value);
        }
        let mut copy = mem.clone();
        let mut copy_model = model.clone();
        for a in &accesses {
            copy.write_word(a.addr, !a.value);
            copy_model.write(a.addr, 4, !a.value);
        }
        for (&addr, &byte) in &model.bytes {
            prop_assert_eq!(mem.read_byte(addr), byte, "original at {:#x}", addr);
        }
        for (&addr, &byte) in &copy_model.bytes {
            prop_assert_eq!(copy.read_byte(addr), byte, "clone at {:#x}", addr);
        }
        prop_assert_eq!(resident_pages(&mem), model.pages());
        prop_assert_eq!(resident_pages(&copy), copy_model.pages());
    }
}
