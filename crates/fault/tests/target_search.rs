//! Exactness of fault targeting: the tag-word scans behind
//! [`tag_flip_target`] and [`cap_corrupt_target`] must choose exactly the
//! granule the original one-granule-at-a-time walks chose, on randomized
//! banks from 4 KiB to 1 MiB (below and above the 65,536-granule search
//! window), with 0-5 tagged granules, targets below, inside and above the
//! bank, and ties at equal distance.

use cheriot_core::mem::Sram;
use cheriot_fault::inject::{cap_corrupt_target, tag_flip_target};
use cheriot_fault::XorShift64;

const GRANULE: u32 = 8;

/// Search window of both fault kinds, in granules.
const WINDOW: u32 = 65_536;

/// The original [`tag_flip_target`] walk: steps outwards one granule at a
/// time, forward before backward at each distance.
fn tag_flip_reference(sram: &Sram, addr: u32) -> Option<u32> {
    let addr = addr & !(GRANULE - 1);
    for step in 0..=WINDOW {
        let offsets = [
            addr.checked_add(step * GRANULE),
            addr.checked_sub(step * GRANULE),
        ];
        for candidate in offsets.into_iter().flatten() {
            if sram.contains(candidate, GRANULE) && sram.tag_at(candidate) {
                return Some(candidate);
            }
        }
    }
    None
}

/// The original [`cap_corrupt_target`] walk: forward one granule at a
/// time, stopping at the first granule outside the bank.
fn cap_corrupt_reference(sram: &Sram, addr: u32) -> Option<u32> {
    let mut a = addr & !(GRANULE - 1);
    for _ in 0..WINDOW {
        if !sram.contains(a, GRANULE) {
            break;
        }
        if sram.tag_at(a) {
            return Some(a);
        }
        a = a.checked_add(GRANULE)?;
    }
    None
}

/// One randomized case: a bank, its tagged granules and a target.
struct Case {
    sram: Sram,
    tagged: Vec<u32>,
    target: u32,
}

fn tag(sram: &mut Sram, tagged: &mut Vec<u32>, g: u64) {
    let a = sram.base() + (g as u32) * GRANULE;
    sram.write_cap_word(a, g, true).unwrap();
    tagged.push(a);
}

fn random_case(rng: &mut XorShift64) -> Case {
    // Bank size: 4 KiB .. 1 MiB in granules, not always a page multiple.
    let granules = match rng.gen_range(0, 4) {
        0 => 512,
        1 => 131_072,
        _ => rng.gen_range(512, 131_073),
    };
    let size = (granules * u64::from(GRANULE)) as u32;
    // Base: the bottom of the address space, a typical SRAM base, or
    // flush against the top, so both window ends can fall off `u32`.
    let base = match rng.gen_range(0, 4) {
        0 => 0,
        1 => ((1u64 << 32) - u64::from(size)) as u32,
        _ => 0x2000_0000 + (rng.gen_range(0, 1 << 16) as u32) * GRANULE,
    };
    let mut sram = Sram::new(base, size, true);
    let mut tagged = Vec::new();
    let window = u64::from(WINDOW);
    let target = if rng.gen_range(0, 3) == 0 {
        // A tie: two tags at equal distance around the target granule.
        let c = rng.gen_range(0, granules);
        let d = rng.gen_range(1, window.min(granules) + 1);
        if c >= d && c + d < granules {
            tag(&mut sram, &mut tagged, c - d);
            tag(&mut sram, &mut tagged, c + d);
        }
        base + (c as u32) * GRANULE + rng.gen_range(0, 8) as u32
    } else {
        for _ in 0..rng.gen_range(0, 6) {
            let g = rng.gen_range(0, granules);
            tag(&mut sram, &mut tagged, g);
        }
        // Granule offset of the target from the base, possibly outside.
        let reach = (window + 2) as i64;
        let off = match rng.gen_range(0, 4) {
            0 => -(rng.gen_range(1, reach as u64 + 1) as i64),
            1 => (granules + rng.gen_range(0, reach as u64)) as i64,
            _ => rng.gen_range(0, granules) as i64,
        };
        let byte = i64::from(base) + off * i64::from(GRANULE) + rng.gen_range(0, 8) as i64;
        byte.clamp(0, i64::from(u32::MAX)) as u32
    };
    Case {
        sram,
        tagged,
        target,
    }
}

#[test]
fn tag_word_search_matches_the_granule_walk() {
    let mut rng = XorShift64::new(0x7a9_5ea7c4);
    let (mut ties, mut hits, mut outside) = (0, 0, 0);
    for i in 0..400 {
        let case = random_case(&mut rng);
        let (sram, t) = (&case.sram, case.target);
        let want = tag_flip_reference(sram, t);
        assert_eq!(
            tag_flip_target(sram, t),
            want,
            "case {i}: tag flip at {t:#x}, bank {:#x}+{:#x}, tags {:x?}",
            sram.base(),
            sram.size(),
            case.tagged
        );
        assert_eq!(
            cap_corrupt_target(sram, t),
            cap_corrupt_reference(sram, t),
            "case {i}: cap corrupt at {t:#x}, bank {:#x}+{:#x}, tags {:x?}",
            sram.base(),
            sram.size(),
            case.tagged
        );
        let a = t & !(GRANULE - 1);
        if let Some(w) = want {
            hits += 1;
            let d = w.abs_diff(a);
            ties +=
                usize::from(w > a && a.checked_sub(d).is_some_and(|m| case.tagged.contains(&m)));
        }
        outside += usize::from(!sram.contains(a, GRANULE));
    }
    // The generator must actually exercise what it claims to.
    assert!(ties >= 50, "only {ties} ties");
    assert!(hits >= 200, "only {hits} hits");
    assert!(outside >= 50, "only {outside} targets outside the bank");
}

#[test]
fn targets_at_the_window_edge_and_the_bank_edges() {
    let base = 0x2000_0000;
    let mut sram = Sram::new(base, 0x10_0000, true); // 1 MiB: 131,072 granules
    let at = |g: u32| base + g * GRANULE;
    sram.write_cap_word(at(100_000), 1, true).unwrap();
    // Exactly WINDOW granules away is found, one more is not.
    assert_eq!(
        tag_flip_target(&sram, at(100_000 - WINDOW)),
        Some(at(100_000))
    );
    assert_eq!(tag_flip_target(&sram, at(100_000 - WINDOW - 1)), None);
    assert_eq!(
        tag_flip_target(&sram, at(100_000 + WINDOW)),
        Some(at(100_000))
    );
    assert_eq!(tag_flip_target(&sram, at(100_000 + WINDOW + 1)), None);
    // CapCorrupt scans WINDOW granules starting at the target itself.
    assert_eq!(
        cap_corrupt_target(&sram, at(100_000 - WINDOW + 1)),
        Some(at(100_000))
    );
    assert_eq!(cap_corrupt_target(&sram, at(100_000 - WINDOW)), None);
    // Targets outside the bank: a tag flip still reaches in, a capability
    // corruption does not.
    sram.write_cap_word(at(0), 1, true).unwrap();
    assert_eq!(tag_flip_target(&sram, base - 0x40), Some(base));
    assert_eq!(cap_corrupt_target(&sram, base - 0x40), None);
    let last = at(131_071);
    sram.write_cap_word(last, 1, true).unwrap();
    assert_eq!(tag_flip_target(&sram, last + 0x1003), Some(last));
    // A tie between the base granule and granule 2 goes forward.
    assert_eq!(tag_flip_target(&sram, at(1)), Some(at(0)));
    sram.write_cap_word(at(2), 1, true).unwrap();
    assert_eq!(tag_flip_target(&sram, at(1) + 5), Some(at(2)));
}
