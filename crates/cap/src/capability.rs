//! The CHERIoT capability value type.
//!
//! A capability is a 64-bit word (32-bit address + 32-bit metadata, paper
//! Figure 1) plus an out-of-band tag bit. This module implements the
//! *guarded manipulation* semantics: every deriving operation is monotone —
//! bounds may shrink, permissions may be shed, tags may clear, and nothing
//! moves the other way. Invalid derivations do not trap; they clear the tag.
//! Faults ([`CapFault`]) are raised only when a capability is *used*.

use crate::bounds::{DecodedBounds, EncodedBounds};
use crate::fault::CapFault;
use crate::otype::OType;
use crate::perms::{CompressedPerms, Permissions};
use core::fmt;

/// A CHERIoT capability: tagged, bounded, permissioned fat pointer.
///
/// `Capability` is a plain value (`Copy`); the architecture's unforgeability
/// is modelled by this crate's API surface — the only constructors are the
/// three [roots](Capability::root_mem_rw) and the untagged
/// [null](Capability::null) capability, and every deriving method is
/// monotone.
///
/// # Examples
///
/// ```
/// use cheriot_cap::{Capability, Permissions};
///
/// let root = Capability::root_mem_rw();
/// let obj = root.with_address(0x1000).set_bounds(64).expect("exact");
/// assert_eq!(obj.base(), 0x1000);
/// assert_eq!(obj.top(), 0x1040);
/// let ro = obj.and_perms(!Permissions::SD & !Permissions::LM);
/// assert!(!ro.perms().contains(Permissions::SD));
/// assert!(ro.tag());
/// ```
#[derive(Clone, Copy)]
pub struct Capability {
    tag: bool,
    address: u32,
    perms: Permissions, // invariant: always representable (normalized)
    otype: OType,       // invariant: namespace matches EX permission
    bounds: EncodedBounds,
    // Cached `bounds.decode(address)`, mirroring hardware's decoded
    // register file (CHERIoT-Ibex keeps expanded bounds alongside the
    // compressed word for exactly this reason). Invariant: valid whenever
    // `tag` is set; may be stale on untagged capabilities, where
    // `Capability::bounds` recomputes and `PartialEq`/`Hash` ignore it.
    decoded: DecodedBounds,
}

/// Decode of the all-zero bounds fields at address zero, used wherever the
/// cached decode of an untagged capability has no meaningful value.
const ZERO_BOUNDS: DecodedBounds = DecodedBounds { base: 0, top: 0 };

/// Decode of [`EncodedBounds::FULL`] (any address): the whole space.
const FULL_BOUNDS: DecodedBounds = DecodedBounds {
    base: 0,
    top: 1 << 32,
};

impl Capability {
    /// The null capability: untagged, no permissions, zero bounds.
    ///
    /// This is what zeroed memory decodes to.
    #[inline]
    pub fn null() -> Capability {
        Capability {
            tag: false,
            address: 0,
            perms: Permissions::NONE,
            otype: OType::Unsealed,
            bounds: EncodedBounds::from_fields(0, 0, 0),
            decoded: ZERO_BOUNDS,
        }
    }

    /// The read/write memory root present in a register at CPU reset: the
    /// whole address space with all data/capability memory permissions.
    pub fn root_mem_rw() -> Capability {
        Capability {
            tag: true,
            address: 0,
            perms: Permissions::ROOT_MEM,
            otype: OType::Unsealed,
            bounds: EncodedBounds::FULL,
            decoded: FULL_BOUNDS,
        }
    }

    /// The executable root: fetch + read over the whole address space, with
    /// the system-register permission. W^X: no store permission exists here.
    pub fn root_executable() -> Capability {
        Capability {
            tag: true,
            address: 0,
            perms: Permissions::ROOT_EXEC,
            otype: OType::Unsealed,
            bounds: EncodedBounds::FULL,
            decoded: FULL_BOUNDS,
        }
    }

    /// The sealing root: authority over every otype.
    pub fn root_sealing() -> Capability {
        Capability {
            tag: true,
            address: 0,
            perms: Permissions::ROOT_SEAL,
            otype: OType::Unsealed,
            bounds: EncodedBounds::FULL,
            decoded: FULL_BOUNDS,
        }
    }

    // --- Accessors ---------------------------------------------------------

    /// The validity tag. Untagged capabilities authorize nothing.
    #[inline]
    pub fn tag(self) -> bool {
        self.tag
    }

    /// The 32-bit address (cursor).
    #[inline]
    pub fn address(self) -> u32 {
        self.address
    }

    /// The architectural permission set.
    #[inline]
    pub fn perms(self) -> Permissions {
        self.perms
    }

    /// The object type. [`OType::Unsealed`] for ordinary capabilities.
    #[inline]
    pub fn otype(self) -> OType {
        self.otype
    }

    /// Is this capability sealed (including sentries)?
    #[inline]
    pub fn is_sealed(self) -> bool {
        self.otype.is_sealed()
    }

    /// The decoded bounds at the current address.
    ///
    /// Tagged capabilities return the cached decode (kept valid by every
    /// deriving operation); untagged ones recompute, since their cache may
    /// be stale.
    #[inline]
    pub fn bounds(self) -> DecodedBounds {
        if self.tag {
            debug_assert_eq!(self.decoded, self.bounds.decode(self.address));
            self.decoded
        } else {
            self.bounds.decode(self.address)
        }
    }

    /// Inclusive lower bound.
    #[inline]
    pub fn base(self) -> u32 {
        self.bounds().base
    }

    /// Exclusive upper bound (33-bit).
    #[inline]
    pub fn top(self) -> u64 {
        self.bounds().top
    }

    /// Length in bytes.
    #[inline]
    pub fn length(self) -> u64 {
        self.bounds().length()
    }

    /// Is this capability global (storable anywhere MC+SD permits)?
    #[inline]
    pub fn is_global(self) -> bool {
        self.perms.contains(Permissions::GL)
    }

    // --- Guarded manipulation (monotone; never traps) ----------------------

    /// Returns a copy with the given address.
    ///
    /// The tag is cleared if the capability was sealed, if the new address
    /// makes the bounds decode differently (it left the representable
    /// range), or if the new address is below the base. This models
    /// `CSetAddr`.
    #[must_use]
    #[inline]
    pub fn with_address(self, address: u32) -> Capability {
        let mut out = self;
        out.address = address;
        if self.tag {
            if self.is_sealed() {
                out.tag = false;
            } else if u64::from(address) >= u64::from(self.decoded.base)
                && u64::from(address) < self.decoded.top
            {
                // Fast path: CHERIoT's representable range always contains
                // the bounds region, so an in-bounds move never changes the
                // decode — the cached decode stays valid as-is.
                debug_assert_eq!(self.bounds.decode(address), self.decoded);
            } else if !self.bounds.representable_at(self.address, address) {
                out.tag = false;
            }
            // representable_at == true leaves the decode unchanged by
            // definition, so `out.decoded` is still correct there too.
        }
        out
    }

    /// Returns a copy with the address displaced by `offset` (`CIncAddr`).
    #[must_use]
    #[inline]
    pub fn incremented(self, offset: i32) -> Capability {
        self.with_address(self.address.wrapping_add(offset as u32))
    }

    /// Narrows the bounds to `[address, address + length)` (`CSetBounds`).
    ///
    /// The encoding may round the region outward to a representable one;
    /// the rounded region must still lie within the current bounds, or the
    /// result is untagged. Sealed or untagged sources yield untagged
    /// results.
    #[must_use]
    pub fn set_bounds(self, length: u64) -> Option<Capability> {
        self.set_bounds_inner(length, false)
    }

    /// Like [`Capability::set_bounds`] but the result is untagged unless the
    /// encoding is *exact* (`CSetBoundsExact`).
    #[must_use]
    pub fn set_bounds_exact(self, length: u64) -> Option<Capability> {
        self.set_bounds_inner(length, true)
    }

    fn set_bounds_inner(self, length: u64, require_exact: bool) -> Option<Capability> {
        let enc = EncodedBounds::encode(self.address, length)?;
        let old = self.bounds();
        let ok = self.tag
            && !self.is_sealed()
            && u64::from(enc.decoded.base) >= u64::from(old.base)
            && enc.decoded.top <= old.top
            && (!require_exact || enc.exact);
        Some(Capability {
            tag: ok,
            address: self.address,
            perms: self.perms,
            otype: self.otype,
            bounds: enc.encoded,
            decoded: enc.decoded,
        })
    }

    /// Removes permissions not present in `mask` (`CAndPerm`).
    ///
    /// The result is normalized to the compressed encoding's representable
    /// sets — permissions a format cannot express are shed (see
    /// [`Permissions::normalize`]). Sealed sources yield untagged results.
    #[must_use]
    pub fn and_perms(self, mask: Permissions) -> Capability {
        Capability {
            tag: self.tag && !self.is_sealed(),
            address: self.address,
            // Sealed sources detag, so a namespace flip can never make a
            // live sealed capability change identity; keep the field as-is.
            otype: self.otype,
            perms: self.perms.intersection(mask).normalize(),
            bounds: self.bounds,
            decoded: self.decoded,
        }
    }

    /// Returns a copy with the tag cleared (`CClearTag`).
    #[must_use]
    #[inline]
    pub fn cleared(self) -> Capability {
        Capability { tag: false, ..self }
    }

    /// Applies the recursive load-side attenuation of the LG and LM
    /// permissions (paper §3.1.1).
    ///
    /// When a capability is loaded through `authority`:
    /// * without LG: the loaded capability loses GL and LG (it becomes
    ///   local, recursively),
    /// * without LM: the loaded capability loses SD and LM (it becomes
    ///   read-only, recursively), unless it is sealed executable code.
    #[must_use]
    #[inline]
    pub fn attenuated_on_load(self, authority: Capability) -> Capability {
        let mut out = self;
        if !self.tag {
            return out;
        }
        if !authority.perms().contains(Permissions::LG) {
            out.perms = out
                .perms
                .difference(Permissions::GL | Permissions::LG)
                .normalize();
        }
        if !authority.perms().contains(Permissions::LM) && !out.perms.contains(Permissions::EX) {
            out.perms = out
                .perms
                .difference(Permissions::SD | Permissions::LM)
                .normalize();
        }
        out
    }

    // --- Sealing -----------------------------------------------------------

    /// Seals `self` with the otype named by `authority.address()`
    /// (`CSeal`).
    ///
    /// # Errors
    ///
    /// Faults if either capability is untagged or sealed, if `authority`
    /// lacks [`Permissions::SE`], if the otype is out of `authority`'s
    /// bounds, zero, or out of the 3-bit range.
    pub fn seal_with(self, authority: Capability) -> Result<Capability, CapFault> {
        if !self.tag || !authority.tag {
            return Err(CapFault::TagViolation);
        }
        if self.is_sealed() || authority.is_sealed() {
            return Err(CapFault::SealViolation);
        }
        if !authority.perms().contains(Permissions::SE) {
            return Err(CapFault::PermissionViolation {
                needed: Permissions::SE,
            });
        }
        let ot = authority.address();
        if !authority.bounds().covers(ot, 1) {
            return Err(CapFault::BoundsViolation { addr: ot, size: 1 });
        }
        if ot == 0 || ot > 7 {
            return Err(CapFault::InvalidOType { otype: ot as u8 });
        }
        Ok(Capability {
            otype: OType::from_field(ot as u8, self.perms.contains(Permissions::EX)),
            ..self
        })
    }

    /// Unseals `self` using `authority` (`CUnseal`).
    ///
    /// # Errors
    ///
    /// Faults if `self` is not sealed, if `authority` is untagged/sealed or
    /// lacks [`Permissions::US`], or if `authority.address()` does not equal
    /// `self`'s otype (within `authority`'s bounds).
    pub fn unseal_with(self, authority: Capability) -> Result<Capability, CapFault> {
        if !self.tag || !authority.tag {
            return Err(CapFault::TagViolation);
        }
        if !self.is_sealed() {
            return Err(CapFault::SealViolation);
        }
        if authority.is_sealed() {
            return Err(CapFault::SealViolation);
        }
        if !authority.perms().contains(Permissions::US) {
            return Err(CapFault::PermissionViolation {
                needed: Permissions::US,
            });
        }
        let ot = authority.address();
        if !authority.bounds().covers(ot, 1) {
            return Err(CapFault::BoundsViolation { addr: ot, size: 1 });
        }
        if ot as u8 != self.otype.field() {
            return Err(CapFault::OTypeMismatch);
        }
        Ok(Capability {
            otype: OType::Unsealed,
            ..self
        })
    }

    /// Seals with a hardware sentry type. Used by jump-and-link to seal the
    /// link register and by the loader to construct export entry points.
    ///
    /// # Errors
    ///
    /// Faults unless `self` is a tagged, unsealed, executable capability and
    /// `otype` is an executable-namespace type.
    pub fn seal_as_sentry(self, otype: OType) -> Result<Capability, CapFault> {
        if !self.tag {
            return Err(CapFault::TagViolation);
        }
        if self.is_sealed() {
            return Err(CapFault::SealViolation);
        }
        if !self.perms.contains(Permissions::EX) {
            return Err(CapFault::PermissionViolation {
                needed: Permissions::EX,
            });
        }
        match otype {
            OType::Executable(_) => Ok(Capability { otype, ..self }),
            _ => Err(CapFault::InvalidOType {
                otype: otype.field(),
            }),
        }
    }

    /// Automatic unseal used by jumps to sentries. Internal to the CPU; the
    /// posture change is handled by the caller.
    #[must_use]
    pub fn unsealed_for_jump(self) -> Capability {
        Capability {
            otype: OType::Unsealed,
            ..self
        }
    }

    // --- Use-time checks ---------------------------------------------------

    /// Checks that this capability authorizes an access of `size` bytes at
    /// `addr` with the given permissions (e.g. `LD`, or `SD | MC`).
    ///
    /// # Errors
    ///
    /// Returns the highest-priority [`CapFault`] (tag, then seal, then
    /// permission, then bounds), mirroring hardware exception priority.
    #[inline]
    pub fn check_access(self, addr: u32, size: u32, needed: Permissions) -> Result<(), CapFault> {
        if !self.tag {
            return Err(CapFault::TagViolation);
        }
        if self.is_sealed() {
            return Err(CapFault::SealViolation);
        }
        if !self.perms.contains(needed) {
            return Err(CapFault::PermissionViolation { needed });
        }
        if !self.bounds().covers(addr, size) {
            return Err(CapFault::BoundsViolation { addr, size });
        }
        Ok(())
    }

    /// Checks a capability store of `c` at `addr` through this authority
    /// (`csc`): `SD | MC` over the 8-byte slot, then the Store-Local rule,
    /// under which a tagged non-global `c` needs [`Permissions::SL`].
    ///
    /// # Errors
    ///
    /// As [`Capability::check_access`], then
    /// [`CapFault::PermissionViolation`] naming `SL`.
    #[inline]
    pub fn check_store_cap(self, addr: u32, c: Capability) -> Result<(), CapFault> {
        self.check_access(addr, 8, Permissions::SD | Permissions::MC)?;
        if c.tag && !c.is_global() && !self.perms.contains(Permissions::SL) {
            return Err(CapFault::PermissionViolation {
                needed: Permissions::SL,
            });
        }
        Ok(())
    }

    /// Checks an instruction fetch at `addr` (2-byte granule).
    ///
    /// # Errors
    ///
    /// As [`Capability::check_access`] with [`Permissions::EX`]; sealed
    /// program-counter capabilities never occur (jumps unseal).
    #[inline]
    pub fn check_fetch(self, addr: u32) -> Result<(), CapFault> {
        self.check_access(addr, 2, Permissions::EX)
    }

    /// Batched fetch check for a straight-line code range: the bounds are
    /// one interval, so a capability that covers the first and last
    /// instruction of a basic block covers every fetch in between. Returns
    /// whether `check_fetch` would succeed for the whole range — the hot
    /// path of the block-cache dispatch loop, so it folds the tag, seal
    /// and permission checks (shared by both endpoints) into one pass.
    #[inline]
    pub fn check_fetch_range(&self, start: u32, last: u32) -> bool {
        if !self.tag || self.is_sealed() || !self.perms.contains(Permissions::EX) {
            return false;
        }
        let b = self.bounds();
        b.covers(start, 2) && b.covers(last, 2)
    }

    /// The fetch *fingerprint* of an executable capability: the exact
    /// inputs of [`Capability::check_fetch_range`] beyond the range itself.
    /// `None` when the capability could never authorise a fetch (untagged,
    /// sealed, or no `EX`); otherwise the decoded `(base, top)` interval.
    ///
    /// Two capabilities with equal fingerprints give identical
    /// `check_fetch_range` answers for every range, which is what lets the
    /// block-chaining dispatch loop skip re-verifying a successor block
    /// already verified under the same fingerprint (DESIGN.md §13).
    #[inline]
    pub fn fetch_fingerprint(&self) -> Option<(u32, u64)> {
        if !self.tag || self.is_sealed() || !self.perms.contains(Permissions::EX) {
            return None;
        }
        let b = self.bounds();
        Some((b.base, b.top))
    }

    /// `CTestSubset`: is `other` derivable from `self` (bounds and
    /// permissions both subsets, both tagged)?
    pub fn is_subset_of(self, other: Capability) -> bool {
        if !self.tag || !other.tag {
            return false;
        }
        let a = self.bounds();
        let b = other.bounds();
        u64::from(a.base) >= u64::from(b.base)
            && a.top <= b.top
            && self.perms.is_subset_of(other.perms)
    }

    // --- Memory representation ---------------------------------------------

    /// Encodes to the in-memory 64-bit word (metadata in the high half,
    /// address in the low half). The tag travels out of band.
    #[inline]
    pub fn to_word(self) -> u64 {
        let p = u32::from(self.perms.compress().bits()); // 6 bits
        let o = u32::from(self.otype.field()); // 3 bits
        let e = u32::from(self.bounds.exp_field()); // 4 bits
        let b = u32::from(self.bounds.base_field()); // 9 bits
        let t = u32::from(self.bounds.top_field()); // 9 bits
        let meta = (p << 25) | (o << 22) | (e << 18) | (b << 9) | t;
        (u64::from(meta) << 32) | u64::from(self.address)
    }

    /// Decodes from the in-memory 64-bit word plus its tag bit.
    ///
    /// Any bit pattern decodes to *some* capability; only patterns written
    /// by [`Capability::to_word`] ever carry a set tag in the simulator, so
    /// decoded-tagged capabilities always satisfy the type's invariants.
    #[inline]
    pub fn from_word(word: u64, tag: bool) -> Capability {
        let address = word as u32;
        let meta = (word >> 32) as u32;
        let perms = CompressedPerms::from_bits(((meta >> 25) & 0x3f) as u8).decompress();
        let otype = OType::from_field(((meta >> 22) & 0x7) as u8, perms.contains(Permissions::EX));
        let bounds = EncodedBounds::from_fields(
            ((meta >> 18) & 0xf) as u8,
            ((meta >> 9) & 0x1ff) as u16,
            (meta & 0x1ff) as u16,
        );
        // Decode eagerly only for tagged words (the ones whose bounds will
        // actually be consulted); untagged words skip the expansion, which
        // is what makes scalar-heavy memory traffic cheap.
        let decoded = if tag {
            bounds.decode(address)
        } else {
            ZERO_BOUNDS
        };
        Capability {
            tag,
            address,
            perms,
            otype,
            bounds,
            decoded,
        }
    }
}

// The cached decode is derived state: two capabilities are equal iff their
// architectural fields are, regardless of whether either cache is stale
// (only possible while untagged).
impl PartialEq for Capability {
    fn eq(&self, other: &Capability) -> bool {
        self.tag == other.tag
            && self.address == other.address
            && self.perms == other.perms
            && self.otype == other.otype
            && self.bounds == other.bounds
    }
}

impl Eq for Capability {}

impl core::hash::Hash for Capability {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.tag.hash(state);
        self.address.hash(state);
        self.perms.hash(state);
        self.otype.hash(state);
        self.bounds.hash(state);
    }
}

impl Default for Capability {
    fn default() -> Capability {
        Capability::null()
    }
}

impl fmt::Debug for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.bounds();
        write!(
            f,
            "cap{{{} {:#010x} {:?} {:?} {:?}}}",
            if self.tag { "v" } else { "-" },
            self.address,
            b,
            self.perms,
            self.otype,
        )
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(base: u32, len: u64) -> Capability {
        Capability::root_mem_rw()
            .with_address(base)
            .set_bounds(len)
            .unwrap()
    }

    #[test]
    fn roots_cover_everything() {
        for root in [
            Capability::root_mem_rw(),
            Capability::root_executable(),
            Capability::root_sealing(),
        ] {
            assert!(root.tag());
            assert_eq!(root.base(), 0);
            assert_eq!(root.top(), 1 << 32);
        }
    }

    #[test]
    fn null_is_untagged_zero() {
        let n = Capability::null();
        assert!(!n.tag());
        assert_eq!(n.to_word(), 0);
        assert_eq!(Capability::from_word(0, false), n);
    }

    #[test]
    fn derive_and_access() {
        let c = obj(0x1000, 64);
        assert!(c.check_access(0x1000, 8, Permissions::LD).is_ok());
        assert!(c.check_access(0x103f, 1, Permissions::SD).is_ok());
        assert_eq!(
            c.check_access(0x1040, 1, Permissions::LD),
            Err(CapFault::BoundsViolation {
                addr: 0x1040,
                size: 1
            })
        );
    }

    #[test]
    fn bounds_cannot_widen() {
        let c = obj(0x1000, 64);
        let widened = c.set_bounds(65).unwrap();
        assert!(!widened.tag(), "widening must detag");
        let inner = c.incremented(8).set_bounds(32).unwrap();
        assert!(inner.tag());
        assert_eq!(inner.base(), 0x1008);
    }

    #[test]
    fn perms_cannot_regrow() {
        let c = obj(0x1000, 64);
        let ro = c.and_perms(!Permissions::SD);
        let rw_again = ro.and_perms(Permissions::ROOT_MEM);
        assert!(!rw_again.perms().contains(Permissions::SD));
    }

    #[test]
    fn address_below_base_detags() {
        let c = obj(0x1000, 64);
        assert!(!c.incremented(-1).tag());
    }

    #[test]
    fn address_past_bounds_detags_or_decodes_same() {
        // CHERIoT: worst case representable range == bounds; one past the
        // end may or may not survive depending on alignment, but far past
        // must detag.
        let c = obj(0x1000, 64);
        assert!(!c.incremented(0x1000).tag());
    }

    #[test]
    fn sealed_caps_are_inert() {
        let sealing = Capability::root_sealing().with_address(2);
        let c = obj(0x1000, 64);
        let sealed = c.seal_with(sealing).unwrap();
        assert!(sealed.is_sealed());
        assert!(!sealed.with_address(0x1008).tag());
        assert!(!sealed.and_perms(Permissions::NONE).tag());
        assert!(!sealed.set_bounds(8).unwrap().tag());
        assert_eq!(
            sealed.check_access(0x1000, 1, Permissions::LD),
            Err(CapFault::SealViolation)
        );
    }

    #[test]
    fn seal_unseal_round_trip() {
        let sealing = Capability::root_sealing().with_address(3);
        let c = obj(0x2000, 16);
        let sealed = c.seal_with(sealing).unwrap();
        assert_eq!(sealed.otype(), OType::Data(3));
        let unsealed = sealed.unseal_with(sealing).unwrap();
        assert_eq!(unsealed, c);
    }

    #[test]
    fn unseal_with_wrong_otype_faults() {
        let seal3 = Capability::root_sealing().with_address(3);
        let seal4 = Capability::root_sealing().with_address(4);
        let sealed = obj(0x2000, 16).seal_with(seal3).unwrap();
        assert_eq!(sealed.unseal_with(seal4), Err(CapFault::OTypeMismatch));
    }

    #[test]
    fn seal_authority_needs_bounds() {
        let narrow = Capability::root_sealing()
            .with_address(2)
            .set_bounds(1)
            .unwrap();
        // otype 2 is in bounds, otype 3 is not.
        assert!(obj(0, 8).seal_with(narrow).is_ok());
        let narrow3 = narrow.with_address(3);
        assert!(!narrow3.tag() || obj(0, 8).seal_with(narrow3).is_err());
    }

    #[test]
    fn exec_and_data_namespaces_disjoint() {
        let sealing = Capability::root_sealing().with_address(2);
        let data = obj(0x100, 8).seal_with(sealing).unwrap();
        assert_eq!(data.otype(), OType::Data(2));
        let code = Capability::root_executable()
            .with_address(0x100)
            .seal_with(sealing)
            .unwrap();
        assert_eq!(code.otype(), OType::Executable(2));
        assert_ne!(data.otype(), code.otype());
    }

    #[test]
    fn word_round_trip() {
        let caps = [
            Capability::root_mem_rw(),
            Capability::root_executable(),
            Capability::root_sealing(),
            obj(0x1234, 96),
            obj(0x8000_0000, 1 << 20),
            obj(0xdead_bee0, 17),
        ];
        for c in caps {
            let rt = Capability::from_word(c.to_word(), c.tag());
            assert_eq!(rt, c, "round-trip {c}");
            assert_eq!(rt.bounds(), c.bounds());
        }
    }

    #[test]
    fn sentry_sealing() {
        let code = Capability::root_executable().with_address(0x400);
        let sentry = code.seal_as_sentry(OType::SENTRY_DISABLE).unwrap();
        assert!(sentry.is_sealed());
        assert_eq!(sentry.otype(), OType::Executable(3));
        let unsealed = sentry.unsealed_for_jump();
        assert!(!unsealed.is_sealed());
        assert_eq!(unsealed.address(), 0x400);
    }

    #[test]
    fn data_cap_cannot_be_sentry() {
        let d = obj(0, 8);
        assert!(matches!(
            d.seal_as_sentry(OType::SENTRY_ENABLE),
            Err(CapFault::PermissionViolation { .. })
        ));
    }

    #[test]
    fn load_attenuation_lg() {
        let auth_no_lg = obj(0x1000, 64).and_perms(!Permissions::LG);
        let loaded = obj(0x2000, 8).attenuated_on_load(auth_no_lg);
        assert!(!loaded.perms().contains(Permissions::GL));
        assert!(!loaded.perms().contains(Permissions::LG));
        // And recursively: loading through *that* keeps stripping.
        let deeper = obj(0x3000, 8).attenuated_on_load(loaded);
        assert!(!deeper.perms().contains(Permissions::GL));
    }

    #[test]
    fn load_attenuation_lm() {
        let auth_no_lm = obj(0x1000, 64).and_perms(!Permissions::LM);
        let loaded = obj(0x2000, 8).attenuated_on_load(auth_no_lm);
        assert!(!loaded.perms().contains(Permissions::SD));
        assert!(!loaded.perms().contains(Permissions::LM));
        assert!(loaded.perms().contains(Permissions::LD));
    }

    #[test]
    fn subset_test() {
        let outer = obj(0x1000, 128);
        let inner = outer.incremented(16).set_bounds(32).unwrap();
        assert!(inner.is_subset_of(outer));
        assert!(!outer.is_subset_of(inner));
        let ro = inner.and_perms(!Permissions::SD);
        assert!(ro.is_subset_of(inner));
    }

    #[test]
    fn check_priority_order() {
        let c = obj(0x1000, 8).cleared();
        assert_eq!(
            c.check_access(0xffff_0000, 4, Permissions::LD),
            Err(CapFault::TagViolation),
            "tag outranks bounds"
        );
    }

    #[test]
    fn store_local_rule_follows_the_slot_checks() {
        let no_sl = obj(0x1000, 64).and_perms(!Permissions::SL);
        let local = obj(0x2000, 8).and_perms(!Permissions::GL);
        assert_eq!(
            no_sl.check_store_cap(0x1000, local),
            Err(CapFault::PermissionViolation {
                needed: Permissions::SL
            })
        );
        // Only a tagged value carries locality.
        assert_eq!(no_sl.check_store_cap(0x1000, local.cleared()), Ok(()));
        assert_eq!(
            no_sl.check_store_cap(0x1040, local),
            Err(CapFault::BoundsViolation {
                addr: 0x1040,
                size: 8
            }),
            "the slot check outranks Store-Local"
        );
    }

    #[test]
    fn exact_bounds_requirement() {
        let c = Capability::root_mem_rw().with_address(3);
        // 512 at unaligned base cannot be exact.
        let inexact = c.set_bounds_exact(512).unwrap();
        assert!(!inexact.tag());
        let fine = c.set_bounds_exact(511).unwrap();
        assert!(fine.tag());
    }
}
