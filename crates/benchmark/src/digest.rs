//! `sim_digest`: an FNV-1a hash over simulated outcomes. Only values the
//! simulated system produces go in (cycles, instructions, guest
//! counters, classifications), never host accounting such as bytes
//! copied, RSS or worker count, so a change that only makes the
//! simulator faster leaves every digest unchanged.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hash.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// Folds one value in (little-endian bytes).
    pub fn add(&mut self, v: u64) -> &mut Digest {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
