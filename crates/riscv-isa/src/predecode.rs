//! Predecoded instruction cache shared by both core models.
//!
//! Decoding an RV64GC/RV32IMC fetch word is by far the most expensive part
//! of [`Hart::step`](crate::exec::Hart::step): the compressed expander plus
//! the format dispatch dominate the interpreter profile, yet for any given
//! pc they always produce the same [`Decoded`] value (decode depends only on
//! the raw bits and the [`Xlen`]). [`DecodeCache`] memoises that work in a
//! direct-mapped, pc-indexed table of [`Predecoded`] entries: the decoded
//! instruction, its precomputed control-flow class, and the number of bytes
//! it can write to memory (used for self-modification tracking).
//!
//! # Invalidation contract
//!
//! A cached entry is only valid while the instruction bytes underneath it
//! are unchanged. [`Hart::step_predecoded`](crate::exec::Hart::step_predecoded)
//! upholds that by calling [`DecodeCache::invalidate_store`] after every
//! retired store/AMO/`sc` with the effective address, which evicts every
//! entry whose encoding span `[pc, pc + len)` intersects the written range.
//! A low/high watermark over all cached pcs rejects the common case (data
//! and stack stores that cannot alias code) with two compares. Embedders
//! that mutate memory *behind the hart's back* — loaders, test harnesses
//! poking RAM directly — must call [`DecodeCache::invalidate_all`] (the
//! core models do this in their `set_predecode`/`load` paths).

use crate::cfi::{classify, CfClass};
use crate::decode::Decoded;
use crate::inst::Inst;
use std::sync::atomic::{AtomicBool, Ordering};

/// Mutation-testing switch: when set, [`DecodeCache::invalidate_store`]
/// silently skips eviction — a deliberately plantable cache-coherence bug.
/// It exists so the differential fuzzer (`titancfi-fuzz`) can prove its
/// oracle catches exactly this class of defect (stale decoded instructions
/// after self-modifying stores). Never enabled by any production code path;
/// tests that flip it must run in their own process.
static MUTATE_SKIP_STORE_INVALIDATION: AtomicBool = AtomicBool::new(false);

/// Whether the planted store-invalidation bug is active.
#[must_use]
pub fn mutate_skip_store_invalidation() -> bool {
    MUTATE_SKIP_STORE_INVALIDATION.load(Ordering::Relaxed)
}

/// Arms or disarms the planted store-invalidation bug (mutation testing
/// only — see [`mutate_skip_store_invalidation`]).
pub fn set_mutate_skip_store_invalidation(on: bool) {
    MUTATE_SKIP_STORE_INVALIDATION.store(on, Ordering::Relaxed);
}

/// A decoded instruction plus everything the hot loop needs precomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predecoded {
    /// The decoded instruction (including raw/uncompressed encodings).
    pub decoded: Decoded,
    /// Control-flow class, precomputed so the commit path skips `classify`.
    pub cf_class: CfClass,
    /// Bytes this instruction can write to memory (0 for non-stores).
    /// `sc` is counted even though it may fail — a spurious invalidation
    /// probe is harmless, a missed one is not.
    pub store_bytes: u8,
}

impl Predecoded {
    /// Precomputes the cacheable facts about a decoded instruction.
    #[must_use]
    pub fn new(decoded: Decoded) -> Predecoded {
        let store_bytes = match decoded.inst {
            Inst::Store { width, .. }
            | Inst::StoreConditional { width, .. }
            | Inst::Amo { width, .. } => width.bytes() as u8,
            _ => 0,
        };
        Predecoded {
            decoded,
            cf_class: classify(&decoded.inst),
            store_bytes,
        }
    }
}

/// Hit/miss/eviction counters for a [`DecodeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to a full fetch+decode.
    pub misses: u64,
    /// Entries evicted by store invalidation.
    pub invalidated: u64,
}

/// Tag value meaning "slot empty" — no instruction can live at the top of
/// the address space, so it never collides with a real pc.
const EMPTY: u64 = u64::MAX;

/// Direct-mapped, pc-keyed cache of [`Predecoded`] entries.
///
/// Indexing uses `(pc >> 1) & mask` — instructions are at least 2-byte
/// aligned, so consecutive compressed instructions occupy consecutive slots.
/// Conflicting pcs simply overwrite each other (the cache is a pure memo;
/// losing an entry costs one re-decode, never correctness). Tags and ops
/// live in parallel arrays so the hit path is one tag load + compare.
#[derive(Debug, Clone)]
pub struct DecodeCache {
    tags: Vec<u64>,
    ops: Vec<Predecoded>,
    mask: u64,
    /// Inclusive pc watermarks over every entry ever inserted
    /// (`lo > hi` means the cache has never held an entry).
    lo: u64,
    hi: u64,
    /// Invalidation generation: bumped whenever cached decode results may
    /// have become stale (a store overlapping the code watermark, or a
    /// wholesale [`DecodeCache::invalidate_all`]). The superblock layer
    /// ([`crate::block::BlockCache`]) keys translated blocks on this value,
    /// so the existing store-span invalidation contract carries over to
    /// whole-block dispatch unchanged. Deliberately *not* bumped while the
    /// planted [`mutate_skip_store_invalidation`] bug is armed — the
    /// mutation must flow through the block layer too.
    generation: u64,
    stats: DecodeCacheStats,
}

impl DecodeCache {
    /// Default slot count: covers 16 KiB of compressed code directly, far
    /// larger than any kernel or firmware image in the repo.
    pub const DEFAULT_SLOTS: usize = 8192;

    /// A cache with `slots` entries (rounded up to a power of two, min 16).
    #[must_use]
    pub fn new(slots: usize) -> DecodeCache {
        let n = slots.next_power_of_two().max(16);
        let filler = Predecoded::new(Decoded {
            inst: Inst::NOP,
            len: 4,
            raw: 0x13,
        });
        DecodeCache {
            tags: vec![EMPTY; n],
            ops: vec![filler; n],
            mask: n as u64 - 1,
            lo: 1,
            hi: 0,
            generation: 0,
            stats: DecodeCacheStats::default(),
        }
    }

    /// The current invalidation generation (see the field doc). Monotonic;
    /// a consumer holding decoded state derived from this cache must treat
    /// that state as stale whenever the generation moves.
    #[inline]
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc >> 1) & self.mask) as usize
    }

    /// Looks up the entry cached for `pc`.
    #[inline]
    pub fn lookup(&mut self, pc: u64) -> Option<Predecoded> {
        let idx = self.index(pc);
        if self.tags[idx] == pc {
            self.stats.hits += 1;
            Some(self.ops[idx])
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Caches `decoded` for `pc`, returning the precomputed entry.
    #[inline]
    pub fn insert(&mut self, pc: u64, decoded: Decoded) -> Predecoded {
        let op = Predecoded::new(decoded);
        let idx = self.index(pc);
        self.tags[idx] = pc;
        self.ops[idx] = op;
        if self.lo > self.hi {
            self.lo = pc;
            self.hi = pc;
        } else {
            self.lo = self.lo.min(pc);
            self.hi = self.hi.max(pc);
        }
        op
    }

    /// Evicts every entry whose encoding bytes intersect the written range
    /// `[addr, addr + bytes)`. Cheap for the overwhelmingly common case of
    /// stores outside the code watermark: two compares, no probing.
    #[inline]
    pub fn invalidate_store(&mut self, addr: u64, bytes: u64) {
        if self.lo > self.hi {
            return;
        }
        if mutate_skip_store_invalidation() {
            return;
        }
        let end = addr.saturating_add(bytes);
        // A 4-byte instruction starting up to 3 bytes below `addr` can still
        // overlap the store, hence the 3-byte overhang on both bounds.
        if end <= self.lo || addr > self.hi.saturating_add(3) {
            return;
        }
        // The store may alias cached code: any translated block derived from
        // this cache is now suspect, whether or not a probe below evicts an
        // entry (the block arena can hold ops the direct-mapped table has
        // since lost to conflicts).
        self.generation += 1;
        for pc in addr.saturating_sub(3)..end {
            let idx = self.index(pc);
            let slot_pc = self.tags[idx];
            if slot_pc != EMPTY {
                let span_end = slot_pc + u64::from(self.ops[idx].decoded.len);
                if slot_pc < end && span_end > addr {
                    self.tags[idx] = EMPTY;
                    self.stats.invalidated += 1;
                }
            }
        }
    }

    /// Drops every entry (memory changed behind the hart's back).
    pub fn invalidate_all(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = EMPTY);
        self.lo = 1;
        self.hi = 0;
        self.generation += 1;
    }

    /// Hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> DecodeCacheStats {
        self.stats
    }
}

impl Default for DecodeCache {
    fn default() -> DecodeCache {
        DecodeCache::new(DecodeCache::DEFAULT_SLOTS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode, Xlen};
    use crate::encode::encode;
    use crate::inst::MemWidth;
    use crate::reg::Reg;

    fn entry(pc: u64, inst: &Inst, cache: &mut DecodeCache) -> Predecoded {
        let d = decode(encode(inst), Xlen::Rv64).expect("decodes");
        cache.insert(pc, d)
    }

    #[test]
    fn precomputes_class_and_store_width() {
        let mut c = DecodeCache::new(64);
        let op = entry(
            0x1000,
            &Inst::Jal {
                rd: Reg::RA,
                offset: 16,
            },
            &mut c,
        );
        assert_eq!(op.cf_class, CfClass::Call);
        assert_eq!(op.store_bytes, 0);
        let op = entry(
            0x1004,
            &Inst::Store {
                rs1: Reg::SP,
                rs2: Reg::A0,
                offset: 0,
                width: MemWidth::D,
            },
            &mut c,
        );
        assert_eq!(op.cf_class, CfClass::None);
        assert_eq!(op.store_bytes, 8);
    }

    #[test]
    fn lookup_hits_after_insert_and_counts() {
        let mut c = DecodeCache::new(64);
        assert!(c.lookup(0x1000).is_none());
        entry(0x1000, &Inst::NOP, &mut c);
        assert!(c.lookup(0x1000).is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn store_overlapping_any_encoding_byte_evicts() {
        // 4-byte instruction at 0x1000: every store touching [0x1000,0x1004)
        // must evict it, including a 1-byte store to its last byte.
        for hit in 0x1000..0x1004u64 {
            let mut c = DecodeCache::new(64);
            entry(0x1000, &Inst::NOP, &mut c);
            c.invalidate_store(hit, 1);
            assert!(c.lookup(0x1000).is_none(), "store at {hit:#x} must evict");
        }
        // Adjacent stores on either side must not evict.
        let mut c = DecodeCache::new(64);
        entry(0x1000, &Inst::NOP, &mut c);
        c.invalidate_store(0xfff, 1);
        c.invalidate_store(0x1004, 4);
        assert!(c.lookup(0x1000).is_some());
        assert_eq!(c.stats().invalidated, 0);
    }

    #[test]
    fn wide_store_evicts_multiple_entries() {
        let mut c = DecodeCache::new(64);
        entry(0x1000, &Inst::NOP, &mut c); // [0x1000, 0x1004)
        entry(0x1004, &Inst::NOP, &mut c); // [0x1004, 0x1008)
        c.invalidate_store(0x1002, 4); // touches both
        assert!(c.lookup(0x1000).is_none());
        assert!(c.lookup(0x1004).is_none());
        assert_eq!(c.stats().invalidated, 2);
    }

    #[test]
    fn compressed_entry_evicted_only_by_its_two_bytes() {
        // c.nop at 0x1002 spans [0x1002, 0x1004).
        let mut c = DecodeCache::new(64);
        let d = decode(0x0001, Xlen::Rv64).expect("c.nop decodes");
        assert_eq!(d.len, 2);
        c.insert(0x1002, d);
        c.invalidate_store(0x1004, 2);
        assert!(c.lookup(0x1002).is_some(), "store past the end keeps it");
        c.invalidate_store(0x1003, 1);
        assert!(c.lookup(0x1002).is_none(), "store inside evicts");
    }

    #[test]
    fn watermark_rejects_far_stores_without_probing() {
        let mut c = DecodeCache::new(64);
        entry(0x8000_0000, &Inst::NOP, &mut c);
        // Stack/data stores far from code: must keep the entry.
        c.invalidate_store(0x8010_0000, 8);
        c.invalidate_store(0x1000, 8);
        assert!(c.lookup(0x8000_0000).is_some());
    }

    #[test]
    fn invalidate_all_empties_and_resets_watermark() {
        let mut c = DecodeCache::new(64);
        entry(0x1000, &Inst::NOP, &mut c);
        c.invalidate_all();
        assert!(c.lookup(0x1000).is_none());
        // Watermark reset: a store in the old range is a cheap no-op again.
        c.invalidate_store(0x1000, 4);
        assert_eq!(c.stats().invalidated, 0);
    }

    #[test]
    fn conflicting_pcs_overwrite_not_corrupt() {
        let mut c = DecodeCache::new(16); // mask over (pc >> 1) & 15
        entry(0x1000, &Inst::NOP, &mut c);
        // 0x1000 + 16*2 maps to the same slot.
        entry(0x1020, &Inst::Ecall, &mut c);
        assert!(c.lookup(0x1000).is_none(), "conflict evicts older entry");
        let op = c.lookup(0x1020).expect("newer entry present");
        assert_eq!(op.decoded.inst, Inst::Ecall);
    }

    #[test]
    fn store_straddling_two_entries_evicts_exactly_the_overlapped() {
        // Three consecutive 4-byte entries; a 4-byte store at 0x1006
        // straddles the boundary between the second and third — it must
        // evict both of those and leave the first untouched.
        let mut c = DecodeCache::new(64);
        entry(0x1000, &Inst::NOP, &mut c); // [0x1000, 0x1004)
        entry(0x1004, &Inst::NOP, &mut c); // [0x1004, 0x1008)
        entry(0x1008, &Inst::NOP, &mut c); // [0x1008, 0x100c)
        c.invalidate_store(0x1006, 4); // [0x1006, 0x100a)
        assert!(
            c.lookup(0x1000).is_some(),
            "entry before the store survives"
        );
        assert!(c.lookup(0x1004).is_none(), "first straddled entry evicted");
        assert!(c.lookup(0x1008).is_none(), "second straddled entry evicted");
        assert_eq!(c.stats().invalidated, 2);
    }

    #[test]
    fn store_exactly_at_watermark_boundaries() {
        // Single entry ⇒ lo = hi = 0x1000, span [0x1000, 0x1004).
        // Low edge: a store *ending* exactly at `lo` must not evict; one
        // byte further must.
        let mut c = DecodeCache::new(64);
        entry(0x1000, &Inst::NOP, &mut c);
        c.invalidate_store(0xffc, 4); // end == lo: rejected by watermark
        assert!(c.lookup(0x1000).is_some());
        assert_eq!(c.stats().invalidated, 0);
        c.invalidate_store(0xffd, 4); // end == lo + 1: overlaps first byte
        assert!(c.lookup(0x1000).is_none());
        assert_eq!(c.stats().invalidated, 1);

        // High edge: the watermark keeps a 3-byte overhang past `hi`
        // because `hi` is a *start* address. A store at hi+3 (last byte of
        // the instruction) must evict; at hi+4 (one past the span) must be
        // rejected without probing.
        let mut c = DecodeCache::new(64);
        entry(0x2000, &Inst::NOP, &mut c); // span [0x2000, 0x2004)
        c.invalidate_store(0x2004, 8); // addr == hi + 4: outside the span
        assert!(c.lookup(0x2000).is_some());
        assert_eq!(c.stats().invalidated, 0);
        c.invalidate_store(0x2003, 1); // addr == hi + 3: last encoded byte
        assert!(c.lookup(0x2000).is_none());
        assert_eq!(c.stats().invalidated, 1);
    }

    #[test]
    fn compressed_instruction_at_span_edge() {
        // A 2-byte instruction sitting at the high watermark: its span ends
        // at hi+2, so the generic hi+3 overhang over-approximates by one
        // byte — the probe loop must still decline to evict for a store at
        // hi+2 or hi+3 (outside the 2-byte span) while the watermark lets
        // those stores through to probing.
        let mut c = DecodeCache::new(64);
        entry(0x3000, &Inst::NOP, &mut c); // [0x3000, 0x3004)
        let d = decode(0x0001, Xlen::Rv64).expect("c.nop decodes");
        assert_eq!(d.len, 2);
        c.insert(0x3004, d); // [0x3004, 0x3006), hi = 0x3004
        c.invalidate_store(0x3006, 2); // inside watermark overhang, outside span
        assert!(
            c.lookup(0x3004).is_some(),
            "hi+2 store keeps compressed entry"
        );
        c.invalidate_store(0x3007, 1); // hi + 3: watermark admits, span rejects
        assert!(
            c.lookup(0x3004).is_some(),
            "hi+3 store keeps compressed entry"
        );
        assert_eq!(c.stats().invalidated, 0);
        c.invalidate_store(0x3005, 1); // last byte of the compressed span
        assert!(c.lookup(0x3004).is_none(), "in-span store evicts");
        assert!(c.lookup(0x3000).is_some(), "neighbour entry untouched");
        assert_eq!(c.stats().invalidated, 1);
    }

    // The mutation hook (`set_mutate_skip_store_invalidation`) is
    // process-global, so its behavioural test lives in the fuzz crate's
    // single-process `tests/mutation.rs` rather than here, where it would
    // race the other invalidation tests running in parallel threads.
}
