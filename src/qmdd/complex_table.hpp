/**
 * @file
 * Interned complex values for the QMDD package.
 *
 * QMDD canonicity requires that equal edge weights be *identical*
 * objects, so weights are interned: every distinct complex value lives
 * exactly once in a ComplexTable and edges refer to it by pointer.
 * Lookups snap values within kWeightEps onto the existing
 * representative, which both makes equality O(1) (pointer compare) and
 * prevents floating-point drift from accumulating across long gate
 * products: each product step re-snaps onto canonical values.
 *
 * Interning is first come: a value within kWeightEps of an entry maps
 * onto that entry, and only a value with no such neighbor becomes a
 * new representative. The table belongs to one Package and, like it,
 * to one thread.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hpp"

namespace qsyn::dd {

/** Tolerance under which two weights are considered the same value. */
inline constexpr double kWeightEps = 1e-10;

/** Interning table for complex edge weights. */
class ComplexTable
{
  public:
    ComplexTable();

    ComplexTable(const ComplexTable &) = delete;
    ComplexTable &operator=(const ComplexTable &) = delete;

    /**
     * Canonical pointer for `value`. Returns an existing entry when one
     * lies within kWeightEps (componentwise), otherwise inserts.
     *
     * Hot constants (0, 1, ±1/√2, and the eighth-roots-of-unity phases
     * that T/S/H products cycle through) are pre-interned and matched
     * by a short inline scan before the grid probe, so the values that
     * dominate gate algebra resolve in O(1) without hashing.
     */
    const Cplx *
    lookup(const Cplx &value)
    {
        for (const HotEntry &hot : hot_) {
            if (approxEqual(hot.value, value, kWeightEps))
                return hot.entry;
        }
        return lookupSlow(value);
    }

    /** Canonical zero (cached; lookup(0) returns the same pointer). */
    const Cplx *zero() const { return zero_; }

    /** Canonical one. */
    const Cplx *one() const { return one_; }

    /** Canonical 1/√2 (the Hadamard weight). */
    const Cplx *sqrt1_2() const { return sqrt1_2_; }

    /** Number of distinct values interned so far. */
    size_t size() const { return entries_.size(); }

  private:
    using BucketKey = std::uint64_t;

    /** A pre-interned hot constant checked before the grid probe. */
    struct HotEntry
    {
        Cplx value;
        const Cplx *entry;
    };

    /** One interned value in a bucket chain; never changes once
     *  inserted. */
    struct Entry
    {
        Cplx value;
        const Entry *next = nullptr;
    };

    /** Grid-probe path for values outside the hot set. */
    const Cplx *lookupSlow(const Cplx &value);

    /** Grid bucket of a coordinate (buckets are ~4x the tolerance). */
    static std::int64_t gridOf(double v);

    static BucketKey keyOf(std::int64_t gr, std::int64_t gi);

    /** Scan of the chain holding grid key `key`. Chains are shared
     *  across grid keys that collide on the table index, so matching
     *  is by value tolerance, never by key. */
    const Cplx *findInBucket(BucketKey key, const Cplx &value) const;

    /** Table slot of a grid key. */
    size_t slotOf(BucketKey key) const;

    /** Entry storage; deque keeps pointers stable across growth. */
    std::deque<Entry> entries_;
    /** Fixed-size bucket array: heads of the entry chains. */
    std::vector<const Entry *> buckets_;
    size_t bucket_mask_;
    const Cplx *zero_;
    const Cplx *one_;
    const Cplx *sqrt1_2_;
    std::vector<HotEntry> hot_;
};

} // namespace qsyn::dd
