#include "qmdd/complex_table.hpp"

#include <cmath>

namespace qsyn::dd {

namespace {

/** Bucket width; a value can only match entries in its own or an
 *  adjacent bucket, so the width must exceed 2 * kWeightEps. */
constexpr double kBucketWidth = 4 * kWeightEps;

/** Bucket-array size. Fixed: grid keys that collide simply share a
 *  chain, and the tolerance match filters them. 16k slots keep chains
 *  at ~1 entry for typical workloads (a few thousand distinct
 *  weights). */
constexpr size_t kBucketSlots = size_t{1} << 14;

} // namespace

ComplexTable::ComplexTable()
    : buckets_(kBucketSlots, nullptr), bucket_mask_(kBucketSlots - 1)
{
    // Intern the hot set through the slow path (hot_ is still empty),
    // then register the entries for the inline fast scan. Order is by
    // observed lookup frequency: normalization produces 1, pruned
    // quadrants produce 0, and H/T/S algebra cycles through ±1/√2 and
    // the eighth roots of unity.
    const double r = 1.0 / std::sqrt(2.0);
    zero_ = lookupSlow(Cplx(0.0, 0.0));
    one_ = lookupSlow(Cplx(1.0, 0.0));
    sqrt1_2_ = lookupSlow(Cplx(r, 0.0));
    hot_.push_back({Cplx(1.0, 0.0), one_});
    hot_.push_back({Cplx(0.0, 0.0), zero_});
    hot_.push_back({Cplx(r, 0.0), sqrt1_2_});
    for (const Cplx &v :
         {Cplx(-1.0, 0.0), Cplx(0.0, 1.0), Cplx(0.0, -1.0),
          Cplx(-r, 0.0), Cplx(0.0, r), Cplx(0.0, -r), Cplx(r, r),
          Cplx(r, -r), Cplx(-r, r), Cplx(-r, -r)})
        hot_.push_back({v, lookupSlow(v)});
}

std::int64_t
ComplexTable::gridOf(double v)
{
    return static_cast<std::int64_t>(std::floor(v / kBucketWidth));
}

ComplexTable::BucketKey
ComplexTable::keyOf(std::int64_t gr, std::int64_t gi)
{
    // Mix the two 32-ish bit grid coordinates into one 64-bit key.
    auto ur = static_cast<std::uint64_t>(gr) * 0x9e3779b97f4a7c15ull;
    auto ui = static_cast<std::uint64_t>(gi) * 0xc2b2ae3d27d4eb4full;
    return ur ^ (ui + 0x165667b19e3779f9ull + (ur << 6) + (ur >> 2));
}

size_t
ComplexTable::slotOf(BucketKey key) const
{
    // The key is already well mixed; fold the high half in so the
    // mask sees all of it.
    return static_cast<size_t>(key ^ (key >> 32)) & bucket_mask_;
}

const Cplx *
ComplexTable::findInBucket(BucketKey key, const Cplx &value) const
{
    for (const Entry *e = buckets_[slotOf(key)]; e != nullptr;
         e = e->next) {
        if (approxEqual(e->value, value, kWeightEps))
            return &e->value;
    }
    return nullptr;
}

const Cplx *
ComplexTable::lookupSlow(const Cplx &value)
{
    std::int64_t gr = gridOf(value.real());
    std::int64_t gi = gridOf(value.imag());

    // A match within kWeightEps can only live in a neighboring bucket
    // when the coordinate sits within kWeightEps of that boundary; with
    // buckets 4x the tolerance wide, each axis needs at most one extra
    // probe, and usually none.
    auto offsets = [](double v, std::int64_t g,
                      std::int64_t (&out)[2]) -> int {
        out[0] = 0;
        double lo = static_cast<double>(g) * kBucketWidth;
        double frac = v - lo;
        if (frac < kWeightEps) {
            out[1] = -1;
            return 2;
        }
        if (frac > kBucketWidth - kWeightEps) {
            out[1] = 1;
            return 2;
        }
        return 1;
    };
    std::int64_t drs[2], dis[2];
    int nr = offsets(value.real(), gr, drs);
    int ni = offsets(value.imag(), gi, dis);
    for (int r = 0; r < nr; ++r) {
        for (int i = 0; i < ni; ++i) {
            if (const Cplx *hit = findInBucket(
                    keyOf(gr + drs[r], gi + dis[i]), value)) {
                return hit;
            }
        }
    }

    // First sighting of this value: it becomes the representative of
    // its neighborhood.
    const Entry *&head = buckets_[slotOf(keyOf(gr, gi))];
    entries_.push_back(Entry{value, head});
    head = &entries_.back();
    return &head->value;
}

} // namespace qsyn::dd
