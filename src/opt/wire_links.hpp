/**
 * @file
 * Per-wire gate adjacency for the passes that walk a circuit wire by
 * wire (cancellation, the Hadamard rules).
 */

#pragma once

#include <vector>

#include "ir/circuit.hpp"

namespace qsyn::opt {

/**
 * Previous/next gate on each wire of each gate, in flat arrays. Gate
 * i's k-th wire (order of Gate::qubits(): controls, then targets) is
 * slot `slot(i, k)`; every slot links to the slots of the previous and
 * next gate on its wire. unlink() takes a gate off all of its wires, so
 * later walks step over it. Indices are those of the circuit the links
 * were built from.
 */
class WireLinks
{
  public:
    static constexpr size_t kNone = static_cast<size_t>(-1);

    explicit WireLinks(const Circuit &circuit);

    /** Slot of the k-th wire of gate i. */
    size_t slot(size_t i, size_t k) const { return offset_[i] + k; }
    /** The gate a slot belongs to. */
    size_t gate(size_t s) const { return gate_[s]; }
    /** Slot of the next gate on slot s's wire, or kNone. */
    size_t nextSlot(size_t s) const { return next_[s]; }

    /** Index of the previous / next gate on the k-th wire of gate i,
     *  or kNone. */
    size_t prev(size_t i, size_t k) const
    {
        return gateAt(prev_[slot(i, k)]);
    }
    size_t next(size_t i, size_t k) const
    {
        return gateAt(next_[slot(i, k)]);
    }

    /** Link gate i's neighbours on each of its wires past it. */
    void unlink(size_t i);

  private:
    size_t gateAt(size_t s) const { return s == kNone ? kNone : gate_[s]; }

    std::vector<size_t> offset_;
    std::vector<size_t> gate_;
    std::vector<size_t> prev_;
    std::vector<size_t> next_;
};

} // namespace qsyn::opt
