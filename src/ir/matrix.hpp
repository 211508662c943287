/**
 * @file
 * Small dense complex matrices: the 2x2 base unitaries of every gate
 * kind (Table 1 of the paper) and a general NxN matrix used for window
 * identity checks and simulator cross-validation.
 */

#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "ir/gate_kind.hpp"

namespace qsyn {

/** 2x2 complex matrix in row-major order. */
struct Mat2
{
    std::array<Cplx, 4> e;

    Cplx &at(int r, int c) { return e[r * 2 + c]; }
    const Cplx &at(int r, int c) const { return e[r * 2 + c]; }
};

/** Matrix product a*b of 2x2 matrices. */
Mat2 mul(const Mat2 &a, const Mat2 &b);

/** Conjugate transpose of a 2x2 matrix. */
Mat2 dagger(const Mat2 &a);

/** Entrywise approximate equality. */
bool approxEqual(const Mat2 &a, const Mat2 &b, double eps = kEps);

/**
 * Base 2x2 unitary for a single-target kind. Parameterized kinds use
 * `param`; others ignore it. Swap/Measure/Barrier are invalid here.
 */
Mat2 baseMatrix(GateKind kind, double param = 0.0);

/**
 * Dense NxN complex matrix, row-major, N = 2^n. Used only for small n
 * (window identity checks, tests); the QMDD package is the scalable
 * representation.
 */
class DenseMatrix
{
  public:
    /** Widest matrix accepted (a 4096 x 4096 product). */
    static constexpr int kMaxQubits = 12;

    /** Identity on `num_qubits` qubits. */
    explicit DenseMatrix(int num_qubits);

    /** Become the identity on `num_qubits` qubits, reusing storage. */
    void reset(int num_qubits);

    int numQubits() const { return num_qubits_; }
    size_t dim() const { return size_t{1} << num_qubits_; }

    Cplx &at(size_t r, size_t c) { return data_[r * dim() + c]; }
    const Cplx &at(size_t r, size_t c) const { return data_[r * dim() + c]; }

    /** this = other * this (left-multiply, i.e. apply `other` after). */
    void leftMultiply(const DenseMatrix &other);

    /** True when this is the identity up to eps (exact phase). */
    bool isIdentity(double eps = kEps) const;

    /**
     * True when this equals `phase` * identity for some unit complex
     * `phase`; the phase found is written to *phase_out when non-null.
     */
    bool isIdentityUpToPhase(Cplx *phase_out = nullptr,
                             double eps = kEps) const;

    /** Entrywise approximate comparison. */
    bool approxEquals(const DenseMatrix &other, double eps = kEps) const;

    /**
     * Apply a base 2x2 unitary with positive controls in place
     * (multiplies this matrix on the left by the gate's full unitary).
     * Qubit indices are local row-bit positions: qubit 0 is the most
     * significant bit of the row index.
     */
    void applyGate(const Mat2 &u, const std::vector<int> &controls,
                   int target);

    /** Apply a (controlled) swap of two local qubits. */
    void applySwap(const std::vector<int> &controls, int a, int b);

  private:
    int num_qubits_;
    std::vector<Cplx> data_;
};

} // namespace qsyn
