#include "ir/matrix.hpp"

#include <cmath>
#include <numbers>

#include "common/errors.hpp"

namespace qsyn {

namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;

} // namespace

Mat2
mul(const Mat2 &a, const Mat2 &b)
{
    Mat2 r{};
    for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
            r.at(i, j) = a.at(i, 0) * b.at(0, j) + a.at(i, 1) * b.at(1, j);
        }
    }
    return r;
}

Mat2
dagger(const Mat2 &a)
{
    Mat2 r{};
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            r.at(i, j) = std::conj(a.at(j, i));
    return r;
}

bool
approxEqual(const Mat2 &a, const Mat2 &b, double eps)
{
    for (int i = 0; i < 4; ++i) {
        if (!approxEqual(a.e[i], b.e[i], eps))
            return false;
    }
    return true;
}

namespace {

Mat2
computeBaseMatrix(GateKind kind, double param)
{
    using std::numbers::pi;
    const Cplx i01(0.0, 1.0);
    switch (kind) {
      case GateKind::I:
        return Mat2{{1, 0, 0, 1}};
      case GateKind::X:
        return Mat2{{0, 1, 1, 0}};
      case GateKind::Y:
        return Mat2{{0, -i01, i01, 0}};
      case GateKind::Z:
        return Mat2{{1, 0, 0, -1}};
      case GateKind::H:
        return Mat2{{kInvSqrt2, kInvSqrt2, kInvSqrt2, -kInvSqrt2}};
      case GateKind::S:
        return Mat2{{1, 0, 0, i01}};
      case GateKind::Sdg:
        return Mat2{{1, 0, 0, -i01}};
      case GateKind::T:
        return Mat2{{1, 0, 0, std::polar(1.0, pi / 4)}};
      case GateKind::Tdg:
        return Mat2{{1, 0, 0, std::polar(1.0, -pi / 4)}};
      case GateKind::Rx: {
        double c = std::cos(param / 2), s = std::sin(param / 2);
        return Mat2{{c, Cplx(0, -s), Cplx(0, -s), c}};
      }
      case GateKind::Ry: {
        double c = std::cos(param / 2), s = std::sin(param / 2);
        return Mat2{{c, -s, s, c}};
      }
      case GateKind::Rz:
        return Mat2{{std::polar(1.0, -param / 2), 0, 0,
                     std::polar(1.0, param / 2)}};
      case GateKind::P:
        return Mat2{{1, 0, 0, std::polar(1.0, param)}};
      default:
        throw InternalError("no base matrix for kind " + kindName(kind),
                            __FILE__, __LINE__);
    }
}

/** Kinds whose base matrix ignores the angle. */
bool
hasFixedMatrix(GateKind kind)
{
    return isUnitary(kind) && kind != GateKind::Swap &&
           !isParameterized(kind);
}

} // namespace

Mat2
baseMatrix(GateKind kind, double param)
{
    // The fixed kinds come from a table built once by the same
    // expressions, so every entry is bit-identical to computing it.
    static const std::array<Mat2, kNumGateKinds> fixed = [] {
        std::array<Mat2, kNumGateKinds> table{};
        for (int k = 0; k < kNumGateKinds; ++k) {
            auto fixed_kind = static_cast<GateKind>(k);
            if (hasFixedMatrix(fixed_kind))
                table[k] = computeBaseMatrix(fixed_kind, 0.0);
        }
        return table;
    }();
    if (!hasFixedMatrix(kind))
        return computeBaseMatrix(kind, param);
    return fixed[static_cast<int>(kind)];
}

DenseMatrix::DenseMatrix(int num_qubits) : num_qubits_(0)
{
    reset(num_qubits);
}

void
DenseMatrix::reset(int num_qubits)
{
    QSYN_ASSERT(num_qubits >= 0 && num_qubits <= kMaxQubits,
                "DenseMatrix limited to 12 qubits");
    num_qubits_ = num_qubits;
    data_.assign(dim() * dim(), Cplx(0, 0));
    for (size_t r = 0; r < dim(); ++r)
        at(r, r) = Cplx(1, 0);
}

void
DenseMatrix::leftMultiply(const DenseMatrix &other)
{
    QSYN_ASSERT(other.num_qubits_ == num_qubits_, "dimension mismatch");
    size_t n = dim();
    std::vector<Cplx> out(n * n, Cplx(0, 0));
    for (size_t r = 0; r < n; ++r) {
        for (size_t k = 0; k < n; ++k) {
            Cplx o = other.at(r, k);
            if (approxZero(o))
                continue;
            for (size_t c = 0; c < n; ++c)
                out[r * n + c] += o * at(k, c);
        }
    }
    data_ = std::move(out);
}

bool
DenseMatrix::isIdentity(double eps) const
{
    size_t n = dim();
    for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < n; ++c) {
            Cplx want = r == c ? Cplx(1, 0) : Cplx(0, 0);
            if (!approxEqual(at(r, c), want, eps))
                return false;
        }
    }
    return true;
}

bool
DenseMatrix::isIdentityUpToPhase(Cplx *phase_out, double eps) const
{
    size_t n = dim();
    Cplx phase = at(0, 0);
    if (!approxEqual(std::abs(phase), 1.0, eps))
        return false;
    for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < n; ++c) {
            Cplx want = r == c ? phase : Cplx(0, 0);
            if (!approxEqual(at(r, c), want, eps))
                return false;
        }
    }
    if (phase_out)
        *phase_out = phase;
    return true;
}

bool
DenseMatrix::approxEquals(const DenseMatrix &other, double eps) const
{
    if (other.num_qubits_ != num_qubits_)
        return false;
    for (size_t i = 0; i < data_.size(); ++i) {
        if (!approxEqual(data_[i], other.data_[i], eps))
            return false;
    }
    return true;
}

void
DenseMatrix::applyGate(const Mat2 &u, const std::vector<int> &controls,
                       int target)
{
    size_t n = dim();
    size_t tbit = size_t{1} << (num_qubits_ - 1 - target);
    size_t cmask = 0;
    for (int c : controls) {
        QSYN_ASSERT(c != target, "control equals target");
        cmask |= size_t{1} << (num_qubits_ - 1 - c);
    }
    for (size_t r = 0; r < n; ++r) {
        if ((r & tbit) != 0 || (r & cmask) != cmask)
            continue; // visit each affected row pair once, via its r0
        size_t r1 = r | tbit;
        for (size_t c = 0; c < n; ++c) {
            Cplx a0 = at(r, c), a1 = at(r1, c);
            at(r, c) = u.at(0, 0) * a0 + u.at(0, 1) * a1;
            at(r1, c) = u.at(1, 0) * a0 + u.at(1, 1) * a1;
        }
    }
}

void
DenseMatrix::applySwap(const std::vector<int> &controls, int a, int b)
{
    size_t n = dim();
    size_t abit = size_t{1} << (num_qubits_ - 1 - a);
    size_t bbit = size_t{1} << (num_qubits_ - 1 - b);
    size_t cmask = 0;
    for (int c : controls)
        cmask |= size_t{1} << (num_qubits_ - 1 - c);
    for (size_t r = 0; r < n; ++r) {
        // Swap rows where qubit a is 1 and b is 0 with the mirrored row.
        if ((r & cmask) != cmask || (r & abit) == 0 || (r & bbit) != 0)
            continue;
        size_t r2 = (r & ~abit) | bbit;
        for (size_t c = 0; c < n; ++c)
            std::swap(at(r, c), at(r2, c));
    }
}

} // namespace qsyn
