#include "quantum/pauli.h"

#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/error.h"

namespace qdb {

DiagonalPauliOp::DiagonalPauliOp(int num_qubits) : num_qubits_(num_qubits) {
  QDB_REQUIRE(num_qubits >= 1 && num_qubits <= 63, "pauli op supports 1..63 qubits");
}

void DiagonalPauliOp::add(std::uint64_t mask, double coeff) {
  QDB_REQUIRE(mask < (std::uint64_t{1} << num_qubits_), "pauli mask out of range");
  for (PauliZTerm& t : terms_) {
    if (t.mask == mask) {
      t.coeff += coeff;
      return;
    }
  }
  terms_.push_back({mask, coeff});
}

double DiagonalPauliOp::identity_coefficient() const {
  for (const PauliZTerm& t : terms_) {
    if (t.mask == 0) return t.coeff;
  }
  return 0.0;
}

double DiagonalPauliOp::value(std::uint64_t x) const {
  double acc = 0.0;
  for (const PauliZTerm& t : terms_) {
    const int parity = std::popcount(x & t.mask) & 1;
    acc += parity ? -t.coeff : t.coeff;
  }
  return acc;
}

DiagonalPauliOp DiagonalPauliOp::from_function(
    int num_qubits, const std::function<double(std::uint64_t)>& f, double tol) {
  QDB_REQUIRE(num_qubits >= 1 && num_qubits <= 20, "expansion supports 1..20 qubits");
  const std::size_t dim = std::size_t{1} << num_qubits;

  // In-place Walsh-Hadamard transform of the diagonal values: after the
  // transform, entry `mask` holds 2^n * c_mask.
  std::vector<double> v(dim);
  for (std::size_t x = 0; x < dim; ++x) v[x] = f(x);
  for (std::size_t len = 1; len < dim; len <<= 1) {
    for (std::size_t i = 0; i < dim; i += len << 1) {
      for (std::size_t j = i; j < i + len; ++j) {
        const double a = v[j];
        const double b = v[j + len];
        v[j] = a + b;
        v[j + len] = a - b;
      }
    }
  }

  DiagonalPauliOp op(num_qubits);
  const double scale = 1.0 / static_cast<double>(dim);
  for (std::size_t mask = 0; mask < dim; ++mask) {
    const double c = v[mask] * scale;
    if (std::abs(c) > tol) op.terms_.push_back({mask, c});
  }
  return op;
}

}  // namespace qdb
