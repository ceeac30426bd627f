// MUST COMPILE — the positive control for the compile-fail suite.
// Identical shape to the negative cases but with a conforming pair, so a
// toolchain or include-path breakage (which would make *everything* fail
// to compile) cannot masquerade as six passing negative tests.

#include "algebra/pairs.hpp"
#include "sparse/csr.hpp"
#include "sparse/merge.hpp"
#include "sparse/spgemm.hpp"
#include "stream/adjacency_builder.hpp"

int main() {
  const i2a::algebra::PlusTimes<double> p;
  const i2a::sparse::Csr<double> a(1, 1, {0, 1}, {0}, {2.0});
  const auto c = i2a::sparse::spgemm(p, a, a);
  const auto m = i2a::sparse::merge(p, c, c);
  // Same shape as builder_rejects_non_semiring, conforming pair: the
  // streaming builder must be nameable and snapshot-servable.
  i2a::stream::AdjacencyBuilder<i2a::algebra::PlusTimes<double>> builder(4, p);
  const auto snap = builder.snapshot();
  return m.nnz() == 1 && snap.materialize().nnz() == 0 ? 0 : 1;
}
