/// \file test_construction_differential.cpp
/// \brief The sort-free assembly engine must be indistinguishable from
///        the stable-sort reference: `Csr::from_coo` vs
///        `from_coo_reference` (tests/reference_oracles.hpp) across
///        every `DupPolicy`, on inputs with heavy duplicates, shuffled
///        order, empty rows, and empty matrices — serial and under
///        pools {1, 4}, compared bitwise
///        (both fold a (row, col) group's duplicates in push order, so
///        even FP kSum must agree bit for bit). The direct incidence
///        assembly is likewise pinned to the old COO + reference path.

#include <cstdint>
#include <utility>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "reference_oracles.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

/// Byte-identical: full-precision == on every component vector.
bool identical(const sparse::Csr<double>& a, const sparse::Csr<double>& b) {
  return i2a::test::csr_bitwise_equal(a, b);
}

constexpr sparse::DupPolicy kPolicies[] = {
    sparse::DupPolicy::kSum, sparse::DupPolicy::kKeepFirst,
    sparse::DupPolicy::kKeepLast, sparse::DupPolicy::kMax,
    sparse::DupPolicy::kMin};

/// Check new engine == reference for one COO recipe, across every policy
/// and pool size (reference is serial-only by design). `make` builds a
/// fresh buffer per call because assembly consumes it.
template <typename MakeCoo>
void check_against_reference(const MakeCoo& make) {
  util::ThreadPool pool1(1), pool4(4);
  for (const auto policy : kPolicies) {
    const auto ref = test::from_coo_reference(make(), policy);
    CHECK(identical(sparse::Csr<double>::from_coo(make(), policy), ref));
    CHECK(identical(sparse::Csr<double>::from_coo(make(), policy, &pool1),
                    ref));
    CHECK(identical(sparse::Csr<double>::from_coo(make(), policy, &pool4),
                    ref));
    CHECK(ref.is_canonical());
  }
}

void test_heavy_duplicates() {
  // 12x9 grid, 900 entries: every cell collides many times over, random
  // full-precision reals so fold-order slips would flip bits.
  check_against_reference([] {
    util::Xoshiro256 rng(101);
    sparse::Coo<double> coo(12, 9);
    coo.reserve(900);
    for (int k = 0; k < 900; ++k) {
      coo.push(rng.between(0, 11), rng.between(0, 8), rng.uniform(-5.0, 5.0));
    }
    return coo;
  });
}

void test_shuffled_order() {
  // Entries generated row-major then Fisher–Yates shuffled: exercises
  // the scatter on maximally out-of-order input, duplicates included.
  check_against_reference([] {
    util::Xoshiro256 rng(202);
    sparse::Coo<double> coo(40, 33);
    coo.reserve(700);
    for (int k = 0; k < 700; ++k) {
      coo.push(rng.between(0, 39), rng.between(0, 32), rng.uniform(0.1, 9.9));
    }
    auto& e = coo.entries();
    util::Xoshiro256 shuf(203);
    for (std::size_t i = e.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(shuf.between(0, static_cast<index_t>(i) - 1));
      std::swap(e[i - 1], e[j]);
    }
    return coo;
  });
}

void test_empty_rows_and_tail() {
  // Tall matrix, entries confined to a few interior rows: leading,
  // interior, and trailing empty rows all get correct (equal) pointers.
  check_against_reference([] {
    util::Xoshiro256 rng(303);
    sparse::Coo<double> coo(64, 8);
    coo.reserve(120);
    const index_t rows[] = {5, 6, 31, 62};
    for (int k = 0; k < 120; ++k) {
      coo.push(rows[rng.between(0, 3)], rng.between(0, 7),
               rng.uniform(0.5, 2.5));
    }
    return coo;
  });
}

void test_empty_and_tiny_matrices() {
  check_against_reference([] { return sparse::Coo<double>(0, 0); });
  check_against_reference([] { return sparse::Coo<double>(17, 23); });
  check_against_reference([] {
    sparse::Coo<double> coo(1, 1);
    coo.push(0, 0, 4.5);
    return coo;
  });
  // One row, all entries duplicated onto two columns in push order the
  // policies must respect.
  check_against_reference([] {
    sparse::Coo<double> coo(1, 4);
    const double vals[] = {3.0, -1.0, 2.0, 7.0, -4.0, 0.5};
    for (int k = 0; k < 6; ++k) coo.push(0, k % 2, vals[k]);
    return coo;
  });
}

void test_already_sorted_fast_path() {
  // Strictly increasing, duplicate-free input takes the zero-copy exit;
  // it must still equal the reference exactly.
  check_against_reference([] {
    sparse::Coo<double> coo(10, 10);
    for (index_t r = 0; r < 10; ++r) {
      for (index_t c = r % 3; c < 10; c += 3) {
        coo.push(r, c, static_cast<double>(r * 10 + c) + 0.25);
      }
    }
    return coo;
  });
}

/// The old incidence assembly, reconstructed as an oracle: stage through
/// COO, assemble with the reference engine.
template <typename Draw>
graph::IncidencePair<double> incidence_via_reference(const graph::Graph& g,
                                                     const Draw& draw) {
  sparse::Coo<double> out(g.num_edges(), g.num_vertices());
  sparse::Coo<double> in(g.num_edges(), g.num_vertices());
  const auto& edges = g.edges();
  for (index_t e = 0; e < g.num_edges(); ++e) {
    out.push(e, edges[static_cast<std::size_t>(e)].src, draw(e, true));
    in.push(e, edges[static_cast<std::size_t>(e)].dst, draw(e, false));
  }
  return graph::IncidencePair<double>{
      test::from_coo_reference(std::move(out), sparse::DupPolicy::kKeepFirst),
      test::from_coo_reference(std::move(in), sparse::DupPolicy::kKeepFirst)};
}

void test_incidence_direct_vs_reference() {
  util::ThreadPool pool1(1), pool4(4);
  util::Xoshiro256 rng(404);
  const algebra::PlusTimes<double> p;
  for (int t = 0; t < 10; ++t) {
    // Multigraphs with parallel edges, self-loops, isolated vertices —
    // plus the empty graph and the edgeless graph.
    const auto g = t == 0 ? graph::Graph(0)
                   : t == 1
                       ? graph::Graph(5)
                       : graph::gen::random_multigraph(
                             rng.between(2, 12), rng.between(1, 40), rng.next());
    const auto unit = [](index_t, bool) { return 1.0; };
    const auto ref = incidence_via_reference(g, unit);
    for (util::ThreadPool* pool :
         {static_cast<util::ThreadPool*>(nullptr), &pool1, &pool4}) {
      const auto inc = graph::incidence_arrays(g, p, pool);
      CHECK(identical(inc.eout, ref.eout));
      CHECK(identical(inc.ein, ref.ein));
      CHECK(inc.eout.is_canonical() && inc.ein.is_canonical());
    }
  }
}

void test_weighted_incidence_direct_vs_reference() {
  util::ThreadPool pool4(4);
  util::Xoshiro256 rng(505);
  const algebra::MinPlus<double> p;
  for (int t = 0; t < 5; ++t) {
    auto g = graph::gen::random_multigraph(rng.between(2, 10),
                                           rng.between(1, 30), rng.next());
    graph::gen::randomize_weights(g, 0.25, 4.0, rng.next());
    const auto& edges = g.edges();
    const auto draw = [&](index_t e, bool is_out) {
      return is_out ? p.one() : edges[static_cast<std::size_t>(e)].weight;
    };
    const auto ref = incidence_via_reference(g, draw);
    const auto serial = graph::weighted_incidence_arrays(g, p);
    const auto pooled = graph::weighted_incidence_arrays(g, p, &pool4);
    CHECK(identical(serial.eout, ref.eout));
    CHECK(identical(serial.ein, ref.ein));
    CHECK(identical(pooled.eout, ref.eout));
    CHECK(identical(pooled.ein, ref.ein));
  }
}

void test_coo_reserve() {
  sparse::Coo<double> coo(4, 4);
  coo.reserve(16);
  const auto cap = coo.entries().capacity();
  CHECK(cap >= 16);
  for (int k = 0; k < 16; ++k) coo.push(k % 4, k / 4, 1.0);
  CHECK_EQ(coo.entries().capacity(), cap);  // no reallocation after reserve
  CHECK_EQ(coo.nnz(), 16u);
}

}  // namespace

int main() {
  test_heavy_duplicates();
  test_shuffled_order();
  test_empty_rows_and_tail();
  test_empty_and_tiny_matrices();
  test_already_sorted_fast_path();
  test_incidence_direct_vs_reference();
  test_weighted_incidence_direct_vs_reference();
  test_coo_reserve();
  return TEST_MAIN_RESULT();
}
