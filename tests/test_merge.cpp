/// \file test_merge.cpp
/// \brief Differential + edge-case suite for the parallel semiring CSR
///        ⊕-merge (sparse/merge.hpp): every engine output is bitwise
///        -compared against `merge_add_reference` (a deliberately
///        independent concatenate/stable-sort/fold-left oracle in
///        tests/reference_oracles.hpp) across
///        pool sizes, and the Definition I.5 zero-dropping knob and the
///        exception-from-chunk semantics are pinned explicitly.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/merge.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "reference_oracles.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

using i2a::test::csr_bitwise_equal;

double plus(const double& a, const double& b) { return a + b; }

sparse::Csr<double> random_csr(index_t nr, index_t nc, index_t nnz,
                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sparse::Coo<double> coo(nr, nc);
  coo.reserve(static_cast<std::size_t>(nnz));
  for (index_t i = 0; i < nnz; ++i) {
    // Integer values keep FP + exact, so fold *order* differences would
    // still be caught while reassociation noise cannot hide them.
    coo.push(static_cast<index_t>(rng.next() % static_cast<std::uint64_t>(nr)),
             static_cast<index_t>(rng.next() % static_cast<std::uint64_t>(nc)),
             static_cast<double>(1 + rng.next() % 7));
  }
  return sparse::Csr<double>::from_coo(std::move(coo));
}

/// Engine vs oracle across pool sizes {serial, 1, 4, 8}, bitwise.
void check_matches_reference(const std::vector<const sparse::Csr<double>*>& runs,
                             const double* drop_zero = nullptr) {
  const auto expected = test::merge_add_reference(runs, plus, drop_zero);
  const auto serial = sparse::merge_add_k(runs, plus, nullptr, drop_zero);
  CHECK(csr_bitwise_equal(serial, expected));
  for (const std::size_t threads : {1u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    const auto got = sparse::merge_add_k(runs, plus, &pool, drop_zero);
    CHECK(csr_bitwise_equal(got, expected));
  }
}

void test_empty_delta() {
  const auto master = random_csr(40, 40, 120, 1);
  const sparse::Csr<double> empty(
      40, 40, std::vector<index_t>(41, 0), {}, {});
  check_matches_reference({&master, &empty});
  check_matches_reference({&empty, &master});
  check_matches_reference({&empty, &empty});
  // Merging an empty delta is the identity, bit for bit.
  util::ThreadPool pool(4);
  CHECK(csr_bitwise_equal(sparse::merge_add(master, empty, plus, &pool), master));
}

void test_disjoint_delta() {
  // Master in columns [0, 20), delta in columns [20, 40): pure
  // interleave, ⊕ never fires.
  sparse::Coo<double> ca(30, 40), cb(30, 40);
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 100; ++i) {
    ca.push(static_cast<index_t>(rng.next() % 30),
            static_cast<index_t>(rng.next() % 20), 2.0);
    cb.push(static_cast<index_t>(rng.next() % 30),
            static_cast<index_t>(20 + rng.next() % 20), 3.0);
  }
  const auto a = sparse::Csr<double>::from_coo(std::move(ca));
  const auto b = sparse::Csr<double>::from_coo(std::move(cb));
  check_matches_reference({&a, &b});
  const auto merged = sparse::merge_add(a, b, plus);
  CHECK_EQ(merged.nnz(), a.nnz() + b.nnz());
}

void test_fully_overlapping_delta() {
  // Identical patterns: every entry folds, nnz stays put, values double.
  const auto a = random_csr(25, 25, 200, 9);
  check_matches_reference({&a, &a});
  const auto merged = sparse::merge_add(a, a, plus);
  CHECK_EQ(merged.nnz(), a.nnz());
  for (index_t r = 0; r < a.nrows(); ++r) {
    const auto mv = merged.row_vals(r);
    const auto av = a.row_vals(r);
    for (std::size_t k = 0; k < mv.size(); ++k) {
      CHECK_EQ(mv[k], 2 * av[k]);
    }
  }
}

void test_kway_random() {
  // The ladder's shape: several runs of very different sizes, merged in
  // one k-way pass, against the oracle, all pool sizes.
  std::vector<sparse::Csr<double>> owned;
  owned.push_back(random_csr(60, 50, 400, 21));
  owned.push_back(random_csr(60, 50, 100, 22));
  owned.push_back(random_csr(60, 50, 25, 23));
  owned.push_back(random_csr(60, 50, 7, 24));
  owned.push_back(sparse::Csr<double>(
      60, 50, std::vector<index_t>(61, 0), {}, {}));
  std::vector<const sparse::Csr<double>*> runs;
  for (const auto& m : owned) runs.push_back(&m);
  check_matches_reference(runs);
  // Fold order is run order: with a non-commutative ⊕ (keep-right),
  // permuting the runs must change the bytes exactly as the oracle says.
  const auto keep_right = [](const double&, const double& y) { return y; };
  std::vector<const sparse::Csr<double>*> reversed(runs.rbegin(),
                                                   runs.rend());
  const auto fwd = sparse::merge_add_k(runs, keep_right);
  const auto rev = sparse::merge_add_k(reversed, keep_right);
  CHECK(csr_bitwise_equal(fwd, test::merge_add_reference(runs, keep_right)));
  CHECK(csr_bitwise_equal(rev,
                          test::merge_add_reference(reversed, keep_right)));
}

void test_explicit_zero_entries() {
  // Definition I.5: with the drop_zero knob, stored zeros are absent from
  // the output — whether they were stored in an input or manufactured by
  // the fold (+1 ⊕ -1).
  sparse::Coo<double> ca(4, 4), cb(4, 4);
  ca.push(0, 0, 0.0);   // stored zero, unmatched: dropped
  ca.push(0, 1, 1.0);   // survives
  ca.push(1, 2, 1.0);   // +1 ⊕ -1 → 0: dropped
  ca.push(2, 3, 2.0);   // survives, folded with 3.0
  cb.push(1, 2, -1.0);
  cb.push(2, 3, 3.0);
  cb.push(3, 3, 0.0);   // stored zero in the delta: dropped
  const auto a = sparse::Csr<double>::from_coo(std::move(ca));
  const auto b = sparse::Csr<double>::from_coo(std::move(cb));
  const double zero = 0.0;
  check_matches_reference({&a, &b}, &zero);
  const auto merged = sparse::merge_add(a, b, plus, nullptr, &zero);
  CHECK_EQ(merged.nnz(), 2);
  CHECK_EQ(merged.at(0, 1, -1.0), 1.0);
  CHECK_EQ(merged.at(2, 3, -1.0), 5.0);
  CHECK_EQ(merged.at(0, 0, -1.0), -1.0);  // absent, not stored-zero
  CHECK_EQ(merged.at(1, 2, -1.0), -1.0);
  CHECK_EQ(merged.at(3, 3, -1.0), -1.0);
  CHECK(merged.is_canonical());
  // Without the knob every stored entry survives, zeros included — the
  // byte-compatible default for SpGEMM-produced inputs.
  const auto kept = sparse::merge_add(a, b, plus);
  CHECK_EQ(kept.nnz(), 5);
  CHECK_EQ(kept.at(0, 0, -1.0), 0.0);
  CHECK_EQ(kept.at(1, 2, -1.0), 0.0);
}

void test_exception_from_chunk() {
  // ⊕ throwing inside a worker chunk must surface on the caller, under
  // every pool size, for both the value-reading count pass (drop_zero
  // set) and the scatter pass.
  const auto a = random_csr(64, 32, 300, 31);
  const auto b = random_csr(64, 32, 300, 32);
  struct Boom {};
  const auto throwing = [](const double&, const double&) -> double {
    throw Boom{};
  };
  const double zero = 0.0;
  for (const double* dz : {static_cast<const double*>(nullptr), &zero}) {
    bool threw = false;
    try {
      (void)sparse::merge_add(a, b, throwing, nullptr, dz);
    } catch (const Boom&) {
      threw = true;
    }
    CHECK(threw);
    for (const std::size_t threads : {2u, 8u}) {
      util::ThreadPool pool(threads);
      threw = false;
      try {
        (void)sparse::merge_add(a, b, throwing, &pool, dz);
      } catch (const Boom&) {
        threw = true;
      }
      CHECK(threw);
      // The pool must remain serviceable after capturing the throw.
      const auto ok = sparse::merge_add(a, b, plus, &pool);
      CHECK(csr_bitwise_equal(
          ok, test::merge_add_reference<double>({&a, &b}, plus)));
    }
  }
}

void test_shape_mismatch_rejected() {
  const auto a = random_csr(10, 10, 20, 41);
  const auto b = random_csr(10, 11, 20, 42);
  bool threw = false;
  try {
    (void)sparse::merge_add(a, b, plus);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    (void)sparse::merge_add_k(std::vector<const sparse::Csr<double>*>{},
                              plus);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_zero_row_matrices() {
  const sparse::Csr<double> a(0, 5, {0}, {}, {});
  const sparse::Csr<double> b(0, 5, {0}, {}, {});
  util::ThreadPool pool(4);
  const auto merged = sparse::merge_add(a, b, plus, &pool);
  CHECK_EQ(merged.nrows(), 0);
  CHECK_EQ(merged.nnz(), 0);
}

}  // namespace

int main() {
  test_empty_delta();
  test_disjoint_delta();
  test_fully_overlapping_delta();
  test_kway_random();
  test_explicit_zero_entries();
  test_exception_from_chunk();
  test_shape_mismatch_rejected();
  test_zero_row_matrices();
  return TEST_MAIN_RESULT();
}
