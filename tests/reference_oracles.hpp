#pragma once
/// \file reference_oracles.hpp
/// \brief Deliberately simple serial oracles for the differential
///        suites. They share no code with the engines they check: the
///        library's parallel two-pass `Csr::from_coo` and k-way
///        `merge_add_k` must match them bit for bit.

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace i2a::test {

/// Serial stable-sort COO→CSR assembly (the engine before the sort-free
/// rewrite). Semantically identical to `Csr::from_coo` — including
/// bitwise-identical FP kSum folds, since both visit a (row, col)
/// group's duplicates in push order.
template <typename T>
sparse::Csr<T> from_coo_reference(sparse::Coo<T> coo,
                                  sparse::DupPolicy policy =
                                      sparse::DupPolicy::kSum) {
  auto& e = coo.entries();
  // Stable sort keeps push order within a (row, col) group, which is
  // what gives kKeepFirst / kKeepLast their meaning.
  std::stable_sort(e.begin(), e.end(), [](const auto& a, const auto& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  std::vector<index_t> row_ptr(static_cast<std::size_t>(coo.nrows()) + 1, 0);
  std::vector<index_t> cols;
  std::vector<T> vals;
  cols.reserve(e.size());
  vals.reserve(e.size());
  for (std::size_t i = 0; i < e.size();) {
    const index_t r = e[i].row;
    const index_t c = e[i].col;
    assert(r >= 0 && r < coo.nrows() && c >= 0 && c < coo.ncols());
    T acc = e[i].val;
    std::size_t j = i + 1;
    for (; j < e.size() && e[j].row == r && e[j].col == c; ++j) {
      switch (policy) {
        case sparse::DupPolicy::kSum: acc = acc + e[j].val; break;
        case sparse::DupPolicy::kKeepFirst: break;
        case sparse::DupPolicy::kKeepLast: acc = e[j].val; break;
        case sparse::DupPolicy::kMax: acc = std::max(acc, e[j].val); break;
        case sparse::DupPolicy::kMin: acc = std::min(acc, e[j].val); break;
      }
    }
    cols.push_back(c);
    vals.push_back(acc);
    ++row_ptr[static_cast<std::size_t>(r) + 1];
    i = j;
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(coo.nrows()); ++r) {
    row_ptr[r + 1] += row_ptr[r];
  }
  return sparse::Csr<T>(coo.nrows(), coo.ncols(), std::move(row_ptr),
                        std::move(cols), std::move(vals));
}

/// Serial k-way ⊕-merge: per row, concatenate the runs' entries in run
/// order, stable sort by column, fold left. `drop_zero` mirrors the
/// engine's Definition I.5 knob.
template <typename T, typename Add>
sparse::Csr<T> merge_add_reference(
    const std::vector<const sparse::Csr<T>*>& runs, const Add& add,
    const T* drop_zero = nullptr) {
  if (runs.empty()) {
    throw std::invalid_argument("merge_add_reference: no input runs");
  }
  const index_t nrows = runs[0]->nrows();
  const index_t ncols = runs[0]->ncols();
  std::vector<index_t> row_ptr(static_cast<std::size_t>(nrows) + 1, 0);
  std::vector<index_t> cols;
  std::vector<T> vals;
  std::vector<std::pair<index_t, T>> buf;
  for (index_t r = 0; r < nrows; ++r) {
    buf.clear();
    for (const auto* m : runs) {
      const auto cs = m->row_cols(r);
      const auto vs = m->row_vals(r);
      for (std::size_t i = 0; i < cs.size(); ++i) {
        buf.emplace_back(cs[i], vs[i]);
      }
    }
    std::stable_sort(
        buf.begin(), buf.end(),
        [](const auto& x, const auto& y) { return x.first < y.first; });
    for (std::size_t i = 0; i < buf.size();) {
      T acc = buf[i].second;
      std::size_t j = i + 1;
      for (; j < buf.size() && buf[j].first == buf[i].first; ++j) {
        acc = add(acc, buf[j].second);
      }
      if (drop_zero == nullptr || !(acc == *drop_zero)) {
        cols.push_back(buf[i].first);
        vals.push_back(acc);
        ++row_ptr[static_cast<std::size_t>(r) + 1];
      }
      i = j;
    }
  }
  for (index_t r = 0; r < nrows; ++r) {
    row_ptr[static_cast<std::size_t>(r) + 1] +=
        row_ptr[static_cast<std::size_t>(r)];
  }
  return sparse::Csr<T>(nrows, ncols, std::move(row_ptr), std::move(cols),
                        std::move(vals));
}

}  // namespace i2a::test
