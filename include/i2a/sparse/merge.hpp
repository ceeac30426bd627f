#pragma once
/// \file sparse/merge.hpp
/// \brief Parallel semiring CSR ⊕-merge: fold k same-shape CSR arrays
///        into one, entrywise, with the caller's ⊕ — the kernel behind
///        streaming adjacency maintenance (stream/adjacency_builder.hpp).
///
/// The GraphBLAS framing (Kepner et al., 1606.05790) treats a sparse
/// update as ⊕-accumulation into an existing array: C = A ⊕ ΔA. When ⊕
/// is the fold of a conforming operator pair (Theorem II.1's hypothesis)
/// the merged array is exactly the adjacency array of the concatenated
/// edge lists, because the theorem's fold over parallel edges is
/// associative — folding per batch and then folding the folds is the
/// same as folding everything at once. The merge itself never needs ⊗:
/// each input row is already a folded adjacency row, so only ⊕ appears.
///
/// Engine shape — the same two-pass scheme as the SpGEMM and assembly
/// engines (sparse/spgemm.hpp, sparse/csr.hpp):
///
///   1. **count** — row chunks walk the k sorted input rows with a
///      cursor frontier (chunk-id-indexed scratch reused across both
///      passes via `ThreadPool::parallel_for_chunks`) and record each
///      output row's merged size;
///   2. **stitch** — one serial prefix sum turns the counts into the
///      final row pointer;
///   3. **scatter + fold** — the same chunk decomposition re-walks the
///      cursors and writes every merged entry straight into its final
///      slot, folding equal columns with ⊕ in *run order* (runs[0]
///      first). Run order is how callers encode batch age, which is what
///      keeps a non-commutative or FP ⊕ bitwise-reproducible.
///
/// Every row lands at a prefix-sum-determined offset and each row's
/// merge is independent and deterministic, so the output is
/// byte-identical across pool sizes (serial included). Exceptions thrown
/// by ⊕ in a worker chunk propagate to the caller (the pool captures and
/// rethrows the first one); the partially built output is discarded.
///
/// Definition I.5 (stored zeros are absent) is an opt-in knob: passing
/// `drop_zero` omits output entries whose *folded* value equals the zero
/// element, so an explicit stored zero never survives a merge. The
/// default keeps all stored entries, matching what the SpGEMM engine
/// produces — for conforming pairs (zero-sum-free carrier) a fold of
/// nonzeros can never manufacture a zero, so the adjacency-maintenance
/// path needs no dropping to stay byte-identical to a full rebuild.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/types.hpp"
#include "sparse/csr.hpp"
#include "util/contract.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace i2a::sparse {

namespace detail {

/// Per-chunk cursor frontier for the k-way row merge, reused across every
/// row of the chunk and across the count and scatter passes (which index
/// it by the same chunk id).
template <typename T>
struct MergeScratch {
  std::vector<const index_t*> cols;  ///< run r's row cursor (cols)
  std::vector<const T*> vals;        ///< run r's row cursor (vals)
  std::vector<index_t> len;          ///< entries left in run r's row
};

/// Walk row `r` of all runs simultaneously and call
/// `emit(col, folded_value)` once per merged column, strictly increasing.
/// Folding visits runs in index order — runs[0] ⊕ runs[1] ⊕ … — which is
/// the age order callers rely on. `need_vals` lets the count pass skip
/// value reads entirely when no zero-dropping is requested.
template <typename T, typename Add, typename Emit>
void merge_row_k(const std::vector<const Csr<T>*>& runs, index_t r,
                 MergeScratch<T>& s, const Add& add, bool need_vals,
                 const Emit& emit) {
  const std::size_t k = runs.size();
  s.cols.resize(k);
  s.vals.resize(k);
  s.len.resize(k);
  index_t live = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const auto cs = runs[i]->row_cols(r);
    s.cols[i] = cs.data();
    s.vals[i] = runs[i]->row_vals(r).data();
    s.len[i] = static_cast<index_t>(cs.size());
    live += s.len[i];
  }
  while (live > 0) {
    // Frontier minimum: the next merged column.
    index_t mc = -1;
    for (std::size_t i = 0; i < k; ++i) {
      if (s.len[i] > 0 && (mc < 0 || *s.cols[i] < mc)) mc = *s.cols[i];
    }
    // Fold every run holding `mc`, oldest (lowest index) first.
    bool open = false;
    T acc{};
    for (std::size_t i = 0; i < k; ++i) {
      if (s.len[i] > 0 && *s.cols[i] == mc) {
        if (need_vals) {
          acc = open ? add(acc, *s.vals[i]) : *s.vals[i];
        }
        open = true;
        ++s.cols[i];
        ++s.vals[i];
        --s.len[i];
        --live;
      }
    }
    emit(mc, acc);
  }
}

}  // namespace detail

/// C = runs[0] ⊕ runs[1] ⊕ … ⊕ runs[k-1], entrywise, all runs the same
/// shape. `add(a, b)` is ⊕; equal columns fold in run order, so callers
/// encoding batch age as run order get the same fold a single-shot build
/// would perform. `drop_zero`, when non-null, omits output entries whose
/// folded value equals `*drop_zero` (Definition I.5). Output is
/// byte-identical across pool sizes.
template <typename T, typename Add>
Csr<T> merge_add_k(const std::vector<const Csr<T>*>& runs, const Add& add,
                   util::ThreadPool* pool = nullptr,
                   const T* drop_zero = nullptr) {
  if (runs.empty()) {
    throw std::invalid_argument("merge_add_k: no input runs");
  }
  const index_t nrows = runs[0]->nrows();
  const index_t ncols = runs[0]->ncols();
  for (const auto* m : runs) {
    if (m->nrows() != nrows || m->ncols() != ncols) {
      throw std::invalid_argument("merge_add_k: run shape mismatch");
    }
    I2A_EXPECTS(m->is_canonical(), "merge_add_k: input run not canonical");
  }
  const bool dropping = drop_zero != nullptr;
  if (runs.size() == 1 && !dropping) return *runs[0];  // fold of one

  const bool parallel = pool != nullptr && pool->size() > 1 && nrows > 0;
  const index_t nchunks =
      parallel ? pool->num_chunks(nrows) : (nrows > 0 ? 1 : 0);
  // Injection site: the count pass's scratch/frontier allocations. A
  // fire here leaves every input run untouched — the merge has produced
  // nothing yet (DESIGN.md §10).
  I2A_FAILPOINT("merge.count.scratch");
  std::vector<detail::MergeScratch<T>> scratch(
      static_cast<std::size_t>(nchunks));

  // Pass 1 (count): per-row merged sizes, written into row_ptr[r + 1]
  // (rows are disjoint across chunks, so no histograms are needed —
  // unlike the COO scatter, a row merge has exactly one producer). The
  // count only touches values when zero-dropping makes sizes
  // value-dependent — that path deliberately folds twice (once to size,
  // once to write) in exchange for exact sizing with no compaction
  // copy; the default no-drop path, the adjacency-maintenance hot path,
  // folds exactly once.
  std::vector<index_t> row_ptr(static_cast<std::size_t>(nrows) + 1, 0);
  detail::run_chunked(
      pool, parallel, nrows, [&](index_t chunk, index_t lo, index_t hi) {
        auto& s = scratch[static_cast<std::size_t>(chunk)];
        for (index_t r = lo; r < hi; ++r) {
          index_t cnt = 0;
          detail::merge_row_k(runs, r, s, add, dropping,
                              [&](index_t, const T& v) {
                                if (!dropping || !(v == *drop_zero)) ++cnt;
                              });
          row_ptr[static_cast<std::size_t>(r) + 1] = cnt;
        }
      });

  // Stitch: one serial prefix sum sizes the output exactly.
  for (index_t r = 0; r < nrows; ++r) {
    row_ptr[static_cast<std::size_t>(r) + 1] +=
        row_ptr[static_cast<std::size_t>(r)];
  }
  // Injection site: the scatter pass's output allocation — the largest
  // single allocation a compaction makes, so the canonical place an
  // out-of-memory failure lands mid-merge. A fire discards only the
  // partially built output; the input runs stay live and pinned.
  I2A_FAILPOINT("merge.scatter.alloc");
  std::vector<index_t> cols(static_cast<std::size_t>(row_ptr.back()));
  std::vector<T> vals(static_cast<std::size_t>(row_ptr.back()));

  // Pass 2 (scatter + fold): same chunk decomposition, same scratch,
  // entries written straight into their final slots.
  detail::run_chunked(
      pool, parallel, nrows, [&](index_t chunk, index_t lo, index_t hi) {
        auto& s = scratch[static_cast<std::size_t>(chunk)];
        for (index_t r = lo; r < hi; ++r) {
          auto w = static_cast<std::size_t>(
              row_ptr[static_cast<std::size_t>(r)]);
          detail::merge_row_k(runs, r, s, add, true,
                              [&](index_t c, const T& v) {
                                if (dropping && v == *drop_zero) return;
                                cols[w] = c;
                                vals[w] = v;
                                ++w;
                              });
          I2A_ASSERT(w == static_cast<std::size_t>(
                              row_ptr[static_cast<std::size_t>(r) + 1]),
                     "merge_add_k: scatter count disagrees with count pass");
        }
      });

  Csr<T> out(nrows, ncols, std::move(row_ptr), std::move(cols),
             std::move(vals));
  I2A_ENSURES(out.is_canonical(), "merge_add_k: non-canonical merge");
  return out;
}

/// Refcounted-run overload: the shape `PinnedSnapshot` and the ladder
/// hold runs in. The handles pin the runs for the duration of the merge;
/// the fold itself is identical to the raw-pointer overload.
// i2a-lint: allow(kernel-entry-expects): forwarding overload — the
// kernel-boundary contract is checked by the raw-pointer kernel it
// immediately calls.
template <typename T, typename Add>
Csr<T> merge_add_k(
    const std::vector<std::shared_ptr<const Csr<T>>>& runs, const Add& add,
    util::ThreadPool* pool = nullptr, const T* drop_zero = nullptr) {
  std::vector<const Csr<T>*> ptrs;
  ptrs.reserve(runs.size());
  for (const auto& r : runs) ptrs.push_back(r.get());
  return merge_add_k<T, Add>(ptrs, add, pool, drop_zero);
}

/// Two-run convenience: C = a ⊕ b (a folds first — a is the *older*
/// array when maintaining an adjacency).
template <typename T, typename Add>
Csr<T> merge_add(const Csr<T>& a, const Csr<T>& b, const Add& add,
                 util::ThreadPool* pool = nullptr,
                 const T* drop_zero = nullptr) {
  return merge_add_k(std::vector<const Csr<T>*>{&a, &b}, add, pool,
                     drop_zero);
}

/// Operator-pair convenience: ⊕ is `p.add`, the same fold Theorem II.1's
/// construction applies to parallel edges. Only the ⊕ contract is
/// required — a merge never touches ⊗ — so the constraint is
/// `CommutativeMonoidAdd`, not the full `Semiring`.
template <typename P>
  requires algebra::CommutativeMonoidAdd<P>
Csr<typename P::value_type> merge(
    const P& p, const Csr<typename P::value_type>& a,
    const Csr<typename P::value_type>& b, util::ThreadPool* pool = nullptr) {
  using T = typename P::value_type;
  return merge_add(
      a, b, [&p](const T& x, const T& y) { return p.add(x, y); }, pool);
}

}  // namespace i2a::sparse
