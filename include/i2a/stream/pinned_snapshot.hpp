#pragma once
/// \file stream/pinned_snapshot.hpp
/// \brief Epoch-pinned, immutable view of a streaming builder's run-set:
///        the reader half of the concurrent serving core.
///
/// A `PinnedSnapshot` is what `AdjacencyBuilder::snapshot()` hands a
/// query thread: the refcounted set of immutable CSR runs that were live
/// at pin time (oldest first), plus the batch count they cover — its
/// *epoch*. Pinning is O(live runs) shared_ptr copies under a lock held
/// for pointer copies only; after that the reader touches no builder
/// state and takes no locks ever again. The writer keeps appending and
/// compacting; runs it retires stay alive exactly until the last
/// snapshot pinning them is destroyed (the shared_ptr refcount IS the
/// epoch drain — RCU-style reclamation with no grace-period machinery).
///
/// Two read paths:
///
///   * `materialize()` — one k-way ⊕-merge (sparse/merge.hpp) of the
///     pinned runs into a standalone CSR, byte-identical to what a
///     serial rebuild over the covered batch prefix would produce. Right
///     for algorithms that sweep all rows repeatedly (PageRank,
///     triangles).
///   * `fold_row()` / `for_each_in_row()` — merge one row across the
///     pinned runs on the fly with the same cursor-frontier kernel the
///     materializing merge uses, emitting (column, ⊕-folded value) in
///     strictly increasing column order. Right for traversal algorithms
///     that touch a sparse subset of rows (BFS) — no O(nnz) copy, no
///     lock, no writer interaction.
///
/// Both paths fold equal columns in run order = batch-age order, so a
/// snapshot is semantically exactly the adjacency array of the batch
/// prefix it pins (Theorem II.1 applied to the concatenation of those
/// batches; the ⊕-regrouping across runs is sound because ⊕ is
/// associative — the `Semiring` contract the builder already requires).

#include <cstdint>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/types.hpp"
#include "sparse/csr.hpp"
#include "sparse/merge.hpp"
#include "util/thread_pool.hpp"

namespace i2a::stream {

template <typename P>
  requires algebra::Semiring<P>
class PinnedSnapshot {
 public:
  using value_type = typename P::value_type;
  /// Reusable cursor scratch for `fold_row` — allocate once per reader,
  /// pass to every row fold (the BFS port does exactly this).
  using RowScratch = sparse::detail::MergeScratch<value_type>;

  /// Pins `runs` (oldest first; all shape n × n). Built by
  /// `AdjacencyBuilder::snapshot()`; public so tests and custom serving
  /// layers can assemble run-sets of their own. `pending_error` is the
  /// builder's oldest undelivered background-compaction failure at pin
  /// time, if any (see `pending_error()`).
  PinnedSnapshot(index_t num_vertices, P p, std::uint64_t batches,
                 std::vector<std::shared_ptr<const sparse::Csr<value_type>>>
                     runs,
                 std::exception_ptr pending_error = nullptr)
      : n_(num_vertices), p_(std::move(p)), batches_(batches),
        owners_(std::move(runs)), pending_error_(std::move(pending_error)) {
    ptrs_.reserve(owners_.size());
    for (const auto& r : owners_) ptrs_.push_back(r.get());
  }

  index_t num_vertices() const { return n_; }
  /// The epoch: how many ingested batches (empty ones included) this
  /// snapshot covers — its contents are exactly the ⊕-fold of batches
  /// [0, batches()).
  std::uint64_t batches() const { return batches_; }
  std::size_t num_runs() const { return owners_.size(); }
  bool empty() const { return owners_.empty(); }
  const P& pair() const { return p_; }

  /// Observability for degraded snapshots: the oldest background-merge
  /// failure the builder had not yet delivered when this snapshot was
  /// pinned, or nullptr. A *peek*, not a consume — the writer still
  /// receives the failure exactly once through `drain()`/`ingest()`; the
  /// snapshot itself is always valid and readable (its runs cover the
  /// full ingested prefix; only compaction — freshness of the run
  /// *layout*, not of the data — is behind). Readers that care can
  /// `std::rethrow_exception` it or merely flag degraded service.
  const std::exception_ptr& pending_error() const { return pending_error_; }

  RowScratch row_scratch() const { return RowScratch{}; }

  /// Merge row `r` across the pinned runs and call `emit(col, value)`
  /// once per stored column, strictly increasing, values ⊕-folded in
  /// batch-age order. Lock-free; safe from any number of threads as long
  /// as each uses its own `scratch`.
  template <typename Emit>
  void fold_row(index_t r, RowScratch& scratch, const Emit& emit) const {
    if (ptrs_.empty()) return;
    sparse::detail::merge_row_k(
        ptrs_, r, scratch,
        [this](const value_type& x, const value_type& y) {
          return p_.add(x, y);
        },
        true, emit);
  }

  /// Convenience `fold_row` with throwaway scratch — fine for one-off
  /// probes; traversal loops should hold a `RowScratch` instead.
  template <typename Emit>
  void for_each_in_row(index_t r, const Emit& emit) const {
    RowScratch scratch;
    fold_row(r, scratch, emit);
  }

  /// One k-way ⊕-merge of the pinned runs into a standalone CSR —
  /// byte-identical to a serial rebuild over the covered batch prefix
  /// (pool-size invariant, pinned by test_serve / test_stream).
  sparse::Csr<value_type> materialize(util::ThreadPool* pool = nullptr) const {
    if (ptrs_.empty()) {
      return sparse::Csr<value_type>(
          n_, n_, std::vector<index_t>(static_cast<std::size_t>(n_) + 1, 0),
          {}, {});
    }
    return sparse::merge_add_k(
        ptrs_,
        [this](const value_type& x, const value_type& y) {
          return p_.add(x, y);
        },
        pool);
  }

 private:
  index_t n_;
  P p_;
  std::uint64_t batches_;
  /// The pins: each handle keeps its run alive past any writer-side
  /// retirement until this snapshot drops.
  std::vector<std::shared_ptr<const sparse::Csr<value_type>>> owners_;
  std::vector<const sparse::Csr<value_type>*> ptrs_;  ///< parallel to owners_
  std::exception_ptr pending_error_;  ///< peeked builder failure, if any
};

}  // namespace i2a::stream
