#pragma once
/// \file sparse/csr.hpp
/// \brief Compressed sparse row matrix, the workhorse storage for
///        incidence and adjacency arrays, plus sort-free COO→CSR assembly
///        with explicit duplicate policies and a parallel counting-sort
///        `transpose` / `CscView`.
///
/// Assembly engine (PR 3). `from_coo` no longer comparison-sorts the
/// entry list. It mirrors the two-pass SpGEMM design (sparse/spgemm.hpp):
///
///   1. **count** — entry chunks build per-chunk row histograms;
///   2. **stitch** — one serial sweep turns the histograms into the
///      row-grouped staging pointer and per-chunk write cursors such
///      that chunk c's entries for a row land after every earlier
///      chunk's (the stable-scatter invariant);
///   3. **scatter** — each chunk walks its slice in push order and
///      writes entries straight into their row group. A row's staged
///      entries therefore sit in *global push order* regardless of how
///      the list was chunked, so the final bytes are independent of
///      pool size (serial included);
///   4. **order + fold** — per row, a stable sort by column in
///      chunk-local scratch followed by `DupPolicy` folding, compacted
///      in place. Stability keeps push order within a (row, col) group,
///      which is what gives `kKeepFirst`/`kKeepLast` their meaning; the
///      fold visits duplicates in push order, so even FP `kSum` matches
///      the reference bit for bit. Rows already strictly increasing
///      (the common duplicate-free ordered case) cost one scan and skip
///      both the sort and the fold.
///
/// Everything is O(nnz + nrows) — no O(nnz log nnz) comparison sort
/// anywhere — and a duplicate-free input returns the staging arrays
/// without a final compaction copy. The old stable-sort path survives as
/// the test oracle `i2a::test::from_coo_reference`
/// (tests/reference_oracles.hpp).

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sparse/coo.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

namespace i2a::sparse {

/// What `from_coo` does when several pushed entries share one (row, col).
///
/// Incidence assembly mostly wants `kKeepFirst` (an edge endpoint has one
/// value); numeric accumulation wants `kSum`; the lattice semirings want
/// `kMax`/`kMin`.
enum class DupPolicy {
  kSum,        ///< combine duplicates with `+`
  kKeepFirst,  ///< first pushed entry wins
  kKeepLast,   ///< last pushed entry wins
  kMax,        ///< elementwise max
  kMin,        ///< elementwise min
};

namespace detail {

/// Shared fork/join driver: serial when no multi-thread pool is given,
/// chunked otherwise, with per-chunk scratch stable across passes (the
/// decomposition is a pure function of (n, pool->size())).
template <typename Body>
void run_chunked(util::ThreadPool* pool, bool parallel, index_t n,
                 const Body& body) {
  if (n <= 0) return;
  if (parallel) {
    pool->parallel_for_chunks(n, body);
  } else {
    body(0, 0, n);
  }
}

/// Turn per-chunk bucket histograms into write cursors plus the final
/// bucket pointer, in one serial sweep. On entry `hist[c][b]` holds the
/// number of items chunk `c` owns for bucket `b`; on exit it is chunk
/// `c`'s first write slot for bucket `b` — chunk c's items land after
/// every earlier chunk's, which is exactly the stable-scatter invariant —
/// and `ptr[b]` / `ptr[nbuckets]` are the bucket starts / grand total.
inline void stitch_bucket_cursors(std::vector<std::vector<index_t>>& hist,
                                  std::vector<index_t>& ptr,
                                  index_t nbuckets) {
  index_t total = 0;
  for (index_t b = 0; b < nbuckets; ++b) {
    ptr[static_cast<std::size_t>(b)] = total;
    for (auto& h : hist) {
      const index_t cnt = h[static_cast<std::size_t>(b)];
      h[static_cast<std::size_t>(b)] = total;
      total += cnt;
    }
  }
  ptr[static_cast<std::size_t>(nbuckets)] = total;
}

/// Fold one column-sorted (col, val) run into a compact (cols, vals)
/// prefix per `policy`; returns the deduplicated length. The input is in
/// push order within each equal-column group, so the fold's left-to-right
/// accumulation reproduces the stable-sort reference exactly (bitwise,
/// even for FP kSum).
template <typename T>
index_t fold_sorted_run(const std::vector<std::pair<index_t, T>>& run,
                        DupPolicy policy, index_t* cols, T* vals) {
  index_t w = 0;
  std::size_t i = 0;
  while (i < run.size()) {
    const index_t c = run[i].first;
    T acc = run[i].second;
    std::size_t j = i + 1;
    for (; j < run.size() && run[j].first == c; ++j) {
      switch (policy) {
        case DupPolicy::kSum: acc = acc + run[j].second; break;
        case DupPolicy::kKeepFirst: break;
        case DupPolicy::kKeepLast: acc = run[j].second; break;
        case DupPolicy::kMax: acc = std::max(acc, run[j].second); break;
        case DupPolicy::kMin: acc = std::min(acc, run[j].second); break;
      }
    }
    cols[static_cast<std::size_t>(w)] = c;
    vals[static_cast<std::size_t>(w)] = acc;
    ++w;
    i = j;
  }
  return w;
}

}  // namespace detail

template <typename T>
class Csr {
 public:
  Csr() : nrows_(0), ncols_(0), row_ptr_{0} {}

  Csr(index_t nrows, index_t ncols, std::vector<index_t> row_ptr,
      std::vector<index_t> cols, std::vector<T> vals)
      : nrows_(nrows),
        ncols_(ncols),
        row_ptr_(std::move(row_ptr)),
        cols_(std::move(cols)),
        vals_(std::move(vals)) {
    assert(row_ptr_.size() == static_cast<std::size_t>(nrows_) + 1);
    assert(cols_.size() == vals_.size());
  }

  /// Group + order + deduplicate + compress a COO buffer via the
  /// sort-free count/stitch/scatter/fold engine (file comment above).
  /// Column indices within each row come out strictly increasing, and
  /// the output is byte-identical for every pool size, serial included.
  static Csr from_coo(Coo<T> coo, DupPolicy policy = DupPolicy::kSum,
                      util::ThreadPool* pool = nullptr) {
    const auto& e = coo.entries();
    const index_t nrows = coo.nrows();
    const index_t nnz = static_cast<index_t>(e.size());
    std::vector<index_t> row_ptr(static_cast<std::size_t>(nrows) + 1, 0);
    if (nnz == 0) {
      return Csr(nrows, coo.ncols(), std::move(row_ptr), {}, {});
    }
    const bool parallel = pool != nullptr && pool->size() > 1;
    // Chunking passes 1–2 costs an nrows-sized histogram per chunk plus
    // an O(nrows * nchunks) stitch, which only pays when entries
    // dominate rows — for a hypersparse tall buffer (nnz << nrows) the
    // histograms would dwarf the scatter they organize, so those passes
    // run single-chunk there (pass 3 chunks over rows either way). The
    // staged layout is chunking-invariant, so the policy never changes
    // the bytes.
    const bool scatter_parallel = parallel && nnz >= nrows;
    const index_t echunks = scatter_parallel ? pool->num_chunks(nnz) : 1;

    // Pass 1 (count): per-chunk row histograms over the entry slices.
    std::vector<std::vector<index_t>> hist(
        static_cast<std::size_t>(echunks));
    detail::run_chunked(
        pool, scatter_parallel, nnz,
        [&](index_t chunk, index_t lo, index_t hi) {
          auto& h = hist[static_cast<std::size_t>(chunk)];
          h.assign(static_cast<std::size_t>(nrows), 0);
          for (index_t i = lo; i < hi; ++i) {
            const auto& en = e[static_cast<std::size_t>(i)];
            assert(en.row >= 0 && en.row < nrows && en.col >= 0 &&
                   en.col < coo.ncols());
            ++h[static_cast<std::size_t>(en.row)];
          }
        });

    // Stitch: histograms → staging row pointer + per-chunk cursors.
    detail::stitch_bucket_cursors(hist, row_ptr, nrows);

    // Pass 2 (stable scatter): push order within each row is preserved
    // globally (chunk cursors start after every earlier chunk's share).
    std::vector<index_t> cols(static_cast<std::size_t>(nnz));
    std::vector<T> vals(static_cast<std::size_t>(nnz));
    detail::run_chunked(
        pool, scatter_parallel, nnz,
        [&](index_t chunk, index_t lo, index_t hi) {
          auto& cur = hist[static_cast<std::size_t>(chunk)];
          for (index_t i = lo; i < hi; ++i) {
            const auto& en = e[static_cast<std::size_t>(i)];
            const auto slot = static_cast<std::size_t>(
                cur[static_cast<std::size_t>(en.row)]++);
            cols[slot] = en.col;
            vals[slot] = en.val;
          }
        });

    // Pass 3 (order + fold): per-row stable sort by column in
    // chunk-local scratch, DupPolicy folding compacted in place.
    // Already-strictly-increasing rows skip both.
    const index_t rchunks = parallel ? pool->num_chunks(nrows) : 1;
    std::vector<std::vector<std::pair<index_t, T>>> scratch(
        static_cast<std::size_t>(rchunks));
    std::vector<index_t> out_nnz(static_cast<std::size_t>(nrows), 0);
    detail::run_chunked(
        pool, parallel, nrows, [&](index_t chunk, index_t lo, index_t hi) {
          auto& buf = scratch[static_cast<std::size_t>(chunk)];
          for (index_t r = lo; r < hi; ++r) {
            const auto b = static_cast<std::size_t>(
                row_ptr[static_cast<std::size_t>(r)]);
            const auto len = static_cast<std::size_t>(
                row_ptr[static_cast<std::size_t>(r) + 1] -
                row_ptr[static_cast<std::size_t>(r)]);
            bool sorted_unique = true;
            for (std::size_t k = 1; k < len; ++k) {
              if (cols[b + k - 1] >= cols[b + k]) {
                sorted_unique = false;
                break;
              }
            }
            if (sorted_unique) {
              out_nnz[static_cast<std::size_t>(r)] =
                  static_cast<index_t>(len);
              continue;
            }
            buf.clear();
            for (std::size_t k = 0; k < len; ++k) {
              buf.emplace_back(cols[b + k], vals[b + k]);
            }
            std::stable_sort(
                buf.begin(), buf.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
            out_nnz[static_cast<std::size_t>(r)] = detail::fold_sorted_run(
                buf, policy, cols.data() + b, vals.data() + b);
          }
        });

    // Stitch 2 + compaction. A duplicate-free input is already laid out
    // exactly right — hand the staging arrays straight out.
    index_t total = 0;
    for (index_t r = 0; r < nrows; ++r) {
      total += out_nnz[static_cast<std::size_t>(r)];
    }
    if (total == nnz) {
      Csr out(nrows, coo.ncols(), std::move(row_ptr), std::move(cols),
              std::move(vals));
      I2A_ENSURES(out.is_canonical(), "from_coo: non-canonical CSR");
      return out;
    }
    std::vector<index_t> fptr(static_cast<std::size_t>(nrows) + 1, 0);
    for (index_t r = 0; r < nrows; ++r) {
      fptr[static_cast<std::size_t>(r) + 1] =
          fptr[static_cast<std::size_t>(r)] +
          out_nnz[static_cast<std::size_t>(r)];
    }
    std::vector<index_t> fcols(static_cast<std::size_t>(total));
    std::vector<T> fvals(static_cast<std::size_t>(total));
    detail::run_chunked(
        pool, parallel, nrows, [&](index_t, index_t lo, index_t hi) {
          for (index_t r = lo; r < hi; ++r) {
            const auto src = static_cast<std::size_t>(
                row_ptr[static_cast<std::size_t>(r)]);
            const auto dst = static_cast<std::size_t>(
                fptr[static_cast<std::size_t>(r)]);
            const auto cnt = static_cast<std::size_t>(
                out_nnz[static_cast<std::size_t>(r)]);
            std::copy(cols.begin() + src, cols.begin() + src + cnt,
                      fcols.begin() + dst);
            std::copy(vals.begin() + src, vals.begin() + src + cnt,
                      fvals.begin() + dst);
          }
        });
    Csr out(nrows, coo.ncols(), std::move(fptr), std::move(fcols),
            std::move(fvals));
    I2A_ENSURES(out.is_canonical(), "from_coo: non-canonical CSR");
    return out;
  }

  /// Validating factory: like the raw constructor but rejects malformed
  /// input with `std::invalid_argument` instead of trusting the caller.
  /// Use at ingestion boundaries; the kernels assume canonical CSR (the
  /// SpGEMM symbolic pass sizes rows by it, the heap merge and `at`'s
  /// binary search require sorted columns).
  static Csr checked(index_t nrows, index_t ncols,
                     std::vector<index_t> row_ptr, std::vector<index_t> cols,
                     std::vector<T> vals) {
    if (const char* why =
            invariant_violation(nrows, ncols, row_ptr, cols, vals.size())) {
      throw std::invalid_argument(std::string("Csr::checked: ") + why);
    }
    return Csr(nrows, ncols, std::move(row_ptr), std::move(cols),
               std::move(vals));
  }

  /// True iff the storage satisfies every invariant `checked` enforces
  /// (both call the same validator, so they can never disagree).
  bool is_canonical() const {
    return invariant_violation(nrows_, ncols_, row_ptr_, cols_,
                               vals_.size()) == nullptr;
  }

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  index_t nnz() const { return static_cast<index_t>(cols_.size()); }

  index_t row_nnz(index_t r) const {
    return row_ptr_[static_cast<std::size_t>(r) + 1] -
           row_ptr_[static_cast<std::size_t>(r)];
  }

  /// Column indices of row `r` (strictly increasing).
  std::span<const index_t> row_cols(index_t r) const {
    const auto b = static_cast<std::size_t>(row_ptr_[r]);
    const auto n = static_cast<std::size_t>(row_nnz(r));
    return std::span<const index_t>(cols_.data() + b, n);
  }

  /// Values of row `r`, parallel to `row_cols(r)`.
  std::span<const T> row_vals(index_t r) const {
    const auto b = static_cast<std::size_t>(row_ptr_[r]);
    const auto n = static_cast<std::size_t>(row_nnz(r));
    return std::span<const T>(vals_.data() + b, n);
  }

  /// Stored value at (r, c), or `missing` when the entry is absent.
  T at(index_t r, index_t c, T missing) const {
    const auto cs = row_cols(r);
    const auto it = std::lower_bound(cs.begin(), cs.end(), c);
    if (it == cs.end() || *it != c) return missing;
    return vals_[static_cast<std::size_t>(
        row_ptr_[r] + (it - cs.begin()))];
  }

  const std::vector<index_t>& row_ptr() const { return row_ptr_; }
  const std::vector<index_t>& cols() const { return cols_; }
  const std::vector<T>& vals() const { return vals_; }

 private:
  /// The one statement of the canonical-CSR invariants: returns nullptr
  /// when they all hold, else a description of the first violation.
  /// row_ptr is validated fully before cols is scanned, so a malformed
  /// row_ptr can never drive an out-of-bounds read.
  static const char* invariant_violation(index_t nrows, index_t ncols,
                                         const std::vector<index_t>& row_ptr,
                                         const std::vector<index_t>& cols,
                                         std::size_t vals_size) {
    if (nrows < 0 || ncols < 0) return "negative dimension";
    if (row_ptr.size() != static_cast<std::size_t>(nrows) + 1) {
      return "row_ptr size != nrows + 1";
    }
    if (cols.size() != vals_size) return "cols/vals size mismatch";
    if (row_ptr.front() != 0 ||
        row_ptr.back() != static_cast<index_t>(cols.size())) {
      return "row_ptr endpoints wrong";
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(nrows); ++r) {
      if (row_ptr[r] > row_ptr[r + 1]) return "row_ptr not monotone";
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(nrows); ++r) {
      for (index_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const index_t c = cols[static_cast<std::size_t>(k)];
        if (c < 0 || c >= ncols) return "column out of range";
        if (k > row_ptr[r] && cols[static_cast<std::size_t>(k) - 1] >= c) {
          return "columns not strictly increasing within a row";
        }
      }
    }
    return nullptr;
  }

  index_t nrows_;
  index_t ncols_;
  std::vector<index_t> row_ptr_;  // size nrows + 1
  std::vector<index_t> cols_;     // size nnz, sorted within each row
  std::vector<T> vals_;           // size nnz
};

namespace detail {

/// Parallel counting sort over a Csr's columns — the shared engine of
/// `transpose` and the `CscView` constructor, which differ only in what
/// a slot stores. Per-chunk column histograms, one serial cursor stitch
/// (the stable-scatter invariant again), then a scatter that calls
/// `write(slot, r, idx)` for the entry at flat position `idx` of row
/// `r` landing at output position `slot`. Entries within an output
/// bucket stay in base-row order and the bytes are pool-size
/// independent.
template <typename T, typename Write>
void counting_sort_by_col(const Csr<T>& a, util::ThreadPool* pool,
                          std::vector<index_t>& ptr, const Write& write) {
  const bool parallel = pool != nullptr && pool->size() > 1 && a.nrows() > 0;
  const index_t nchunks =
      parallel ? pool->num_chunks(a.nrows()) : (a.nrows() > 0 ? 1 : 0);
  std::vector<std::vector<index_t>> hist(static_cast<std::size_t>(nchunks));
  run_chunked(
      pool, parallel, a.nrows(), [&](index_t chunk, index_t lo, index_t hi) {
        auto& h = hist[static_cast<std::size_t>(chunk)];
        h.assign(static_cast<std::size_t>(a.ncols()), 0);
        for (index_t r = lo; r < hi; ++r) {
          for (const index_t c : a.row_cols(r)) {
            ++h[static_cast<std::size_t>(c)];
          }
        }
      });
  stitch_bucket_cursors(hist, ptr, a.ncols());
  run_chunked(
      pool, parallel, a.nrows(), [&](index_t chunk, index_t lo, index_t hi) {
        auto& cur = hist[static_cast<std::size_t>(chunk)];
        for (index_t r = lo; r < hi; ++r) {
          const auto cs = a.row_cols(r);
          const index_t base = a.row_ptr()[static_cast<std::size_t>(r)];
          for (std::size_t k = 0; k < cs.size(); ++k) {
            const auto slot = static_cast<std::size_t>(
                cur[static_cast<std::size_t>(cs[k])]++);
            write(slot, r, base + static_cast<index_t>(k));
          }
        }
      });
}

}  // namespace detail

/// Transpose via counting sort: O(nnz + nrows + ncols), output rows
/// sorted (see `detail::counting_sort_by_col` for the parallel scheme).
template <typename T>
Csr<T> transpose(const Csr<T>& a, util::ThreadPool* pool = nullptr) {
  I2A_EXPECTS(a.is_canonical(), "transpose: input CSR not canonical");
  std::vector<index_t> row_ptr(static_cast<std::size_t>(a.ncols()) + 1, 0);
  std::vector<index_t> cols(static_cast<std::size_t>(a.nnz()));
  std::vector<T> vals(static_cast<std::size_t>(a.nnz()));
  detail::counting_sort_by_col(
      a, pool, row_ptr, [&](std::size_t slot, index_t r, index_t idx) {
        cols[slot] = r;
        vals[slot] = a.vals()[static_cast<std::size_t>(idx)];
      });
  Csr<T> out(a.ncols(), a.nrows(), std::move(row_ptr), std::move(cols),
             std::move(vals));
  I2A_ENSURES(out.is_canonical(), "transpose: non-canonical CSR");
  return out;
}

/// Column-major *view* of a Csr: the same counting sort as `transpose`,
/// but values are never copied — `val_idx_` maps each (col, row) slot
/// back into the base matrix's `vals()` array. Row `i` of the view is
/// column `i` of the base matrix with its row indices sorted increasing,
/// which is exactly the A-operand access pattern the fused AᵀB product
/// needs. Construction parallelizes with the count/stitch/scatter scheme
/// when a pool is given (bytes are pool-size independent). The view
/// borrows the base matrix: it must not outlive it.
template <typename T>
class CscView {
 public:
  explicit CscView(const Csr<T>& base, util::ThreadPool* pool = nullptr)
      : base_(&base),
        col_ptr_(static_cast<std::size_t>(base.ncols()) + 1, 0),
        row_idx_(static_cast<std::size_t>(base.nnz())),
        val_idx_(static_cast<std::size_t>(base.nnz())) {
    detail::counting_sort_by_col(
        base, pool, col_ptr_, [&](std::size_t slot, index_t r, index_t idx) {
          row_idx_[slot] = r;
          val_idx_[slot] = idx;
        });
  }

  /// Shape of the transposed operand this view represents (Aᵀ).
  index_t nrows() const { return base_->ncols(); }
  index_t ncols() const { return base_->nrows(); }

  index_t row_nnz(index_t i) const {
    return col_ptr_[static_cast<std::size_t>(i) + 1] -
           col_ptr_[static_cast<std::size_t>(i)];
  }

  /// Base-matrix row indices stored in column `i` (strictly increasing).
  std::span<const index_t> row_cols(index_t i) const {
    const auto b = static_cast<std::size_t>(col_ptr_[static_cast<std::size_t>(i)]);
    return std::span<const index_t>(row_idx_.data() + b,
                                    static_cast<std::size_t>(row_nnz(i)));
  }

  /// Gather the values of view row `i` (base column `i`) into `scratch`
  /// and return a span over them, parallel to `row_cols(i)` — the bulk
  /// form the SpGEMM kernels use so the per-entry indirection through
  /// `val_idx_` happens once per row. (The CSR-rows counterpart returns
  /// its contiguous values directly without touching `scratch`.)
  std::span<const T> gather_row_vals(index_t i,
                                     std::vector<T>& scratch) const {
    const auto b = static_cast<std::size_t>(col_ptr_[static_cast<std::size_t>(i)]);
    const auto n = static_cast<std::size_t>(row_nnz(i));
    const auto& base_vals = base_->vals();
    scratch.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      scratch[k] = base_vals[static_cast<std::size_t>(val_idx_[b + k])];
    }
    return std::span<const T>(scratch.data(), n);
  }

  /// Value parallel to `row_cols(i)[k]`, read through the base matrix.
  T row_val(index_t i, std::size_t k) const {
    return base_->vals()[static_cast<std::size_t>(
        val_idx_[static_cast<std::size_t>(
                     col_ptr_[static_cast<std::size_t>(i)]) +
                 k])];
  }

  const Csr<T>& base() const { return *base_; }

 private:
  const Csr<T>* base_;
  std::vector<index_t> col_ptr_;  // size base.ncols() + 1
  std::vector<index_t> row_idx_;  // size nnz, sorted within each column
  std::vector<index_t> val_idx_;  // permutation into base.vals()
};

}  // namespace i2a::sparse
