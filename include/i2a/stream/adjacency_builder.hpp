#pragma once
/// \file stream/adjacency_builder.hpp
/// \brief Concurrent streaming adjacency maintenance: ingest edge
///        batches, keep A = Eᵀout ⊕.⊗ Ein current, and serve lock-free
///        epoch-pinned snapshots to readers while the writer appends and
///        compacts.
///
/// The paper states Theorem II.1 for a static edge list; a serving
/// system sees edges in batches *and queries between them*. Because the
/// theorem's per-(i,j) value is a ⊕-fold over parallel edges and ⊕ is
/// associative, the fold can be computed incrementally: build each
/// batch's *delta* adjacency with the ordinary sort-free incidence +
/// SpGEMM path (graph/incidence.hpp), keep the deltas as immutable
/// refcounted runs, and ⊕-merge them — lazily for queries, eagerly for
/// compaction (sparse/merge.hpp). Age order is preserved end to end, so
/// every snapshot is byte-identical to a full rebuild from the
/// concatenated prefix of batches it covers.
///
/// **Run-list ladder.** The builder keeps a list of immutable CSR runs,
/// oldest first, each covering a consecutive interval of batches — the
/// logarithmic-method / LSM shape expressed as a list instead of
/// fixed-power-of-two slots, so compaction can happen asynchronously.
/// After appending a batch's delta (weight 1), the *compaction policy*
/// merges the maximal balanced suffix: the longest tail of runs in which
/// every run's weight is ≤ the combined weight of the runs after it.
/// Settled run weights are therefore super-increasing, which bounds live
/// runs by log₂(batches) + 1 and rewrites each stored entry O(log
/// batches) times total — the same amortized O(nnz · log batches)
/// maintenance as the PR 4 binary-counter ladder, with identical bytes.
///
/// **Concurrency model (the serving core).** Single writer, any number
/// of readers:
///
///   * `snapshot()` — callable from ANY thread at ANY time, concurrent
///     with ingest and compaction. It takes the ladder lock only to copy
///     O(log batches) shared_ptrs plus the epoch counter, then the
///     reader traverses its `PinnedSnapshot` with no further
///     synchronization. Retired runs are reclaimed when the last
///     snapshot pinning them drops (refcount = epoch drain).
///   * `ingest()` — one thread at a time (external serialization; any
///     thread may be the writer when a mutex orders the handoff). The
///     expensive delta build runs without the ladder lock; publishing
///     the delta is an O(log batches) append under the lock.
///   * Compaction — `Compaction::kInline` (default) merges synchronously
///     inside `ingest`; `Compaction::kBackground` only *schedules* the
///     merge as a detached `ThreadPool::submit` task: the task replaces
///     the merged group under the lock when done and re-schedules itself
///     while more suffixes qualify. Readers are never blocked by a merge
///     in either mode: every merge works on private run handles and
///     commits by pointer splice under the lock.
///
/// **Failure model (DESIGN.md §10; swept by tests/test_failpoints.cpp).**
/// Every fallible step is classified, and each class has one documented
/// delivery rule:
///
///   * *Strong guarantee on ingest.* Anything that throws out of
///     `ingest()` — batch validation, delta staging (incidence assembly,
///     SpGEMM), and in inline mode the compaction merges themselves —
///     leaves the builder exactly as before the call: same runs, same
///     stats, same epoch; snapshots never see a torn batch. Inline
///     compaction earns this by settling a private copy of the run list
///     and committing it with a single noexcept splice.
///   * *Deferred errors from background compaction.* A background merge
///     failure (⊕ may throw; so may allocation) cannot be thrown at the
///     writer synchronously — the batch that scheduled it was already
///     consumed. The failure is queued; the compaction chain parks. Each
///     queued failure is delivered **exactly once**, at the next
///     `drain()` or `ingest()` (whichever comes first; ingest rethrows
///     before consuming its batch). `snapshot()` stays non-throwing — it
///     *peeks* the oldest pending failure into
///     `PinnedSnapshot::pending_error()` without consuming it, so
///     readers can observe degraded freshness while the writer still
///     gets its exactly-once delivery.
///   * *Absorbed degradation.* A failed `ThreadPool::submit` of a
///     compaction task (queue allocation) falls back to running the
///     merge inline on the writer thread — counted in
///     `Stats::backpressure_events`, never thrown: the batch is already
///     published and scheduling is a quality-of-service concern, not a
///     correctness one.
///
/// **Backpressure.** In background mode an unbounded writer can outrun
/// the compactor, growing the run list (and every reader's per-row merge
/// fan-in) without bound. `max_pending_merges` caps the debt: after each
/// publish, if the number of merges the policy still owes exceeds the
/// cap, `ingest` stalls: it waits out the in-flight task (whose splice
/// usually replans the chain and clears the debt) and, if still over
/// budget, claims the compaction token and settles the ladder inline
/// before returning — the writer pays the merge cost the background
/// lane deferred. Each such stall increments
/// `Stats::backpressure_events`; `Stats::pending_merges` is the live
/// debt. The default is unbounded (PR 7 behavior).
///
/// Canonical-CSR postconditions (`I2A_ENSURES`) hold for every run the
/// ladder ever exposes, whether an inline merge, a background-task
/// merge, or a per-batch delta produced it — the Debug/
/// `I2A_CHECK_INVARIANTS` CI legs execute the background path too.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/types.hpp"
#include "graph/graph.hpp"
#include "graph/incidence.hpp"
#include "sparse/csr.hpp"
#include "sparse/merge.hpp"
#include "sparse/spgemm.hpp"
#include "stream/checkpoint.hpp"
#include "stream/pinned_snapshot.hpp"
#include "stream/wal.hpp"
#include "util/contract.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace i2a::stream {

/// How a batch's incidence arrays draw their entries — mirrors the two
/// batch-construction entry points (`incidence_arrays` /
/// `weighted_incidence_arrays`).
enum class Weighting {
  kUnweighted,  ///< every incidence entry is 1: A(i,j) folds edge counts
  kWeighted,    ///< Ein carries w(e), Eout carries ⊗-identity: A(i,j)
                ///< folds edge weights (min.+ SSSP-ready, etc.)
};

/// Where ladder compactions run (see the file comment's concurrency
/// model).
enum class Compaction {
  kInline,      ///< merge synchronously inside ingest (PR 4 semantics)
  kBackground,  ///< schedule merges as detached ThreadPool tasks
};

/// `max_pending_merges` value meaning "no backpressure" (the default).
inline constexpr std::size_t kUnboundedPendingMerges =
    static_cast<std::size_t>(-1);

/// Construction options for `AdjacencyBuilder`, meant for designated
/// initializers (`{.pool = &pool, .compaction = Compaction::kBackground}`).
/// The first block shapes staging and compaction; the second configures
/// the durability subsystem (DESIGN.md §12) — all of it inert while
/// `wal_dir` is empty.
struct Options {
  Weighting weighting = Weighting::kUnweighted;
  sparse::SpGemmAlgo algo = sparse::SpGemmAlgo::kAuto;
  util::ThreadPool* pool = nullptr;
  Compaction compaction = Compaction::kInline;
  std::size_t max_pending_merges = kUnboundedPendingMerges;

  /// Directory for WAL segments + checkpoints. Empty = in-memory only
  /// (no logging, no recovery — the pre-durability behavior, bit for
  /// bit). A fresh builder refuses a directory that already holds
  /// durable state: that data is recoverable, so constructing over it
  /// would be silent data loss — use `recover()` instead.
  std::string wal_dir = {};
  /// When an acknowledged batch is durable (see stream/wal.hpp).
  Durability durability = Durability::kFsyncEachBatch;
  /// WAL segment rotation threshold.
  std::uint64_t wal_segment_bytes = 64ULL << 20;
  /// Write a run-level checkpoint every this many batches via the
  /// background pool (0 = never). Checkpoints bound replay time and let
  /// fully-covered WAL segments retire.
  std::uint64_t checkpoint_every = 0;
};

/// Maintains A over a batched edge stream for one operator pair.
/// Writer calls (`ingest`) must be externally serialized; `snapshot`,
/// `adjacency`, `stats`, `num_levels` and `drain` are safe from any
/// thread concurrently with the writer and with background compaction
/// (pinned under TSan by test_serve). The ladder regroups the ⊕-fold
/// across batches and the per-batch delta is a full ⊕.⊗ product, so the
/// pair must declare the complete `Semiring` contract.
template <typename P>
  requires algebra::Semiring<P>
class AdjacencyBuilder {
 public:
  using value_type = typename P::value_type;

  /// Maintenance-cost accounting, the bench counters.
  struct Stats {
    std::uint64_t batches = 0;          ///< ingested batches (incl. empty)
    std::uint64_t edges = 0;            ///< ingested edges
    std::uint64_t compactions = 0;      ///< ladder k-way merges run
    std::uint64_t delta_entries = 0;    ///< nnz across per-batch deltas
    std::uint64_t merged_entries = 0;   ///< nnz written by compactions
    std::uint64_t pending_merges = 0;   ///< merges the policy still owes
                                        ///< (computed at stats() time)
    std::uint64_t backpressure_events = 0;  ///< over-budget writer stalls
                                            ///< + submit-failure fallbacks
    std::uint64_t checkpoints = 0;      ///< durable checkpoints written
    std::uint64_t failpoints_hit = 0;   ///< process-wide failpoint fires
                                        ///< (always 0 in production
                                        ///< builds; see util/failpoint.hpp)
  };

  /// `opts.max_pending_merges` bounds the background-compaction debt
  /// (see the file comment's backpressure section); it is ignored in
  /// inline mode, where the ladder settles every ingest anyway. A
  /// non-empty `opts.wal_dir` attaches a fresh WAL (segment 0, epoch 0);
  /// the directory must not already hold durable state (use
  /// `recover()`).
  explicit AdjacencyBuilder(index_t num_vertices, P p = P{},
                            const Options& opts = {})
      : AdjacencyBuilder(num_vertices, std::move(p), opts, /*fresh=*/true) {}

  /// Rebuild a builder from the durable state in `opts.wal_dir`: load
  /// the newest fully-valid checkpoint (if any), replay the WAL suffix
  /// through the normal publish path — repairing a torn tail in the
  /// last segment — and attach a fresh segment for new batches. Refuses
  /// mismatched durable state (wrong algebra instantiation, vertex
  /// count, shard count other than 1, or weighting) with
  /// `ManifestMismatch`; throws its base `RecoveryError` on mid-log
  /// corruption or a broken epoch chain.
  /// Idempotent: recovering an already-recovered directory replays the
  /// identical batch sequence. An empty (or absent) directory yields a
  /// fresh builder at epoch 0. Cost counters other than `batches` and
  /// `edges` restart at zero for the checkpointed prefix.
  static AdjacencyBuilder recover(index_t num_vertices, P p,
                                  const Options& opts) {
    if (opts.wal_dir.empty()) {
      throw std::invalid_argument("AdjacencyBuilder::recover: empty wal_dir");
    }
    AdjacencyBuilder b(num_vertices, std::move(p), opts, /*fresh=*/false);
    b.replay_durable_state();
    return b;
  }

  // One ladder, one owner: copying would alias the mutable run list.
  // Moves let owners hold builders in optionals and containers.
  AdjacencyBuilder(const AdjacencyBuilder&) = delete;
  AdjacencyBuilder& operator=(const AdjacencyBuilder&) = delete;
  AdjacencyBuilder(AdjacencyBuilder&&) noexcept = default;
  AdjacencyBuilder& operator=(AdjacencyBuilder&&) noexcept = default;

  /// Destruction settles first: any in-flight background compaction or
  /// checkpoint completes (the tasks own the ladder via shared_ptr and
  /// the pool must outlive the builder, as for all pool users), so no
  /// task ever observes a dead builder and no error can arrive after
  /// the check below. A queued background failure that nothing drained
  /// is then an asserted contract violation in checked builds — the
  /// owner must either `drain()` (deliver) or `dismiss_pending_errors()`
  /// (explicitly discard) before destruction; silently dropping a
  /// failure is not an option the API offers anymore.
  ~AdjacencyBuilder() {
    if (!ladder_) return;  // moved-from
    util::MutexLock lock(ladder_->mu);
    while (ladder_->compacting || ladder_->checkpointing) {
      ladder_->cv.wait(ladder_->mu);
    }
    I2A_ASSERT(ladder_->errors.empty(),
               "AdjacencyBuilder destroyed with undelivered background "
               "errors; drain() or dismiss_pending_errors() first");
  }

  /// Settle in-flight background work, then acknowledge-and-discard
  /// every queued background failure without rethrowing. Returns the
  /// number discarded. This is the explicit escape hatch the destructor
  /// contract points at: "I know this builder may hold failures and I
  /// am choosing not to look".
  std::size_t dismiss_pending_errors() noexcept I2A_EXCLUDES(ladder_->mu) {
    if (!ladder_) return 0;
    util::MutexLock lock(ladder_->mu);
    while (ladder_->compacting || ladder_->checkpointing) {
      ladder_->cv.wait(ladder_->mu);
    }
    const std::size_t n = ladder_->errors.size();
    ladder_->errors.clear();
    return n;
  }

  index_t num_vertices() const { return n_; }

  Stats stats() const I2A_EXCLUDES(ladder_->mu) {
    util::MutexLock lock(ladder_->mu);
    Stats s = ladder_->stats;
    s.pending_merges = static_cast<std::uint64_t>(pending_merges_locked());
    s.failpoints_hit = util::failpoints_fired_total();
    return s;
  }

  /// Live ladder runs. ≤ log₂(batches) + 1 whenever the ladder is
  /// settled — always after an inline-mode `ingest`, and after `drain()`
  /// in background mode (mid-flight the count may transiently exceed the
  /// bound while appends outpace the in-flight merge).
  index_t num_levels() const I2A_EXCLUDES(ladder_->mu) {
    util::MutexLock lock(ladder_->mu);
    return static_cast<index_t>(ladder_->runs.size());
  }

  /// Ingest one batch: rethrow any pending background-merge failure
  /// (before touching the batch), validate, build the batch's delta CSR
  /// (sort-free incidence + SpGEMM, no ladder lock held), log it to the
  /// WAL (durable builders only), publish it onto the run list, and
  /// apply backpressure if configured.
  ///
  /// Strong guarantee: if this throws — validation, a pending deferred
  /// error, staging, a WAL append (which rolls its own bytes back), or
  /// an inline-mode merge — the batch was not consumed and the builder
  /// (runs, stats, epoch, log) is unchanged. Under
  /// `Durability::kFsyncEachBatch` a normal return additionally means
  /// the batch is on stable storage (the acknowledged-durability
  /// contract the crash harness holds recovery to).
  ///
  /// Recovery replays logged batches through this same body before the
  /// WAL is attached, so they are neither logged twice nor checkpointed.
  void ingest(std::span<const graph::Edge> batch) {
    rethrow_pending_error();
    validate_batch(batch);
    Prepared prep = prepare_publish(stage(batch), batch.size());
    if (wal_) {
      std::uint64_t epoch = 0;
      {
        util::MutexLock lock(ladder_->mu);
        epoch = ladder_->stats.batches + 1;
      }
      wal_->append(epoch, batch);
    }
    commit_publish(std::move(prep));
    maybe_checkpoint();
    maybe_backpressure();
  }

  /// Edge-list convenience overload.
  void ingest(const std::vector<graph::Edge>& batch) {
    ingest(std::span<const graph::Edge>(batch.data(), batch.size()));
  }

  /// Pin the live run-set: O(log batches) shared_ptr copies under the
  /// ladder lock, then the returned snapshot is traversed with no
  /// further synchronization. Never throws past allocation: a pending
  /// background failure is *peeked* (not consumed) into the snapshot's
  /// `pending_error()`. See stream/pinned_snapshot.hpp.
  PinnedSnapshot<P> snapshot() const I2A_EXCLUDES(ladder_->mu) {
    std::vector<std::shared_ptr<const sparse::Csr<value_type>>> pins;
    std::uint64_t epoch;
    std::exception_ptr pending;
    {
      util::MutexLock lock(ladder_->mu);
      pins.reserve(ladder_->runs.size());
      for (const auto& run : ladder_->runs) pins.push_back(run.csr);
      epoch = ladder_->stats.batches;
      pending = ladder_->errors.empty() ? nullptr : ladder_->errors.front();
    }
    return PinnedSnapshot<P>(n_, p_, epoch, std::move(pins), pending);
  }

  /// Materialized snapshot of the maintained adjacency array: one k-way
  /// ⊕-merge of the live runs, oldest first. Byte-identical to
  /// `build_adjacency` / `adjacency_array` over the concatenation of
  /// every ingested batch.
  sparse::Csr<value_type> adjacency() const {
    return snapshot().materialize(pool_);
  }

  /// Block until no background compaction or checkpoint is in flight
  /// and no further one is scheduled (no-op in inline mode), then
  /// rethrow the oldest still-undelivered background failure, if any —
  /// each queued failure is delivered exactly once across `drain()` and
  /// `ingest()`.
  void drain() const I2A_EXCLUDES(ladder_->mu) {
    std::exception_ptr err;
    {
      util::MutexLock lock(ladder_->mu);
      while (ladder_->compacting || ladder_->checkpointing) {
        ladder_->cv.wait(ladder_->mu);
      }
      err = pop_error_locked();
    }
    if (err) std::rethrow_exception(err);
  }

 private:
  /// One immutable ladder run: the ⊕-fold of `weight` consecutive
  /// non-empty batches.
  struct Run {
    std::shared_ptr<const sparse::Csr<value_type>> csr;
    std::uint64_t weight;
  };

  /// Shared ladder state. Refcounted so background compaction tasks can
  /// outlive the builder object itself; `mu` guards every member, and
  /// the `I2A_GUARDED_BY` annotations make `-Wthread-safety` prove it on
  /// every access path (writer, reader pin, background task).
  struct Ladder {
    mutable util::Mutex mu;
    util::CondVar cv;             ///< signaled when a compaction settles
    /// Run list, oldest first, consecutive intervals.
    std::vector<Run> runs I2A_GUARDED_BY(mu);
    Stats stats I2A_GUARDED_BY(mu);
    /// True while a compaction holds the token.
    bool compacting I2A_GUARDED_BY(mu) = false;
    /// True while a background checkpoint is in flight (at most one);
    /// drain and destruction wait on it through the same cv.
    bool checkpointing I2A_GUARDED_BY(mu) = false;
    /// Failed background merges, oldest first; each entry is delivered
    /// exactly once (drain / ingest pop, snapshot peeks).
    std::vector<std::exception_ptr> errors I2A_GUARDED_BY(mu);
  };

  /// The staged-but-uncommitted half of a publish. `prepare_publish` does
  /// everything that can throw; `commit_publish` consumes the result with
  /// no fallible step before the batch counts as ingested. The WAL
  /// append sits between the two, which is what gives `ingest()` its
  /// strong guarantee: a failed append leaves nothing to undo.
  struct Prepared {
    bool inline_mode = false;
    std::vector<Run> runs;  ///< inline mode: the fully settled new list
    std::uint64_t compactions = 0;
    std::uint64_t merged_entries = 0;
    /// Background mode: the delta to append (capacity already reserved).
    std::shared_ptr<const sparse::Csr<value_type>> delta;
    std::uint64_t delta_nnz = 0;
    std::size_t batch_edges = 0;
  };

  /// Shared by both entry points. A fresh durable builder refuses
  /// existing durable state and attaches segment 0 at once; a
  /// recovering one attaches its WAL in `replay_durable_state()`.
  AdjacencyBuilder(index_t num_vertices, P p, const Options& opts,
                   bool fresh)
      : n_(num_vertices), p_(std::move(p)), weighting_(opts.weighting),
        algo_(opts.algo), pool_(opts.pool), compaction_(opts.compaction),
        max_pending_merges_(opts.max_pending_merges),
        ladder_(std::make_shared<Ladder>()), wal_dir_(opts.wal_dir),
        durability_(opts.durability),
        wal_segment_bytes_(opts.wal_segment_bytes),
        checkpoint_every_(opts.checkpoint_every),
        manifest_{algebra_tag<P>(), static_cast<std::uint64_t>(n_),
                  /*shard_count=*/1, static_cast<std::uint32_t>(weighting_)} {
    if (num_vertices < 0) {
      throw std::invalid_argument("AdjacencyBuilder: negative vertex count");
    }
    if (compaction_ == Compaction::kBackground && pool_ == nullptr) {
      // No pool means nothing can host the task; degrade to inline
      // rather than silently never compacting.
      compaction_ = Compaction::kInline;
    }
    if (wal_dir_.empty()) return;
    util::ensure_dir(wal_dir_);
    if (!fresh) return;
    require_no_durable_state(wal_dir_);
    wal_.emplace(wal_dir_, manifest_, durability_, wal_segment_bytes_,
                 /*seqno=*/0, /*start_epoch=*/0);
  }

  /// Recovery (see `recover`): restore the newest checkpoint, replay
  /// the WAL suffix through `ingest()` — nothing is logged twice, since
  /// no WAL is attached yet — then attach the segment after the last
  /// one found.
  void replay_durable_state() {
    std::uint64_t start_epoch = 0;
    if (auto ckpt = load_newest_checkpoint<value_type>(wal_dir_, manifest_)) {
      start_epoch = ckpt->epoch;
      restore_runs(std::move(ckpt->runs), ckpt->epoch, ckpt->edges);
    }
    const WalReplayStats rstats = replay_wal(
        wal_dir_, manifest_, start_epoch,
        [this](std::uint64_t, const std::vector<graph::Edge>& edges) {
          // Injection site: one evaluation per replayed batch, so the
          // sweep can kill recovery itself mid-replay and prove a
          // second recover() of the same directory still succeeds.
          I2A_FAILPOINT("recover.replay");
          ingest(std::span<const graph::Edge>(edges.data(), edges.size()));
        });
    std::uint64_t epoch_now = 0;
    {
      util::MutexLock lock(ladder_->mu);
      epoch_now = ladder_->stats.batches;
    }
    wal_.emplace(wal_dir_, manifest_, durability_, wal_segment_bytes_,
                 rstats.any_segment ? rstats.last_seqno + 1 : 0, epoch_now);
  }

  void validate_batch(std::span<const graph::Edge> batch) const {
    for (const graph::Edge& e : batch) {
      if (e.src < 0 || e.src >= n_ || e.dst < 0 || e.dst >= n_) {
        throw std::out_of_range(
            "AdjacencyBuilder::ingest: edge endpoint out of range");
      }
    }
  }

  /// Install a checkpoint's run list into an untouched ladder
  /// (recovery only).
  void restore_runs(std::vector<CheckpointRun<value_type>>&& runs,
                    std::uint64_t epoch, std::uint64_t edges)
      I2A_EXCLUDES(ladder_->mu) {
    util::MutexLock lock(ladder_->mu);
    I2A_EXPECTS(ladder_->runs.empty() && ladder_->stats.batches == 0,
                "restore_runs: ladder already has state");
    ladder_->runs.reserve(runs.size());
    for (CheckpointRun<value_type>& r : runs) {
      ladder_->runs.push_back(Run{std::move(r.csr), r.weight});
    }
    ladder_->stats.batches = epoch;
    ladder_->stats.edges = edges;
  }

  /// If a checkpoint boundary was just crossed and none is in flight,
  /// pin the run list + counters under the lock and dispatch the
  /// background checkpoint task. Failures surface through the
  /// deferred-error queue (never synchronously from ingest): the batch
  /// is already committed, so the strong-guarantee channel is closed —
  /// same classification as a background-merge failure.
  void maybe_checkpoint() I2A_EXCLUDES(ladder_->mu) {
    if (!wal_ || checkpoint_every_ == 0) return;
    std::uint64_t epoch = 0;
    std::uint64_t edges = 0;
    std::vector<CheckpointRun<value_type>> runs;
    {
      util::MutexLock lock(ladder_->mu);
      epoch = ladder_->stats.batches;
      if (epoch == 0 || epoch % checkpoint_every_ != 0) return;
      if (ladder_->checkpointing) return;  // one in flight; skip boundary
      runs.reserve(ladder_->runs.size());
      for (const Run& r : ladder_->runs) {
        runs.push_back(CheckpointRun<value_type>{r.csr, r.weight});
      }
      edges = ladder_->stats.edges;
      ladder_->checkpointing = true;  // the last fallible step was above
    }
    dispatch_checkpoint(ladder_, pool_, wal_dir_, manifest_, epoch,
                        std::move(runs), edges, wal_->seqno());
  }

  /// Build and hand off the checkpoint task. `lad` must already hold
  /// the checkpoint token; the task clears it, signals the cv, bumps
  /// `stats.checkpoints` on success, and queues failures as deferred
  /// errors. A failed submit runs the task inline (absorbed, counted in
  /// `backpressure_events`, like the compaction-submit fallback).
  /// Static and `this`-free: the task may outlive the builder object
  /// (it shares the ladder), and the WAL is referenced only through
  /// captured values (dir + active seqno).
  static void dispatch_checkpoint(
      std::shared_ptr<Ladder> lad, util::ThreadPool* pool, std::string dir,
      WalManifest manifest, std::uint64_t epoch,
      std::vector<CheckpointRun<value_type>> runs, std::uint64_t edges,
      std::uint64_t active_seqno) I2A_EXCLUDES(lad->mu) {
    auto task = [lad, dir = std::move(dir), manifest = std::move(manifest),
                 epoch, runs = std::move(runs), edges, active_seqno]() {
      std::exception_ptr failure;
      try {
        write_checkpoint<value_type>(dir, manifest, epoch, runs, edges);
        gc_checkpoints(dir, epoch);
        Wal::retire_segments(dir, epoch, active_seqno);
      } catch (...) {
        failure = std::current_exception();
      }
      {
        util::MutexLock lock(lad->mu);
        if (failure) {
          try {
            lad->errors.push_back(failure);
          } catch (...) {
            // Reporting itself failed on allocation (prepare reserves a
            // spare slot to make this a corner of a corner). The token
            // release below must still happen, so the failure is
            // dropped here — the checkpoint file was already cleaned
            // up, so no durable state is inconsistent.
          }
        } else {
          ++lad->stats.checkpoints;
        }
        lad->checkpointing = false;
      }
      lad->cv.notify_all();
    };
    bool fallback = (pool == nullptr);
    if (pool != nullptr) {
      try {
        auto backup = task;  // submit may consume its argument on throw
        pool->submit(std::move(backup));
      } catch (...) {
        fallback = true;
        util::MutexLock lock(lad->mu);
        ++lad->stats.backpressure_events;
      }
    }
    if (fallback) task();  // the task body delivers its own failures
  }

  void rethrow_pending_error() I2A_EXCLUDES(ladder_->mu) {
    std::exception_ptr err;
    {
      util::MutexLock lock(ladder_->mu);
      err = pop_error_locked();
    }
    if (err) std::rethrow_exception(err);
  }

  std::exception_ptr pop_error_locked() const I2A_REQUIRES(ladder_->mu) {
    if (ladder_->errors.empty()) return nullptr;
    std::exception_ptr err = ladder_->errors.front();
    ladder_->errors.erase(ladder_->errors.begin());
    return err;
  }

  /// Build a batch's delta adjacency — no ladder state is touched, so
  /// staging runs lock-free. Returns nullptr for an empty batch (the
  /// ⊕-identity contribution).
  std::shared_ptr<const sparse::Csr<value_type>> stage(
      std::span<const graph::Edge> batch) const {
    if (batch.empty()) return nullptr;
    // Injection site: the whole staging pipeline for a non-empty batch.
    // A fire here (or in the incidence/SpGEMM sites downstream) leaves
    // the ladder untouched — ingest's strong guarantee.
    I2A_FAILPOINT("builder.stage.batch");
    graph::Graph g(n_);
    g.edges().assign(batch.begin(), batch.end());
    const auto inc = weighting_ == Weighting::kWeighted
                         ? graph::weighted_incidence_arrays(g, p_, pool_)
                         : graph::incidence_arrays(g, p_, pool_);
    auto delta = graph::adjacency_array(p_, inc, algo_, pool_);
    I2A_ENSURES(delta.is_canonical(),
                "AdjacencyBuilder: staged delta not canonical");
    return std::make_shared<const sparse::Csr<value_type>>(std::move(delta));
  }

  /// Phase 1 of a publish: everything fallible. Inline mode settles the
  /// whole ladder on a private copy of the run list (cheap shared_ptr
  /// copies — concurrent readers keep pinning the old list mid-merge,
  /// and a throwing ⊕ leaves runs and stats untouched). Background mode
  /// only reserves the capacity `commit_publish` will need, so the
  /// commit's push_back cannot throw.
  Prepared prepare_publish(
      std::shared_ptr<const sparse::Csr<value_type>> delta,
      std::size_t batch_edges) I2A_EXCLUDES(ladder_->mu) {
    Prepared prep;
    prep.batch_edges = batch_edges;
    prep.delta_nnz = static_cast<std::uint64_t>(delta ? delta->nnz() : 0);
    if (compaction_ == Compaction::kInline) {
      prep.inline_mode = true;
      {
        util::MutexLock lock(ladder_->mu);
        prep.runs = ladder_->runs;
      }
      if (delta) prep.runs.push_back(Run{std::move(delta), 1});
      settle_runs(prep.runs, prep.compactions, prep.merged_entries);
    } else {
      prep.delta = std::move(delta);
      util::MutexLock lock(ladder_->mu);
      ladder_->runs.reserve(ladder_->runs.size() + 1);
      // One spare error slot, so a background task's failure report
      // cannot itself die on allocation in the common case.
      ladder_->errors.reserve(ladder_->errors.size() + 1);
    }
    return prep;
  }

  /// Phase 2 of a publish: consume a `Prepared` with no fallible step
  /// before the batch is committed. Inline mode is a splice + stat bumps
  /// under the lock. Background mode appends the delta (capacity
  /// reserved), bumps stats, then *tries* to schedule the compaction
  /// task — a failed plan parks the chain (replanned on the next
  /// publish) and a failed submit runs the task inline on this thread
  /// (an absorbed degradation, counted in `backpressure_events`); in no
  /// case does a scheduling failure un-ingest the batch.
  // NOLINTNEXTLINE(bugprone-exception-escape): every fallible step ran
  // in prepare_publish (capacities reserved, merges settled on private
  // state); what remains is pointer splices, counter bumps, and the
  // absorb boundaries documented in DESIGN.md §10. The lint rule
  // `commit-noexcept` (tools/lint/) enforces that commit-phase
  // functions keep this declaration.
  void commit_publish(Prepared&& prep) noexcept I2A_EXCLUDES(ladder_->mu) {
    if (prep.inline_mode) {
      util::MutexLock lock(ladder_->mu);
      ladder_->runs = std::move(prep.runs);
      ++ladder_->stats.batches;
      ladder_->stats.edges += prep.batch_edges;
      ladder_->stats.delta_entries += prep.delta_nnz;
      ladder_->stats.compactions += prep.compactions;
      ladder_->stats.merged_entries += prep.merged_entries;
      return;
    }
    std::function<void()> task;
    {
      util::MutexLock lock(ladder_->mu);
      if (prep.delta) {
        ladder_->runs.push_back(Run{std::move(prep.delta), 1});
      }
      ++ladder_->stats.batches;
      ladder_->stats.edges += prep.batch_edges;
      ladder_->stats.delta_entries += prep.delta_nnz;
      try {
        task = plan_task_locked(ladder_, pool_, p_);
      } catch (...) {
        // Planning allocates (group copy, std::function). On failure the
        // token was never taken; the chain parks until the next publish
        // replans. The batch itself is already committed.
      }
    }
    if (!task) return;
    bool fallback = false;
    try {
      // Injection site: handing the compaction task to the pool. A fire
      // (or a real queue-allocation failure) must not lose the merge:
      // it runs inline below instead.
      I2A_FAILPOINT("builder.background.submit");
      auto backup = task;  // submit may consume its argument even on throw
      pool_->submit(std::move(backup));
    } catch (...) {
      fallback = true;
    }
    if (fallback) {
      {
        util::MutexLock lock(ladder_->mu);
        ++ladder_->stats.backpressure_events;
      }
      try {
        task();  // the task body handles its own failures (error queue)
      } catch (...) {
        // Only reachable if the task's own failure *reporting* failed on
        // allocation (prepare reserves a slot to prevent exactly this);
        // there is no channel left, and commit_publish is noexcept.
      }
    }
  }

  /// Post-publish backpressure (background mode with a bounded
  /// `max_pending_merges` only): if the compaction debt exceeds the cap,
  /// the writer stalls — every such stall is a `backpressure_events`
  /// tick, the observable "the bound bit" signal. Usually waiting out
  /// the in-flight task is enough (the chain replans as it splices); if
  /// the debt is still over budget after the wait (parked chain,
  /// cascade), claim the compaction token and settle the ladder on this
  /// thread. A merge failure here is recorded in the deferred-error
  /// queue (the batch is already consumed, so the strong-guarantee
  /// channel is closed); the old run list stays.
  void maybe_backpressure() I2A_EXCLUDES(ladder_->mu) {
    if (compaction_ != Compaction::kBackground) return;
    if (max_pending_merges_ == kUnboundedPendingMerges) return;
    util::MutexLock lock(ladder_->mu);
    if (pending_merges_locked() <= max_pending_merges_) return;
    ++ladder_->stats.backpressure_events;
    while (ladder_->compacting) ladder_->cv.wait(ladder_->mu);
    if (pending_merges_locked() <= max_pending_merges_) return;
    ladder_->compacting = true;
    std::vector<Run> runs = ladder_->runs;
    lock.unlock();
    std::uint64_t compactions = 0;
    std::uint64_t merged_entries = 0;
    // The settle runs unlocked on a private copy; success/failure is
    // recorded and applied under one relock below, so no lock
    // transition sits on an exceptional edge (the thread-safety
    // analysis does not model unwinding).
    std::exception_ptr failure;
    try {
      settle_runs(runs, compactions, merged_entries);
    } catch (...) {
      failure = std::current_exception();
    }
    lock.lock();
    if (!failure) {
      ladder_->runs = std::move(runs);
      ladder_->stats.compactions += compactions;
      ladder_->stats.merged_entries += merged_entries;
    } else {
      // Partial settle progress is discarded (private copy); the failure
      // is delivered exactly once via drain()/the next ingest().
      ladder_->errors.push_back(failure);
    }
    ladder_->compacting = false;
    lock.unlock();
    ladder_->cv.notify_all();
  }

  /// How many merges the compaction policy still owes on the current run
  /// list — simulated on the weights alone (no data touched). Caller
  /// holds the ladder lock.
  std::size_t pending_merges_locked() const I2A_REQUIRES(ladder_->mu) {
    std::vector<std::uint64_t> w;
    w.reserve(ladder_->runs.size());
    for (const Run& r : ladder_->runs) w.push_back(r.weight);
    std::size_t merges = 0;
    for (auto [lo, hi] = plan_suffix(w); hi > lo;
         std::tie(lo, hi) = plan_suffix(w)) {
      std::uint64_t sum = 0;
      for (std::size_t i = lo; i < hi; ++i) sum += w[i];
      w.erase(w.begin() + static_cast<std::ptrdiff_t>(lo + 1),
              w.begin() + static_cast<std::ptrdiff_t>(hi));
      w[lo] = sum;
      ++merges;
    }
    return merges;
  }

  auto add_fn() const {
    return [p = p_](const value_type& x, const value_type& y) {
      return p.add(x, y);
    };
  }

  /// Run the compaction policy to a fixed point on a private run list,
  /// accumulating stat deltas. Throws on merge failure (callers decide
  /// the delivery channel); the list is then mid-settle but private.
  void settle_runs(std::vector<Run>& runs, std::uint64_t& compactions,
                   std::uint64_t& merged_entries) const {
    for (auto [lo, hi] = plan_suffix(runs); hi > lo;
         std::tie(lo, hi) = plan_suffix(runs)) {
      Run merged = merge_group(runs, lo, hi, p_, pool_);
      // Injection site: between a finished merge and its splice — the
      // point where a failure has already paid the merge cost but must
      // still not corrupt the published list.
      I2A_FAILPOINT("builder.ladder.splice");
      merged_entries += static_cast<std::uint64_t>(merged.csr->nnz());
      ++compactions;
      runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(lo + 1),
                 runs.begin() + static_cast<std::ptrdiff_t>(hi));
      runs[lo] = std::move(merged);
    }
  }

  static std::uint64_t weight_of(const Run& r) { return r.weight; }
  static std::uint64_t weight_of(std::uint64_t w) { return w; }

  /// The compaction policy: merge the maximal *balanced* suffix — the
  /// longest tail in which every run's weight is ≤ the combined weight
  /// of the runs after it. Returns [lo, hi) over `runs`, empty (hi ==
  /// lo) when nothing qualifies. Settled lists are super-increasing ⇒
  /// ≤ log₂(total weight) + 1 runs, and each entry is remerged O(log)
  /// times — the logarithmic method, async-friendly. Works on the run
  /// list or on a bare weight list (the pending-merges simulation).
  template <typename RunsVec>
  static std::pair<std::size_t, std::size_t> plan_suffix(
      const RunsVec& runs) {
    if (runs.size() < 2) return {0, 0};
    std::size_t lo = runs.size() - 1;
    std::uint64_t tail = weight_of(runs[lo]);
    while (lo > 0 && weight_of(runs[lo - 1]) <= tail) {
      tail += weight_of(runs[lo - 1]);
      --lo;
    }
    if (runs.size() - lo < 2) return {0, 0};
    return {lo, runs.size()};
  }

  /// k-way ⊕-merge of runs[lo, hi), oldest first. Background tasks call
  /// this with pool == nullptr: the merge is pool-size invariant, and a
  /// detached task must not fan back into the pool it occupies.
  static Run merge_group(const std::vector<Run>& runs, std::size_t lo,
                         std::size_t hi, const P& p,
                         util::ThreadPool* pool) {
    std::vector<const sparse::Csr<value_type>*> group;
    group.reserve(hi - lo);
    std::uint64_t weight = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      group.push_back(runs[i].csr.get());
      weight += runs[i].weight;
    }
    auto merged = sparse::merge_add_k(
        group,
        [&p](const value_type& x, const value_type& y) {
          return p.add(x, y);
        },
        pool);
    I2A_ENSURES(merged.is_canonical(),
                "AdjacencyBuilder: compaction produced non-canonical run");
    return Run{std::make_shared<const sparse::Csr<value_type>>(
                   std::move(merged)),
               weight};
  }

  /// Under the ladder lock: if no merge is in flight and a suffix
  /// qualifies, mark one in flight and return the task that performs it.
  /// The task owns the ladder via shared_ptr (it may outlive the
  /// builder), captures the group's run handles by value (the runs are
  /// immutable; list indices stay valid because the writer only appends
  /// and only this task replaces), and re-plans on completion so carry
  /// chains keep compacting without writer involvement. All allocation
  /// happens *before* the token is taken, so a throw from here leaves
  /// the ladder unclaimed.
  static std::function<void()> plan_task_locked(std::shared_ptr<Ladder> lad,
                                                util::ThreadPool* pool, P p)
      I2A_REQUIRES(lad->mu) {
    if (lad->compacting) return nullptr;
    const auto [lo, hi] = plan_suffix(lad->runs);
    if (hi <= lo) return nullptr;
    std::vector<Run> group(lad->runs.begin() + static_cast<std::ptrdiff_t>(lo),
                           lad->runs.begin() + static_cast<std::ptrdiff_t>(hi));
    std::function<void()> task =
        [lad, pool, p = std::move(p),
         group = std::move(group), lo, hi]() mutable {
      // The merge runs unlocked; its outcome is committed under one
      // locked scope below so no lock operation sits on an exceptional
      // edge (the thread-safety analysis does not model unwinding).
      Run merged{};
      std::exception_ptr failure;
      try {
        merged = merge_group(group, 0, group.size(), p, nullptr);
        // Injection site: the background twin of the inline splice site —
        // the merge succeeded, the commit under the lock has not happened.
        I2A_FAILPOINT("builder.ladder.splice");
      } catch (...) {
        failure = std::current_exception();
      }
      std::function<void()> next;
      {
        util::MutexLock lock(lad->mu);
        if (!failure) {
          lad->runs.erase(
              lad->runs.begin() + static_cast<std::ptrdiff_t>(lo + 1),
              lad->runs.begin() + static_cast<std::ptrdiff_t>(hi));
          lad->runs[lo] = std::move(merged);
          ++lad->stats.compactions;
          lad->stats.merged_entries +=
              static_cast<std::uint64_t>(lad->runs[lo].csr->nnz());
          lad->compacting = false;
          try {
            next = plan_task_locked(lad, pool, p);
          } catch (...) {
            // Replanning failed to allocate: the chain parks (token free),
            // the next publish replans. Nothing to report — no work lost.
          }
        } else {
          // The chain parks; the failure is delivered exactly once via
          // drain()/the next ingest(). (This push_back is the one spot
          // where reporting can itself fail on allocation — prepare
          // reserves a spare slot to keep that a corner of a corner; an
          // escape here lands in the pool's submit-error slot, never
          // std::terminate.)
          lad->errors.push_back(failure);
          lad->compacting = false;
        }
        lad->cv.notify_all();
      }
      if (next) {
        try {
          pool->submit(std::move(next));
        } catch (...) {
          // Re-chain submit failed: release the token the replan took
          // and park — the next publish replans the same suffix.
          util::MutexLock lock(lad->mu);
          lad->compacting = false;
          lad->cv.notify_all();
        }
      }
    };
    lad->compacting = true;  // only after every fallible step above
    return task;
  }

  index_t n_;
  P p_;
  Weighting weighting_;
  sparse::SpGemmAlgo algo_;
  util::ThreadPool* pool_;
  Compaction compaction_;
  std::size_t max_pending_merges_;
  std::shared_ptr<Ladder> ladder_;
  // Durability (inert unless wal_ is engaged; writer-thread-only, like
  // every other ingest-path member).
  std::string wal_dir_;
  Durability durability_;
  std::uint64_t wal_segment_bytes_;
  std::uint64_t checkpoint_every_;
  WalManifest manifest_;
  std::optional<Wal> wal_;
};

}  // namespace i2a::stream
