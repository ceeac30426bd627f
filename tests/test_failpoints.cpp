/// \file test_failpoints.cpp
/// \brief Failure-injection sweep over the serving path (DESIGN.md §10).
///
/// Built with -DI2A_FAILPOINTS=ON (the CI fault-injection leg), this
/// suite arms every documented failpoint one at a time — across error
/// kinds (library failure / allocation failure) and compaction modes
/// (inline / background on workerless and worker pools) — and asserts
/// the documented per-API guarantee for each:
///
///   * strong guarantee: an ingest that throws consumed nothing — same
///     epoch, same bytes as the pre-failure prefix oracle;
///   * deferred errors: a background-merge failure is queued, peeks
///     into `snapshot().pending_error()`, and is delivered exactly once
///     via `drain()` / the next `ingest()`;
///   * absorbed degradation: a failed compaction-task submit runs the
///     merge inline and counts a `backpressure_events`, throwing nothing;
///
/// plus: live pins still read their exact epoch's prefix after the
/// failure churn, the registry's site set matches the documented list
/// (drift in either direction fails), repeated background failures are
/// each reported exactly once and the builder settles to the inline
/// bytes once disarmed, bounded `max_pending_merges` backpressure holds
/// its settled-after-every-ingest invariant, and a seeded randomized
/// multi-failpoint soak (seed logged; override: I2A_FAILPOINT_SEED)
/// converges to the full-prefix oracle bytes.
///
/// Built WITHOUT failpoints (every default leg), the suite instead
/// proves the zero-cost claim: a full workload registers no sites and
/// fires nothing.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "algebra/pairs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "stream/adjacency_builder.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;
using i2a::test::csr_bitwise_equal;

namespace {

using PT = algebra::PlusTimes<double>;
using Builder = stream::AdjacencyBuilder<PT>;
using Reg = util::FailpointRegistry;
using Sched = Reg::Schedule;
using Kind = Reg::Kind;

/// Multigraph workload with small-integer weights (exact folds).
graph::Graph fail_graph(index_t n, index_t m, std::uint64_t seed) {
  auto g = graph::gen::random_multigraph(n, m, seed);
  util::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (auto& e : g.edges()) {
    e.weight = static_cast<double>(1 + rng.next() % 9);
  }
  return g;
}

std::vector<std::vector<graph::Edge>> make_batches(const graph::Graph& g,
                                                   std::size_t batch) {
  std::vector<std::vector<graph::Edge>> out;
  const auto& edges = g.edges();
  for (std::size_t lo = 0; lo < edges.size(); lo += batch) {
    const std::size_t hi = std::min(edges.size(), lo + batch);
    out.emplace_back(edges.begin() + static_cast<std::ptrdiff_t>(lo),
                     edges.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return out;
}

/// Serial rebuild over batches [0, k) — the byte oracle.
sparse::Csr<double> oracle_prefix(
    index_t n, const std::vector<std::vector<graph::Edge>>& batches,
    std::size_t k) {
  const PT p{};
  graph::Graph prefix(n);
  for (std::size_t b = 0; b < k; ++b) {
    for (const auto& e : batches[b]) prefix.add_edge(e.src, e.dst, e.weight);
  }
  return graph::adjacency_array(p, graph::incidence_arrays(prefix, p));
}

#if I2A_FAILPOINTS_ENABLED

/// The documented site list (sorted, as the registry reports it). The
/// expected-sites test fails on drift in either direction: a new
/// fallible site must be added here AND to a sweep — the serving sites
/// to `kSweepSites` below, the durable sites (wal.*, checkpoint.*,
/// recover.*) to the durable sweep in tests/test_recovery.cpp.
const std::vector<std::string> kSites = {
    "builder.background.submit",
    "builder.ladder.splice",
    "builder.stage.batch",
    "checkpoint.write",
    "incidence.assemble.alloc",
    "merge.count.scratch",
    "merge.scatter.alloc",
    "recover.replay",
    "spgemm.numeric.alloc",
    "wal.append.fsync",
    "wal.append.write",
};

/// The subset this file's mode-matrix sweep drives. The durable sites
/// never evaluate in the in-memory builders the sweep uses; their
/// guarantee classes are swept in test_recovery against durable
/// builders instead.
const std::vector<std::string> kSweepSites = {
    "builder.background.submit",
    "builder.ladder.splice",
    "builder.stage.batch",
    "incidence.assemble.alloc",
    "merge.count.scratch",
    "merge.scatter.alloc",
    "spgemm.numeric.alloc",
};

void test_registry_mechanics() {
  auto& reg = Reg::instance();
  // Unarmed evaluation registers the site and never throws.
  reg.hit("test.mech.a");
  CHECK_EQ(reg.evaluations("test.mech.a"), 1u);
  CHECK_EQ(reg.fired("test.mech.a"), 0u);
  // once(): fires on the next evaluation, then auto-disarms.
  reg.arm("test.mech.a", Sched::once());
  bool threw = false;
  try {
    reg.hit("test.mech.a");
  } catch (const util::FailpointError&) {
    threw = true;
  }
  CHECK(threw);
  reg.hit("test.mech.a");  // auto-disarmed: must not throw
  CHECK_EQ(reg.fired("test.mech.a"), 1u);
  // nth(2): fires on the third evaluation after arming, exactly once.
  reg.arm("test.mech.b", Sched::nth(2));
  int fired_at = -1;
  for (int i = 0; i < 5; ++i) {
    try {
      reg.hit("test.mech.b");
    } catch (const util::FailpointError&) {
      fired_at = i;
    }
  }
  CHECK_EQ(fired_at, 2);
  CHECK_EQ(reg.fired("test.mech.b"), 1u);
  // always(kBadAlloc): every evaluation throws std::bad_alloc until
  // disarmed.
  reg.arm("test.mech.c", Sched::always(Kind::kBadAlloc));
  int bad = 0;
  for (int i = 0; i < 3; ++i) {
    try {
      reg.hit("test.mech.c");
    } catch (const std::bad_alloc&) {
      ++bad;
    }
  }
  CHECK_EQ(bad, 3);
  reg.disarm("test.mech.c");
  reg.hit("test.mech.c");  // disarmed: must not throw
  CHECK_EQ(reg.fired("test.mech.c"), 3u);
  // probabilistic(p, seed): same seed replays the same fire pattern.
  const auto pattern = [&reg](std::uint64_t seed) {
    reg.arm("test.mech.d", Sched::probabilistic(0.5, seed));
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) {
      bool f = false;
      try {
        reg.hit("test.mech.d");
      } catch (const util::FailpointError&) {
        f = true;
      }
      fires.push_back(f);
    }
    reg.disarm("test.mech.d");
    return fires;
  };
  const auto pat_a = pattern(42);
  const auto pat_b = pattern(42);
  const auto pat_c = pattern(43);
  CHECK(pat_a == pat_b);
  CHECK(pat_a != pat_c);  // 2^-64-ish to collide
  bool any = false;
  bool all = true;
  for (const bool f : pat_a) {
    any = any || f;
    all = all && f;
  }
  CHECK(any);
  CHECK(!all);
  // ScopedFailpoint: armed for exactly the scope.
  {
    util::ScopedFailpoint fp("test.mech.e", Sched::always());
    bool scoped_threw = false;
    try {
      reg.hit("test.mech.e");
    } catch (const util::FailpointError&) {
      scoped_threw = true;
    }
    CHECK(scoped_threw);
  }
  reg.hit("test.mech.e");  // scope exit disarmed it
}

/// One clean warm-up workload through every layer — including a durable
/// builder with a checkpoint boundary and one recovery pass, so the
/// wal.*, checkpoint.*, and recover.* sites register — then the
/// registered library sites (test.* names excluded) must be exactly
/// `kSites`.
void test_expected_sites() {
  const PT p{};
  const auto g = fail_graph(16, 80, 7);
  const auto batches = make_batches(g, 8);
  util::ThreadPool pool(1);
  {
    Builder b(16, p,
              {.pool = &pool,
               .compaction = stream::Compaction::kBackground});
    for (const auto& batch : batches) b.ingest(batch);
    b.drain();
    CHECK(csr_bitwise_equal(b.adjacency(),
                            oracle_prefix(16, batches, batches.size())));
  }
  {
    std::string dir = "/tmp/i2a-fp-warmup-XXXXXX";
    CHECK(::mkdtemp(dir.data()) != nullptr);
    stream::Options opts;
    opts.pool = &pool;
    opts.wal_dir = dir;
    opts.checkpoint_every = 4;
    {
      Builder b(16, p, opts);
      for (const auto& batch : batches) b.ingest(batch);
      b.drain();
    }
    Builder r = Builder::recover(16, p, opts);
    CHECK(csr_bitwise_equal(r.adjacency(),
                            oracle_prefix(16, batches, batches.size())));
    for (const auto& name : util::list_dir(dir)) {
      util::remove_file(dir + "/" + name);
    }
    ::rmdir(dir.c_str());
  }
  std::vector<std::string> lib;
  for (const auto& s : Reg::instance().sites()) {
    if (s.rfind("test.", 0) != 0) lib.push_back(s);
  }
  CHECK(lib == kSites);
  if (lib != kSites) {
    std::printf("  registered library sites (drift!):\n");
    for (const auto& s : lib) std::printf("    %s\n", s.c_str());
  }
}

/// Arm `site` once(kind) mid-stream and ingest the rest of the batches,
/// asserting the documented guarantee class at every step. `background`
/// selects the compaction mode the builder was built with;
/// `deterministic` means background tasks run synchronously inside
/// ingest (workerless pool), which makes the deferred-error peek
/// observable at a known point.
void sweep_one(const char* site, Kind kind, bool background,
               bool deterministic, Builder& builder,
               const std::vector<std::vector<graph::Edge>>& batches,
               const sparse::Csr<double>& oracle_arm,
               const sparse::Csr<double>& oracle_full, std::size_t arm_at) {
  auto& reg = Reg::instance();
  for (std::size_t b = 0; b < arm_at; ++b) {
    builder.ingest(batches[b]);
    if (background) builder.drain();
  }
  const auto pin = builder.snapshot();  // pre-failure pin, epoch arm_at
  CHECK_EQ(pin.batches(), arm_at);
  CHECK(pin.pending_error() == nullptr);

  const std::uint64_t fired_before = reg.fired(site);
  const std::uint64_t bp_before = builder.stats().backpressure_events;
  const bool absorbed = std::string(site) == "builder.background.submit";
  std::uint64_t delivered = 0;
  {
    util::ScopedFailpoint fp(site, Sched::once(kind));
    for (std::size_t b = arm_at; b < batches.size(); ++b) {
      const std::uint64_t before = builder.stats().batches;
      bool ingest_threw = false;
      try {
        builder.ingest(batches[b]);
      } catch (...) {
        ingest_threw = true;
        ++delivered;
      }
      if (ingest_threw) {
        // Strong guarantee: the failed ingest consumed nothing (we
        // drained every iteration, so this cannot be a deferred
        // delivery of an earlier failure).
        CHECK_EQ(builder.stats().batches, before);
        builder.ingest(batches[b]);  // once() auto-disarmed: retry succeeds
      }
      CHECK_EQ(builder.stats().batches, before + 1);
      if (background) {
        if (deterministic && !absorbed &&
            reg.fired(site) - fired_before > delivered) {
          // The background merge already failed (the workerless pool ran
          // it inside ingest): the failure must peek — not consume —
          // through snapshot().
          CHECK(builder.snapshot().pending_error() != nullptr);
          CHECK(builder.snapshot().pending_error() != nullptr);
        }
        bool drain_threw = false;
        try {
          builder.drain();
        } catch (...) {
          drain_threw = true;
          ++delivered;
        }
        if (drain_threw) {
          builder.drain();  // exactly-once: a second drain is clean
          CHECK(builder.snapshot().pending_error() == nullptr);
        }
      }
    }
  }
  const std::uint64_t fires = reg.fired(site) - fired_before;
  // Every site must actually be exercised in the modes it exists in —
  // a site the sweep never reaches is a hole, not a pass.
  if (absorbed && !background) {
    CHECK_EQ(fires, 0u);
  } else {
    CHECK_EQ(fires, 1u);
  }
  if (absorbed) {
    CHECK_EQ(delivered, 0u);  // absorbed: nothing ever thrown
    CHECK_EQ(builder.stats().backpressure_events - bp_before, fires);
  } else {
    CHECK_EQ(delivered, fires);  // exactly-once delivery
  }
  // A failed background chain parks; one empty publish replans it.
  builder.ingest(std::vector<graph::Edge>{});
  builder.drain();
  CHECK(csr_bitwise_equal(builder.adjacency(), oracle_full));
  // The pre-failure pin still reads its exact epoch's prefix.
  CHECK(csr_bitwise_equal(pin.materialize(), oracle_arm));
  CHECK(builder.stats().failpoints_hit >= fires);
}

void test_sweep() {
  const PT p{};
  const index_t n = 24;
  const auto g = fail_graph(n, 160, 99);
  const auto batches = make_batches(g, 16);  // 10 batches
  const std::size_t arm_at = 4;
  const auto oracle_arm = oracle_prefix(n, batches, arm_at);
  const auto oracle_full = oracle_prefix(n, batches, batches.size());
  util::ThreadPool workerless(1);  // submit() runs tasks inside ingest
  util::ThreadPool workers(3);
  for (const auto& site_name : kSweepSites) {
    const char* site = site_name.c_str();
    for (const Kind kind : {Kind::kError, Kind::kBadAlloc}) {
      {  // inline mode, single builder: strong guarantee end to end
        Builder b(n, p);
        sweep_one(site, kind, false, true, b, batches, oracle_arm,
                  oracle_full, arm_at);
      }
      {  // background, deterministic (workerless pool)
        Builder b(n, p,
                  {.pool = &workerless,
                   .compaction = stream::Compaction::kBackground});
        sweep_one(site, kind, true, true, b, batches, oracle_arm,
                  oracle_full, arm_at);
      }
      {  // background with real workers (concurrent timing)
        Builder b(n, p,
                  {.pool = &workers,
                   .compaction = stream::Compaction::kBackground});
        sweep_one(site, kind, true, false, b, batches, oracle_arm,
                  oracle_full, arm_at);
      }
    }
  }
}

/// Satellite: every background carry re-chain throws (merge site armed
/// `always`). The builder must stay usable, report each failure exactly
/// once, and settle to the same bytes as inline mode once disarmed.
void test_repeated_background_failures() {
  const PT p{};
  const index_t n = 24;
  const auto g = fail_graph(n, 160, 321);
  const auto batches = make_batches(g, 16);
  util::ThreadPool workerless(1);
  auto& reg = Reg::instance();
  const char* site = "merge.count.scratch";
  const std::uint64_t fired_before = reg.fired(site);
  Builder bg(n, p,
             {.pool = &workerless,
              .compaction = stream::Compaction::kBackground});
  std::uint64_t deliveries = 0;
  {
    util::ScopedFailpoint fp(site, Sched::always());
    for (const auto& batch : batches) {
      bg.ingest(batch);  // merge failures are deferred, never thrown here
      bool threw = false;
      try {
        bg.drain();
      } catch (...) {
        threw = true;
        ++deliveries;
      }
      if (threw) bg.drain();  // exactly once: second drain clean
    }
  }
  const std::uint64_t fires = reg.fired(site) - fired_before;
  CHECK(fires > 0);
  CHECK_EQ(deliveries, fires);
  CHECK_EQ(bg.stats().batches, batches.size());
  // Disarmed: one empty publish replans the parked chain and the ladder
  // settles to byte parity with a clean inline-mode builder.
  bg.ingest(std::vector<graph::Edge>{});
  bg.drain();
  Builder inl(n, p);
  for (const auto& batch : batches) inl.ingest(batch);
  CHECK(csr_bitwise_equal(bg.adjacency(), inl.adjacency()));
  CHECK(csr_bitwise_equal(bg.adjacency(),
                          oracle_prefix(n, batches, batches.size())));
}

/// Satellite: nested ScopedFailpoint scopes on the SAME site compose as
/// last-wins with restore-on-unwind. The inner scope's schedule replaces
/// the outer one for its lifetime; when it unwinds, the outer schedule
/// resumes with its fire-progress frozen — a partially-counted nth()
/// continues from where it stopped, it does not restart from zero.
void test_scoped_rearm_nesting() {
  auto& reg = Reg::instance();
  const std::string site = "test.rearm";
  const std::uint64_t fired_before = reg.fired(site);
  {
    // Outer: fire on the 3rd armed evaluation (0-based nth(2)).
    util::ScopedFailpoint outer(site, Sched::nth(2));
    reg.hit(site.c_str());  // armed evaluation #0: no fire
    {
      // Inner re-arm (last-wins): once(kBadAlloc) displaces the outer
      // schedule entirely for this scope.
      util::ScopedFailpoint inner(site, Sched::once(Kind::kBadAlloc));
      bool bad = false;
      try {
        reg.hit(site.c_str());
      } catch (const std::bad_alloc&) {
        bad = true;
      }
      CHECK(bad);
      reg.hit(site.c_str());  // once() auto-disarmed: clean
      reg.hit(site.c_str());  // inner evaluations must not advance outer
    }
    // Inner unwound: the outer nth(2) resumes at armed evaluation #1 —
    // its progress was frozen, not reset by the inner scope's churn.
    reg.hit(site.c_str());  // armed evaluation #1: no fire
    bool threw = false;
    try {
      reg.hit(site.c_str());  // armed evaluation #2: fires
    } catch (const util::FailpointError&) {
      threw = true;
    }
    CHECK(threw);
  }
  reg.hit(site.c_str());  // both scopes unwound: site is disarmed
  CHECK_EQ(reg.fired(site) - fired_before, 2u);  // inner once + outer nth
  // A non-nested scope restores the disarmed state (the baseline RAII
  // contract, unchanged).
  {
    util::ScopedFailpoint solo(site, Sched::always());
    bool threw = false;
    try {
      reg.hit(site.c_str());
    } catch (const util::FailpointError&) {
      threw = true;
    }
    CHECK(threw);
  }
  reg.hit(site.c_str());
  CHECK_EQ(reg.fired(site) - fired_before, 3u);
}

/// Satellite: the destructor's undelivered-error contract. A builder
/// holding a queued background failure may not be silently destroyed —
/// the owner either drains (delivery) or calls dismiss_pending_errors()
/// (explicit discard, returning the count). Both acknowledged paths must
/// leave the destructor quiet; dismiss on a clean builder is a no-op.
void test_destructor_error_contract() {
  const PT p{};
  const index_t n = 24;
  const auto g = fail_graph(n, 96, 555);
  const auto batches = make_batches(g, 16);  // 6 batches
  util::ThreadPool workerless(1);
  const auto mk = [&] {
    return Builder(n, p,
                   {.pool = &workerless,
                    .compaction = stream::Compaction::kBackground});
  };
  {  // clean builder: nothing to dismiss, destructor quiet
    Builder b = mk();
    for (const auto& batch : batches) b.ingest(batch);
    b.drain();
    CHECK_EQ(b.dismiss_pending_errors(), 0u);
  }
  {  // queued failure, acknowledged by dismiss: destructor quiet
    Builder b = mk();
    b.ingest(batches[0]);  // one settled run at level 0
    {
      util::ScopedFailpoint fp("merge.count.scratch", Sched::always());
      b.ingest(batches[1]);  // carry merge fails inline, failure queued
    }
    CHECK(b.snapshot().pending_error() != nullptr);
    CHECK_EQ(b.dismiss_pending_errors(), 1u);
    CHECK(b.snapshot().pending_error() == nullptr);
    CHECK_EQ(b.dismiss_pending_errors(), 0u);  // idempotent
    // The dismissed chain parked; the builder is still usable and one
    // empty publish replans it back to full-prefix bytes.
    for (std::size_t i = 2; i < batches.size(); ++i) b.ingest(batches[i]);
    b.ingest(std::vector<graph::Edge>{});
    b.drain();
    CHECK(csr_bitwise_equal(b.adjacency(),
                            oracle_prefix(n, batches, batches.size())));
  }
  {  // queued failure, acknowledged by drain: the other legal teardown
    Builder b = mk();
    b.ingest(batches[0]);
    {
      util::ScopedFailpoint fp("merge.count.scratch", Sched::always());
      b.ingest(batches[1]);
    }
    bool threw = false;
    try {
      b.drain();
    } catch (...) {
      threw = true;
    }
    CHECK(threw);
    CHECK_EQ(b.dismiss_pending_errors(), 0u);  // drain already delivered
  }
}

/// The pending_error() interleaving the sweep only grazes: a snapshot
/// pinned in the window *between* the error-queue push (the background
/// merge failed) and the next ingest (the delivery point) must peek the
/// error — repeatedly, without consuming it — and the subsequent ingest
/// must still deliver it exactly once with the batch unconsumed.
void pending_error_window_run(Builder& builder,
                              const std::vector<std::vector<graph::Edge>>&
                                  batches,
                              bool deterministic) {
  const char* site = "builder.ladder.splice";
  builder.ingest(batches[0]);
  {
    util::ScopedFailpoint fp(site, Sched::once());
    // Two runs of equal weight: this publish plans the merge whose
    // splice point is armed. Workerless pools run (and fail) it inside
    // ingest; worker pools race it with us, so poll — inside the armed
    // scope — until the failure lands in the error queue.
    builder.ingest(batches[1]);
    while (builder.snapshot().pending_error() == nullptr) {
      if (deterministic) {
        CHECK(!"workerless pool: error must be queued before ingest returns");
        return;
      }
      std::this_thread::yield();
    }
  }
  // The window: error queued, no ingest yet. Peeks are non-destructive —
  // every snapshot in the window sees the failure, and earlier pins are
  // unaffected.
  const auto pin = builder.snapshot();
  CHECK(pin.pending_error() != nullptr);
  CHECK(builder.snapshot().pending_error() != nullptr);
  CHECK(pin.pending_error() != nullptr);  // the pin's own peek is stable
  // Delivery: the next ingest throws exactly once and consumes nothing.
  const std::uint64_t epoch = builder.stats().batches;
  CHECK_EQ(epoch, 2u);
  bool threw = false;
  try {
    builder.ingest(batches[2]);
  } catch (...) {
    threw = true;
  }
  CHECK(threw);
  CHECK_EQ(builder.stats().batches, epoch);  // the epoch did not advance
  // Exactly once: the queue is now empty — the retry succeeds and a
  // fresh snapshot is clean.
  builder.ingest(batches[2]);
  CHECK_EQ(builder.stats().batches, epoch + 1);
  CHECK(builder.snapshot().pending_error() == nullptr);
  builder.ingest(std::vector<graph::Edge>{});  // replan the parked chain
  builder.drain();
  CHECK(builder.snapshot().pending_error() == nullptr);
  CHECK(csr_bitwise_equal(
      builder.adjacency(),
      oracle_prefix(builder.num_vertices(), batches, 3)));
}

void test_pending_error_window() {
  const PT p{};
  const index_t n = 24;
  const auto g = fail_graph(n, 160, 1234);
  const auto batches = make_batches(g, 16);
  util::ThreadPool workerless(1);
  util::ThreadPool workers(3);
  {  // single builder, deterministic: the merge fails inside ingest
    Builder b(n, p,
              {.pool = &workerless,
               .compaction = stream::Compaction::kBackground});
    pending_error_window_run(b, batches, true);
  }
  {  // single builder, real workers: the window opens asynchronously
    Builder b(n, p,
              {.pool = &workers,
               .compaction = stream::Compaction::kBackground});
    pending_error_window_run(b, batches, false);
  }
}

/// Tentpole satellite: max_pending_merges = 0 must hold the invariant
/// "the ladder is settled after every ingest returns" regardless of
/// background-task timing — the writer stalls and settles inline
/// whenever the compactor is behind.
void test_backpressure_budget_zero() {
  const PT p{};
  const index_t n = 24;
  const auto g = fail_graph(n, 200, 555);
  const auto batches = make_batches(g, 10);  // 20 batches
  util::ThreadPool pool(3);
  Builder b(n, p,
            {.pool = &pool,
             .compaction = stream::Compaction::kBackground,
             .max_pending_merges = 0});
  for (const auto& batch : batches) {
    b.ingest(batch);
    CHECK_EQ(b.stats().pending_merges, 0u);
  }
  b.drain();
  CHECK(csr_bitwise_equal(b.adjacency(),
                          oracle_prefix(n, batches, batches.size())));
}

/// Absorbed-degradation determinism: with the submit site armed
/// `always`, every planned compaction task falls back to an inline
/// merge — one backpressure_event per fire, nothing thrown, bytes
/// intact.
void test_submit_fallback_events() {
  const PT p{};
  const index_t n = 24;
  const auto g = fail_graph(n, 160, 888);
  const auto batches = make_batches(g, 16);
  util::ThreadPool workerless(1);
  auto& reg = Reg::instance();
  const char* site = "builder.background.submit";
  const std::uint64_t fired_before = reg.fired(site);
  Builder b(n, p,
            {.pool = &workerless,
             .compaction = stream::Compaction::kBackground});
  {
    util::ScopedFailpoint fp(site, Sched::always());
    for (const auto& batch : batches) b.ingest(batch);  // never throws
  }
  const std::uint64_t fires = reg.fired(site) - fired_before;
  CHECK(fires > 0);
  CHECK_EQ(b.stats().backpressure_events, fires);
  b.drain();  // clean: fallbacks completed the merges
  CHECK(csr_bitwise_equal(b.adjacency(),
                          oracle_prefix(n, batches, batches.size())));
}

std::uint64_t soak_seed() {
  if (const char* env = std::getenv("I2A_FAILPOINT_SEED")) {
    return std::strtoull(env, nullptr, 0);  // base 0: decimal, 0x…, 0…
  }
  return 20260808ULL;
}

/// Randomized multi-failpoint soak: every site armed probabilistically
/// at once, writer retries per the consumed-prefix model (the epoch
/// says which batch to ingest next — a strong-guarantee throw retries
/// the same batch, a deferred delivery flushes and moves on), then
/// disarm and converge to the oracle.
void soak_run(std::uint64_t seed, Builder& builder,
              const std::vector<std::vector<graph::Edge>>& batches,
              const sparse::Csr<double>& oracle_full) {
  auto& reg = Reg::instance();
  for (std::size_t i = 0; i < kSites.size(); ++i) {
    reg.arm(kSites[i], Sched::probabilistic(0.08, seed + i));
  }
  // Belt-and-braces: no armed site may leak out of this test even if a
  // CHECK path returns early.
  struct DisarmAll {
    ~DisarmAll() { Reg::instance().disarm_all(); }
  } disarm_guard;
  std::size_t attempts = 0;
  std::size_t rejected = 0;
  const std::size_t max_attempts = 10000;
  while (builder.stats().batches < batches.size() &&
         attempts < max_attempts) {
    const auto next = static_cast<std::size_t>(builder.stats().batches);
    try {
      builder.ingest(batches[next]);
    } catch (...) {
      ++rejected;  // strong-guarantee reject or a deferred delivery
    }
    ++attempts;
  }
  CHECK_EQ(builder.stats().batches, batches.size());
  reg.disarm_all();
  // Flush any still-queued deferred failures (one per throw), then
  // settle with an empty publish and a drain.
  std::size_t flushed = 0;
  for (int i = 0; i < 100; ++i) {
    try {
      builder.ingest(std::vector<graph::Edge>{});
      break;
    } catch (...) {
      ++flushed;
    }
  }
  for (int i = 0; i < 100; ++i) {
    try {
      builder.drain();
      break;
    } catch (...) {
      ++flushed;
    }
  }
  CHECK(csr_bitwise_equal(builder.adjacency(), oracle_full));
  std::printf(
      "  soak: %zu attempts, %zu rejected, %zu flushed post-disarm\n",
      attempts, rejected, flushed);
}

void test_soak() {
  const std::uint64_t seed = soak_seed();
  std::printf("test_failpoints: soak seed %llu (I2A_FAILPOINT_SEED)\n",
              static_cast<unsigned long long>(seed));
  const PT p{};
  const index_t n = 24;
  const auto g = fail_graph(n, 200, seed ^ 0xABCDEF);
  const auto batches = make_batches(g, 16);
  const auto oracle_full = oracle_prefix(n, batches, batches.size());
  util::ThreadPool workerless(1);
  {
    Builder b(n, p);
    soak_run(seed, b, batches, oracle_full);
  }
  {
    Builder b(n, p,
              {.pool = &workerless,
               .compaction = stream::Compaction::kBackground});
    soak_run(seed + 101, b, batches, oracle_full);
  }
}

#else  // !I2A_FAILPOINTS_ENABLED

/// Zero-cost proof for the default configurations: a full workload
/// through every layer registers no sites and fires nothing, and the
/// stats plumbing reports zero.
void test_zero_cost_when_disabled() {
  static_assert(I2A_FAILPOINTS_ENABLED == 0);
  const PT p{};
  const index_t n = 16;
  const auto g = fail_graph(n, 80, 7);
  const auto batches = make_batches(g, 8);
  util::ThreadPool pool(2);
  Builder b(n, p,
            {.pool = &pool,
             .compaction = stream::Compaction::kBackground});
  for (const auto& batch : batches) b.ingest(batch);
  b.drain();
  CHECK(csr_bitwise_equal(b.adjacency(),
                          oracle_prefix(n, batches, batches.size())));
  CHECK(Reg::instance().sites().empty());
  CHECK_EQ(util::failpoints_fired_total(), 0u);
  CHECK_EQ(b.stats().failpoints_hit, 0u);
}

#endif  // I2A_FAILPOINTS_ENABLED

}  // namespace

int main() {
#if I2A_FAILPOINTS_ENABLED
  std::printf("test_failpoints: failpoints ENABLED — full injection sweep\n");
  test_registry_mechanics();
  test_expected_sites();
  test_sweep();
  test_repeated_background_failures();
  test_scoped_rearm_nesting();
  test_destructor_error_contract();
  test_pending_error_window();
  test_backpressure_budget_zero();
  test_submit_fallback_events();
  test_soak();
#else
  std::printf("test_failpoints: failpoints disabled — zero-cost branch\n");
  test_zero_cost_when_disabled();
#endif
  return TEST_MAIN_RESULT();
}
