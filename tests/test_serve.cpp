/// \file test_serve.cpp
/// \brief Concurrent-serving differential harness: reader threads pin
///        snapshots *mid-ingest* — no mutex between readers and the
///        writer, unlike test_stream's externally-serialized test — while
///        the writer streams batches and compactions run as background
///        pool tasks. Every pinned snapshot must satisfy the
///        **monotonic-prefix oracle**: its epoch k is some batch count
///        the builder actually passed through, its materialized bytes
///        equal the serial rebuild of exactly batches [0, k), the
///        lock-free `fold_row` BFS on it equals BFS on that rebuild, and
///        per reader the observed epochs never go backwards. Swept across
///        pools {1, 4, 8} × algebras {+.*, min.+}. Runs under the TSan
///        and ASan CI legs — the interleavings are the point — with the
///        workload seed logged (override: I2A_SERVE_SEED) so any failing
///        schedule's inputs replay exactly.
///
/// Workloads use integer-valued weights so every fold is exact in FP:
/// a regrouping or fold-order divergence surfaces as a byte diff, never
/// as reassociation noise.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <thread>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/algorithms/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "stream/adjacency_builder.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

using i2a::test::csr_bitwise_equal;

std::uint64_t serve_seed() {
  if (const char* env = std::getenv("I2A_SERVE_SEED")) {
    return std::strtoull(env, nullptr, 0);  // base 0: decimal, 0x…, 0… all replay
  }
  return 0x51A7E5EEDULL;
}

/// Multigraph workload with small-integer weights (exact folds).
graph::Graph serve_graph(index_t n, index_t m, std::uint64_t seed) {
  auto g = graph::gen::random_multigraph(n, m, seed);
  util::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (auto& e : g.edges()) {
    e.weight = static_cast<double>(1 + rng.next() % 9);
  }
  return g;
}

/// Serial prefix oracles: oracles[k] = rebuild of batches [0, k).
template <typename P>
std::vector<sparse::Csr<double>> prefix_oracles(const P& p,
                                                stream::Weighting weighting,
                                                const graph::Graph& g,
                                                std::size_t batch) {
  const auto& edges = g.edges();
  std::vector<sparse::Csr<double>> oracles;
  graph::Graph prefix(g.num_vertices());
  const auto rebuild = [&] {
    return weighting == stream::Weighting::kWeighted
               ? graph::adjacency_array(
                     p, graph::weighted_incidence_arrays(prefix, p))
               : graph::adjacency_array(p, graph::incidence_arrays(prefix, p));
  };
  oracles.push_back(rebuild());
  for (std::size_t lo = 0; lo < edges.size(); lo += batch) {
    const std::size_t hi = std::min(edges.size(), lo + batch);
    for (std::size_t i = lo; i < hi; ++i) {
      prefix.add_edge(edges[i].src, edges[i].dst, edges[i].weight);
    }
    oracles.push_back(rebuild());
  }
  return oracles;
}

/// What a reader thread records per pin; all CHECKing happens on the
/// main thread after the join (the harness counters are not
/// thread-safe).
struct Observed {
  std::uint64_t k = 0;              ///< snapshot epoch at pin time
  sparse::Csr<double> bytes;        ///< serial materialize of the pin
  std::vector<index_t> bfs;         ///< lock-free fold_row BFS from 0
};

/// One configuration: this thread writes every batch while `readers`
/// threads pin/materialize/traverse snapshots continuously, then the
/// main thread replays every observation against the prefix oracles.
template <typename P>
void run_serve_config(const P& p, stream::AdjacencyBuilder<P>& builder,
                      const std::vector<graph::Edge>& edges, std::size_t batch,
                      const std::vector<sparse::Csr<double>>& oracles,
                      std::size_t readers) {
  std::atomic<bool> done{false};
  std::vector<std::vector<Observed>> observed(readers);
  std::vector<std::thread> pinners;
  pinners.reserve(readers);
  for (std::size_t t = 0; t < readers; ++t) {
    pinners.emplace_back([&, t] {
      do {
        const auto snap = builder.snapshot();
        Observed o;
        o.k = snap.batches();
        o.bytes = snap.materialize();  // serial: no pool interaction
        o.bfs = graph::bfs_levels(snap, 0);
        observed[t].push_back(std::move(o));
        std::this_thread::yield();  // help 1-core schedulers interleave
      } while (!done.load());
    });
  }
  for (std::size_t lo = 0; lo < edges.size(); lo += batch) {
    const std::size_t hi = std::min(edges.size(), lo + batch);
    builder.ingest(std::span<const graph::Edge>(edges.data() + lo, hi - lo));
  }
  done.store(true);
  for (auto& r : pinners) r.join();
  builder.drain();

  const auto max_k = static_cast<std::uint64_t>(oracles.size() - 1);
  for (const auto& per_reader : observed) {
    CHECK(!per_reader.empty());
    std::uint64_t prev = 0;
    for (const auto& o : per_reader) {
      CHECK(o.k <= max_k);
      CHECK(o.k >= prev);  // epochs never go backwards within a reader
      prev = o.k;
      const auto& oracle = oracles[static_cast<std::size_t>(o.k)];
      CHECK(csr_bitwise_equal(o.bytes, oracle));
      CHECK(o.bfs == graph::bfs_levels(oracle, index_t{0}, p.zero()));
    }
  }
  CHECK(csr_bitwise_equal(builder.adjacency(), oracles.back()));
  CHECK_EQ(builder.stats().edges, edges.size());
}

template <typename P>
void sweep_algebra(const P& p, stream::Weighting weighting, const char* name,
                   std::uint64_t seed) {
  const index_t n = 24;
  const index_t m = 240;
  const std::size_t batch = 10;
  const auto g = serve_graph(n, m, seed);
  const auto oracles = prefix_oracles(p, weighting, g, batch);
  const std::size_t readers = 2;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    std::printf("test_serve: algebra=%s pool=%zu seed=%llu\n", name, threads,
                static_cast<unsigned long long>(seed));
    util::ThreadPool pool(threads);
    stream::AdjacencyBuilder<P> builder(
        n, p,
        {.weighting = weighting,
         .pool = &pool,
         .compaction = stream::Compaction::kBackground});
    run_serve_config(p, builder, g.edges(), batch, oracles, readers);
  }
}

}  // namespace

int main() {
  const std::uint64_t seed = serve_seed();
  sweep_algebra(algebra::PlusTimes<double>{}, stream::Weighting::kUnweighted,
                "+.*", seed);
  sweep_algebra(algebra::MinPlus<double>{}, stream::Weighting::kWeighted,
                "min.+", seed ^ 0xD1FFu);
  return TEST_MAIN_RESULT();
}
