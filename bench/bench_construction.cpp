/// \file bench_construction.cpp
/// \brief PERF1: incidence→adjacency construction throughput (the paper's
///        central operation) across graph families, scales, and the seven
///        operator pairs.
///
/// The paper reports no timings; this suite characterizes the
/// implementation the way a GABB-venue artifact would. Since PR 3 every
/// `BM_Construct_*` family point runs the **whole pipeline** per
/// iteration — sort-free incidence assembly plus the SpGEMM product —
/// and splits the two phases into `assembly_s` / `spgemm_s` counters
/// (average seconds per iteration). `edges_per_sec` (= items/s) is the
/// pipeline rate and `allocs_per_row` tracks heap traffic per adjacency
/// row. The pre-PR-3 assembly (COO staging + a serial stable sort) ran
/// here as `BM_ConstructLegacy_*` baselines until the sort-free engine's
/// lead was settled; their last numbers stay frozen in the committed
/// BENCH_construction.json, and the stable-sort path itself lives on
/// only as a test oracle (tests/reference_oracles.hpp).

#define I2A_BENCH_COUNT_ALLOCS
#include "bench_common.hpp"

#include "algebra/pairs.hpp"
#include "graph/incidence.hpp"
#include "sparse/spgemm.hpp"
#include "util/timer.hpp"

namespace {

using namespace i2a;

/// Full pipeline per iteration: assembly (graph → Eout/Ein) then product
/// (A = Eᵀout ⊕.⊗ Ein), with per-phase wall timings split into counters.
template <typename P>
void construction_bench(benchmark::State& state, const P& p,
                        const graph::Graph& g) {
  std::uint64_t allocs = 0;
  double assembly_s = 0.0;
  double spgemm_s = 0.0;
  for (auto _ : state) {
    const auto before = bench::alloc_count();
    util::Timer phase;
    const auto inc = graph::incidence_arrays(g, p);
    assembly_s += phase.seconds();
    phase.reset();
    auto a = graph::adjacency_array(p, inc);
    spgemm_s += phase.seconds();
    benchmark::DoNotOptimize(a);
    allocs += bench::alloc_count() - before;
  }
  const auto iters = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  state.counters["edges"] = static_cast<double>(g.num_edges());
  state.counters["vertices"] = static_cast<double>(g.num_vertices());
  state.counters["edges_per_sec"] = benchmark::Counter(
      iters * static_cast<double>(g.num_edges()), benchmark::Counter::kIsRate);
  state.counters["assembly_s"] =
      benchmark::Counter(assembly_s, benchmark::Counter::kAvgIterations);
  state.counters["spgemm_s"] =
      benchmark::Counter(spgemm_s, benchmark::Counter::kAvgIterations);
  state.counters["allocs_per_row"] =
      static_cast<double>(allocs) /
      (iters * static_cast<double>(g.num_vertices() > 0 ? g.num_vertices()
                                                        : 1));
}

void BM_Construct_RMAT_PlusTimes(benchmark::State& state) {
  const auto g = bench::rmat_graph(static_cast<int>(state.range(0)), 8, 7);
  construction_bench(state, algebra::PlusTimes<double>{}, g);
}
BENCHMARK(BM_Construct_RMAT_PlusTimes)->DenseRange(8, 14, 2);

void BM_Construct_RMAT_MinPlus(benchmark::State& state) {
  const auto g = bench::rmat_graph(static_cast<int>(state.range(0)), 8, 7);
  construction_bench(state, algebra::MinPlus<double>{}, g);
}
BENCHMARK(BM_Construct_RMAT_MinPlus)->DenseRange(8, 14, 2);

void BM_Construct_RMAT_MaxMin(benchmark::State& state) {
  const auto g = bench::rmat_graph(static_cast<int>(state.range(0)), 8, 7);
  construction_bench(state, algebra::MaxMin<double>{}, g);
}
BENCHMARK(BM_Construct_RMAT_MaxMin)->DenseRange(8, 14, 2);

void BM_Construct_ER_PlusTimes(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto g = graph::gen::erdos_renyi(n, 8.0 / static_cast<double>(n), 5);
  construction_bench(state, algebra::PlusTimes<double>{}, g);
}
BENCHMARK(BM_Construct_ER_PlusTimes)->RangeMultiplier(4)->Range(256, 16384);

void BM_Construct_Bipartite_PlusTimes(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto g = graph::gen::random_bipartite(n, n, 8, 11);
  construction_bench(state, algebra::PlusTimes<double>{}, g);
}
BENCHMARK(BM_Construct_Bipartite_PlusTimes)
    ->RangeMultiplier(4)
    ->Range(256, 16384);

// Assembly only: graph → incidence arrays, no product — the sort-free
// identity-ramp build undiluted by the SpGEMM.
void BM_Construct_Assembly_RMAT(benchmark::State& state) {
  const auto g = bench::rmat_graph(static_cast<int>(state.range(0)), 8, 7);
  const algebra::PlusTimes<double> p;
  for (auto _ : state) {
    auto inc = graph::incidence_arrays(g, p);
    benchmark::DoNotOptimize(inc);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(g.num_edges()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Construct_Assembly_RMAT)->DenseRange(8, 14, 2);

// General COO→CSR assembly on a duplicate-heavy, shuffled buffer — the
// worst case for the two-pass engine (nothing is pre-grouped, every row
// needs the sort + fold pass). Entries/s in items/s; the per-iteration
// buffer copy is included.
sparse::Coo<double> shuffled_dup_coo(index_t entries) {
  util::Xoshiro256 rng(29);
  const index_t nrows = entries / 8 > 0 ? entries / 8 : 1;
  sparse::Coo<double> coo(nrows, 256);
  coo.reserve(static_cast<std::size_t>(entries));
  for (index_t k = 0; k < entries; ++k) {
    coo.push(rng.between(0, nrows - 1), rng.between(0, 255),
             rng.uniform(0.1, 9.9));
  }
  return coo;
}

void BM_Construct_FromCoo(benchmark::State& state) {
  const auto master = shuffled_dup_coo(state.range(0));
  for (auto _ : state) {
    auto coo = master;
    auto m = sparse::Csr<double>::from_coo(std::move(coo),
                                           sparse::DupPolicy::kSum);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<index_t>(master.nnz()));
}
BENCHMARK(BM_Construct_FromCoo)->RangeMultiplier(4)->Range(16384, 262144);

// End-to-end: graph -> incidence arrays -> adjacency (includes the
// incidence-assembly cost a data pipeline pays). Same measurement as the
// pre-PR-3 suite, so this point is comparable across committed
// BENCH_construction.json revisions.
void BM_Construct_EndToEnd(benchmark::State& state) {
  const auto g = bench::rmat_graph(static_cast<int>(state.range(0)), 8, 7);
  const algebra::PlusTimes<double> p;
  for (auto _ : state) {
    auto a = graph::build_adjacency(g, p);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(g.num_edges()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Construct_EndToEnd)->DenseRange(8, 14, 2);

// Repeated-product form: forward + reverse adjacency from one incidence
// pair with the CSC views prebuilt once — the shape a serving layer that
// answers both directions amortizes.
void BM_Construct_PrebuiltViews(benchmark::State& state) {
  const auto g = bench::rmat_graph(static_cast<int>(state.range(0)), 8, 7);
  const algebra::PlusTimes<double> p;
  const auto inc = graph::incidence_arrays(g, p);
  const graph::IncidenceViews<double> views(inc);
  for (auto _ : state) {
    auto fwd = graph::adjacency_array(p, views, inc);
    auto rev = graph::reverse_adjacency_array(p, views, inc);
    benchmark::DoNotOptimize(fwd);
    benchmark::DoNotOptimize(rev);
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 *
          static_cast<double>(g.num_edges()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Construct_PrebuiltViews)->DenseRange(8, 14, 2);

}  // namespace

int main(int argc, char** argv) {
  return i2a::bench::run_benchmarks_json(argc, argv,
                                         "BENCH_construction.json");
}
