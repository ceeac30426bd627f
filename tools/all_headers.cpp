/// \file tools/all_headers.cpp
/// \brief One TU that includes every public header. Two jobs: (1) an
///        include-hygiene check — every header must be self-contained
///        and mutually compatible in a single TU under the strict
///        warning set; (2) the `lint` target's input — clang-tidy walks
///        this file to see the whole header surface at once (the
///        headers are header-only, so no other TU covers them all).
///        Keep the list in sync with include/i2a (sorted, like `find`).

#include "algebra/any_pair.hpp"
#include "algebra/carriers.hpp"
#include "algebra/concepts.hpp"
#include "algebra/counterexamples.hpp"
#include "algebra/non_examples.hpp"
#include "algebra/pairs.hpp"
#include "algebra/properties.hpp"
#include "algebra/set_algebra.hpp"
#include "core/associative_array.hpp"
#include "core/multiply.hpp"
#include "core/printing.hpp"
#include "core/selection.hpp"
#include "core/types.hpp"
#include "d4m/explode.hpp"
#include "d4m/goldens.hpp"
#include "d4m/music_dataset.hpp"
#include "graph/algorithms/apsp.hpp"
#include "graph/algorithms/bfs.hpp"
#include "graph/algorithms/pagerank.hpp"
#include "graph/algorithms/sssp.hpp"
#include "graph/algorithms/triangles.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/incidence.hpp"
#include "graph/validators.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/merge.hpp"
#include "sparse/spgemm.hpp"
#include "stream/adjacency_builder.hpp"
#include "stream/checkpoint.hpp"
#include "stream/pinned_snapshot.hpp"
#include "stream/wal.hpp"
#include "util/contract.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

int main() { return 0; }
