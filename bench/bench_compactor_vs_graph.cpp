// E7 (§2.3 claim): successive compaction vs. the general constraint-graph
// approach.
//
// "In contrast to general compaction approaches [17, 18], the compaction is
// done successively by involving only one new object in each step.  Thus,
// only outer edges of the main object have to be kept in the data structure
// and no general edge graph must be created.  This speeds up the compaction
// time."
//
// Three engines build the same row of contact-row-like objects:
//   brute      — successive compactor on Engine::BruteForce, the all-pairs
//                oracle
//   session    — the production outer-edge compactor: one compact::Compactor
//                kept across steps (windowed constraint queries on an
//                incremental index, DESIGN.md §4e)
//   graph      — baseline: merge then re-run full constraint-graph solve
// The successive engines run with the graph baseline's feature set (no
// variable edges, no auto-connect), so all three solve the same problem and
// must reach the same extent (the bench exits 1 when they do not).  The
// report prints the best of kReps wall times per engine and the common
// extent per object count.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "baseline/graph_compactor.h"
#include "compact/compactor.h"
#include "tech/builtin.h"

using namespace amg;

namespace {

const tech::Technology& T() { return tech::bicmos1u(); }

/// Objects of varying height on alternating nets: representative of module
/// construction (each object is a small multi-rect structure).
std::vector<db::Module> makeObjects(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Coord> h(2000, 12000);
  std::vector<db::Module> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    db::Module o(T(), "obj");
    const Coord hh = h(rng);
    const auto net = o.net("n" + std::to_string(i % 5));
    o.addShape(db::makeShape(Box{0, 0, 2200, hh}, T().layer("metal1"), net));
    o.addShape(db::makeShape(Box{600, hh / 2 - 500, 1600, hh / 2 + 500},
                             T().layer("contact"), net));
    o.addShape(db::makeShape(Box{0, 0, 2200, hh}, T().layer("poly"), net));
    out.push_back(std::move(o));
  }
  return out;
}

/// The feature set all three engines share (see the file comment).
compact::Options successiveOptions(compact::Engine engine) {
  compact::Options opt;
  opt.enableVariableEdges = false;
  opt.autoConnect = false;
  opt.engine = engine;
  return opt;
}

/// One build per engine, each filling a fresh module from `objs`.
void buildBrute(db::Module& m, const std::vector<db::Module>& objs) {
  const compact::Options opt = successiveOptions(compact::Engine::BruteForce);
  for (const auto& o : objs) compact::compact(m, o, Dir::West, opt);
}

void buildSession(db::Module& m, const std::vector<db::Module>& objs) {
  compact::Compactor session(m, successiveOptions(compact::Engine::Indexed));
  for (const auto& o : objs) session.compact(o, Dir::West);
}

void buildGraph(db::Module& m, const std::vector<db::Module>& objs) {
  for (const auto& o : objs) baseline::graphCompactStep(m, o, Dir::West);
}

constexpr int kReps = 3;

/// Best-of-kReps wall time (s) of `build`; the extent of the last build.
template <typename Build>
double timeBuild(Build build, const std::vector<db::Module>& objs, Coord* extent) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    db::Module m(T(), "e7");
    const auto t0 = std::chrono::steady_clock::now();
    build(m, objs);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    *extent = m.bbox().width();
  }
  return best;
}

/// Prints the E7 table; false when the engines disagree on an extent.
bool reportE7() {
  std::printf("=== E7 / §2.3: successive vs. constraint-graph compaction ===\n");
  std::printf("%8s %12s %14s %12s %13s %13s %12s\n", "objects", "brute (ms)",
              "session (ms)", "graph (ms)", "speedup g/b", "speedup g/s", "extent (um)");
  bool agree = true;
  for (const int n : {20, 50, 100, 200, 400}) {
    const auto objs = makeObjects(n, 42);
    Coord eb = 0, es = 0, eg = 0;
    const double tb = timeBuild(buildBrute, objs, &eb);
    const double ts = timeBuild(buildSession, objs, &es);
    const double tg = timeBuild(buildGraph, objs, &eg);
    std::printf("%8d %12.2f %14.2f %12.2f %12.1fx %12.1fx %12.2f\n", n, tb * 1e3,
                ts * 1e3, tg * 1e3, tg / tb, tg / ts,
                static_cast<double>(es) / kMicron);
    if (eb != es || eb != eg) {
      agree = false;
      std::printf("*** EXTENT MISMATCH: brute %ld, session %ld, graph %ld nm ***\n",
                  static_cast<long>(eb), static_cast<long>(es), static_cast<long>(eg));
    }
  }
  std::printf("(paper claim: the successive method \"speeds up the compaction "
              "time\" — the ratio grows with module size)\n\n");
  return agree;
}

template <void (*Build)(db::Module&, const std::vector<db::Module>&)>
void BM_Build(benchmark::State& state) {
  const auto objs = makeObjects(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    db::Module m(T(), "e7");
    Build(m, objs);
    benchmark::DoNotOptimize(m.area());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Build<buildBrute>)->Name("BM_SuccessiveBrute")->Range(16, 256)->Complexity();
BENCHMARK(BM_Build<buildSession>)->Name("BM_SuccessiveSession")->Range(16, 256)->Complexity();
BENCHMARK(BM_Build<buildGraph>)->Name("BM_GraphBaseline")->Range(16, 128)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  const bool agree = reportE7();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return agree ? 0 : 1;
}
