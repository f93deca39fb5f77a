// Tests for the per-module compaction session behind every DSL compact()
// (compact/session.h) and its frontier-bounded steps:
//
//  * randomized differential builds of the session (persistent index,
//    frontier-windowed constraints, wall-bounded auto-connect) against the
//    brute-force engine, covering ignore layers, variable edges,
//    avoid-overlap, auto-connect, arrays and extra gaps;
//  * randomized DSL programs run through the VM with the session, with
//    the prefix store on and off, against the tree-walk interpreter on the
//    brute-force engine;
//  * a counter gate: per-step constraint and auto-connect work must not
//    grow with the module (the Sweep column at 40 vs 160 rows);
//  * session lifetime: nothing outlives the entity frame.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "compact/compactor.h"
#include "compact/session.h"
#include "gen/engine.h"
#include "io/layout.h"
#include "lang/interp.h"
#include "obs/obs.h"
#include "primitives/primitives.h"
#include "tech/builtin.h"

namespace amg {
namespace {

using db::Module;
using db::makeShape;

const tech::Technology& T() { return tech::bicmos1u(); }

// --------------------------------------------------------------------------
// C++ builds: session vs brute force
// --------------------------------------------------------------------------

/// A random arriving object: 1–4 rectangles on conducting and cut layers,
/// nets drawn from a small pool (so same-potential abutment and
/// auto-connect fire), random variable edges and avoid-overlap flags, and
/// now and then a primitive-built cell with an enclosure and a cut array.
Module randomObject(std::mt19937& rng) {
  const char* layers[] = {"metal1", "metal2", "poly", "pdiff", "ndiff"};
  const char* nets[] = {"", "", "a", "b", "bus"};
  Module o(T(), "obj");
  if (rng() % 5 == 0) {
    prim::inbox(o, T().layer(rng() % 2 ? "pdiff" : "poly"),
                Coord{2000 + static_cast<Coord>(rng() % 4) * 1000},
                Coord{2000 + static_cast<Coord>(rng() % 4) * 1000});
    prim::inbox(o, T().layer("metal1"));
    prim::array(o, T().layer("contact"));
    if (rng() % 2)
      for (const db::ShapeId id : o.shapeIds())
        o.shape(id).varEdges = db::EdgeFlags::allVariable();
    return o;
  }
  std::uniform_int_distribution<Coord> sz(1000, 7000);
  std::uniform_int_distribution<Coord> off(-3000, 3000);
  const int n = 1 + static_cast<int>(rng() % 4);
  for (int i = 0; i < n; ++i) {
    auto& s = o.shape(o.addShape(makeShape(
        Box::fromSize(off(rng), off(rng), sz(rng), sz(rng)), T().layer(layers[rng() % 5]),
        o.net(nets[rng() % 5]))));
    if (rng() % 3 == 0) s.varEdges = db::EdgeFlags::allVariable();
    if (rng() % 7 == 0) s.avoidOverlap = true;
  }
  return o;
}

compact::Options randomOptions(std::mt19937& rng, compact::Engine engine) {
  compact::Options opt;
  opt.engine = engine;
  const char* ignorable[] = {"poly", "pdiff", "metal1"};
  for (const char* l : ignorable)
    if (rng() % 4 == 0) opt.ignoreLayers.push_back(T().layer(l));
  opt.enableVariableEdges = rng() % 5 != 0;
  opt.autoConnect = rng() % 6 != 0;
  if (rng() % 8 == 0) opt.extraGap = 500;
  return opt;
}

void expectSameModules(const Module& a, const Module& b, const std::string& what) {
  ASSERT_EQ(a.rawSize(), b.rawSize()) << what;
  for (db::ShapeId id = 0; id < a.rawSize(); ++id) {
    ASSERT_EQ(a.isAlive(id), b.isAlive(id)) << what << " shape " << id;
    if (!a.isAlive(id)) continue;
    EXPECT_EQ(a.shape(id).box, b.shape(id).box) << what << " shape " << id;
    EXPECT_EQ(a.shape(id).net, b.shape(id).net) << what << " shape " << id;
  }
  EXPECT_EQ(io::serializeLayout(a), io::serializeLayout(b)) << what;
}

TEST(SessionCompaction, RandomBuildsMatchBruteForce) {
  // Long runs in one direction grow rows and columns whose far side the
  // frontier windows must never need; direction changes put new objects
  // against a side whose frontier lies deep behind the index bounds.
  std::mt19937 rng(1414);
  const Dir dirs[] = {Dir::West, Dir::South, Dir::East, Dir::North};
  for (int trial = 0; trial < 30; ++trial) {
    Module mi(T(), "t"), mb(T(), "t");
    compact::Compactor si(mi), sb(mb, compact::Options{{}, true, true, 0,
                                                       compact::Engine::BruteForce});
    Dir dir = dirs[rng() % 4];
    const int steps = 20 + static_cast<int>(rng() % 40);
    for (int i = 0; i < steps; ++i) {
      if (rng() % 6 == 0) dir = dirs[rng() % 4];
      const Module obj = randomObject(rng);
      const std::uint32_t seed = rng();
      std::mt19937 r1(seed), r2(seed);
      const compact::Options oi = randomOptions(r1, compact::Engine::Indexed);
      const compact::Options ob = randomOptions(r2, compact::Engine::BruteForce);
      compact::Result ri, rb;
      bool threwI = false, threwB = false;
      try {
        ri = si.compact(obj, dir, oi);
      } catch (const Error&) {
        threwI = true;
      }
      try {
        rb = sb.compact(obj, dir, ob);
      } catch (const Error&) {
        threwB = true;
      }
      ASSERT_EQ(threwI, threwB) << "trial " << trial << " step " << i;
      if (threwI) break;  // a half-applied step ends both sessions alike
      const std::string at = "trial " + std::to_string(trial) + " step " + std::to_string(i);
      ASSERT_EQ(ri.translation, rb.translation) << at;
      EXPECT_EQ(ri.edgeMoves, rb.edgeMoves) << at;
      EXPECT_EQ(ri.autoConnects, rb.autoConnects) << at;
      EXPECT_EQ(ri.idMap, rb.idMap) << at;
    }
    expectSameModules(mi, mb, "trial " + std::to_string(trial));
  }
}

TEST(SessionCompaction, SweepColumnWithTallTailMatchesBruteForce) {
  // The benchmark's Sweep shape: a long row of identical cells with the
  // poly ignored (auto-connect candidates on every step), then a tail
  // whose gate is taller than every wall — the partner scan must search
  // the uncovered cross-axis gap instead of the whole row.
  for (const Coord tailW : {Coord{4000}, Coord{6000}, Coord{9000}}) {
    compact::Options oi, ob;
    oi.ignoreLayers = ob.ignoreLayers = {T().layer("poly")};
    ob.engine = compact::Engine::BruteForce;
    Module mi(T(), "Sweep"), mb(T(), "Sweep");
    prim::inbox(mi, T().layer("pdiff"), Coord{4000}, Coord{4000});
    prim::inbox(mb, T().layer("pdiff"), Coord{4000}, Coord{4000});
    compact::Compactor si(mi, oi), sb(mb, ob);
    for (int k = 0; k <= 60; ++k) {
      Module cell(T(), "Cell");
      prim::tworects(cell, T().layer("poly"), T().layer("pdiff"), k < 60 ? 6000 : tailW,
                     Coord{2000});
      prim::inbox(cell, T().layer("metal1"));
      const auto ri = si.compact(cell, Dir::East);
      const auto rb = sb.compact(cell, Dir::East);
      ASSERT_EQ(ri.translation, rb.translation) << "tail " << tailW << " step " << k;
      ASSERT_EQ(ri.autoConnects, rb.autoConnects) << "tail " << tailW << " step " << k;
    }
    expectSameModules(mi, mb, "tail " + std::to_string(tailW));
  }
}

TEST(SessionCompaction, SameNetRailsAutoConnectAcrossTheFrontier) {
  // Same-net metal1 rails of varying height in one band, under metal2
  // segments alternating between nets: same-net walls (gap 0) and
  // spacing-rule walls bound every partner scan.
  compact::Options oi, ob;
  ob.engine = compact::Engine::BruteForce;
  Module mi(T(), "rails"), mb(T(), "rails");
  compact::Compactor si(mi, oi), sb(mb, ob);
  std::mt19937 rng(7);
  for (int k = 0; k < 40; ++k) {
    Module o(T(), "seg");
    const Coord h = 2000 + static_cast<Coord>(rng() % 3) * 1000;
    o.addShape(makeShape(Box::fromSize(0, 0, 3000, h), T().layer("metal1"), o.net("vdd")));
    o.addShape(makeShape(Box::fromSize(0, 6000, 3000, 2000), T().layer("metal2"),
                         o.net(k % 2 ? "x" : "vdd")));
    const auto ri = si.compact(o, Dir::West);
    const auto rb = sb.compact(o, Dir::West);
    ASSERT_EQ(ri.translation, rb.translation) << "step " << k;
    ASSERT_EQ(ri.autoConnects, rb.autoConnects) << "step " << k;
  }
  expectSameModules(mi, mb, "rails");
}

// --------------------------------------------------------------------------
// DSL programs: VM + session (prefix on/off) vs tree walker + brute force
// --------------------------------------------------------------------------

/// A random DSL library: three cell entities (gate, contact row, raw
/// rectangles with nets, variable edges and avoid-overlap), and a Top
/// entity compacting them in direction runs with random ignore layers,
/// interleaved with primitives on self (which invalidate the session) and
/// VARIANT blocks (which roll it back).
std::string randomProgram(std::mt19937& rng) {
  const char* dirs[] = {"WEST", "EAST", "SOUTH", "NORTH"};
  const char* ignorable[] = {"\"poly\"", "\"pdiff\"", "\"metal1\""};
  const char* sides[] = {"\"all\"", "\"left\"", "\"right\"", "\"top\"", "\"bottom\""};
  std::ostringstream s;
  s << "ENT Gate(<W>, <L>)\n"
    << "  TWORECTS(\"poly\", \"pdiff\", W, L" << (rng() % 2 ? ", \"g\"" : "") << ")\n"
    << "  INBOX(\"metal1\")\n";
  if (rng() % 2) s << "  varedge(\"pdiff\", " << sides[rng() % 5] << ")\n";
  s << "ENT Row(<W>, which)\n"
    << "  INBOX(\"pdiff\", L = W)\n"
    << "  setnet(\"pdiff\", which)\n"
    << "  INBOX(\"metal1\")\n"
    << "  setnet(\"metal1\", which)\n"
    << "  ARRAY(\"contact\")\n";
  if (rng() % 2) s << "  varedge(\"metal1\", " << sides[rng() % 5] << ")\n";
  s << "ENT Rects(w, h)\n"
    << "  WIRE(\"metal1\", 0, 0, w, 0, h, \"bus\")\n"
    << "  WIRE(\"metal2\", 0, h + 2, w, h + 2, 2, \"n\")\n";
  if (rng() % 3 == 0) s << "  avoidoverlap(\"metal2\")\n";
  s << "ENT Top(n)\n"
    << "  INBOX(\"pdiff\", 4, 4)\n";
  int dir = static_cast<int>(rng() % 4);
  const int steps = 6 + static_cast<int>(rng() % 18);
  for (int i = 0; i < steps; ++i) {
    if (rng() % 5 == 0) dir = static_cast<int>(rng() % 4);
    switch (rng() % 3) {
      case 0:
        s << "  c = Gate(W = " << 3 + rng() % 6 << ", L = " << 2 + rng() % 2 << ")\n";
        break;
      case 1:
        s << "  c = Row(W = " << 3 + rng() % 5 << ", which = \""
          << (rng() % 2 ? "s" : "d") << "\")\n";
        break;
      default:
        s << "  c = Rects(w = " << 4 + rng() % 8 << ", h = " << 2 + rng() % 3 << ")\n";
    }
    std::string ignore;
    for (const char* l : ignorable)
      if (rng() % 3 == 0) ignore += std::string(", ") + l;
    if (rng() % 7 == 0) {
      s << "  VARIANT\n"
        << "    compact(c, " << dirs[dir] << ignore << ")\n"
        << "    IF n > " << rng() % 3 << " THEN\n"
        << "      ERROR(\"roll back\")\n"
        << "    ENDIF\n"
        << "  OR\n"
        << "    compact(c, " << dirs[(dir + 1) % 4] << ignore << ")\n"
        << "  ENDVARIANT\n";
    } else {
      s << "  compact(c, " << dirs[dir] << ignore << ")\n";
    }
    if (rng() % 9 == 0) {
      const unsigned y = rng() % 20;
      s << "  WIRE(\"metal2\", 0, " << y << ", 6, " << y << ", 2)\n";
    }
  }
  return s.str();
}

struct Outcome {
  bool ok = false;
  std::string diag;
  std::vector<std::uint8_t> bytes;
};

std::vector<Outcome> runJobs(const std::vector<gen::Job>& jobs, lang::Engine interp,
                             bool indexed, bool prefix) {
  obs::SpatialEngineConfig& se = obs::spatialEngines();
  const bool was = se.compactIndexed;
  se.compactIndexed = indexed;
  gen::EngineConfig cfg;
  cfg.threads = 1;
  cfg.useCache = false;
  cfg.prefixCache = prefix;
  cfg.interp = interp;
  gen::BatchEngine engine(T(), cfg);
  std::vector<Outcome> out;
  // With the prefix store on, the second pass resumes every build from
  // recorded steps.
  for (int pass = 0; pass < (prefix ? 2 : 1); ++pass) {
    out.clear();
    for (const gen::JobResult& r : engine.run(jobs).jobs)
      out.push_back({r.ok, r.error(),
                     r.layout ? io::serializeLayout(*r.layout) : std::vector<std::uint8_t>{}});
  }
  se.compactIndexed = was;
  return out;
}

TEST(SessionCompaction, RandomDslProgramsMatchTreeWalkBruteForce) {
  std::mt19937 rng(2026);
  int built = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const std::string src = randomProgram(rng);
    std::vector<gen::Job> jobs;
    for (int n = 0; n < 3; ++n) {
      gen::Job j;
      j.name = "top" + std::to_string(n);
      j.script = src;
      j.entity = "Top";
      j.params = {{"n", std::to_string(n)}};
      jobs.push_back(j);
    }
    const auto oracle = runJobs(jobs, lang::Engine::Tree, false, false);
    for (const bool prefix : {false, true}) {
      const auto got = runJobs(jobs, lang::Engine::Vm, true, prefix);
      ASSERT_EQ(got.size(), oracle.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].ok, oracle[i].ok)
            << "trial " << trial << " job " << i << " prefix " << prefix << ": "
            << got[i].diag << " vs " << oracle[i].diag << "\n" << src;
        EXPECT_EQ(got[i].diag, oracle[i].diag) << "trial " << trial << " job " << i;
        EXPECT_TRUE(got[i].bytes == oracle[i].bytes)
            << "trial " << trial << " job " << i << " prefix " << prefix << "\n" << src;
      }
    }
    for (const Outcome& o : oracle) built += o.ok;
  }
  // The generator must mostly produce buildable programs, or the
  // comparison above proves little.
  EXPECT_GT(built, 24 * 3 / 2);
}

// --------------------------------------------------------------------------
// Frontier cost gate and session lifetime
// --------------------------------------------------------------------------

const char* kSweep = R"(
ENT Cell(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L)
  INBOX("metal1")

ENT Sweep(rows, <P>, <W>)
  INBOX("pdiff", 4, 4)
  FOR k = 1 TO rows DO
    c = Cell(W = P, L = 2)
    compact(c, EAST, "poly")
  ENDFOR
  tail = Cell(W = W, L = 2)
  compact(tail, EAST, "poly")
)";

struct StepWork {
  double candidatesPerStep = 0;
  double safetyPerStep = 0;
};

StepWork sweepWork(int rows) {
  obs::Stats::global().reset();
  obs::enableStats(true);
  lang::Interpreter interp(T());
  interp.load(kSweep);
  const Module m = interp.instantiate(
      "Sweep", {{"rows", lang::Value::number(rows)},
                {"P", lang::Value::number(6)},
                {"W", lang::Value::number(8)}});
  obs::enableStats(false);
  EXPECT_GT(m.shapeCount(), static_cast<std::size_t>(3 * rows));
  const auto& st = obs::Stats::global();
  const double steps = static_cast<double>(st.value("compact.steps"));
  EXPECT_EQ(steps, rows + 1.0);
  return {static_cast<double>(st.value("compact.constraints.candidates")) / steps,
          static_cast<double>(st.value("compact.autoconnect.safety_candidates")) / steps};
}

TEST(SessionCompaction, PerStepWorkDoesNotGrowWithRows) {
  // Cold DSL compaction used to examine about half the module per step
  // (band queries across the whole row, an O(distance) safety query per
  // in-band poly shape).  The frontier bounds both: per-step work at 160
  // rows stays within 1.5x of the 40-row figure.
  const StepWork w40 = sweepWork(40);
  const StepWork w160 = sweepWork(160);
  EXPECT_GT(w40.candidatesPerStep, 0);
  EXPECT_GT(w40.safetyPerStep, 0);
  EXPECT_LE(w160.candidatesPerStep, 1.5 * w40.candidatesPerStep)
      << w40.candidatesPerStep << " -> " << w160.candidatesPerStep;
  EXPECT_LE(w160.safetyPerStep, 1.5 * w40.safetyPerStep)
      << w40.safetyPerStep << " -> " << w160.safetyPerStep;
}

TEST(SessionCompaction, NoSessionOutlivesTheEntityFrame) {
  for (const lang::Engine e : {lang::Engine::Vm, lang::Engine::Tree}) {
    lang::Interpreter interp(T());
    interp.setEngine(e);
    interp.load(kSweep);
    (void)interp.instantiate("Sweep", {{"rows", lang::Value::number(12)},
                                       {"P", lang::Value::number(6)},
                                       {"W", lang::Value::number(8)}});
    EXPECT_EQ(compact::liveSessions(), 0u);
    // A failing frame abandons its session too.
    interp.load("ENT Bad()\n  c = Cell(W = 6, L = 2)\n  compact(c, EAST)\n"
                "  compact(c, WEST)\n  ERROR(\"stop\")\n" +
                std::string(kSweep));
    EXPECT_THROW((void)interp.instantiate("Bad", {}), Error);
    EXPECT_EQ(compact::liveSessions(), 0u);
  }
}

TEST(SessionCompaction, OutOfBandMutationStartsAFreshSession) {
  // A primitive between two compact() calls changes self's stamp; the
  // next step must index the current bytes, not the stale session's.
  const char* src = R"(
ENT Cell(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L)
  INBOX("metal1")
ENT Grow(n)
  FOR k = 1 TO n DO
    c = Cell(W = 6, L = 2)
    compact(c, WEST, "poly")
    WIRE("metal2", 0 - 8 * k, 0 - 6, 0 - 8 * k + 4, 0 - 6, 2)
  ENDFOR
)";
  std::vector<gen::Job> jobs(1);
  jobs[0].name = "grow";
  jobs[0].script = src;
  jobs[0].entity = "Grow";
  jobs[0].params = {{"n", "12"}};
  const auto oracle = runJobs(jobs, lang::Engine::Tree, false, false);
  ASSERT_TRUE(oracle[0].ok) << oracle[0].diag;
  for (const bool prefix : {false, true}) {
    const auto got = runJobs(jobs, lang::Engine::Vm, true, prefix);
    ASSERT_TRUE(got[0].ok) << got[0].diag;
    EXPECT_TRUE(got[0].bytes == oracle[0].bytes) << "prefix " << prefix;
  }
}

}  // namespace
}  // namespace amg
