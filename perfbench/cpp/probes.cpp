// Per-layer probes of the traced run: each metric times one public call of
// one layer on inputs taken from the workload (or, for the compactor
// replay, on the Sweep column every workload's input carries).
#include "probes.h"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "analysis/analyzer.h"
#include "analysis/bcverify.h"
#include "capi/protocol.h"
#include "compact/compactor.h"
#include "compact/prefix.h"
#include "gen/cache.h"
#include "io/layout.h"
#include "lang/compiler.h"
#include "lang/interp.h"
#include "primitives/primitives.h"

namespace perfbench {

using namespace amg;

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Time `fn` `reps` times inside spans named `name`; median in µs.
template <typename Fn>
double timeUs(SpanLog* log, const char* name, int parent, std::int64_t req,
              int reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    Scoped s(log, name, parent, req);
    const std::int64_t t0 = nowNs();
    fn();
    us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
  }
  return median(us);
}

/// A job's raw manifest parameters bound the way gen::BatchEngine binds
/// them: text that parses whole as a number is a number, else a string.
std::vector<std::pair<std::string, lang::Value>> bindParams(const gen::Job& j) {
  std::vector<std::pair<std::string, lang::Value>> args;
  for (const auto& [k, v] : j.params) {
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    args.emplace_back(k, end && *end == '\0' && !v.empty() ? lang::Value::number(d)
                                                           : lang::Value::string(v));
  }
  return args;
}

/// Timings of the replay's last step behind each compact.step_us.rN.
constexpr int kLastStepReps = 9;

struct Replay {
  db::Module module;
  std::vector<double> stepUs;
};

/// The Sweep entity of perfbench/corpus/sweep.amg rebuilt from C++ through
/// the primitives and compact::compact(), one timed step per cell.  The
/// last step is timed `lastReps` times, each on a copy of the column it
/// extends, and its median is the last entry of stepUs.
Replay replaySweep(const tech::Technology& tech, int rows, Coord p, Coord w,
                   SpanLog* log, std::int64_t req, int lastReps = 1) {
  const tech::LayerId poly = tech.layer("poly");
  const tech::LayerId pdiff = tech.layer("pdiff");
  const tech::LayerId metal1 = tech.layer("metal1");
  compact::Options opt;
  opt.ignoreLayers = {poly};
  Replay r{db::Module(tech, "Sweep"), {}};
  prim::inbox(r.module, pdiff, Coord{4000}, Coord{4000});
  for (int k = 0; k <= rows; ++k) {
    db::Module cell(tech, "Cell");
    prim::tworects(cell, poly, pdiff, k < rows ? p : w, Coord{2000});
    prim::inbox(cell, metal1);
    if (k < rows || lastReps <= 1) {
      Scoped s(log, "compact.step", -1, req);
      const std::int64_t t0 = nowNs();
      compact::compact(r.module, cell, Dir::East, opt);
      r.stepUs.push_back(static_cast<double>(nowNs() - t0) / 1e3);
      continue;
    }
    std::vector<double> us;
    for (int i = 0; i < lastReps; ++i) {
      db::Module column = r.module;
      {
        Scoped s(log, "compact.step", -1, req);
        const std::int64_t t0 = nowNs();
        compact::compact(column, cell, Dir::East, opt);
        us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
      }
      if (i + 1 == lastReps) r.module = std::move(column);
    }
    r.stepUs.push_back(median(us));
  }
  return r;
}

}  // namespace

std::map<std::string, double> runProbes(const Input& in,
                                        const tech::Technology& tech,
                                        gen::BatchEngine& engine,
                                        SpanLog* log,
                                        std::vector<std::string>& failures) {
  std::vector<int> sample;
  const std::size_t want = static_cast<std::size_t>(in.intParam("probe_jobs", 8));
  auto take = [&](const Request& r) {
    for (int jid : r)
      if (sample.size() < want && std::find(sample.begin(), sample.end(), jid) == sample.end())
        sample.push_back(jid);
  };
  if (!in.rounds.empty())
    for (const Request& r : in.rounds[0]) take(r);
  for (const Frame& f : in.frames) take(f.jobs);

  std::map<std::string, double> m;
  std::int64_t req = 1'000'000;  // probe request ids, apart from the workload's

  // lang + analysis: the front end on each distinct script of the sample.
  std::set<int> scripts;
  for (int jid : sample) scripts.insert(in.jobScript[static_cast<std::size_t>(jid)]);
  std::vector<double> lint, parse, comp, verify;
  for (int sid : scripts) {
    const std::string& src = in.scripts[static_cast<std::size_t>(sid)];
    const Scoped root(log, "probe.frontend", -1, ++req);
    analysis::Options aopt;
    aopt.tech = &tech;
    lint.push_back(timeUs(log, "analysis.lint", root.id(), req, 3,
                          [&] { (void)analysis::analyzeSource(src, "<probe>", aopt); }));
    lang::Program prog;
    parse.push_back(timeUs(log, "lang.parse", root.id(), req, 3,
                           [&] { prog = lang::parseSource(src); }));
    std::shared_ptr<lang::CompiledProgram> cp;
    comp.push_back(timeUs(log, "lang.compile", root.id(), req, 3,
                          [&] { cp = lang::compile(prog); }));
    verify.push_back(timeUs(log, "analysis.verify", root.id(), req, 3, [&] {
      if (!analysis::verifyProgram(*cp).ok())
        failures.push_back("probe: bytecode verifier rejected script " +
                           std::to_string(sid));
    }));
  }
  m["analysis.lint_us"] = median(lint);
  m["lang.parse_us"] = median(parse);
  m["lang.compile_us"] = median(comp);
  m["analysis.verify_us"] = median(verify);

  // lang, io, gen, capi on each sampled job.
  std::vector<double> inst, ser, keyof, cacheGet, enc, dec;
  for (int jid : sample) {
    const gen::Job& job = in.jobs[static_cast<std::size_t>(jid)];
    const Scoped root(log, "probe.job", -1, ++req);
    lang::Interpreter interp(tech);
    interp.setEngine(lang::Engine::Vm);
    interp.loadEntities(job.script, job.scriptPath);  // chunk now warm
    const auto args = bindParams(job);
    db::Module out(tech);
    inst.push_back(timeUs(log, "lang.instantiate", root.id(), req, 1,
                          [&] { out = interp.instantiate(job.entity, args); }));
    std::vector<std::uint8_t> bytes;
    ser.push_back(timeUs(log, "io.layout_serialize", root.id(), req, 5,
                         [&] { bytes = io::serializeLayout(out); }));
    std::uint64_t key = 0;
    keyof.push_back(timeUs(log, "gen.keyof", root.id(), req, 5,
                           [&] { key = engine.keyOf(job); }));
    gen::LayoutCache cache;
    cache.put(key, bytes);
    cacheGet.push_back(timeUs(log, "gen.cache_get", root.id(), req, 5, [&] {
      if (!cache.get(key)) failures.push_back("probe: layout cache lost a fresh entry");
    }));
    serve::GenerateRequest greq;
    greq.jobs.push_back({job.name, job.scriptPath, job.script, job.entity,
                         job.resultVar, job.params});
    std::vector<std::uint8_t> frame;
    enc.push_back(timeUs(log, "serve.encode", root.id(), req, 5,
                         [&] { frame = serve::encodeGenerateRequest(greq); }));
    dec.push_back(timeUs(log, "serve.decode", root.id(), req, 5, [&] {
      util::WireReader r(frame, serve::frameDiag("truncated"));
      r.u8();
      (void)serve::decodeGenerateRequest(r);
    }));
  }
  m["lang.instantiate_us"] = median(inst);
  m["io.layout_serialize_us"] = median(ser);
  m["gen.keyof_us"] = median(keyof);
  m["gen.cache.get_us"] = median(cacheGet);
  m["serve.encode_us"] = median(enc);
  m["serve.decode_us"] = median(dec);

  // primitives: one Sweep cell.
  {
    const tech::LayerId poly = tech.layer("poly"), pdiff = tech.layer("pdiff"),
                        metal1 = tech.layer("metal1");
    const Scoped root(log, "probe.cell", -1, ++req);
    m["primitives.cell_us"] = timeUs(log, "primitives.cell", root.id(), req, 200, [&] {
      db::Module cell(tech, "Cell");
      prim::tworects(cell, poly, pdiff, Coord{6000}, Coord{2000});
      prim::inbox(cell, metal1);
    });
  }

  // compact + geom: the Sweep column replayed from C++ at the cold sweep's
  // sizes, each replay checked byte-equal to the DSL build of the same job.
  const int sweepScript = in.intParam("replay_script", -1);
  db::Module col80(tech);
  for (int r : {40, 80, 160}) {
    Replay rp = replaySweep(tech, r, 6000, 6000, log, ++req, kLastStepReps);
    gen::Job job;
    job.name = "replay";
    job.scriptPath = "<perfbench:replay>";
    job.script = in.scripts.at(static_cast<std::size_t>(sweepScript));
    job.entity = "Sweep";
    job.params = {{"rows", std::to_string(r)}, {"P", "6"}, {"W", "6"}};
    const gen::BatchReport dsl = engine.run({job});
    if (dsl.failed || io::serializeLayout(rp.module) !=
                          io::serializeLayout(*dsl.jobs[0].layout))
      failures.push_back("probe: C++ replay of Sweep(rows=" + std::to_string(r) +
                         ") differs from the DSL build");
    m["compact.step_us.r" + std::to_string(r)] = rp.stepUs.back();
    if (r == 80) col80 = std::move(rp.module);
  }
  m["compact.small_step_us"] = median(replaySweep(tech, 8, 6000, 6000, log, ++req).stepUs);

  // io + prefix tier: session snapshots of the 80-row column.
  {
    const Scoped root(log, "probe.prefix", -1, ++req);
    std::vector<std::uint8_t> blob;
    m["io.session_serialize_us"] =
        timeUs(log, "io.session_serialize", root.id(), req, 20,
               [&] { blob = io::serializeSessionState(col80); });
    m["io.session_deserialize_us"] =
        timeUs(log, "io.session_deserialize", root.id(), req, 20,
               [&] { (void)io::deserializeSessionState(blob, tech); });
    compact::PrefixCache pc;
    std::uint64_t key = 0;
    m["prefix.put_us"] = timeUs(log, "prefix.put", root.id(), req, 20,
                                [&] { pc.put(++key, blob); });
    m["prefix.get_us"] = timeUs(log, "prefix.get", root.id(), req, 20, [&] {
      if (!pc.get(key)) failures.push_back("probe: prefix cache lost a fresh entry");
    });
  }
  return m;
}

}  // namespace perfbench
