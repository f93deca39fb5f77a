// amg_perfbench: the executor half of the repository benchmark.  It runs
// the requests perfbench/run.py generated, timing each call into the
// program's public entry points, and writes raw samples as JSON; run.py
// turns them into metrics and checks every output.
//
//   amg_perfbench exec   --input F --out O --seconds S --trace 0|1 [--spans P]
//   amg_perfbench serve  --input F --out O [--spans P]
//                        --daemon BIN --socket PATH [--daemon-stats P]
//   amg_perfbench verify --input F --list L --out O
//
// exec drives gen::BatchEngine in-process (cold_sweep, library_edit,
// adjacent_sweep); serve starts the real amg_serve daemon and offers it an
// open-loop schedule (the served pass of a traced run); verify regenerates
// given jobs through the oracles (tree-walk interpreter, brute-force
// spatial engines, caches off) and DRC-checks each layout.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "drc/drc.h"
#include "gen/engine.h"
#include "hostspeed.h"
#include "input.h"
#include "io/layout.h"
#include "jsonout.h"
#include "lang/compiler.h"
#include "obs/obs.h"
#include "probes.h"
#include "serve.h"
#include "tech/techfile.h"
#include "trace.h"

using namespace amg;
using namespace perfbench;

namespace {

struct Args {
  std::string mode, input, out, list, spans, daemon, socket, daemonStats;
  double seconds = 10;
  bool trace = false;
};

Args parseArgs(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: amg_perfbench exec|serve|verify ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--input") a.input = v;
    else if (k == "--out") a.out = v;
    else if (k == "--list") a.list = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--daemon") a.daemon = v;
    else if (k == "--socket") a.socket = v;
    else if (k == "--daemon-stats") a.daemonStats = v;
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.input.empty() || a.out.empty()) throw std::runtime_error("--input and --out are required");
  return a;
}

double secondsSince(std::int64_t t0) { return static_cast<double>(nowNs() - t0) / 1e9; }

std::vector<gen::Job> jobsOf(const Input& in, const Request& r) {
  std::vector<gen::Job> jobs;
  jobs.reserve(r.size());
  for (int id : r) jobs.push_back(in.jobs[static_cast<std::size_t>(id)]);
  return jobs;
}

/// One user session: the parsed deck, a fresh engine, and the pre-warm
/// requests already run.  `tech` is declared first so it outlives the
/// engine that points at it.
struct Session {
  std::unique_ptr<tech::Technology> tech;
  std::unique_ptr<gen::BatchEngine> engine;
};

Session openSession(const Input& in, std::vector<std::string>& failures) {
  Session s;
  s.tech = std::make_unique<tech::Technology>(tech::parseTechString(in.techText, "<perfbench>"));
  gen::EngineConfig cfg;
  cfg.threads = static_cast<std::size_t>(in.intParam("workers", 1));
  cfg.useCache = in.intParam("cache", 1) != 0;
  cfg.prefixCache = in.intParam("prefix", 1) != 0;
  s.engine = std::make_unique<gen::BatchEngine>(*s.tech, cfg);
  for (const Request& r : in.prewarm) {
    const gen::BatchReport rep = s.engine->run(jobsOf(in, r));
    if (rep.failed) failures.push_back("pre-warm: " + rep.jobs[0].error());
  }
  return s;
}

/// Tear the previous session down before the next set-up is timed; a
/// library session also forgets every compiled chunk, so its edits are new
/// source to the next session too.
void closeSession(Session& s, const Input& in) {
  s = {};
  if (in.intParam("reset_chunks", 0)) lang::clearChunkCache();
}

/// Time one more set-up, of a session dropped again at once, and return
/// the nanoseconds it took with its teardown.  Rounds that run for many
/// seconds take these between requests, so the set-up median spans the
/// whole run rather than one moment of it.
std::int64_t sampleSetup(const Input& in, std::vector<double>& setups,
                         std::vector<std::string>& failures) {
  const std::int64_t t0 = nowNs();
  {
    const Session extra = openSession(in, failures);
    setups.push_back(secondsSince(t0));
  }
  return nowNs() - t0;
}

void writeCounters(std::FILE* f) {
  std::fprintf(f, ",\"counters\":{");
  bool first = true;
  for (const auto& [name, v] : obs::Stats::global().counters()) {
    std::fprintf(f, "%s\"%s\":%llu", first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(v));
    first = false;
  }
  std::fputc('}', f);
}

/// Peak resident set of this process image (VmHWM), in KiB.  Not
/// getrusage's ru_maxrss: that carries the parent's high-water mark across
/// fork and exec, so it would count run.py's own memory.
long peakRssKb() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Record a job's digest; a second execution of the same job must give
/// the same bytes (FNV-1a over io::serializeLayout, JobResult::layoutHash).
void noteDigest(std::vector<std::uint64_t>& digests, int jid, std::uint64_t h,
                std::vector<std::string>& failures) {
  std::uint64_t& d = digests[static_cast<std::size_t>(jid)];
  if (d == 0) d = h;
  else if (d != h) failures.push_back("job " + std::to_string(jid) + " changed its layout between runs");
}

struct RoundOut {
  bool traced = false;
  double setupS = 0, wallS = 0, preflightMs = 0, batchMs = 0, jobWallMs = 0;
  std::size_t attempted = 0, failed = 0, executed = 0;
  std::vector<double> reqMs, reqHostMs, jobMs;
};

/// The latest host-speed sample, renewed between requests once it is
/// older than kRenewNs; the time a renewal takes is returned so the caller
/// can leave it out of its wall time.
class HostSpeed {
 public:
  static constexpr std::int64_t kRenewNs = 100'000'000;

  std::int64_t renew() {
    const std::int64_t t0 = nowNs();
    ms_ = hostSampleMs();
    at_ = nowNs();
    return at_ - t0;
  }
  std::int64_t renewIfOld() { return nowNs() - at_ > kRenewNs ? renew() : 0; }
  double ms() const { return ms_; }

 private:
  double ms_ = 0;
  std::int64_t at_ = 0;
};

int runExec(const Args& a, const Input& in) {
  std::vector<std::string> failures;
  std::vector<std::uint64_t> digests(in.jobs.size(), 0);
  std::vector<double> setups, setupHostMs;
  std::vector<RoundOut> rounds;
  HostSpeed host;
  SpanLog log;
  const std::size_t workers = static_cast<std::size_t>(in.intParam("workers", 1));
  const std::size_t setupEvery = static_cast<std::size_t>(in.intParam("setup_every", 0));
  Session s;
  const std::int64_t start = nowNs();
  double lastRound = 0;
  std::int64_t reqId = 0;
  // Whole rounds only, each in a fresh session, so every round offers the
  // same mix; a traced run alternates untraced and traced rounds so the
  // tracing overhead is measured within one process.
  for (std::size_t r = 0;; ++r) {
    const bool traced = a.trace && r % 2 == 1;
    closeSession(s, in);
    host.renew();
    const std::int64_t t0 = nowNs();
    s = openSession(in, failures);
    RoundOut ro;
    ro.traced = traced;
    ro.setupS = secondsSince(t0);
    setups.push_back(ro.setupS);
    setupHostMs.push_back(host.ms());
    if (traced) {
      if (r == 1) obs::Stats::global().reset();
      obs::enableStats(true);
    }
    std::int64_t pausedNs = 0;
    const std::int64_t w0 = nowNs();
    const std::vector<Request>& reqs = in.rounds[r % in.rounds.size()];
    for (std::size_t q = 0; q < reqs.size(); ++q) {
      pausedNs += host.renewIfOld();
      if (setupEvery && !traced && q % setupEvery == setupEvery - 1) {
        pausedNs += sampleSetup(in, setups, failures);
        setupHostMs.push_back(host.ms());
      }
      const Request& req = reqs[q];
      const std::vector<gen::Job> jobs = jobsOf(in, req);
      const Scoped span(traced ? &log : nullptr, "gen.run", -1, ++reqId);
      const std::int64_t q0 = nowNs();
      const gen::BatchReport rep = s.engine->run(jobs);
      ro.reqMs.push_back(static_cast<double>(nowNs() - q0) / 1e6);
      ro.reqHostMs.push_back(host.ms());
      ro.preflightMs += rep.preflightMs;
      ro.batchMs += rep.wallMs;
      for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
        const gen::JobResult& jr = rep.jobs[i];
        ++ro.attempted;
        ro.jobMs.push_back(jr.wallMs);
        ro.jobWallMs += jr.wallMs;
        if (!jr.cacheHit) ++ro.executed;
        if (!jr.ok) {
          ++ro.failed;
          failures.push_back(jobs[i].name + ": " + jr.error());
          continue;
        }
        noteDigest(digests, req[i], jr.layoutHash, failures);
      }
    }
    ro.wallS = static_cast<double>(nowNs() - w0 - pausedNs) / 1e9;
    obs::enableStats(false);
    rounds.push_back(std::move(ro));
    lastRound = secondsSince(t0);
    const std::size_t minRounds = a.trace ? 2 : 1;
    if (rounds.size() >= minRounds && secondsSince(start) + lastRound > a.seconds) break;
  }
  const long rss = peakRssKb();
  // Set-up is reported as a median, so take at least seven samples.
  while (setups.size() < 7) {
    closeSession(s, in);
    host.renew();
    const std::int64_t t0 = nowNs();
    s = openSession(in, failures);
    setups.push_back(secondsSince(t0));
    setupHostMs.push_back(host.ms());
  }

  std::map<std::string, double> layers;
  if (a.trace) {
    const compact::PrefixCache* pc = s.engine->prefixCache();
    layers["prefix.bytes_per_entry"] =
        pc && pc->entryCount()
            ? static_cast<double>(pc->byteCount()) / static_cast<double>(pc->entryCount())
            : 0.0;
    for (const auto& [k, v] : runProbes(in, *s.tech, *s.engine, &log, failures))
      layers[k] = v;
  }

  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + a.out);
  std::fprintf(f, "{\"workers\":%zu,\"setup_s\":", workers);
  writeNumbers(f, setups);
  std::fprintf(f, ",\"setup_host_ms\":");
  writeNumbers(f, setupHostMs);
  std::fprintf(f, ",\"peak_rss_kb\":%ld,", rss);
  writeCommon(f, digests, failures);
  std::fprintf(f, ",\"rounds\":[");
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundOut& ro = rounds[i];
    std::fprintf(f,
                 "%s{\"traced\":%s,\"setup_s\":%.9g,\"wall_s\":%.9g,\"attempted\":%zu,"
                 "\"failed\":%zu,\"executed\":%zu,\"preflight_ms\":%.9g,"
                 "\"batch_ms\":%.9g,\"job_wall_ms\":%.9g,\"req_ms\":",
                 i ? "," : "", ro.traced ? "true" : "false", ro.setupS, ro.wallS,
                 ro.attempted, ro.failed, ro.executed, ro.preflightMs, ro.batchMs,
                 ro.jobWallMs);
    writeNumbers(f, ro.reqMs);
    std::fprintf(f, ",\"req_host_ms\":");
    writeNumbers(f, ro.reqHostMs);
    std::fprintf(f, ",\"job_ms\":");
    writeNumbers(f, ro.jobMs);
    std::fputc('}', f);
  }
  std::fputc(']', f);
  if (a.trace) {
    writeCounters(f);
    writeLayers(f, layers);
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  if (a.trace && !a.spans.empty()) {
    std::FILE* sf = std::fopen(a.spans.c_str(), "w");
    if (!sf) throw std::runtime_error("cannot write " + a.spans);
    log.write(sf, 0);
    std::fclose(sf);
  }
  return 0;
}

/// Regenerate the listed jobs (one id per line) through the oracles — the
/// tree-walk interpreter, brute-force spatial engines, every cache off —
/// and DRC-check each layout.
int runVerify(const Args& a, const Input& in) {
  std::ifstream lf(a.list);
  if (!lf) throw std::runtime_error("cannot open " + a.list);
  std::vector<int> ids;
  for (int jid = 0; lf >> jid;) {
    if (jid < 0 || static_cast<std::size_t>(jid) >= in.jobs.size())
      throw std::runtime_error("verify: job id out of range");
    ids.push_back(jid);
  }
  const tech::Technology deck = tech::parseTechString(in.techText, "<perfbench>");
  obs::SpatialEngineConfig& se = obs::spatialEngines();
  se.compactIndexed = se.connectivityIndexed = se.routeIndexed = false;
  gen::EngineConfig cfg;
  cfg.threads = 2;
  cfg.useCache = false;
  cfg.prefixCache = false;
  cfg.interp = lang::Engine::Tree;
  gen::BatchEngine engine(deck, cfg);
  drc::CheckOptions dopt;
  dopt.latchUp = false;  // library modules carry no substrate contacts
  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + a.out);
  std::fprintf(f, "{");
  for (std::size_t at = 0; at < ids.size(); at += 32) {
    const std::size_t n = std::min<std::size_t>(32, ids.size() - at);
    const Request chunk(ids.begin() + static_cast<std::ptrdiff_t>(at),
                        ids.begin() + static_cast<std::ptrdiff_t>(at + n));
    const gen::BatchReport rep = engine.run(jobsOf(in, chunk));
    for (std::size_t i = 0; i < n; ++i) {
      const gen::JobResult& jr = rep.jobs[i];
      const std::size_t drcCount = jr.ok ? drc::check(*jr.layout, dopt).size() : 0;
      std::fprintf(f, "%s\"%d\":{\"ok\":%s,\"digest\":\"%016llx\",\"drc\":%zu,\"error\":\"%s\"}",
                   at + i ? "," : "", chunk[i], jr.ok ? "true" : "false",
                   static_cast<unsigned long long>(jr.layoutHash), drcCount,
                   jsonEscape(jr.error()).c_str());
    }
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parseArgs(argc, argv);
    const Input in = readInput(a.input);
    if (a.mode == "exec") return runExec(a, in);
    if (a.mode == "serve")
      return runServe(a.out, a.spans, a.daemon, a.socket, a.daemonStats, in);
    if (a.mode == "verify") return runVerify(a, in);
    throw std::runtime_error("unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amg_perfbench: %s\n", e.what());
    return 2;
  }
}
