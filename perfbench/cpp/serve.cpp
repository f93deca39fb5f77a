// The served pass of a traced run: the real amg_serve daemon under the
// served_mix open-loop schedule.
//
// The schedule (frame due times, rung by rung) comes from run.py.  Two
// connection threads take frames in due order; a frame is sent at its due
// time or, when both connections are busy, as soon as one frees up.  Every
// frame is timed from when it was due, so a stall also counts against the
// frames queued behind it, and the send lateness is recorded separately.
#include "serve.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "capi/client.h"
#include "gen/engine.h"
#include "io/layout.h"
#include "jsonout.h"
#include "tech/techfile.h"
#include "trace.h"

extern char** environ;

namespace perfbench {

using namespace amg;

namespace {

/// One amg_serve process; the destructor stops and reaps it on every path.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::vector<std::string>& args) {
    std::vector<char*> argv;
    std::vector<std::string> all{bin};
    all.insert(all.end(), args.begin(), args.end());
    for (std::string& s : all) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot start " + bin);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Ask for a graceful drain over the wire, then reap; SIGKILL after 10 s.
  void shutdown(const std::string& socket) {
    try {
      serve::Client(socket).shutdown();
    } catch (const std::exception&) {
      ::kill(pid_, SIGTERM);
    }
    stop();
  }

 private:
  void stop() {
    if (pid_ <= 0) return;
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      if (i == 0) ::kill(pid_, SIGTERM);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
};

serve::GenerateRequest frameOf(const Input& in, const Request& r) {
  serve::GenerateRequest g;
  for (int id : r) {
    const gen::Job& j = in.jobs[static_cast<std::size_t>(id)];
    g.jobs.push_back({j.name, j.scriptPath, j.script, j.entity, j.resultVar, j.params});
  }
  return g;
}

struct FrameOut {
  double sentMs = 0, doneMs = 0, engineMs = 0;
  std::size_t ok = 0;
  std::string error;
  std::vector<serve::WireResult> results;
};

struct Pass {
  std::vector<FrameOut> frames;
  std::uint64_t refused = 0;
  double pingUs = 0;
};

/// Start the daemon, run the pre-warm requests, offer it the schedule,
/// read its STATS, and stop it.  `logs` holds one span log per connection
/// on the traced pass and is empty on the untraced one.
Pass runPass(const Input& in, const std::string& bin, const std::string& socket,
             const std::string& statsPath, std::vector<SpanLog>& logs,
             std::vector<std::string>& failures) {
  std::vector<std::string> args{"--socket", socket, "--jobs", in.params.at("workers"),
                                "--tech", in.params.at("tech_path")};
  if (!statsPath.empty()) args.push_back("--stats=" + statsPath);
  Pass p;
  Daemon d(bin, args);
  for (int tries = 0;; ++tries) {
    try {
      serve::Client(socket).ping();
      break;
    } catch (const std::exception&) {
      if (tries > 10000) throw std::runtime_error("amg_serve did not come up");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  {
    serve::Client c(socket);
    for (const Request& r : in.prewarm) {
      const serve::GenerateResponse resp = c.generate(frameOf(in, r));
      for (const serve::WireResult& w : resp.results)
        if (!w.ok) failures.push_back("pre-warm: " + w.diagCode + " " + w.diagMessage);
    }
  }

  std::vector<serve::GenerateRequest> reqs;
  for (const Frame& f : in.frames) reqs.push_back(frameOf(in, f.jobs));
  // Layout bytes are kept only at each job's first occurrence.
  std::vector<std::vector<bool>> keep(in.frames.size());
  std::vector<bool> seen(in.jobs.size(), false);
  for (std::size_t i = 0; i < in.frames.size(); ++i)
    for (int id : in.frames[i].jobs) {
      keep[i].push_back(!seen[static_cast<std::size_t>(id)]);
      seen[static_cast<std::size_t>(id)] = true;
    }

  p.frames.resize(in.frames.size());
  std::atomic<std::size_t> next{0};
  const auto base = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  const std::int64_t baseNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(base.time_since_epoch()).count();
  const std::size_t conns = static_cast<std::size_t>(in.intParam("connections", 2));
  std::vector<std::vector<std::string>> threadFailures(conns);
  auto worker = [&](std::size_t t, SpanLog* log) {
    try {
      serve::Client c(socket);
      for (std::size_t i; (i = next.fetch_add(1)) < in.frames.size();) {
        std::this_thread::sleep_until(base + std::chrono::microseconds(in.frames[i].dueUs));
        FrameOut& fo = p.frames[i];
        const Scoped span(log, "serve.generate", -1, static_cast<std::int64_t>(i));
        fo.sentMs = static_cast<double>(nowNs() - baseNs) / 1e6;
        serve::GenerateResponse resp;
        try {
          resp = c.generate(reqs[i]);
        } catch (const std::exception& e) {
          fo.error = e.what();
        }
        fo.doneMs = static_cast<double>(nowNs() - baseNs) / 1e6;
        fo.engineMs = resp.wallMs;
        if (!resp.errorCode.empty()) fo.error = resp.errorCode + " " + resp.errorMessage;
        for (std::size_t j = 0; j < resp.results.size(); ++j) {
          serve::WireResult& w = resp.results[j];
          if (w.ok) ++fo.ok;
          if (j >= keep[i].size() || !keep[i][j]) w.layout.clear();
        }
        fo.results = std::move(resp.results);
      }
    } catch (const std::exception& e) {
      threadFailures[t].push_back(std::string("connection: ") + e.what());
    }
  };
  {
    std::vector<std::thread> ts;
    for (std::size_t t = 0; t < conns; ++t)
      ts.emplace_back(worker, t, logs.empty() ? nullptr : &logs[t]);
    for (std::thread& t : ts) t.join();
  }
  for (const auto& tf : threadFailures) failures.insert(failures.end(), tf.begin(), tf.end());

  serve::Client c(socket);
  const serve::StatsResponse st = c.stats();
  p.refused = st.busyRejected + st.timedOut;
  if (!logs.empty()) {
    std::vector<double> us;
    for (int i = 0; i < 50; ++i) {
      const std::int64_t t0 = nowNs();
      c.ping();
      us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    std::sort(us.begin(), us.end());
    p.pingUs = us[us.size() / 2];
  }
  d.shutdown(socket);
  return p;
}

/// Check every frame of one pass: a frame the daemon refused or that timed
/// out, a job that failed, a job whose digest differs from another
/// occurrence's, and a first-occurrence layout that is not byte-equal to
/// an in-process build of the same job.
void checkPass(const Input& in, const Pass& p, const char* name, gen::BatchEngine& engine,
               std::vector<std::uint64_t>& digests, std::vector<std::string>& failures) {
  std::vector<std::pair<int, const std::vector<std::uint8_t>*>> firsts;
  for (std::size_t i = 0; i < in.frames.size(); ++i) {
    const FrameOut& fo = p.frames[i];
    const std::string where = std::string(name) + " frame " + std::to_string(i);
    if (!fo.error.empty()) failures.push_back(where + ": " + fo.error);
    for (std::size_t j = 0; j < fo.results.size(); ++j) {
      const serve::WireResult& w = fo.results[j];
      const int jid = in.frames[i].jobs[j];
      if (!w.ok) {
        failures.push_back(where + ", job " + std::to_string(jid) + ": " + w.diagCode + " " +
                           w.diagMessage);
        continue;
      }
      std::uint64_t& dg = digests[static_cast<std::size_t>(jid)];
      if (dg && dg != w.layoutHash)
        failures.push_back("job " + std::to_string(jid) + " changed its layout between frames");
      dg = w.layoutHash;
      if (!w.layout.empty()) firsts.emplace_back(jid, &w.layout);
    }
  }
  for (std::size_t at = 0; at < firsts.size(); at += 64) {
    const std::size_t n = std::min<std::size_t>(64, firsts.size() - at);
    std::vector<gen::Job> jobs;
    for (std::size_t k = at; k < at + n; ++k)
      jobs.push_back(in.jobs[static_cast<std::size_t>(firsts[k].first)]);
    const gen::BatchReport rep = engine.run(jobs);
    for (std::size_t k = 0; k < n; ++k)
      if (!rep.jobs[k].ok || io::serializeLayout(*rep.jobs[k].layout) != *firsts[at + k].second)
        failures.push_back(std::string(name) + " job " + std::to_string(firsts[at + k].first) +
                           ": served layout differs from in-process");
  }
}

void writeLadder(std::FILE* f, const char* name, const Input& in, const Pass& p) {
  std::vector<double> due, sent, done, eng, jobs, ok, rung;
  for (std::size_t i = 0; i < in.frames.size(); ++i) {
    const FrameOut& fo = p.frames[i];
    due.push_back(static_cast<double>(in.frames[i].dueUs) / 1e3);
    sent.push_back(fo.sentMs);
    done.push_back(fo.doneMs);
    eng.push_back(fo.engineMs);
    jobs.push_back(static_cast<double>(in.frames[i].jobs.size()));
    ok.push_back(fo.error.empty() ? static_cast<double>(fo.ok) : 0.0);
    rung.push_back(in.frames[i].rung);
  }
  std::fprintf(f, ",\"%s\":{", name);
  const std::pair<const char*, const std::vector<double>*> cols[] = {
      {"due_ms", &due}, {"sent_ms", &sent}, {"done_ms", &done}, {"engine_ms", &eng},
      {"jobs", &jobs},  {"ok", &ok},        {"rung", &rung}};
  for (const auto& [col, v] : cols) {
    std::fprintf(f, "%s\"%s\":", col == cols[0].first ? "" : ",", col);
    writeNumbers(f, *v);
  }
  std::fputc('}', f);
}

}  // namespace

int runServe(const std::string& out, const std::string& spansPath,
             const std::string& daemon, const std::string& socket,
             const std::string& daemonStats, const Input& in) {
  std::vector<std::string> failures;
  // The schedule is offered twice: to an untraced daemon, then to one
  // counting into obs stats, with spans taken around each frame.
  std::vector<SpanLog> logs(2), none;
  const Pass plain = runPass(in, daemon, socket, "", none, failures);
  const Pass traced = runPass(in, daemon, socket, daemonStats, logs, failures);

  // Every served layout must be byte-equal to an in-process build.
  const tech::Technology deck = tech::parseTechString(in.techText, "<perfbench>");
  gen::EngineConfig cfg;
  cfg.threads = 2;
  gen::BatchEngine engine(deck, cfg);
  std::vector<std::uint64_t> digests(in.jobs.size(), 0);
  checkPass(in, plain, "untraced", engine, digests, failures);
  checkPass(in, traced, "traced", engine, digests, failures);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + out);
  std::fprintf(f, "{");
  writeCommon(f, digests, failures);
  std::fprintf(f, ",\"refused\":%llu,\"ping_us\":%.9g,\"rung_rates\":",
               static_cast<unsigned long long>(traced.refused), traced.pingUs);
  writeNumbers(f, in.rungRates);
  writeLadder(f, "untraced_ladder", in, plain);
  writeLadder(f, "ladder", in, traced);
  std::fprintf(f, "}\n");
  std::fclose(f);
  if (!spansPath.empty()) {
    std::FILE* sf = std::fopen(spansPath.c_str(), "w");
    if (!sf) throw std::runtime_error("cannot write " + spansPath);
    for (std::size_t t = 0; t < logs.size(); ++t) logs[t].write(sf, static_cast<int>(t));
    std::fclose(sf);
  }
  return 0;
}

}  // namespace perfbench
