#include "input.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error("perfbench input: " + what);
}

std::string readBlob(std::istream& in, std::size_t n) {
  in.get();  // the newline ending the header line
  std::string s(n, '\0');
  if (!in.read(s.data(), static_cast<std::streamsize>(n))) bad("truncated blob");
  return s;
}

Request readIds(std::istream& in, std::size_t jobCount) {
  std::size_t n = 0;
  if (!(in >> n)) bad("missing id count");
  Request r(n);
  for (int& id : r)
    if (!(in >> id) || id < 0 || static_cast<std::size_t>(id) >= jobCount)
      bad("job id out of range");
  return r;
}

}  // namespace

int Input::intParam(const std::string& key, int fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : std::stoi(it->second);
}

Input readInput(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) bad("cannot open " + path);
  std::string tag;
  int version = 0;
  if (!(in >> tag >> version) || tag != "AMGBENCH" || version != 1)
    bad("not an AMGBENCH 1 file");
  Input inp;
  while (in >> tag) {
    if (tag == "workload") {
      in >> inp.workload;
    } else if (tag == "param") {
      std::string k, v;
      in >> k >> v;
      inp.params[k] = v;
    } else if (tag == "tech" || tag == "script") {
      std::size_t n = 0;
      if (!(in >> n)) bad("missing blob size");
      std::string blob = readBlob(in, n);
      if (tag == "tech")
        inp.techText = std::move(blob);
      else
        inp.scripts.push_back(std::move(blob));
    } else if (tag == "job") {
      int sid = -1;
      std::size_t np = 0;
      amg::gen::Job j;
      if (!(in >> sid >> j.entity >> np) || sid < 0 ||
          static_cast<std::size_t>(sid) >= inp.scripts.size())
        bad("bad job line");
      for (std::size_t i = 0; i < np; ++i) {
        std::string k, v;
        if (!(in >> k >> v)) bad("bad job parameter");
        j.params.emplace_back(k, v);
      }
      j.name = "j" + std::to_string(inp.jobs.size());
      j.scriptPath = "<perfbench:" + std::to_string(sid) + ">";
      j.script = inp.scripts[static_cast<std::size_t>(sid)];
      inp.jobs.push_back(std::move(j));
      inp.jobScript.push_back(sid);
    } else if (tag == "prewarm") {
      inp.prewarm.push_back(readIds(in, inp.jobs.size()));
    } else if (tag == "round") {
      inp.rounds.emplace_back();
    } else if (tag == "req") {
      if (inp.rounds.empty()) bad("req before round");
      inp.rounds.back().push_back(readIds(in, inp.jobs.size()));
    } else if (tag == "rung") {
      double rate = 0;
      in >> rate;
      inp.rungRates.push_back(rate);
    } else if (tag == "frame") {
      Frame f;
      if (!(in >> f.rung >> f.dueUs)) bad("bad frame line");
      f.jobs = readIds(in, inp.jobs.size());
      inp.frames.push_back(std::move(f));
    } else {
      bad("unknown tag '" + tag + "'");
    }
  }
  return inp;
}

}  // namespace perfbench
