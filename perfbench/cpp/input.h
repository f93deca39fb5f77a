// The executor's input: a workload's generated requests, written by
// perfbench/run.py (amgbench/inputs.py documents the text format).  The
// executor never invents inputs of its own; everything it runs is here.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen/job.h"

namespace perfbench {

/// One request: the jobs of one BatchEngine::run() call or one GENERATE
/// frame.  Indices point into Input::jobs.
using Request = std::vector<int>;

/// One served-mix frame: due time (µs after the ladder starts) and rung.
struct Frame {
  std::int64_t dueUs = 0;
  int rung = 0;
  Request jobs;
};

struct Input {
  std::string workload;
  std::map<std::string, std::string> params;
  std::string techText;                  ///< the rule deck, parsed at set-up
  std::vector<std::string> scripts;
  std::vector<amg::gen::Job> jobs;       ///< deduplicated; index = job id
  std::vector<int> jobScript;            ///< job id -> script id
  std::vector<Request> prewarm;          ///< set-up requests (paid once)
  std::vector<std::vector<Request>> rounds;
  std::vector<double> rungRates;         ///< served mix: offered frames/s
  std::vector<Frame> frames;             ///< served mix: the open-loop schedule

  int intParam(const std::string& key, int fallback) const;
};

/// Parse the text format; throws std::runtime_error with the offending
/// line on malformed input.
Input readInput(const std::string& path);

}  // namespace perfbench
