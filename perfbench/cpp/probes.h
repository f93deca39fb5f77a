#pragma once

#include <map>
#include <string>
#include <vector>

#include "gen/engine.h"
#include "input.h"
#include "trace.h"

namespace perfbench {

/// Time the public calls of every layer on the workload's first distinct
/// jobs (param probe_jobs of them, from the first round or the schedule)
/// and on the C++ replay of the Sweep column; returns metric name ->
/// value.  Anything found wrong (a replay that differs from the DSL build,
/// a verifier rejection) is appended to `failures`.
std::map<std::string, double> runProbes(const Input& in,
                                        const amg::tech::Technology& tech,
                                        amg::gen::BatchEngine& engine,
                                        SpanLog* log,
                                        std::vector<std::string>& failures);

}  // namespace perfbench
