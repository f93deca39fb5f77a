#pragma once

#include <string>

#include "input.h"

namespace perfbench {

/// The served pass: start amg_serve (`daemon`) on `socket`, offer it the
/// served_mix schedule in `in`, stop it, and do the same again with daemon
/// stats written to `daemonStats` and spans to `spansPath`.  Checks every
/// frame of both passes and writes the per-frame samples to `out`.
int runServe(const std::string& out, const std::string& spansPath,
             const std::string& daemon, const std::string& socket,
             const std::string& daemonStats, const Input& in);

}  // namespace perfbench
