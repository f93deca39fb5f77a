// The JSON the executor writes for run.py: plain fprintf, no library.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline void writeNumbers(std::FILE* f, const std::vector<double>& v) {
  std::fputc('[', f);
  for (std::size_t i = 0; i < v.size(); ++i) std::fprintf(f, i ? ",%.9g" : "%.9g", v[i]);
  std::fputc(']', f);
}

inline std::string jsonEscape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    o += c;
  }
  return o;
}

/// The fields every mode's output has: the layout digest of each job id
/// that produced one, and the first failures found (with their total count).
inline void writeCommon(std::FILE* f, const std::vector<std::uint64_t>& digests,
                        const std::vector<std::string>& failures) {
  std::fprintf(f, "\"digests\":{");
  bool first = true;
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (!digests[i]) continue;
    std::fprintf(f, "%s\"%zu\":\"%016llx\"", first ? "" : ",", i,
                 static_cast<unsigned long long>(digests[i]));
    first = false;
  }
  std::fprintf(f, "},\"failures\":[");
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
    std::fprintf(f, "%s\"%s\"", i ? "," : "", jsonEscape(failures[i]).c_str());
  std::fprintf(f, "],\"failure_count\":%zu", failures.size());
}

inline void writeLayers(std::FILE* f, const std::map<std::string, double>& m) {
  std::fprintf(f, ",\"layers\":{");
  bool first = true;
  for (const auto& [k, v] : m) {
    std::fprintf(f, "%s\"%s\":%.9g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::fputc('}', f);
}

}  // namespace perfbench
