#include "obs/profiler.hpp"

#include <cstdio>
#include <string>

#include "util/rss.hpp"

namespace pcs::obs {

namespace {

void report_line(std::string& out, const char* name, const ProfileSection& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-16s %10.6f s  (%llu calls)\n", name, s.seconds,
                static_cast<unsigned long long>(s.count));
  out += buf;
}

}  // namespace

std::string EngineProfile::report() const {
  std::string out = "engine self-profile (wall clock):\n";
  report_line(out, "recompute_rates", recompute_rates);
  report_line(out, "bfs", bfs);
  report_line(out, "solve", solve);
  report_line(out, "merge", merge);
  report_line(out, "dispatch", dispatch);
  if (const std::uint64_t rss = util::peak_rss_kb(); rss != 0) {
    char buf[80];
    std::snprintf(buf, sizeof(buf), "  %-16s %10llu kB\n", "peak rss",
                  static_cast<unsigned long long>(rss));
    out += buf;
  }
  return out;
}

}  // namespace pcs::obs
