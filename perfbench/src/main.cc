// perfbench: the benchmark's own program. Subcommands (run.py drives them):
//   gen     write the seeded directory LDIF (and its planted variant)
//   load    wire load generator against `ldapbound serve`
//   replay  traced in-process replay of a wire workload (per-layer ledger)
//   bulk    in-process LoadLdif + repeated full legality checks
// Each prints one JSON object on stdout; diagnostics go to stderr.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common.h"
#include "gen.h"

namespace perfbench {

bool Flags::Parse(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: expected --flag value, got '%s'\n",
                   arg.c_str());
      return false;
    }
    values_[arg.substr(2)] = argv[++i];
  }
  return true;
}

std::string Flags::Str(const std::string& key, const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

uint64_t Flags::Uint(const std::string& key, uint64_t def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  char* end = nullptr;
  unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
  if (it->second.empty() || *end != '\0') {
    std::fprintf(stderr, "perfbench: --%s needs a whole number\n", key.c_str());
    std::exit(2);
  }
  return v;
}

double Flags::Real(const std::string& key, double def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || *end != '\0' || !std::isfinite(v)) {
    std::fprintf(stderr, "perfbench: --%s needs a number\n", key.c_str());
    std::exit(2);
  }
  return v;
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = lo + 1 < v.size() ? lo + 1 : lo;
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double SelfRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = std::move(buffer).str();
  return true;
}

int RunGen(const Flags& flags) {
  const std::string out = flags.Str("out");
  if (out.empty()) {
    std::fprintf(stderr, "perfbench gen: --out is required\n");
    return 2;
  }
  const DirectoryPlan plan = PlanDirectory(
      flags.Uint("seed", 1), flags.Uint("entries", 100000), flags.Uint("plant", 0) != 0);
  std::FILE* f = std::fopen(out.c_str(), "w");
  // fsync: the file's writeback must not overlap the timed set-up that
  // reads it.
  const bool written = f != nullptr && WriteDirectoryLdif(plan, f) &&
                       ::fsync(::fileno(f)) == 0;
  if (f != nullptr && std::fclose(f) != 0) return 1;
  if (!written) {
    std::fprintf(stderr, "perfbench gen: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("{\"entries\": %zu, \"persons\": %zu, \"planted\": %zu}\n",
              plan.num_entries, plan.num_persons(), plan.planted.size());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench gen|load|replay|bulk --flag value...\n");
    return 2;
  }
  Flags flags;
  if (!flags.Parse(argc, argv, 2)) return 2;
  // The plan needs persons in every team, and every connection of a churn
  // stream owns at least one team.
  if (flags.Uint("entries", 100000) < 10 * kOrgEntries ||
      flags.Uint("conns", 4) < 1 || flags.Uint("conns", 4) > kTeams) {
    std::fprintf(stderr, "perfbench: --entries must be >= %zu, --conns 1..%d\n",
                 10 * kOrgEntries, kTeams);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "gen") return RunGen(flags);
  if (command == "load") return RunLoad(flags);
  if (command == "replay") return RunReplay(flags);
  if (command == "bulk") return RunBulk(flags);
  std::fprintf(stderr, "perfbench: unknown subcommand '%s'\n", command.c_str());
  return 2;
}
