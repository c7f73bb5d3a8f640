#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// `--key value` flags of one subcommand.
class Flags {
 public:
  /// Parses argv[first..]; false (with a message on stderr) on a stray
  /// positional argument.
  bool Parse(int argc, char** argv, int first);
  std::string Str(const std::string& key, const std::string& def = "") const;
  /// Whole number flag; exits with status 2 when malformed.
  uint64_t Uint(const std::string& key, uint64_t def) const;
  double Real(const std::string& key, double def) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double>& v, double q);

/// VmRSS of the calling process, in MiB.
double SelfRssMb();

/// Reads a whole file; false when it cannot.
bool ReadFile(const std::string& path, std::string* out);

// Subcommands.
int RunGen(const Flags& flags);
int RunLoad(const Flags& flags);
int RunReplay(const Flags& flags);
int RunBulk(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
