// bulk_check: the `ldapbound check` use, in process. Set-up is what the
// CLI pays before its first check (read and parse the schema, read and
// LoadLdif the export); then full legality checks (content, Figure-4
// structure, keys) repeat for --seconds, each compared against the
// planted violation set.
//
// With --trace 1 every other check runs under spans (process CPU clock:
// the passes fan out to the checker's pool), and the traced and untraced
// check times give the tracing overhead.

#include <algorithm>

#include "common.h"
#include "consistency/inference.h"
#include "core/legality_checker.h"
#include "gen.h"
#include "ldap/ldif.h"
#include "schema/schema_format.h"
#include "spans.h"

namespace perfbench {

namespace {

using namespace ldapbound;

std::vector<ExpectedViolation> Normalize(const std::vector<Violation>& found,
                                         const Vocabulary& vocab) {
  std::vector<ExpectedViolation> out;
  out.reserve(found.size());
  for (const Violation& v : found) {
    out.push_back({std::string(ViolationKindToString(v.kind)),
                   static_cast<uint64_t>(v.entry),
                   v.attr == kInvalidAttributeId ? std::string()
                                                 : vocab.AttributeName(v.attr)});
  }
  std::sort(out.begin(), out.end());
  return out;
}

void PrintSelfTimes(const SpanRecorder& recorder) {
  bool first = true;
  for (const auto& [name, t] : recorder.SelfTimes()) {
    std::printf("%s\"%s\": {\"calls\": %llu, \"wall_ms\": %.6f, \"cpu_ms\": %.6f}",
                first ? "" : ", ", name.c_str(),
                static_cast<unsigned long long>(t.calls), t.wall_ns / 1e6 / t.calls,
                t.cpu_ns / 1e6 / t.calls);
    first = false;
  }
}

}  // namespace

int RunBulk(const Flags& flags) {
  const std::string schema_path = flags.Str("schema");
  const std::string ldif_path = flags.Str("ldif");
  const uint64_t seed = flags.Uint("seed", 1);
  const size_t entries = flags.Uint("entries", 400000);
  const double seconds = flags.Real("seconds", 10);
  const bool setup_only = flags.Uint("setup-only", 0) != 0;
  const bool trace = flags.Uint("trace", 0) != 0;
  const std::string trace_out = flags.Str("trace-out");

  SpanRecorder recorder(/*process_cpu=*/true);
  SpanRecorder* rec = trace ? &recorder : nullptr;

  auto vocab = std::make_shared<Vocabulary>();
  Directory directory(vocab);
  Result<DirectorySchema> schema = Status::Internal("not loaded");
  const uint64_t setup_start = WallNs();
  {
    SpanRecorder::Scope setup(rec, "setup");
    std::string schema_text, ldif;
    if (!ReadFile(schema_path, &schema_text)) {
      std::fprintf(stderr, "perfbench bulk: cannot read %s\n", schema_path.c_str());
      return 1;
    }
    {
      SpanRecorder::Scope span(rec, "schema.parse");
      schema = ParseDirectorySchema(schema_text, vocab);
    }
    if (!schema.ok()) {
      std::fprintf(stderr, "perfbench bulk: %s\n", schema.status().ToString().c_str());
      return 1;
    }
    if (!ReadFile(ldif_path, &ldif)) {
      std::fprintf(stderr, "perfbench bulk: cannot read %s\n", ldif_path.c_str());
      return 1;
    }
    SpanRecorder::Scope span(rec, "ldap.load_ldif");
    auto loaded = LoadLdif(ldif, &directory);
    if (!loaded.ok()) {
      std::fprintf(stderr, "perfbench bulk: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
  }
  const double setup_s = (WallNs() - setup_start) / 1e9;
  const double rss_mb = SelfRssMb();
  if (directory.NumEntries() != entries) {
    std::fprintf(stderr, "perfbench bulk: loaded %zu entries, want %zu\n",
                 directory.NumEntries(), entries);
    return 1;
  }
  if (setup_only) {
    std::printf("{\"setup_s\": %.6f, \"rss_mb\": %.3f}\n", setup_s, rss_mb);
    return 0;
  }
  if (rec != nullptr) {
    // Not part of `ldapbound check`'s set-up; timed for the ledger only.
    SpanRecorder::Scope span(rec, "consistency.check");
    ConsistencyChecker consistency(*schema);
    if (!consistency.EnsureConsistent().ok()) return 1;
  }

  const DirectoryPlan plan = PlanDirectory(seed, entries, /*plant=*/true);
  LegalityChecker checker(*schema);
  std::vector<double> wall_us, cpu_us;
  double traced_us = 0, untraced_us = 0, traced_cpu_us = 0;
  size_t traced_n = 0, untraced_n = 0;
  uint64_t failed = 0;
  size_t violations = 0;
  const uint64_t deadline = WallNs() + static_cast<uint64_t>(seconds * 1e9);
  for (size_t i = 0; wall_us.size() < 3 || WallNs() < deadline; ++i) {
    const bool traced = rec != nullptr && i % 2 == 1;
    SpanRecorder* r = traced ? rec : nullptr;
    std::vector<Violation> found;
    const uint64_t w0 = WallNs();
    const uint64_t c0 = ProcessCpuNs();
    {
      SpanRecorder::Scope span(r, "check");
      {
        SpanRecorder::Scope pass(r, "core.content");
        checker.CheckContent(directory, &found);
      }
      {
        SpanRecorder::Scope pass(r, "core.structure");
        checker.CheckStructure(directory, &found);
      }
      {
        SpanRecorder::Scope pass(r, "core.keys");
        checker.CheckKeys(directory, &found);
      }
    }
    const double us = (WallNs() - w0) / 1e3;
    cpu_us.push_back((ProcessCpuNs() - c0) / 1e3);
    wall_us.push_back(us);
    (traced ? traced_us : untraced_us) += us;
    if (traced) traced_cpu_us += cpu_us.back();
    ++(traced ? traced_n : untraced_n);
    violations = found.size();
    if (Normalize(found, *vocab) != plan.planted) {
      ++failed;
      std::fprintf(stderr,
                   "perfbench bulk: check %zu reported %zu violations, %zu "
                   "planted\n",
                   i, found.size(), plan.planted.size());
    }
  }

  // Medians over the checks: a stall of the shared host in one check does
  // not move them.
  const size_t checks = wall_us.size();
  std::vector<double> sorted = wall_us;
  const double p50 = Quantile(sorted, 0.50);
  const double p90 = Quantile(sorted, 0.90);
  const double cpu_p50 = Quantile(cpu_us, 0.50);
  std::printf("{\"attempted\": %zu, \"failed\": %llu, \"setup_s\": %.6f, "
              "\"rss_mb\": %.3f, \"checks\": %zu, \"p50_us\": %.3f, "
              "\"p90_us\": %.3f, \"ops_s\": %.3f, \"cpu_us_per_op\": %.6f, "
              "\"violations\": %zu, \"planted\": %zu",
              checks, static_cast<unsigned long long>(failed), setup_s, rss_mb,
              checks, p50, p90, entries / (p50 / 1e6), cpu_p50 / entries,
              violations, plan.planted.size());
  std::printf(", \"check_us\": [");
  for (size_t i = 0; i < checks; ++i) {
    std::printf("%s%.1f", i ? ", " : "", wall_us[i]);
  }
  std::printf("]");
  if (rec != nullptr) {
    const double untraced_mean = untraced_n > 0 ? untraced_us / untraced_n : 0;
    // The ledger compares the traced checks' passes with the same checks'
    // process CPU.
    std::printf(", \"trace_overhead_pct\": %.6f, \"traced_cpu_us_per_op\": %.6f, "
                "\"spans\": {",
                (traced_n > 0 && untraced_mean > 0)
                    ? 100.0 * (traced_us / traced_n - untraced_mean) / untraced_mean
                    : 0.0,
                traced_n > 0 ? traced_cpu_us / traced_n / entries : 0.0);
    PrintSelfTimes(recorder);
    std::printf("}");
    if (!trace_out.empty() && !recorder.WriteChromeTrace(trace_out, 100000)) {
      std::fprintf(stderr, "perfbench bulk: cannot write %s\n", trace_out.c_str());
    }
  }
  std::printf("}\n");
  return 0;
}

}  // namespace perfbench
