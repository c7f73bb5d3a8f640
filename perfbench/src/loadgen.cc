// Wire load generator: one epoll thread, a few connections to
// `ldapbound serve`, each carrying its own seeded request stream.
//
// Phases (shares of --seconds): warm-up 10% (closed loop, not measured),
// then kRounds rounds of an open-loop block at a fixed Poisson rate and a
// closed-loop block with a fixed window of outstanding requests per
// connection; the open blocks take 50% in all, the closed blocks 40%.
// Between blocks every request is drained, so they do not overlap. The
// rounds spread both measurements over the whole run, so a burst of load
// from the host's other tenants falls on a few blocks of each kind rather
// than on all of one.
//
// Open loop: requests are due at their Poisson arrival time whether or not
// earlier ones were answered. Latency runs from the due time, so a stall
// also charges the requests queued behind it (coordinated omission
// corrected). An op may be held after its due time only by its own
// connection's order (Op::exclusive; a page waits for the previous page's
// cookie); that hold is latency.
// `gen_late` is how long the generator itself took to send a sendable
// request. The run is marked invalid when the generator fell behind: when
// a tenth of the requests went out later than kMaxLateUs.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "common.h"
#include "gen.h"
#include "server/wire.h"
#include "spans.h"

namespace perfbench {

namespace {

using ldapbound::WireCode;
using ldapbound::WireCursor;

enum Phase { kWarm = 0, kOpen = 1, kClosed = 2 };

constexpr int kRounds = 8;
// Shares of --seconds, in percent.
constexpr uint64_t kWarmPct = 10, kOpenPct = 50, kClosedPct = 40;

struct Pending {
  Op op;
  uint64_t due_ns = 0;
  Phase phase = kWarm;
};

struct InFlight {
  Op op;
  uint64_t due_ns = 0;
  Phase phase = kWarm;
};

struct Conn {
  Conn(const DirectoryPlan* plan, Workload workload, uint64_t seed, int index,
       int conns)
      : gen(plan, workload, seed, index, conns),
        model(plan),
        arrivals(Mix64(seed ^ (0x61727269ULL + static_cast<uint64_t>(index)))) {}

  int fd = -1;
  StreamGen gen;
  ConnModel model;
  Rng arrivals;
  double next_due_ns = 0;
  std::deque<Pending> queue;
  size_t held = 0;              ///< leading queue entries that were held
  /// Per scan slot: pages waiting for the previous page of their scan.
  std::deque<Pending> pages[kScanSlots];
  std::unordered_map<uint64_t, InFlight> inflight;
  uint64_t next_request = 1;
  std::string out;
  size_t out_off = 0;
  bool want_out = false;
  std::string in;
  bool exclusive_inflight = false;
  bool page_inflight[kScanSlots] = {};
  std::string cookie[kScanSlots];
  uint64_t last_completion_ns = 0;
};

struct Stats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t kind_attempted[kOpKinds] = {};
  uint64_t kind_failed[kOpKinds] = {};
  std::vector<std::string> failures;  ///< first few, for stderr
  std::vector<double> open_latency[kOpKinds];
  std::vector<double> open_all;
  std::vector<double> gen_late;
  uint64_t open_sent = 0;
  uint64_t closed_done = 0;
  uint64_t closed_kind[kOpKinds] = {};  ///< the closed-loop phase's op mix
  uint64_t response_bytes = 0;
  uint64_t responses = 0;
};

bool ConnectTo(uint16_t port, int* fd_out) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  *fd_out = fd;
  return true;
}

// utime + stime of `pid`, in seconds.
double ProcCpuSeconds(long pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  size_t close = text.rfind(')');
  if (close == std::string::npos) return -1;
  std::vector<std::string> fields;
  std::string field;
  for (size_t i = close + 2; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ' ') {
      fields.push_back(field);
      field.clear();
    } else {
      field += text[i];
    }
  }
  // Fields after the comm: state is index 0, utime 11, stime 12.
  if (fields.size() < 13) return -1;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return (std::strtod(fields[11].c_str(), nullptr) +
          std::strtod(fields[12].c_str(), nullptr)) /
         ticks;
}

class LoadGen {
 public:
  explicit LoadGen(const Flags& flags)
      : plan_(PlanDirectory(flags.Uint("seed", 1), flags.Uint("entries", 100000),
                            false)),
        seed_(flags.Uint("seed", 1)),
        port_(static_cast<uint16_t>(flags.Uint("port", 0))),
        server_pid_(static_cast<long>(flags.Uint("server-pid", 0))),
        conns_n_(static_cast<int>(flags.Uint("conns", 4))),
        seconds_(flags.Real("seconds", 10)) {
    ParseWorkload(flags.Str("workload"), &workload_);
  }

  int Run();

 private:
  void Fill(Conn& c, Phase phase, uint64_t now);
  void TrySend(Conn& c, uint64_t now);
  void Send(Conn& c, Pending& p, uint64_t ready, uint64_t now);
  void Flush(Conn& c);
  bool Read(Conn& c, uint64_t now);
  void Complete(Conn& c, std::string_view payload, uint64_t now);
  void Fail(OpKind kind, const std::string& why);
  size_t Outstanding() const;
  void Drain(uint64_t deadline_ns);
  void Pump(Phase phase, uint64_t until_ns);

  DirectoryPlan plan_;
  uint64_t seed_;
  Workload workload_ = Workload::kLookup;
  uint16_t port_;
  long server_pid_;
  int conns_n_;
  double seconds_;
  int epoll_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  Stats stats_;
  Phase current_phase_ = kWarm;
  bool generating_ = true;
  uint64_t closed_end_ = 0;  ///< end of the current closed-loop block
  struct Block {
    double seconds = 0;
    uint64_t ops = 0;
    double cpu_s = 0;  ///< server CPU
  };
  std::vector<Block> blocks_;  ///< the closed-loop blocks
};

size_t LoadGen::Outstanding() const {
  size_t n = 0;
  for (const auto& c : conns_) {
    n += c->queue.size() + c->inflight.size();
    for (const auto& waiting : c->pages) n += waiting.size();
  }
  return n;
}

void LoadGen::Fail(OpKind kind, const std::string& why) {
  ++stats_.failed;
  ++stats_.kind_failed[static_cast<int>(kind)];
  if (stats_.failures.size() < 8) stats_.failures.push_back(why);
}

void LoadGen::Fill(Conn& c, Phase phase, uint64_t now) {
  if (!generating_) return;
  if (phase == kOpen) {
    // Each connection is a Poisson stream at rate / conns; together they
    // are one Poisson stream at `rate`.
    const double mean_gap_ns = 1e9 * conns_n_ / OpenLoopRate(workload_);
    while (c.next_due_ns <= static_cast<double>(now)) {
      Pending p;
      p.op = c.gen.Next();
      p.due_ns = static_cast<uint64_t>(c.next_due_ns);
      p.phase = kOpen;
      c.queue.push_back(std::move(p));
      c.next_due_ns += -std::log(1.0 - c.arrivals.Unit()) * mean_gap_ns;
    }
    return;
  }
  size_t outstanding = c.queue.size() + c.inflight.size();
  for (const auto& waiting : c.pages) outstanding += waiting.size();
  for (; outstanding < kClosedWindow; ++outstanding) {
    Pending p;
    p.op = c.gen.Next();
    p.due_ns = now;
    p.phase = phase;
    c.queue.push_back(std::move(p));
  }
}

void LoadGen::Send(Conn& c, Pending& p, uint64_t ready, uint64_t now) {
  if (p.phase == kOpen) {
    stats_.gen_late.push_back(now > ready ? (now - ready) / 1000.0 : 0.0);
    ++stats_.open_sent;
  }
  const uint64_t id = c.next_request++;
  c.out += EncodeOp(p.op, id,
                    p.op.continues_scan ? c.cookie[p.op.scan_slot] : "");
  if (p.op.exclusive) c.exclusive_inflight = true;
  if (p.op.kind == OpKind::kPage) c.page_inflight[p.op.scan_slot] = true;
  c.inflight.emplace(id, InFlight{std::move(p.op), p.due_ns, p.phase});
}

void LoadGen::TrySend(Conn& c, uint64_t now) {
  // A page waits only for the previous page of its scan (it needs that
  // page's cookie); the requests behind it go ahead.
  for (int slot = 0; slot < kScanSlots; ++slot) {
    std::deque<Pending>& waiting = c.pages[slot];
    if (!waiting.empty() && !c.page_inflight[slot] && !c.exclusive_inflight) {
      Send(c, waiting.front(),
           std::max(waiting.front().due_ns, c.last_completion_ns), now);
      waiting.pop_front();
    }
  }
  while (!c.queue.empty()) {
    Pending& head = c.queue.front();
    if (c.exclusive_inflight || (head.op.exclusive && !c.inflight.empty())) {
      // Everything queued now waits for a completion: its readiness is
      // that completion, not its due time.
      c.held = c.queue.size();
      return;
    }
    const int slot = head.op.scan_slot;
    if (head.op.kind == OpKind::kPage &&
        (c.page_inflight[slot] || !c.pages[slot].empty())) {
      c.pages[slot].push_back(std::move(head));
    } else {
      Send(c, head,
           c.held > 0 ? std::max(head.due_ns, c.last_completion_ns) : head.due_ns,
           now);
    }
    c.queue.pop_front();
    if (c.held > 0) --c.held;
  }
}

void LoadGen::Flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  const bool want_out = !c.out.empty();
  if (want_out != c.want_out) {
    epoll_event ev{};
    ev.events = want_out ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.ptr = &c;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
    c.want_out = want_out;
  }
}

bool LoadGen::Read(Conn& c, uint64_t now) {
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  size_t off = 0;
  while (c.in.size() - off >= 4) {
    const uint32_t len = *WireCursor(std::string_view(c.in).substr(off, 4)).GetU32();
    if (c.in.size() - off - 4 < len) break;
    Complete(c, std::string_view(c.in).substr(off + 4, len), now);
    off += 4 + static_cast<size_t>(len);
  }
  c.in.erase(0, off);
  return true;
}

void LoadGen::Complete(Conn& c, std::string_view payload, uint64_t now) {
  auto decoded = ldapbound::DecodeResponsePayload(payload);
  if (!decoded.ok()) {
    Fail(OpKind::kLookup, "undecodable response frame");
    return;
  }
  const ldapbound::WireResponse& response = *decoded;
  auto it = c.inflight.find(response.request_id);
  if (it == c.inflight.end()) {
    Fail(OpKind::kLookup, "response to an unknown request id");
    return;
  }
  InFlight done = std::move(it->second);
  c.inflight.erase(it);
  const Op& op = done.op;
  const int kind = static_cast<int>(op.kind);
  ++stats_.attempted;
  ++stats_.kind_attempted[kind];
  ++stats_.responses;
  stats_.response_bytes += payload.size() + 4;
  if (op.exclusive) c.exclusive_inflight = false;
  c.last_completion_ns = now;

  std::string why;
  switch (op.kind) {
    case OpKind::kLookup:
    case OpKind::kList: {
      if (!response.ok()) {
        why = std::string(OpKindName(op.kind)) + " answered code " +
              std::to_string(static_cast<int>(response.code)) + ": " +
              response.message;
        break;
      }
      auto hits = ldapbound::DecodeSearchResponseBody(response.body);
      if (!hits.ok()) {
        why = "undecodable search body";
        break;
      }
      why = c.model.CheckSearch(op, std::vector<uint64_t>(hits->begin(), hits->end()));
      break;
    }
    case OpKind::kPage: {
      c.page_inflight[op.scan_slot] = false;
      std::string& cookie_out = c.cookie[op.scan_slot];
      cookie_out.clear();
      if (!response.ok()) {
        why = "page answered code " +
              std::to_string(static_cast<int>(response.code)) + ": " +
              response.message;
        break;
      }
      auto page = ldapbound::DecodeSearchEntriesResponseBody(response.body);
      if (!page.ok()) {
        why = "undecodable page body";
        break;
      }
      cookie_out = std::move(page->cookie);
      std::vector<uint64_t> ids;
      for (const ldapbound::WireEntry& entry : page->entries) ids.push_back(entry.id);
      why = c.model.CheckPage(op, ids,
                              page->entries.empty() ? "" : page->entries.front().dn,
                              page->has_more);
      break;
    }
    case OpKind::kAdd:
    case OpKind::kIllegalAdd:
    case OpKind::kDelete:
      why = c.model.OnWrite(op, response.ok(),
                            response.code == WireCode::kIllegal);
      if (!why.empty() && !response.ok()) why += ": " + response.message;
      break;
  }
  if (!why.empty()) Fail(op.kind, why);

  if (done.phase == kOpen) {
    const double us = now > done.due_ns ? (now - done.due_ns) / 1000.0 : 0.0;
    stats_.open_latency[kind].push_back(us);
    stats_.open_all.push_back(us);
  } else if (done.phase == kClosed && now <= closed_end_) {
    ++stats_.closed_done;
    ++stats_.closed_kind[kind];
  }
}

void LoadGen::Pump(Phase phase, uint64_t until_ns) {
  epoll_event events[64];
  for (;;) {
    uint64_t now = WallNs();
    if (generating_ && now >= until_ns) return;
    if (!generating_ && (Outstanding() == 0 || now >= until_ns)) return;
    for (auto& c : conns_) {
      Fill(*c, phase, now);
      TrySend(*c, now);
      if (!c->out.empty()) Flush(*c);
    }
    // The open loop spins so due times are met to the microsecond; the
    // generator has its own CPU.
    const int timeout = phase == kOpen && generating_ ? 0 : 1;
    int n = ::epoll_wait(epoll_fd_, events, 64, timeout);
    now = WallNs();
    for (int i = 0; i < n; ++i) {
      Conn& c = *static_cast<Conn*>(events[i].data.ptr);
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        if (!Read(c, now)) {
          std::fprintf(stderr, "perfbench load: server closed a connection\n");
          std::exit(1);
        }
      }
      if (events[i].events & EPOLLOUT) Flush(c);
    }
  }
}

void LoadGen::Drain(uint64_t deadline_ns) {
  generating_ = false;
  Pump(current_phase_, deadline_ns);
  for (auto& c : conns_) {
    for (const auto& [id, f] : c->inflight) {
      ++stats_.attempted;
      ++stats_.kind_attempted[static_cast<int>(f.op.kind)];
      Fail(f.op.kind, std::string(OpKindName(f.op.kind)) + " never answered");
    }
    std::vector<const std::deque<Pending>*> queues = {&c->queue};
    for (const auto& waiting : c->pages) queues.push_back(&waiting);
    for (const auto* queue : queues) {
      for (const Pending& p : *queue) {
        ++stats_.attempted;
        ++stats_.kind_attempted[static_cast<int>(p.op.kind)];
        Fail(p.op.kind, std::string(OpKindName(p.op.kind)) + " never sent");
      }
    }
    c->inflight.clear();
    c->queue.clear();
    for (int slot = 0; slot < kScanSlots; ++slot) {
      c->pages[slot].clear();
      c->page_inflight[slot] = false;
    }
    c->held = 0;
    c->exclusive_inflight = false;
  }
  generating_ = true;
}

std::string LatencyJson(std::vector<double>& v) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "{\"n\": %zu, \"p50_us\": %.3f, \"p90_us\": %.3f, "
                "\"p99_us\": %.3f}",
                v.size(), Quantile(v, 0.50), Quantile(v, 0.90), Quantile(v, 0.99));
  return buf;
}

int LoadGen::Run() {
  epoll_fd_ = ::epoll_create1(0);
  for (int i = 0; i < conns_n_; ++i) {
    auto c = std::make_unique<Conn>(&plan_, workload_, seed_, i, conns_n_);
    if (!ConnectTo(port_, &c->fd)) {
      std::fprintf(stderr, "perfbench load: cannot connect to port %u\n", port_);
      return 1;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c.get();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c->fd, &ev);
    conns_.push_back(std::move(c));
  }
  const uint64_t s = static_cast<uint64_t>(seconds_ * 1e9);
  const uint64_t drain = 5000000000ULL;

  current_phase_ = kWarm;
  Pump(kWarm, WallNs() + s * kWarmPct / 100);
  Drain(WallNs() + drain);

  uint64_t open_ns = 0;
  for (int round = 0; round < kRounds; ++round) {
    current_phase_ = kOpen;
    const uint64_t open_start = WallNs();
    for (auto& c : conns_) c->next_due_ns = static_cast<double>(open_start);
    Pump(kOpen, open_start + s * kOpenPct / 100 / kRounds);
    open_ns += WallNs() - open_start;
    Drain(WallNs() + drain);

    current_phase_ = kClosed;
    const uint64_t ops_before = stats_.closed_done;
    const double cpu_before = ProcCpuSeconds(server_pid_);
    const uint64_t closed_start = WallNs();
    closed_end_ = closed_start + s * kClosedPct / 100 / kRounds;
    Pump(kClosed, closed_end_);
    blocks_.push_back({(WallNs() - closed_start) / 1e9,
                       stats_.closed_done - ops_before,
                       ProcCpuSeconds(server_pid_) - cpu_before});
    Drain(WallNs() + drain);
  }
  for (auto& c : conns_) ::close(c->fd);
  ::close(epoll_fd_);

  // Closed loop: ops_s is the interquartile mean of the blocks' rates, so
  // the blocks a burst of host load slowed (or a lull sped up) drop out;
  // CPU per op is the ratio over all blocks (the host's stolen time is not
  // charged to the server's CPU).
  std::vector<double> rates;
  double closed_s = 0, server_cpu = 0;
  for (const Block& b : blocks_) {
    rates.push_back(b.ops / b.seconds);
    closed_s += b.seconds;
    server_cpu += b.cpu_s;
  }
  std::vector<double> sorted = rates;
  std::sort(sorted.begin(), sorted.end());
  const size_t quarter = sorted.size() / 4;
  double middle = 0;
  for (size_t i = quarter; i < sorted.size() - quarter; ++i) middle += sorted[i];
  const double ops_s = middle / static_cast<double>(sorted.size() - 2 * quarter);
  const double gen_late_p90 = Quantile(stats_.gen_late, 0.90);
  const double gen_late_p99 = Quantile(stats_.gen_late, 0.99);
  const bool valid = gen_late_p90 <= kMaxLateUs;
  for (const std::string& f : stats_.failures) {
    std::fprintf(stderr, "perfbench load: failed: %s\n", f.c_str());
  }

  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"valid\": %s,\n",
              static_cast<unsigned long long>(stats_.attempted),
              static_cast<unsigned long long>(stats_.failed),
              valid ? "true" : "false");
  std::printf(" \"by_kind\": {");
  bool first = true;
  for (int k = 0; k < kOpKinds; ++k) {
    if (stats_.kind_attempted[k] == 0) continue;
    std::printf("%s\"%s\": {\"attempted\": %llu, \"failed\": %llu}",
                first ? "" : ", ", OpKindName(static_cast<OpKind>(k)),
                static_cast<unsigned long long>(stats_.kind_attempted[k]),
                static_cast<unsigned long long>(stats_.kind_failed[k]));
    first = false;
  }
  std::printf("},\n \"open\": {\"seconds\": %.6f, \"rate\": %.3f, \"sent\": %llu, "
              "\"max_late_us\": %.1f, \"gen_late_p90_us\": %.3f, "
              "\"gen_late_p99_us\": %.3f, \"latency\": {\"all\": %s",
              open_ns / 1e9, OpenLoopRate(workload_),
              static_cast<unsigned long long>(stats_.open_sent), kMaxLateUs,
              gen_late_p90, gen_late_p99,
              LatencyJson(stats_.open_all).c_str());
  for (int k = 0; k < kOpKinds; ++k) {
    if (stats_.open_latency[k].empty()) continue;
    std::printf(", \"%s\": %s", OpKindName(static_cast<OpKind>(k)),
                LatencyJson(stats_.open_latency[k]).c_str());
  }
  std::printf("}},\n \"closed\": {\"seconds\": %.6f, \"window\": %llu, "
              "\"ops\": %llu, \"server_cpu_s\": %.4f, \"ops_s\": %.3f, "
              "\"cpu_us_per_op\": %.4f, \"ops_s_blocks\": [",
              closed_s, static_cast<unsigned long long>(kClosedWindow),
              static_cast<unsigned long long>(stats_.closed_done), server_cpu,
              ops_s,
              stats_.closed_done > 0 ? server_cpu * 1e6 / stats_.closed_done : 0.0);
  for (size_t i = 0; i < rates.size(); ++i) {
    std::printf("%s%.1f", i ? ", " : "", rates[i]);
  }
  std::printf("], \"mix\": {");
  for (int k = 0; k < kOpKinds; ++k) {
    std::printf("%s\"%s\": %llu", k ? ", " : "", OpKindName(static_cast<OpKind>(k)),
                static_cast<unsigned long long>(stats_.closed_kind[k]));
  }
  std::printf("}},\n");
  std::printf(" \"response_bytes_per_op\": %.3f}\n",
              stats_.responses > 0
                  ? static_cast<double>(stats_.response_bytes) / stats_.responses
                  : 0.0);
  return 0;
}

}  // namespace

int RunLoad(const Flags& flags) {
  Workload workload = Workload::kLookup;
  if (!ParseWorkload(flags.Str("workload"), &workload) ||
      flags.Uint("port", 0) == 0) {
    std::fprintf(stderr, "perfbench load: needs --workload lookup|churn and --port\n");
    return 2;
  }
  LoadGen gen(flags);
  return gen.Run();
}

}  // namespace perfbench
