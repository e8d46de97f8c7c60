// perfbench_load: the benchmark's own load generator for geopriv_serve.
//
// One process, one thread, at most four TCP connections.  Every socket is
// nonblocking with TCP_NODELAY; one epoll loop drives all of them.
//
//   perfbench_load --port P --pid PID --spec SPEC --out OUT --seed S
//
// SPEC is a line-oriented file written by run.py:
//
//   conns C
//   template ID MODE N ALPHA_NUM ALPHA_DEN LOSS LO HI CHURN(0|1)
//   consumer CONN NAME INIT_LEVEL INIT_RELEASES
//   phase NAME SECONDS TRACE(0|1)
//   role CONN open RATE TEMPLATES KSET        Poisson arrivals, RATE per s
//   role CONN closed DEPTH TEMPLATES KSET     pipelined, DEPTH outstanding
//   role CONN batch SIZE WINDOWS TEMPLATES KSET   batch_begin..batch_end
//   role CONN churn DEPTH                     the CHURN templates, in order,
//                                             each sent once (shared queue)
//
// TEMPLATES and KSET are comma lists; each request draws one of each
// uniformly from a SplitMix64 stream keyed by (seed, phase, connection).
// Each connection charges only its own consumers, round robin, so the
// client knows the exact order of every consumer's charges and checks the
// composed "level" of each reply against its own product of alphas.
//
// Open-loop latency runs from each request's scheduled send time; the
// generator reports how late it actually sent.  Closed-loop sends are
// coalesced into one write per connection per loop turn.
//
// Around each phase the generator reads the daemon's `metrics` op (on
// connection 0, while it is idle) and its per-thread CPU (/proc schedstat),
// write bytes (/proc io) and peak RSS (/proc status).  OUT receives one
// JSON object with every count, latency quantile, reply histogram and
// check failure; run.py turns it into metrics and exact-rational checks.

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

int64_t CpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_load: %s\n", what.c_str());
  std::exit(2);
}

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Uniform01(uint64_t* state) {
  return static_cast<double>(SplitMix(state) >> 11) * (1.0 / 9007199254740992.0);
}

std::vector<int> ParseIntList(const std::string& text) {
  std::vector<int> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(std::atoi(item.c_str()));
  if (out.empty()) Die("empty list '" + text + "'");
  return out;
}

// ---- spec ------------------------------------------------------------------

struct Template {
  int id = 0;
  std::string mode, loss;
  int n = 0, lo = 0, hi = 0;
  long long an = 0, ad = 1;
  double alpha = 0;
  bool churn = false;
  std::string prefix;  // request line up to the consumer name
  // Reply bookkeeping.
  uint64_t replies = 0;
  std::string loss_seen;
  bool loss_mismatch = false;
};

struct Consumer {
  std::string name;
  double level = 1.0;
  uint64_t acked = 0;  // releases acknowledged in this run
};

enum class RoleKind { kIdle, kOpen, kClosed, kBatch, kChurn };

struct Role {
  RoleKind kind = RoleKind::kIdle;
  double rate = 0;
  int depth = 0, size = 0, windows = 0;
  std::vector<int> templates, kset;
};

struct Phase {
  std::string name;
  double seconds = 0;
  bool trace = false;
  std::vector<Role> roles;
};

// ---- connection state --------------------------------------------------------

enum class Expect : uint8_t { kQuery, kAck, kControl };

struct Pending {
  Expect kind;
  int tmpl = -1, consumer = -1, count = 0, k = 1;
  int64_t sched_ns = 0;  // scheduled (open) or actual (closed) send time
  bool window_last = false;  // batch summary line: the window is done
};

struct Conn {
  int fd = -1;
  std::string inbox, outbox;
  std::deque<Pending> expect;
  int outstanding = 0;       // queries (or windows) awaiting their reply
  std::vector<int> consumers;
  size_t next_consumer = 0;
  uint64_t rng = 0;
  int64_t next_due_ns = 0;   // open loop: next scheduled send
  std::string control_reply;  // last kControl line
  bool control_done = false;
};

// Latency groups: one per role kind, plus every charged (ok) reply.
enum Group { kOpenGroup, kClosedGroup, kClosedMultiGroup, kBatchGroup, kChurnGroup, kChargedGroup, kGroups };
const char* const kGroupNames[kGroups] = {"open", "closed", "closed_multi", "batch", "churn", "charged"};

struct Counters {
  uint64_t queries_sent = 0, query_replies = 0, ok = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failures;
  void Fail(const char* why) {
    ++failed;
    ++failures[why];
  }
};

// ---- tiny reply field readers (flat JSON, as the protocol guarantees) ------

// A reply key, spelled once as the text that precedes its value.
struct Key {
  explicit Key(const char* name) : needle(std::string("\"") + name + "\":") {}
  std::string needle;
};

const Key kOkKey("ok"), kErrorKey("error"), kReleasedKey("released"), kLevelKey("level"),
    kLossKey("loss"), kCacheKey("cache");

const char* FindKey(const std::string& line, const Key& key) {
  const size_t at = line.find(key.needle);
  return at == std::string::npos ? nullptr : line.c_str() + at + key.needle.size();
}

bool ReadString(const std::string& line, const Key& key, std::string* out) {
  const char* p = FindKey(line, key);
  if (p == nullptr || *p != '"') return false;
  const char* end = std::strchr(p + 1, '"');
  if (end == nullptr) return false;
  out->assign(p + 1, end);
  return true;
}

bool ReadDouble(const std::string& line, const Key& key, double* out) {
  const char* p = FindKey(line, key);
  if (p == nullptr) return false;
  char* end = nullptr;
  *out = std::strtod(p, &end);
  return end != p;
}

bool ReadBool(const std::string& line, const Key& key, bool* out) {
  const char* p = FindKey(line, key);
  if (p == nullptr) return false;
  *out = std::strncmp(p, "true", 4) == 0;
  return true;
}

// Released values: a scalar or an array of integers.
bool ReadReleased(const std::string& line, std::vector<long>* out) {
  out->clear();
  const char* p = FindKey(line, kReleasedKey);
  if (p == nullptr) return false;
  if (*p != '[') {
    char* end = nullptr;
    out->push_back(std::strtol(p, &end, 10));
    return end != p;
  }
  ++p;
  while (*p != ']' && *p != '\0') {
    char* end = nullptr;
    out->push_back(std::strtol(p, &end, 10));
    if (end == p) return false;
    p = end;
    if (*p == ',') ++p;
  }
  return *p == ']';
}

// ---- daemon-side /proc probes ------------------------------------------------

struct ProcSample {
  int64_t cpu_ns = 0, io_cpu_ns = 0;  // all threads; the main (I/O) thread
  int64_t wchar = 0, hwm_kb = 0;
};

int64_t ReadSchedNs(const std::string& path) {
  std::ifstream in(path);
  long long ns = 0;
  in >> ns;
  return ns;
}

ProcSample ReadProc(int pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  if (DIR* dir = opendir((base + "/task").c_str())) {
    while (dirent* e = readdir(dir)) {
      if (e->d_name[0] == '.') continue;
      const int64_t ns = ReadSchedNs(base + "/task/" + e->d_name + "/schedstat");
      s.cpu_ns += ns;
      if (std::atoi(e->d_name) == pid) s.io_cpu_ns = ns;
    }
    closedir(dir);
  }
  std::ifstream io(base + "/io");
  std::string key;
  long long value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") s.wchar = value;
  }
  std::ifstream status(base + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) s.hwm_kb = std::atoll(line.c_str() + 6);
  }
  return s;
}

// ---- the generator ---------------------------------------------------------

class Generator {
 public:
  Generator(int port, int pid, uint64_t seed) : port_(port), pid_(pid), seed_(seed) {}

  void LoadSpec(const std::string& path) {
    std::ifstream in(path);
    if (!in) Die("cannot read spec " + path);
    std::string line;
    while (std::getline(in, line)) {
      std::stringstream ls(line);
      std::string word;
      if (!(ls >> word)) continue;
      if (word == "conns") {
        int c = 0;
        ls >> c;
        if (c < 1 || c > 4) Die("conns must be 1..4");
        conns_.resize(static_cast<size_t>(c));
      } else if (word == "template") {
        Template t;
        int churn = 0;
        ls >> t.id >> t.mode >> t.n >> t.an >> t.ad >> t.loss >> t.lo >> t.hi >> churn;
        if (!ls || t.id != static_cast<int>(templates_.size())) Die("bad template: " + line);
        t.churn = churn != 0;
        t.alpha = static_cast<double>(t.an) / static_cast<double>(t.ad);
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"op\":\"query\",\"mode\":\"%s\",\"n\":%d,\"alpha\":\"%lld/%lld\","
                      "\"loss\":\"%s\",\"lo\":%d,\"hi\":%d,\"consumer\":\"",
                      t.mode.c_str(), t.n, t.an, t.ad, t.loss.c_str(), t.lo, t.hi);
        t.prefix = buf;
        if (t.churn) churn_queue_.push_back(t.id);
        templates_.push_back(std::move(t));
      } else if (word == "consumer") {
        int conn = 0;
        Consumer c;
        unsigned long long releases = 0;
        ls >> conn >> c.name >> c.level >> releases;
        if (!ls || conn < 0 || conn >= static_cast<int>(conns_.size())) Die("bad consumer: " + line);
        conns_[static_cast<size_t>(conn)].consumers.push_back(static_cast<int>(consumers_.size()));
        consumers_.push_back(std::move(c));
      } else if (word == "phase") {
        Phase p;
        int trace = 0;
        ls >> p.name >> p.seconds >> trace;
        p.trace = trace != 0;
        p.roles.resize(conns_.size());
        phases_.push_back(std::move(p));
      } else if (word == "role") {
        if (phases_.empty()) Die("role before phase");
        int conn = 0;
        std::string kind, tmpls, kset;
        ls >> conn >> kind;
        if (conn < 0 || conn >= static_cast<int>(conns_.size())) Die("bad role: " + line);
        Role& r = phases_.back().roles[static_cast<size_t>(conn)];
        if (kind == "open") {
          r.kind = RoleKind::kOpen;
          ls >> r.rate >> tmpls >> kset;
        } else if (kind == "closed") {
          r.kind = RoleKind::kClosed;
          ls >> r.depth >> tmpls >> kset;
        } else if (kind == "batch") {
          r.kind = RoleKind::kBatch;
          ls >> r.size >> r.windows >> tmpls >> kset;
        } else if (kind == "churn") {
          r.kind = RoleKind::kChurn;
          ls >> r.depth;
        } else {
          Die("unknown role kind " + kind);
        }
        if (!ls) Die("bad role: " + line);
        if (r.kind != RoleKind::kChurn) {
          r.templates = ParseIntList(tmpls);
          r.kset = ParseIntList(kset);
          for (int t : r.templates) {
            if (t < 0 || t >= static_cast<int>(templates_.size())) Die("bad template id in " + line);
          }
          if (conns_[static_cast<size_t>(conn)].consumers.empty()) Die("connection without consumers");
        }
      } else {
        Die("unknown spec line: " + line);
      }
    }
    if (conns_.empty() || phases_.empty()) Die("spec needs conns and a phase");
  }

  void Connect() {
    epoll_ = epoll_create1(0);
    if (epoll_ < 0) Die("epoll_create1 failed");
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<uint16_t>(port_));
      if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        Die("connect failed");
      }
      const int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<uint32_t>(i);
      epoll_ctl(epoll_, EPOLL_CTL_ADD, c.fd, &ev);
    }
  }

  void Run(FILE* out) {
    std::fprintf(out, "{\"phases\":[");
    for (size_t p = 0; p < phases_.size(); ++p) {
      if (p > 0) std::fprintf(out, ",");
      RunPhase(p, out);
    }
    std::fprintf(out, "],");
    WriteChecks(out);
    std::fprintf(out, "}\n");
  }

 private:
  // Synchronous control request on an idle connection (metrics op).
  std::string Control(size_t conn, const std::string& line) {
    Conn& c = conns_[conn];
    c.expect.push_back(Pending{Expect::kControl});
    c.control_done = false;
    c.outbox += line;
    c.outbox += '\n';
    Flush(c);
    const int64_t deadline = NowNs() + int64_t{60} * 1000000000;
    while (!c.control_done) {
      if (NowNs() > deadline) Die("control request timed out");
      Poll(10 * 1000000);
    }
    return c.control_reply;
  }

  void RunPhase(size_t index, FILE* out) {
    Phase& phase = phases_[index];
    phase_ = &phase;
    for (std::vector<int64_t>& g : groups_) g.clear();
    counters_ = Counters{};
    lateness_ns_.clear();
    const std::string metrics_before = Control(0, "{\"op\":\"metrics\"}");
    const ProcSample proc_before = ReadProc(pid_);
    const int64_t cpu_before = CpuNs();
    const int64_t start = NowNs();
    stop_ns_ = start + static_cast<int64_t>(phase.seconds * 1e9);
    issuing_ = true;
    start_ns_ = start;
    window_ns_ = std::max<int64_t>(1, (stop_ns_ - start) / kWindows);
    for (int w = 0; w < kWindows; ++w) {
      for (std::vector<int64_t>& g : window_lat_[w]) g.clear();
      window_replies_[w] = window_ok_[w] = 0;
    }
    window_proc_[0] = proc_before;
    next_window_ = 1;
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      c.rng = seed_ ^ (0x5851f42d4c957f2dULL * (index + 1)) ^ (0x14057b7ef767814fULL * (i + 1));
      SplitMix(&c.rng);
      c.next_due_ns = start;
      if (phase.roles[i].kind == RoleKind::kOpen) {
        c.next_due_ns = start + NextGap(c, phase.roles[i].rate);
      }
    }
    for (size_t i = 0; i < conns_.size(); ++i) Refill(i);
    while (true) {
      const int64_t now = NowNs();
      while (next_window_ <= kWindows && now >= start + next_window_ * window_ns_) {
        window_proc_[next_window_++] = ReadProc(pid_);
      }
      if (issuing_ && now >= stop_ns_) issuing_ = false;
      if (issuing_) {
        for (size_t i = 0; i < conns_.size(); ++i) {
          if (phase.roles[i].kind == RoleKind::kOpen) SendDueOpen(i, now);
        }
      }
      bool idle = true;
      for (const Conn& c : conns_) {
        if (!c.expect.empty()) idle = false;
      }
      if (!issuing_ && idle) break;
      if (!issuing_ && now > stop_ns_ + int64_t{120} * 1000000000) Die("drain timed out");
      int64_t wait = issuing_ ? stop_ns_ - now : 50 * 1000000;
      if (next_window_ <= kWindows) wait = std::min(wait, start + next_window_ * window_ns_ - now);
      for (size_t i = 0; issuing_ && i < conns_.size(); ++i) {
        if (phase.roles[i].kind == RoleKind::kOpen) {
          wait = std::min(wait, conns_[i].next_due_ns - now);
        }
      }
      Poll(std::max<int64_t>(wait, 0));
    }
    const int64_t end = NowNs();
    const int64_t cpu_after = CpuNs();
    const ProcSample proc_after = ReadProc(pid_);
    const std::string metrics_after = Control(0, "{\"op\":\"metrics\"}");

    std::fprintf(out, "{\"name\":\"%s\",\"seconds\":%.9f,", phase.name.c_str(), (end - start) / 1e9);
    std::fprintf(out, "\"queries_sent\":%llu,\"query_replies\":%llu,\"ok\":%llu,"
                      "\"failed\":%llu,\"failures\":{",
                 static_cast<unsigned long long>(counters_.queries_sent),
                 static_cast<unsigned long long>(counters_.query_replies),
                 static_cast<unsigned long long>(counters_.ok),
                 static_cast<unsigned long long>(counters_.failed));
    bool first = true;
    for (const auto& [why, n] : counters_.failures) {
      std::fprintf(out, "%s\"%s\":%llu", first ? "" : ",", why.c_str(), static_cast<unsigned long long>(n));
      first = false;
    }
    std::fprintf(out, "},\"client_cpu_s\":%.9f,", (cpu_after - cpu_before) / 1e9);
    std::fprintf(out, "\"daemon\":{\"cpu_s\":%.9f,\"io_cpu_s\":%.9f,\"wchar\":%lld,\"hwm_kb\":%lld},",
                 (proc_after.cpu_ns - proc_before.cpu_ns) / 1e9,
                 (proc_after.io_cpu_ns - proc_before.io_cpu_ns) / 1e9,
                 static_cast<long long>(proc_after.wchar - proc_before.wchar),
                 static_cast<long long>(proc_after.hwm_kb));
    std::fprintf(out, "\"latency_ms\":{");
    first = true;
    for (int g = 0; g < kGroups; ++g) {
      if (groups_[g].empty()) continue;
      std::fprintf(out, "%s\"%s\":", first ? "" : ",", kGroupNames[g]);
      WriteQuantiles(out, &groups_[g]);
      first = false;
    }
    WriteWindows(out);
    std::fprintf(out, "},\"lateness_ms\":");
    WriteQuantiles(out, &lateness_ns_);
    std::fprintf(out, ",\"trace_us\":{\"count\":%llu", static_cast<unsigned long long>(trace_count_));
    for (const auto& [stage, sum] : trace_sum_) {
      std::fprintf(out, ",\"%s\":%lld", stage.c_str(), static_cast<long long>(sum));
    }
    trace_count_ = 0;
    trace_sum_.clear();
    std::fprintf(out, "},\"metrics_before\":%s,\"metrics_after\":%s}", metrics_before.c_str(),
                 metrics_after.c_str());
    total_failed_ += counters_.failed;
  }

  // The phase cut into kWindows equal windows (replies after the last one,
  // while draining, are not in any): per-window reply counts, daemon CPU
  // and median latencies, from which run.py takes robust medians.
  void WriteWindows(FILE* out) {
    std::fprintf(out, "},\"windows\":{\"seconds\":%.9f,\"replies\":[", window_ns_ / 1e9);
    for (int w = 0; w < kWindows; ++w) std::fprintf(out, "%s%llu", w ? "," : "", static_cast<unsigned long long>(window_replies_[w]));
    std::fprintf(out, "],\"ok\":[");
    for (int w = 0; w < kWindows; ++w) std::fprintf(out, "%s%llu", w ? "," : "", static_cast<unsigned long long>(window_ok_[w]));
    std::fprintf(out, "],\"cpu_s\":[");
    for (int w = 0; w < kWindows; ++w) {
      std::fprintf(out, "%s%.9f", w ? "," : "", (window_proc_[w + 1].cpu_ns - window_proc_[w].cpu_ns) / 1e9);
    }
    std::fprintf(out, "],\"io_cpu_s\":[");
    for (int w = 0; w < kWindows; ++w) {
      std::fprintf(out, "%s%.9f", w ? "," : "", (window_proc_[w + 1].io_cpu_ns - window_proc_[w].io_cpu_ns) / 1e9);
    }
    std::fprintf(out, "],\"p50_ms\":{");
    bool first = true;
    for (int g = 0; g < kGroups; ++g) {
      if (groups_[g].empty()) continue;
      std::fprintf(out, "%s\"%s\":[", first ? "" : ",", kGroupNames[g]);
      for (int w = 0; w < kWindows; ++w) {
        std::vector<int64_t>& v = window_lat_[w][g];
        double p50 = -1;
        if (!v.empty()) {
          std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2), v.end());
          p50 = v[v.size() / 2] / 1e6;
        }
        std::fprintf(out, "%s%.6f", w ? "," : "", p50);
      }
      std::fprintf(out, "]");
      first = false;
    }
    std::fprintf(out, "}");
  }

  static void WriteQuantiles(FILE* out, std::vector<int64_t>* ns) {
    std::sort(ns->begin(), ns->end());
    auto q = [&](double p) {
      if (ns->empty()) return 0.0;
      const size_t i = std::min(ns->size() - 1, static_cast<size_t>(p * static_cast<double>(ns->size())));
      return (*ns)[i] / 1e6;
    };
    double mean = 0;
    for (int64_t v : *ns) mean += static_cast<double>(v);
    if (!ns->empty()) mean /= static_cast<double>(ns->size());
    std::fprintf(out, "{\"count\":%zu,\"p50\":%.6f,\"p90\":%.6f,\"p99\":%.6f,\"mean\":%.6f}", ns->size(), q(0.5),
                 q(0.9), q(0.99), mean / 1e6);
  }

  int64_t NextGap(Conn& c, double rate) {
    const double u = Uniform01(&c.rng);
    return static_cast<int64_t>(-std::log(1.0 - u) / rate * 1e9);
  }

  // Appends one query for `tmpl` to the connection's outbox.
  void AppendQuery(size_t conn_index, int tmpl, int k, int64_t sched_ns, Expect kind = Expect::kQuery) {
    Conn& c = conns_[conn_index];
    const Template& t = templates_[static_cast<size_t>(tmpl)];
    const int consumer = c.consumers[c.next_consumer];
    c.next_consumer = (c.next_consumer + 1) % c.consumers.size();
    const int count = t.lo + static_cast<int>(SplitMix(&c.rng) % static_cast<uint64_t>(t.hi - t.lo + 1));
    const uint64_t seed = SplitMix(&c.rng) >> 12;  // < 2^52: exact in any JSON reader
    c.outbox += t.prefix;
    c.outbox += consumers_[static_cast<size_t>(consumer)].name;
    char buf[96];
    int len = std::snprintf(buf, sizeof(buf), "\",\"count\":%d,\"seed\":%llu", count,
                            static_cast<unsigned long long>(seed));
    c.outbox.append(buf, static_cast<size_t>(len));
    if (k > 1) {
      len = std::snprintf(buf, sizeof(buf), ",\"samples\":%d", k);
      c.outbox.append(buf, static_cast<size_t>(len));
    }
    if (phase_->trace) c.outbox += ",\"trace\":true";
    c.outbox += "}\n";
    Pending p{kind};
    p.tmpl = tmpl;
    p.consumer = consumer;
    p.count = count;
    p.k = k;
    p.sched_ns = sched_ns;
    c.expect.push_back(p);
    ++counters_.queries_sent;
  }

  template <typename T>
  T Pick(Conn& c, const std::vector<T>& from) {
    return from[SplitMix(&c.rng) % from.size()];
  }

  // Tops a closed-loop, batch or churn connection up to its depth.
  void Refill(size_t i) {
    const int64_t now = NowNs();
    if (!issuing_ || now >= stop_ns_) return;
    Conn& c = conns_[i];
    const Role& role = phase_->roles[i];
    switch (role.kind) {
      case RoleKind::kClosed:
        while (c.outstanding < role.depth) {
          AppendQuery(i, Pick(c, role.templates), Pick(c, role.kset), now);
          ++c.outstanding;
        }
        break;
      case RoleKind::kBatch:
        while (c.outstanding < role.windows) {
          c.outbox += "{\"op\":\"batch_begin\"}\n";
          c.expect.push_back(Pending{Expect::kAck});
          for (int q = 0; q < role.size; ++q) {
            c.expect.push_back(Pending{Expect::kAck});  // "queued"
          }
          // The daemon acks each query as "queued" at once and answers them
          // all, in order, at batch_end: the reply expectations follow the
          // queued acks.
          for (int q = 0; q < role.size; ++q) {
            AppendQuery(i, Pick(c, role.templates), Pick(c, role.kset), now);
          }
          c.outbox += "{\"op\":\"batch_end\"}\n";
          Pending summary{Expect::kAck};
          summary.window_last = true;
          c.expect.push_back(summary);
          ++c.outstanding;
        }
        break;
      case RoleKind::kChurn:
        while (c.outstanding < role.depth && churn_next_ < churn_queue_.size()) {
          AppendQuery(i, churn_queue_[churn_next_++], 1, now);
          ++c.outstanding;
        }
        break;
      default:
        break;
    }
    Flush(c);
  }

  void SendDueOpen(size_t i, int64_t now) {
    Conn& c = conns_[i];
    const Role& role = phase_->roles[i];
    bool sent = false;
    while (c.next_due_ns <= now && c.next_due_ns < stop_ns_) {
      AppendQuery(i, Pick(c, role.templates), Pick(c, role.kset), c.next_due_ns);
      lateness_ns_.push_back(now - c.next_due_ns);
      c.next_due_ns += NextGap(c, role.rate);
      sent = true;
    }
    if (sent) Flush(c);
  }

  void Flush(Conn& c) {
    while (!c.outbox.empty()) {
      const ssize_t k = ::send(c.fd, c.outbox.data(), c.outbox.size(), MSG_NOSIGNAL);
      if (k > 0) {
        c.outbox.erase(0, static_cast<size_t>(k));
        continue;
      }
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.u32 = static_cast<uint32_t>(&c - conns_.data());
        epoll_ctl(epoll_, EPOLL_CTL_MOD, c.fd, &ev);
        return;
      }
      if (k < 0 && errno == EINTR) continue;
      Die("send failed: " + std::string(std::strerror(errno)));
    }
  }

  void Poll(int64_t timeout_ns) {
    epoll_event events[8];
    timespec ts{static_cast<time_t>(timeout_ns / 1000000000), static_cast<long>(timeout_ns % 1000000000)};
    const int n = epoll_pwait2(epoll_, events, 8, &ts, nullptr);
    if (n < 0 && errno != EINTR) Die("epoll_pwait2 failed");
    for (int e = 0; e < n; ++e) {
      const size_t i = events[e].data.u32;
      Conn& c = conns_[i];
      if (events[e].events & EPOLLOUT) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u32 = static_cast<uint32_t>(i);
        epoll_ctl(epoll_, EPOLL_CTL_MOD, c.fd, &ev);
        Flush(c);
      }
      if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) Read(i);
    }
  }

  void Read(size_t i) {
    Conn& c = conns_[i];
    char chunk[1 << 16];
    while (true) {
      const ssize_t k = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (k > 0) {
        c.inbox.append(chunk, static_cast<size_t>(k));
        continue;
      }
      if (k == 0) Die("daemon closed a connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      Die("recv failed");
    }
    const int64_t now = NowNs();
    size_t start = 0;
    while (true) {
      const size_t nl = c.inbox.find('\n', start);
      if (nl == std::string::npos) break;
      line_.assign(c.inbox, start, nl - start);
      start = nl + 1;
      if (c.expect.empty()) Die("unexpected reply: " + line_);
      const Pending p = c.expect.front();
      c.expect.pop_front();
      OnReply(i, p, now);
    }
    c.inbox.erase(0, start);
    Refill(i);
  }

  void OnReply(size_t i, const Pending& p, int64_t now) {
    Conn& c = conns_[i];
    if (p.kind == Expect::kControl) {
      c.control_reply = line_;
      c.control_done = true;
      return;
    }
    if (p.kind == Expect::kAck) {
      bool ok = false;
      if (!ReadBool(line_, kOkKey, &ok) || !ok) counters_.Fail("control_error");
      if (p.window_last) --c.outstanding;
      return;
    }
    const Role& role = phase_->roles[i];
    if (role.kind != RoleKind::kBatch && role.kind != RoleKind::kOpen) --c.outstanding;
    ++counters_.query_replies;
    Template& t = templates_[static_cast<size_t>(p.tmpl)];
    ++t.replies;
    const int64_t latency = now - p.sched_ns;
    const Group group = role.kind == RoleKind::kOpen    ? kOpenGroup
                        : role.kind == RoleKind::kBatch ? kBatchGroup
                        : role.kind == RoleKind::kChurn ? kChurnGroup
                        : p.k > 1                       ? kClosedMultiGroup
                                                        : kClosedGroup;
    groups_[group].push_back(latency);
    const int64_t window = (now - start_ns_) / window_ns_;
    const bool in_window = window < kWindows;
    if (in_window) {
      window_lat_[window][group].push_back(latency);
      ++window_replies_[window];
    }
    bool ok = false;
    if (!ReadBool(line_, kOkKey, &ok) || !ok) {
      std::string error;
      ReadString(line_, kErrorKey, &error);
      counters_.Fail(error == "FailedPrecondition" ? "budget_rejected" : "reply_error");
      if (errors_logged_++ < 5) std::fprintf(stderr, "perfbench_load: error reply: %s\n", line_.c_str());
      return;
    }
    groups_[kChargedGroup].push_back(latency);
    if (in_window) {
      window_lat_[window][kChargedGroup].push_back(latency);
      ++window_ok_[window];
    }
    ++counters_.ok;
    bool good = true;
    // Released values: the requested number of draws, each in [0, n].
    if (!ReadReleased(line_, &released_) || static_cast<int>(released_.size()) != p.k) {
      counters_.Fail("samples");
      good = false;
    } else {
      for (long v : released_) {
        if (v < 0 || v > t.n) {
          counters_.Fail("range");
          good = false;
          break;
        }
      }
    }
    // Composed level: the client's own product of every charged alpha.
    Consumer& consumer = consumers_[static_cast<size_t>(p.consumer)];
    for (int j = 0; j < p.k; ++j) consumer.level *= t.alpha;
    consumer.acked += static_cast<uint64_t>(p.k);
    double level = -1;
    if (good && (!ReadDouble(line_, kLevelKey, &level) ||
                 std::fabs(level - consumer.level) > 1e-12 * consumer.level)) {
      counters_.Fail("level");
      good = false;
      consumer.level = level;  // resynchronise so one slip is one failure
    }
    if (!ReadString(line_, kLossKey, &loss_)) {
      counters_.Fail("loss_missing");
      good = false;
    } else if (t.loss_seen.empty()) {
      t.loss_seen = loss_;
    } else if (loss_ != t.loss_seen) {
      t.loss_mismatch = true;
    }
    if (t.churn) {
      ReadString(line_, kCacheKey, &cache_);
      if (cache_ != "cold" && cache_ != "warm") {
        counters_.Fail("churn_not_new");
        good = false;
      }
    }
    if (good && !t.churn) {
      // Slot n+1 counts the replies behind the n+1 value counts.
      std::vector<uint64_t>& hist = histograms_[(static_cast<int64_t>(p.tmpl) << 16) | p.count];
      if (hist.empty()) hist.assign(static_cast<size_t>(t.n + 2), 0);
      for (long v : released_) ++hist[static_cast<size_t>(v)];
      ++hist[static_cast<size_t>(t.n + 1)];
    }
    if (phase_->trace) {
      static const char* const kStages[] = {"parse", "queue", "solve", "charge", "sample", "persist", "serialize"};
      for (const char* stage : kStages) {
        double v = 0;
        ReadDouble(line_, Key((std::string("trace_") + stage + "_us").c_str()), &v);
        trace_sum_[stage] += static_cast<int64_t>(v);
      }
      ++trace_count_;
    }
  }

  void WriteChecks(FILE* out) {
    std::fprintf(out, "\"failed\":%llu,\"templates\":[", static_cast<unsigned long long>(total_failed_));
    for (size_t i = 0; i < templates_.size(); ++i) {
      const Template& t = templates_[i];
      std::fprintf(out, "%s{\"id\":%d,\"replies\":%llu,\"loss\":\"%s\",\"loss_mismatch\":%s}",
                   i ? "," : "", t.id, static_cast<unsigned long long>(t.replies), t.loss_seen.c_str(),
                   t.loss_mismatch ? "true" : "false");
    }
    std::fprintf(out, "],\"histograms\":[");
    bool first = true;
    for (const auto& [key, hist] : histograms_) {
      std::fprintf(out, "%s{\"template\":%lld,\"count\":%lld,\"replies\":%llu,\"values\":[",
                   first ? "" : ",", static_cast<long long>(key >> 16), static_cast<long long>(key & 0xffff),
                   static_cast<unsigned long long>(hist.back()));
      for (size_t v = 0; v + 1 < hist.size(); ++v) {
        std::fprintf(out, "%s%llu", v ? "," : "", static_cast<unsigned long long>(hist[v]));
      }
      std::fprintf(out, "]}");
      first = false;
    }
    std::fprintf(out, "],\"consumers\":[");
    for (size_t i = 0; i < consumers_.size(); ++i) {
      std::fprintf(out, "%s[\"%s\",%llu]", i ? "," : "", consumers_[i].name.c_str(),
                   static_cast<unsigned long long>(consumers_[i].acked));
    }
    std::fprintf(out, "]");
  }

  int port_, pid_;
  uint64_t seed_;
  int epoll_ = -1;
  std::vector<Conn> conns_;
  std::vector<Template> templates_;
  std::vector<Consumer> consumers_;
  std::vector<Phase> phases_;
  std::vector<int> churn_queue_;
  size_t churn_next_ = 0;
  Phase* phase_ = nullptr;
  bool issuing_ = false;
  int64_t stop_ns_ = 0;
  std::vector<int64_t> groups_[kGroups];
  static constexpr int kWindows = 10;
  int64_t start_ns_ = 0, window_ns_ = 1;
  int next_window_ = 1;
  std::vector<int64_t> window_lat_[kWindows][kGroups];
  uint64_t window_replies_[kWindows] = {}, window_ok_[kWindows] = {};
  ProcSample window_proc_[kWindows + 1];
  std::vector<int64_t> lateness_ns_;
  Counters counters_;
  uint64_t total_failed_ = 0;
  std::unordered_map<int64_t, std::vector<uint64_t>> histograms_;
  std::map<std::string, int64_t> trace_sum_;
  uint64_t trace_count_ = 0;
  int errors_logged_ = 0;
  std::string line_, loss_, cache_;
  std::vector<long> released_;
};

}  // namespace

int main(int argc, char** argv) {
  int port = -1, pid = -1;
  uint64_t seed = 1;
  std::string spec, out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--port") port = std::atoi(value.c_str());
    else if (key == "--pid") pid = std::atoi(value.c_str());
    else if (key == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--spec") spec = value;
    else if (key == "--out") out_path = value;
    else Die("unknown flag " + key);
  }
  if (port <= 0 || pid <= 0 || spec.empty() || out_path.empty()) {
    Die("usage: perfbench_load --port P --pid PID --spec SPEC --out OUT [--seed S]");
  }
  Generator gen(port, pid, seed);
  gen.LoadSpec(spec);
  gen.Connect();
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) Die("cannot write " + out_path);
  gen.Run(out);
  std::fclose(out);
  return 0;
}
