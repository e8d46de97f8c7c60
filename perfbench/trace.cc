// perfbench_trace: the traced run's in-process replay.
//
//   perfbench_trace --spec SPEC --seed S --spans OUT.jsonl [--store DIR]
//                   [--scratch DIR]
//
// Replays a workload's seeded request stream (the same SPEC perfbench_load
// reads) through the library's public functions, one layer at a time, and
// records a span around every call: name, start, end, parent span and
// request id.  Spans stay in memory and are written to OUT.jsonl at the
// end.  Each request's calls are children of one "request" span, so a
// layer's self time is its span minus the time its child spans cover.
//
// Prints one JSON object of per-layer metrics on its last stdout line.
// Metrics of a layer the workload does not exercise print as 0: solves
// need churn templates in SPEC, reloads need --store.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/mechanism.h"
#include "rng/batch_sampler.h"
#include "rng/engine.h"
#include "service/budget_ledger.h"
#include "service/mechanism_cache.h"
#include "service/protocol.h"
#include "service/query_pipeline.h"
#include "service/server.h"
#include "service/signature.h"
#include "util/metrics.h"

namespace {

using namespace geopriv;
using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_trace: %s\n", what.c_str());
  std::exit(2);
}

int64_t Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch()).count();
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- spans -----------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start, end;
  int parent;   // index of the parent span, -1 for a root
  int request;  // request id shared by one request's spans
};

class Tracer {
 public:
  int Begin(const char* name, int parent, int request) {
    spans_.push_back({name, Now(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Closes the span; returns its duration in ns.
  double End(int span) {
    Span& s = spans_[static_cast<size_t>(span)];
    s.end = Now();
    return static_cast<double>(s.end - s.start);
  }

  // Mean duration (ns) of every span called `name`.
  double MeanNs(const std::string& name) const {
    double sum = 0;
    size_t n = 0;
    for (const Span& s : spans_) {
      if (name == s.name) {
        sum += static_cast<double>(s.end - s.start);
        ++n;
      }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  }

  // Mean self time (ns) of spans called `name`: duration minus children.
  double MeanSelfNs(const std::string& name) const {
    std::vector<int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    double sum = 0;
    size_t n = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) {
        sum += static_cast<double>(spans_[i].end - spans_[i].start - child[i]);
        ++n;
      }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
          << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

// ---- the workload's inputs (the perfbench_load spec) ------------------------

struct Template {
  std::string mode, loss;
  int n = 0, lo = 0, hi = 0;
  long long an = 0, ad = 1;
  bool churn = false;
  MechanismSignature signature;
};

struct Account {
  std::string name;
  double level = 1.0;
  uint64_t releases = 0;
};

struct Spec {
  std::vector<Template> templates;
  std::vector<Account> accounts;
  std::vector<int> kset{1};
};

Spec LoadSpec(const std::string& path) {
  Spec spec;
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    std::stringstream ls(line);
    std::string word;
    ls >> word;
    if (word == "template") {
      Template t;
      int id = 0, churn = 0;
      ls >> id >> t.mode >> t.n >> t.an >> t.ad >> t.loss >> t.lo >> t.hi >> churn;
      t.churn = churn != 0;
      t.signature = Must(MechanismSignature::Create(t.n, Must(Rational::FromInts(t.an, t.ad), "alpha"), t.loss, t.lo, t.hi,
                                                    Must(ServeModeFromString(t.mode), "mode")),
                         "signature");
      spec.templates.push_back(std::move(t));
    } else if (word == "consumer") {
      int conn = 0;
      Account a;
      ls >> conn >> a.name >> a.level >> a.releases;
      spec.accounts.push_back(std::move(a));
    } else if (word == "role") {
      int conn = 0;
      std::string kind, tmpls, kset;
      ls >> conn >> kind;
      if (kind == "closed" || kind == "open") {
        double x;
        ls >> x >> tmpls >> kset;
      } else if (kind == "batch") {
        int a, b;
        ls >> a >> b >> tmpls >> kset;
      }
      // The largest draw mix any role asks for stands for the workload.
      std::vector<int> ks;
      std::stringstream kl(kset);
      std::string k;
      while (std::getline(kl, k, ',')) ks.push_back(std::atoi(k.c_str()));
      if (ks.size() > spec.kset.size()) spec.kset = ks;
    }
  }
  if (spec.templates.empty() || spec.accounts.empty()) Die("spec without templates or consumers");
  return spec;
}

std::string QueryLine(const Template& t, const std::string& consumer, int count, uint64_t seed, int k) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"op\":\"query\",\"mode\":\"%s\",\"n\":%d,\"alpha\":\"%lld/%lld\",\"loss\":\"%s\","
                "\"lo\":%d,\"hi\":%d,\"consumer\":\"%s\",\"count\":%d,\"seed\":%llu%s}",
                t.mode.c_str(), t.n, t.an, t.ad, t.loss.c_str(), t.lo, t.hi, consumer.c_str(), count,
                static_cast<unsigned long long>(seed),
                k > 1 ? (",\"samples\":" + std::to_string(k)).c_str() : "");
  return buf;
}

struct Request {
  int tmpl, count, k;
  size_t account;
  uint64_t seed;
  std::string line;
};

std::vector<Request> MakeRequests(const Spec& spec, const std::vector<int>& cached, uint64_t seed, size_t n) {
  uint64_t rng = seed ^ 0x7472616365ULL;
  std::vector<Request> out;
  for (size_t i = 0; i < n; ++i) {
    Request r;
    r.tmpl = cached[SplitMix(&rng) % cached.size()];
    const Template& t = spec.templates[static_cast<size_t>(r.tmpl)];
    r.count = t.lo + static_cast<int>(SplitMix(&rng) % static_cast<uint64_t>(t.hi - t.lo + 1));
    r.k = spec.kset[SplitMix(&rng) % spec.kset.size()];
    r.account = i % spec.accounts.size();
    r.seed = SplitMix(&rng) >> 12;
    r.line = QueryLine(t, spec.accounts[r.account].name, r.count, r.seed, r.k);
    out.push_back(std::move(r));
  }
  return out;
}

void Restore(BudgetLedger* ledger, const Spec& spec) {
  std::vector<BudgetLedger::AccountSnapshot> accounts;
  for (const Account& a : spec.accounts) accounts.push_back({a.name, a.level, a.releases, 1.0, 0});
  if (!ledger->Restore(accounts).ok()) Die("ledger restore failed");
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// Times `body` (which does `per_call` units of work) until `min_ns` have
// passed; returns ns per unit, the median over ten such blocks.
template <typename F>
double NsPerUnit(F body, double per_call, int64_t min_ns = 20000000) {
  std::vector<double> blocks;
  for (int b = 0; b < 10; ++b) {
    int64_t calls = 0;
    const int64_t t0 = Now();
    int64_t t1 = t0;
    while (t1 - t0 < min_ns / 10) {
      body();
      ++calls;
      t1 = Now();
    }
    blocks.push_back(static_cast<double>(t1 - t0) / (static_cast<double>(calls) * per_call));
  }
  return Median(blocks);
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path, spans_path, store, scratch = ".";
  uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--spec") spec_path = value;
    else if (key == "--spans") spans_path = value;
    else if (key == "--store") store = value;
    else if (key == "--scratch") scratch = value;
    else if (key == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else Die("unknown flag " + key);
  }
  if (spec_path.empty() || spans_path.empty()) {
    Die("usage: perfbench_trace --spec SPEC --spans OUT [--seed S] [--store DIR] [--scratch DIR]");
  }
  const Spec spec = LoadSpec(spec_path);
  std::vector<int> cached, churn;
  for (size_t i = 0; i < spec.templates.size(); ++i) {
    (spec.templates[i].churn ? churn : cached).push_back(static_cast<int>(i));
  }
  std::map<std::string, double> m;
  Tracer tracer;

  // A service with the workload's cached signatures, no persistence.
  ServiceOptions options;
  options.budget_alpha = 1e-200;
  MechanismService service(options);
  for (int t : cached) Must(service.cache().GetOrSolve(spec.templates[static_cast<size_t>(t)].signature), "prewarm");
  Restore(&service.ledger(), spec);
  BudgetLedger ledger(1e-200);
  Restore(&ledger, spec);
  BudgetLedger pipeline_ledger(1e-200);
  Restore(&pipeline_ledger, spec);
  QueryPipeline pipeline(&service.cache(), &pipeline_ledger);

  // ---- the request ladder, one request at a time --------------------------
  const std::vector<Request> requests = MakeRequests(spec, cached, seed, 4000);
  BatchWindow window;
  bool shutdown = false;
  std::string reply_text;
  for (size_t id = 0; id < requests.size(); ++id) {
    const Request& r = requests[id];
    const Template& t = spec.templates[static_cast<size_t>(r.tmpl)];
    const int req = static_cast<int>(id);
    const int root = tracer.Begin("request", -1, req);
    int s = tracer.Begin("protocol.parse", root, req);
    Result<ServiceRequest> parsed = ParseRequestLine(r.line);
    tracer.End(s);
    if (!parsed.ok()) Die("parse: " + parsed.status().ToString());
    s = tracer.Begin("cache.contains", root, req);
    const bool present = service.cache().Contains(t.signature);
    tracer.End(s);
    if (!present) Die("replayed signature is not cached");
    // ExecuteBatch, then the lookup, charge and sample calls it makes,
    // replayed one by one as its child spans: the pipeline's self time is
    // its span minus theirs.
    const int batch1 = tracer.Begin("pipeline.batch1", root, req);
    std::vector<ServiceReply> replies = pipeline.ExecuteBatch({parsed->query});
    tracer.End(batch1);
    if (!replies[0].status.ok()) Die("pipeline: " + replies[0].status.ToString());
    s = tracer.Begin("cache.hit", batch1, req);
    std::shared_ptr<const ServedMechanism> entry = Must(service.cache().GetOrSolve(t.signature), "hit");
    tracer.End(s);
    s = tracer.Begin("ledger.charge", batch1, req);
    BudgetDecision decision = Must(ledger.ChargeMany(spec.accounts[r.account].name, t.signature.alpha.ToDouble(),
                                                     static_cast<uint64_t>(r.k)),
                                   "charge");
    tracer.End(s);
    ServiceReply reply;
    Xoshiro256 rng(r.seed);
    s = tracer.Begin("core.sample", batch1, req);
    for (int j = 0; j < r.k; ++j) {
      const int v = Must(entry->mechanism.Sample(r.count, rng), "sample");
      if (r.k > 1) reply.released_values.push_back(v);
      if (j == 0) reply.released = v;
    }
    tracer.End(s);
    reply.level_after = decision.composed_level;
    reply.composed_level = decision.composed_level;
    reply.budget = decision.budget;
    reply.optimal_loss = entry->loss;
    reply.cache = "hit";
    reply_text.clear();
    s = tracer.Begin("protocol.format", root, req);
    AppendQueryReply(parsed->query, reply, &reply_text);
    tracer.End(s);
    s = tracer.Begin("server.handle_line", root, req);
    reply_text = service.HandleLine(r.line, &window, &shutdown);
    tracer.End(s);
    tracer.End(root);
  }
  m["protocol.parse_us"] = tracer.MeanNs("protocol.parse") / 1e3;
  m["protocol.format_us"] = tracer.MeanNs("protocol.format") / 1e3;
  m["cache.contains_ns"] = tracer.MeanNs("cache.contains");
  m["cache.hit_us"] = tracer.MeanNs("cache.hit") / 1e3;
  m["ledger.charge_ns"] = tracer.MeanNs("ledger.charge");
  m["pipeline.batch1_us"] = tracer.MeanNs("pipeline.batch1") / 1e3;
  m["pipeline.self_us"] = tracer.MeanSelfNs("pipeline.batch1") / 1e3;
  m["server.handle_line_us"] = tracer.MeanNs("server.handle_line") / 1e3;

  // ---- batch of 64 through the pipeline ------------------------------------
  for (size_t b = 0; b + 64 <= requests.size(); b += 64) {
    std::vector<ServiceQuery> batch;
    for (size_t i = b; i < b + 64; ++i) batch.push_back(Must(ParseRequestLine(requests[i].line), "parse").query);
    const int s = tracer.Begin("pipeline.batch64", -1, static_cast<int>(b / 64));
    pipeline.ExecuteBatch(batch);
    tracer.End(s);
  }
  m["pipeline.batch64_us"] = tracer.MeanNs("pipeline.batch64") / 1e3;

  // ---- sampling kernels on the workload's rows ------------------------------
  std::vector<AliasTable> tables;
  std::vector<std::pair<const Mechanism*, int>> rows;
  std::vector<std::shared_ptr<const ServedMechanism>> keep;
  for (const Request& r : requests) {
    if (tables.size() >= 64) break;
    const Template& t = spec.templates[static_cast<size_t>(r.tmpl)];
    keep.push_back(Must(service.cache().GetOrSolve(t.signature), "hit"));
    tables.push_back(Must(AliasTable::FromWeights(keep.back()->mechanism.RowDistribution(r.count)), "table"));
    rows.emplace_back(&keep.back()->mechanism, r.count);
  }
  std::vector<uint64_t> seeds(4096);
  uint64_t srng = seed;
  for (uint64_t& s : seeds) s = SplitMix(&srng) >> 12;
  std::vector<int32_t> out(4096);
  size_t which = 0;
  for (size_t batch : {size_t{1}, size_t{64}, size_t{4096}}) {
    m["rng.alias_ns_per_sample.b" + std::to_string(batch)] = NsPerUnit(
        [&] {
          tables[which++ % tables.size()].SampleBatch(seeds.data(), batch, out.data());
        },
        static_cast<double>(batch));
  }
  int sink = 0;
  m["core.mechanism_sample_ns"] = NsPerUnit(
      [&] {
        const auto& [mech, row] = rows[which++ % rows.size()];
        Xoshiro256 rng(seeds[which % seeds.size()]);
        sink += Must(mech->Sample(row, rng), "sample");
      },
      1.0);

  // ---- ledger snapshot at the workload's account count ----------------------
  m["ledger.snapshot_ms"] = NsPerUnit([&] { sink += static_cast<int>(ledger.Snapshot().size()); }, 1.0) / 1e6;

  // ---- metrics registry on/off, interleaved ----------------------------------
  {
    std::vector<double> diffs;
    size_t i = 0;
    for (int block = 0; block < 40; ++block) {
      double per[2];
      for (int on = 0; on < 2; ++on) {
        metrics::SetEnabled(on == 1);
        const int64_t t0 = Now();
        for (int q = 0; q < 200; ++q) {
          reply_text = service.HandleLine(requests[i++ % requests.size()].line, &window, &shutdown);
        }
        per[on] = static_cast<double>(Now() - t0) / 200.0;
      }
      diffs.push_back(per[1] - per[0]);
    }
    metrics::SetEnabled(true);
    m["metrics.overhead_ns_per_query"] = Median(diffs);
  }

  // ---- never-seen signatures: cold/warm solves and publish-time persistence --
  m["cache.cold_solve_ms"] = 0;
  m["cache.warm_solve_ms"] = 0;
  m["cache.publish_persist_ms"] = 0;
  if (!churn.empty()) {
    // The stream's first signatures, each solved in two caches that hold
    // the same entries -- one without a persist directory, one with -- so
    // both take the same warm start and differ only by publish-time
    // persistence.
    const size_t count = std::min<size_t>(churn.size(), 120);
    const std::string dir = scratch + "/trace-store";
    std::filesystem::remove_all(dir);
    MechanismCache plain;
    CacheOptions persisted_options;
    persisted_options.persist_dir = dir;
    MechanismCache persisted(persisted_options);
    std::vector<double> cold_ms, warm_ms, persist_diff_ms;
    for (size_t i = 0; i < count; ++i) {
      const MechanismSignature& signature = spec.templates[static_cast<size_t>(churn[i])].signature;
      int s = tracer.Begin("cache.miss", -1, static_cast<int>(i));
      std::shared_ptr<const ServedMechanism> e = Must(plain.GetOrSolve(signature), "solve");
      const double plain_ms = tracer.End(s) / 1e6;
      (e->warm_started ? warm_ms : cold_ms).push_back(plain_ms);
      s = tracer.Begin("cache.miss_persisted", -1, static_cast<int>(i));
      Must(persisted.GetOrSolve(signature), "solve");
      persist_diff_ms.push_back(tracer.End(s) / 1e6 - plain_ms);
    }
    std::filesystem::remove_all(dir);
    auto mean = [](const std::vector<double>& v) {
      double sum = 0;
      for (double x : v) sum += x;
      return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    m["cache.cold_solve_ms"] = mean(cold_ms);
    m["cache.warm_solve_ms"] = mean(warm_ms);
    m["cache.publish_persist_ms"] = Median(persist_diff_ms);
  }

  // ---- store and ledger reload (durable_charges) -----------------------------
  m["cache.load_ms_per_entry"] = 0;
  m["server.load_persisted_s"] = 0;
  m["server.persist_ms"] = 0;
  if (!store.empty()) {
    const std::string copy = scratch + "/trace-reload";
    std::filesystem::remove_all(copy);
    std::filesystem::copy(store, copy, std::filesystem::copy_options::recursive);
    {
      MechanismCache cache;
      const int64_t t0 = Now();
      MechanismCache::LoadReport report = Must(cache.LoadFromDirectory(copy), "load");
      m["cache.load_ms_per_entry"] = static_cast<double>(Now() - t0) / 1e6 / std::max(1, report.loaded);
    }
    ServiceOptions durable = options;
    durable.persist_dir = copy;
    MechanismService reloaded(durable);
    const int64_t t0 = Now();
    Must(reloaded.LoadPersisted(), "reload");
    m["server.load_persisted_s"] = static_cast<double>(Now() - t0) / 1e9;
    m["server.persist_ms"] = NsPerUnit(
        [&] {
          if (!reloaded.Persist().ok()) Die("persist failed");
        },
        1.0, 200000000) / 1e6;
    std::filesystem::remove_all(copy);
  }

  tracer.Write(spans_path);
  std::printf("{");
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\":%.9g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("}\n");
  return sink == -1 ? 1 : 0;
}
