// perfgen: the benchmark's load generator; it also starts and stops the servers it measures.
//
// One invocation runs one workload once. It starts kronosd as a child process pinned to the
// server CPU set (or, for `replicated`, an in-process KronosCluster whose threads are pinned
// there), pins itself to the generator CPU set, preloads the inputs run.py generated, and
// offers load through the open-loop schedule and runner in src/loadgen. Latency is measured
// from each operation's intended start. It writes the figures it measured as `key value`
// lines to <dir>/result.txt and the answers the service gave to <dir>/obs_*.txt, which
// run.py checks against its own oracle; perfgen itself judges no answer.
//
//   perfgen <dir>      (reads <dir>/params.txt, written by run.py)
//
// An end-to-end run (trace=0) spreads its measurements over rounds (RunEndToEnd). A traced
// run (trace=1) runs the fixed-rate phase twice, untraced then traced, and reports the
// per-layer budget from benchmark-side timers, kIntrospect diffs and drained trace spans.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/client/client.h"
#include "src/client/tcp_client.h"
#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/graphstore/kronograph.h"
#include "src/loadgen/runner.h"
#include "src/loadgen/scenario.h"
#include "src/loadgen/schedule.h"
#include "src/net/rpc.h"
#include "src/server/cluster.h"
#include "src/telemetry/trace.h"
#include "src/wire/codec.h"

namespace {

using kronos::AssignOutcome;
using kronos::AssignSpec;
using kronos::Command;
using kronos::Constraint;
using kronos::EventId;
using kronos::EventPair;
using kronos::KronosApi;
using kronos::MetricsSnapshot;
using kronos::Order;
using kronos::Result;
using kronos::Rng;
using kronos::Status;
using kronos::TcpKronos;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfgen: %s\n", what.c_str());
  std::fflush(stderr);
  _exit(2);
}

uint64_t NowNs() { return kronos::MonotonicNanos(); }

// --- parameters ----------------------------------------------------------------------------

class Params {
 public:
  explicit Params(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      Die("cannot read " + path);
    }
    std::string key, value;
    while (in >> key >> value) {
      values_[key] = value;
    }
  }
  std::string Str(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      Die("missing parameter " + key);
    }
    return it->second;
  }
  double Num(const std::string& key) const { return std::strtod(Str(key).c_str(), nullptr); }
  uint64_t U64(const std::string& key) const { return static_cast<uint64_t>(Num(key)); }
  int Int(const std::string& key) const { return static_cast<int>(Num(key)); }

 private:
  std::map<std::string, std::string> values_;
};

cpu_set_t ParseCpus(const std::string& list) {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    CPU_SET(std::atoi(item.c_str()), &set);
  }
  return set;
}

void PinThisThread(const cpu_set_t& set) {
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    Die("sched_setaffinity failed");
  }
}

// --- results -------------------------------------------------------------------------------

class ResultFile {
 public:
  void Set(const std::string& key, double value) { values_[key] = value; }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    char buf[64];
    for (const auto& [k, v] : values_) {
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      out << k << ' ' << buf << '\n';
    }
  }

 private:
  std::map<std::string, double> values_;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- kronosd as a child process ------------------------------------------------------------

struct Kronosd {
  pid_t pid = -1;
  int out_fd = -1;
  uint16_t port = 0;
  uint64_t rss_start = 0;  // VmRSS once listening, before any load
};

// VmHWM / VmRSS of a process, in bytes.
uint64_t ProcStatusBytes(pid_t pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const std::string tag = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(tag, 0) == 0) {
      return std::strtoull(line.c_str() + tag.size(), nullptr, 10) * 1024;
    }
  }
  return 0;
}

// Every live child, so an early exit still reaps them (run.py also kills the process group).
std::vector<pid_t> g_children;

void KillChild(Kronosd& d, int sig) {
  if (d.pid <= 0) {
    return;
  }
  kill(d.pid, sig);
  int status = 0;
  waitpid(d.pid, &status, 0);
  g_children.erase(std::remove(g_children.begin(), g_children.end(), d.pid), g_children.end());
  if (d.out_fd >= 0) {
    close(d.out_fd);
  }
  d = Kronosd{};
}

void KillAllChildren() {
  for (pid_t pid : g_children) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  g_children.clear();
}

// Starts kronosd with `args`, pinned to `cpus`, stderr appended to `log_path`; returns once it
// prints its listening line (startup recovery is complete by then). Retries a lost bind race
// when restarting on a fixed port.
Kronosd SpawnKronosd(const std::string& binary, const std::vector<std::string>& args,
                     const cpu_set_t& cpus, const std::string& log_path) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<std::string> full = {binary};
    full.insert(full.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : full) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
      Die("pipe failed");
    }
    const int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log_fd < 0) {
      Die("cannot open " + log_path);
    }
    const pid_t pid = fork();
    if (pid < 0) {
      Die("fork failed");
    }
    if (pid == 0) {
      sched_setaffinity(0, sizeof(cpus), &cpus);
      dup2(fds[1], 1);
      dup2(log_fd, 2);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    close(log_fd);
    g_children.push_back(pid);
    Kronosd d;
    d.pid = pid;
    d.out_fd = fds[0];
    std::string line;
    bool eof = false;
    const uint64_t deadline = NowNs() + 60'000'000'000ull;
    while (!eof && d.port == 0) {
      pollfd p{d.out_fd, POLLIN, 0};
      if (poll(&p, 1, 1000) <= 0) {
        if (NowNs() > deadline) {
          Die("kronosd did not start");
        }
        continue;
      }
      char c;
      const ssize_t n = read(d.out_fd, &c, 1);
      if (n <= 0) {
        eof = true;
      } else if (c == '\n') {
        const std::string tag = "listening on 127.0.0.1:";
        const size_t at = line.find(tag);
        if (at != std::string::npos) {
          d.port = static_cast<uint16_t>(std::atoi(line.c_str() + at + tag.size()));
        }
        line.clear();
      } else {
        line.push_back(c);
      }
    }
    if (d.port != 0) {
      d.rss_start = ProcStatusBytes(d.pid, "VmRSS");
      return d;
    }
    KillChild(d, SIGKILL);  // exited before listening: a bind race on restart
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Die("kronosd failed to start 200 times");
}

// Keeps the given CPUs from idling while it lives: one SCHED_IDLE thread per CPU spins
// whenever nothing else wants that CPU, and yields to any normal thread at once. On a virtual
// machine an idle vCPU halts and is woken through the host, whose wake-up latency varies with
// the host's load from run to run; a spinning vCPU is never halted. A thread that cannot be
// pinned or demoted to SCHED_IDLE does not spin.
class KeepAwake {
 public:
  explicit KeepAwake(const cpu_set_t& cpus) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &cpus)) {
        threads_.emplace_back([this, c] {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(c, &one);
          sched_param sp{};
          if (sched_setaffinity(0, sizeof(one), &one) != 0 ||
              sched_setscheduler(0, SCHED_IDLE, &sp) != 0) {
            return;
          }
          while (!stop_.load(std::memory_order_relaxed)) {
            __builtin_ia32_pause();
          }
        });
      }
    }
  }
  ~KeepAwake() {
    stop_ = true;
    for (auto& t : threads_) {
      t.join();
    }
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// --- benchmark-side timers around the public client API ------------------------------------

enum CallKind { kCreate = 0, kAssign = 1, kQuery = 2, kRef = 3, kNumCallKinds = 4 };

struct CallStats {
  std::atomic<uint64_t> count[kNumCallKinds] = {};
  std::atomic<uint64_t> ns[kNumCallKinds] = {};
  void Add(CallKind k, uint64_t elapsed) {
    count[k].fetch_add(1, std::memory_order_relaxed);
    ns[k].fetch_add(elapsed, std::memory_order_relaxed);
  }
  void Reset() {
    for (int k = 0; k < kNumCallKinds; ++k) {
      count[k] = 0;
      ns[k] = 0;
    }
  }
  double MeanUs(CallKind k) const {
    const uint64_t n = count[k].load();
    return n == 0 ? 0.0 : static_cast<double>(ns[k].load()) / n / 1000.0;
  }
  uint64_t Calls() const {
    uint64_t n = 0;
    for (int k = 0; k < kNumCallKinds; ++k) {
      n += count[k].load();
    }
    return n;
  }
};

class TimedApi : public KronosApi {
 public:
  TimedApi(KronosApi& inner, CallStats& stats) : inner_(inner), stats_(stats) {}

  Result<EventId> CreateEvent() override {
    const uint64_t t = NowNs();
    auto r = inner_.CreateEvent();
    stats_.Add(kCreate, NowNs() - t);
    return r;
  }
  Status AcquireRef(EventId e) override {
    const uint64_t t = NowNs();
    auto r = inner_.AcquireRef(e);
    stats_.Add(kRef, NowNs() - t);
    return r;
  }
  Result<uint64_t> ReleaseRef(EventId e) override {
    const uint64_t t = NowNs();
    auto r = inner_.ReleaseRef(e);
    stats_.Add(kRef, NowNs() - t);
    return r;
  }
  Result<std::vector<Order>> QueryOrder(std::vector<EventPair> pairs) override {
    const uint64_t t = NowNs();
    auto r = inner_.QueryOrder(std::move(pairs));
    stats_.Add(kQuery, NowNs() - t);
    return r;
  }
  Result<std::vector<AssignOutcome>> AssignOrder(std::vector<AssignSpec> specs) override {
    const uint64_t t = NowNs();
    auto r = inner_.AssignOrder(std::move(specs));
    stats_.Add(kAssign, NowNs() - t);
    return r;
  }

 private:
  KronosApi& inner_;
  CallStats& stats_;
};

// --- open-loop phases ----------------------------------------------------------------------

using OpFn = std::function<bool(int worker, Rng& rng)>;

struct Phase {
  std::vector<uint64_t> lat_ns;  // sorted, from intended start to reply
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double offered = 0;
  double achieved = 0;
  uint64_t late_max_us = 0;

  double PctUs(double q) const {
    if (lat_ns.empty()) {
      return 0;
    }
    const size_t i = std::min(lat_ns.size() - 1, static_cast<size_t>(q * lat_ns.size()));
    return static_cast<double>(lat_ns[i]) / 1000.0;
  }
  double MedianUs() const {
    if (lat_ns.empty()) {
      return 0;
    }
    const size_t n = lat_ns.size();
    return n % 2 == 1 ? lat_ns[n / 2] / 1000.0 : (lat_ns[n / 2 - 1] + lat_ns[n / 2]) / 2000.0;
  }
};

Phase RunPhase(double rate, double seconds, int workers, uint64_t seed, const OpFn& op) {
  kronos::loadgen::OpenLoopScheduleOptions so;
  so.rate_per_s = rate;
  so.duration_us = static_cast<uint64_t>(seconds * 1e6);
  so.arrival = kronos::loadgen::ArrivalProcess::kUniform;
  so.seed = seed;
  const auto schedule = kronos::loadgen::OpenLoopSchedule::Build(so);

  // The runner's first clock read is its t0; capture it so each op's intended start is known
  // here at nanosecond resolution.
  std::atomic<uint64_t> t0_us{0};
  kronos::loadgen::RunnerOptions ro;
  ro.workers = workers;
  ro.seed = seed;
  ro.now_us = [&t0_us] {
    const uint64_t now = kronos::MonotonicMicros();
    uint64_t expected = 0;
    t0_us.compare_exchange_strong(expected, now);
    return now;
  };
  std::vector<std::vector<uint64_t>> lat(static_cast<size_t>(workers));
  for (auto& v : lat) {
    v.reserve(schedule.size() / workers + 16);
  }
  const auto report = kronos::loadgen::RunOpenLoop(
      schedule, ro, [&](int w, size_t i, Rng& rng) -> kronos::loadgen::OpOutcome {
        const uint64_t intended = (t0_us.load() + schedule.offset_us(i)) * 1000;
        const bool ok = op(w, rng);
        const uint64_t done = NowNs();
        lat[static_cast<size_t>(w)].push_back(done > intended ? done - intended : 0);
        return {"op", ok};
      });
  Phase p;
  for (auto& v : lat) {
    p.lat_ns.insert(p.lat_ns.end(), v.begin(), v.end());
  }
  std::sort(p.lat_ns.begin(), p.lat_ns.end());
  p.attempted = report.completed() + report.failed();
  p.failed = report.failed();
  p.offered = schedule.offered_rate();
  p.achieved = report.achieved_rate();
  p.late_max_us = report.max_backlog_us();
  return p;
}

// Counts of a whole run: every op of a measured phase is attempted; warm-up is not counted.
struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(const Phase& p) {
    attempted += p.attempted;
    failed += p.failed;
  }
  void Add(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

// Runs fn(0), ..., fn(n - 1) on n threads and waits for all of them.
void ParallelFor(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back(fn, i);
  }
  for (auto& t : threads) {
    t.join();
  }
}

// Closed-loop throughput: every worker runs `ops_per_worker` operations back to back. The
// count, not a duration, is fixed, so every run does the same work whatever the host's speed.
double ClosedLoopRate(int workers, uint64_t ops_per_worker, uint64_t seed, const OpFn& op,
                      Totals& totals) {
  std::atomic<uint64_t> failed{0};
  const uint64_t t0 = NowNs();
  ParallelFor(workers, [&](int w) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(w) + 7);
    for (uint64_t i = 0; i < ops_per_worker; ++i) {
      failed.fetch_add(op(w, rng) ? 0 : 1);
    }
  });
  const uint64_t done = ops_per_worker * static_cast<uint64_t>(workers);
  totals.attempted += done;
  totals.failed += failed.load();
  return static_cast<double>(done) / (static_cast<double>(NowNs() - t0) * 1e-9);
}

// A warm-up (discarded) then a fixed-rate phase.
Phase MeasureFixedRate(int workers, uint64_t seed, double warmup_s, double rate, double seconds,
                       const OpFn& op, const std::function<void()>& after_warmup = {}) {
  if (warmup_s > 0) {
    RunPhase(rate, warmup_s, workers, seed, op);
  }
  if (after_warmup) {
    after_warmup();
  }
  return RunPhase(rate, seconds, workers, seed + 1, op);
}

void RecordLatency(ResultFile& out, const Phase& p) {
  out.Set("p50_us", p.MedianUs());
  out.Set("p99_us", p.PctUs(0.99));
  out.Set("p999_us", p.PctUs(0.999));
  out.Set("latency_samples", static_cast<double>(p.lat_ns.size()));
  out.Set("p50_offered_ops_s", p.offered);
  out.Set("p50_achieved_ops_s", p.achieved);
  out.Set("p50_late_us_max", static_cast<double>(p.late_max_us));
}

// --- introspection diffs -------------------------------------------------------------------

struct Snap {
  std::map<std::string, double> counters;   // counters and gauges
  std::map<std::string, std::pair<double, double>> hists;  // name -> (count, sum)

  static Snap From(const MetricsSnapshot& m) {
    Snap s;
    for (const auto& [k, v] : m.counters) {
      s.counters[k] = static_cast<double>(v);
    }
    for (const auto& [k, v] : m.gauges) {
      s.counters[k] = static_cast<double>(v);
    }
    for (const auto& [k, h] : m.histograms) {
      s.hists[k] = {static_cast<double>(h.count), static_cast<double>(h.sum)};
    }
    return s;
  }
  double C(const std::string& k) const {
    auto it = counters.find(k);
    return it == counters.end() ? 0.0 : it->second;
  }
  std::pair<double, double> H(const std::string& k) const {
    auto it = hists.find(k);
    return it == hists.end() ? std::pair<double, double>{0, 0} : it->second;
  }
};

// Window deltas between two snapshots.
struct Diff {
  Snap a, b;
  double C(const std::string& k) const { return b.C(k) - a.C(k); }
  double HCount(const std::string& k) const { return b.H(k).first - a.H(k).first; }
  double HSum(const std::string& k) const { return b.H(k).second - a.H(k).second; }
  double HMean(const std::string& k) const {
    const double n = HCount(k);
    return n <= 0 ? 0.0 : HSum(k) / n;
  }
};

Snap MergeSnaps(const std::vector<Snap>& snaps) {
  Snap out;
  for (const auto& s : snaps) {
    for (const auto& [k, v] : s.counters) {
      out.counters[k] += v;
    }
    for (const auto& [k, h] : s.hists) {
      out.hists[k].first += h.first;
      out.hists[k].second += h.second;
    }
  }
  return out;
}

// Per-stage self time and annotations from drained daemon spans: a span's self time is its
// duration minus the part covered by other spans of the same request nested inside it.
struct SpanBudget {
  std::map<uint8_t, double> self_ns_sum;
  std::map<uint8_t, double> count;
  std::map<uint8_t, double> arg0_sum;

  void Add(const std::vector<kronos::trace::Span>& spans) {
    std::map<uint64_t, std::vector<const kronos::trace::Span*>> by_rid;
    for (const auto& s : spans) {
      if (s.request_id != 0) {
        by_rid[s.request_id].push_back(&s);
      }
    }
    for (const auto& [rid, list] : by_rid) {
      for (const auto* s : list) {
        uint64_t covered = 0;
        for (const auto* c : list) {
          if (c != s && c->begin_ns >= s->begin_ns && c->end_ns <= s->end_ns &&
              (c->end_ns - c->begin_ns) < (s->end_ns - s->begin_ns)) {
            covered += c->end_ns - c->begin_ns;
          }
        }
        const uint64_t dur = s->end_ns - s->begin_ns;
        self_ns_sum[s->stage] += static_cast<double>(dur > covered ? dur - covered : 0);
        count[s->stage] += 1;
        arg0_sum[s->stage] += static_cast<double>(s->arg0);
      }
    }
  }
  double SelfUs(kronos::trace::Stage st) const {
    const auto k = static_cast<uint8_t>(st);
    auto it = count.find(k);
    return it == count.end() || it->second == 0 ? 0.0 : self_ns_sum.at(k) / it->second / 1000.0;
  }
  double Arg0Mean(kronos::trace::Stage st) const {
    const auto k = static_cast<uint8_t>(st);
    auto it = count.find(k);
    return it == count.end() || it->second == 0 ? 0.0 : arg0_sum.at(k) / it->second;
  }
};

// Drains kTraceDump on its own connection every few milliseconds while a window runs.
class TraceDrainer {
 public:
  explicit TraceDrainer(uint16_t port) {
    auto c = TcpKronos::Connect(port);
    if (!c.ok()) {
      Die("trace drainer connect: " + c.status().ToString());
    }
    client_ = std::move(*c);
    DrainOnce();  // spans from before the window (preload, warm-up) are not budgeted
    spans_.clear();
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        DrainOnce();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      DrainOnce();
    });
  }
  ~TraceDrainer() { Stop(); }
  TraceDrainer(const TraceDrainer&) = delete;
  TraceDrainer& operator=(const TraceDrainer&) = delete;

  void Stop() {
    if (thread_.joinable()) {
      stop_ = true;
      thread_.join();
    }
  }
  std::vector<kronos::trace::Span> Take() {
    Stop();
    return std::move(spans_);
  }

 private:
  void DrainOnce() {
    auto r = client_->TraceDump();
    if (!r.ok()) {
      Die("trace dump: " + r.status().ToString());
    }
    spans_.insert(spans_.end(), r->begin(), r->end());
  }
  std::unique_ptr<TcpKronos> client_;
  std::atomic<bool> stop_{false};
  std::vector<kronos::trace::Span> spans_;
  std::thread thread_;
};

double SafeDiv(double a, double b) { return b <= 0 ? 0.0 : a / b; }

// Fills the engine/daemon/WAL/epoch layers from a kIntrospect diff over a window of `ops`.
void DaemonLayers(ResultFile& out, const Diff& d, double ops, double window_s) {
  out.Set("core.query_order_us", d.HMean("kronos_cmd_query_order_us"));
  out.Set("core.assign_order_us", d.HMean("kronos_cmd_assign_order_us"));
  out.Set("core.create_event_us", d.HMean("kronos_cmd_create_event_us"));
  const double queries = d.HCount("kronos_cmd_query_order_us");
  out.Set("core.visited_per_query", SafeDiv(d.C("kronos_engine_vertices_visited"), queries));
  const double filtered = d.C("kronos_query_ts_filtered");
  out.Set("core.ts_filtered_share",
          SafeDiv(filtered, filtered + d.C("kronos_query_ts_fallback")));
  const double hits = d.C("kronos_cache_hits");
  out.Set("core.cache_hit_share", SafeDiv(hits, hits + d.C("kronos_cache_misses")));
  out.Set("core.assign_aborts", d.C("kronos_engine_assign_aborts"));
  out.Set("epoch.reclaim_lag", d.b.C("kronos_epoch_reclaim_lag"));
  out.Set("epoch.retired_versions", d.b.C("kronos_epoch_retired_versions"));
  out.Set("daemon.run_cmds", d.HMean("kronos_daemon_exclusive_run_cmds"));
  out.Set("daemon.pipeline_frames", d.HMean("kronos_daemon_pipeline_frames"));
  out.Set("wal.append_us", d.HMean("kronos_wal_append_us"));
  out.Set("wal.commit_wait_us", d.HMean("kronos_wal_commit_wait_us"));
  out.Set("wal.records_per_sync", d.HMean("kronos_wal_batch_records"));
  out.Set("wal.syncs_per_s", SafeDiv(d.C("kronos_wal_group_syncs_total"), window_s));
  out.Set("wal.bytes_per_op", SafeDiv(d.HSum("kronos_wal_batch_bytes"), ops));
}

void SpanLayers(ResultFile& out, const SpanBudget& b) {
  using kronos::trace::Stage;
  out.Set("daemon.recv_parse_us", b.SelfUs(Stage::kRecvParse));
  out.Set("daemon.queue_wait_us", b.SelfUs(Stage::kQueueWait));
  out.Set("daemon.exclusive_run_us", b.SelfUs(Stage::kExclusiveRun));
  out.Set("daemon.reply_send_us", b.SelfUs(Stage::kReplySend));
  out.Set("wire.request_bytes", b.Arg0Mean(Stage::kRecvParse));
  out.Set("wire.reply_bytes", b.Arg0Mean(Stage::kReplySend));
}

// Client call time minus the server's command time, weighted over the call mix.
void ClientLayers(ResultFile& out, const CallStats& cs, const Diff* d, double ops) {
  out.Set("client.create_event_us", cs.MeanUs(kCreate));
  out.Set("client.assign_order_us", cs.MeanUs(kAssign));
  out.Set("client.query_order_us", cs.MeanUs(kQuery));
  out.Set("client.calls_per_op", SafeDiv(static_cast<double>(cs.Calls()), ops));
  if (d == nullptr) {
    return;
  }
  double client_ns = 0, n = 0;
  for (int k = 0; k < kNumCallKinds; ++k) {
    client_ns += static_cast<double>(cs.ns[k].load());
    n += static_cast<double>(cs.count[k].load());
  }
  double server_us = 0;
  for (const char* name : {"kronos_cmd_create_event_us", "kronos_cmd_assign_order_us",
                           "kronos_cmd_query_order_us", "kronos_cmd_acquire_ref_us",
                           "kronos_cmd_release_ref_us"}) {
    server_us += d->HSum(name);
  }
  out.Set("wire.rtt_us", SafeDiv(client_ns / 1000.0 - server_us, n));
}

// --- shared TCP plumbing -------------------------------------------------------------------

struct Env {
  Params& prm;
  std::string dir;
  std::string kronosd;
  cpu_set_t server_cpus;
  uint64_t seed;
  int workers;
  bool trace;
  ResultFile out;
  Totals totals;
  CallStats calls;
  uint64_t client_serial = 0;
  int log_serial = 0;

  explicit Env(Params& p) : prm(p) {}

  // The traced-run window: warm-up, then the whole fixed-rate share of the run.
  Phase FixedRate(const OpFn& op, const std::function<void()>& after_warmup = {}) {
    return MeasureFixedRate(workers, seed, prm.Num("warmup_s"), prm.Num("p50_rate"),
                            prm.Num("seconds") * prm.Num("p50_share"), op, after_warmup);
  }

  std::string Log() { return dir + "/kronosd." + std::to_string(log_serial++) + ".log"; }

  std::unique_ptr<TcpKronos> Connect(uint16_t port) {
    kronos::TcpKronosOptions o;
    o.endpoints = {port};
    o.seed = seed * 977 + ++client_serial;
    // Unique to this process: a fresh kronosd per run never sees a stale session, and a
    // restarted one recognises the same clients through its WAL.
    o.client_id = (static_cast<uint64_t>(getpid()) << 24) ^ (NowNs() << 8) ^ client_serial;
    o.client_id |= 1;
    auto c = TcpKronos::Connect(std::move(o));
    if (!c.ok()) {
      Die("connect: " + c.status().ToString());
    }
    return std::move(*c);
  }
};

// Pipelined create of n events; returns their ids.
std::vector<EventId> CreateMany(TcpKronos& c, size_t n) {
  std::vector<EventId> ids;
  std::vector<Command> burst;
  while (ids.size() < n) {
    burst.assign(std::min<size_t>(64, n - ids.size()), Command::MakeCreateEvent());
    auto r = c.ExecutePipelined(burst);
    if (!r.ok()) {
      Die("preload create: " + r.status().ToString());
    }
    for (const auto& cr : *r) {
      if (!cr.ok()) {
        Die("preload create: " + cr.status.ToString());
      }
      ids.push_back(cr.event);
    }
  }
  return ids;
}

void AssignMany(TcpKronos& c, const std::vector<AssignSpec>& specs) {
  for (size_t i = 0; i < specs.size(); i += 512) {
    std::vector<AssignSpec> batch(specs.begin() + i,
                                  specs.begin() + std::min(specs.size(), i + 512));
    auto r = c.AssignOrder(std::move(batch));
    if (!r.ok()) {
      Die("preload assign: " + r.status().ToString());
    }
  }
}

void ReleaseMany(TcpKronos& c, const std::vector<EventId>& ids) {
  std::vector<Command> burst;
  for (size_t i = 0; i < ids.size(); i += 64) {
    burst.clear();
    for (size_t j = i; j < std::min(ids.size(), i + 64); ++j) {
      burst.push_back(Command::MakeReleaseRef(ids[j]));
    }
    auto r = c.ExecutePipelined(burst);
    if (!r.ok()) {
      Die("preload release: " + r.status().ToString());
    }
  }
}

// One connection per worker, each behind the benchmark's call timers.
struct Clients {
  std::vector<std::unique_ptr<TcpKronos>> conns;
  std::vector<std::unique_ptr<TimedApi>> apis;

  void Open(Env& env, uint16_t port) {
    Close();
    for (int w = 0; w < env.workers; ++w) {
      conns.push_back(env.Connect(port));
      apis.push_back(std::make_unique<TimedApi>(*conns.back(), env.calls));
    }
  }
  void Close() {
    apis.clear();
    conns.clear();
  }
  TimedApi& api(int w) { return *apis[static_cast<size_t>(w)]; }
};

// The traced window of a TCP workload: the daemon at `d` runs with tracing on; the fixed-rate
// phase is timed by the benchmark's call timers, bracketed by kIntrospect snapshots, and its
// spans drained as it runs. `untraced` is the same phase against an untraced daemon.
Phase TracedWindow(Env& env, const Kronosd& d, const OpFn& op, const Phase& untraced,
                   const std::function<void()>& before = {}) {
  const double secs = env.prm.Num("seconds") * env.prm.Num("p50_share");
  std::unique_ptr<TraceDrainer> drainer;
  auto probe = env.Connect(d.port);
  Diff diff;
  const Phase traced = env.FixedRate(op, [&] {
    drainer = std::make_unique<TraceDrainer>(d.port);
    diff.a = Snap::From(*probe->Introspect());
    env.calls.Reset();
    if (before) {
      before();
    }
  });
  env.totals.Add(traced);
  diff.b = Snap::From(*probe->Introspect());
  SpanBudget budget;
  budget.Add(drainer->Take());
  const double ops = static_cast<double>(traced.attempted);
  DaemonLayers(env.out, diff, ops, secs);
  SpanLayers(env.out, budget);
  ClientLayers(env.out, env.calls, &diff, ops);
  env.out.Set("loadgen.late_us_max", static_cast<double>(traced.late_max_us));
  env.out.Set("trace.overhead_ratio", SafeDiv(traced.MedianUs(), untraced.MedianUs()));
  const Snap after = Snap::From(*probe->Introspect());
  env.out.Set("trace.spans_dropped",
              after.C("kronos_trace_spans_dropped") - diff.a.C("kronos_trace_spans_dropped"));
  const double rss = static_cast<double>(ProcStatusBytes(d.pid, "VmRSS"));
  env.out.Set("core.bytes_per_event", SafeDiv(rss - static_cast<double>(d.rss_start),
                                              diff.b.C("kronos_engine_live_events")));
  RecordLatency(env.out, untraced);
  return traced;
}

// --- chains: durable_writes and replicated -------------------------------------------------

// One chain per worker: create, must-assign after the previous event, and release the event
// that falls out of a window of `window` live references.
struct Chain {
  std::deque<EventId> live;  // referenced, oldest first
  std::vector<EventId> all;  // every acknowledged event, in chain order
};

bool ChainStep(KronosApi& api, Chain& ch, size_t window) {
  auto e = api.CreateEvent();
  if (!e.ok()) {
    return false;
  }
  if (!ch.live.empty()) {
    auto a = api.AssignOrderOne(ch.live.back(), *e, Constraint::kMust);
    if (!a.ok() || *a != AssignOutcome::kCreated) {
      return false;
    }
  }
  ch.live.push_back(*e);
  ch.all.push_back(*e);
  if (ch.live.size() > window) {
    auto r = api.ReleaseRef(ch.live.front());
    if (!r.ok()) {
      return false;
    }
    ch.live.pop_front();
  }
  return true;
}

// The pairs run.py checks after the run: every ordered pair inside each chain's window and
// one cross-chain pair per window slot.
std::vector<EventPair> ChainCheckPairs(const std::vector<Chain>& chains) {
  std::vector<EventPair> pairs;
  for (size_t c = 0; c < chains.size(); ++c) {
    const auto& live = chains[c].live;
    for (size_t i = 0; i < live.size(); ++i) {
      for (size_t j = i + 1; j < live.size(); ++j) {
        pairs.push_back({live[i], live[j]});
      }
      const auto& other = chains[(c + 1) % chains.size()].live;
      if (chains.size() > 1 && i < other.size()) {
        pairs.push_back({live[i], other[i]});
      }
    }
  }
  return pairs;
}

void WriteChains(const std::string& path, const std::vector<Chain>& chains) {
  std::ofstream out(path);
  for (const auto& ch : chains) {
    out << "chain";
    for (EventId e : ch.all) {
      out << ' ' << e;
    }
    out << "\nlive";
    for (EventId e : ch.live) {
      out << ' ' << e;
    }
    out << '\n';
  }
}

// Appends "<tag> e1 e2 verdict" lines (verdict -1 = the call failed).
void WriteAnswers(std::ofstream& out, const std::string& tag, const std::vector<EventPair>& pairs,
                  const Result<std::vector<Order>>& r) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    const int v = r.ok() && i < r->size() ? static_cast<int>((*r)[i]) : -1;
    out << tag << ' ' << pairs[i].e1 << ' ' << pairs[i].e2 << ' ' << v << '\n';
  }
}

Result<std::vector<Order>> QueryChunked(KronosApi& api, const std::vector<EventPair>& pairs) {
  std::vector<Order> all;
  for (size_t i = 0; i < pairs.size(); i += 256) {
    auto r = api.QueryOrder(std::vector<EventPair>(
        pairs.begin() + i, pairs.begin() + std::min(pairs.size(), i + 256)));
    if (!r.ok()) {
      return r.status();
    }
    all.insert(all.end(), r->begin(), r->end());
  }
  return all;
}

// --- the run skeleton ----------------------------------------------------------------------

// What the common skeleton needs from a workload. The kept instance is the one the fixed-rate
// slices and closed-loop bursts run against and whose answers are checked at the end.
class Workload {
 public:
  explicit Workload(Env& env) : env_(env) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void Start(bool traced) = 0;
  virtual bool Op(int worker, Rng& rng) = 0;
  // Starts and preloads a trial instance, which the recovery trials that follow then kill;
  // EndTrial discards it. A trial instance does exactly the preload's work, so set-up and
  // recovery trials measure the same work in every run.
  virtual double SetupTrial() = 0;
  virtual double RecoveryTrial() = 0;
  virtual void EndTrial() = 0;
  virtual double ServerRssMib() = 0;
  // Replaces the kept instance with a traced one and runs the traced window.
  virtual void Traced(const Phase& untraced) = 0;
  // Writes the observations run.py checks and stops everything.
  virtual void Finish() = 0;

 protected:
  Env& env_;
};

double Seconds(uint64_t since_ns) { return static_cast<double>(NowNs() - since_ns) * 1e-9; }

void AppendPhase(Phase& into, const Phase& p) {
  into.lat_ns.insert(into.lat_ns.end(), p.lat_ns.begin(), p.lat_ns.end());
  into.attempted += p.attempted;
  into.failed += p.failed;
  into.offered = p.offered;
  into.achieved = std::min(into.achieved == 0 ? p.achieved : into.achieved, p.achieved);
  into.late_max_us = std::max(into.late_max_us, p.late_max_us);
}

// The end-to-end run. Measurements are spread over the whole run in rounds, so that each
// metric samples the same mix of the host's fast and slow stretches. Every round runs a
// fixed-rate slice (pooled into p50_us), then, every `trial_every`-th round, a set-up trial
// and recovery trials, and last a closed-loop burst of a fixed operation count (the median
// rate is the reference figure capacity_ops_s). A trial thus follows a light fixed-rate
// slice, never the backlog a burst leaves behind.
void RunEndToEnd(Env& env, Workload& wl) {
  const OpFn op = [&wl](int w, Rng& rng) { return wl.Op(w, rng); };
  std::vector<double> setups;
  const uint64_t t0 = NowNs();
  wl.Start(false);
  setups.push_back(Seconds(t0));

  const int rounds = env.prm.Int("rounds");
  const double rate = env.prm.Num("p50_rate");
  const double slice_s = env.prm.Num("seconds") * env.prm.Num("p50_share") / rounds;
  const uint64_t burst_ops = env.prm.U64("burst_ops_per_worker");
  Phase pooled;
  std::vector<double> capacities, recovery;
  double warmup_s = env.prm.Num("warmup_s");
  for (int r = 0; r < rounds; ++r) {
    const Phase slice = MeasureFixedRate(env.workers, env.seed + 10 * r, warmup_s, rate, slice_s,
                                         op);
    env.totals.Add(slice);
    AppendPhase(pooled, slice);
    warmup_s = 0;
    if (r % env.prm.Int("trial_every") == env.prm.Int("trial_every") - 1) {
      setups.push_back(wl.SetupTrial());
      for (int k = 0; k < env.prm.Int("recovery_per_trial"); ++k) {
        recovery.push_back(wl.RecoveryTrial());
      }
      wl.EndTrial();
    }
    capacities.push_back(ClosedLoopRate(env.workers, burst_ops, env.seed + r, op, env.totals));
  }
  // Peak memory of the kept instance after the run's whole, fixed amount of work.
  env.out.Set("server_rss_mib", wl.ServerRssMib());
  std::sort(pooled.lat_ns.begin(), pooled.lat_ns.end());
  RecordLatency(env.out, pooled);
  env.out.Set("setup_s", Median(setups));
  env.out.Set("recovery_s", Median(recovery));
  env.out.Set("capacity_ops_s", Median(capacities));
  wl.Finish();
}

void RunTraced(Env& env, Workload& wl) {
  wl.Start(false);
  const Phase untraced = env.FixedRate([&wl](int w, Rng& rng) { return wl.Op(w, rng); });
  env.totals.Add(untraced);
  wl.Traced(untraced);
  wl.Finish();
}

// --- shared by the TCP workloads -----------------------------------------------------------

class TcpWorkload : public Workload {
 public:
  using Workload::Workload;

  double ServerRssMib() override {
    return static_cast<double>(ProcStatusBytes(daemon_.pid, "VmHWM")) / (1 << 20);
  }

 protected:
  // A fresh kronosd (its WAL, if any, in <dir>/<wal_dir>, emptied first).
  Kronosd Spawn(const std::string& wal_dir, bool traced, uint16_t port = 0) {
    std::vector<std::string> args = {"--port", std::to_string(port), "--stats-interval-s", "0"};
    if (env_.prm.Int("wal") != 0) {
      std::filesystem::remove_all(env_.dir + "/" + wal_dir);
      std::filesystem::create_directories(env_.dir + "/" + wal_dir);
      args.insert(args.end(), {"--wal", env_.dir + "/" + wal_dir + "/log"});
    }
    if (!traced) {
      args.push_back("--no-trace");
    }
    return SpawnKronosd(env_.kronosd, args, env_.server_cpus, env_.Log());
  }

  // SIGKILL `d` and restart it on its WAL in <dir>/<wal_dir> and the same port.
  void KillRestart(Kronosd& d, const std::string& wal_dir, bool traced) {
    const uint16_t port = d.port;
    KillChild(d, SIGKILL);
    std::vector<std::string> args = {"--port", std::to_string(port), "--stats-interval-s", "0",
                                     "--wal", env_.dir + "/" + wal_dir + "/log"};
    if (!traced) {
      args.push_back("--no-trace");
    }
    d = SpawnKronosd(env_.kronosd, args, env_.server_cpus, env_.Log());
  }

  void EndTrial() override { KillChild(trial_, SIGKILL); }

  std::string NextLog() const {
    return env_.dir + "/kronosd." + std::to_string(env_.log_serial) + ".log";
  }

  Kronosd daemon_;
  Clients clients_;
  Kronosd trial_;
};

// --- durable_writes ------------------------------------------------------------------------

uint64_t RecoveredCommands(const std::string& log) {
  std::ifstream in(log);
  std::string line;
  uint64_t last = 0;
  while (std::getline(in, line)) {
    const size_t at = line.find("recovered ");
    if (at != std::string::npos) {
      last = std::strtoull(line.c_str() + at + 10, nullptr, 10);
    }
  }
  return last;
}

class DurableWrites : public TcpWorkload {
 public:
  using TcpWorkload::TcpWorkload;

  void Start(bool traced) override {
    KillChild(daemon_, SIGKILL);
    daemon_ = Spawn("wal", traced);
    clients_.Open(env_, daemon_.port);
    Preload(clients_, chains_);
  }

  bool Op(int w, Rng&) override {
    return ChainStep(clients_.api(w), chains_[static_cast<size_t>(w)], env_.prm.U64("window"));
  }

  double SetupTrial() override {
    const uint64_t t0 = NowNs();
    trial_ = Spawn("wal_trial", false);
    Clients clients;
    clients.Open(env_, trial_.port);
    Preload(clients, trial_chains_);
    return Seconds(t0);
  }

  // SIGKILL the trial daemon, restart it on its WAL (full replay of the preload), and time
  // until a query is answered.
  double RecoveryTrial() override {
    const uint64_t t0 = NowNs();
    KillRestart(trial_, "wal_trial", false);
    const bool ok = ProbeQuery(trial_, trial_chains_);
    const double secs = Seconds(t0);
    env_.totals.Add(ok);
    return secs;
  }

  void Traced(const Phase& untraced) override {
    Start(true);
    TracedWindow(env_, daemon_, [this](int w, Rng& rng) { return Op(w, rng); }, untraced);
    const std::string log = NextLog();
    KillRestart(daemon_, "wal", true);
    env_.totals.Add(ProbeQuery(daemon_, chains_));
    env_.out.Set("recovery.records_replayed", static_cast<double>(RecoveredCommands(log)));
  }

  // SIGKILL, restart on the WAL, then ask about every pair of still-referenced events.
  void Finish() override {
    clients_.Close();
    KillRestart(daemon_, "wal", false);
    auto checker = env_.Connect(daemon_.port);
    const auto pairs = ChainCheckPairs(chains_);
    std::ofstream obs(env_.dir + "/obs_answers.txt");
    WriteAnswers(obs, "final", pairs, QueryChunked(*checker, pairs));
    WriteChains(env_.dir + "/obs_chains.txt", chains_);
    checker.reset();
    KillChild(daemon_, SIGTERM);
  }

 private:
  // Every chain gets `preload_per_chain` linked events, all but the window released, so
  // strict GC has already collected the prefix the way it does during the run. The chains
  // load at once, each on its own connection, so their writes share the WAL's group commits.
  void Preload(Clients& clients, std::vector<Chain>& chains) {
    const size_t window = env_.prm.U64("window");
    const size_t n = env_.prm.U64("preload_per_chain");
    chains.assign(static_cast<size_t>(env_.workers), Chain{});
    ParallelFor(env_.workers, [&](int w) {
      TcpKronos& c = *clients.conns[static_cast<size_t>(w)];
      std::vector<EventId> ids = CreateMany(c, n);
      std::vector<AssignSpec> specs;
      for (size_t i = 1; i < ids.size(); ++i) {
        specs.push_back({ids[i - 1], ids[i], Constraint::kMust});
      }
      AssignMany(c, specs);
      ReleaseMany(c, std::vector<EventId>(ids.begin(), ids.end() - window));
      Chain& ch = chains[static_cast<size_t>(w)];
      ch.all = ids;
      ch.live.assign(ids.end() - window, ids.end());
    });
  }

  bool ProbeQuery(const Kronosd& d, const std::vector<Chain>& chains) {
    auto probe = env_.Connect(d.port);
    const auto& live = chains[0].live;
    auto r = probe->QueryOrderOne(live.front(), live.back());
    return r.ok() && *r == Order::kBefore;
  }

  std::vector<Chain> chains_;
  std::vector<Chain> trial_chains_;
};

// --- deep_reads ----------------------------------------------------------------------------

struct DeepInputs {
  size_t nodes = 0;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
};

DeepInputs ReadDeepInputs(const std::string& dir) {
  DeepInputs in;
  std::ifstream f(dir + "/dag.txt");
  size_t ne = 0, np = 0;
  f >> in.nodes >> ne >> np;
  in.edges.resize(ne);
  for (auto& e : in.edges) {
    f >> e.first >> e.second;
  }
  in.pairs.resize(np);
  for (auto& p : in.pairs) {
    f >> p.first >> p.second;
  }
  if (!f) {
    Die("bad dag.txt");
  }
  return in;
}

uint64_t NewestCheckpointBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::filesystem::file_time_type newest{};
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    const std::string name = f.path().filename().string();
    if (name.find(".ckpt.") != std::string::npos && name.find(".tmp") == std::string::npos &&
        f.last_write_time() >= newest) {
      newest = f.last_write_time();
      bytes = f.file_size();
    }
  }
  return bytes;
}

class DeepReads : public TcpWorkload {
 public:
  DeepReads(Env& env) : TcpWorkload(env), in_(ReadDeepInputs(env.dir)) {
    answers_.resize(static_cast<size_t>(env.workers) + 1);
  }

  void Start(bool traced) override {
    KillChild(daemon_, SIGKILL);
    daemon_ = Spawn("wal", traced);
    clients_.Open(env_, daemon_.port);
    ids_ = Preload(clients_);
  }

  // One batch of pairs drawn from the generated pair list; every answer is logged by index.
  bool Op(int w, Rng& rng) override {
    const size_t batch = env_.prm.U64("batch");
    std::vector<uint32_t> idx(batch);
    std::vector<EventPair> pairs(batch);
    for (size_t i = 0; i < batch; ++i) {
      idx[i] = static_cast<uint32_t>(rng.Uniform(in_.pairs.size()));
      pairs[i] = {ids_[in_.pairs[idx[i]].first], ids_[in_.pairs[idx[i]].second]};
    }
    auto r = clients_.api(w).QueryOrder(std::move(pairs));
    auto& log = answers_[static_cast<size_t>(w)];
    for (size_t i = 0; i < batch; ++i) {
      log.push_back({idx[i], r.ok() ? static_cast<int>((*r)[i]) : -1});
    }
    return r.ok();
  }

  double SetupTrial() override {
    const uint64_t t0 = NowNs();
    trial_ = Spawn("wal_trial", false);
    Clients clients;
    clients.Open(env_, trial_.port);
    trial_ids_ = Preload(clients);
    return Seconds(t0);
  }

  // SIGKILL the trial daemon and restart it: it restores the checkpoint taken after the
  // preload. The probe's answer is checked like every other.
  double RecoveryTrial() override {
    const uint64_t t0 = NowNs();
    KillRestart(trial_, "wal_trial", false);
    auto probe = env_.Connect(trial_.port);
    const uint32_t i = static_cast<uint32_t>(recoveries_++ % in_.pairs.size());
    auto r = probe->QueryOrderOne(trial_ids_[in_.pairs[i].first],
                                  trial_ids_[in_.pairs[i].second]);
    const double secs = Seconds(t0);
    env_.totals.Add(r.ok());
    answers_.back().push_back({i, r.ok() ? static_cast<int>(*r) : -1});
    return secs;
  }

  void Traced(const Phase& untraced) override {
    Start(true);
    TracedWindow(env_, daemon_, [this](int w, Rng& rng) { return Op(w, rng); }, untraced);
    env_.out.Set("recovery.checkpoint_bytes",
                 static_cast<double>(NewestCheckpointBytes(env_.dir + "/wal")));
  }

  void Finish() override {
    std::ofstream obs(env_.dir + "/obs_answers.txt");
    for (const auto& log : answers_) {
      for (const auto& [i, v] : log) {
        obs << i << ' ' << v << '\n';
      }
    }
    clients_.Close();
    KillChild(daemon_, SIGTERM);
  }

 private:
  // Creates the DAG's events, each connection a share of the groups at once (their creates
  // share the WAL's group commits), orders the edges in generated order on one connection,
  // and takes a durable checkpoint.
  std::vector<EventId> Preload(Clients& clients) {
    const size_t groups = env_.prm.U64("groups");
    const size_t size = in_.nodes / groups;
    std::vector<EventId> ids(in_.nodes);
    const size_t conns = clients.conns.size();
    ParallelFor(static_cast<int>(conns), [&](int w) {
      for (size_t g = static_cast<size_t>(w); g < groups; g += conns) {
        const auto group = CreateMany(*clients.conns[static_cast<size_t>(w)], size);
        std::copy(group.begin(), group.end(), ids.begin() + static_cast<ptrdiff_t>(g * size));
      }
    });
    TcpKronos& c = *clients.conns[0];
    std::vector<AssignSpec> specs;
    specs.reserve(in_.edges.size());
    for (const auto& [a, b] : in_.edges) {
      specs.push_back({ids[a], ids[b], Constraint::kMust});
    }
    AssignMany(c, specs);
    auto cp = c.Checkpoint();
    if (!cp.ok() || !cp->ok) {
      Die("checkpoint after preload failed");
    }
    return ids;
  }

  const DeepInputs in_;
  std::vector<EventId> ids_;        // node index -> event id, kept instance
  std::vector<EventId> trial_ids_;  // the same for the trial instance
  std::vector<std::vector<std::pair<uint32_t, int>>> answers_;  // per worker, + recovery
  uint64_t recoveries_ = 0;
};

// --- graph_mix -----------------------------------------------------------------------------

struct GraphInputs {
  uint64_t vertices = 0;
  std::vector<std::pair<uint64_t, uint64_t>> edges;
};

GraphInputs ReadGraphInputs(const std::string& dir) {
  GraphInputs in;
  std::ifstream f(dir + "/graph.txt");
  size_t ne = 0;
  f >> in.vertices >> ne;
  in.edges.resize(ne);
  for (auto& e : in.edges) {
    f >> e.first >> e.second;
  }
  if (!f) {
    Die("bad graph.txt");
  }
  return in;
}

// KronoGraph's state lives in this process; kronosd only orders its events. Without a WAL a
// crashed kronosd loses every order, so the graph is rebuilt (preload plus acknowledged
// edges) on a fresh daemon before service returns.
class GraphMix : public TcpWorkload {
 public:
  GraphMix(Env& env) : TcpWorkload(env), in_(ReadGraphInputs(env.dir)) {}

  void Start(bool traced) override {
    store_.reset();
    clients_.Close();
    KillChild(daemon_, SIGKILL);
    daemon_ = Spawn("", traced);
    clients_.Open(env_, daemon_.port);
    // A traced restart reloads the edges the untraced phase acknowledged, too.
    auto edges = in_.edges;
    edges.insert(edges.end(), acked_.begin(), acked_.end());
    store_ = Load(routed_, clients_, edges);
  }

  // Fig. 6 mix: friend recommendations, else a new friendship between existing vertices.
  bool Op(int w, Rng& rng) override {
    kronos::loadgen::ThreadBoundApi::BindThreadApi(&clients_.api(w));
    const uint64_t a = rng.Uniform(in_.vertices);
    if (rng.NextDouble() < env_.prm.Num("read_fraction")) {
      return store_->RecommendFriend(a).ok();
    }
    uint64_t b = rng.Uniform(in_.vertices - 1);
    b += b >= a ? 1 : 0;
    if (!store_->AddEdge(a, b).ok()) {
      return false;
    }
    std::lock_guard<std::mutex> lock(acked_mu_);
    acked_.push_back({a, b});
    return true;
  }

  double SetupTrial() override {
    const uint64_t t0 = NowNs();
    trial_ = Spawn("", false);
    trial_clients_.Open(env_, trial_.port);
    trial_store_ = Load(trial_routed_, trial_clients_, in_.edges);
    return Seconds(t0);
  }

  // SIGKILL the trial daemon and time until a fresh one (it has no WAL, so it comes back
  // empty) serves an operation. Rebuilding the graph on it is set-up work, which setup_s
  // measures.
  double RecoveryTrial() override {
    trial_store_.reset();
    trial_clients_.Close();
    const uint64_t t0 = NowNs();
    const uint16_t port = trial_.port;
    KillChild(trial_, SIGKILL);
    trial_ = Spawn("", false, port);
    auto probe = env_.Connect(trial_.port);
    const bool ok = probe->CreateEvent().ok();
    const double secs = Seconds(t0);
    env_.totals.Add(ok);
    return secs;
  }

  void EndTrial() override {
    trial_store_.reset();
    trial_clients_.Close();
    TcpWorkload::EndTrial();
  }

  void Traced(const Phase& untraced) override {
    Start(true);
    kronos::KronoGraph::GraphStats a;
    const Phase traced = TracedWindow(
        env_, daemon_, [this](int w, Rng& rng) { return Op(w, rng); }, untraced,
        [&] { a = store_->graph_stats(); });
    const auto b = store_->graph_stats();
    const double ops = static_cast<double>(traced.attempted);
    env_.out.Set("graph.order_calls_per_op", SafeDiv(double(b.order_calls - a.order_calls), ops));
    env_.out.Set("graph.pairs_resolved_per_op",
                 SafeDiv(double(b.pairs_resolved - a.pairs_resolved), ops));
    env_.out.Set("graph.reversals_per_op",
                 SafeDiv(double(b.query_reversals - a.query_reversals), ops));
    env_.out.Set("graph.update_aborts", double(b.update_aborts - a.update_aborts));
  }

  // Every vertex's neighbour set through the store that served the run.
  void Finish() override {
    std::ofstream obs(env_.dir + "/obs_neighbors.txt");
    kronos::loadgen::ThreadBoundApi::BindThreadApi(&clients_.api(0));
    for (uint64_t v = 0; v < in_.vertices; ++v) {
      auto r = store_->Neighbors(v);
      if (!r.ok()) {
        obs << v << " error\n";
        continue;
      }
      std::vector<uint64_t> ns = *r;
      std::sort(ns.begin(), ns.end());
      obs << v;
      for (uint64_t n : ns) {
        obs << ' ' << n;
      }
      obs << '\n';
    }
    kronos::loadgen::ThreadBoundApi::BindThreadApi(nullptr);
    std::ofstream acked_out(env_.dir + "/obs_acked.txt");
    for (const auto& [a, b] : acked_) {
      acked_out << a << ' ' << b << '\n';
    }
    store_.reset();
    clients_.Close();
    KillChild(daemon_, SIGTERM);
  }

 private:
  std::unique_ptr<kronos::KronoGraph> Load(
      kronos::loadgen::ThreadBoundApi& routed, Clients& clients,
      const std::vector<std::pair<uint64_t, uint64_t>>& edges) {
    auto store = std::make_unique<kronos::KronoGraph>(routed);
    kronos::loadgen::ThreadBoundApi::BindThreadApi(&clients.api(0));
    for (uint64_t v = 0; v < in_.vertices; ++v) {
      if (!store->AddVertex(v).ok()) {
        Die("graph preload vertex");
      }
    }
    for (const auto& [u, v] : edges) {
      const Status st = store->AddEdge(u, v);
      if (!st.ok()) {
        Die("graph preload edge: " + st.ToString());
      }
    }
    kronos::loadgen::ThreadBoundApi::BindThreadApi(nullptr);
    return store;
  }

  const GraphInputs in_;
  kronos::loadgen::ThreadBoundApi routed_;
  std::unique_ptr<kronos::KronoGraph> store_;
  Clients trial_clients_;
  kronos::loadgen::ThreadBoundApi trial_routed_;
  std::unique_ptr<kronos::KronoGraph> trial_store_;
  std::mutex acked_mu_;
  std::vector<std::pair<uint64_t, uint64_t>> acked_;
};

// --- replicated ----------------------------------------------------------------------------

kronos::KronosClientOptions ReplicatedClientOptions(uint64_t seed) {
  kronos::KronosClientOptions o;
  // Short attempts, so an operation caught by a replica failure is retried as soon as the
  // chain is relinked rather than after a long timeout.
  o.call_timeout_us = 5'000;
  o.retry_backoff_us = 500;
  o.max_attempts = 2000;
  o.read_policy = kronos::ClientReadPolicy::kRoundRobin;
  o.seed = seed;
  return o;
}

// Sends the check pairs straight to one replica, bypassing client routing and tail
// revalidation, so each replica's own state is what is checked.
Result<std::vector<Order>> QueryReplica(kronos::RpcEndpoint& ep, kronos::NodeId node,
                                        const std::vector<EventPair>& pairs) {
  std::vector<Order> all;
  for (size_t i = 0; i < pairs.size(); i += 256) {
    const Command cmd = Command::MakeQueryOrder(std::vector<EventPair>(
        pairs.begin() + i, pairs.begin() + std::min(pairs.size(), i + 256)));
    auto reply = ep.Call(node, kronos::SerializeCommand(cmd), 2'000'000, 0, 0);
    if (!reply.ok()) {
      return reply.status();
    }
    auto r = kronos::ParseCommandResult(reply->payload);
    if (!r.ok()) {
      return r.status();
    }
    if (!r->ok()) {
      return r->status;
    }
    all.insert(all.end(), r->orders.begin(), r->orders.end());
  }
  return all;
}

// A 3-replica chain in this process. Its replica, coordinator and network threads are pinned
// to the server CPU set; the clients run on the generator's.
class Replicated : public Workload {
 public:
  Replicated(Env& env, const cpu_set_t& gen_cpus) : Workload(env), gen_cpus_(gen_cpus) {}

  struct Instance {
    std::unique_ptr<kronos::KronosCluster> cluster;
    std::vector<std::unique_ptr<kronos::KronosClient>> clients;  // one per worker + a probe
    std::vector<std::unique_ptr<TimedApi>> apis;
    std::vector<Chain> chains;
  };

  void Start(bool) override { Build(kept_); }

  // One chain step, then one ordered pair of the live window read back.
  bool Op(int w, Rng& rng) override {
    TimedApi& api = *kept_.apis[static_cast<size_t>(w)];
    Chain& ch = kept_.chains[static_cast<size_t>(w)];
    if (!ChainStep(api, ch, env_.prm.U64("window"))) {
      return false;
    }
    const EventId e1 = ch.live[rng.Uniform(ch.live.size() - 1)];
    const EventId e2 = ch.live.back();
    auto r = api.QueryOrder({{e1, e2}});
    std::lock_guard<std::mutex> lock(answers_mu_);
    answers_.emplace_back(e1, e2, r.ok() ? static_cast<int>((*r)[0]) : -1);
    return r.ok();
  }

  // Builds and preloads a second cluster, which the recovery trials that follow then use.
  double SetupTrial() override {
    const uint64_t t0 = NowNs();
    Build(trial_);
    trial_kills_ = 0;
    return Seconds(t0);
  }

  // Kills one replica of the trial cluster (the middle one, then the tail) and times until a
  // write started after the kill is acknowledged; the shipped failure detector decides when
  // the chain is relinked. A replica is never re-admitted under load (see README.md).
  double RecoveryTrial() override {
    KronosApi& api = *trial_.clients.back();
    Chain probe;
    env_.totals.Add(ChainStep(api, probe, 4));
    const uint64_t t0 = NowNs();
    trial_.cluster->KillReplica(++trial_kills_);
    const bool ok = ChainStep(api, probe, 4);
    const double secs = Seconds(t0);
    env_.totals.Add(ok);
    return secs;
  }

  void EndTrial() override {
    trial_.apis.clear();
    trial_.clients.clear();
    trial_.cluster.reset();
  }

  // The replicas run inside this process; its peak RSS is theirs plus the clients'.
  double ServerRssMib() override {
    return static_cast<double>(ProcStatusBytes(getpid(), "VmHWM")) / (1 << 20);
  }

  void Traced(const Phase& untraced) override {
    auto& rec = kronos::trace::Recorder::Global();
    rec.SetEnabled(true);
    Diff d;
    std::vector<kronos::ChainReplica::ReplicaStats> r0;
    uint64_t sent0 = 0;
    kronos::trace::Recorder::Stats trace0;
    std::atomic<bool> stop{false};
    std::thread drain;
    const Phase traced = env_.FixedRate([this](int w, Rng& rng) { return Op(w, rng); }, [&] {
      rec.Drain();
      trace0 = rec.stats();
      d.a = Snapshot();
      for (size_t i = 0; i < kept_.cluster->replica_count(); ++i) {
        r0.push_back(kept_.cluster->replica(i).stats());
      }
      sent0 = kept_.cluster->network().stats().sent.load();
      env_.calls.Reset();
      drain = std::thread([&stop, &rec] {
        while (!stop.load()) {
          rec.Drain();
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      });
    });
    stop = true;
    drain.join();
    env_.totals.Add(traced);
    d.b = Snapshot();
    const double ops = static_cast<double>(traced.attempted);
    double batches = 0, entries = 0;
    for (size_t i = 0; i < kept_.cluster->replica_count(); ++i) {
      const auto st = kept_.cluster->replica(i).stats();
      batches += static_cast<double>(st.batches_forwarded - r0[i].batches_forwarded);
      entries += static_cast<double>(st.entries_forwarded - r0[i].entries_forwarded);
    }
    const CallStats& cs = env_.calls;
    const double write_ns = double(cs.ns[kCreate] + cs.ns[kAssign] + cs.ns[kRef]);
    const double writes = double(cs.count[kCreate] + cs.count[kAssign] + cs.count[kRef]);
    env_.out.Set("chain.write_us", SafeDiv(write_ns, writes) / 1000.0);
    env_.out.Set("chain.read_us", cs.MeanUs(kQuery));
    env_.out.Set("chain.entries_per_batch", SafeDiv(entries, batches));
    env_.out.Set("chain.msgs_per_op",
                 SafeDiv(double(kept_.cluster->network().stats().sent.load() - sent0), ops));
    env_.out.Set("core.query_order_us", d.HMean("kronos_cmd_query_order_us"));
    const double hits = d.C("kronos_cache_hits");
    env_.out.Set("core.cache_hit_share", SafeDiv(hits, hits + d.C("kronos_cache_misses")));
    env_.out.Set("epoch.reclaim_lag", d.b.C("kronos_epoch_reclaim_lag"));
    env_.out.Set("epoch.retired_versions", d.b.C("kronos_epoch_retired_versions"));
    ClientLayers(env_.out, cs, nullptr, ops);
    env_.out.Set("loadgen.late_us_max", static_cast<double>(traced.late_max_us));
    env_.out.Set("trace.overhead_ratio", SafeDiv(traced.MedianUs(), untraced.MedianUs()));
    env_.out.Set("trace.spans_dropped", double(rec.stats().dropped - trace0.dropped));
    rec.SetEnabled(false);
    RecordLatency(env_.out, untraced);
  }

  // After convergence every live replica, head to tail, answers the check pairs itself.
  void Finish() override {
    if (!kept_.cluster->WaitForConvergence(10'000'000)) {
      Die("replicas did not converge");
    }
    const auto pairs = ChainCheckPairs(kept_.chains);
    kronos::RpcEndpoint checker(kept_.cluster->network(), "checker");
    checker.Start(nullptr);
    std::ofstream obs(env_.dir + "/obs_answers.txt");
    const kronos::ChainConfig config = kept_.cluster->coordinator().GetConfig();
    for (size_t i = 0; i < kept_.cluster->replica_count(); ++i) {
      const kronos::NodeId id = kept_.cluster->replica(i).id();
      if (config.Contains(id)) {
        WriteAnswers(obs, "replica" + std::to_string(i), pairs, QueryReplica(checker, id, pairs));
      }
    }
    env_.out.Set("replicas_in_chain", static_cast<double>(config.chain.size()));
    for (const auto& [e1, e2, v] : answers_) {
      obs << "run " << e1 << ' ' << e2 << ' ' << v << '\n';
    }
    WriteChains(env_.dir + "/obs_chains.txt", kept_.chains);
    checker.Stop();
    kept_.apis.clear();
    kept_.clients.clear();
    kept_.cluster->Shutdown();
  }

 private:
  void Build(Instance& in) {
    in.apis.clear();
    in.clients.clear();
    in.cluster.reset();
    // Threads inherit the creating thread's CPU set.
    PinThisThread(env_.server_cpus);
    kronos::KronosClusterOptions options;
    options.replicas = 3;
    in.cluster = std::make_unique<kronos::KronosCluster>(options);
    PinThisThread(gen_cpus_);
    for (int w = 0; w <= env_.workers; ++w) {
      in.clients.push_back(in.cluster->MakeClient(
          "client-" + std::to_string(w), ReplicatedClientOptions(env_.seed * 31 + w)));
      in.apis.push_back(std::make_unique<TimedApi>(*in.clients.back(), env_.calls));
    }
    in.chains.assign(static_cast<size_t>(env_.workers), Chain{});
    const size_t window = env_.prm.U64("window");
    const size_t n = env_.prm.U64("preload_per_chain");
    ParallelFor(env_.workers, [&](int w) {
      for (size_t i = 0; i < n; ++i) {
        if (!ChainStep(*in.clients[static_cast<size_t>(w)], in.chains[static_cast<size_t>(w)],
                       window)) {
          Die("replicated preload failed");
        }
      }
    });
  }

  Snap Snapshot() {
    std::vector<Snap> snaps;
    for (size_t i = 0; i < kept_.cluster->replica_count(); ++i) {
      if (!kept_.cluster->killed(i)) {
        snaps.push_back(Snap::From(kept_.cluster->replica(i).TelemetrySnapshot()));
      }
    }
    return MergeSnaps(snaps);
  }

  const cpu_set_t gen_cpus_;
  Instance kept_;
  Instance trial_;
  size_t trial_kills_ = 0;
  std::mutex answers_mu_;
  std::vector<std::tuple<EventId, EventId, int>> answers_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfgen <run-dir>\n");
    return 64;
  }
  Params prm(std::string(argv[1]) + "/params.txt");
  kronos::SetLogLevel(kronos::LogLevel::kWarning);
  const cpu_set_t gen_cpus = ParseCpus(prm.Str("gen_cpus"));
  PinThisThread(gen_cpus);
  signal(SIGPIPE, SIG_IGN);

  Env env(prm);
  env.dir = argv[1];
  env.kronosd = prm.Str("kronosd");
  env.server_cpus = ParseCpus(prm.Str("server_cpus"));
  env.seed = prm.U64("seed");
  env.workers = prm.Int("workers");
  env.trace = prm.Int("trace") != 0;

  const std::string name = prm.Str("workload");
  std::unique_ptr<Workload> wl;
  if (name == "durable_writes") {
    wl = std::make_unique<DurableWrites>(env);
  } else if (name == "deep_reads") {
    wl = std::make_unique<DeepReads>(env);
  } else if (name == "graph_mix") {
    wl = std::make_unique<GraphMix>(env);
  } else if (name == "replicated") {
    wl = std::make_unique<Replicated>(env, gen_cpus);
  } else {
    Die("unknown workload " + name);
  }
  {
    // The whole run, set-up and recovery trials included, is measured on CPUs that never
    // halt; README.md records the interleaved runs with and without this.
    cpu_set_t all_cpus;
    CPU_OR(&all_cpus, &gen_cpus, &env.server_cpus);
    KeepAwake awake(all_cpus);
    if (env.trace) {
      RunTraced(env, *wl);
    } else {
      RunEndToEnd(env, *wl);
    }
  }
  wl.reset();
  KillAllChildren();
  env.out.Set("attempted", static_cast<double>(env.totals.attempted));
  env.out.Set("failed", static_cast<double>(env.totals.failed));
  env.out.Write(env.dir + "/result.txt");
  return 0;
}
