// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload loop-compute|buffered-memory|serve-hotkey
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//             [--rev REV] [--corrupt checksum|counter]
//
// Prints a PERFBENCH_PROVENANCE line and a PERFBENCH_RESULT line (JSON) on
// stdout; perfbench/run.py turns them into the benchmark's result line.
// Exits 1 when any output differs from its sequential oracle or a workload
// drifts from its layer predictions, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "harness.h"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0) {
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double tail_q(size_t n) {
  if (n == 0) return 0.5;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int host_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// ---- Tracer --------------------------------------------------------------

uint32_t Tracer::open(const char* name, uint64_t pass, const char* tag) {
  if (!enabled) return 0;
  uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
  uint32_t parent = stack_.empty() ? 0 : stack_.back();
  spans_.push_back(Span{id, parent, pass, name, tag, mutls::now_ns(), 0});
  stack_.push_back(id);
  return id;
}

void Tracer::close(uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = mutls::now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"pass\":%llu,\"name\":\"%s\","
                 "\"tag\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}%s\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.pass),
                 s.name, s.tag,
                 static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.end_ns - t0),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

// ---- Report --------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    error("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics[name] = Metric{value, unit};
}

void Report::error(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  errors.push_back(what);
}

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::print() const {
  std::string p = "{";
  for (const auto& [k, v] : provenance) {
    p.append(json_str(k)).append(":").append(json_str(v)).append(",");
  }
  p.append("\"samples\":{");
  const char* sep = "";
  for (const auto& [k, n] : samples) {
    p.append(sep).append(json_str(k)).append(":").append(std::to_string(n));
    sep = ",";
  }
  p.append("}}");
  std::printf("PERFBENCH_PROVENANCE %s\n", p.c_str());

  std::string m = "{";
  sep = "";
  char num[64];
  for (const auto& [k, v] : metrics) {
    std::snprintf(num, sizeof(num), "%.17g", v.value);
    m.append(sep).append(json_str(k)).append(":{\"value\":").append(num);
    m.append(",\"unit\":").append(json_str(v.unit)).append("}");
    sep = ",";
  }
  m.append("}");
  std::string e = "[";
  sep = "";
  for (const std::string& err : errors) {
    e.append(sep).append(json_str(err));
    sep = ",";
  }
  e.append("]");
  std::printf(
      "PERFBENCH_RESULT {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"metrics\":%s,\"errors\":%s}\n",
      errors.empty() && failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.c_str(), e.c_str());
  std::fflush(stdout);
}

// ---- layer metrics -------------------------------------------------------

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void report_layers(Report& r, const LayerTotals& t) {
  using mutls::TimeCat;
  const mutls::ThreadStats& c = t.critical;
  const mutls::ThreadStats& s = t.speculative;
  auto both = [&](TimeCat cat) {
    return static_cast<double>(c.ledger.get(cat) + s.ledger.get(cat));
  };
  const double ops = static_cast<double>(t.ops);
  const double forks = static_cast<double>(c.forks + s.forks);
  const double denied = static_cast<double>(c.fork_denied + s.fork_denied);
  const double accesses = static_cast<double>(t.spec_accesses());
  const double settles =
      static_cast<double>(c.commits + s.commits + t.rollbacks());
  mutls::SpecBufferStats b = c.buffer;
  b += s.buffer;

  r.set("thread_manager.root_idle_frac",
        ratio(static_cast<double>(c.ledger.get(TimeCat::kIdle)),
              static_cast<double>(c.runtime_ns)),
        "frac");
  r.set("thread_manager.cpu_per_wall", ratio(t.spec_cpu_s, t.spec_wall_s),
        "frac");
  r.set("thread_manager.forks", ratio(forks, ops), "1/op");
  r.set("thread_manager.fork_denied_frac", ratio(denied, forks + denied),
        "frac");
  r.set("thread_manager.find_cpu_ns", ratio(both(TimeCat::kFindCpu), forks),
        "ns");
  r.set("thread_manager.arm_ns", ratio(both(TimeCat::kFork), forks), "ns");
  r.set("thread_manager.handoff_ns", ratio(both(TimeCat::kForkHandoff), forks),
        "ns");
  r.set("thread_manager.join_ns", ratio(both(TimeCat::kJoin), forks), "ns");

  const double work_ns = static_cast<double>(s.ledger.get(TimeCat::kWork));
  const double wasted_ns =
      static_cast<double>(s.ledger.get(TimeCat::kWastedWork));
  r.set("spec_buffer.loads", ratio(static_cast<double>(s.loads), ops), "1/op");
  r.set("spec_buffer.stores", ratio(static_cast<double>(s.stores), ops),
        "1/op");
  r.set("spec_buffer.work_inflation",
        ratio(ratio(work_ns * 1e-9, ops),
              ratio(t.seq_wall_s, static_cast<double>(t.seq_ops))),
        "x");
  r.set("spec_buffer.work_ns_per_access", ratio(work_ns, accesses), "ns");
  r.set("spec_buffer.probes_per_access",
        ratio(static_cast<double>(b.probe_ops), accesses), "1/access");
  r.set("spec_buffer.avg_probe_len", b.avg_probe_length(), "steps");
  r.set("spec_buffer.mru_hit_frac",
        ratio(static_cast<double>(b.mru_hits),
              static_cast<double>(b.mru_hits + b.mru_misses)),
        "frac");
  r.set("spec_buffer.validate_ns_per_word",
        ratio(both(TimeCat::kValidation),
              static_cast<double>(b.validated_words)),
        "ns");
  r.set("spec_buffer.commit_ns_per_settle",
        ratio(both(TimeCat::kCommit), settles), "ns");
  r.set("spec_buffer.finalize_ns_per_settle",
        ratio(both(TimeCat::kFinalize), settles), "ns");
  r.set("spec_buffer.commit_frac",
        ratio(static_cast<double>(c.commits + s.commits), settles), "frac");
  r.set("spec_buffer.wasted_frac", ratio(wasted_ns, work_ns + wasted_ns),
        "frac");
  r.set("spec_buffer.alloc_events", static_cast<double>(b.alloc_events),
        "count");
  r.set("spec_buffer.overflow_events", static_cast<double>(b.overflow_events),
        "count");
  r.samples["spec_ops"] = t.ops;
  r.samples["forks"] = static_cast<uint64_t>(forks);
}

}  // namespace perfbench

namespace {

// Spins every hardware thread for kHostWarmupSeconds. A virtual machine that
// sat idle runs its first seconds of work slowly: without this, the first
// run after a pause read up to 3x the batch p99 and setup time.
constexpr double kHostWarmupSeconds = 3.0;

void warm_host(perfbench::Tracer& tr) {
  perfbench::SpanScope span(tr, "host_warmup");
  const uint64_t until =
      mutls::now_ns() + static_cast<uint64_t>(kHostWarmupSeconds * 1e9);
  std::vector<std::thread> spinners;
  for (int i = 0; i < perfbench::host_threads(); ++i) {
    spinners.emplace_back([until] {
      while (mutls::now_ns() < until) {
      }
    });
  }
  for (std::thread& t : spinners) t.join();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload loop-compute|buffered-memory|"
               "serve-hotkey --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--rev REV] [--corrupt checksum|counter]\n");
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  std::string rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) return usage();
    std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--rev") rev = v;
    else if (k == "--corrupt") a.corrupt = v;
    else return usage();
  }
  using RunFn = void (*)(const perfbench::Args&, perfbench::Report&,
                         perfbench::Tracer&);
  RunFn run = a.workload == "loop-compute"      ? perfbench::run_loop_compute
              : a.workload == "buffered-memory" ? perfbench::run_buffered_memory
              : a.workload == "serve-hotkey"    ? perfbench::run_serve_hotkey
                                                : nullptr;
  if (run == nullptr || a.seconds <= 0.0) return usage();
  if (!a.corrupt.empty() && a.corrupt != "checksum" && a.corrupt != "counter") {
    return usage();
  }

  perfbench::Report r;
  perfbench::Tracer tr;
  r.provenance["workload"] = a.workload;
  r.provenance["seed"] = std::to_string(a.seed);
  r.provenance["trace"] = a.trace ? "1" : "0";
  r.provenance["nproc"] = std::to_string(perfbench::host_threads());
  r.provenance["cpu_model"] = cpu_model();
  r.provenance["build_type"] = PERFBENCH_BUILD_TYPE;
  r.provenance["rev"] = rev;
  r.provenance["backend"] =
      mutls::buffer_backend_name(mutls::Runtime::Options{}.buffer_backend);

  tr.enabled = a.trace;
  warm_host(tr);
  run(a, r, tr);

  // Per-layer metrics of layers the chosen workload does not run read 0.
  static const std::pair<const char*, const char*> kOptional[] = {
      {"workloads.threex.speedup", "x"},
      {"workloads.mandelbrot.speedup", "x"},
      {"workloads.bh.speedup", "x"},
      {"workloads.fft.speedup", "x"},
      {"workloads.matmult.speedup", "x"},
      {"workloads.md.speedup", "x"},
      {"workloads.l0_speedup", "x"},
      {"workloads.l0_frac", "frac"},
      {"serving.seq_req_per_s", "1/s"},
      {"serving.get_hit_frac", "frac"},
      {"serving.malformed_frac", "frac"},
      {"serving.evictions_per_batch", "1/op"},
  };
  r.set("oracle.failed_frac",
        r.attempted ? static_cast<double>(r.failed) /
                          static_cast<double>(r.attempted)
                    : 0.0,
        "frac");
  if (a.trace) {
    for (const auto& [name, unit] : kOptional) {
      if (!r.metrics.count(name)) r.set(name, 0.0, unit);
    }
    r.samples["spans"] = tr.size();
    if (!a.trace_out.empty() && !tr.write(a.trace_out)) {
      r.error("cannot write span file " + a.trace_out);
    }
  }
  r.print();
  return r.errors.empty() && r.failed == 0 ? 0 : 1;
}
