// Shared pieces of the repository benchmark: command-line arguments, sample
// statistics, process CPU and memory readings, the in-memory span recorder,
// and the metric report every workload fills.
//
// The benchmark drives the runtime from outside, through its public calls
// only (Kernel::run_seq/run_spec, Runtime::run/fork/join,
// Server::serve_batch/serve_batch_seq) and the counters RunStats exports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mutls/mutls.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Fault injection for the benchmark's own tests: "checksum" corrupts the
  // first timed kernel checksum, "counter" the first timed batch's counters.
  std::string corrupt;
  std::string trace_out;  // span file written at exit (traced runs)
};

// ---- sample statistics --------------------------------------------------

double median(std::vector<double> v);
// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
// The highest percentile (capped at p99, floored at the median) that keeps
// at least ten samples beyond it.
double tail_q(size_t n);
double geomean(const std::vector<double>& v);

// ---- process readings ----------------------------------------------------

double process_cpu_s();  // user + system seconds of the whole process
double peak_rss_mb();
int host_threads();

// ---- spans ---------------------------------------------------------------

// Records spans in memory; write() dumps them as JSON at exit. A span's
// parent is the innermost span open when it started; spans of one pass or
// batch share its `pass` id. While disabled, open/close cost one branch.
class Tracer {
 public:
  struct Span {
    uint32_t id;
    uint32_t parent;  // 0 = root
    uint64_t pass;
    const char* name;
    const char* tag;  // kernel name, or ""
    uint64_t start_ns;
    uint64_t end_ns;
  };

  bool enabled = false;

  uint32_t open(const char* name, uint64_t pass = 0, const char* tag = "");
  void close(uint32_t id);
  bool write(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, uint64_t pass = 0,
            const char* tag = "")
      : t_(t), id_(t.open(name, pass, tag)) {}
  ~SpanScope() { t_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  uint32_t id_;
};

// ---- report --------------------------------------------------------------

struct Report {
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, uint64_t> samples;  // sample count behind a metric
  std::map<std::string, std::string> provenance;
  std::vector<std::string> errors;  // oracle or bypass-prediction failures
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit);
  void error(const std::string& what);
  // PERFBENCH_PROVENANCE and PERFBENCH_RESULT lines on stdout.
  void print() const;
};

// Counters summed over the timed speculative operations of one workload
// (an operation is one kernel pass or one batch).
struct LayerTotals {
  mutls::ThreadStats critical;
  mutls::ThreadStats speculative;
  uint64_t ops = 0;
  double spec_wall_s = 0.0;
  double spec_cpu_s = 0.0;
  double seq_wall_s = 0.0;
  uint64_t seq_ops = 0;

  void add(const mutls::RunStats& r) {
    critical += r.critical;
    speculative += r.speculative;
  }
  uint64_t rollbacks() const {
    return critical.rollbacks + speculative.rollbacks;
  }
  uint64_t spec_accesses() const {
    return speculative.loads + speculative.stores;
  }
};

// The thread_manager.* (except the probe cells) and spec_buffer.* metrics
// derived from a workload's counters.
void report_layers(Report& r, const LayerTotals& t);

// Medians of the outside-in layer probes.
struct Probes {
  double roundtrip_ns = 0.0;
  double load_ns_4k = 0.0;
  double load_ns_64k = 0.0;
};

// L1/L2 probes on a warmed runtime (probes.cpp). load cells whose
// footprint cannot fit the runtime's buffer (`buffer_log2`) are left 0.
Probes run_probes(mutls::Runtime& rt, int buffer_log2, Tracer& tr);

// Fork-to-settle latency of an empty in-order chain of `chunks` links on a
// warmed runtime, for workloads whose own passes do not expose it.
mutls::LatencyHistogram settle_probe(mutls::Runtime& rt, int chunks,
                                     Tracer& tr);

// Workload entry points. Each fills `r` and returns normally; failures are
// recorded in r.errors / r.failed.
void run_loop_compute(const Args& a, Report& r, Tracer& tr);
void run_buffered_memory(const Args& a, Report& r, Tracer& tr);
void run_serve_hotkey(const Args& a, Report& r, Tracer& tr);

}  // namespace perfbench
