// The two kernel workloads:
//
//   loop-compute     3x+1 and mandelbrot (paper Fig. 3) in loop-chain form:
//                    fork/handoff machinery and the idle root joiner, with
//                    almost no buffered memory traffic.
//   buffered-memory  bh, fft, matmult (paper Fig. 4) and md (Fig. 3) at the
//                    default figure sizes: millions of buffered accesses
//                    per pass and no rollbacks, so validation and commit
//                    (L2/L3) dominate.
//
// Each kernel keeps one warmed Runtime for all its passes; sequential and
// speculative passes alternate, and every pass's checksum is compared with
// the kernel's sequential checksum (the oracle).
#include <atomic>
#include <functional>
#include <memory>
#include <thread>

#include "harness.h"
#include "workloads/bh.h"
#include "workloads/fft.h"
#include "workloads/mandelbrot.h"
#include "workloads/matmult.h"
#include "workloads/md.h"
#include "workloads/threex.h"

namespace perfbench {

namespace {

using mutls::Runtime;
using mutls::workloads::SeqRun;
using mutls::workloads::SpecRun;

constexpr int kSetupReps = 5;
constexpr int kMinRounds = 5;
constexpr double kMinPassSeconds = 0.05;

// Bypass predictions. A loop-compute round must stay under 1% of the
// buffered accesses a buffered-memory round is guaranteed to make.
constexpr double kBufferedAccessFloor = 8e6;
constexpr double kLoopAccessCeiling = kBufferedAccessFloor / 100.0;
// Rollbacks are predicted to be 0 on both kernel workloads, against about
// half of all settles on serve-hotkey. matmult still rolls back now and then,
// with no overflow: about once per 20K settles on a quiet host, and up to 1%
// of settles when other processes compete for the cores. The check fails a
// run only above kMaxRollbackFrac, which still catches a workload drifting
// towards real conflicts.
constexpr double kMaxRollbackFrac = 0.05;

struct Kernel {
  const char* name = "";
  int buffer_log2 = 0;
  std::function<SeqRun()> seq;
  std::function<SpecRun(Runtime&)> spec;

  std::unique_ptr<Runtime> rt;
  uint64_t want = 0;  // checksum of the reference sequential pass
  // Timed samples: seq_s holds one mean per round, spec_s one per pass.
  std::vector<double> seq_s, spec_s, spec_cpu_s;
  std::vector<bool> seq_traced, spec_traced;
  uint64_t accesses = 0;  // speculative loads + stores, timed passes
};

Runtime::Options kernel_options(int buffer_log2) {
  Runtime::Options o;
  o.num_cpus = std::max(1, host_threads() - 1);
  o.buffer_log2 = buffer_log2;
  o.overflow_cap = 8192;
  return o;
}

template <typename K>
Kernel make_kernel(const char* name, int buffer_log2,
                   const typename K::Params& p) {
  Kernel k;
  k.name = name;
  k.buffer_log2 = buffer_log2;
  k.seq = [p] { return K::run_seq(p); };
  k.spec = [p](Runtime& rt) {
    return K::run_spec(rt, p, mutls::ForkModel::kMixed);
  };
  return k;
}

double elapsed_s(uint64_t t0) {
  return static_cast<double>(mutls::now_ns() - t0) * 1e-9;
}

// The lower decile of a kernel's pass times, which its speedup compares.
// On a shared host the speed of one CPU changes by up to 1.5x for seconds
// at a time, as neighbours come and go, and the sequential and speculative
// passes feel it differently, so a median or a ratio of medians moves with
// the host from run to run. Short speculative passes are also bimodal (md:
// about 20 ms, or 30-130 ms when a fork/join is descheduled). The lower
// decile tracks what each side does when the host leaves it alone. Runs of
// five seeds beside an on-off CPU hog spread 5% (buffered-memory speedup)
// with the lower decile, against 11% with the lower quartile and 12% with
// medians.
double fast(const std::vector<double>& v) { return quantile(v, 0.1); }

// ---- L0: the host ceiling --------------------------------------------------

// Runs chunk indices [0, chunks) on `threads` plain std::threads that claim
// chunks from a shared counter.
void l0_run(int threads, int chunks, const std::function<void(int)>& chunk) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int c; (c = next.fetch_add(1)) < chunks;) chunk(c);
    });
  }
  for (std::thread& th : pool) th.join();
}

uint64_t l0_threex(const mutls::workloads::ThreeX::Params& p, int threads) {
  std::vector<uint64_t> part(static_cast<size_t>(p.chunks), 0);
  l0_run(threads, p.chunks, [&](int c) {
    int64_t lo = 1 + p.n * c / p.chunks;
    int64_t hi = 1 + p.n * (c + 1) / p.chunks;
    uint64_t s = 0;
    for (int64_t i = lo; i < hi; ++i) {
      s += mutls::workloads::ThreeX::trajectory(static_cast<uint64_t>(i));
    }
    part[static_cast<size_t>(c)] = s;
  });
  uint64_t total = 0;
  for (uint64_t s : part) total += s;
  return mutls::workloads::hash_mix(mutls::workloads::hash_begin(), total);
}

uint64_t l0_mandelbrot(const mutls::workloads::Mandelbrot::Params& p,
                       int threads) {
  using mutls::workloads::Mandelbrot;
  std::vector<int> img(static_cast<size_t>(p.width) * p.height);
  l0_run(threads, p.chunks, [&](int c) {
    int y0 = p.height * c / p.chunks;
    int y1 = p.height * (c + 1) / p.chunks;
    for (int y = y0; y < y1; ++y) {
      double ci = p.y0 + (p.y1 - p.y0) * y / p.height;
      for (int x = 0; x < p.width; ++x) {
        double cr = p.x0 + (p.x1 - p.x0) * x / p.width;
        img[static_cast<size_t>(y) * p.width + x] =
            Mandelbrot::escape_iters(cr, ci, p.max_iter);
      }
    }
  });
  uint64_t h = mutls::workloads::hash_begin();
  for (int v : img) h = mutls::workloads::hash_mix(h, static_cast<uint64_t>(v));
  return h;
}

// Alternating sequential / L0 passes of one kernel for about `seconds`;
// returns sequential s ÷ L0 s, or 0 on a checksum mismatch.
double l0_speedup(Report& r, Tracer& tr, const char* name, double seconds,
                  const std::function<SeqRun()>& seq,
                  const std::function<uint64_t()>& l0) {
  std::vector<double> seq_s, l0_s;
  const uint64_t deadline = mutls::now_ns() + static_cast<uint64_t>(seconds * 1e9);
  for (int i = 0; i < 3 || mutls::now_ns() < deadline; ++i) {
    SpanScope span(tr, "probe.l0", static_cast<uint64_t>(i), name);
    uint64_t t0 = mutls::now_ns();
    SeqRun s = seq();
    uint64_t t1 = mutls::now_ns();
    uint64_t got = l0();
    uint64_t t2 = mutls::now_ns();
    if (got != s.checksum) {
      r.error(std::string("L0 ") + name + " checksum differs from sequential");
      return 0.0;
    }
    seq_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    l0_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
  }
  r.samples[std::string("l0.") + name] = l0_s.size();
  return fast(seq_s) / fast(l0_s);
}

// ---- the shared kernel loop ------------------------------------------------

// Geomean over kernels of fast(num) ÷ fast(den).
double geomean_ratio(const std::vector<Kernel>& ks,
                     const std::vector<double> Kernel::*num,
                     const std::vector<double> Kernel::*den) {
  std::vector<double> r;
  for (const Kernel& k : ks) r.push_back(fast(k.*num) / fast(k.*den));
  return geomean(r);
}

// The samples of `v` whose flag equals `want`.
std::vector<double> where(const std::vector<double>& v,
                          const std::vector<bool>& flags, bool want) {
  std::vector<double> out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (flags[i] == want) out.push_back(v[i]);
  }
  return out;
}

// Setup, warm-up and the timed window of one kernel workload; fills the
// end-to-end metrics and returns the layer totals of the timed passes.
LayerTotals run_kernels(const Args& a, Report& r, Tracer& tr,
                        std::vector<Kernel>& ks) {
  {
    SpanScope span(tr, "oracle");
    for (Kernel& k : ks) k.want = k.seq().checksum;
  }

  // setup: Runtime construction, input build and the first cold
  // speculative pass, repeated; the last set of runtimes is kept.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    for (Kernel& k : ks) k.rt.reset();
    SpanScope span(tr, "setup", static_cast<uint64_t>(rep));
    uint64_t t0 = mutls::now_ns();
    for (Kernel& k : ks) {
      k.rt = std::make_unique<Runtime>(kernel_options(k.buffer_log2));
      if (k.spec(*k.rt).checksum != k.want) {
        r.error(std::string("cold ") + k.name + " pass differs from sequential");
      }
    }
    setup_s.push_back(elapsed_s(t0));
  }
  {
    SpanScope span(tr, "warmup");
    for (Kernel& k : ks) k.spec(*k.rt);
  }

  // Rounds: every kernel runs its sequential passes, then its speculative
  // passes. Passes shorter than kMinPassSeconds repeat until that much time
  // has passed, so short kernels get enough samples.
  LayerTotals t;
  std::vector<double> round_spec_s;
  const uint64_t deadline =
      mutls::now_ns() + static_cast<uint64_t>(a.seconds * 1e9);
  uint64_t round = 0;
  for (; round < kMinRounds || mutls::now_ns() < deadline; ++round) {
    // Traced runs alternate traced and untraced rounds, so the tracing
    // overhead is measured inside one process.
    const bool traced = a.trace && round % 2 == 1;
    tr.enabled = traced;
    double round_s = 0.0;
    for (Kernel& k : ks) {
      SpanScope pass(tr, "pass", round, k.name);
      uint64_t t0 = mutls::now_ns();
      int seq_passes = 0;
      {
        SpanScope span(tr, "kernel.seq", round, k.name);
        do {
          if (k.seq().checksum != k.want) {
            r.error(std::string(k.name) + " sequential pass " +
                    std::to_string(round) + " is not deterministic");
          }
          ++seq_passes;
        } while (elapsed_s(t0) < kMinPassSeconds);
      }
      const double seq_total = elapsed_s(t0);
      k.seq_s.push_back(seq_total / seq_passes);
      k.seq_traced.push_back(traced);
      t.seq_wall_s += seq_total;
      t.seq_ops += static_cast<uint64_t>(seq_passes);

      const uint64_t s0 = mutls::now_ns();
      int spec_passes = 0;
      do {
        const double cpu0 = process_cpu_s();
        const uint64_t t1 = mutls::now_ns();
        SpecRun p;
        {
          SpanScope span(tr, "kernel.spec", round, k.name);
          p = k.spec(*k.rt);
        }
        const double spec = elapsed_s(t1);
        const double cpu = process_cpu_s() - cpu0;
        if (a.corrupt == "checksum" && r.attempted == 0) p.checksum ^= 1;
        ++r.attempted;
        if (p.checksum != k.want) {
          ++r.failed;
          r.error(std::string(k.name) + " pass in round " +
                  std::to_string(round) + " differs from sequential");
        }
        k.spec_s.push_back(spec);
        k.spec_cpu_s.push_back(cpu);
        k.spec_traced.push_back(traced);
        k.accesses += p.stats.speculative.loads + p.stats.speculative.stores;
        t.add(p.stats);
        t.ops += 1;
        t.spec_wall_s += spec;
        t.spec_cpu_s += cpu;
        ++spec_passes;
      } while (elapsed_s(s0) < kMinPassSeconds);
      round_s += elapsed_s(s0) / spec_passes;
    }
    round_spec_s.push_back(round_s);
  }
  tr.enabled = a.trace;
  r.set("peak_rss_mb", peak_rss_mb(), "MB");

  double seq_round = 0.0, spec_round = 0.0;
  for (Kernel& k : ks) {
    r.set(std::string("workloads.") + k.name + ".speedup",
          fast(k.seq_s) / fast(k.spec_s), "x");
    seq_round += fast(k.seq_s);
    spec_round += fast(k.spec_s);
    r.samples[std::string("spec.") + k.name] = k.spec_s.size();
  }
  r.set("speedup", geomean_ratio(ks, &Kernel::seq_s, &Kernel::spec_s), "x");
  r.set("power_eff", geomean_ratio(ks, &Kernel::seq_s, &Kernel::spec_cpu_s),
        "frac");
  std::vector<double> pass_rate;
  for (Kernel& k : ks) pass_rate.push_back(1.0 / fast(k.spec_s));
  r.set("req_per_s", geomean(pass_rate), "1/s");
  r.set("batch_p50_us", median(round_spec_s) * 1e6, "us");
  r.set("batch_p99_us",
        quantile(round_spec_s, tail_q(round_spec_s.size())) * 1e6, "us");
  r.set("setup_s", median(setup_s), "s");
  r.set("workloads.seq_s", seq_round, "s");
  r.set("workloads.spec_s", spec_round, "s");
  r.samples["rounds"] = round;
  r.samples["setup"] = setup_s.size();

  if (a.trace) {
    // trace.overhead_frac: speedup over traced rounds against untraced.
    auto speedup_when = [&](bool traced) {
      std::vector<double> per_kernel;
      for (const Kernel& k : ks) {
        per_kernel.push_back(fast(where(k.seq_s, k.seq_traced, traced)) /
                             fast(where(k.spec_s, k.spec_traced, traced)));
      }
      return geomean(per_kernel);
    };
    r.set("trace.overhead_frac", 1.0 - speedup_when(true) / speedup_when(false),
          "frac");
  }
  return t;
}

// Layer metrics of a kernel workload; the probes run on `probe_on`, the
// kernel whose runtime has the largest buffer.
void report_kernel_layers(const Args& a, Report& r, Tracer& tr,
                          const LayerTotals& t, Kernel& probe_on) {
  report_layers(r, t);
  const uint64_t settles = t.critical.commits + t.speculative.commits +
                           t.rollbacks();
  if (static_cast<double>(t.rollbacks()) >
      kMaxRollbackFrac * static_cast<double>(settles)) {
    r.error(a.workload + " rolled back " + std::to_string(t.rollbacks()) +
            " of " + std::to_string(settles) + " settles; its prediction is 0");
  }
  r.samples["rollbacks"] = t.rollbacks();
  r.samples["timed_accesses"] = t.spec_accesses();
  if (!a.trace) return;

  Probes p = run_probes(*probe_on.rt, probe_on.buffer_log2, tr);
  r.set("thread_manager.roundtrip_ns", p.roundtrip_ns, "ns");
  r.set("spec_buffer.load_ns_4k", p.load_ns_4k, "ns");
  r.set("spec_buffer.load_ns_64k", p.load_ns_64k, "ns");
  mutls::LatencyHistogram h = settle_probe(*probe_on.rt, 64, tr);
  r.set("thread_manager.settle_p50_us",
        static_cast<double>(h.percentile(0.5)) * 1e-3, "us");
  r.set("thread_manager.settle_p99_us",
        static_cast<double>(h.percentile(0.99)) * 1e-3, "us");
  r.samples["settle"] = h.count();
}

double accesses_per_round(const std::vector<Kernel>& ks) {
  double per_round = 0.0;
  for (const Kernel& k : ks) {
    per_round += static_cast<double>(k.accesses) /
                 static_cast<double>(k.spec_s.size());
  }
  return per_round;
}

}  // namespace

void run_loop_compute(const Args& a, Report& r, Tracer& tr) {
  mutls::workloads::ThreeX::Params tp;
  tp.n = 250'000;
  tp.chunks = 64;
  mutls::workloads::Mandelbrot::Params mp;
  mp.width = 256;
  mp.height = 256;
  mp.max_iter = 2000;
  mp.chunks = 64;

  std::vector<Kernel> ks;
  ks.push_back(make_kernel<mutls::workloads::ThreeX>("threex", 12, tp));
  ks.push_back(make_kernel<mutls::workloads::Mandelbrot>("mandelbrot", 18, mp));
  r.provenance["buffer_log2"] = "threex=12,mandelbrot=18";
  r.provenance["num_cpus"] = std::to_string(kernel_options(12).num_cpus);

  LayerTotals t = run_kernels(a, r, tr, ks);
  double per_round = accesses_per_round(ks);
  if (per_round >= kLoopAccessCeiling) {
    r.error("loop-compute makes " + std::to_string(per_round) +
            " buffered accesses per round; its prediction is under " +
            std::to_string(kLoopAccessCeiling));
  }
  report_kernel_layers(a, r, tr, t, ks[1]);
  if (!a.trace) return;

  const int threads = host_threads();
  double l0 = geomean(
      {l0_speedup(r, tr, "threex", 1.5, ks[0].seq,
                  [&] { return l0_threex(tp, threads); }),
       l0_speedup(r, tr, "mandelbrot", 1.5, ks[1].seq,
                  [&] { return l0_mandelbrot(mp, threads); })});
  r.set("workloads.l0_speedup", l0, "x");
  r.set("workloads.l0_frac", l0 > 0.0 ? r.metrics["speedup"].value / l0 : 0.0,
        "frac");
}

void run_buffered_memory(const Args& a, Report& r, Tracer& tr) {
  using namespace mutls::workloads;
  MolecularDynamics::Params md;
  md.n = 96;
  md.steps = 40;
  md.chunks = 16;
  md.seed = a.seed;
  BarnesHut::Params bh;
  bh.n = 1024;
  bh.steps = 3;
  bh.chunks = 16;
  bh.seed = a.seed;
  Fft::Params fft;
  fft.log2_n = 16;
  fft.fork_levels = 5;
  fft.seed = a.seed;
  MatMult::Params mm;
  mm.n = 128;
  mm.leaf = 32;
  mm.fork_levels = 2;
  mm.seed = a.seed;

  std::vector<Kernel> ks;
  ks.push_back(make_kernel<BarnesHut>("bh", 17, bh));
  ks.push_back(make_kernel<Fft>("fft", 18, fft));
  ks.push_back(make_kernel<MatMult>("matmult", 17, mm));
  ks.push_back(make_kernel<MolecularDynamics>("md", 14, md));
  r.provenance["buffer_log2"] = "bh=17,fft=18,matmult=17,md=14";
  r.provenance["num_cpus"] = std::to_string(kernel_options(12).num_cpus);

  LayerTotals t = run_kernels(a, r, tr, ks);
  double per_round = accesses_per_round(ks);
  if (per_round < kBufferedAccessFloor) {
    r.error("buffered-memory makes only " + std::to_string(per_round) +
            " buffered accesses per round; its prediction is at least " +
            std::to_string(kBufferedAccessFloor));
  }
  report_kernel_layers(a, r, tr, t, ks[1]);
}

}  // namespace perfbench
