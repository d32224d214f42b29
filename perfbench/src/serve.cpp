// serve-hotkey: the serving pipeline under a closed loop. One client (the
// non-speculative thread) generates a batch, waits on Server::serve_batch,
// and only then sends the next one. Hot Zipf keys over a small index give
// real conflicts, so this is the workload that loads short fork/joins and
// the rollback/validation path that the kernel workloads bypass.
//
// The oracle replays the same seeded stream through Server::serve_batch_seq
// against a sequential index, block by block inside the timed window (which
// also gives the sequential baseline), and every batch's counters and the
// final index checksum must match; the comparison runs after the window.
#include <algorithm>
#include <memory>

#include "harness.h"
#include "serving/cache_index.h"
#include "serving/request_gen.h"
#include "serving/serve_batch.h"

namespace perfbench {

namespace {

using mutls::Ctx;
using mutls::Runtime;
using namespace mutls::serving;

constexpr size_t kBatch = 256;
constexpr int kChunks = 16;
constexpr size_t kIndexLog2 = 10;  // 1024 slots
constexpr int kBufferLog2 = 14;
constexpr int kSetupReps = 11;
constexpr double kWarmupSeconds = 0.5;
constexpr size_t kBlock = 32;  // batches per speculative / oracle block
constexpr size_t kWindowBlocks = 8;  // blocks per reporting window
constexpr double kCalm = 0.1;  // share of windows the rates are read from

// One server instance: runtime, index, server and its request stream.
struct Instance {
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<CacheIndex> index;
  std::unique_ptr<Server> server;
  std::unique_ptr<RequestGen> gen;

  void reset() {
    server.reset();
    index.reset();
    rt.reset();
    gen.reset();
  }
};

TrafficConfig traffic(uint64_t seed) {
  TrafficConfig cfg;
  cfg.num_keys = 4096;
  cfg.zipf_s = 1.1;
  cfg.put_ratio = 0.125;
  cfg.malformed_ratio = 0.02;
  cfg.seed = seed;
  return cfg;
}

double ns_to_s(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

void run_serve_hotkey(const Args& a, Report& r, Tracer& tr) {
  Runtime::Options o;
  o.num_cpus = std::max(1, host_threads() - 2);
  o.buffer_log2 = kBufferLog2;
  r.provenance["buffer_log2"] = std::to_string(kBufferLog2);
  r.provenance["num_cpus"] = std::to_string(o.num_cpus);
  const TrafficConfig cfg = traffic(a.seed);

  RequestBatch batch(kBatch);
  mutls::LatencyHistogram settle;
  uint64_t fork_ns_scratch[kChunks];
  ServeOpts opts;
  opts.chunks = kChunks;
  opts.fork_latency = &settle;
  opts.fork_ns_scratch = fork_ns_scratch;

  // Counters of every batch the surviving instance served, cold batch
  // first; the batch's position is also its PUT epoch.
  std::vector<BatchCounters> got;
  got.reserve(1 << 20);

  // setup: Runtime, index and server construction plus the first cold
  // batch, repeated; the last instance is kept.
  Instance inst;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    inst.reset();
    got.clear();
    SpanScope span(tr, "setup", static_cast<uint64_t>(rep));
    uint64_t t0 = mutls::now_ns();
    inst.rt = std::make_unique<Runtime>(o);
    inst.index = std::make_unique<CacheIndex>(*inst.rt, kIndexLog2);
    inst.server = std::make_unique<Server>(*inst.rt, *inst.index, kBatch);
    inst.gen = std::make_unique<RequestGen>(cfg);
    inst.gen->fill(batch);
    inst.rt->run([&](Ctx& ctx) {
      got.push_back(inst.server->serve_batch(ctx, batch, 0, opts));
    });
    setup_s.push_back(ns_to_s(mutls::now_ns() - t0));
  }
  Runtime& rt = *inst.rt;
  r.provenance["handoff_spin_budget"] =
      std::to_string(rt.manager().handoff_spin_budget());

  {
    SpanScope span(tr, "warmup");
    const uint64_t until =
        mutls::now_ns() + static_cast<uint64_t>(kWarmupSeconds * 1e9);
    rt.run([&](Ctx& ctx) {
      while (mutls::now_ns() < until) {
        inst.gen->fill(batch);
        got.push_back(
            inst.server->serve_batch(ctx, batch, got.size(), opts));
      }
    });
  }
  settle.clear();

  // The oracle: the same seeded stream, regenerated and served by
  // serve_batch_seq against a sequential index. It first catches up with
  // the untimed batches.
  CacheIndex seq_index(kIndexLog2);
  RequestGen seq_gen(cfg);
  RequestBatch seq_batch(kBatch);
  std::vector<BatchCounters> want;
  want.reserve(got.capacity());
  std::vector<double> seq_s;
  auto replay = [&](bool timed) {
    while (want.size() < got.size()) {
      seq_gen.fill(seq_batch);
      uint64_t t0 = mutls::now_ns();
      want.push_back(
          Server::serve_batch_seq(seq_index, seq_batch, want.size()));
      if (timed) seq_s.push_back(ns_to_s(mutls::now_ns() - t0));
    }
  };
  {
    SpanScope span(tr, "oracle");
    replay(false);
  }

  // The timed window alternates blocks: kBlock batches from the
  // closed-loop client, then the oracle replays the same batches. Host
  // speed drifts by tens of percent over seconds on shared machines, so
  // the sequential baseline is sampled beside the speculative one; workers
  // park about 4 us after their last task, so the replay does not run
  // beside spinning workers.
  const size_t first = got.size();
  std::vector<double> lat_s;
  std::vector<double> cpu_s;
  std::vector<double> block_s;  // wall time of each speculative block
  std::vector<bool> block_traced;
  const uint64_t deadline =
      mutls::now_ns() + static_cast<uint64_t>(a.seconds * 1e9);
  mutls::RunStats stats = rt.run([&](Ctx& ctx) {
    for (uint64_t block = 0; mutls::now_ns() < deadline; ++block) {
      const bool traced = a.trace && block % 2 == 1;
      tr.enabled = traced;
      const uint64_t b0 = mutls::now_ns();
      for (size_t i = 0; i < kBlock; ++i) {
        inst.gen->fill(batch);
        double cpu0 = process_cpu_s();
        uint64_t t0 = mutls::now_ns();
        {
          SpanScope span(tr, "serve_batch", got.size());
          got.push_back(
              inst.server->serve_batch(ctx, batch, got.size(), opts));
        }
        lat_s.push_back(ns_to_s(mutls::now_ns() - t0));
        cpu_s.push_back(process_cpu_s() - cpu0);
      }
      block_s.push_back(ns_to_s(mutls::now_ns() - b0));
      block_traced.push_back(traced);
      SpanScope span(tr, "oracle", block);
      replay(true);
    }
  });
  tr.enabled = a.trace;
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  const size_t batches = lat_s.size();
  if (a.corrupt == "counter") got[first].get_hits += 1;

  BatchCounters total;
  for (size_t i = 0; i < got.size(); ++i) {
    if (i >= first) total += want[i];
    if (want[i] == got[i]) continue;
    if (i < first) {
      r.error("untimed batch " + std::to_string(i) +
              " differs from sequential");
      continue;
    }
    if (++r.failed <= 3) {
      r.error("batch " + std::to_string(i) + " differs from sequential");
    }
  }
  if (seq_index.checksum() != inst.index->checksum()) {
    if (r.failed == 0) r.failed = 1;
    r.error("final cache index differs from sequential");
  }
  r.attempted = batches;

  // Windows of kWindowBlocks blocks (256 batches, about a tenth of a
  // second each). On a shared machine a neighbour can stall the workers for
  // milliseconds at a time, over most of a run or little of it, so a median
  // over windows moves with how long the neighbour stayed. The rates are
  // therefore read from the calm windows:
  //  - speedup, power_eff and req_per_s: the best decile of the windows'
  //    values. speedup and power_eff compare totals over the same batches
  //    of a window; each oracle block runs right after the speculative block
  //    it replays, so both sides see the same host.
  //  - batch_p99_us: the p99 of all batches of the calm quarter, the windows
  //    with the least total serve_batch time, so about 90 batches lie
  //    beyond it.
  // In runs of five seeds beside two on-off CPU hogs, speedup, power_eff
  // and the p99 spread 4-7% this way, against 13-14% for medians over
  // windows.
  std::vector<double> w_speedup, w_power, w_rate, w_spec;
  const size_t blocks = block_s.size();
  const size_t per_window =
      std::max<size_t>(1, std::min(blocks, kWindowBlocks));
  for (size_t b0 = 0; b0 + per_window <= blocks; b0 += per_window) {
    double seq = 0.0, spec = 0.0, cpu = 0.0, wall = 0.0;
    for (size_t i = b0 * kBlock; i < (b0 + per_window) * kBlock; ++i) {
      seq += seq_s[i];
      spec += lat_s[i];
      cpu += cpu_s[i];
    }
    for (size_t b = b0; b < b0 + per_window; ++b) wall += block_s[b];
    w_speedup.push_back(seq / spec);
    w_power.push_back(seq / cpu);
    w_rate.push_back(static_cast<double>(per_window * kBlock * kBatch) / wall);
    w_spec.push_back(spec);
  }
  const size_t calm_windows = (w_spec.size() + 3) / 4;
  std::vector<size_t> order(w_spec.size());
  for (size_t w = 0; w < order.size(); ++w) order[w] = w;
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return w_spec[x] < w_spec[y]; });
  std::vector<double> calm_lat;
  for (size_t k = 0; k < calm_windows; ++k) {
    auto first_batch = lat_s.begin() + order[k] * per_window * kBlock;
    calm_lat.insert(calm_lat.end(), first_batch,
                    first_batch + per_window * kBlock);
  }
  r.set("speedup", quantile(w_speedup, 1.0 - kCalm), "x");
  r.set("power_eff", quantile(w_power, 1.0 - kCalm), "frac");
  r.set("req_per_s", quantile(w_rate, 1.0 - kCalm), "1/s");
  r.set("batch_p50_us", median(lat_s) * 1e6, "us");
  r.set("batch_p99_us", quantile(calm_lat, 0.99) * 1e6, "us");
  r.set("setup_s", median(setup_s), "s");
  r.samples["batches"] = batches;
  r.samples["windows"] = w_rate.size();
  r.samples["p99_batches"] = calm_lat.size();
  r.samples["setup"] = setup_s.size();

  LayerTotals t;
  t.add(stats);
  t.ops = batches;
  for (size_t i = 0; i < batches; ++i) {
    t.spec_wall_s += lat_s[i];
    t.spec_cpu_s += cpu_s[i];
    t.seq_wall_s += seq_s[i];
  }
  t.seq_ops = batches;
  report_layers(r, t);
  if (t.rollbacks() == 0) {
    r.error("serve-hotkey never rolled back; its prediction is above 0");
  }
  if (!a.trace) return;

  r.set("workloads.seq_s", median(seq_s), "s");
  r.set("workloads.spec_s", median(lat_s), "s");
  r.set("thread_manager.settle_p50_us",
        static_cast<double>(settle.percentile(0.5)) * 1e-3, "us");
  r.set("thread_manager.settle_p99_us",
        static_cast<double>(settle.percentile(0.99)) * 1e-3, "us");
  r.samples["settle"] = settle.count();
  r.set("serving.seq_req_per_s",
        static_cast<double>(batches * kBatch) / t.seq_wall_s, "1/s");
  r.set("serving.get_hit_frac",
        static_cast<double>(total.get_hits) /
            static_cast<double>(total.get_hits + total.get_misses),
        "frac");
  r.set("serving.malformed_frac",
        static_cast<double>(total.malformed) /
            static_cast<double>(total.requests),
        "frac");
  r.set("serving.evictions_per_batch",
        static_cast<double>(total.evictions) / static_cast<double>(batches),
        "1/op");

  // trace.overhead_frac: request rate over traced blocks against untraced.
  double wall[2] = {0.0, 0.0}, count[2] = {0.0, 0.0};
  for (size_t b = 0; b < blocks; ++b) {
    wall[block_traced[b]] += block_s[b];
    count[block_traced[b]] += 1.0;
  }
  if (wall[0] > 0.0 && wall[1] > 0.0) {
    r.set("trace.overhead_frac",
          1.0 - (count[1] / wall[1]) / (count[0] / wall[0]), "frac");
  }

  Probes p = run_probes(rt, kBufferLog2, tr);
  r.set("thread_manager.roundtrip_ns", p.roundtrip_ns, "ns");
  r.set("spec_buffer.load_ns_4k", p.load_ns_4k, "ns");
  r.set("spec_buffer.load_ns_64k", p.load_ns_64k, "ns");
}

}  // namespace perfbench
