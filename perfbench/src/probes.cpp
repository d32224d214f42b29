// Outside-in layer probes, run on a workload's warmed Runtime after its
// timed window:
//
//   L1  probe.roundtrip — an empty-body Runtime::fork + Runtime::join;
//   L2  probe.load      — buffered SharedSpan loads at 4K- and 64K-word
//                         footprints inside a forked body, i.e. the
//                         MRU-miss path at the footprints workloads touch;
//   L1  probe.settle    — fork-to-settle latency of an empty in-order chain
//                         (par::for_each with LoopOpts::fork_latency).
#include <algorithm>

#include "harness.h"

namespace perfbench {

namespace {

using mutls::Ctx;
using mutls::ForkModel;
using mutls::Runtime;

constexpr int kRoundtripBlocks = 15;
constexpr int kRoundtripsPerBlock = 200;
constexpr int kLoadPasses = 4;  // one first-touch pass, three re-reads

double roundtrip_ns(Runtime& rt, Tracer& tr) {
  std::vector<double> per_block;
  for (int b = 0; b < kRoundtripBlocks; ++b) {
    SpanScope span(tr, "probe.roundtrip", static_cast<uint64_t>(b));
    uint64_t ns = 0;
    rt.run([&](Ctx& ctx) {
      uint64_t t0 = mutls::now_ns();
      for (int i = 0; i < kRoundtripsPerBlock; ++i) {
        mutls::Spec s = rt.fork(ctx, ForkModel::kMixed, [](Ctx&) {});
        rt.join(ctx, s);
      }
      ns = mutls::now_ns() - t0;
    });
    per_block.push_back(static_cast<double>(ns) / kRoundtripsPerBlock);
  }
  return median(per_block);
}

// ns per buffered load over a `words`-word footprint, timed inside the
// speculative child. Samples whose child was not granted or did not commit
// ran unbuffered and are dropped; 0 when no sample committed.
double load_ns(Runtime& rt, size_t words, int samples, Tracer& tr) {
  mutls::SharedArray<uint64_t> data(rt, words, 1);
  std::vector<double> per_load;
  for (int i = 0; i < samples; ++i) {
    SpanScope span(tr, "probe.load", words);
    uint64_t ns = 0;
    uint64_t sum = 0;
    mutls::JoinOutcome outcome = mutls::JoinOutcome::kSequential;
    rt.run([&](Ctx& ctx) {
      mutls::Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
        mutls::SharedSpan<uint64_t> span = data.span(c);
        uint64_t t0 = mutls::now_ns();
        uint64_t acc = 0;
        for (int pass = 0; pass < kLoadPasses; ++pass) {
          for (size_t w = 0; w < words; ++w) acc += span[w].get();
        }
        ns = mutls::now_ns() - t0;
        sum = acc;
      });
      outcome = rt.join(ctx, s);
    });
    if (outcome == mutls::JoinOutcome::kCommitted &&
        sum == static_cast<uint64_t>(kLoadPasses) * words) {
      per_load.push_back(static_cast<double>(ns) /
                         static_cast<double>(kLoadPasses * words));
    }
  }
  return median(per_load);
}

}  // namespace

Probes run_probes(Runtime& rt, int buffer_log2, Tracer& tr) {
  Probes p;
  p.roundtrip_ns = roundtrip_ns(rt, tr);
  // The static hash maps word addresses directly onto 2^buffer_log2 slots,
  // so a contiguous footprint fits exactly when it is no larger.
  const size_t slots = size_t{1} << buffer_log2;
  if (slots >= 4096) p.load_ns_4k = load_ns(rt, 4096, 15, tr);
  if (slots >= 65536) p.load_ns_64k = load_ns(rt, 65536, 7, tr);
  return p;
}

mutls::LatencyHistogram settle_probe(Runtime& rt, int chunks, Tracer& tr) {
  mutls::LatencyHistogram h;
  std::vector<uint64_t> scratch(static_cast<size_t>(chunks));
  mutls::par::LoopOpts lo;
  lo.chunks = chunks;
  lo.fork_latency = &h;
  lo.fork_ns_scratch = scratch.data();
  for (int rep = 0; rep < 64; ++rep) {
    SpanScope span(tr, "probe.settle", static_cast<uint64_t>(rep));
    rt.run([&](Ctx& ctx) {
      mutls::par::for_each(rt, ctx, 0, chunks, lo, [](Ctx&, int64_t) {});
    });
  }
  return h;
}

}  // namespace perfbench
