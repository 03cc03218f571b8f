// google-benchmark microbenchmarks for the controller's building blocks:
// the MCKP DP at various sizes and through each kernel variant, full
// Knapsack-Merge-Reduction solves, and the wire-format codecs used by the
// in-band control loop.
#include <benchmark/benchmark.h>

#include "bench/support.h"
#include "core/mckp.h"
#include "core/mckp_kernel.h"
#include "core/orchestrator.h"
#include "net/rtcp_packets.h"
#include "net/rtp_packet.h"

namespace {

using namespace gso;
using namespace gso::core;

std::vector<MckpClass> RandomMckp(int classes, int items) {
  Rng rng(1);
  std::vector<MckpClass> instance;
  for (int k = 0; k < classes; ++k) {
    MckpClass cls;
    for (int j = 0; j < items; ++j) {
      cls.items.push_back(MckpItem{rng.UniformInt(100'000, 1'800'000),
                                   rng.Uniform(100, 1200)});
    }
    instance.push_back(cls);
  }
  return instance;
}

void BM_MckpDp(benchmark::State& state) {
  const auto instance = RandomMckp(static_cast<int>(state.range(0)),
                                   static_cast<int>(state.range(1)));
  DpMckpSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(instance, 5'000'000));
  }
}
BENCHMARK(BM_MckpDp)
    ->Args({5, 9})
    ->Args({10, 9})
    ->Args({10, 18})
    ->Args({20, 18})
    ->Args({50, 18});

// One 20-class x 18-item knapsack per iteration on a reused workspace,
// through the kernel variant at index arg of mckp_kernel::Variants().
void BM_MckpKernel(benchmark::State& state) {
  const auto variants = mckp_kernel::Variants();
  const auto index = static_cast<size_t>(state.range(0));
  if (index >= variants.size() || !variants[index].supported) {
    state.SkipWithError("variant not built or not supported by this CPU");
    return;
  }
  state.SetLabel(variants[index].name);
  const auto instance = RandomMckp(20, 18);
  MckpWorkspace workspace;
  MckpResult result;
  for (auto _ : state) {
    mckp_kernel::SolveDp(instance, 5'000'000, 1.0, 1 << 16,
                         variants[index].pass, &workspace, &result);
    benchmark::DoNotOptimize(result.choice.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MckpKernel)->DenseRange(0, 2);

void BM_OrchestratorMesh(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto problem =
      gso::bench::MeshProblem(n, n, /*levels_per_resolution=*/5, 42);
  DpMckpSolver solver;
  Orchestrator orchestrator(&solver);
  for (auto _ : state) {
    benchmark::DoNotOptimize(orchestrator.Solve(SolveRequest::Cold(problem)));
  }
}
BENCHMARK(BM_OrchestratorMesh)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_OrchestratorLargeMeeting(benchmark::State& state) {
  // 10 publishers broadcast to `n` subscribers (webinar shape).
  const int n = static_cast<int>(state.range(0));
  const auto problem =
      gso::bench::MeshProblem(10, n, /*levels_per_resolution=*/6, 43);
  DpMckpSolver solver;
  Orchestrator orchestrator(&solver);
  for (auto _ : state) {
    benchmark::DoNotOptimize(orchestrator.Solve(SolveRequest::Cold(problem)));
  }
}
BENCHMARK(BM_OrchestratorLargeMeeting)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_RtpSerializeParse(benchmark::State& state) {
  net::RtpPacket packet;
  packet.ssrc = Ssrc(1234);
  packet.sequence_number = 4242;
  packet.timestamp = 900000;
  packet.transport_sequence = 777;
  packet.payload_size = 1200;
  packet.frame_id = 31;
  packet.packets_in_frame = 3;
  for (auto _ : state) {
    const auto data = packet.Serialize();
    benchmark::DoNotOptimize(net::RtpPacket::Parse(data));
  }
}
BENCHMARK(BM_RtpSerializeParse);

void BM_RtcpCompoundRoundtrip(benchmark::State& state) {
  std::vector<net::RtcpMessage> messages;
  net::TransportFeedback fb;
  fb.sender_ssrc = Ssrc(1);
  fb.base_time_ms = 100000;
  for (int i = 0; i < 50; ++i) {
    fb.packets.push_back({static_cast<uint16_t>(i), i % 7 != 0,
                          static_cast<uint32_t>(i * 40)});
  }
  messages.push_back(fb);
  net::GsoTmmbr gtbr;
  gtbr.sender_ssrc = Ssrc(2);
  gtbr.request_id = 9;
  for (int i = 0; i < 3; ++i) {
    gtbr.entries.push_back(
        {Ssrc(static_cast<uint32_t>(1000 + i)),
         net::MxTbr::FromBitrate(DataRate::KilobitsPerSec(600 + i))});
  }
  messages.push_back(gtbr);
  messages.push_back(net::Semb{Ssrc(3), DataRate::MegabitsPerSecF(2.5)});
  for (auto _ : state) {
    const auto data = net::SerializeCompound(messages);
    benchmark::DoNotOptimize(net::ParseCompound(data));
  }
}
BENCHMARK(BM_RtcpCompoundRoundtrip);

}  // namespace

BENCHMARK_MAIN();
