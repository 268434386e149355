// Guards the host-performance contract that steady-state SM,
// interconnect and memory-partition ticks never touch the heap. This
// binary replaces the global operator new with a counting one; the count
// is armed only around SmCore::TickCore, Crossbar::Tick and
// MemoryPartition::Tick.
//
// SM: a memory-heavy kernel runs past its warm-up, then the test keeps
// clocking the simulator's own cores, crossbar and partitions by hand and
// counts only inside TickCore, over a window full of coalesced loads and
// stores, L1D misses, MSHR merges and fills.
//
// Interconnect and partitions:
// A small GpuSimulator runs a memory-heavy kernel to warm every queue up
// with real traffic. The test then drives the simulator's own crossbar and
// partitions directly, standing in for the cores with a bounded synthetic
// load (reads up to a per-core outstanding limit, occasional writes), so
// the busy window exercises L2 hits, misses, MSHR merges, dirty evictions,
// DRAM reads and writes and delivery backpressure at a sustainable rate.
// Queues keep their storage once grown, so the uncounted warm-up runs a
// heavier load than the counted window: the counted window then stays
// below every high-water mark the warm-up reached.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "gpu/simulator.h"
#include "sim/rng.h"
#include "workloads/registry.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dlpsim {
namespace {

// Allocations made while `fn` runs.
template <class Fn>
std::uint64_t AllocationsDuring(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load() - before;
}

SimConfig SmallGpu() {
  SimConfig cfg;
  cfg.num_cores = 4;
  cfg.num_partitions = 2;
  return cfg;
}

std::unique_ptr<Program> MemoryHeavyKernel() {
  ProgramBuilder b(64);
  b.Alu(2).LoadStream().LoadPrivate(64).Alu(2).StoreStream().LoadIndirect(
      1 << 14, 0.6, 7);
  return b.Build();
}

// Drives the simulator's crossbar and partitions with the cores replaced
// by a synthetic load. Only the fabric and partition ticks are counted.
class SyntheticCores {
 public:
  SyntheticCores(GpuSimulator& gpu, const SimConfig& cfg)
      : gpu_(gpu), cfg_(cfg), rng_(42), outstanding_(cfg.num_cores, 0) {
    // Continue past every cycle the simulator has already used: the
    // interconnect clock runs at the core frequency, the memory clock at
    // about 1.42x it.
    icnt_now_ = gpu.core_cycles() + 1;
    mem_now_ = icnt_now_ * 2;
  }

  // Synthetic load per core: at most `max_outstanding` reads in flight,
  // and a write one cycle in `write_one_in`. A zero limit injects nothing.
  struct Load {
    std::uint32_t max_outstanding = 0;
    std::uint64_t write_one_in = 0;
  };

  // Runs `cycles` interconnect cycles; returns the allocations counted in
  // the crossbar and partition ticks.
  std::uint64_t Run(std::uint64_t cycles, Load load) {
    std::uint64_t allocations = 0;
    Crossbar& icnt = gpu_.icnt();
    for (std::uint64_t i = 0; i < cycles; ++i, ++icnt_now_) {
      DrainReplies(icnt);
      if (load.max_outstanding > 0) Inject(icnt, load);
      allocations += AllocationsDuring([&] { icnt.Tick(icnt_now_); });
      // 924 MHz memory vs 650 MHz interconnect: 10 memory ticks per 7
      // interconnect ticks (1.43 against 1.42).
      const int mem_ticks = (i % 7 < 3) ? 2 : 1;
      for (int t = 0; t < mem_ticks; ++t, ++mem_now_) {
        for (MemoryPartition& p : gpu_.partitions()) {
          allocations += AllocationsDuring([&] { p.Tick(mem_now_, icnt); });
        }
      }
    }
    return allocations;
  }

  bool Drained() const {
    if (!gpu_.icnt().Idle()) return false;
    for (const MemoryPartition& p : gpu_.partitions()) {
      if (!p.Idle()) return false;
    }
    return true;
  }

 private:
  static constexpr MshrToken kSynthetic = MshrToken{1} << 63;
  // Twice the aggregate L2 capacity (2 x 64 KiB): a mix of hits and
  // misses, and dirty lines that get evicted.
  static constexpr std::uint64_t kWorkingSetLines = 2048;

  void DrainReplies(Crossbar& icnt) {
    for (std::uint32_t c = 0; c < cfg_.num_cores; ++c) {
      while (icnt.HasForCore(c)) {
        if ((icnt.PopForCore(c).token & kSynthetic) != 0) --outstanding_[c];
      }
    }
  }

  void Inject(Crossbar& icnt, Load load) {
    for (std::uint32_t c = 0; c < cfg_.num_cores; ++c) {
      if (!icnt.CanInjectFromCore(c)) continue;
      const Addr addr =
          (Addr{1} << 40) + rng_.Below(kWorkingSetLines) * 128;
      IcntPacket pkt;
      pkt.addr = addr;
      pkt.src = c;
      pkt.dst = cfg_.PartitionOf(addr);
      if (rng_.Below(load.write_one_in) == 0) {
        pkt.kind = IcntPacket::Kind::kWrite;
        pkt.bytes = 128 + cfg_.icnt.control_overhead;
        icnt.InjectFromCore(c, pkt);
      } else if (outstanding_[c] < load.max_outstanding) {
        pkt.kind = IcntPacket::Kind::kReadRequest;
        pkt.token = kSynthetic | c;
        icnt.InjectFromCore(c, pkt);
        ++outstanding_[c];
      }
    }
  }

  GpuSimulator& gpu_;
  const SimConfig& cfg_;
  Rng rng_;
  std::vector<std::uint32_t> outstanding_;
  Cycle icnt_now_ = 0;
  Cycle mem_now_ = 0;
};

struct Totals {
  std::uint64_t delivered = 0, served = 0, dram_reads = 0, dram_writes = 0,
                l2_writebacks = 0, l2_merges = 0;
};

Totals Snapshot(const GpuSimulator& gpu) {
  Totals t;
  t.delivered = gpu.icnt().packets_delivered;
  for (const MemoryPartition& p : gpu.partitions()) {
    t.served += p.requests_served;
    t.dram_reads += p.dram().reads;
    t.dram_writes += p.dram().writes;
    t.l2_writebacks += p.l2().stats().writebacks;
    t.l2_merges += p.l2().stats().mshr_merges;
  }
  return t;
}

std::vector<int>* g_escaped = nullptr;  // defeats new/delete elision

TEST(ZeroAlloc, CountingOperatorNewSeesAllocations) {
  // The counter itself must work, or a zero below proves nothing.
  const std::uint64_t n =
      AllocationsDuring([] { g_escaped = new std::vector<int>(100); });
  delete g_escaped;
  EXPECT_EQ(n, 2u);
}

TEST(ZeroAlloc, CrossbarAndPartitionTicksDoNotAllocate) {
  const SimConfig cfg = SmallGpu();
  const auto program = MemoryHeavyKernel();
  GpuSimulator gpu(cfg, program.get(), 16);
  for (int i = 0; i < 30000 && !gpu.Done(); ++i) gpu.Step();
  ASSERT_FALSE(gpu.Done()) << "warm-up must end mid-kernel";

  SyntheticCores cores(gpu, cfg);
  // A heavier load first grows every queue past what the counted window
  // will need, uncounted.
  cores.Run(40000, {/*max_outstanding=*/16, /*write_one_in=*/16});

  const Totals before = Snapshot(gpu);
  const std::uint64_t busy = cores.Run(20000, {8, 32});
  const Totals after = Snapshot(gpu);
  EXPECT_EQ(busy, 0u) << "allocations in busy crossbar/partition ticks";
  // The busy window really was busy on every path.
  EXPECT_GT(after.delivered - before.delivered, 5000u);
  EXPECT_GT(after.served - before.served, 2000u);
  EXPECT_GT(after.dram_reads - before.dram_reads, 1000u);
  EXPECT_GT(after.dram_writes - before.dram_writes, 1000u);
  EXPECT_GT(after.l2_writebacks - before.l2_writebacks, 300u);
  EXPECT_GT(after.l2_merges - before.l2_merges, 0u);

  for (int i = 0; i < 100 && !cores.Drained(); ++i) {
    cores.Run(1000, {});
  }
  ASSERT_TRUE(cores.Drained());
  const std::uint64_t idle = cores.Run(20000, {});
  EXPECT_EQ(idle, 0u) << "allocations in idle crossbar/partition ticks";
}

// Uncoalesced streams (4 lines per warp instruction), a tile every warp
// shares (MSHR merges) and a scattered store stream.
std::unique_ptr<Program> SmHeavyKernel() {
  ProgramBuilder b(64);
  b.Alu(2)
      .LoadStream(8)
      .LoadShared(64, 0)
      .Alu(1)
      .StoreStream(16)
      .LoadIndirect(1 << 14, 0.6, 7, 8);
  return b.Build();
}

TEST(ZeroAlloc, SmCoreTicksDoNotAllocate) {
  const SimConfig cfg = SmallGpu();
  const auto program = SmHeavyKernel();
  GpuSimulator gpu(cfg, program.get(), 16);
  for (int i = 0; i < 30000 && !gpu.Done(); ++i) gpu.Step();
  ASSERT_FALSE(gpu.Done()) << "warm-up must end mid-kernel";

  // Continue the run by hand past every cycle the simulator has used:
  // core and interconnect clocks at 650 MHz, 10 memory ticks per 7.
  Crossbar& icnt = gpu.icnt();
  Cycle now = gpu.core_cycles() + 1;
  Cycle mem_now = now * 2;
  auto run = [&](std::uint64_t cycles) {
    std::uint64_t allocations = 0;
    for (std::uint64_t i = 0; i < cycles; ++i, ++now) {
      for (SmCore& core : gpu.cores()) {
        if (core.Inactive()) continue;
        allocations += AllocationsDuring([&] { core.TickCore(now, icnt); });
      }
      icnt.Tick(now);
      const int mem_ticks = (i % 7 < 3) ? 2 : 1;
      for (int t = 0; t < mem_ticks; ++t, ++mem_now) {
        for (MemoryPartition& p : gpu.partitions()) p.Tick(mem_now, icnt);
      }
    }
    return allocations;
  };
  struct SmTotals {
    std::uint64_t mem_ops = 0, transactions = 0, loads = 0, stores = 0,
                  misses = 0, merges = 0, fills = 0, issued = 0;
  };
  auto snapshot = [&] {
    SmTotals t;
    for (const SmCore& core : gpu.cores()) {
      const CacheStats& s = core.l1d().stats();
      t.mem_ops += core.ldst().mem_ops;
      t.transactions += core.ldst().transactions;
      t.loads += s.loads;
      t.stores += s.stores;
      t.misses += s.misses_issued;
      t.merges += s.mshr_merges;
      t.fills += s.fills;
      t.issued += core.issued_warp_insns;
    }
    return t;
  };

  run(5000);  // uncounted: leaves the hand-clocked start-up behind
  const SmTotals before = snapshot();
  const std::uint64_t busy = run(10000);
  const SmTotals after = snapshot();
  EXPECT_EQ(busy, 0u) << "allocations in busy SmCore::TickCore calls";
  // The window really was busy on every SM path.
  EXPECT_GT(after.mem_ops - before.mem_ops, 1000u);
  EXPECT_GT(after.transactions - before.transactions, 3000u);
  EXPECT_GT(after.loads - before.loads, 2000u);
  EXPECT_GT(after.stores - before.stores, 500u);
  EXPECT_GT(after.misses - before.misses, 2000u);
  EXPECT_GT(after.merges - before.merges, 50u);
  EXPECT_GT(after.fills - before.fills, 2000u);
  EXPECT_GT(after.issued - before.issued, 2000u);
  for (const SmCore& core : gpu.cores()) EXPECT_FALSE(core.Drained());
}

}  // namespace
}  // namespace dlpsim
