// Heap allocations per batch step, counted rather than timed. This
// binary replaces the global operator new with one that counts calls,
// opens batch sessions through the same construction the scenario
// runner uses (plan_run, a fresh workload and engine per cell), takes
// the first step - which may size scratch space such as a router's plan
// - and pins every later step at zero allocations. A count does not
// drift with the host's speed, so it gates hard where a timing cannot.
//
// The replacement forwards to malloc/free, so the sanitizers still see
// every block; every new/delete form that could otherwise pair a
// counted allocation with the runtime's own operator delete is replaced
// together.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>

#include "core/experiment.h"
#include "core/simulation.h"
#include "core/workload.h"
#include "test_support.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

// Out of line, so that GCC does not see malloc and free paired with
// new and delete at inlined call sites (-Wmismatched-new-delete).
[[gnu::noinline]] void* counted_alloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

namespace cebis::core {
namespace {

struct AllocCell {
  const char* router;
  WorkloadKind workload;
  bool enforce_p95;
};

std::string label(const AllocCell& cell) {
  std::string name = cell.router;
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += cell.workload == WorkloadKind::kTrace24Day ? "_trace" : "_study";
  name += cell.enforce_p95 ? "_p95" : "_relaxed";
  return name;
}

void PrintTo(const AllocCell& cell, std::ostream* os) { *os << label(cell); }

std::string cell_name(const ::testing::TestParamInfo<AllocCell>& info) {
  return label(info.param);
}

std::int64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

class AllocFree : public ::testing::TestWithParam<AllocCell> {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new Fixture(Fixture::make(test::kTestSeed));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static Fixture* fixture_;
};

Fixture* AllocFree::fixture_ = nullptr;

TEST_P(AllocFree, BatchStepsAfterTheFirstAllocateNothing) {
  const AllocCell& cell = GetParam();
  const Fixture& fx = *fixture_;
  ScenarioSpec spec;
  spec.router = cell.router;
  spec.workload = cell.workload;
  spec.enforce_p95 = cell.enforce_p95;
  if (cell.workload == WorkloadKind::kSynthetic39Month) {
    const HourIndex mid = study_period().begin + 24 * 900;  // mid-2008
    spec.synthetic_window = Period{mid, mid + 24 * 14};
  }

  const Period period = scenario_period(fx, spec);
  RunPlan plan = plan_run(fx, spec, period);
  const market::PriceSet& prices =
      fx.prices_covering(plan.priced, market_samples_per_hour(spec));
  std::unique_ptr<Workload> workload;
  if (cell.workload == WorkloadKind::kTrace24Day) {
    workload = std::make_unique<TraceWorkload>(fx.trace, fx.allocation);
  } else {
    workload = std::make_unique<SyntheticWorkload39>(fx.synthetic,
                                                     fx.allocation, period);
  }
  const SimulationEngine engine(std::move(plan.clusters), prices, fx.distances,
                                plan.engine);

  const std::int64_t at_open = allocations();
  SimulationEngine::Session session = engine.begin(*workload, *plan.router);
  session.step();
  const std::int64_t after_first = allocations();
  while (!session.done()) session.step();
  const std::int64_t after_last = allocations();

  // Opening a session allocates, so a zero below is the count's, not a
  // counter that never ran.
  EXPECT_GT(after_first - at_open, 0);
  EXPECT_EQ(after_last - after_first, 0)
      << "over " << session.steps_done() - 1 << " steps after the first";
}

constexpr WorkloadKind kStudy = WorkloadKind::kSynthetic39Month;
constexpr WorkloadKind kTrace = WorkloadKind::kTrace24Day;
constexpr AllocCell kCells[] = {
    {"price-aware", kStudy, false},     {"price-aware", kStudy, true},
    {"baseline", kTrace, false},        {"baseline", kTrace, true},
    {"closest", kTrace, false},         {"closest", kTrace, true},
    {"price-aware", kTrace, false},     {"price-aware", kTrace, true},
    {"joint-objective", kTrace, false}, {"joint-objective", kTrace, true},
};

INSTANTIATE_TEST_SUITE_P(Routers, AllocFree, ::testing::ValuesIn(kCells),
                         cell_name);

}  // namespace
}  // namespace cebis::core
