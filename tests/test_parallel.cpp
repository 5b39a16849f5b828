// parallel_for_index (base/parallel.h): the fork-join pool behind the
// sweep's run phase and the market and trace generators.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/parallel.h"

namespace cebis {
namespace {

TEST(ParallelForIndex, RunsEveryIndexExactlyOnce) {
  constexpr int kWidth = 4;
  for (const std::int64_t n : {0, 1, 3, 4, 1000}) {
    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
    parallel_for_index(n, kWidth, [&](std::int64_t i) {
      runs[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
          << "n " << n << ", index " << i;
    }
  }
}

TEST(ParallelForIndex, WidthOneRunsInOrderOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::int64_t> order;
  bool on_caller = true;
  parallel_for_index(50, 1, [&](std::int64_t i) {
    order.push_back(i);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<std::int64_t>(i));
  }
  EXPECT_TRUE(on_caller);
}

TEST(ParallelForIndex, RethrowsTheLowerThrowingIndexAfterInFlightWork) {
  // All three indices are in flight together (the latch), so both
  // throwers throw: index 2 at once, index 0 later. Index 1 finishes
  // last and does not throw; the call must wait for it, then rethrow
  // index 0's exception.
  std::latch started(3);
  std::atomic<bool> index1_done{false};
  try {
    parallel_for_index(3, 3, [&](std::int64_t i) {
      started.arrive_and_wait();
      if (i == 2) throw std::runtime_error("index 2");
      std::this_thread::sleep_for(std::chrono::milliseconds(i == 0 ? 20 : 60));
      if (i == 0) throw std::runtime_error("index 0");
      index1_done.store(true);
    });
    FAIL() << "parallel_for_index returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index 0");
  }
  EXPECT_TRUE(index1_done.load());
}

}  // namespace
}  // namespace cebis
