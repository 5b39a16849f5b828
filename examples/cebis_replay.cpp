// Replays a recorded live-session event log.
//
// Reads the log (validating the header and every frame's CRC), prints
// the recorded session's configuration, rebuilds the fixture named by
// the recorded seed, and re-feeds every recorded tick and step to a
// fresh LiveEngine built from the logged configuration
// (service::replay). The totals printed here are bit-identical to what
// the live session reported (the replay-equals-live contract;
// cebis_serve verifies it inline, tests/test_replay_equals_live.cpp
// pins it). A log whose ticks stop short of a step's prices is refused.
//
// Usage: cebis_replay <event-log>

#include <cstdio>
#include <exception>

#include "core/experiment.h"
#include "service/event_log.h"
#include "service/replay.h"

int main(int argc, char** argv) {
  using namespace cebis;
  if (argc < 2) {
    std::fprintf(stderr, "usage: cebis_replay <event-log>\n");
    return 2;
  }

  try {
    const service::RecordedSession session = service::read_session(argv[1]);
    const service::SessionMeta& meta = session.meta;
    std::printf("Recorded session: router '%s', seed %llu\n",
                meta.router.c_str(),
                static_cast<unsigned long long>(meta.seed));
    std::printf(
        "  window [%lld, %lld) hours, %d steps/hour, %d price samples/hour, "
        "delay %d h / %d steps\n",
        static_cast<long long>(meta.period.begin),
        static_cast<long long>(meta.period.end), meta.steps_per_hour,
        meta.samples_per_hour, meta.delay_hours, meta.delay_steps);
    std::printf(
        "  %zu price ticks, %zu workload steps, %zu routing decisions, "
        "%zu storage actions\n",
        session.ticks.size(), session.steps.size(), session.decisions.size(),
        session.storage_actions.size());

    std::printf("Rebuilding fixture (seed %llu) and replaying...\n",
                static_cast<unsigned long long>(meta.seed));
    const core::Fixture fixture = core::Fixture::make(meta.seed);
    const core::RunResult result = service::replay(fixture, session);

    std::printf("\nReplayed run: $%.2f, %.1f MWh, mean distance %.0f km, "
                "overflow steps %lld\n",
                result.total_cost.value(), result.total_energy.value(),
                result.mean_distance_km,
                static_cast<long long>(result.overflow_steps));
    if (result.storage.engaged) {
      std::printf("  storage: raw $%.2f -> net $%.2f (charged %.2f MWh, "
                  "discharged %.2f MWh)\n",
                  result.storage.raw_total().value(),
                  result.storage.net_total().value(),
                  result.storage.charged_mwh, result.storage.discharged_mwh);
    }
    return 0;
  } catch (const service::EventLogError& e) {
    std::fprintf(stderr, "event log error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay failed: %s\n", e.what());
    return 1;
  }
}
