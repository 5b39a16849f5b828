#ifndef CEBIS_SERVICE_REPLAY_H
#define CEBIS_SERVICE_REPLAY_H

// Deterministic replay of a recorded live session - the verification
// half of the replay-equals-live contract.
//
// A session log (service/event_log.h) carries the session's static
// configuration plus every input the live loop consumed: the price
// ticks and the per-step demand. Replay re-feeds them to a fresh
// LiveEngine built from the logged configuration (no shadow baseline,
// no taps, no log): every recorded tick through on_price_tick(), then
// every recorded step through advance(). The plan, tick assembly,
// workload, engine and observer order are therefore the live session's
// own, built in one place. Because doubles round-trip through the log
// as raw bits, the replayed RunResult is byte-identical to what the
// live session's finish() returned; diff_run_results() checks exactly
// that.

#include <string>

#include "core/experiment.h"
#include "core/simulation.h"
#include "service/event_log.h"

namespace cebis::service {

/// Re-feeds a recorded session to a LiveEngine and returns its result.
/// The fixture must be the one the live session ran against (same seed
/// and shape - checked against the log's SessionMeta). Throws
/// std::invalid_argument on a mismatch, on a step count or step order
/// the period does not allow, or on a log whose ticks stop short of a
/// step's price intervals.
[[nodiscard]] core::RunResult replay(const core::Fixture& fixture,
                                     const RecordedSession& session);

/// read_session() + replay().
[[nodiscard]] core::RunResult replay_file(const core::Fixture& fixture,
                                          const std::string& path);

/// Empty when the two results are bit-for-bit identical (every double
/// compared as its IEEE-754 bits - no tolerances); otherwise a
/// description of the first mismatching field.
[[nodiscard]] std::string diff_run_results(const core::RunResult& a,
                                           const core::RunResult& b);

}  // namespace cebis::service

#endif  // CEBIS_SERVICE_REPLAY_H
