#include "core/workload.h"

#include <stdexcept>

namespace cebis::core {

namespace {

std::vector<double> subset_fractions(const traffic::BaselineAllocation& alloc) {
  std::vector<double> out(alloc.state_count());
  for (std::size_t s = 0; s < out.size(); ++s) {
    out[s] = alloc.subset_fraction(StateId{static_cast<std::int32_t>(s)});
  }
  return out;
}

}  // namespace

TraceWorkload::TraceWorkload(const traffic::TrafficTrace& trace,
                             const traffic::BaselineAllocation& alloc)
    : trace_(trace), subset_fraction_(subset_fractions(alloc)) {
  if (trace.state_count() != alloc.state_count()) {
    throw std::invalid_argument("TraceWorkload: state count mismatch");
  }
}

void TraceWorkload::demand(std::int64_t step, std::span<double> out) const {
  if (out.size() != trace_.state_count()) {
    throw std::invalid_argument("TraceWorkload::demand: bad output size");
  }
  const auto row = trace_.state_row(step);
  for (std::size_t s = 0; s < out.size(); ++s) {
    out[s] = row[s] * subset_fraction_[s];
  }
}

SyntheticWorkload39::SyntheticWorkload39(const traffic::SyntheticWorkload& synth,
                                         const traffic::BaselineAllocation& alloc,
                                         Period period)
    : synth_(synth), period_(period), subset_fraction_(subset_fractions(alloc)) {
  if (synth.state_count() != alloc.state_count()) {
    throw std::invalid_argument("SyntheticWorkload39: state count mismatch");
  }
  if (period_.hours() <= 0) {
    throw std::invalid_argument("SyntheticWorkload39: empty period");
  }
}

void SyntheticWorkload39::demand(std::int64_t step, std::span<double> out) const {
  if (out.size() != synth_.state_count()) {
    throw std::invalid_argument("SyntheticWorkload39::demand: bad output size");
  }
  if (step < 0 || step >= period_.hours()) {
    throw std::out_of_range("SyntheticWorkload39::demand: bad step");
  }
  const auto row = synth_.state_row(period_.begin + step);
  for (std::size_t s = 0; s < out.size(); ++s) {
    out[s] = row[s] * subset_fraction_[s];
  }
}

}  // namespace cebis::core
