#include "core/routing.h"

#include <stdexcept>

namespace cebis::core {

Allocation::Allocation(std::size_t states, std::size_t clusters)
    : states_(states), clusters_(clusters) {
  if (states == 0 || clusters == 0) {
    throw std::invalid_argument("Allocation: empty dimensions");
  }
  hits_.assign(states * clusters, 0.0);
  totals_.assign(clusters, 0.0);
  entries_.reserve(states * 2);  // typical: one or two clusters per state
}

void Allocation::clear() {
  for (const Entry& e : entries_) {
    hits_[e.state * clusters_ + e.cluster] = 0.0;
  }
  entries_.clear();
  std::fill(totals_.begin(), totals_.end(), 0.0);
}

void Allocation::out_of_range(const char* where) {
  throw std::out_of_range(where);
}

void Allocation::negative_hits() {
  throw std::invalid_argument("Allocation::add: negative hits");
}

}  // namespace cebis::core
