#include "core/batch.h"

#include <algorithm>

namespace ptrider::core {

void Dispatcher::SortBySubmitOrder(std::vector<vehicle::Request>& batch) {
  std::stable_sort(batch.begin(), batch.end(),
                   [](const vehicle::Request& a, const vehicle::Request& b) {
                     if (a.submit_time_s != b.submit_time_s) {
                       return a.submit_time_s < b.submit_time_s;
                     }
                     return a.id < b.id;
                   });
}

std::optional<size_t> Dispatcher::ChooseEarliest(const vehicle::Request&,
                                                 const MatchResult& match) {
  const std::vector<Option>& options = match.options;
  if (options.empty()) return std::nullopt;
  size_t best = 0;
  for (size_t i = 1; i < options.size(); ++i) {
    if (options[i].pickup_time_s < options[best].pickup_time_s) best = i;
  }
  return best;
}

std::optional<size_t> Dispatcher::ChooseCheapest(const vehicle::Request&,
                                                 const MatchResult& match) {
  const std::vector<Option>& options = match.options;
  if (options.empty()) return std::nullopt;
  size_t best = 0;
  for (size_t i = 1; i < options.size(); ++i) {
    if (options[i].price < options[best].price) best = i;
  }
  return best;
}

}  // namespace ptrider::core
