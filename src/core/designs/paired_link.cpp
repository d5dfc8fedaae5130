#include "core/designs/paired_link.h"

namespace xp::core {

std::vector<Observation> tte_contrast(std::span<const Observation> rows) {
  RowFilter treated_filter;
  treated_filter.link = kMostlyTreatedLink;
  treated_filter.treated = 1;
  RowFilter control_filter;
  control_filter.link = kMostlyControlLink;
  control_filter.treated = 0;
  return cross_cell_contrast(rows, treated_filter, control_filter);
}

std::vector<Observation> cross_cell_contrast(std::span<const Observation> rows,
                                             const RowFilter& exposed,
                                             const RowFilter& control) {
  auto obs = select(rows, exposed, /*relabel=*/1);
  const auto other = select(rows, control, /*relabel=*/0);
  obs.insert(obs.end(), other.begin(), other.end());
  return obs;
}

}  // namespace xp::core
